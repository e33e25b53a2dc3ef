"""Entangled atom-photon pair states from off-resonant light scattering on a
spinor Bose-Einstein condensate: exact angular-momentum algebra, pair-state
assembly with recoil and spectral filtering, entanglement quantification,
CHSH simulation, and geometry scans."""

__version__ = "0.1.0"

# Each export is imported from its module on first use (PEP 562), so that
# ``import raman_pairs`` and the numpy-free ``tables`` command load no numpy.
_HOMES = {
    "angular_momentum": (
        "CoupledValue",
        "HalfInt",
        "clebsch_gordan",
        "halfint",
        "wigner_3j",
        "wigner_6j",
    ),
    "atomic_model": (
        "AtomSpec",
        "detuning",
        "dipole_matrix_element",
        "load_atom_spec",
        "sodium",
        "validity_check",
    ),
    "bell_sim": ("chsh", "correlation", "optimize_chsh", "sample_events"),
    "entanglement_analysis": (
        "SchmidtResult",
        "concurrence_2x2",
        "concurrence_after_filter",
        "entanglement_entropy",
        "schmidt",
    ),
    "geometry_explorer": ("ScanMap", "argmax_direction", "scan_sphere"),
    "pair_state": (
        "Channel",
        "CondensateSpinor",
        "PairBatch",
        "PairState",
        "PumpConfig",
        "build_pair_state",
        "pair_batch",
        "pair_state_to_json",
        "sodium_condensate",
        "spectral_filter",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    """An export, imported from its module on first use and then bound here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
