"""Entangled atom-photon pair states from off-resonant light scattering on a
spinor Bose-Einstein condensate: exact angular-momentum algebra, pair-state
assembly with recoil and spectral filtering, entanglement quantification,
CHSH simulation, and geometry scans."""

__version__ = "0.1.0"

from .angular_momentum import (
    CoupledValue,
    HalfInt,
    clebsch_gordan,
    halfint,
    triangle_ok,
    wigner_3j,
    wigner_6j,
)
from .atomic_model import (
    AtomSpec,
    SublevelId,
    detuning,
    dipole_matrix_element,
    load_atom_spec,
    sodium,
    spherical_basis_vectors,
    validity_check,
)
from .bell_sim import chsh, correlation, optimize_chsh, sample_events
from .entanglement_analysis import (
    SchmidtResult,
    concurrence_2x2,
    concurrence_after_filter,
    entanglement_entropy,
    is_factorized,
    schmidt,
)
from .geometry_explorer import ScanMap, argmax_direction, scan_sphere
from .pair_state import (
    Channel,
    CondensateSpinor,
    PairBatch,
    PairState,
    PumpConfig,
    build_pair_state,
    pair_batch,
    pair_state_from_json,
    pair_state_to_json,
    sodium_condensate,
    spectral_filter,
)

__all__ = [
    "__version__",
    "HalfInt",
    "halfint",
    "CoupledValue",
    "triangle_ok",
    "clebsch_gordan",
    "wigner_3j",
    "wigner_6j",
    "AtomSpec",
    "SublevelId",
    "spherical_basis_vectors",
    "dipole_matrix_element",
    "detuning",
    "validity_check",
    "load_atom_spec",
    "sodium",
    "PumpConfig",
    "CondensateSpinor",
    "Channel",
    "PairState",
    "PairBatch",
    "pair_batch",
    "build_pair_state",
    "spectral_filter",
    "pair_state_to_json",
    "pair_state_from_json",
    "sodium_condensate",
    "SchmidtResult",
    "schmidt",
    "entanglement_entropy",
    "concurrence_2x2",
    "concurrence_after_filter",
    "is_factorized",
    "correlation",
    "chsh",
    "optimize_chsh",
    "sample_events",
    "ScanMap",
    "scan_sphere",
    "argmax_direction",
]
