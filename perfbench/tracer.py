"""Span wrappers installed from outside the program, for the traced run.

Each traced function is replaced, in every module of the package that binds
it, by a wrapper that records a span.  Consumers look functions up by module
global name at call time, so replacing the binding in ``pair_state`` traces
the calls ``pair_state`` makes (``coupling_matrix``), replacing it in
``geometry_explorer`` traces the scan's calls (``build_pair_state``), and so
on.  Spans are aggregated in memory per function: calls, and self time, which
is span time minus the time of the spans nested directly inside it.
"""

from __future__ import annotations

import sys
from functools import wraps
from time import perf_counter

TRACED = {
    "angular_momentum": ("wigner_3j", "wigner_6j", "clebsch_gordan"),
    "atomic_model": ("load_atom_spec", "dipole_matrix_element", "validity_check"),
    "raman_coupling": ("coupling_matrix", "detection_modes"),
    "pair_state": (
        "build_pair_state",
        "photon_frequency",
        "scattered_spinor",
        "spectral_filter",
        "pair_state_to_json",
    ),
    "entanglement_analysis": (
        "schmidt",
        "entanglement_entropy",
        "concurrence_after_filter",
        "conditional_overlap",
    ),
    "geometry_explorer": ("scan_sphere", "write_scan", "argmax_direction"),
    "bell_sim": ("sample_events", "events_to_csv", "optimize_chsh"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns)


class Tracer:
    """Swaps span wrappers in and out of a package's module namespaces.

    A function the package no longer defines is skipped and reports zero
    calls, so the benchmark keeps running across refactors.
    """

    def __init__(self, package: str) -> None:
        self.stats = {name: [0, 0.0] for name in SPAN_NAMES}  # calls, self seconds
        self.top_s = 0.0  # time inside outermost spans
        self._stack: list[float] = []  # child-span time of each open span
        self._patches: list[tuple[object, str, object, object]] = []
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if name == package or name.startswith(package + ".")
        ]
        for module_name, functions in TRACED.items():
            home = sys.modules.get(f"{package}.{module_name}")
            for fn_name in functions:
                original = getattr(home, fn_name, None)
                if original is None:
                    continue
                wrapper = self._wrap(self.stats[f"{module_name}.{fn_name}"], original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original, wrapper))

    def _wrap(self, stat: list, fn):
        stack = self._stack

        @wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                stat[0] += 1
                stat[1] += elapsed - children
                if stack:
                    stack[-1] += elapsed
                else:
                    self.top_s += elapsed

        return span

    def install(self) -> None:
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def reset(self) -> None:
        for stat in self.stats.values():
            stat[0], stat[1] = 0, 0.0
        self.top_s = 0.0
