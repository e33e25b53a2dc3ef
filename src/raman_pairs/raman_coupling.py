"""Photon modes and one- and two-photon coupling amplitudes.

``single_photon_coupling`` is the dipole coupling of one photon mode to one
ground-excited sublevel pair,

    g = E_k sum_q (eps_q* . eps_klambda) <F m|e r . eps_q|F' m'>,

in rad/s with hbar divided out, the field per photon E_k set to 1 and the
reduced dipole in configured units.  ``effective_coupling`` is the excited-manifold-summed
two-photon amplitude after adiabatic elimination,

    G = sum_(F'' m'') g_out*(F'' m'', final) g_in(F'' m'', initial) / Delta(F'_initial).

Acting on a condensate spinor phi0, everything except the detected mode
collapses into one factor per species, pump and condensate,

    w = g_in . (phi0 / Delta),    B[g, q] = sum_e dip[e, g, q] w_e,

so the scattered amplitudes of N detection directions are the contraction
``rows[n, lambda, g] = sum_q B[g, q] conj(eps_q* . eps_lambda(k_n))``
(``condensate_factor`` and ``branch_amplitudes``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .atomic_model import (
    AtomSpec,
    SublevelId,
    detuning,
    dipole_matrix_element,
    spherical_component,
)
from .errors import InputDomainError, SingularDetuningError

__all__ = [
    "PhotonMode",
    "polarization_basis",
    "polarization_bases",
    "detection_modes",
    "single_photon_coupling",
    "effective_coupling",
    "coupling_tensor",
    "condensate_factor",
    "branch_amplitudes",
    "sequential_sum",
]

_GEOM_TOL = 1e-12
_POLE_CONE = 1e-9


@dataclass(frozen=True, eq=False)
class PhotonMode:
    """A field mode: unit propagation direction, polarization index, and
    explicit complex transverse polarization vector."""

    direction: np.ndarray
    lam: int
    polarization: np.ndarray

    def __post_init__(self) -> None:
        # every guard is written so that NaN fails it
        k = np.asarray(self.direction, dtype=float)
        pol = np.asarray(self.polarization, dtype=complex)
        if k.shape != (3,) or pol.shape != (3,):
            raise InputDomainError("direction and polarization must be 3-vectors")
        if not abs(np.linalg.norm(k) - 1.0) <= _GEOM_TOL:
            raise InputDomainError("mode direction must be a unit vector")
        if not abs(np.linalg.norm(pol) - 1.0) <= _GEOM_TOL:
            raise InputDomainError("mode polarization must be a unit vector")
        if not abs(np.vdot(pol, k)) <= _GEOM_TOL:
            raise InputDomainError("mode polarization must be transverse")
        if self.lam not in (1, 2):
            raise InputDomainError("polarization index must be 1 or 2")
        k.flags.writeable = False
        pol.flags.writeable = False
        object.__setattr__(self, "direction", k)
        object.__setattr__(self, "polarization", pol)


def polarization_bases(k_hats: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal transverse pairs for N unit directions.

    ``k_hats`` has shape (N, 3); the result has shape (N, 2, 3), row lambda-1
    holding eps_lambda.  Away from the z axis this is the spherical-coordinate
    pair (theta-hat, phi-hat).  Within 1e-9 rad of +-z it switches to the
    circular pair (eps_+1, eps_-1), the natural basis on the quantization
    axis.  Every entry is an elementwise function of its own direction, so a
    direction gets the same bits alone or in a batch.
    """
    k = np.asarray(k_hats, dtype=float)
    s = np.hypot(k[:, 0], k[:, 1])
    pole = s < _POLE_CONE
    safe = np.where(pole, 1.0, s)
    cos_phi, sin_phi = k[:, 0] / safe, k[:, 1] / safe
    basis = np.zeros((len(k), 2, 3), dtype=complex)
    basis[:, 0, 0] = k[:, 2] * cos_phi
    basis[:, 0, 1] = k[:, 2] * sin_phi
    basis[:, 0, 2] = -s
    basis[:, 1, 0] = -sin_phi
    basis[:, 1, 1] = cos_phi
    basis[pole] = (spherical_component(+1), spherical_component(-1))
    return basis


def polarization_basis(k_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The transverse pair of :func:`polarization_bases` for one direction."""
    k = np.asarray(k_hat, dtype=float)
    if k.shape != (3,):
        raise InputDomainError("direction must be a 3-vector")
    if abs(np.linalg.norm(k) - 1.0) > _GEOM_TOL:
        raise InputDomainError("direction must be a unit vector")
    e1, e2 = polarization_bases(k[np.newaxis])[0]
    return e1, e2


def detection_modes(k_hat: np.ndarray) -> tuple[PhotonMode, PhotonMode]:
    """The two scattered-photon modes (lambda = 1, 2) for a direction."""
    e1, e2 = polarization_basis(k_hat)
    return (
        PhotonMode(direction=np.asarray(k_hat, dtype=float), lam=1, polarization=e1),
        PhotonMode(direction=np.asarray(k_hat, dtype=float), lam=2, polarization=e2),
    )


def _spherical_overlaps(polarization: np.ndarray) -> np.ndarray:
    """(eps_q* . eps) for q = -1, 0, +1 as a complex 3-array."""
    return np.array(
        [complex(np.vdot(spherical_component(q), polarization)) for q in (-1, 0, +1)]
    )


@lru_cache(maxsize=32)
def _sublevel_tables(spec: AtomSpec):
    """Ground/excited sublevel orderings and the dipole tensor dip[e, g, q]."""
    ground = tuple(spec.sublevels("ground"))
    excited = tuple(spec.sublevels("excited"))
    dip = np.zeros((len(excited), len(ground), 3))
    for ie, e in enumerate(excited):
        for ig, g in enumerate(ground):
            for iq, q in enumerate((-1, 0, +1)):
                dip[ie, ig, iq] = dipole_matrix_element(spec, e, g, q)
    dip.flags.writeable = False
    return ground, excited, dip


def ground_basis(spec: AtomSpec) -> tuple[SublevelId, ...]:
    """Ground sublevels in the canonical (F asc, m asc) order."""
    return _sublevel_tables(spec)[0]


def _mode_coupling_matrix(spec: AtomSpec, mode: PhotonMode) -> np.ndarray:
    """g[e, g] for one mode over the full sublevel grid."""
    _, _, dip = _sublevel_tables(spec)
    overlaps = _spherical_overlaps(mode.polarization)
    return dip @ overlaps


def single_photon_coupling(
    spec: AtomSpec, mode: PhotonMode, excited: SublevelId, ground: SublevelId
) -> complex:
    """Coupling g of one photon mode to one excited<-ground transition."""
    if excited.manifold != "excited" or ground.manifold != "ground":
        raise InputDomainError("expected (excited, ground) sublevel pair")
    overlaps = _spherical_overlaps(mode.polarization)
    total = 0.0 + 0.0j
    for iq, q in enumerate((-1, 0, +1)):
        if overlaps[iq] != 0.0:
            total += overlaps[iq] * dipole_matrix_element(spec, excited, ground, q)
    return total


def _detunings(spec: AtomSpec, omega_laser: float) -> np.ndarray:
    """Delta(F') per ground sublevel; raises on an exact zero."""
    ground, _, _ = _sublevel_tables(spec)
    deltas = np.array([detuning(spec, omega_laser, g.f) for g in ground])
    if np.any(deltas == 0.0):
        raise SingularDetuningError(
            "laser exactly resonant with a ground level; adiabatic elimination "
            "requires a far off-resonant pump"
        )
    return deltas


def coupling_matrix(
    spec: AtomSpec, omega_laser: float, out_mode: PhotonMode, in_mode: PhotonMode
) -> np.ndarray:
    """G[final, initial] over the ground sublevel grid (canonical order)."""
    g_out = _mode_coupling_matrix(spec, out_mode)
    g_in = _mode_coupling_matrix(spec, in_mode)
    deltas = _detunings(spec, omega_laser)
    return (g_out.conj().T @ g_in) / deltas[np.newaxis, :]


def effective_coupling(
    spec: AtomSpec,
    omega_laser: float,
    out_mode: PhotonMode,
    in_mode: PhotonMode,
    final: SublevelId,
    initial: SublevelId,
) -> complex:
    """Two-photon amplitude G(final <- initial) for an (out, in) mode pair."""
    if final.manifold != "ground" or initial.manifold != "ground":
        raise InputDomainError("effective coupling connects ground sublevels")
    ground, _, _ = _sublevel_tables(spec)
    try:
        i_fin = ground.index(final)
        i_ini = ground.index(initial)
    except ValueError:
        raise InputDomainError("sublevel does not belong to this species") from None
    return complex(coupling_matrix(spec, omega_laser, out_mode, in_mode)[i_fin, i_ini])


def coupling_tensor(
    spec: AtomSpec, omega_laser: float, out_mode: PhotonMode, in_mode: PhotonMode
) -> dict[tuple[tuple[int, int], tuple[int, int]], complex]:
    """G as a sparse map ((2F, 2m)_final, (2F', 2m')_initial) -> amplitude.

    Entries that are exactly zero by selection rules are absent.
    """
    ground, _, _ = _sublevel_tables(spec)
    matrix = coupling_matrix(spec, omega_laser, out_mode, in_mode)
    tensor: dict[tuple[tuple[int, int], tuple[int, int]], complex] = {}
    for i_fin, fin in enumerate(ground):
        for i_ini, ini in enumerate(ground):
            value = matrix[i_fin, i_ini]
            if value != 0.0:
                tensor[((fin.f.twice, fin.m.twice), (ini.f.twice, ini.m.twice))] = complex(value)
    return tensor


def sequential_sum(terms: np.ndarray) -> np.ndarray:
    """Sum a real array over its last axis, strictly left to right.

    ``np.sum``, ``einsum`` and ``matmul`` may reorder or fuse additions
    depending on the array shape and memory layout.  A plain loop gives each
    batch row the same bits whatever the batch size.
    """
    total = np.zeros(terms.shape[:-1])
    for column in np.moveaxis(terms, -1, 0):
        total += column
    return total


def condensate_factor(
    spec: AtomSpec, omega_laser: float, in_mode: PhotonMode, initial: np.ndarray
) -> np.ndarray:
    """B[g, q] = sum_e dip[e, g, q] w_e with w = g_in . (initial / Delta).

    ``coupling_matrix(spec, omega_laser, out, in_mode) @ initial`` equals
    ``sum_q B[:, q] conj(eps_q* . eps_out)`` for every detected mode ``out``.
    """
    _, _, dip = _sublevel_tables(spec)
    w = _mode_coupling_matrix(spec, in_mode) @ (initial / _detunings(spec, omega_laser))
    return np.einsum("egq,e->gq", dip, w)


_SPHERICAL = np.array([spherical_component(q) for q in (-1, 0, +1)])
_SPHERICAL.flags.writeable = False


def branch_amplitudes(factor: np.ndarray, polarizations: np.ndarray) -> np.ndarray:
    """Scattered amplitudes rows[n, lambda-1, g] for N detected mode pairs.

    ``factor`` is :func:`condensate_factor` (G, 3), ``polarizations`` the
    (N, 2, 3) output of :func:`polarization_bases`.  Folding the spherical
    vectors into the factor, ``sum_q B[g, q] conj(eps_q* . eps_lambda)`` is
    ``eps_lambda* . D_g`` with the Cartesian vector ``D_g = sum_q B[g, q]
    eps_q``.  The per-direction part is real arithmetic with in-order sums,
    so a direction gets the same bits alone or in a batch.
    """
    dipoles = factor @ _SPHERICAL
    d_re, d_im = dipoles.real, dipoles.imag
    pol = polarizations[:, :, np.newaxis, :]
    p_re, p_im = pol.real, pol.imag
    rows = np.empty(polarizations.shape[:2] + factor.shape[:1], dtype=complex)
    rows.real = sequential_sum(d_re * p_re + d_im * p_im)
    rows.imag = sequential_sum(d_im * p_re - d_re * p_im)
    return rows
