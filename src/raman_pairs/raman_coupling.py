"""The two-photon Raman coupling after adiabatic elimination of the excited manifold.

A pump photon of polarization eps_in scatters a ground-state atom from
(F', m') to (F, m) and leaves a photon of polarization eps_out.  With the
dipole elements dip[e, g, q] = <e|e r . eps_q|g> at unit reduced dipole
(``atomic_model._dipole_tensor`` of the species' 2I, 2J_g and 2J_e, its axes
the excited and ground sublevel layouts) and hbar and the field per photon
set to 1, the amplitude is

    G(F m <- F' m') = sum_(F'' m'') g_out*(F'' m'', F m) g_in(F'' m'', F' m') / Delta(F'),
    g(e, g) = sum_q (eps_q* . eps) dip[e, g, q].

Acting on a condensate spinor phi0, everything except eps_out collapses
into one factor per species, pump and condensate,

    w = g_in . (phi0 / Delta),    B[g, q] = sum_e dip[e, g, q] w_e,

so the scattered amplitudes of N detection directions are the contraction
``rows[n, lambda, g] = sum_q B[g, q] conj(eps_q* . eps_lambda(k_n))``
(``condensate_factor`` and ``branch_amplitudes``).  The species' reduced
dipole D would scale every G by D^2; it cancels in the normalized state, so
it is left out here and enters the emission weight alone, as D^4
(``pair_state.pair_batch``).
"""

from __future__ import annotations

import numpy as np

from .atomic_model import _SPHERICAL, AtomSpec, _dipole_tensor, _ground_layout, detuning
from .errors import PhysicsError

__all__ = [
    "polarization_bases",
    "condensate_factor",
    "branch_amplitudes",
    "sequential_sum",
]

_POLE_CONE = 1e-9


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
    basis[pole] = _SPHERICAL[[2, 0]]  # (eps_+1, eps_-1)
    return basis


def _spherical_overlaps(polarization: np.ndarray) -> np.ndarray:
    """(eps_q* . eps) for q = -1, 0, +1 as a complex 3-array."""
    return np.array([complex(np.vdot(eps, polarization)) for eps in _SPHERICAL])


def _detunings(spec: AtomSpec, omega_laser: float) -> np.ndarray:
    """Delta(F') per ground sublevel, computed once per level; raises on an exact zero."""
    deltas = np.array([detuning(spec, omega_laser, f) for f in spec.ground_levels()])
    deltas = deltas[_ground_layout(spec).level]
    if np.any(deltas == 0.0):
        raise PhysicsError(
            "laser exactly resonant with a ground level; adiabatic elimination "
            "requires a far off-resonant pump"
        )
    return deltas


def sequential_sum(terms: np.ndarray) -> np.ndarray:
    """Sum a real array over its last axis, strictly left to right.

    ``np.sum``, ``einsum`` and ``matmul`` may reorder or fuse additions
    depending on the array shape and memory layout.  A plain loop gives each
    batch row the same bits whatever the batch size.
    """
    total = np.zeros(terms.shape[:-1])
    for j in range(terms.shape[-1]):
        total += terms[..., j]
    return total


def condensate_factor(
    spec: AtomSpec, omega_laser: float, polarization: np.ndarray, initial: np.ndarray
) -> np.ndarray:
    """B[g, q] = sum_e dip[e, g, q] w_e with w = g_in . (initial / Delta).

    ``polarization`` is the pump's eps_in and ``initial`` the condensate over
    the canonical ground basis; ``sum_q B[:, q] conj(eps_q* . eps_out)`` is
    then G phi0 for every detected polarization ``eps_out``.
    """
    dip = _dipole_tensor(spec.nuclear_spin.twice, spec.ground_j.twice, spec.excited_j.twice)
    w = (dip @ _spherical_overlaps(polarization)) @ (initial / _detunings(spec, omega_laser))
    return np.einsum("egq,e->gq", dip, w)


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
