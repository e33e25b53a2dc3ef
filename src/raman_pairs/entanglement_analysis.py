"""Bipartite entanglement measures for pair states.

The photon side of a :class:`~raman_pairs.pair_state.PairState` is the set of
occupied (frequency channel, polarization) labels, the atom side the occupied
(F, m) sublevels.  The photon label (F, lambda) pairs only with atomic level
F, so the amplitude matrix is block-diagonal by F with 2 x (2F+1) blocks,
and a state's (2, G) amplitude array already holds those blocks side by
side.  Each block enters every measure through its 2 x 2 Gram matrix
[[a, c], [c*, b]] (:func:`~raman_pairs.pair_state.block_grams`), which each
state computes once (``PairState.grams``) for all its measures:

* entropy: the Gram eigenvalues of all blocks are the squared Schmidt
  coefficients;
* concurrence after filtering level F: ``2 sqrt(det) / tr`` of that block;
* branch overlap |<S_k1|S_k2>| (the scan's ``conditional_overlap``
  measure): ``|sum_F c| / sqrt(sum_F a * sum_F b)``.

These closed forms work on (N, 2, G) amplitude arrays, so a sphere scan
evaluates a whole batch of directions at once and a single state is the
N = 1 case, read straight from its array.  Determinants use the Lagrange
identity ``det = sum_(i<j) |r0_i r1_j - r0_j r1_i|^2``, which stays exact for
product states where ``ab - |c|^2`` cancels to rounding noise.

The full Schmidt decomposition (:func:`schmidt`) solves each block's 2 x 2
Gram eigenproblem in closed form from the same quantities: no iteration, and
the same bits on every platform.  Its :class:`SchmidtResult` is an identity record.

Entropy is reported in bits, so a maximally entangled 2x2 state carries
exactly 1.
"""

from __future__ import annotations

import math

import numpy as np

from .angular_momentum import halfint
from .errors import InputDomainError, PhysicsError
from .atomic_model import _sublevels
from .pair_state import _EMPTY_CHANNEL, BlockGrams, Channel, PairState, _norm, warn_if_unresolved
from .raman_coupling import sequential_sum

__all__ = [
    "SchmidtResult",
    "schmidt",
    "entanglement_entropy",
    "concurrence_2x2",
    "concurrence_after_filter",
    "branch_overlap",
    "entropy_of_blocks",
    "filtered_concurrence_of_blocks",
    "branch_overlap_of_blocks",
]

_RANK_FLOOR = 1e-15
# why a state has no branch overlap: the message of its error and its note in ``state``
_UNDEFINED_OVERLAP = "a polarization branch has zero norm; the overlap is undefined"


class SchmidtResult:
    """Canonical expansion sum_i c_i |p_i>|a_i> of a pair state.

    ``photon_basis[i]`` and ``atom_basis[i]`` are coordinate vectors over
    ``photon_labels`` and ``atom_labels``; the amplitude matrix is
    reconstructed as sum_i c_i outer(p_i, a_i) without conjugation.
    """

    def __init__(
        self, coefficients: tuple[float, ...], photon_basis: tuple[np.ndarray, ...],
        atom_basis: tuple[np.ndarray, ...], photon_labels: tuple[Channel, ...],
        atom_labels: tuple[tuple[int, int], ...],
    ) -> None:
        self.coefficients = coefficients
        self.photon_basis, self.atom_basis = photon_basis, atom_basis
        self.photon_labels, self.atom_labels = photon_labels, atom_labels

    def reconstruction(self) -> np.ndarray:
        out = np.zeros((len(self.photon_labels), len(self.atom_labels)), dtype=complex)
        for c, p, a in zip(self.coefficients, self.photon_basis, self.atom_basis):
            out += c * np.outer(p, a)
        return out


def _canonical_phase(u: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotate a Schmidt pair so the first significant photon entry is real positive;
    ``u`` is a unit vector over occupied photon rows, so it has one."""
    value = next(value for value in u if abs(value) > 1e-12)
    phase = value / abs(value)
    return u / phase, a * phase


def _photon_pair(grams: BlockGrams, i: int, big: float) -> tuple[np.ndarray, np.ndarray]:
    """Unit Gram eigenvectors of block ``i``, for its larger then smaller eigenvalue."""
    a, b = grams.weights[0, :, i]
    c = complex(grams.c_re[0, i], grams.c_im[0, i])
    if c == 0.0:
        first, second = np.eye(2, dtype=complex)
        return (first, second) if a >= b else (second, first)
    v = np.array([big - b, c.conjugate()]) if a >= b else np.array([c, big - a])
    v = v / abs(v).max()  # keeps the norm from underflowing for a tiny c
    v = v / _norm(v)
    return v, np.array([-v[1].conjugate(), v[0].conjugate()])


def _schmidt_terms(grams: BlockGrams) -> tuple[list[tuple[float, int, int]], np.ndarray]:
    """Schmidt coefficients of the first state of ``grams``, in descending order.

    A block has at most two photon rows, so its squared Schmidt coefficients
    are the eigenvalues of its 2 x 2 Gram matrix, taken as in
    :func:`entropy_of_blocks`.  A coefficient counts when it exceeds
    ``_RANK_FLOOR`` times the largest.  Each is returned as (value, block,
    0 for the larger Gram eigenvalue or 1 for the smaller), together with
    the larger eigenvalue of every block.
    """
    big, small = _block_eigenvalues(grams)
    values = np.sqrt(np.stack([big[0], small[0]], axis=-1))  # (nF, 2)
    floor = _RANK_FLOOR * values.max()
    terms = [
        (value, i, j)
        for i, pair in enumerate(values.tolist())
        for j, value in enumerate(pair)
        if value > floor
    ]
    terms.sort(key=lambda term: -term[0])
    return terms, big[0]


def _schmidt_coefficients(state: PairState) -> tuple[float, ...]:
    """The Schmidt coefficients of :func:`schmidt`, without its basis vectors."""
    return tuple(value for value, _, _ in _schmidt_terms(state.grams)[0])


def schmidt(state: PairState) -> SchmidtResult:
    """Schmidt decomposition of the photon x atom amplitude matrix, block by block.

    The coefficients are those of :func:`_schmidt_coefficients`.  Each photon
    vector p is a Gram eigenvector of its block and its atom vector is
    p^dagger M / s, with s the Schmidt coefficient.
    """
    grams = state.grams
    _, photon_labels, atom_labels = state.matrix()
    rows, cols = state.support()
    terms, big = _schmidt_terms(grams)
    nf, g = len(state.levels), state.amplitudes.shape[1]
    padded = np.append(state.amplitudes, np.zeros((2, 1)), axis=1)  # the blocks pad with G
    blocks = _sublevels(state.levels).blocks
    pairs = []
    for value, i, j in terms:
        vec = _photon_pair(grams, i, big[i])[j]
        p = np.zeros(2 * nf, dtype=complex)  # row (lambda-1) * nF + i
        p[[i, nf + i]] = vec
        at = np.zeros(g + 1, dtype=complex)
        at[blocks[i]] = vec.conj() @ padded[:, blocks[i]] / value
        pairs.append((value, *_canonical_phase(p[rows], at[cols])))
    pairs.sort(key=lambda item: (-item[0], tuple((z.real, z.imag) for z in item[1])))
    return SchmidtResult(
        coefficients=tuple(c for c, _, _ in pairs),
        photon_basis=tuple(p for _, p, _ in pairs),
        atom_basis=tuple(a for _, _, a in pairs),
        photon_labels=photon_labels,
        atom_labels=atom_labels,
    )


# --- closed forms on F blocks -----------------------------------------------


def _minus_p_log2_p(p: np.ndarray) -> np.ndarray:
    positive = p > 0.0
    return np.where(positive, -p * np.log2(np.where(positive, p, 1.0)), 0.0)


def _block_eigenvalues(grams: BlockGrams) -> tuple[np.ndarray, np.ndarray]:
    """Larger and smaller Gram eigenvalue of each block, shape (N, nF) each.

    The larger from the trace and discriminant, the smaller as det / larger,
    which keeps it exact near rank one.
    """
    a, b = grams.weights[:, 0], grams.weights[:, 1]
    gap = a - b
    disc = np.sqrt(gap * gap + 4.0 * (grams.c_re * grams.c_re + grams.c_im * grams.c_im))
    big = 0.5 * ((a + b) + disc)
    return big, grams.det / np.where(big > 0.0, big, 1.0)


def entropy_of_blocks(grams: BlockGrams) -> np.ndarray:
    """Entanglement entropy in bits of N normalized states, shape (N,)."""
    big, small = _block_eigenvalues(grams)
    # summed block by block, larger eigenvalue first
    eigenvalues = np.stack([big, small], axis=-1).reshape(len(big), -1)
    return sequential_sum(_minus_p_log2_p(eigenvalues))


def filtered_concurrence_of_blocks(grams: BlockGrams, level: int) -> np.ndarray:
    """Concurrence 2 sqrt(det)/tr after filtering block ``level``; NaN if it is empty."""
    trace = grams.weights[:, 0, level] + grams.weights[:, 1, level]
    empty = ~(trace > 0.0)
    value = 2.0 * np.sqrt(grams.det[:, level]) / np.where(empty, 1.0, trace)
    return np.where(empty, np.nan, value)


def branch_overlap_of_blocks(grams: BlockGrams) -> np.ndarray:
    """|<S_k1|S_k2>| = |sum_F c| / sqrt(n1 n2); NaN where a branch vanishes."""
    n1 = sequential_sum(grams.weights[:, 0])
    n2 = sequential_sum(grams.weights[:, 1])
    c = np.hypot(sequential_sum(grams.c_re), sequential_sum(grams.c_im))
    undefined = ~((n1 > 0.0) & (n2 > 0.0))
    value = c / np.sqrt(np.where(undefined, 1.0, n1 * n2))
    return np.where(undefined, np.nan, value)


def entanglement_entropy(state: PairState) -> float:
    """Entropy of entanglement in bits, -sum c^2 log2 c^2."""
    return float(entropy_of_blocks(state.grams)[0])


def concurrence_2x2(state: PairState) -> float:
    """Pure-state concurrence 2|det M| for a state on exactly 2x2 support."""
    matrix, photon_labels, atom_labels = state.matrix()
    if len(photon_labels) != 2 or len(atom_labels) != 2:
        raise InputDomainError(
            f"concurrence needs exactly 2x2 support, got "
            f"{len(photon_labels)} photon x {len(atom_labels)} atom labels"
        )
    return 2.0 * abs(matrix[0, 0] * matrix[1, 1] - matrix[0, 1] * matrix[1, 0])


def concurrence_after_filter(state: PairState, f_select) -> float:
    """Concurrence of the spectrally filtered state.

    After filtering the photon side has at most two labels, so the pure-state
    concurrence generalizes to 2 c1 c2 in terms of the two leading Schmidt
    coefficients.  That is 2 sqrt(det rho) of the filtered reduced state,
    read here as 2 sqrt(det) / tr from the selected block of the unfiltered
    state: 2|det M| on exact 2x2 support and 0 for any product state.
    """
    f = halfint(f_select)
    value = math.nan
    if f.twice in state.levels:
        level = state.levels.index(f.twice)
        value = float(filtered_concurrence_of_blocks(state.grams, level)[0])
    if math.isnan(value):  # the level is absent or empty
        raise PhysicsError(_EMPTY_CHANNEL.format(f))
    warn_if_unresolved(state, f)
    return value


def branch_overlap(state: PairState) -> float:
    """|<S_k1|S_k2>| between the atomic spinors of an unfiltered state's branches."""
    value = float(branch_overlap_of_blocks(state.grams)[0])
    if math.isnan(value):
        raise PhysicsError(_UNDEFINED_OVERLAP)
    return value
