"""Bipartite entanglement measures for pair states.

The photon side of a :class:`~raman_pairs.pair_state.PairState` is the set of
occupied (frequency channel, polarization) labels, the atom side the occupied
(F, m) sublevels.  The photon label (F, lambda) pairs only with atomic level
F, so the amplitude matrix is block-diagonal by F with 2 x (2F+1) blocks.
Each block enters every measure through its 2 x 2 Gram matrix
[[a, c], [c*, b]] (:func:`block_grams`):

* entropy: the Gram eigenvalues of all blocks are the squared Schmidt
  coefficients;
* concurrence after filtering level F: ``2 sqrt(det) / tr`` of that block;
* conditional overlap: ``|sum_F c| / sqrt(sum_F a * sum_F b)``.

These closed forms work on (N, 2, G) amplitude arrays, so a sphere scan
evaluates a whole batch of directions at once and a single state is the
N = 1 case.  Determinants use the Lagrange identity
``det = sum_(i<j) |r0_i r1_j - r0_j r1_i|^2``, which stays exact for product
states where ``ab - |c|^2`` cancels to rounding noise.

The full Schmidt decomposition (:func:`schmidt`) uses a one-sided Jacobi
SVD implemented here: the amplitude matrices are tiny (at most 8x8) and an
in-repo routine keeps results bit-reproducible across platforms.

Entropy is reported in bits, so a maximally entangled 2x2 state carries
exactly 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .angular_momentum import halfint
from .errors import (
    ConvergenceError,
    EmptyStateError,
    InputDomainError,
    UndefinedOverlapError,
)
from .pair_state import (
    Channel,
    CondensateSpinor,
    PairState,
    PumpConfig,
    _one_direction,
    pair_batch,
    warn_unresolved,
)
from .raman_coupling import sequential_sum

__all__ = [
    "SchmidtResult",
    "deterministic_svd",
    "schmidt",
    "entanglement_entropy",
    "concurrence_2x2",
    "concurrence_after_filter",
    "is_factorized",
    "conditional_overlap",
    "branch_overlap",
    "BlockGrams",
    "block_index",
    "block_grams",
    "entropy_of_blocks",
    "filtered_concurrence_of_blocks",
    "branch_overlap_of_blocks",
]

_JACOBI_TOL = 1e-15
_JACOBI_MAX_SWEEPS = 60
_RANK_FLOOR = 1e-15


def _jacobi_columns(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonalize the columns of ``a`` (m >= n) by complex Jacobi rotations.

    Returns (a', w) with a' = a @ w, w unitary, and the columns of a'
    pairwise orthogonal.  Deterministic sweep order (p < q, row major).
    """
    a = a.astype(complex, copy=True)
    n = a.shape[1]
    w = np.eye(n, dtype=complex)
    # Columns whose norm falls below this floor are numerically zero; pairs
    # involving them must be skipped or the relative criterion never settles.
    norm_floor_sq = (np.linalg.norm(a) * 1e-15) ** 2
    for _ in range(_JACOBI_MAX_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                x, y = a[:, p], a[:, q]
                alpha = float(np.real(np.vdot(x, x)))
                beta = float(np.real(np.vdot(y, y)))
                if alpha <= norm_floor_sq or beta <= norm_floor_sq:
                    continue
                gamma = complex(np.vdot(x, y))
                mag = abs(gamma)
                if mag <= _JACOBI_TOL * math.sqrt(alpha * beta) or mag == 0.0:
                    continue
                rotated = True
                phase = gamma / mag
                tau = (alpha - beta) / (2.0 * mag)
                if tau == 0.0:
                    t = 1.0
                else:
                    t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                cos = 1.0 / math.sqrt(1.0 + t * t)
                sin = cos * t
                rot = np.array(
                    [[cos, -sin * phase], [sin * np.conj(phase), cos]], dtype=complex
                )
                a[:, [p, q]] = a[:, [p, q]] @ rot
                w[:, [p, q]] = w[:, [p, q]] @ rot
        if not rotated:
            return a, w
    raise ConvergenceError("Jacobi sweeps did not orthogonalize the columns")


def deterministic_svd(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compact SVD ``matrix = u @ diag(s) @ vh`` by one-sided Jacobi.

    Singular values are returned in descending order; exact ties keep the
    sweep's column order.  Values below 1e-15 of the largest are dropped.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.size == 0:
        raise InputDomainError("expected a non-empty 2-d matrix")
    if m.shape[0] < m.shape[1]:
        u_t, s, vh_t = deterministic_svd(m.conj().T)
        return vh_t.conj().T, s, u_t.conj().T

    rotated, w = _jacobi_columns(m)
    norms = np.linalg.norm(rotated, axis=0)
    order = sorted(range(len(norms)), key=lambda j: -norms[j])
    top = norms[order[0]] if len(order) else 0.0
    keep = [j for j in order if norms[j] > _RANK_FLOOR * top and norms[j] > 0.0]
    if not keep:
        raise InputDomainError("cannot decompose an all-zero matrix")
    u = np.stack([rotated[:, j] / norms[j] for j in keep], axis=1)
    s = np.array([norms[j] for j in keep])
    vh = w[:, keep].conj().T
    return u, s, vh


@dataclass(frozen=True, eq=False)
class SchmidtResult:
    """Canonical expansion sum_i c_i |p_i>|a_i> of a pair state.

    ``photon_basis[i]`` and ``atom_basis[i]`` are coordinate vectors over
    ``photon_labels`` and ``atom_labels``; the amplitude matrix is
    reconstructed as sum_i c_i outer(p_i, a_i) without conjugation.
    """

    coefficients: tuple[float, ...]
    photon_basis: tuple[np.ndarray, ...]
    atom_basis: tuple[np.ndarray, ...]
    photon_labels: tuple[Channel, ...]
    atom_labels: tuple[tuple[int, int], ...]

    def reconstruction(self) -> np.ndarray:
        out = np.zeros((len(self.photon_labels), len(self.atom_labels)), dtype=complex)
        for c, p, a in zip(self.coefficients, self.photon_basis, self.atom_basis):
            out += c * np.outer(p, a)
        return out


def _canonical_phase(u: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotate a Schmidt pair so the first significant photon entry is real positive."""
    for value in u:
        if abs(value) > 1e-12:
            phase = value / abs(value)
            return u / phase, a * phase
    return u, a


def schmidt_of_matrix(
    matrix: np.ndarray,
    photon_labels: tuple[Channel, ...],
    atom_labels: tuple[tuple[int, int], ...],
) -> SchmidtResult:
    u, s, vh = deterministic_svd(matrix)
    # vh rows are v_j^dagger, which is exactly the atom-side coordinate
    # vector entering the expansion without conjugation.
    pairs = []
    for j in range(len(s)):
        pj, aj = _canonical_phase(u[:, j], vh[j, :])
        pairs.append((float(s[j]), pj, aj))
    pairs.sort(key=lambda item: (-item[0], tuple((z.real, z.imag) for z in item[1])))
    return SchmidtResult(
        coefficients=tuple(c for c, _, _ in pairs),
        photon_basis=tuple(p for _, p, _ in pairs),
        atom_basis=tuple(a for _, _, a in pairs),
        photon_labels=photon_labels,
        atom_labels=atom_labels,
    )


def schmidt(state: PairState) -> SchmidtResult:
    """Schmidt decomposition of the photon x atom amplitude matrix."""
    matrix, photon_labels, atom_labels = state.matrix()
    return schmidt_of_matrix(matrix, photon_labels, atom_labels)


# --- closed forms on F blocks -----------------------------------------------


@lru_cache(maxsize=32)
def block_index(doubled_fs: tuple[int, ...]) -> np.ndarray:
    """(nF, dmax) positions of each level's sublevels on an F-major G axis.

    Levels are laid out in the given order with m ascending, as in the
    canonical ground basis; short blocks are padded with G, which
    :func:`block_grams` points at a zero column.
    """
    sizes = [tf + 1 for tf in doubled_fs]
    index = np.full((len(sizes), max(sizes)), sum(sizes))
    start = 0
    for i, size in enumerate(sizes):
        index[i, :size] = np.arange(start, start + size)
        start += size
    index.flags.writeable = False
    return index


@dataclass(frozen=True, eq=False)
class BlockGrams:
    """Gram matrices [[a, c], [c*, b]] of the F blocks of N states.

    ``weights[n, lambda-1, i]`` is a (lambda = 1) or b (lambda = 2) of block i,
    i.e. the probability of photon channel (F_i, lambda); ``c_re``, ``c_im``
    and ``det`` have shape (N, nF).
    """

    weights: np.ndarray
    c_re: np.ndarray
    c_im: np.ndarray
    det: np.ndarray


@lru_cache(maxsize=8)
def _minor_pairs(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Column pairs (i < j) of a block, in row-major order."""
    pairs = np.triu_indices(size, 1)
    for arr in pairs:
        arr.flags.writeable = False
    return pairs


def block_grams(amplitudes: np.ndarray, index: np.ndarray) -> BlockGrams:
    """Per-block Gram matrices of (N, 2, G) amplitudes; ``index`` from :func:`block_index`.

    Every sum over m runs in a fixed order (:func:`sequential_sum`), so a
    state gets the same bits alone or in a batch, and zero padding or
    absent levels leave the results unchanged.
    """
    n, _, g = amplitudes.shape
    padded = np.zeros((n, 2, g + 1), dtype=complex)
    padded[:, :, :g] = amplitudes
    blocks = padded[:, :, index]  # (N, 2, nF, dmax)
    re, im = blocks.real, blocks.imag
    r0, i0, r1, i1 = re[:, 0], im[:, 0], re[:, 1], im[:, 1]
    p, q = _minor_pairs(index.shape[1])
    left, right = blocks[..., p], blocks[..., q]
    lr0, li0, lr1, li1 = left.real[:, 0], left.imag[:, 0], left.real[:, 1], left.imag[:, 1]
    rr0, ri0, rr1, ri1 = right.real[:, 0], right.imag[:, 0], right.real[:, 1], right.imag[:, 1]
    # minors r0_i r1_j - r0_j r1_i of the 2 x (2F+1) block
    minor_re = (lr0 * rr1 - li0 * ri1) - (rr0 * lr1 - ri0 * li1)
    minor_im = (lr0 * ri1 + li0 * rr1) - (rr0 * li1 + ri0 * lr1)
    return BlockGrams(
        weights=sequential_sum(re * re + im * im),
        c_re=sequential_sum(r0 * r1 + i0 * i1),
        c_im=sequential_sum(i0 * r1 - r0 * i1),
        det=sequential_sum(minor_re * minor_re + minor_im * minor_im),
    )


def _minus_p_log2_p(p: np.ndarray) -> np.ndarray:
    positive = p > 0.0
    return np.where(positive, -p * np.log2(np.where(positive, p, 1.0)), 0.0)


def entropy_of_blocks(grams: BlockGrams) -> np.ndarray:
    """Entanglement entropy in bits of N normalized states, shape (N,).

    Block eigenvalues: the larger from the trace and discriminant, the
    smaller as det / larger, which keeps it exact near rank one.
    """
    a, b = grams.weights[:, 0], grams.weights[:, 1]
    gap = a - b
    disc = np.sqrt(gap * gap + 4.0 * (grams.c_re * grams.c_re + grams.c_im * grams.c_im))
    big = 0.5 * ((a + b) + disc)
    small = grams.det / np.where(big > 0.0, big, 1.0)
    # summed block by block, larger eigenvalue first
    eigenvalues = np.stack([big, small], axis=-1).reshape(len(a), -1)
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


def _state_grams(state: PairState) -> tuple[BlockGrams, tuple[int, ...]]:
    """Gram matrices of one state's blocks, and the 2F of each block."""
    levels = tuple(sorted({tf for (_, (tf, _)), _ in state.amplitudes}))
    start, offset = 0, {}
    for tf in levels:
        offset[tf] = start
        start += tf + 1
    amplitudes = np.zeros((1, 2, start), dtype=complex)
    filled = set()
    for (ch, (tf, tm)), amp in state.amplitudes:
        slot = (ch.lam - 1, offset[tf] + (tm + tf) // 2)
        if slot in filled:
            raise InputDomainError(
                f"two channels carry photon label (2F={tf}, lambda={ch.lam})"
            )
        filled.add(slot)
        amplitudes[0][slot] = amp
    return block_grams(amplitudes, block_index(levels)), levels


def entanglement_entropy(state: PairState) -> float:
    """Entropy of entanglement in bits, -sum c^2 log2 c^2."""
    grams, _ = _state_grams(state)
    return float(entropy_of_blocks(grams)[0])


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
    grams, levels = _state_grams(state)
    if f.twice not in levels:
        raise EmptyStateError(
            f"the F={f} frequency channel carries zero probability; nothing to select"
        )
    if any(f.twice in pair for pair in state.unresolved_channel_pairs):
        warn_unresolved(f)
    return float(filtered_concurrence_of_blocks(grams, levels.index(f.twice))[0])


def is_factorized(state: PairState, tol: float = 1e-10) -> bool:
    """True iff the state is a product state within ``tol``.

    Covers both degenerate routes to factorization: identical branch spinors
    and a vanishing branch.
    """
    coeffs = schmidt(state).coefficients
    return len(coeffs) < 2 or coeffs[1] < tol


def _overlap(grams: BlockGrams) -> float:
    value = float(branch_overlap_of_blocks(grams)[0])
    if math.isnan(value):
        raise UndefinedOverlapError(
            "a polarization branch has zero norm; the overlap is undefined "
            "(the state factorizes)"
        )
    return value


def branch_overlap(state: PairState) -> float:
    """|<S_k1|S_k2>| between the atomic spinors of an unfiltered state's branches.

    Bit for bit :func:`conditional_overlap` of the state's direction, without
    rebuilding the state.
    """
    return _overlap(_state_grams(state)[0])


def conditional_overlap(
    spec,
    pump: PumpConfig,
    phi0: CondensateSpinor,
    k_hat: np.ndarray,
    *,
    validity_threshold: float = 100.0,
    enforce_validity: bool = True,
) -> float:
    """|<S_k1|S_k2>| between the atomic spinors of the two photon branches."""
    batch = pair_batch(
        spec,
        pump,
        phi0,
        _one_direction(k_hat),
        validity_threshold=validity_threshold,
        enforce_validity=enforce_validity,
    )
    index = block_index(tuple(f.twice for f in spec.ground_levels()))
    return _overlap(block_grams(batch.amplitudes, index))
