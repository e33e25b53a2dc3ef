"""CHSH correlations of a 2x2 pair state, analytic and sampled.

Measurement model (half-angle convention): both analyzers are real rotations
of the occupied 2-dimensional support bases.  For analyzer angle a the photon
outcome +1 projects onto

    u_+(a) = cos(a) |p0> + sin(a) |p1>,      u_-(a) = -sin(a) |p0> + cos(a) |p1>,

where (p0, p1) are the two occupied photon labels in canonical order
(for a filtered state on the quantization axis: sigma+ and sigma-; a = 0
discriminates circular polarizations and a = pi/4 the linear pair
(sigma+ +- sigma-)/sqrt2, so the angle sweeps the circular <-> linear plane).
The atom analyzer acts identically on the two occupied sublevels with angle
b.  The observable is A(a) = cos(2a) sz + sin(2a) sx, hence the symmetric
Bell state gives E(a, b) = cos(2a - 2b) and the antisymmetric one the same
pattern with b -> -b.

The optimal angles follow in closed form from the 2x2 Pauli correlation
matrix T over (z, x): the maximum of S over the four angles is 2 ||T||_F (see
``optimize_chsh``).

Sampling uses numpy's PCG64 generator, seeded per fixed-size trial chunk via
SeedSequence spawning, so results are bit-reproducible and independent of any
future worker partitioning.  Chunk i's seed is ``SeedSequence(seed,
spawn_key=(i,))``, the i-th child that ``spawn`` would give, made on its own.
Sampled trials are kept as two int8 index arrays (setting and outcome); a
trial's outcome is the number of its setting's three cumulative bounds that its
uniform reaches.  The events CSV is built from the arrays as bytes, chunk by
chunk, with no Python object per trial.

Besides the two result arrays (2 bytes per trial), the working set is one
block's.  A chunk writes its setting draw straight into the int8 result array
and frees the int64 draw before any comparison.  It then draws its uniforms
``_BLOCK`` at a time, the same stream as one call, and counts for each trial
how many bounds it reaches in place in the outcome array.  The CSV writer
formats at most ``_BLOCK`` rows per byte matrix.  So memory beyond the arrays
does not grow with the trial count, and the temporaries stay near the cache.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputDomainError
from .pair_state import PairState

__all__ = [
    "SampleResult",
    "correlation",
    "chsh",
    "optimize_chsh",
    "sample_events",
    "events_to_csv",
    "GENERATOR_ID",
    "SETTING_LABELS",
    "OUTCOME_SIGNS",
]

GENERATOR_ID = "numpy.random.PCG64/SeedSequence-spawn/chunk65536"
_CHUNK = 65536
# Trials per block: the sampler compares, and the CSV writer formats, this
# many at a time, so their temporaries (under 0.5 MB for the sampler, about
# 1.5 MB for 30-byte CSV rows with their mask and compress) stay near the cache.
_BLOCK = 16384
# Setting index -> (photon, atom) analyzer labels.
SETTING_LABELS = (("a", "b"), ("a", "b_prime"), ("a_prime", "b"), ("a_prime", "b_prime"))
# Outcome index -> (photon, atom) outcomes.
OUTCOME_SIGNS = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]])
OUTCOME_SIGNS.flags.writeable = False

_ANGLE_NAMES = "a a' b b'"
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
_SX = np.array([[0.0, 1.0], [1.0, 0.0]])


@dataclass(frozen=True, eq=False)
class SampleResult:
    """Sampled trials and their CHSH estimate.

    ``setting_index[k]`` indexes ``SETTING_LABELS`` and ``outcome_index[k]``
    indexes ``OUTCOME_SIGNS`` for trial k (read-only int8 arrays).  A setting
    pair without trials has correlation ``None``, and then ``s_estimate`` and
    ``standard_error`` are ``None`` too.
    """

    setting_index: np.ndarray
    outcome_index: np.ndarray
    s_estimate: float | None
    standard_error: float | None
    correlations: tuple[float | None, ...]
    counts: tuple[int, ...]
    settings: tuple[float, float, float, float]
    seed: int
    generator: str = GENERATOR_ID


def _support_matrix(state: PairState) -> np.ndarray:
    matrix, photon_labels, atom_labels = state.matrix()
    if len(photon_labels) != 2 or len(atom_labels) != 2:
        raise InputDomainError(
            "CHSH analysis needs a state on exactly 2 photon and 2 atom labels; "
            f"got {len(photon_labels)} x {len(atom_labels)} "
            "(spectrally filter the state first)"
        )
    return matrix


def _pauli_correlation_matrix(matrix: np.ndarray) -> np.ndarray:
    """T[i, j] = <s_i x s_j> over (z, x) for both sides."""
    psi = matrix.reshape(-1)
    t = np.empty((2, 2))
    for i, si in enumerate((_SZ, _SX)):
        for j, sj in enumerate((_SZ, _SX)):
            t[i, j] = float(np.real(np.vdot(psi, np.kron(si, sj) @ psi)))
    return t


def _bloch(angle: float) -> np.ndarray:
    return np.array([math.cos(2.0 * angle), math.sin(2.0 * angle)])


def _finite_angles(names: str, angles) -> tuple[float, ...]:
    """The analyzer angles ``names`` as floats, each one finite and so its double,
    which sets the Bloch vector."""
    names, angles = names.split(), tuple(float(x) for x in angles)
    if len(angles) != len(names):
        raise InputDomainError(f"expected {len(names)} analyzer angles ({', '.join(names)})")
    for name, angle in zip(names, angles):
        if not math.isfinite(2.0 * angle):
            raise InputDomainError(
                f"analyzer angle {name} must be finite and so must twice it, got {angle!r}"
            )
    return angles


def correlation(state: PairState, a: float, b: float) -> float:
    """E(a, b), the expectation of the product of the two +-1 outcomes."""
    a, b = _finite_angles("a b", (a, b))
    t = _pauli_correlation_matrix(_support_matrix(state))
    return float(_bloch(a) @ t @ _bloch(b))


def chsh(state: PairState, a: float, a_prime: float, b: float, b_prime: float) -> float:
    """S = E(a,b) - E(a,b') + E(a',b) + E(a',b')."""
    a, a_prime, b, b_prime = _finite_angles(_ANGLE_NAMES, (a, a_prime, b, b_prime))
    t = _pauli_correlation_matrix(_support_matrix(state))
    ca, cap = _bloch(a), _bloch(a_prime)
    cb, cbp = _bloch(b), _bloch(b_prime)
    return float(ca @ t @ cb - ca @ t @ cbp + cap @ t @ cb + cap @ t @ cbp)


def _half_angle(bloch: np.ndarray) -> float:
    """The analyzer angle x in [-pi/2, pi/2] whose (cos 2x, sin 2x) is along ``bloch``."""
    return 0.5 * math.atan2(bloch[1], bloch[0])


def optimize_chsh(state: PairState) -> tuple[tuple[float, float, float, float], float]:
    """Maximize S over the four analyzer angles, in closed form.

    With Bloch vectors c(x) = (cos 2x, sin 2x) in the z-x plane,
    S = c(a).T(c(b) - c(b')) + c(a').T(c(b) + c(b')).  Choosing b, b' = +-theta/2
    makes c(b) + c(b') = 2 cos(theta) e_z and c(b) - c(b') = 2 sin(theta) e_x;
    the best a' then points along T e_z and a along T e_x, which leaves
    S = 2 (cos(theta) |T e_z| + sin(theta) |T e_x|).  With
    tan(theta) = |T e_x| / |T e_z| this is 2 ||T||_F, the maximum over every
    choice of the four angles (for any b, b', the vectors c(b) +- c(b') are
    orthogonal with squared lengths summing to 4).  Angles are returned in
    [-pi/2, pi/2]; the returned S is evaluated at them.
    """
    t = _pauli_correlation_matrix(_support_matrix(state))
    t_z, t_x = t[:, 0], t[:, 1]
    theta = math.atan2(math.hypot(*t_x), math.hypot(*t_z))
    settings = (_half_angle(t_x), _half_angle(t_z), 0.5 * theta, -0.5 * theta)
    return settings, chsh(state, *settings)


def _joint_distributions(
    matrix: np.ndarray, settings: tuple[float, float, float, float]
) -> np.ndarray:
    """p[setting, outcome] over outcomes (+1,+1), (+1,-1), (-1,+1), (-1,-1)."""
    a, a_prime, b, b_prime = settings
    pairs = ((a, b), (a, b_prime), (a_prime, b), (a_prime, b_prime))
    probs = np.empty((4, 4))
    for i, (pa, pb) in enumerate(pairs):
        u = np.array([[math.cos(pa), math.sin(pa)], [-math.sin(pa), math.cos(pa)]])
        v = np.array([[math.cos(pb), math.sin(pb)], [-math.sin(pb), math.cos(pb)]])
        for s_idx, us in enumerate(u):
            for t_idx, vt in enumerate(v):
                amp = us @ matrix @ vt
                probs[i, 2 * s_idx + t_idx] = abs(amp) ** 2
    # Guard against rounding: renormalize rows at the 1e-12 level.
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


def sample_events(
    state: PairState,
    settings: tuple[float, float, float, float],
    n: int,
    seed: int,
) -> SampleResult:
    """Draw ``n`` coincidences from the exact joint outcome distribution.

    Per trial the setting pair is chosen uniformly from the four (a|a', b|b')
    combinations; outcomes are sampled by inverse transform.  Bit-reproducible
    for a fixed seed; the trial space is consumed in fixed 65536-trial chunks
    with per-chunk derived seeds, each drawing its setting indices first and
    its uniforms second.
    """
    if n < 1:
        raise InputDomainError("need at least one trial")
    matrix = _support_matrix(state)
    settings = _finite_angles(_ANGLE_NAMES, settings)
    # bounds[k, s]: the k-th cumulative outcome probability of setting s
    bounds = np.cumsum(_joint_distributions(matrix, settings), axis=1)[:, :-1].T

    setting_index = np.empty(n, dtype=np.int8)
    outcome_index = np.empty(n, dtype=np.int8)
    # table[4 s + o] counts trials with setting s and outcome o.
    table = np.zeros(16, dtype=np.int64)
    for chunk_idx, start in enumerate(range(0, n, _CHUNK)):
        stop = min(start + _CHUNK, n)
        # the chunk's child of SeedSequence(seed).spawn(n_chunks), made alone
        child = np.random.SeedSequence(seed, spawn_key=(chunk_idx,))
        rng = np.random.Generator(np.random.PCG64(child))
        setting_index[start:stop] = rng.integers(0, 4, size=stop - start)
        # the chunk's uniforms, drawn a block at a time: the same stream
        for lo in range(start, stop, _BLOCK):
            hi = min(lo + _BLOCK, stop)
            uniform = rng.random(hi - lo)
            index = setting_index[lo:hi].astype(np.intp)
            # the outcome: how many of its setting's cumulative bounds the uniform reaches
            outcomes = outcome_index[lo:hi]
            outcomes[:] = 0
            for bound in bounds:
                outcomes += uniform >= bound[index]
            table += np.bincount(4 * index + outcomes, minlength=16)
    setting_index.flags.writeable = False
    outcome_index.flags.writeable = False

    table = table.reshape(4, 4)
    counts = table.sum(axis=1)
    prod_sums = table @ OUTCOME_SIGNS.prod(axis=1)  # sums of photon * atom outcomes
    correlations = tuple(float(p / c) if c else None for p, c in zip(prod_sums, counts))
    if None in correlations:
        s_estimate = std_error = None
    else:
        e = correlations
        s_estimate = e[0] - e[1] + e[2] + e[3]
        std_error = math.sqrt(sum((1.0 - e[i] ** 2) / counts[i] for i in range(4)))
    return SampleResult(
        setting_index=setting_index,
        outcome_index=outcome_index,
        s_estimate=s_estimate,
        standard_error=std_error,
        correlations=correlations,
        counts=tuple(int(x) for x in counts),
        settings=settings,
        seed=seed,
    )


_CSV_HEADER = b"trial,setting_a_label,setting_b_label,photon_outcome,atom_outcome\n"
# The row after its trial number, indexed by 4 * setting + outcome: a
# (16, width) byte table, zero-padded on the right by numpy's bytes dtype.
# No byte of a row is zero, so the padding is what a compress drops.
_TAIL_TABLE = (
    np.array(
        [
            f",{la},{lb},{photon},{atom}\n".encode()
            for la, lb in SETTING_LABELS
            for photon, atom in OUTCOME_SIGNS.tolist()
        ]
    )
    .view(np.uint8)
    .reshape(16, -1)
)


def _rows(first: int, codes: np.ndarray) -> Iterator[np.ndarray]:
    """The CSV rows of trials ``first``, ``first + 1``, ... with tails ``codes``,
    as one byte array per run of at most ``_BLOCK`` trial numbers with the
    same digit count."""
    start, stop = first, first + len(codes)
    while start < stop:
        digits = len(str(start))
        end = min(stop, 10**digits, start + _BLOCK)
        rows = np.empty((end - start, digits + _TAIL_TABLE.shape[1]), dtype=np.uint8)
        rows[:, digits:] = np.take(_TAIL_TABLE, codes[start - first : end - first], axis=0)
        # the narrowest unsigned type that holds them divides fastest
        number = np.arange(start, end, dtype=np.min_scalar_type(end))
        for column in range(digits - 1, -1, -1):
            quotient = number // 10
            rows[:, column] = number - 10 * quotient + ord("0")
            number = quotient
        yield rows[rows != 0]
        start = end


def events_to_csv(result: SampleResult, path: str | Path) -> None:
    """Write the sampled trials, one row each, as bytes built from the arrays.

    Columns: trial, setting_a_label, setting_b_label, photon_outcome,
    atom_outcome.  Each 65536-trial chunk is written as one ``uint8`` matrix
    per run of at most ``_BLOCK`` trial numbers with the same digit count:
    a row holds the trial number's digits, then the row tail of its ``4 *
    setting + outcome`` from a zero-padded table, and one compress drops the
    padding.  No Python object is made per trial.  ``path`` is opened and
    written directly; the command line writes it under a temporary name.
    """
    with open(path, "wb") as fh:
        fh.write(_CSV_HEADER)
        for start in range(0, len(result.setting_index), _CHUNK):
            stop = start + _CHUNK
            codes = 4 * result.setting_index[start:stop] + result.outcome_index[start:stop]
            fh.writelines(_rows(start, codes))
