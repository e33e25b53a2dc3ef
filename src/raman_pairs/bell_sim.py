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
b.  Outcome s of angle x projects onto (1 + s c(x).sigma)/2, with the Bloch
vector c(x) = (cos 2x, sin 2x) over (sz, sx).

Every statistic reads one matrix of moments, M[i, j] = <s_i x s_j> over
(1, sz, sx) on each side (``_moments``; Horodecki^3, Phys. Lett. A 200, 340
(1995)): M[0, 0] is the norm, M[1:, 0] and M[0, 1:] the photon and atom Bloch
vectors and T = M[1:, 1:] the correlations.  The outcome probabilities are
p(s, t) = (1, s c(a)).M.(1, t c(b)) / 4 and E(a, b) = c(a).T.c(b), so the
symmetric Bell state gives cos(2a - 2b) and the antisymmetric one the same
pattern with b -> -b.  S peaks at 2 ||T||_F in closed form (``optimize_chsh``).

Sampling uses numpy's PCG64 generator, seeded per fixed-size trial chunk via
SeedSequence spawning, so results are bit-reproducible and independent of any
future worker partitioning.  Chunk i's seed is ``SeedSequence(seed,
spawn_key=(i,))``, the i-th child that ``spawn`` would give, made on its own.
``sample_chunks`` is the one source of sampled trials: a stream of chunks of
int8 codes ``4 * setting + outcome``, where a trial's outcome is the number of
its setting's three cumulative bounds that its uniform reaches.
``tally_chunks`` counts the codes and can write the events CSV as bytes, with
no Python object per trial.  Reading the stream takes one chunk's memory,
whatever the trial count: a chunk draws its uniforms ``_BLOCK`` at a time, the
same stream as one call, and the CSV writer formats ``_BLOCK`` rows at a time.
``sample_events`` keeps the trials in two int8 arrays, 2 bytes per trial, in
a :class:`SampleResult`, an identity record that tallies its statistics from
those arrays with ``tally_chunks``, one chunk at a time.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from typing import BinaryIO

import numpy as np

from .errors import InputDomainError, PhysicsError
from .pair_state import PairState

__all__ = [
    "SampleResult",
    "correlation",
    "chsh",
    "optimize_chsh",
    "sample_chunks",
    "tally_chunks",
    "sample_events",
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
# The operators of the moment matrix on either side: 1, sz, sx.
_PAULI = (np.eye(2), np.array([[1.0, 0.0], [0.0, -1.0]]), np.array([[0.0, 1.0], [1.0, 0.0]]))
_SIGNS = np.array([[1.0], [-1.0]])


class SampleResult:
    """Sampled trials and their CHSH estimate.

    ``setting_index[k]`` indexes ``SETTING_LABELS`` and ``outcome_index[k]``
    indexes ``OUTCOME_SIGNS`` for trial k (read-only int8 arrays); the constructor
    tallies ``counts``, ``correlations``, ``s_estimate`` and ``standard_error``
    from them.  A setting pair without trials has correlation ``None``, and then
    ``s_estimate`` and ``standard_error`` are ``None`` too.
    """

    def __init__(self, setting_index: np.ndarray, outcome_index: np.ndarray) -> None:
        self.setting_index, self.outcome_index = setting_index, outcome_index
        parts = (slice(i, i + _CHUNK) for i in range(0, len(setting_index), _CHUNK))
        codes = ((s.start, 4 * setting_index[s] + outcome_index[s]) for s in parts)
        vars(self).update(tally_chunks(codes))


def _support_matrix(state: PairState) -> np.ndarray:
    """The state's 2x2 amplitude matrix: the one rule on which states CHSH admits."""
    matrix, photon_labels, atom_labels = state.matrix()
    if matrix.shape != (2, 2):
        # a filter leaves 2 photon labels: advise it only where there are more
        advice = "; spectrally filter it first" if len(photon_labels) > 2 else ""
        raise PhysicsError(
            "CHSH needs a 2x2 state (2 photon labels x 2 atom labels); this one has "
            f"{len(photon_labels)} photon x {len(atom_labels)} atom labels{advice}"
        )
    return matrix


def _moments(matrix: np.ndarray) -> np.ndarray:
    """M[i, j] = Re vdot(m, s_i m s_j) = <s_i x s_j> over (1, sz, sx) on each side."""
    return np.array([[np.vdot(matrix, si @ matrix @ sj).real for sj in _PAULI] for si in _PAULI])


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
    t = _moments(_support_matrix(state))[1:, 1:]
    return float(_bloch(a) @ t @ _bloch(b))


def chsh(state: PairState, a: float, a_prime: float, b: float, b_prime: float) -> float:
    """S = E(a,b) - E(a,b') + E(a',b) + E(a',b')."""
    settings = _finite_angles(_ANGLE_NAMES, (a, a_prime, b, b_prime))
    return _s_value(_moments(_support_matrix(state))[1:, 1:], settings)


def _s_value(t: np.ndarray, settings: tuple[float, float, float, float]) -> float:
    """S at the analyzer angles ``settings`` from the correlation matrix ``t``."""
    ca, cap, cb, cbp = map(_bloch, settings)
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
    return _optimum(_moments(_support_matrix(state))[1:, 1:])


def _optimum(t: np.ndarray) -> tuple[tuple[float, float, float, float], float]:
    """The angles and S of :func:`optimize_chsh` from the correlation matrix ``t``."""
    t_z, t_x = t[:, 0], t[:, 1]
    theta = math.atan2(math.hypot(*t_x), math.hypot(*t_z))
    settings = (_half_angle(t_x), _half_angle(t_z), 0.5 * theta, -0.5 * theta)
    return settings, _s_value(t, settings)


def _analyzers(x: float, x_prime: float) -> np.ndarray:
    """The rows (1, s c(angle)) for angle in (x, x') and s in (+1, -1), angle-major."""
    signed = np.array([_bloch(x), _bloch(x_prime)])[:, np.newaxis] * _SIGNS
    return np.concatenate([np.ones((2, 2, 1)), signed], axis=2).reshape(4, 3)


def _joint_distributions(
    moments: np.ndarray, settings: tuple[float, float, float, float]
) -> np.ndarray:
    """p[setting, outcome] over outcomes (+1,+1), (+1,-1), (-1,+1), (-1,-1):
    (1, s c(x)) . M . (1, t c(y)) / 4, clipped at 0 so that the cumulative
    bounds rise where rounding would leave a zero outcome at -1e-17."""
    a, a_prime, b, b_prime = settings
    probs = _analyzers(a, a_prime) @ moments @ _analyzers(b, b_prime).T  # [(x, s), (y, t)]
    probs = probs.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    return np.maximum(probs / 4.0, 0.0)


def sample_chunks(
    state: PairState, settings: tuple[float, float, float, float], n: int, seed: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Draw ``n`` trials from the exact joint outcome distribution, one
    ``(first, codes)`` per 65536-trial chunk as it is read; the arguments are
    checked on the call.  Per trial the setting pair is uniform over the four
    (a|a', b|b') combinations and the outcome is drawn by inverse transform:
    ``codes[k]`` (int8) is ``4 * setting + outcome`` of trial ``first + k``.
    Chunk i draws its setting indices first and its uniforms second."""
    if n < 1:
        raise InputDomainError("need at least one trial")
    return _sampled(_moments(_support_matrix(state)), settings, n, seed)


def _sampled(
    moments: np.ndarray, settings: tuple[float, float, float, float], n: int, seed: int
) -> Iterator[tuple[int, np.ndarray]]:
    """The chunks of :func:`sample_chunks` from the state's moment matrix ``moments``."""
    settings = _finite_angles(_ANGLE_NAMES, settings)
    # bounds[k, s]: the k-th cumulative outcome probability of setting s
    bounds = np.cumsum(_joint_distributions(moments, settings), axis=1)[:, :-1].T

    def chunks() -> Iterator[tuple[int, np.ndarray]]:
        for chunk_idx, first in enumerate(range(0, n, _CHUNK)):
            # the chunk's child of SeedSequence(seed).spawn(n_chunks), made alone
            child = np.random.SeedSequence(seed, spawn_key=(chunk_idx,))
            rng = np.random.Generator(np.random.PCG64(child))
            codes = rng.integers(0, 4, size=min(_CHUNK, n - first)).astype(np.int8)
            # the chunk's uniforms, drawn a block at a time: the same stream
            for lo in range(0, len(codes), _BLOCK):
                block = codes[lo : lo + _BLOCK]
                uniform = rng.random(len(block))
                index = block.astype(np.intp)
                block *= 4
                # plus the outcome: how many of its setting's cumulative bounds the uniform reaches
                for bound in bounds:
                    block += uniform >= bound[index]
            yield first, codes

    return chunks()


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


def tally_chunks(chunks: Iterable[tuple[int, np.ndarray]], csv: BinaryIO | None = None) -> dict:
    """The counts, correlations, S estimate and standard error of the trials in
    ``chunks``, keyed as in :class:`SampleResult`; given ``csv``, an open binary
    file, the events CSV is written to it as the chunks come."""
    if csv is not None:
        csv.write(_CSV_HEADER)
    # table[4 s + o] counts trials with setting s and outcome o.
    table = np.zeros(16, dtype=np.int64)
    for first, codes in chunks:
        table += np.bincount(codes, minlength=16)
        if csv is not None:
            csv.writelines(_rows(first, codes))
    counts = tuple(table.reshape(4, 4).sum(axis=1).tolist())
    prod_sums = table.reshape(4, 4) @ OUTCOME_SIGNS.prod(axis=1)  # sums of photon * atom outcomes
    e = tuple(float(p / c) if c else None for p, c in zip(prod_sums, counts))
    if None in e:
        s_estimate = std_error = None
    else:
        s_estimate = e[0] - e[1] + e[2] + e[3]
        std_error = math.sqrt(sum((1.0 - e[i] ** 2) / counts[i] for i in range(4)))
    return dict(s_estimate=s_estimate, standard_error=std_error, correlations=e, counts=counts)


def sample_events(
    state: PairState, settings: tuple[float, float, float, float], n: int, seed: int
) -> SampleResult:
    """The ``n`` trials of :func:`sample_chunks`, copied into the arrays of a
    :class:`SampleResult`."""
    chunks = sample_chunks(state, settings, n, seed)
    indices = np.empty((2, n), dtype=np.int8)  # the setting and outcome arrays
    for first, codes in chunks:
        indices[:, first : first + len(codes)] = np.divmod(codes, 4)
    indices.flags.writeable = False
    return SampleResult(*indices)
