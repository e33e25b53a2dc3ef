"""Analytic and sampled CHSH correlations."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from oracles import (
    events_csv_text,
    oracle_chsh,
    oracle_correlation,
    oracle_outcome_probabilities,
    oracle_sampled_events,
)
from raman_pairs import bell_sim
from raman_pairs.bell_sim import (
    OUTCOME_SIGNS,
    SETTING_LABELS,
    chsh,
    correlation,
    optimize_chsh,
    sample_chunks,
    sample_events,
    tally_chunks,
)
from raman_pairs.errors import InputDomainError, PhysicsError
from raman_pairs.pair_state import PairState, build_pair_state, spectral_filter

Z = np.array([0.0, 0.0, 1.0])
ROOT8 = 2.0 * math.sqrt(2.0)
OPTIMAL = (0.0, math.pi / 4.0, math.pi / 8.0, 3.0 * math.pi / 8.0)


def synth_state(matrix, pump) -> PairState:
    """Wrap a normalized 2x2 amplitude matrix in a PairState of one F=1 level."""
    amplitudes = np.zeros((2, 3), dtype=complex)
    amplitudes[:, [0, 2]] = matrix  # atoms (2, -2) and (2, 2)
    return PairState(
        amplitudes=amplitudes,
        levels=(2,),
        omega=(1.0e15,),
        recoil_momentum=np.zeros(3),
        photon_wavevector=Z * 1.0e7,
        emission_weight=1.0,
        detection_direction=Z.copy(),
        pump=pump,
    )


@pytest.fixture(scope="module")
def bell(state_z):
    return spectral_filter(state_z, 1)


@pytest.fixture(scope="module")
def anti(state_z):
    return spectral_filter(state_z, 2)


# --- correlation -------------------------------------------------------------


def test_aligned_settings_perfect_correlation(bell):
    assert correlation(bell, 0.0, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_quarter_turn_kills_correlation(bell):
    assert correlation(bell, 0.3, 0.3 + math.pi / 4.0) == pytest.approx(0.0, abs=1e-12)


def test_bell_pattern_cos2ab(bell):
    for a in np.linspace(0.0, math.pi, 9):
        for b in np.linspace(-1.0, 2.0, 9):
            assert correlation(bell, a, b) == pytest.approx(
                math.cos(2.0 * (a - b)), abs=1e-12
            )


def test_antisymmetric_pattern_is_b_reflected(bell, anti):
    # oracle check: E_anti(a, b) = E_sym(a, -b)
    m_anti, _, _ = anti.matrix()
    for a in np.linspace(0.0, math.pi, 7):
        for b in np.linspace(-1.0, 2.0, 7):
            direct = correlation(anti, a, b)
            assert direct == pytest.approx(oracle_correlation(m_anti, a, b), abs=1e-12)
            assert direct == pytest.approx(correlation(bell, a, -b), abs=1e-12)


def test_correlation_matches_oracle_random(bell, pump):
    rng = np.random.default_rng(73)
    for _ in range(100):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m /= np.linalg.norm(m)
        state = synth_state(m, pump)
        a, b = rng.uniform(0, math.pi, 2)
        assert correlation(state, a, b) == pytest.approx(
            oracle_correlation(m, a, b), abs=1e-12
        )


def test_correlation_requires_2x2(state_z):
    with pytest.raises(PhysicsError, match=r"needs a 2x2 state .* 4 photon x 4 atom labels"):
        correlation(state_z, 0.0, 0.0)


def test_joint_distributions_match_oracle():
    # (1, s c(x)) . M . (1, t c(y)) / 4 against the oracle's projected amplitudes
    rng = np.random.default_rng(131)
    for _ in range(500):
        m = random_matrix(rng)
        a, a_prime, b, b_prime = settings = tuple(rng.uniform(-math.pi, math.pi, 4))
        probs = bell_sim._joint_distributions(bell_sim._moments(m), settings)
        pairs = ((a, b), (a, b_prime), (a_prime, b), (a_prime, b_prime))
        want = [oracle_outcome_probabilities(m, x, y) for x, y in pairs]
        assert np.abs(probs - want).max() <= 1e-15
        assert (probs >= 0.0).all()


def test_joint_distributions_clip_zero_outcomes(bell):
    # at a = b the Bell state never gives opposite outcomes, which rounding
    # can put at -1e-17; clipped, the cumulative bounds still never decrease
    moments = bell_sim._moments(bell.matrix()[0])
    for a in np.linspace(-math.pi, math.pi, 241).tolist():
        probs = bell_sim._joint_distributions(moments, (a, a, a, a))
        assert (probs >= 0.0).all()
        assert (np.diff(np.cumsum(probs, axis=1), axis=1) >= 0.0).all()


# --- chsh ----------------------------------------------------------------------


def test_chsh_at_standard_settings(bell):
    assert chsh(bell, *OPTIMAL) == pytest.approx(ROOT8, abs=1e-12)


def test_product_state_classical_bound(pump):
    rng = np.random.default_rng(79)
    for _ in range(100):
        photon = rng.normal(size=2) + 1j * rng.normal(size=2)
        atom = rng.normal(size=2) + 1j * rng.normal(size=2)
        m = np.outer(photon / np.linalg.norm(photon), atom / np.linalg.norm(atom))
        state = synth_state(m, pump)
        angles = rng.uniform(0, math.pi, 4)
        assert abs(chsh(state, *angles)) <= 2.0 + 1e-12


def test_tsirelson_bound_random(pump):
    rng = np.random.default_rng(83)
    for _ in range(1000):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m /= np.linalg.norm(m)
        state = synth_state(m, pump)
        angles = rng.uniform(0, math.pi, 4)
        s = chsh(state, *angles)
        assert abs(s) <= ROOT8 + 1e-9
        assert s == pytest.approx(oracle_chsh(m, *angles), abs=1e-12)


# --- optimize -------------------------------------------------------------------


def test_optimize_bell_reaches_tsirelson(bell):
    settings, s = optimize_chsh(bell)
    assert s == pytest.approx(ROOT8, abs=1e-6)
    assert chsh(bell, *settings) == pytest.approx(s, abs=1e-12)


def test_optimize_antisymmetric_reaches_tsirelson(anti):
    _, s = optimize_chsh(anti)
    assert s == pytest.approx(ROOT8, abs=1e-6)


def test_optimize_product_state_classical_max(pump):
    m = np.outer([0.6, 0.8], [0.8, 0.6])
    state = synth_state(m, pump)
    _, s = optimize_chsh(state)
    assert s == pytest.approx(2.0, abs=1e-6)


def test_optimize_deterministic(bell):
    first = optimize_chsh(bell)
    second = optimize_chsh(bell)
    assert first == second


def test_optimize_reads_one_moment_matrix(bell, pump, monkeypatch):
    # S at the chosen angles comes from the T already in hand, by the
    # expression chsh evaluates, so one call forms the moments once and gives
    # the bits chsh gives at those angles
    calls = []
    moments = bell_sim._moments
    monkeypatch.setattr(bell_sim, "_moments", lambda m: calls.append(m) or moments(m))
    optimize_chsh(bell)
    assert len(calls) == 1
    monkeypatch.undo()
    rng = np.random.default_rng(137)
    for state in [bell] + [synth_state(random_matrix(rng), pump) for _ in range(200)]:
        settings, s = optimize_chsh(state)
        assert s == chsh(state, *settings)


def test_support_error_advises_a_filter_only_for_more_photon_labels(spec, pump, phi0, state_z):
    # a filter leaves at most 2 photon labels, so it is the advice only above 2
    with pytest.raises(PhysicsError, match=r"4 photon x 4 atom labels; spectrally filter it first$"):
        correlation(state_z, 0.0, 0.0)
    off_axis = build_pair_state(spec, pump, phi0, np.array([0.6, 0.0, 0.8]))
    with pytest.raises(PhysicsError, match=r"2 photon x 3 atom labels$"):
        correlation(spectral_filter(off_axis, 1), 0.0, 0.0)


def random_matrix(rng) -> np.ndarray:
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return m / np.linalg.norm(m)


def oracle_frobenius_bound(m: np.ndarray) -> float:
    """2 ||T||_F with T[i, j] = E over the z (angle 0) and x (angle pi/4) analyzers."""
    axes = (0.0, math.pi / 4.0)
    t = np.array([[oracle_correlation(m, a, b) for b in axes] for a in axes])
    return 2.0 * math.sqrt(float(np.sum(t**2)))


def enumerated_correlations(m: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``oracle_correlation`` over arrays of angles: sum of outcome products x probabilities."""
    total = np.zeros(np.shape(a))
    for s_out, (ua0, ua1) in ((1, (np.cos(a), np.sin(a))), (-1, (-np.sin(a), np.cos(a)))):
        for t_out, (vb0, vb1) in ((1, (np.cos(b), np.sin(b))), (-1, (-np.sin(b), np.cos(b)))):
            amplitude = (
                ua0 * (m[0, 0] * vb0 + m[0, 1] * vb1) + ua1 * (m[1, 0] * vb0 + m[1, 1] * vb1)
            )
            total += s_out * t_out * np.abs(amplitude) ** 2
    return total


def test_optimize_matches_frobenius_oracle(pump):
    # The optimum is 2 ||T||_F, and no random choice of the four angles beats it.
    rng = np.random.default_rng(101)
    probe = rng.uniform(0.0, math.pi, size=(2, 5))
    m = random_matrix(rng)
    assert enumerated_correlations(m, *probe) == pytest.approx(
        [oracle_correlation(m, x, y) for x, y in probe.T], abs=1e-14
    )
    for _ in range(200):
        m = random_matrix(rng)
        settings, s = optimize_chsh(synth_state(m, pump))
        assert s == pytest.approx(oracle_frobenius_bound(m), abs=1e-12)
        assert oracle_chsh(m, *settings) == pytest.approx(s, abs=1e-12)
        a, ap, b, bp = rng.uniform(0.0, math.pi, size=(4, 10_000))
        random_s = (
            enumerated_correlations(m, a, b)
            - enumerated_correlations(m, a, bp)
            + enumerated_correlations(m, ap, b)
            + enumerated_correlations(m, ap, bp)
        )
        assert random_s.max() <= s + 1e-12


# --- sampling -------------------------------------------------------------------


def test_sampling_reproducible(bell):
    r1 = sample_events(bell, OPTIMAL, 5000, seed=7)
    r2 = sample_events(bell, OPTIMAL, 5000, seed=7)
    assert np.array_equal(r1.setting_index, r2.setting_index)
    assert np.array_equal(r1.outcome_index, r2.outcome_index)
    assert r1.s_estimate == r2.s_estimate
    r3 = sample_events(bell, OPTIMAL, 5000, seed=8)
    assert not (
        np.array_equal(r3.setting_index, r1.setting_index)
        and np.array_equal(r3.outcome_index, r1.outcome_index)
    )


def test_sampling_statistical_contract(bell):
    result = sample_events(bell, OPTIMAL, 100_000, seed=7)
    assert abs(result.s_estimate - ROOT8) <= 5.0 * result.standard_error
    assert result.standard_error < 0.02


def test_sampling_marginals_unbiased(bell):
    result = sample_events(bell, OPTIMAL, 100_000, seed=11)
    photon_mean = np.mean(OUTCOME_SIGNS[result.outcome_index, 0])
    atom_mean = np.mean(OUTCOME_SIGNS[result.outcome_index, 1])
    # each marginal is +-1 with p = 1/2; five sigma of the mean
    five_sigma = 5.0 / math.sqrt(len(result.outcome_index))
    assert abs(photon_mean) <= five_sigma
    assert abs(atom_mean) <= five_sigma


def test_sampling_internal_consistency(bell):
    result = sample_events(bell, OPTIMAL, 20_000, seed=13)
    sums = {i: [] for i in range(4)}
    label_to_index = {
        ("a", "b"): 0,
        ("a", "b_prime"): 1,
        ("a_prime", "b"): 2,
        ("a_prime", "b_prime"): 3,
    }
    for s_i, o_i in zip(result.setting_index, result.outcome_index):
        photon, atom = OUTCOME_SIGNS[o_i]
        sums[label_to_index[SETTING_LABELS[s_i]]].append(photon * atom)
    for i in range(4):
        assert -1.0 <= result.correlations[i] <= 1.0
        assert result.correlations[i] == pytest.approx(np.mean(sums[i]), abs=1e-14)
        assert result.counts[i] == len(sums[i])
    recon = (
        result.correlations[0]
        - result.correlations[1]
        + result.correlations[2]
        + result.correlations[3]
    )
    assert result.s_estimate == recon


def test_sampling_converges_to_analytic(bell):
    # the empirical correlation approaches the analytic value over many seeds
    hits = 0
    n_seeds = 20
    for seed in range(n_seeds):
        result = sample_events(bell, OPTIMAL, 20_000, seed=seed)
        if abs(result.s_estimate - ROOT8) <= 5.0 * result.standard_error:
            hits += 1
    assert hits >= n_seeds - 1


def test_sampling_rejects_zero_trials(bell):
    with pytest.raises(InputDomainError):
        sample_events(bell, OPTIMAL, 0, seed=1)


def test_sampling_chunk_boundary(bell):
    # crossing the 65536-trial chunk boundary keeps the earlier trials
    short = sample_events(bell, OPTIMAL, 65_536, seed=3)
    longer = sample_events(bell, OPTIMAL, 65_536 + 100, seed=3)
    assert np.array_equal(longer.setting_index[: len(short.setting_index)], short.setting_index)
    assert np.array_equal(longer.outcome_index[: len(short.outcome_index)], short.outcome_index)


def write_events(state, settings, n, seed, path) -> None:
    """The events CSV as ``chsh --events-csv`` writes it: the sampled chunks
    streamed through :func:`tally_chunks`."""
    with open(path, "wb") as csv:
        tally_chunks(sample_chunks(state, settings, n, seed), csv)


def test_events_csv_layout(bell, tmp_path):
    path = tmp_path / "events.csv"
    write_events(bell, OPTIMAL, 50, 5, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "trial,setting_a_label,setting_b_label,photon_outcome,atom_outcome"
    assert len(lines) == 51
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[1] in ("a", "a_prime") and first[2] in ("b", "b_prime")
    assert first[3] in ("-1", "1") and first[4] in ("-1", "1")


def test_events_csv_rows_match_arrays(bell, tmp_path):
    # every row across the chunk boundary spells out its trial's indices
    result = sample_events(bell, OPTIMAL, 65_536 + 100, seed=3)
    path = tmp_path / "events.csv"
    write_events(bell, OPTIMAL, 65_536 + 100, 3, path)
    lines = path.read_text().splitlines()[1:]
    assert len(lines) == len(result.setting_index)
    for k in (0, 1, 65_535, 65_536, 65_635):
        la, lb = SETTING_LABELS[result.setting_index[k]]
        photon, atom = OUTCOME_SIGNS[result.outcome_index[k]]
        assert lines[k] == f"{k},{la},{lb},{photon},{atom}"


@pytest.mark.parametrize(
    "n", [1, 9, 10, 11, 99, 100, 101, 9_999, 10_000, 65_536, 65_537, 100_001]
)
def test_events_csv_matches_oracle(n, pump, tmp_path):
    # every digit-count boundary up to 6 digits, and the chunk boundary
    m = np.array([[0.6, 0.2j], [0.1 - 0.3j, 0.7]])
    state = synth_state(m / np.linalg.norm(m), pump)
    result = sample_events(state, (0.1, 1.2, 0.4, 2.0), n, 17)
    path = tmp_path / "events.csv"
    write_events(state, (0.1, 1.2, 0.4, 2.0), n, 17, path)
    want = events_csv_text(result.setting_index.tolist(), result.outcome_index.tolist())
    assert path.read_bytes() == want.encode()


def test_sampling_matches_inverse_transform_oracle(spec, pump, phi0):
    # the documented stream, replayed one trial at a time, gives the same
    # settings and outcomes at non-Bell settings, across the chunk boundary
    rng = np.random.default_rng(109)
    states = []
    for _ in range(3):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        states.append(spectral_filter(build_pair_state(spec, pump, phi0, direction), 2))
        states.append(synth_state(random_matrix(rng), pump))
    for state, n in zip(states, (65_536 + 321, 1, 2_000, 65_536, 77, 70_000)):
        settings = tuple(rng.uniform(-math.pi, math.pi, 4))
        seed = int(rng.integers(2**32))
        result = sample_events(state, settings, n, seed)
        oracle = oracle_sampled_events(state.matrix()[0], settings, n, seed)
        assert result.setting_index.tolist() == oracle[0]
        assert result.outcome_index.tolist() == oracle[1]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e308, -9e307])
@pytest.mark.parametrize("position, name", enumerate(["a", "a'", "b", "b'"]))
def test_non_finite_angle_is_named(position, name, value, bell):
    # a NaN angle once sampled every trial as (+1, +1), a plausible S; the
    # Bloch vector takes the cosine of twice the angle, which must be finite
    settings = [0.1, 0.7, 0.3, 1.1]
    settings[position] = value
    named = pytest.raises(InputDomainError, match=f"analyzer angle {re.escape(name)} ")
    with named:
        sample_events(bell, settings, 1000, 1)
    with named:
        chsh(bell, *settings)
    if name in ("a", "b"):
        with named:
            correlation(bell, settings[0], settings[2])


def test_sampled_arrays_are_read_only(bell):
    result = sample_events(bell, OPTIMAL, 10, seed=1)
    assert result.setting_index.dtype == np.int8 and result.outcome_index.dtype == np.int8
    with pytest.raises(ValueError):
        result.outcome_index[0] = 0


def test_sampling_undefined_correlation_is_none(bell):
    # two trials cannot cover four setting pairs: the empty ones have no value
    result = sample_events(bell, OPTIMAL, 2, seed=1)
    assert sum(result.counts) == 2 and 0 in result.counts
    for count, corr in zip(result.counts, result.correlations):
        assert (corr is None) == (count == 0)
    assert result.s_estimate is None
    assert result.standard_error is None


def _traced_peak(state, n, path) -> int:
    """The traced peak of sampling ``n`` trials and writing their CSV, after
    one untraced call has imported numpy's random submodules."""
    sample_events(state, OPTIMAL, 1, seed=0)
    tracemalloc.start()
    try:
        result = sample_events(state, OPTIMAL, n, seed=7)  # held while the CSV is written
        write_events(state, OPTIMAL, n, 7, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_sampling_and_csv_memory_bound(bell, tmp_path):
    # 10^6 trials are two int8 arrays (2 MB) plus one block's temporaries,
    # about 1.5 MB for the CSV; an object per trial would take over 100 bytes each.
    assert _traced_peak(bell, 1_000_000, tmp_path / "events.csv") < 4e6


@pytest.mark.parametrize("n", [100_000, 1_000_000])
def test_memory_beyond_the_arrays_does_not_grow(n, bell, tmp_path):
    # beyond 2 bytes per trial, the working set is one block's, whatever the
    # trial count
    assert _traced_peak(bell, n, tmp_path / "events.csv") - 2 * n < 2e6


@pytest.mark.parametrize("seed", [0, 7, 2**32 + 1, 2**63])
def test_chunk_seed_is_the_spawned_child(seed):
    # the chunk's SeedSequence, made alone, is the child spawn() gives
    children = np.random.SeedSequence(seed).spawn(40)
    for i, child in enumerate(children):
        alone = np.random.SeedSequence(seed, spawn_key=(i,))
        assert np.array_equal(alone.generate_state(8), child.generate_state(8))


@pytest.mark.parametrize("n, runs", [(10_000, 4), (65_536, 8), (100_000, 11)])
def test_csv_rows_come_in_capped_runs(n, runs):
    # a run of one digit count is cut at _BLOCK rows: 10,000 trials keep
    # their four runs, and a chunk of 65536 splits its five-digit run in four
    codes = np.zeros(n, dtype=np.int8)
    rows_per_block = [
        np.count_nonzero(block == ord("\n"))
        for start in range(0, n, 65_536)
        for block in bell_sim._rows(start, codes[start : start + 65_536])
    ]
    assert len(rows_per_block) == runs
    assert sum(rows_per_block) == n
    assert max(rows_per_block) <= bell_sim._BLOCK == 16_384
