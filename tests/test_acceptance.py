"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion; each test prints its verdict after the asserts succeed, so a
failure surfaces as the usual pytest FAIL for that criterion.
"""

import json
import math

import numpy as np
import pytest

from conftest import (
    assert_equal_up_to_global_phase,
    doubled_detunings,
    entries,
    random_condensate,
    random_direction,
    random_pump,
)
from oracles import (
    oracle_3j,
    oracle_6j,
    oracle_cg,
    oracle_dipole,
    oracle_entropy_bits,
)
from raman_pairs.angular_momentum import HalfInt, clebsch_gordan, wigner_3j, wigner_6j
from raman_pairs.atomic_model import (
    dipole_matrix_element,
    excited_sublevel,
    ground_sublevel,
)
from raman_pairs.bell_sim import chsh, optimize_chsh, sample_events
from raman_pairs.entanglement_analysis import (
    concurrence_2x2,
    entanglement_entropy,
    schmidt,
)
from raman_pairs.geometry_explorer import argmax_direction, scan_sphere, scan_to_csv_text
from raman_pairs.pair_state import (
    CondensateSpinor,
    build_pair_state,
    pair_batch,
    pair_state_to_json,
    spectral_filter,
)
from raman_pairs.raman_coupling import ground_basis
from test_angular_momentum import _symmetry_images, iter_6j_grid, iter_cg_grid

ROOT8 = 2.0 * math.sqrt(2.0)


def report(number: int, text: str) -> None:
    print(f"[criterion {number}] PASS - {text}")


def test_criterion_1_reference_state_amplitudes(state_z):
    ref = 1.0 / (2.0 * math.sqrt(2.0))
    amps = {
        ((ch.doubled_f, ch.lam), atom): value
        for (ch, atom), value in entries(state_z).items()
    }
    expected = {
        ((2, 1), (2, -2)): ref,
        ((4, 1), (4, -2)): math.sqrt(3.0) * ref,
        ((2, 2), (2, 2)): ref,
        ((4, 2), (4, 2)): -math.sqrt(3.0) * ref,
    }
    assert_equal_up_to_global_phase(amps, expected, tol=1e-10)
    report(1, "joint amplitudes (1, sqrt3, 1, -sqrt3)/(2 sqrt2) within 1e-10")


def test_criterion_2_filtered_bell_states(state_z):
    want = 1.0 / math.sqrt(2.0)
    symmetric = spectral_filter(state_z, 1)
    amps = {(ch.lam, atom): v for (ch, atom), v in entries(symmetric).items()}
    assert_equal_up_to_global_phase(
        amps, {(1, (2, -2)): want, (2, (2, 2)): want}, tol=1e-10
    )
    antisymmetric = spectral_filter(state_z, 2)
    amps = {(ch.lam, atom): v for (ch, atom), v in entries(antisymmetric).items()}
    assert_equal_up_to_global_phase(
        amps, {(1, (4, -2)): want, (2, (4, 2)): -want}, tol=1e-10
    )
    for filtered in (symmetric, antisymmetric):
        assert entanglement_entropy(filtered) == pytest.approx(1.0, abs=1e-9)
        assert concurrence_2x2(filtered) == pytest.approx(1.0, abs=1e-9)
    report(2, "filtered channels are the +/- Bell states, 1.0 bit, concurrence 1")


def test_criterion_3_channel_weights(state_z):
    probs: dict[int, float] = {}
    for ch, p in state_z.channel_probabilities():
        probs[ch.doubled_f] = probs.get(ch.doubled_f, 0.0) + p
    assert abs(probs[2] - 0.25) <= 1e-12
    assert abs(probs[4] - 0.75) <= 1e-12
    report(3, "channel weights P(F=1) = 1/4, P(F=2) = 3/4 within 1e-12")


def test_criterion_4_full_state_entropy(state_z):
    # hand-transcribed amplitude matrix on the (omega, polarization) x (F, m)
    # basis, fed to the LAPACK oracle
    hand = np.diag([1.0, math.sqrt(3.0), 1.0, -math.sqrt(3.0)]) / (2.0 * math.sqrt(2.0))
    target = oracle_entropy_bits(hand)
    assert target == pytest.approx(1.8112781244591328, abs=1e-14)
    assert entanglement_entropy(state_z) == pytest.approx(1.81128, abs=1e-5)
    assert entanglement_entropy(state_z) == pytest.approx(target, abs=1e-12)
    report(4, "full-state entropy 1.81128 bits within 1e-5 against the SVD oracle")


def test_criterion_5_angular_momentum_oracle_equivalence():
    for tj1, tm1, tj2, tm2, tj, tm in iter_cg_grid(max_tj=8):
        args = (HalfInt(tj1), HalfInt(tm1), HalfInt(tj2), HalfInt(tm2), HalfInt(tj), HalfInt(tm))
        assert abs(clebsch_gordan(*args).value - oracle_cg(tj1, tm1, tj2, tm2, tj, tm)) <= 1e-12
        got3 = wigner_3j(
            HalfInt(tj1), HalfInt(tj2), HalfInt(tj), HalfInt(tm1), HalfInt(tm2), HalfInt(-tm)
        ).value
        assert abs(got3 - oracle_3j(tj1, tj2, tj, tm1, tm2, -tm)) <= 1e-12
    for tjs in iter_6j_grid(max_tj=8):
        assert abs(wigner_6j(*(HalfInt(t) for t in tjs)).value - oracle_6j(*tjs)) <= 1e-12

    # orthogonality within 1e-12 over the doubled-j <= 8 grid
    for tj1 in range(9):
        for tj2 in range(9):
            t_js = range(abs(tj1 - tj2), min(tj1 + tj2, 8) + 1, 2)
            for tja in t_js:
                for tjb in t_js:
                    for tm in range(-min(tja, tjb), min(tja, tjb) + 1, 2):
                        acc = 0.0
                        for tm1 in range(-tj1, tj1 + 1, 2):
                            tm2 = tm - tm1
                            if abs(tm2) > tj2:
                                continue
                            acc += (
                                clebsch_gordan(
                                    HalfInt(tj1), HalfInt(tm1), HalfInt(tj2),
                                    HalfInt(tm2), HalfInt(tja), HalfInt(tm),
                                ).value
                                * clebsch_gordan(
                                    HalfInt(tj1), HalfInt(tm1), HalfInt(tj2),
                                    HalfInt(tm2), HalfInt(tjb), HalfInt(tm),
                                ).value
                            )
                        assert abs(acc - (1.0 if tja == tjb else 0.0)) <= 1e-12

    # symmetry suite: all 24 images share the exact form (doubled-j <= 5)
    for tjs in iter_6j_grid(max_tj=5):
        reference = wigner_6j(*(HalfInt(t) for t in tjs))
        for image in _symmetry_images(tjs):
            got = wigner_6j(*(HalfInt(t) for t in image))
            assert got.sign == reference.sign and got.radicand == reference.radicand
            assert abs(got.value - reference.value) <= 1e-12
    report(5, "CG/3j/6j match the Racah direct-sum oracle; orthogonality and symmetry green")


def test_criterion_6_dipole_oracle_equivalence(spec):
    global_sign = 0.0
    worst = 0.0
    for fe in spec.excited_levels():
        for tme in range(-fe.twice, fe.twice + 1, 2):
            for fg in spec.ground_levels():
                for tmg in range(-fg.twice, fg.twice + 1, 2):
                    for q in (-1, 0, +1):
                        mine = dipole_matrix_element(
                            spec,
                            excited_sublevel(fe, HalfInt(tme)),
                            ground_sublevel(fg, HalfInt(tmg)),
                            q,
                        )
                        ref = oracle_dipole(3, 1, 3, fe.twice, tme, fg.twice, tmg, q)
                        if global_sign == 0.0 and abs(ref) > 1e-6:
                            global_sign = math.copysign(1.0, mine / ref)
                        worst = max(worst, abs(mine - global_sign * ref))
    assert global_sign == 1.0  # nuclear-spin-first coupling: no residual sign
    assert worst <= 1e-12
    report(6, "all sodium dipole elements match the uncoupling oracle (global sign +1)")


def test_criterion_7_chsh(state_z, pump):
    bell = spectral_filter(state_z, 1)
    settings, s_opt = optimize_chsh(bell)
    assert s_opt == pytest.approx(ROOT8, abs=1e-6)

    result = sample_events(bell, settings, 100_000, seed=7)
    assert abs(result.s_estimate - ROOT8) <= 5.0 * result.standard_error

    from test_bell_sim import synth_state

    rng = np.random.default_rng(97)
    for _ in range(1000):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m /= np.linalg.norm(m)
        state = synth_state(m, pump)
        angles = rng.uniform(0.0, math.pi, 4)
        assert abs(chsh(state, *angles)) <= ROOT8 + 1e-9
    report(7, "CHSH optimum 2 sqrt2, sampled within 5 sigma, Tsirelson bound respected")


def test_criterion_8_scan_maximum_on_axis(spec, pump, phi0):
    scan = scan_sphere(
        spec, pump, phi0, math.radians(2.0), "concurrence_after_filter", filter_f=1
    )
    direction, value = argmax_direction(scan)
    np.testing.assert_allclose(direction, [0.0, 0.0, 1.0], atol=1e-12)
    assert value >= 1.0 - 1e-6
    on_axis = np.abs(scan.directions[:, 2]) == 1.0
    poles = scan.measures[on_axis]
    off_axis = scan.measures[~on_axis & ~scan.flagged]
    assert all(m >= 1.0 - 1e-6 for m in poles)
    assert max(off_axis) < min(poles)
    report(8, "2-degree scan: global maximum of filtered concurrence at +-z, value >= 1 - 1e-6")


def test_criterion_9_property_suites(spec, pump, phi0, state_z):
    rng = np.random.default_rng(101)
    # state normalization and Schmidt reconstruction
    for _ in range(100):
        rpump = random_pump(spec, rng)
        rphi = random_condensate(spec, rng)
        state = build_pair_state(spec, rpump, rphi, random_direction(rng))
        assert sum(abs(a) ** 2 for a in entries(state).values()) == pytest.approx(1.0, abs=1e-12)
        result = schmidt(state)
        matrix, _, _ = state.matrix()
        assert np.abs(result.reconstruction() - matrix).max() <= 1e-10

    # selection rules, on the kernel: the pi pump seen from +-z scatters into
    # eps_+1 (lambda = 1) and eps_-1 (lambda = 2), so from every single-sublevel
    # condensate an amplitude is exactly zero unless 2m_final - 2m_initial is
    # -2 (lambda = 1) or +2 (lambda = 2)
    basis = ground_basis(spec)
    final_m = np.array([g.m.twice for g in basis])
    poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    doubled, pump2 = doubled_detunings(spec, pump)
    for ini in basis:
        condensate = CondensateSpinor.single(ini.f, ini.m)
        batch = pair_batch(spec, pump, condensate, poles)
        assert (batch.norms > 0.0).all()
        for lam, shift in ((1, -2), (2, +2)):
            assert (batch.amplitudes[:, lam - 1, final_m - ini.m.twice != shift] == 0.0).all()
        # detuning linearity: doubling every detuning halves G exactly, so the
        # norms halve and the normalized amplitudes stay
        again = pair_batch(doubled, pump2, condensate, poles)
        np.testing.assert_allclose(again.norms, 0.5 * batch.norms, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(again.amplitudes, batch.amplitudes, rtol=0.0, atol=1e-12)

    # byte-identical reruns of the serialized artifacts
    doc_a = json.dumps(pair_state_to_json(state_z), sort_keys=True)
    doc_b = json.dumps(pair_state_to_json(state_z), sort_keys=True)
    assert doc_a == doc_b
    coarse = scan_sphere(spec, pump, phi0, math.pi / 12.0, "entropy")
    coarse_again = scan_sphere(spec, pump, phi0, math.pi / 12.0, "entropy")
    assert scan_to_csv_text(coarse) == scan_to_csv_text(coarse_again)
    report(9, "normalization, reconstruction, kernel selection rules and linearity, reruns all green")
