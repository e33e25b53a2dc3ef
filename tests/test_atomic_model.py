"""Species structure, spherical basis, and dipole elements vs the uncoupling oracle."""

import json
import math

import numpy as np
import pytest

from conftest import sublevels
from oracles import oracle_dipole
from raman_pairs.angular_momentum import HalfInt
from raman_pairs.atomic_model import (
    AtomSpec,
    detuning,
    dipole_matrix_element,
    load_atom_spec,
    spherical_component,
    validity_check,
)
from raman_pairs.errors import InputDomainError

TWO_PI = 2.0 * math.pi


def sodium_table(spec):
    for fe in spec.excited_levels():
        for tme in range(-fe.twice, fe.twice + 1, 2):
            for fg in spec.ground_levels():
                for tmg in range(-fg.twice, fg.twice + 1, 2):
                    for q in (-1, 0, +1):
                        yield fe, tme, fg, tmg, q


# --- spherical basis ---------------------------------------------------------


def test_pi_vector_is_z():
    assert np.array_equal(spherical_component(0), np.array([0.0, 0.0, 1.0]))


def test_sigma_plus_sign_convention():
    v = spherical_component(+1)
    np.testing.assert_allclose(
        v, np.array([-1.0 / math.sqrt(2.0), -1.0j / math.sqrt(2.0), 0.0]), atol=1e-16
    )
    v = spherical_component(-1)
    np.testing.assert_allclose(
        v, np.array([1.0 / math.sqrt(2.0), -1.0j / math.sqrt(2.0), 0.0]), atol=1e-16
    )


def test_spherical_basis_orthonormal():
    vectors = {q: spherical_component(q) for q in (-1, 0, +1)}
    for q1, v1 in vectors.items():
        for q2, v2 in vectors.items():
            want = 1.0 if q1 == q2 else 0.0
            assert abs(np.vdot(v1, v2) - want) < 1e-15


# --- species construction ----------------------------------------------------


def test_sodium_preset_structure(spec):
    assert spec.nuclear_spin == HalfInt(3)
    assert spec.ground_j == HalfInt(1)
    assert spec.excited_j == HalfInt(3)
    assert [f.twice for f in spec.ground_levels()] == [2, 4]
    assert [f.twice for f in spec.excited_levels()] == [0, 2, 4, 6]
    assert spec.splitting(1) == 0.0
    assert abs(spec.splitting(2) - TWO_PI * 1.772e9) < 1e-3


def test_ground_sublevel_count(spec):
    assert len(sublevels(spec.ground_levels())) == 8
    assert len(sublevels(spec.excited_levels())) == 16


def test_sublevel_validation(spec):
    # each (2F, 2m) pair of a dipole element is a sublevel
    with pytest.raises(InputDomainError, match="invalid sublevel"):
        dipole_matrix_element(spec, 4, 0, 2, 4, 0)  # |m| > F
    with pytest.raises(InputDomainError, match="invalid sublevel"):
        dipole_matrix_element(spec, 4, 0, 2, 1, 0)  # parity mismatch
    with pytest.raises(InputDomainError, match="must be an int"):
        dipole_matrix_element(spec, 4, 0, 2, 0.0, 0)


def test_spec_rejects_mismatched_parity():
    with pytest.raises(InputDomainError):
        AtomSpec(
            name="bad",
            nuclear_spin=HalfInt(3),
            ground_j=HalfInt(1),
            excited_j=HalfInt(2),  # J_g + J_e not an integer
            ground_splittings=((HalfInt(2), 0.0), (HalfInt(4), 1.0)),
            resonance=1.0,
            linewidth=1.0,
            mass=1.0,
        )


def test_spec_rejects_incomplete_splittings():
    with pytest.raises(InputDomainError):
        AtomSpec(
            name="bad",
            nuclear_spin=HalfInt(3),
            ground_j=HalfInt(1),
            excited_j=HalfInt(3),
            ground_splittings=((HalfInt(2), 0.0),),
            resonance=1.0,
            linewidth=1.0,
            mass=1.0,
        )


@pytest.mark.parametrize("field", ["resonance", "linewidth", "mass", "reduced_dipole"])
@pytest.mark.parametrize("value", [math.nan, 0.0])
def test_spec_rejects_nan_and_zero_line_constants(spec, field, value):
    # a NaN reduced dipole used to surface as "no scattering amplitude"
    with pytest.raises(InputDomainError):
        spec.replace(**{field: value})


def test_spec_rejects_equal_splittings():
    # photon channels are keyed by frequency: equal splittings would share keys
    with pytest.raises(InputDomainError, match="F'=1: 0.0 rad/s, F'=2: 0.0 rad/s"):
        AtomSpec(
            name="bad",
            nuclear_spin=HalfInt(3),
            ground_j=HalfInt(1),
            excited_j=HalfInt(3),
            ground_splittings=((HalfInt(2), 0.0), (HalfInt(4), 0.0)),
            resonance=1.0,
            linewidth=1.0,
            mass=1.0,
        )


def test_load_atom_spec_rejects_unknown_key(tmp_path):
    from pathlib import Path

    import raman_pairs

    shipped = Path(raman_pairs.__file__).parent / "data" / "sodium.json"
    src = json.loads(shipped.read_text())
    src["linewidth_khz"] = src.pop("linewidth_hz")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(src))
    with pytest.raises(InputDomainError, match="linewidth_khz"):
        load_atom_spec(bad)


def test_load_atom_spec_roundtrips_shipped_preset(spec):
    assert spec.name == "sodium-23 D2"
    assert spec.reduced_dipole == 1.0
    assert spec.mass > 0 and spec.linewidth > 0


# --- dipole elements ----------------------------------------------------------


def test_pi_pump_reaches_only_f0_and_f2(spec):
    # pi light from |F'=1, m'=0> excites only (F=0, m=0) and (F=2, m=0)
    reachable = []
    for e in sublevels(spec.excited_levels()):
        if dipole_matrix_element(spec, *e, 2, 0, 0) != 0.0:
            reachable.append(e)
    assert reachable == [(0, 0), (4, 0)]


def test_magnetic_selection_rule(spec):
    e, g = (4, 2), (2, 0)
    assert dipole_matrix_element(spec, *e, *g, 0) == 0.0  # m != m' + q
    assert dipole_matrix_element(spec, *e, *g, -1) == 0.0
    assert dipole_matrix_element(spec, *e, *g, +1) != 0.0


def test_selection_rules_exhaustive(spec):
    for fe, tme, fg, tmg, q in sodium_table(spec):
        value = dipole_matrix_element(spec, fe.twice, tme, fg.twice, tmg, q)
        allowed = (
            tme == tmg + 2 * q
            and abs(fe.twice - fg.twice) <= 2
            and fe.twice + fg.twice >= 2
        )
        if not allowed:
            assert value == 0.0


def test_full_table_matches_uncoupling_oracle(spec):
    # One global sign relates the 6-j form to the explicit |m_I, m_J>
    # expansion; with the nuclear-spin-first coupling order it is +1.
    for fe, tme, fg, tmg, q in sodium_table(spec):
        mine = dipole_matrix_element(spec, fe.twice, tme, fg.twice, tmg, q)
        ref = oracle_dipole(3, 1, 3, fe.twice, tme, fg.twice, tmg, q)
        assert abs(mine - ref) <= 1e-12


def test_line_strength_sum_rule(spec):
    # sum over (F, m, q) of |<F m|er_q|F' m'>|^2 must not depend on m'
    for fg in spec.ground_levels():
        totals = []
        for tmg in range(-fg.twice, fg.twice + 1, 2):
            acc = 0.0
            for e in sublevels(spec.excited_levels()):
                for q in (-1, 0, +1):
                    acc += dipole_matrix_element(spec, *e, fg.twice, tmg, q) ** 2
            totals.append(acc)
        assert max(totals) - min(totals) <= 1e-12


def test_dipole_manifold_mismatch_raises(spec):
    # an excited-only level (2F = 6) as the ground level, a level of neither
    # manifold (2F = 8) as the excited one, and q outside {-1, 0, +1}
    with pytest.raises(InputDomainError, match="does not belong"):
        dipole_matrix_element(spec, 4, 0, 6, 0, 0)
    with pytest.raises(InputDomainError, match="does not belong"):
        dipole_matrix_element(spec, 8, 0, 2, 0, 0)
    with pytest.raises(InputDomainError, match="q must be"):
        dipole_matrix_element(spec, 4, 0, 2, 0, 2)


# --- detuning and validity ----------------------------------------------------


def test_detuning_on_resonance_is_zero(spec):
    assert detuning(spec, spec.resonance, 1) == 0.0


def test_detuning_red_shift(spec):
    # one ulp of the optical frequency is ~0.5 rad/s, hence the tolerance
    omega = spec.resonance - TWO_PI * 1.0e9
    assert abs(detuning(spec, omega, 1) + TWO_PI * 1.0e9) < 1.0


def test_detuning_upper_level_adds_splitting(spec):
    omega = spec.resonance - TWO_PI * 10.0e9
    upper = detuning(spec, omega, 2)
    lower = detuning(spec, omega, 1)
    assert abs(upper - (lower + spec.splitting(2))) == 0.0
    assert TWO_PI * 0.5e9 < spec.splitting(2) < TWO_PI * 5e9


def test_detuning_unknown_level_raises(spec):
    with pytest.raises(InputDomainError):
        detuning(spec, spec.resonance, 3)


def test_validity_pass_and_fail(spec):
    report = validity_check(spec, spec.resonance - 1000.0 * spec.linewidth)
    assert report.passed
    report = validity_check(spec, spec.resonance)
    assert not report.passed
    assert report.ratios[0][1] == 0.0


def test_validity_threshold_boundary(spec):
    omega = spec.resonance - 99.0 * spec.linewidth
    report = validity_check(spec, omega, threshold=100.0)
    assert not report.passed
