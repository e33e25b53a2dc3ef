"""Exact coupling coefficients against the independent direct-sum oracles."""

import math
from fractions import Fraction

import pytest

from oracles import oracle_3j, oracle_3j_exact, oracle_6j, oracle_6j_exact, oracle_cg
from raman_pairs import angular_momentum
from raman_pairs.angular_momentum import (
    HalfInt,
    clebsch_gordan,
    halfint,
    triangle_ok,
    wigner_3j,
    wigner_6j,
)
from raman_pairs.errors import InputDomainError

MAX_TJ = 8


def iter_cg_grid(max_tj=MAX_TJ):
    for tj1 in range(max_tj + 1):
        for tj2 in range(max_tj + 1):
            for tj in range(abs(tj1 - tj2), min(tj1 + tj2, max_tj) + 1, 2):
                for tm1 in range(-tj1, tj1 + 1, 2):
                    for tm2 in range(-tj2, tj2 + 1, 2):
                        tm = tm1 + tm2
                        if abs(tm) <= tj:
                            yield tj1, tm1, tj2, tm2, tj, tm


def iter_6j_grid(max_tj=MAX_TJ):
    rng = range(max_tj + 1)
    for tj1 in rng:
        for tj2 in rng:
            for tj3 in range(abs(tj1 - tj2), min(tj1 + tj2, max_tj) + 1, 2):
                for tj4 in rng:
                    for tj5 in range(abs(tj4 - tj3), min(tj4 + tj3, max_tj) + 1, 2):
                        for tj6 in range(
                            max(abs(tj1 - tj5), abs(tj4 - tj2)),
                            min(tj1 + tj5, tj4 + tj2, max_tj) + 1,
                            2,
                        ):
                            yield tj1, tj2, tj3, tj4, tj5, tj6


# --- HalfInt ----------------------------------------------------------------


def test_halfint_coercions():
    assert halfint(2).twice == 4
    assert halfint("3/2").twice == 3
    assert [halfint(s).twice for s in ("2", "-3/2", "0", "-0", "-2")] == [4, -3, 0, 0, -4]
    assert halfint(Fraction(-1, 2)).twice == -1
    assert halfint(HalfInt(5)).twice == 5
    assert str(HalfInt(3)) == "3/2"
    assert str(HalfInt(4)) == "2"
    assert float(HalfInt(3)) == 1.5


def test_halfint_rejects_floats_and_bad_fractions():
    with pytest.raises(InputDomainError):
        halfint(1.5)
    with pytest.raises(InputDomainError):
        halfint(Fraction(1, 3))
    with pytest.raises(InputDomainError):
        halfint("j")


@pytest.mark.parametrize(
    "text",
    ["1.0", "1e0", "2/2", " 1", "1 ", "1\n", "+1", "1_0", "\u0663", "-4/2", "1/3", ""]
    + [pytest.param("1" * 5000, id="beyond-int-digit-limit")],
)
def test_halfint_reads_only_digits_or_odd_halves(text):
    with pytest.raises(InputDomainError):
        halfint(text)


def test_halfint_rejects_bool():
    # bool is an int subclass: HalfInt(True) would print "True/2" and
    # compare and hash equal to HalfInt(1)
    for flag in (True, False):
        with pytest.raises(InputDomainError):
            HalfInt(flag)
        with pytest.raises(InputDomainError):
            halfint(flag)


# --- triangle rule ----------------------------------------------------------


def test_triangle_examples():
    assert triangle_ok(1, 1, 2) is True
    assert triangle_ok("1/2", "1/2", 2) is False
    assert triangle_ok("3/2", 1, "1/2") is True


def test_triangle_parity():
    # 1/2 + 1/2 + 1/2 is not an integer perimeter
    assert triangle_ok("1/2", "1/2", "1/2") is False


def test_triangle_negative_raises():
    with pytest.raises(InputDomainError):
        triangle_ok(-1, 1, 1)


# --- Clebsch-Gordan ---------------------------------------------------------


def test_cg_scalar_coupling_is_identity():
    for tj in range(0, 9):
        for tm in range(-tj, tj + 1, 2):
            value = clebsch_gordan(HalfInt(tj), HalfInt(tm), 0, 0, HalfInt(tj), HalfInt(tm))
            assert value.value == 1.0


def test_cg_examples_against_oracle():
    got = clebsch_gordan("1/2", "1/2", "1/2", "-1/2", 1, 0)
    assert abs(got.value - 1.0 / math.sqrt(2.0)) < 1e-15
    assert abs(got.value - oracle_cg(1, 1, 1, -1, 2, 0)) < 1e-15
    # projection not conserved: exact zero, and the oracle agrees
    got = clebsch_gordan(1, 1, 1, 0, 2, 2)
    assert got.value == 0.0 and got.sign == 0
    assert oracle_cg(2, 2, 2, 0, 4, 4) == 0.0


def test_cg_full_grid_matches_oracle():
    for tj1, tm1, tj2, tm2, tj, tm in iter_cg_grid():
        mine = clebsch_gordan(
            HalfInt(tj1), HalfInt(tm1), HalfInt(tj2), HalfInt(tm2), HalfInt(tj), HalfInt(tm)
        ).value
        assert abs(mine - oracle_cg(tj1, tm1, tj2, tm2, tj, tm)) <= 1e-12


def test_cg_parity_mismatch_raises():
    with pytest.raises(InputDomainError):
        clebsch_gordan(1, "1/2", 1, 0, 2, "1/2")


def test_cg_m_out_of_range_raises():
    with pytest.raises(InputDomainError):
        clebsch_gordan(1, 2, 1, 0, 2, 2)


def test_cg_orthogonality():
    for tj1 in range(MAX_TJ + 1):
        for tj2 in range(MAX_TJ + 1):
            t_js = range(abs(tj1 - tj2), min(tj1 + tj2, MAX_TJ) + 1, 2)
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
                        want = 1.0 if tja == tjb else 0.0
                        assert abs(acc - want) <= 1e-12


def test_cg_completeness():
    for tj1 in range(0, MAX_TJ + 1, 2):
        tj2 = MAX_TJ - tj1
        for tm1 in range(-tj1, tj1 + 1, 2):
            for tm1p in range(-tj1, tj1 + 1, 2):
                for tm2 in range(-tj2, tj2 + 1, 2):
                    for tm2p in range(-tj2, tj2 + 1, 2):
                        acc = 0.0
                        if tm1 + tm2 == tm1p + tm2p:
                            tm = tm1 + tm2
                            for tj in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                                if abs(tm) > tj:
                                    continue
                                acc += (
                                    clebsch_gordan(
                                        HalfInt(tj1), HalfInt(tm1), HalfInt(tj2),
                                        HalfInt(tm2), HalfInt(tj), HalfInt(tm),
                                    ).value
                                    * clebsch_gordan(
                                        HalfInt(tj1), HalfInt(tm1p), HalfInt(tj2),
                                        HalfInt(tm2p), HalfInt(tj), HalfInt(tm),
                                    ).value
                                )
                        want = 1.0 if (tm1, tm2) == (tm1p, tm2p) else 0.0
                        assert abs(acc - want) <= 1e-12


# --- Wigner 3-j -------------------------------------------------------------


def test_3j_closed_form_paired_with_zero():
    # (j j 0; m -m 0) = (-1)^(j-m)/sqrt(2j+1)
    for tj in range(0, 9):
        for tm in range(-tj, tj + 1, 2):
            got = wigner_3j(HalfInt(tj), HalfInt(tj), 0, HalfInt(tm), HalfInt(-tm), 0)
            want = (-1.0) ** ((tj - tm) // 2) / math.sqrt(tj + 1.0)
            assert abs(got.value - want) < 1e-15
            assert abs(got.value - oracle_3j(tj, tj, 0, tm, -tm, 0)) < 1e-15
    assert abs(wigner_3j(1, 1, 0, 0, 0, 0).value + 1.0 / math.sqrt(3.0)) < 1e-15


def test_3j_stretched_case_matches_oracle():
    got = wigner_3j(1, 1, 2, 1, 1, -2).value
    assert abs(got - oracle_3j(2, 2, 4, 2, 2, -4)) < 1e-15


def test_3j_magnetic_selection_rule():
    value = wigner_3j(1, 1, 1, 1, 1, 1)
    assert value.value == 0.0 and value.sign == 0


def test_3j_full_grid_matches_oracle():
    for tj1, tm1, tj2, tm2, tj, tm in iter_cg_grid():
        mine = wigner_3j(
            HalfInt(tj1), HalfInt(tj2), HalfInt(tj), HalfInt(tm1), HalfInt(tm2), HalfInt(-tm)
        ).value
        assert abs(mine - oracle_3j(tj1, tj2, tj, tm1, tm2, -tm)) <= 1e-12


def test_3j_cg_bridge_identity():
    for tj1, tm1, tj2, tm2, tj, tm in iter_cg_grid():
        cg = clebsch_gordan(
            HalfInt(tj1), HalfInt(tm1), HalfInt(tj2), HalfInt(tm2), HalfInt(tj), HalfInt(tm)
        ).value
        w3 = wigner_3j(
            HalfInt(tj1), HalfInt(tj2), HalfInt(tj), HalfInt(tm1), HalfInt(tm2), HalfInt(-tm)
        ).value
        phase = (-1.0) ** ((tj1 - tj2 + tm) // 2)
        assert abs(cg - phase * math.sqrt(tj + 1.0) * w3) <= 1e-14


# --- Wigner 6-j -------------------------------------------------------------


def test_6j_closed_form_with_zero():
    # {a b 0; c d e} = delta_ab delta_cd (-1)^(a+c+e)/sqrt((2a+1)(2c+1))
    got = wigner_6j(1, 1, 0, 1, 1, 1)
    assert abs(got.value + 1.0 / 3.0) < 1e-15
    assert got.radicand == Fraction(1, 9) and got.sign == -1
    got = wigner_6j("1/2", "1/2", 0, "3/2", "3/2", 2)
    want = (-1.0) ** ((1 + 3 + 4) // 2) / math.sqrt(2.0 * 4.0)
    assert abs(got.value - want) < 1e-15


def test_6j_half_integer_case_matches_oracle():
    got = wigner_6j("1/2", "1/2", 1, "1/2", "1/2", 1).value
    assert abs(got - oracle_6j(1, 1, 2, 1, 1, 2)) < 1e-14


def test_6j_triangle_violation_is_zero():
    value = wigner_6j(2, 2, 2, 2, 2, 5)
    assert value.value == 0.0 and value.sign == 0


def test_6j_full_grid_matches_oracle():
    for tjs in iter_6j_grid():
        mine = wigner_6j(*(HalfInt(t) for t in tjs)).value
        assert abs(mine - oracle_6j(*tjs)) <= 1e-12


def _symmetry_images(tjs):
    tj1, tj2, tj3, tj4, tj5, tj6 = tjs
    columns = ((tj1, tj4), (tj2, tj5), (tj3, tj6))
    images = []
    import itertools

    for perm in itertools.permutations(columns):
        for flips in range(8):
            cols = []
            flipped = 0
            for idx, col in enumerate(perm):
                if flips & (1 << idx):
                    cols.append((col[1], col[0]))
                    flipped += 1
                else:
                    cols.append(col)
            if flipped % 2 == 0:  # upper/lower swaps act on pairs of columns
                images.append(
                    (cols[0][0], cols[1][0], cols[2][0], cols[0][1], cols[1][1], cols[2][1])
                )
    return set(images)


def test_6j_symmetry_group():
    # All 24 classical images (column permutations and pairwise row swaps)
    # share the same exact form; grid kept to doubled-j <= 5 for runtime.
    for tjs in iter_6j_grid(max_tj=5):
        reference = wigner_6j(*(HalfInt(t) for t in tjs))
        images = _symmetry_images(tjs)
        assert len(images) in (1, 2, 3, 4, 6, 8, 12, 24)
        for image in images:
            got = wigner_6j(*(HalfInt(t) for t in image))
            assert got.sign == reference.sign
            assert got.radicand == reference.radicand


# --- exact forms ------------------------------------------------------------


def test_exact_form_matches_float():
    for tj1, tm1, tj2, tm2, tj, tm in iter_cg_grid(max_tj=6):
        value = clebsch_gordan(
            HalfInt(tj1), HalfInt(tm1), HalfInt(tj2), HalfInt(tm2), HalfInt(tj), HalfInt(tm)
        )
        reference = value.sign * math.sqrt(float(value.radicand))
        assert abs(value.value - reference) <= 1e-15 * max(1.0, abs(value.value))


def test_exact_form_radicand_is_reduced():
    value = clebsch_gordan("1/2", "1/2", "1/2", "-1/2", 1, 0)
    assert value.radicand == Fraction(1, 2)
    assert value.sign == 1


def test_exact_forms_match_fraction_oracle():
    # the integer Racah sums against the same series summed term by term in
    # Fractions: equal reduced forms, so equal bits everywhere downstream.
    # With the class caches cleared, the first symbol of each symmetry class
    # is summed and every later image is a sign-fixed cache hit.
    # The CG core is the 3-j oracle times 2J+1 with the bridge phase.
    angular_momentum._racah_3j.cache_clear()
    angular_momentum._racah_6j.cache_clear()
    for tj1, tm1, tj2, tm2, tj, tm in iter_cg_grid():
        args = (tj1, tj2, tj, tm1, tm2, -tm)
        sign, p, q = angular_momentum._wigner_3j_exact(*args)
        assert (sign, Fraction(p, q)) == oracle_3j_exact(*args)
        assert math.gcd(p, q) == 1
        sign_3j, radicand_3j = oracle_3j_exact(*args)
        phase = -1 if ((tj1 - tj2 + tm) // 2) % 2 else 1
        sign, p, q = angular_momentum._clebsch_gordan_exact(tj1, tm1, tj2, tm2, tj, tm)
        assert (sign, Fraction(p, q)) == (phase * sign_3j, radicand_3j * (tj + 1))
        assert math.gcd(p, q) == 1
    for tjs in iter_6j_grid():
        sign, p, q = angular_momentum._wigner_6j_exact(*tjs)
        assert (sign, Fraction(p, q)) == oracle_6j_exact(*tjs)
        assert math.gcd(p, q) == 1
