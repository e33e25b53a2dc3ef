"""Schmidt decomposition, entropy, concurrence, and factorization detection."""

import math

import numpy as np
import pytest

from conftest import random_condensate, random_direction, random_pump
from oracles import oracle_entropy_bits, oracle_schmidt_sq
from raman_pairs.entanglement_analysis import (
    branch_overlap,
    concurrence_2x2,
    concurrence_after_filter,
    conditional_overlap,
    deterministic_svd,
    entanglement_entropy,
    is_factorized,
    schmidt,
    schmidt_of_matrix,
)
from raman_pairs.errors import InputDomainError, UndefinedOverlapError
from raman_pairs.pair_state import (
    CondensateSpinor,
    PumpConfig,
    build_pair_state,
    spectral_filter,
)

Z = np.array([0.0, 0.0, 1.0])


def binary_entropy(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


# --- in-repo SVD -----------------------------------------------------------------


def test_jacobi_svd_against_lapack():
    rng = np.random.default_rng(41)
    for _ in range(200):
        m, n = rng.integers(1, 9, size=2)
        a = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        u, s, vh = deterministic_svd(a)
        np.testing.assert_allclose((u * s) @ vh, a, atol=1e-12)
        ref = np.linalg.svd(a, compute_uv=False)
        np.testing.assert_allclose(np.sort(s)[::-1], ref[: len(s)], atol=1e-12)
        np.testing.assert_allclose(
            u.conj().T @ u, np.eye(len(s)), atol=1e-12
        )
        np.testing.assert_allclose(vh @ vh.conj().T, np.eye(len(s)), atol=1e-12)


def test_jacobi_svd_deterministic():
    rng = np.random.default_rng(43)
    a = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
    u1, s1, v1 = deterministic_svd(a)
    u2, s2, v2 = deterministic_svd(a.copy())
    np.testing.assert_array_equal(s1, s2)
    np.testing.assert_array_equal(u1, u2)
    np.testing.assert_array_equal(v1, v2)


def test_jacobi_svd_drops_rank_deficiency():
    col = np.array([[1.0], [2.0], [2.0]]) / 3.0
    a = col @ np.array([[0.6, 0.8]])
    u, s, vh = deterministic_svd(a)
    assert len(s) == 1
    assert s[0] == pytest.approx(1.0, abs=1e-15)


def _random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_jacobi_svd_degenerate_spectra():
    # repeated singular values (including a fully degenerate unitary input)
    rng = np.random.default_rng(43)
    for spectrum in ([1.0] * 6, [1.0, 1.0, 0.5, 0.5], [2.0, 2.0, 2.0, 1e-3]):
        n = len(spectrum)
        a = _random_unitary(rng, n) @ np.diag(spectrum) @ _random_unitary(rng, n)
        u, s, vh = deterministic_svd(a)
        np.testing.assert_allclose(np.sort(s)[::-1], np.sort(spectrum)[::-1], atol=1e-12)
        np.testing.assert_allclose((u * s) @ vh, a, atol=1e-12)


def test_jacobi_svd_extreme_aspect_ratios():
    rng = np.random.default_rng(45)
    for shape in ((1, 8), (8, 1), (2, 7), (7, 2)):
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        u, s, vh = deterministic_svd(a)
        np.testing.assert_allclose((u * s) @ vh, a, atol=1e-12)
        np.testing.assert_allclose(
            np.sort(s)[::-1], np.linalg.svd(a, compute_uv=False)[: len(s)], atol=1e-12
        )


# --- schmidt on pair states -------------------------------------------------------


def test_product_state_single_coefficient(spec, pump):
    phi0 = CondensateSpinor.single(2, 2)
    from raman_pairs.atomic_model import spherical_component

    pump_sigma = PumpConfig(
        direction=Z.copy(),
        polarization=spherical_component(+1).copy(),
        omega_laser=pump.omega_laser,
    )
    state = build_pair_state(spec, pump_sigma, phi0, Z)
    result = schmidt(state)
    assert result.coefficients == (pytest.approx(1.0, abs=1e-12),)
    assert is_factorized(state)
    assert entanglement_entropy(state) == pytest.approx(0.0, abs=1e-10)


def test_bell_state_coefficients(state_z):
    filtered = spectral_filter(state_z, 1)
    result = schmidt(filtered)
    assert len(result.coefficients) == 2
    for c in result.coefficients:
        assert c == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)


def test_full_state_spectrum_matches_svd_oracle(state_z):
    result = schmidt(state_z)
    mine = np.array([c * c for c in result.coefficients])
    matrix, _, _ = state_z.matrix()
    np.testing.assert_allclose(mine, oracle_schmidt_sq(matrix), atol=1e-12)
    np.testing.assert_allclose(mine, [0.375, 0.375, 0.125, 0.125], atol=1e-12)


def test_schmidt_reconstruction(spec):
    rng = np.random.default_rng(47)
    for _ in range(25):
        pump = random_pump(spec, rng)
        phi0 = random_condensate(spec, rng)
        state = build_pair_state(spec, pump, phi0, random_direction(rng))
        result = schmidt(state)
        matrix, _, _ = state.matrix()
        assert np.abs(result.reconstruction() - matrix).max() < 1e-10
        # orthonormal bases
        for vecs in (result.photon_basis, result.atom_basis):
            for i, vi in enumerate(vecs):
                for j, vj in enumerate(vecs):
                    want = 1.0 if i == j else 0.0
                    assert abs(np.vdot(vi, vj) - want) < 1e-12


def test_entropy_values(state_z):
    assert entanglement_entropy(state_z) == pytest.approx(
        3.0 - 0.75 * math.log2(3.0), abs=1e-12
    )
    filtered = spectral_filter(state_z, 1)
    assert entanglement_entropy(filtered) == pytest.approx(1.0, abs=1e-9)


def test_entropy_matches_oracle_on_random_states(spec):
    rng = np.random.default_rng(53)
    for _ in range(25):
        pump = random_pump(spec, rng)
        phi0 = random_condensate(spec, rng)
        state = build_pair_state(spec, pump, phi0, random_direction(rng))
        matrix, _, _ = state.matrix()
        assert entanglement_entropy(state) == pytest.approx(
            oracle_entropy_bits(matrix), abs=1e-10
        )


def test_entropy_bounds(spec):
    rng = np.random.default_rng(59)
    for _ in range(50):
        pump = random_pump(spec, rng)
        phi0 = random_condensate(spec, rng)
        state = build_pair_state(spec, pump, phi0, random_direction(rng))
        entropy = entanglement_entropy(state)
        bound = math.log2(min(len(state.photon_labels()), len(state.atom_labels())))
        assert -1e-12 <= entropy <= bound + 1e-12


# --- concurrence ------------------------------------------------------------------


def test_concurrence_bell_is_one(state_z):
    assert concurrence_2x2(spectral_filter(state_z, 1)) == pytest.approx(1.0, abs=1e-9)
    assert concurrence_2x2(spectral_filter(state_z, 2)) == pytest.approx(1.0, abs=1e-9)


def test_concurrence_product_is_zero(spec, pump):
    from raman_pairs.atomic_model import spherical_component

    phi0 = CondensateSpinor.single(2, 2)
    pump_sigma = PumpConfig(
        direction=Z.copy(),
        polarization=spherical_component(+1).copy(),
        omega_laser=pump.omega_laser,
    )
    state = build_pair_state(spec, pump_sigma, phi0, Z)
    assert concurrence_after_filter(state, 2) == pytest.approx(0.0, abs=1e-12)


def test_filtered_product_state_concurrence_exactly_zero(spec, pump):
    # sigma+ pump on |2,2>: the F=2 block has rank one in every direction, and
    # the Lagrange-identity determinant vanishes exactly there (ab - |c|^2
    # would leave ~1e-16 behind, i.e. a concurrence of ~1e-8)
    from raman_pairs.atomic_model import spherical_component

    phi0 = CondensateSpinor.single(2, 2)
    pump_sigma = PumpConfig(
        direction=Z.copy(),
        polarization=spherical_component(+1).copy(),
        omega_laser=pump.omega_laser,
    )
    theta, phi = math.radians(30.0), math.radians(60.0)
    k = np.array(
        [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
    )
    state = build_pair_state(spec, pump_sigma, phi0, k)
    assert concurrence_after_filter(state, 2) == 0.0


def test_concurrence_requires_2x2(state_z):
    with pytest.raises(InputDomainError):
        concurrence_2x2(state_z)  # 4 photon labels


def test_entropy_concurrence_identity_random_2x2():
    # for pure 2x2 states: H = h((1 + sqrt(1 - C^2)) / 2)
    rng = np.random.default_rng(61)
    from raman_pairs.pair_state import Channel

    labels = (Channel(omega=1.0, lam=1, doubled_f=2), Channel(omega=1.0, lam=2, doubled_f=2))
    atoms = ((2, -2), (2, 2))
    for _ in range(1000):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m /= np.linalg.norm(m)
        result = schmidt_of_matrix(m, labels, atoms)
        coeffs = list(result.coefficients) + [0.0]
        c = 2.0 * abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
        entropy = -sum(x * x * math.log2(x * x) for x in coeffs if x > 0)
        want = binary_entropy((1.0 + math.sqrt(max(0.0, 1.0 - c * c))) / 2.0)
        assert entropy == pytest.approx(want, abs=1e-10)


# --- factorization ----------------------------------------------------------------


def test_identical_branches_factorize(spec):
    # a condensate driven so both branches produce the same spinor:
    # detection along the pump axis with circular pump gives branches that
    # differ; instead verify via an explicitly rank-1 matrix
    from raman_pairs.pair_state import Channel

    labels = (Channel(omega=1.0, lam=1, doubled_f=2), Channel(omega=1.0, lam=2, doubled_f=2))
    atoms = ((2, -2), (2, 2))
    photon = np.array([0.6, 0.8])
    atom = np.array([1.0, 1.0j]) / math.sqrt(2.0)
    matrix = np.outer(photon, atom)
    result = schmidt_of_matrix(matrix, labels, atoms)
    assert len(result.coefficients) == 1


def test_zero_branch_factorizes(spec, pump):
    # sigma+ pump on |2,2>: the sigma- branch at z is the empty sentinel and
    # the surviving branch is pure Rayleigh on one channel, so the state is
    # a product
    from raman_pairs.atomic_model import spherical_component
    from raman_pairs.pair_state import scattered_spinor

    phi0 = CondensateSpinor.single(2, 2)
    pump_sigma = PumpConfig(
        direction=Z.copy(),
        polarization=spherical_component(+1).copy(),
        omega_laser=pump.omega_laser,
    )
    assert scattered_spinor(spec, pump_sigma, phi0, Z, 2).is_empty
    state = build_pair_state(spec, pump_sigma, phi0, Z)
    assert is_factorized(state)


def test_eq21_state_not_factorized(state_z):
    assert not is_factorized(state_z)


def test_factorized_iff_low_entropy(spec):
    rng = np.random.default_rng(67)
    tol = 1e-10
    for _ in range(50):
        pump = random_pump(spec, rng)
        phi0 = random_condensate(spec, rng)
        state = build_pair_state(spec, pump, phi0, random_direction(rng))
        coeffs = schmidt(state).coefficients
        second = coeffs[1] if len(coeffs) > 1 else 0.0
        if is_factorized(state, tol=tol):
            assert entanglement_entropy(state) < 1e-8
        else:
            assert second >= tol


# --- conditional overlap ----------------------------------------------------------


def test_overlap_on_axis_is_zero(spec, pump, phi0):
    assert conditional_overlap(spec, pump, phi0, Z) == pytest.approx(0.0, abs=1e-12)


def test_overlap_single_ray_is_one(spec, pump):
    # sigma+ pump on |2,2> reaches only the stretched excited state, and the
    # only open emission channel returns to |2,2>: both branch spinors are the
    # same ray for any detection direction where neither vanishes
    from raman_pairs.atomic_model import spherical_component

    phi0 = CondensateSpinor.single(2, 2)
    pump_sigma = PumpConfig(
        direction=Z.copy(),
        polarization=spherical_component(+1).copy(),
        omega_laser=pump.omega_laser,
    )
    diagonal = np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)
    value = conditional_overlap(spec, pump_sigma, phi0, diagonal)
    assert value == pytest.approx(1.0, abs=1e-12)


def test_overlap_cauchy_schwarz(spec):
    rng = np.random.default_rng(71)
    for _ in range(50):
        pump = random_pump(spec, rng)
        phi0 = random_condensate(spec, rng)
        try:
            value = conditional_overlap(spec, pump, phi0, random_direction(rng))
        except UndefinedOverlapError:
            continue
        assert -1e-12 <= value <= 1.0 + 1e-12


def test_branch_overlap_of_state_equals_conditional_overlap(spec, pump):
    rng = np.random.default_rng(73)
    for _ in range(30):
        rpump = random_pump(spec, rng)
        phi0 = random_condensate(spec, rng)
        k = random_direction(rng)
        state = build_pair_state(spec, rpump, phi0, k)
        assert branch_overlap(state) == conditional_overlap(spec, rpump, phi0, k)
    state = build_pair_state(spec, pump, CondensateSpinor.single(2, 2), Z)
    with pytest.raises(UndefinedOverlapError):
        branch_overlap(state)


def test_overlap_undefined_for_zero_branch(spec, pump):
    phi0 = CondensateSpinor.single(2, 2)
    with pytest.raises(UndefinedOverlapError):
        conditional_overlap(spec, pump, phi0, Z)
