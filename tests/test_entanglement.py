"""Schmidt decomposition, entropy, concurrence, and factorization detection."""

import math
import re

import numpy as np
import pytest

from conftest import (
    hand_state,
    kernel_branch,
    random_condensate,
    random_direction,
    random_pump,
)
from oracles import oracle_entropy_bits, oracle_schmidt_sq
from raman_pairs.entanglement_analysis import (
    _UNDEFINED_OVERLAP,
    _schmidt_coefficients,
    branch_overlap,
    concurrence_2x2,
    concurrence_after_filter,
    entanglement_entropy,
    schmidt,
)
from raman_pairs.errors import InputDomainError, PhysicsError
from raman_pairs.pair_state import (
    CondensateSpinor,
    PumpConfig,
    build_pair_state,
    spectral_filter,
)

Z = np.array([0.0, 0.0, 1.0])


def factorized(state, tol: float = 1e-10) -> bool:
    """A product state within ``tol``: no second Schmidt coefficient reaches it."""
    coeffs = schmidt(state).coefficients
    return len(coeffs) < 2 or coeffs[1] < tol


def binary_entropy(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


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
    assert factorized(state)
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


# --- closed-form Schmidt blocks ----------------------------------------------------


def _sigma_plus_state(spec, pump, k):
    # sigma+ pump on |2,2>: the F=2 block has rank one in every direction
    from raman_pairs.atomic_model import spherical_component

    pump_sigma = PumpConfig(
        direction=Z.copy(),
        polarization=spherical_component(+1).copy(),
        omega_laser=pump.omega_laser,
    )
    return build_pair_state(spec, pump_sigma, CondensateSpinor.single(2, 2), k)


def _assert_schmidt_exact(result, matrix, tol=1e-15):
    assert np.abs(result.reconstruction() - matrix).max() <= tol
    for vecs in (result.photon_basis, result.atom_basis):
        gram = np.array([[np.vdot(vi, vj) for vj in vecs] for vi in vecs])
        assert np.abs(gram - np.eye(len(vecs))).max() <= tol


def test_schmidt_degenerate_block(state_z):
    # the filtered Bell state is one block with a = b and c = 0 exactly: any
    # basis diagonalizes the Gram matrix, and the closed form needs the unit
    # basis there (big - b and c* are both zero)
    filtered = spectral_filter(state_z, 1)
    matrix, _, _ = filtered.matrix()
    gram = matrix @ matrix.conj().T
    assert gram[0, 0] == gram[1, 1] and gram[0, 1] == 0.0
    result = schmidt(filtered)
    assert result.coefficients == (pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15),) * 2
    _assert_schmidt_exact(result, matrix)
    assert sorted(tuple(abs(p)) for p in result.photon_basis) == [(0.0, 1.0), (1.0, 0.0)]


def test_schmidt_degenerate_spectrum_across_blocks(state_z):
    # two blocks, each with a degenerate pair: 0.375, 0.375, 0.125, 0.125
    result = schmidt(state_z)
    matrix, _, _ = state_z.matrix()
    np.testing.assert_allclose(
        np.square(result.coefficients), [0.375, 0.375, 0.125, 0.125], atol=1e-15
    )
    _assert_schmidt_exact(result, matrix)


def test_schmidt_exact_rank_one_block(spec, pump):
    # the Lagrange determinant is exactly 0 here, so the smaller Schmidt
    # coefficient is exactly 0 and dropped; ab - |c|^2 would leave ~1e-8
    theta, phi = math.radians(30.0), math.radians(60.0)
    k = np.array(
        [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
    )
    state = spectral_filter(_sigma_plus_state(spec, pump, k), 2)
    matrix, photon_labels, _ = state.matrix()
    assert len(photon_labels) == 2
    result = schmidt(state)
    assert result.coefficients == (pytest.approx(1.0, abs=1e-15),)
    _assert_schmidt_exact(result, matrix)
    assert factorized(state)


def test_schmidt_block_with_one_photon_row():
    # F=1 has only its lambda=2 row, F=2 both rows; columns per level differ.
    # Rows come in (lambda, level) order, whatever the frequencies.
    from raman_pairs.pair_state import Channel

    rng = np.random.default_rng(83)
    labels = (
        Channel(omega=2.0, lam=1, doubled_f=4),
        Channel(omega=3.0, lam=2, doubled_f=2),
        Channel(omega=2.0, lam=2, doubled_f=4),
    )
    atoms = ((2, -2), (2, 0), (4, -2), (4, 0), (4, 2), (4, 4))
    matrix = np.zeros((3, 6), dtype=complex)
    matrix[[0, 2], 2:] = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    matrix[1, :2] = rng.normal(size=2) + 1j * rng.normal(size=2)
    matrix /= np.linalg.norm(matrix)
    # levels (2F = 2, 4): sublevels (2,-2) (2,0) (2,2) then (4,-4) ... (4,4)
    amplitudes = np.zeros((2, 8), dtype=complex)
    amplitudes[:, 4:] = matrix[[0, 2], 2:]
    amplitudes[1, :2] = matrix[1, :2]
    state = hand_state((2, 4), (3.0, 2.0), amplitudes)
    got, photon_labels, atom_labels = state.matrix()
    np.testing.assert_array_equal(got, matrix)
    assert (photon_labels, atom_labels) == (labels, atoms)
    result = schmidt(state)
    np.testing.assert_allclose(
        np.square(result.coefficients), oracle_schmidt_sq(matrix), atol=1e-15
    )
    assert min(abs(c - np.linalg.norm(matrix[1])) for c in result.coefficients) <= 1e-15
    _assert_schmidt_exact(result, matrix)


@pytest.mark.parametrize("weights", [(0.36, 0.64), (0.64, 0.36)])
def test_schmidt_nearly_orthogonal_rows(weights):
    # |c| ~ 1e-9: big - b (a >= b) or big - a (a < b) is ~|c|^2, and taking it
    # from the other branch would cancel to rounding noise, which leaves
    # atom vectors ~1e-7 from orthogonal
    eps = 1e-9
    matrix = np.array(
        [
            [math.sqrt(weights[0]), eps * (1 + 2j), 0.0],
            [eps * (3 - 1j), 0.0, math.sqrt(weights[1]) * 1j],
        ]
    )
    state = hand_state((2,), (1.0,), matrix)
    np.testing.assert_array_equal(state.matrix()[0], matrix)
    result = schmidt(state)
    np.testing.assert_allclose(
        np.square(result.coefficients), oracle_schmidt_sq(matrix), atol=1e-15
    )
    _assert_schmidt_exact(result, matrix)


def test_schmidt_orthonormal_bases_on_random_states(spec):
    rng = np.random.default_rng(89)
    for _ in range(100):
        rpump = random_pump(spec, rng)
        phi0 = random_condensate(spec, rng)
        state = build_pair_state(spec, rpump, phi0, random_direction(rng))
        for candidate in (state, spectral_filter(state, 1), spectral_filter(state, 2)):
            matrix, _, _ = candidate.matrix()
            result = schmidt(candidate)
            np.testing.assert_allclose(
                np.square(result.coefficients), oracle_schmidt_sq(matrix), atol=1e-15
            )
            _assert_schmidt_exact(result, matrix, tol=1e-14)


def test_schmidt_coefficients_without_bases_match_schmidt(spec, pump, state_z):
    # the closed-form spectrum that the CLI writes equals the coefficients of
    # the full decomposition bit for bit: random, product, rank-deficient,
    # degenerate and filtered states, and hand-made blocks
    rng = np.random.default_rng(97)
    states = [state_z, spectral_filter(state_z, 1), spectral_filter(state_z, 2)]
    for _ in range(40):
        state = build_pair_state(
            spec, random_pump(spec, rng), random_condensate(spec, rng), random_direction(rng)
        )
        states += [state, spectral_filter(state, 1), spectral_filter(state, 2)]
    for k in (Z, np.array([0.6, 0.0, 0.8]), random_direction(rng)):
        product = _sigma_plus_state(spec, pump, k)
        states += [product, spectral_filter(product, 2)]
    eps = 1e-9
    rank_one = np.array([[0.6, 0.0, 0.0], [0.8, 0.0, 0.0]])
    tiny = np.array([[math.sqrt(0.36), eps * (1 + 2j), 0.0], [eps * (3 - 1j), 0.0, 0.8j]])
    states += [hand_state((2,), (1.0,), m) for m in (rank_one, tiny)]
    for state in states:
        assert _schmidt_coefficients(state) == schmidt(state).coefficients
    assert len(_schmidt_coefficients(hand_state((2,), (1.0,), rank_one))) == 1


def test_schmidt_rejects_inputs_outside_the_block_structure():
    # a state is its (2, G) block layout, so what it cannot hold is refused
    # when it is built: three photon rows for one level, non-finite or zero
    # amplitudes
    row = np.array([0.6, 0.0, 0.8])
    with pytest.raises(InputDomainError):
        hand_state((2,), (1.0,), np.stack([row, row, row]) / math.sqrt(3.0))
    with pytest.raises(InputDomainError):
        hand_state((2,), (1.0,), np.full((2, 3), np.nan))
    with pytest.raises(InputDomainError):
        hand_state((2,), (1.0,), np.zeros((2, 3)))


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


def test_measures_reuse_the_states_grams(spec, pump, phi0, monkeypatch):
    # the block Grams are computed once per state, read-only; the channel
    # probabilities and the filtered concurrence read them and sum nothing
    from raman_pairs import pair_state

    calls = []
    real = pair_state.block_grams
    monkeypatch.setattr(pair_state, "block_grams", lambda *a: calls.append(1) or real(*a))
    state = build_pair_state(spec, pump, phi0, Z)
    entanglement_entropy(state)
    assert len(calls) == 1
    state.channel_probabilities()
    concurrence_after_filter(state, 1)
    assert len(calls) == 1
    assert not state.grams.weights.flags.writeable


def test_concurrence_requires_2x2(state_z):
    with pytest.raises(InputDomainError):
        concurrence_2x2(state_z)  # 4 photon labels


def test_entropy_concurrence_identity_random_2x2():
    # for pure 2x2 states: H = h((1 + sqrt(1 - C^2)) / 2)
    rng = np.random.default_rng(61)
    for _ in range(1000):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m /= np.linalg.norm(m)
        amplitudes = np.zeros((2, 3), dtype=complex)
        amplitudes[:, [0, 2]] = m  # atoms (2, -2) and (2, 2)
        result = schmidt(hand_state((2,), (1.0,), amplitudes))
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
    photon = np.array([0.6, 0.8])
    atom = np.array([1.0, 0.0, 1.0j]) / math.sqrt(2.0)  # atoms (2, -2) and (2, 2)
    result = schmidt(hand_state((2,), (1.0,), np.outer(photon, atom)))
    assert len(result.coefficients) == 1


def test_zero_branch_factorizes(spec, pump):
    # sigma+ pump on |2,2>: the sigma- branch at z is an all-zero row and
    # the surviving branch is pure Rayleigh on one channel, so the state is
    # a product
    from raman_pairs.atomic_model import spherical_component

    phi0 = CondensateSpinor.single(2, 2)
    pump_sigma = PumpConfig(
        direction=Z.copy(),
        polarization=spherical_component(+1).copy(),
        omega_laser=pump.omega_laser,
    )
    assert kernel_branch(spec, pump_sigma, phi0, Z, 2) == ({}, 0.0)
    state = build_pair_state(spec, pump_sigma, phi0, Z)
    assert factorized(state)


def test_eq21_state_not_factorized(state_z):
    assert not factorized(state_z)


def test_factorized_iff_low_entropy(spec):
    rng = np.random.default_rng(67)
    tol = 1e-10
    for _ in range(50):
        pump = random_pump(spec, rng)
        phi0 = random_condensate(spec, rng)
        state = build_pair_state(spec, pump, phi0, random_direction(rng))
        coeffs = schmidt(state).coefficients
        second = coeffs[1] if len(coeffs) > 1 else 0.0
        if factorized(state, tol=tol):
            assert entanglement_entropy(state) < 1e-8
        else:
            assert second >= tol


# --- conditional overlap ----------------------------------------------------------


def test_overlap_on_axis_is_zero(spec, pump, phi0):
    state = build_pair_state(spec, pump, phi0, Z)
    assert branch_overlap(state) == pytest.approx(0.0, abs=1e-12)


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
    value = branch_overlap(build_pair_state(spec, pump_sigma, phi0, diagonal))
    assert value == pytest.approx(1.0, abs=1e-12)


def test_overlap_cauchy_schwarz(spec):
    rng = np.random.default_rng(71)
    for _ in range(50):
        pump = random_pump(spec, rng)
        phi0 = random_condensate(spec, rng)
        try:
            value = branch_overlap(build_pair_state(spec, pump, phi0, random_direction(rng)))
        except PhysicsError as exc:
            if str(exc) != _UNDEFINED_OVERLAP:
                raise
            continue
        assert -1e-12 <= value <= 1.0 + 1e-12


def test_branch_overlap_matches_oracle_branches(spec):
    # the closed form on the state's F blocks against |<b1|b2>| / (|b1| |b2|)
    # of the two branches the direct-summation oracle builds
    from test_end_to_end_oracle import oracle_branches

    rng = np.random.default_rng(73)
    for _ in range(30):
        rpump = random_pump(spec, rng)
        phi0 = random_condensate(spec, rng)
        k = random_direction(rng)
        state = build_pair_state(spec, rpump, phi0, k)
        b1, b2 = oracle_branches(spec, rpump, phi0, k)
        inner = sum(amp.conjugate() * b2.get(key, 0.0) for key, amp in b1.items())
        n1, n2 = (math.sqrt(sum(abs(v) ** 2 for v in b.values())) for b in (b1, b2))
        assert branch_overlap(state) == pytest.approx(abs(inner) / (n1 * n2), abs=1e-12)


def test_overlap_undefined_for_zero_branch(spec, pump):
    phi0 = CondensateSpinor.single(2, 2)
    with pytest.raises(PhysicsError, match=f"^{re.escape(_UNDEFINED_OVERLAP)}$"):
        branch_overlap(build_pair_state(spec, pump, phi0, Z))
