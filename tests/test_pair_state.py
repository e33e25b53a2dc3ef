"""Pair-state assembly, frequency channels, filtering, and serialization."""

import decimal
import json
import math

import numpy as np
import pytest

from conftest import (
    assert_equal_up_to_global_phase,
    entries,
    hand_state,
    kernel_branch,
    random_condensate,
    random_direction,
    random_pump,
)
from raman_pairs.errors import InputDomainError, PhysicsError
from raman_pairs import pair_state
from raman_pairs.angular_momentum import halfint
from raman_pairs.pair_state import (
    CondensateSpinor,
    PumpConfig,
    build_pair_state,
    pair_batch,
    pair_state_to_json,
    sodium_condensate,
    spectral_filter,
)

TWO_PI = 2.0 * math.pi
Z = np.array([0.0, 0.0, 1.0])

# The SI-2019 exact c, and hbar = h / (2 pi) rounded once from 60 digits
SPEED_OF_LIGHT = 299792458.0
with decimal.localcontext() as _ctx:
    _ctx.prec = 60
    _PI = decimal.Decimal("3.14159265358979323846264338327950288419716939937510582097494")
    HBAR = float(decimal.Decimal("6.62607015e-34") / (2 * _PI))


def photon_omega(spec, pump, k, f):
    """The kernel's photon frequency of final level ``f`` for direction ``k``."""
    batch = pair_batch(spec, pump, sodium_condensate(), k[np.newaxis])
    return batch.omega[0, spec.ground_levels().index(halfint(f))]


# --- domain types -------------------------------------------------------------


def test_pump_invariants():
    with pytest.raises(InputDomainError):
        PumpConfig(direction=np.array([0.0, 2.0, 0.0]), polarization=np.array([0, 0, 1.0]),
                   omega_laser=1.0)
    with pytest.raises(InputDomainError):
        PumpConfig(direction=np.array([0.0, 1.0, 0.0]), polarization=np.array([0, 1.0, 0]),
                   omega_laser=1.0)
    with pytest.raises(InputDomainError):
        PumpConfig(direction=np.array([0.0, 1.0, 0.0]), polarization=np.array([0, 0, 1.0]),
                   omega_laser=1.0, atom_number=0.5)
    # a finite vector whose squared length overflows is rejected without a
    # RuntimeWarning, which the test configuration turns into an error
    with pytest.raises(InputDomainError, match="direction must be a unit vector"):
        PumpConfig(direction=np.array([1e300, 0.0, 0.0]), polarization=np.array([0, 0, 1.0]),
                   omega_laser=1.0)
    with pytest.raises(InputDomainError, match="polarization must be a unit vector"):
        PumpConfig(direction=np.array([0.0, 1.0, 0.0]), polarization=np.array([0, 0, 1e300j]),
                   omega_laser=1.0)
    # a pump of zero amplitude scatters nothing
    with pytest.raises(InputDomainError, match="amplitude"):
        PumpConfig(direction=np.array([0.0, 1.0, 0.0]), polarization=np.array([0, 0, 1.0]),
                   omega_laser=1.0, pump_amplitude=0.0)
    # one whose |amplitude|^2 underflows is left to the emission weight's verdicts
    for amplitude in (1e-200 + 0j, -1e-170j):
        PumpConfig(direction=np.array([0.0, 1.0, 0.0]), polarization=np.array([0, 0, 1.0]),
                   omega_laser=1.0, pump_amplitude=amplitude)


def test_condensate_must_be_normalized():
    with pytest.raises(InputDomainError):
        CondensateSpinor((((2, 0), 0.5 + 0.0j),))


def test_condensate_rejects_alien_sublevels(spec):
    spinor = CondensateSpinor.single(3, 0)
    with pytest.raises(InputDomainError):
        spinor.vector(spec)


def test_constants_are_the_exact_si_values():
    # c exactly, and hbar the float nearest h / (2 pi)
    assert pair_state.SPEED_OF_LIGHT == SPEED_OF_LIGHT
    assert pair_state.HBAR == HBAR


def test_pair_state_rejects_channel_level_mismatch(state_z):
    # the (2, G) layout gives every sublevel the channel of its own level, so
    # amplitudes must cover exactly the sublevels of the levels
    with pytest.raises(InputDomainError, match="levels"):
        state_z.replace(amplitudes=state_z.amplitudes[:, :3])
    with pytest.raises(InputDomainError, match="levels"):
        state_z.replace(levels=(4, 2))


def _with_nan_amplitude(state):
    amplitudes = state.amplitudes.copy()
    amplitudes[0, np.flatnonzero(amplitudes[0])[0]] = complex(math.nan, 0.0)
    return state.replace(amplitudes=amplitudes)


NAN_CONSTRUCTIONS = {
    "PairState.amplitudes": _with_nan_amplitude,
    "PairState.emission_weight": lambda state: state.replace(emission_weight=math.nan),
    "CondensateSpinor.amplitudes": lambda _: CondensateSpinor((((2, 0), complex(math.nan)),)),
    "PumpConfig.omega_laser": lambda _: PumpConfig(
        direction=Z, polarization=np.array([1.0, 0, 0]), omega_laser=math.nan
    ),
    "PumpConfig.atom_number": lambda _: PumpConfig(
        direction=Z, polarization=np.array([1.0, 0, 0]), omega_laser=1.0, atom_number=math.nan
    ),
    "PumpConfig.direction": lambda _: PumpConfig(
        direction=np.array([0.0, 0.0, math.nan]), polarization=np.array([1.0, 0, 0]),
        omega_laser=1.0,
    ),
}


@pytest.mark.parametrize("construct", NAN_CONSTRUCTIONS.values(), ids=NAN_CONSTRUCTIONS.keys())
def test_constructors_reject_nan(construct, state_z):
    # each guard must fail on NaN, which no comparison satisfies
    with pytest.raises(InputDomainError):
        construct(state_z)


def test_condensate_rejects_huge_amplitude():
    # a finite amplitude whose square overflows violates the norm like any other
    for amp in (1e200 + 0j, complex(1e308, 1e308)):
        with pytest.raises(InputDomainError, match="unit norm"):
            CondensateSpinor((((2, 0), amp),))


def test_photon_frequency_rejects_nan_direction(spec, pump):
    # a NaN direction is an input error, not "the recoil leaves the optical regime"
    with pytest.raises(InputDomainError, match="unit vector"):
        photon_omega(spec, pump, np.array([math.nan, 0.0, 0.0]), 1)


def test_pair_state_rejects_bad_vectors_and_weight(state_z):
    with pytest.raises(InputDomainError, match="detection_direction must be a 3-vector"):
        state_z.replace(detection_direction=np.array([1.0, 2.0]))
    for weight in (-1.0, 1.0 + 0.0j, "7"):
        with pytest.raises(InputDomainError, match="emission weight"):
            state_z.replace(emission_weight=weight)


# --- batched kernel ---------------------------------------------------------------


def test_batch_rows_equal_single_direction_batches(spec):
    # a direction gets the same bits alone or anywhere in a batch
    rng = np.random.default_rng(29)
    pump = random_pump(spec, rng)
    phi0 = random_condensate(spec, rng)
    directions = np.array([random_direction(rng) for _ in range(9)] + [Z, -Z])
    batch = pair_batch(spec, pump, phi0, directions)
    for n, k in enumerate(directions):
        one = pair_batch(spec, pump, phi0, k[np.newaxis])
        for field in ("amplitudes", "norms", "phases", "weights", "omega"):
            np.testing.assert_array_equal(getattr(one, field)[0], getattr(batch, field)[n])


def test_batch_matches_branch_oracle(spec):
    # the shared-factor contraction reproduces G phi0 for both branches, as
    # the direct-summation oracle builds it from uncoupling-expansion dipoles
    from conftest import sublevels
    from test_end_to_end_oracle import oracle_branches

    rng = np.random.default_rng(31)
    pump = random_pump(spec, rng)
    phi0 = random_condensate(spec, rng)
    k = random_direction(rng)
    batch = pair_batch(spec, pump, phi0, k[np.newaxis])
    rows = np.array(
        [
            [branch.get(g, 0.0) for g in sublevels(spec.ground_levels())]
            for branch in oracle_branches(spec, pump, phi0, k)
        ]
    )
    scattered = batch.norms[0] * batch.phases[0] * batch.amplitudes[0]
    np.testing.assert_allclose(scattered, rows, rtol=0.0, atol=1e-12 * np.abs(rows).max())


def test_batch_rejects_non_unit_directions(spec, pump, phi0):
    with pytest.raises(InputDomainError):
        pair_batch(spec, pump, phi0, np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]]))
    with pytest.raises(InputDomainError):
        pair_batch(spec, pump, phi0, np.array([0.0, 0.0, 1.0]))


# --- scattered spinor -----------------------------------------------------------


def test_sigma_plus_branch_amplitudes(spec, pump, phi0):
    amps, norm = kernel_branch(spec, pump, phi0, Z, 1)
    assert set(amps) == {(2, -2), (4, -2)}
    ratio = amps[(4, -2)] / amps[(2, -2)]
    assert ratio == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert_equal_up_to_global_phase(
        amps, {(2, -2): 0.5, (4, -2): math.sqrt(3.0) / 2.0}, tol=1e-12
    )
    assert norm > 0


def test_sigma_minus_branch_has_relative_minus(spec, pump, phi0):
    amps, _ = kernel_branch(spec, pump, phi0, Z, 2)
    assert set(amps) == {(2, 2), (4, 2)}
    ratio = amps[(4, 2)] / amps[(2, 2)]
    assert ratio == pytest.approx(-math.sqrt(3.0), abs=1e-12)


def test_stretched_state_rayleigh_only(spec, pump):
    # |2, 2> condensate, sigma+ pump, sigma+ detection along z: the only
    # allowed path is Rayleigh back to |2, 2>
    phi0 = CondensateSpinor.single(2, 2)
    from raman_pairs.atomic_model import spherical_component

    pump_sigma = PumpConfig(
        direction=np.array([0.0, 0.0, 1.0]),
        polarization=spherical_component(+1).copy(),
        omega_laser=pump.omega_laser,
        atom_number=pump.atom_number,
    )
    amps, norm = kernel_branch(spec, pump_sigma, phi0, Z, 1)
    assert norm > 0
    assert set(amps) == {(4, 4)}
    assert abs(abs(amps[(4, 4)]) - 1.0) < 1e-12


def test_branch_norms_equal_for_sodium_geometry(spec, pump, phi0):
    _, n1 = kernel_branch(spec, pump, phi0, Z, 1)
    _, n2 = kernel_branch(spec, pump, phi0, Z, 2)
    assert n1 == pytest.approx(n2, rel=1e-12)


def test_validity_enforcement(spec, phi0):
    resonant = PumpConfig(
        direction=np.array([0.0, 1.0, 0.0]),
        polarization=np.array([0.0, 0.0, 1.0]),
        omega_laser=spec.resonance - 10.0 * spec.linewidth,
    )
    with pytest.raises(PhysicsError, match="^far off-resonant condition"):
        pair_batch(spec, resonant, phi0, Z[np.newaxis])
    # threshold 0 lets the near-resonant pump through, but never an exact resonance
    assert pair_batch(spec, resonant, phi0, Z[np.newaxis], validity_threshold=0.0).norms[0] > 0
    exact = resonant.replace(omega_laser=spec.resonance)
    with pytest.raises(PhysicsError, match="^far off-resonant condition"):
        pair_batch(spec, exact, phi0, Z[np.newaxis], validity_threshold=0.0)


# --- photon frequency -----------------------------------------------------------


def test_infinite_mass_limit_no_recoil(spec, pump):
    from raman_pairs.atomic_model import AtomSpec

    heavy = AtomSpec(
        name="heavy",
        nuclear_spin=spec.nuclear_spin,
        ground_j=spec.ground_j,
        excited_j=spec.excited_j,
        ground_splittings=spec.ground_splittings,
        resonance=spec.resonance,
        linewidth=spec.linewidth,
        mass=1.0e30,
    )
    omega = photon_omega(heavy, pump, Z, 1)
    assert omega == pump.omega_laser


def _exact_recoil_frequency(spec, pump, k, base):
    """omega = base - hbar |K - k(omega)|^2 / (2M) solved in 80-digit decimals.

    Every input is the exact value of its float; ``base`` is the float
    omega_L - delta(F) the package starts from.
    """
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 80
        d = Decimal
        a = d(pair_state.HBAR) / (2 * d(spec.mass) * d(pair_state.SPEED_OF_LIGHT) ** 2)
        laser = d(pump.omega_laser)
        cos = sum(d(x) * d(y) for x, y in zip(k, pump.direction))
        # a w^2 + (1 - 2 a L cos) w + (a L^2 - base) = 0, the positive root
        lin = 1 - 2 * a * laser * cos
        const = a * laser * laser - d(base)
        omega = (-lin + (lin * lin - 4 * a * const).sqrt()) / (2 * a)
        return float(omega)


def test_recoil_root_is_correctly_rounded(spec):
    rng = np.random.default_rng(97)
    for _ in range(200):
        pump = random_pump(spec, rng)
        k = random_direction(rng)
        for f in (1, 2):
            base = pump.omega_laser - spec.splitting(f)
            want = _exact_recoil_frequency(spec, pump, k, base)
            assert photon_omega(spec, pump, k, f) == want


def test_recoil_root_of_a_light_species(spec):
    # at 1e-33 kg the recoil is ~0.4% of the photon energy, so every term
    # of the quadratic shows; the shift then carries rounding of ~1e-2 ulp
    # of omega, so the root is within one ulp of the exact one
    light = spec.replace(name="light", mass=1.0e-33)
    rng = np.random.default_rng(101)
    for _ in range(100):
        pump = random_pump(spec, rng)
        k = random_direction(rng)
        base = pump.omega_laser - spec.splitting(1)
        want = _exact_recoil_frequency(light, pump, k, base)
        got = photon_omega(light, pump, k, 1)
        assert abs(got - want) <= np.spacing(want)


def test_recoil_outside_optical_regime_raises(spec, pump):
    # a mass of 1e-40 kg makes the recoil comparable to the photon energy: at
    # 90 degrees the recoil quadratic has no real root, and in backscatter its
    # root is a negative frequency
    feather = spec.replace(name="feather", mass=1.0e-40)
    for k in (Z, -pump.direction):
        with pytest.raises(PhysicsError, match="optical regime"):
            photon_omega(feather, pump, k, 1)
        with pytest.raises(PhysicsError, match="optical regime"):
            build_pair_state(feather, pump, CondensateSpinor.single(1, 0), k)


def test_channel_splitting_matches_hyperfine(spec, pump):
    w1 = photon_omega(spec, pump, Z, 1)
    w2 = photon_omega(spec, pump, Z, 2)
    # equal to the ground splitting up to the (tiny) recoil difference
    assert w1 - w2 == pytest.approx(spec.splitting(2), rel=1e-9)


def test_perpendicular_recoil_shift_hand_value(spec, pump):
    # independent hand evaluation from the configured constants:
    # shift = hbar (K^2 + k^2) / 2m ~= 2 * hbar K^2 / 2m for k perpendicular K
    # the shift is a ~3e5 rad/s difference of two ~3e15 rad/s floats, so
    # cancellation limits the comparison to ~1e-6 relative
    omega = photon_omega(spec, pump, Z, 1)
    k_pump = pump.omega_laser / SPEED_OF_LIGHT
    single_recoil = HBAR * k_pump**2 / (2.0 * spec.mass)
    shift = pump.omega_laser - omega
    assert shift == pytest.approx(2.0 * single_recoil, rel=1e-5)
    assert single_recoil == pytest.approx(TWO_PI * 25.0e3, rel=0.01)


def test_frequency_monotone_in_splitting(spec, pump):
    w1 = photon_omega(spec, pump, Z, 1)
    w2 = photon_omega(spec, pump, Z, 2)
    assert spec.splitting(2) > spec.splitting(1)
    assert w2 < w1


# --- build_pair_state ------------------------------------------------------------


def test_reference_state_amplitudes(spec, state_z):
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


def test_channel_probabilities(state_z):
    probs = {}
    for ch, p in state_z.channel_probabilities():
        probs[ch.doubled_f] = probs.get(ch.doubled_f, 0.0) + p
    assert probs[2] == pytest.approx(0.25, abs=1e-12)
    assert probs[4] == pytest.approx(0.75, abs=1e-12)


def test_normalized_for_random_geometries(spec):
    rng = np.random.default_rng(23)
    for _ in range(100):
        pump = random_pump(spec, rng)
        phi0 = random_condensate(spec, rng)
        k = random_direction(rng)
        state = build_pair_state(spec, pump, phi0, k)
        total = sum(abs(a) ** 2 for a in entries(state).values())
        assert total == pytest.approx(1.0, abs=1e-12)


def test_global_phase_convention(spec, state_z):
    (first_key, first_amp), *_ = entries(state_z).items()
    assert first_amp.imag == 0.0
    assert first_amp.real > 0.0
    # channels come in (lambda, level) order: the first is F=1, lambda=1
    assert first_key[0].doubled_f == 2 and first_key[0].lam == 1
    # on random states, built and filtered, the first amplitude that the CSV
    # and the JSON's channel list publish is real positive
    rng = np.random.default_rng(47)
    for _ in range(20):
        pump = random_pump(spec, rng)
        state = build_pair_state(spec, pump, random_condensate(spec, rng), random_direction(rng))
        for published in (state, spectral_filter(state, 1), spectral_filter(state, 2)):
            rows = pair_state._pair_state_csv(published, {}).splitlines()[1:]
            _, lam, tf, _, re, im = rows[0].split(",")
            assert float(re) > 0.0 and float(im) == 0.0
            assert pair_state_to_json(published)["channels"][0]["key"] == f"{tf}:{lam}"


def test_branch_reconstruction(spec, pump, phi0):
    rng = np.random.default_rng(31)
    for _ in range(10):
        k = random_direction(rng)
        state = build_pair_state(spec, pump, phi0, k)
        for lam in (1, 2):
            branch, branch_norm = kernel_branch(spec, pump, phi0, k, lam)
            restricted = {
                atom: amp
                for (ch, atom), amp in entries(state).items()
                if ch.lam == lam
            }
            if branch_norm == 0.0:
                assert not restricted
                continue
            norm = math.sqrt(sum(abs(a) ** 2 for a in restricted.values()))
            restricted = {key: amp / norm for key, amp in restricted.items()}
            assert_equal_up_to_global_phase(restricted, branch, tol=1e-10)


def test_momentum_bookkeeping(spec, pump, phi0):
    rng = np.random.default_rng(37)
    pump_momentum = HBAR * pump.direction * (pump.omega_laser / SPEED_OF_LIGHT)
    for _ in range(10):
        k = random_direction(rng)
        state = build_pair_state(spec, pump, phi0, k)
        assert state.photon_wavevector.shape == state.recoil_momentum.shape == (2, 3)
        for i, f in enumerate(spec.ground_levels()):
            # each level's channel conserves momentum with its own photon
            balance = state.recoil_momentum[i] + HBAR * state.photon_wavevector[i] - pump_momentum
            assert np.linalg.norm(balance) <= 1e-15 * np.linalg.norm(pump_momentum)
            omega = photon_omega(spec, pump, k, f)
            assert np.linalg.norm(state.photon_wavevector[i]) == pytest.approx(
                omega / SPEED_OF_LIGHT, rel=1e-15, abs=0.0
            )
            np.testing.assert_allclose(
                state.photon_wavevector[i], k * omega / SPEED_OF_LIGHT, rtol=1e-15
            )
        # the levels' photons differ: sodium's channels lie 3.5e-6 apart
        ratio = np.linalg.norm(state.photon_wavevector[1]) / np.linalg.norm(state.photon_wavevector[0])
        assert ratio == pytest.approx(1.0 - 3.48e-6, abs=1e-8)


def test_every_state_conserves_momentum(spec, pump, phi0, state_z):
    # recoil + hbar k = hbar K and |k| = omega/c for each level's channel, for
    # built and filtered states and for the states that fixtures assemble by hand
    from test_bell_sim import synth_state

    rng = np.random.default_rng(43)
    built = [build_pair_state(spec, pump, phi0, random_direction(rng)) for _ in range(4)]
    states = [
        state_z, spectral_filter(state_z, 1), spectral_filter(built[0], 2), *built,
        hand_state((2,), (1.0e15,), np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])),
        synth_state(np.eye(2) / math.sqrt(2.0), pump),
    ]
    for state in states:
        pump_momentum = HBAR * state.pump.direction * (state.pump.omega_laser / SPEED_OF_LIGHT)
        assert len(state.recoil_momentum) == len(state.photon_wavevector) == len(state.levels)
        for recoil, k, omega in zip(state.recoil_momentum, state.photon_wavevector, state.omega):
            balance = recoil + HBAR * k - pump_momentum
            assert np.linalg.norm(balance) <= 1e-15 * np.linalg.norm(pump_momentum)
            assert np.linalg.norm(k) == pytest.approx(omega / SPEED_OF_LIGHT, rel=1e-15, abs=0.0)


def test_emission_weight_scaling(spec, pump, phi0):
    state = build_pair_state(spec, pump, phi0, Z)
    scaled_n = PumpConfig(
        direction=pump.direction,
        polarization=pump.polarization,
        omega_laser=pump.omega_laser,
        pump_amplitude=pump.pump_amplitude,
        atom_number=3.0 * pump.atom_number,
    )
    state_n = build_pair_state(spec, scaled_n, phi0, Z)
    assert state_n.emission_weight == pytest.approx(3.0 * state.emission_weight, rel=1e-12)
    scaled_b = PumpConfig(
        direction=pump.direction,
        polarization=pump.polarization,
        omega_laser=pump.omega_laser,
        pump_amplitude=2.0j * pump.pump_amplitude,
        atom_number=pump.atom_number,
    )
    state_b = build_pair_state(spec, scaled_b, phi0, Z)
    assert state_b.emission_weight == pytest.approx(4.0 * state.emission_weight, rel=1e-12)


def test_unresolved_flag(spec, pump, phi0, monkeypatch):
    state = build_pair_state(spec, pump, phi0, Z)
    assert state.unresolved_channel_pairs == ()
    monkeypatch.setattr(pair_state, "DEFAULT_CHANNEL_RESOLUTION", TWO_PI * 10.0e9)
    coarse = build_pair_state(spec, pump, phi0, Z)
    assert coarse.unresolved_channel_pairs == ((2, 4),)
    # a level without amplitude has no channel to confuse: sigma+ light on
    # |2,2> scatters only back into F=2 along z
    from raman_pairs.atomic_model import spherical_component

    pump_sigma = pump.replace(direction=Z, polarization=spherical_component(+1).copy())
    rayleigh = build_pair_state(spec, pump_sigma, CondensateSpinor.single(2, 2), Z)
    assert {ch.doubled_f for ch in rayleigh.photon_labels()} == {4}
    assert rayleigh.unresolved_channel_pairs == ()


def test_empty_state_error(spec, pump):
    # a species whose excited manifold tops out below the stretched ground
    # sublevel plus one: sigma+ light then has no state to absorb into
    from raman_pairs.angular_momentum import HalfInt
    from raman_pairs.atomic_model import AtomSpec, spherical_component

    inverted = AtomSpec(
        name="inverted-test",
        nuclear_spin=HalfInt(0),
        ground_j=HalfInt(3),
        excited_j=HalfInt(1),
        ground_splittings=((HalfInt(3), 0.0),),
        resonance=spec.resonance,
        linewidth=spec.linewidth,
        mass=spec.mass,
    )
    phi_stretched = CondensateSpinor.single("3/2", "3/2")
    pump_sigma = PumpConfig(
        direction=np.array([0.0, 0.0, 1.0]),
        polarization=spherical_component(+1).copy(),
        omega_laser=pump.omega_laser,
    )
    with pytest.raises(PhysicsError, match="^no scattering amplitude into this direction"):
        build_pair_state(inverted, pump_sigma, phi_stretched, np.array([1.0, 0.0, 0.0]))


def test_one_branch_empty_sentinel(spec, pump):
    # pi pump on |2,2>: sigma- detection along z would need a final m=3,
    # which does not exist, so that branch is an all-zero row
    phi0 = CondensateSpinor.single(2, 2)
    assert kernel_branch(spec, pump, phi0, Z, 2) == ({}, 0.0)
    amps, norm = kernel_branch(spec, pump, phi0, Z, 1)
    assert amps and norm > 0.0


# --- spectral filtering -----------------------------------------------------------


def test_filter_f1_symmetric_bell(state_z):
    filtered = spectral_filter(state_z, 1)
    amps = {
        (ch.lam, atom): value for (ch, atom), value in entries(filtered).items()
    }
    want = 1.0 / math.sqrt(2.0)
    assert_equal_up_to_global_phase(
        amps, {(1, (2, -2)): want, (2, (2, 2)): want}, tol=1e-10
    )


def test_filter_f2_antisymmetric_bell(state_z):
    filtered = spectral_filter(state_z, 2)
    amps = {
        (ch.lam, atom): value for (ch, atom), value in entries(filtered).items()
    }
    want = 1.0 / math.sqrt(2.0)
    assert_equal_up_to_global_phase(
        amps, {(1, (4, -2)): want, (2, (4, 2)): -want}, tol=1e-10
    )


def test_filter_idempotent(state_z):
    once = spectral_filter(state_z, 1)
    twice = spectral_filter(once, 1)
    np.testing.assert_array_equal(once.amplitudes, twice.amplitudes, strict=True)
    assert list(entries(once).items()) == list(entries(twice).items())


def test_filter_preserves_amplitude_ratios(state_z):
    filtered = spectral_filter(state_z, 2)
    full = {
        (ch.lam, atom): amp
        for (ch, atom), amp in entries(state_z).items()
        if ch.doubled_f == 4
    }
    kept = {(ch.lam, atom): amp for (ch, atom), amp in entries(filtered).items()}
    ratio_full = full[(1, (4, -2))] / full[(2, (4, 2))]
    ratio_kept = kept[(1, (4, -2))] / kept[(2, (4, 2))]
    assert ratio_full == pytest.approx(ratio_kept, rel=1e-14)


def test_filter_zero_probability_channel(spec, pump):
    # a condensate in |1, -1> with sigma- pump along z scatters only into
    # specific channels; filtering a ground level with no amplitude fails
    from raman_pairs.atomic_model import spherical_component

    phi0 = CondensateSpinor.single(2, 2)
    pump_sigma = PumpConfig(
        direction=np.array([0.0, 0.0, 1.0]),
        polarization=spherical_component(+1).copy(),
        omega_laser=pump.omega_laser,
    )
    state = build_pair_state(spec, pump_sigma, phi0, Z)
    present = {ch.doubled_f for ch in state.photon_labels()}
    assert present == {4}
    with pytest.raises(PhysicsError, match="^the F=1 frequency channel carries zero probability"):
        spectral_filter(state, 1)


# --- serialization -----------------------------------------------------------------


def test_json_deterministic(state_z):
    a = json.dumps(pair_state_to_json(state_z), sort_keys=True)
    b = json.dumps(pair_state_to_json(state_z), sort_keys=True)
    assert a == b


def test_json_schema_shapes(state_z):
    doc = pair_state_to_json(state_z)
    assert doc["format"] == "raman-pairs/pair-state/2"
    assert "recoil_momentum_kg_m_per_s" not in doc and "photon_wavevector_rad_per_m" not in doc
    for channel in doc["channels"]:
        assert channel["key"] == f"{channel['doubled_f']}:{channel['lambda']}"
        assert channel["omega_hz"] > 0
        assert len(channel["photon_wavevector_rad_per_m"]) == 3
        assert len(channel["recoil_momentum_kg_m_per_s"]) == 3
    assert list(doc["amplitudes"]) == [channel["key"] for channel in doc["channels"]]
    for key, channel_amps in doc["amplitudes"].items():
        tf, lam = key.split(":")
        assert int(tf) in state_z.levels and lam in ("1", "2")
        for atom_key, pair in channel_amps.items():
            tf, tm = (int(x) for x in atom_key.split(":"))
            assert abs(tm) <= tf
            assert len(pair) == 2
