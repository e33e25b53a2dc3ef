"""Library pair states against the fully independent direct-summation oracle.

The oracle rebuilds the scattered-atom amplitudes from nothing but the
uncoupling dipole oracle and explicit spherical overlaps, so these tests
cross the whole chain (dipole table -> mode overlaps -> excited-manifold sum
-> detuning weights -> branch assembly) through a second route.
"""

import math

import numpy as np
import pytest

from conftest import entries, kernel_branch, random_condensate, random_direction, random_pump
from oracles import oracle_branch_amplitudes
from raman_pairs import pair_state
from raman_pairs.atomic_model import detuning
from raman_pairs.pair_state import build_pair_state
from raman_pairs.raman_coupling import polarization_bases

Z = np.array([0.0, 0.0, 1.0])


def oracle_branches(spec, pump, phi0, k_hat):
    deltas = {f.twice: detuning(spec, pump.omega_laser, f) for f in spec.ground_levels()}
    out1, out2 = polarization_bases(k_hat[np.newaxis])[0]
    return [
        oracle_branch_amplitudes(
            spec.nuclear_spin.twice,
            spec.ground_j.twice,
            spec.excited_j.twice,
            deltas,
            pol,
            pump.polarization,
            phi0.as_dict(),
        )
        for pol in (out1, out2)
    ]


def test_reference_branches_match_oracle(spec, pump, phi0):
    expected = oracle_branches(spec, pump, phi0, Z)
    for lam in (1, 2):
        branch, branch_norm = kernel_branch(spec, pump, phi0, Z, lam)
        vec = expected[lam - 1]
        norm = math.sqrt(sum(abs(v) ** 2 for v in vec.values()))
        assert branch_norm == pytest.approx(norm, rel=1e-12)
        assert set(branch) == set(vec)
        for key, amp in branch.items():
            assert amp == pytest.approx(vec[key] / norm, abs=1e-12)


def test_random_geometry_branches_match_oracle(spec):
    rng = np.random.default_rng(107)
    for _ in range(20):
        pump = random_pump(spec, rng)
        phi0 = random_condensate(spec, rng)
        k_hat = random_direction(rng)
        expected = oracle_branches(spec, pump, phi0, k_hat)
        for lam in (1, 2):
            branch, branch_norm = kernel_branch(spec, pump, phi0, k_hat, lam)
            vec = expected[lam - 1]
            if not vec:
                assert branch_norm == 0.0 and not branch
                continue
            norm = math.sqrt(sum(abs(v) ** 2 for v in vec.values()))
            assert branch_norm == pytest.approx(norm, rel=1e-11)
            for key, amp in branch.items():
                assert amp == pytest.approx(vec[key] / norm, abs=1e-11)


def test_half_integer_species_matches_oracle(spec):
    # integer nuclear spin gives half-integer F labels throughout the chain
    from raman_pairs.angular_momentum import HalfInt
    from raman_pairs.atomic_model import AtomSpec

    species = AtomSpec(
        name="testium",
        nuclear_spin=HalfInt(4),
        ground_j=HalfInt(1),
        excited_j=HalfInt(3),
        ground_splittings=((HalfInt(3), 0.0), (HalfInt(5), 2.0 * math.pi * 2.0e9)),
        resonance=spec.resonance,
        linewidth=spec.linewidth,
        mass=spec.mass,
    )
    assert [str(f) for f in species.ground_levels()] == ["3/2", "5/2"]
    rng = np.random.default_rng(113)
    for _ in range(5):
        pump = random_pump(species, rng)
        phi0 = random_condensate(species, rng)
        k_hat = random_direction(rng)
        expected = oracle_branches(species, pump, phi0, k_hat)
        for lam in (1, 2):
            branch, branch_norm = kernel_branch(species, pump, phi0, k_hat, lam)
            vec = expected[lam - 1]
            norm = math.sqrt(sum(abs(v) ** 2 for v in vec.values()))
            assert branch_norm == pytest.approx(norm, rel=1e-11)
            for key, amp in branch.items():
                assert amp == pytest.approx(vec[key] / norm, abs=1e-11)


def test_half_integer_species_filter_and_frequency(spec, pump, monkeypatch):
    import warnings

    from raman_pairs.angular_momentum import HalfInt
    from raman_pairs.atomic_model import AtomSpec
    from raman_pairs.pair_state import CondensateSpinor, spectral_filter

    species = AtomSpec(
        name="testium",
        nuclear_spin=HalfInt(4),
        ground_j=HalfInt(1),
        excited_j=HalfInt(3),
        ground_splittings=((HalfInt(3), 0.0), (HalfInt(5), 2.0 * math.pi * 2.0e9)),
        resonance=spec.resonance,
        linewidth=spec.linewidth,
        mass=spec.mass,
    )
    phi0 = CondensateSpinor.single("3/2", "1/2")
    state = build_pair_state(species, pump, phi0, Z)
    assert sum(abs(a) ** 2 for a in entries(state).values()) == pytest.approx(1.0, abs=1e-12)
    filtered = spectral_filter(state, "5/2")
    assert {ch.doubled_f for ch in filtered.photon_labels()} == {5}
    # channels closer than the resolution are flagged and filtering warns
    monkeypatch.setattr(pair_state, "DEFAULT_CHANNEL_RESOLUTION", 2.0 * math.pi * 10.0e9)
    coarse = build_pair_state(species, pump, phi0, Z)
    assert coarse.unresolved_channel_pairs == ((3, 5),)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spectral_filter(coarse, "5/2")
    assert any("resolvable" in str(w.message) for w in caught)


def test_full_state_matches_stacked_oracle(spec):
    # the joint tensor is the stacked unnormalized branches, normalized, up
    # to one overall phase across both branches together
    rng = np.random.default_rng(109)
    for _ in range(10):
        pump = random_pump(spec, rng)
        phi0 = random_condensate(spec, rng)
        k_hat = random_direction(rng)
        state = build_pair_state(spec, pump, phi0, k_hat)
        expected = oracle_branches(spec, pump, phi0, k_hat)
        stacked = {
            (lam, key): value
            for lam, vec in zip((1, 2), expected)
            for key, value in vec.items()
        }
        total = math.sqrt(sum(abs(v) ** 2 for v in stacked.values()))
        got = {(ch.lam, atom): amp for (ch, atom), amp in entries(state).items()}
        assert set(got) == set(stacked)
        ref_key = max(stacked, key=lambda k: abs(stacked[k]))
        phase = got[ref_key] / (stacked[ref_key] / total)
        assert abs(abs(phase) - 1.0) < 1e-10
        for key, want in stacked.items():
            assert got[key] / phase == pytest.approx(want / total, abs=1e-11)
