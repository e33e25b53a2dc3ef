import math
from dataclasses import replace

import numpy as np
import pytest

from raman_pairs.atomic_model import sodium
from raman_pairs.pair_state import (
    CondensateSpinor,
    PairState,
    PumpConfig,
    build_pair_state,
    sodium_condensate,
)

TWO_PI = 2.0 * math.pi
DETUNING_HZ = -10.0e9  # red detuned 10 GHz, far off resonance


@pytest.fixture(scope="session")
def spec():
    return sodium()


@pytest.fixture(scope="session")
def pump(spec):
    """The reference configuration: pump along y, pi-polarized along z."""
    return PumpConfig(
        direction=np.array([0.0, 1.0, 0.0]),
        polarization=np.array([0.0, 0.0, 1.0]),
        omega_laser=spec.resonance + TWO_PI * DETUNING_HZ,
        pump_amplitude=1.0 + 0.0j,
        atom_number=1.0e6,
    )


@pytest.fixture(scope="session")
def phi0():
    return sodium_condensate()


@pytest.fixture(scope="session")
def state_z(spec, pump, phi0):
    """The full four-channel state with the detector on +z."""
    return build_pair_state(spec, pump, phi0, np.array([0.0, 0.0, 1.0]))


def random_direction(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_pump(spec, rng, atom_number: float = 1.0e6) -> PumpConfig:
    """Random geometry pump with a random transverse elliptic polarization."""
    k = random_direction(rng)
    a = rng.normal(size=3) + 1j * rng.normal(size=3)
    a -= np.vdot(k, a) * k
    pol = a / np.linalg.norm(a)
    return PumpConfig(
        direction=k,
        polarization=pol,
        omega_laser=spec.resonance + TWO_PI * DETUNING_HZ,
        atom_number=atom_number,
    )


def random_condensate(spec, rng) -> CondensateSpinor:
    from raman_pairs.raman_coupling import ground_basis

    basis = ground_basis(spec)
    vec = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    vec /= np.linalg.norm(vec)
    return CondensateSpinor.from_dict(
        {(g.f.twice, g.m.twice): complex(v) for g, v in zip(basis, vec)}
    )


def doubled_detunings(spec, pump):
    """The species and pump with every detuning doubled: the laser offset and
    the ground splittings together."""
    doubled = replace(
        spec, ground_splittings=tuple((f, 2.0 * d) for f, d in spec.ground_splittings)
    )
    offset = pump.omega_laser - spec.resonance
    return doubled, replace(pump, omega_laser=spec.resonance + 2.0 * offset)


def assert_equal_up_to_global_phase(actual: dict, expected: dict, tol: float = 1e-10):
    """Compare two keyed amplitude maps modulo one overall phase."""
    assert set(actual) == set(expected)
    ref_key = max(expected, key=lambda k: abs(expected[k]))
    phase = (actual[ref_key] / expected[ref_key])
    phase /= abs(phase)
    for key, want in expected.items():
        assert abs(actual[key] / phase - want) <= tol, (
            f"amplitude at {key}: {actual[key] / phase} != {want}"
        )


def entries(state: PairState) -> dict:
    """{(channel, (2F, 2m)): amplitude} over the nonzero entries, in (channel, atom) order."""
    matrix, photon, atoms = state.matrix()
    return {
        (ch, atom): complex(matrix[r, c])
        for r, ch in enumerate(photon)
        for c, atom in enumerate(atoms)
        if matrix[r, c] != 0.0
    }


_PLACEHOLDER_PUMP = PumpConfig(
    direction=np.array([0.0, 0.0, 1.0]),
    polarization=np.array([1.0, 0.0, 0.0]),
    omega_laser=1.0e15,
)


def hand_state(levels, omega, amplitudes) -> PairState:
    """A PairState over ``levels`` with placeholder direction, momenta, weight and pump."""
    return PairState(
        amplitudes=amplitudes,
        levels=levels,
        omega=omega,
        recoil_momentum=np.zeros(3),
        photon_wavevector=np.array([0.0, 0.0, 1.0e7]),
        emission_weight=1.0,
        detection_direction=np.array([0.0, 0.0, 1.0]),
        pump=_PLACEHOLDER_PUMP,
    )
