"""Rotation covariance: an oracle that shares no convention with the package.

The dipole coupling is rotation invariant.  Rotating the pump direction and
polarization by R, the condensate by Wigner's D^F of each ground level
(``oracles.wigner_d``) and the detection direction by R changes the pair
state only by a unitary on the atom inside each F block and a unitary on the
photon's two transverse polarizations.  So every quantity that both leave
alone must come out the same: the entanglement entropy, each level's
filtered concurrence, the emission weight, each level's channel weight
summed over lambda and each level's photon frequency.

Two quantities are left out.  The branch overlap |<S_1|S_2>| and the
per-lambda channel weights name the two polarization branches, and the
transverse basis at R k is not R applied to the basis at k (away from the
poles it is the spherical (theta-hat, phi-hat) pair), so both depend on the
transverse-basis convention, not only on the physics.

The check shares nothing with the package's spherical basis, Condon-Shortley
phases or transverse basis: it only assumes that |F m> rotates by D^F.
"""

import math

import numpy as np
import pytest

from conftest import random_condensate, random_direction, random_pump
from oracles import wigner_d
from raman_pairs.angular_momentum import HalfInt
from raman_pairs.entanglement_analysis import concurrence_after_filter, entanglement_entropy
from raman_pairs.geometry_explorer import scan_sphere
from raman_pairs.pair_state import CondensateSpinor, build_pair_state

CASES = 60
RESOLUTION = math.radians(15.0)  # 24 phi steps


def _rz(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _ry(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _rotated(pump, phi0: CondensateSpinor, euler) -> tuple:
    """The pump by R = R_z(alpha) R_y(beta) R_z(gamma) and the condensate by D^F(R)."""
    alpha, beta, gamma = euler
    rotation = _rz(alpha) @ _ry(beta) @ _rz(gamma)
    rotated = {}
    for (tf, tm2), amp in phi0.as_dict().items():
        for tm1 in range(-tf, tf + 1, 2):
            d = wigner_d(tf, tm1, tm2, alpha, beta, gamma)
            rotated[(tf, tm1)] = rotated.get((tf, tm1), 0.0) + d * amp
    # renormalize against rounding: the spinor guard allows 1e-12
    norm = math.sqrt(sum(abs(a) ** 2 for a in rotated.values()))
    condensate = CondensateSpinor.from_dict({key: a / norm for key, a in rotated.items()})
    rpump = pump.replace(
        direction=rotation @ pump.direction, polarization=rotation @ pump.polarization
    )
    return rpump, condensate, rotation


def _invariants(state) -> dict:
    levels = state.levels
    weights = dict.fromkeys(levels, 0.0)
    for channel, probability in state.channel_probabilities():
        weights[channel.doubled_f] += probability
    return {
        "entropy": entanglement_entropy(state),
        "concurrence": [concurrence_after_filter(state, HalfInt(tf)) for tf in levels],
        "channel_weight": [weights[tf] for tf in levels],
        "emission_weight": state.emission_weight,
        "omega": state.omega.tolist(),
    }


def _d_matrix(tj: int, euler) -> np.ndarray:
    ms = range(-tj, tj + 1, 2)
    return np.array([[wigner_d(tj, m1, m2, *euler) for m2 in ms] for m1 in ms])


def test_wigner_d_is_unitary_and_composes():
    rng = np.random.default_rng(3)
    for tj in range(5):
        a, b, c = rng.uniform(0.0, 2.0 * math.pi, size=3)
        d = _d_matrix(tj, (a, b, c))
        np.testing.assert_allclose(d @ d.conj().T, np.eye(tj + 1), atol=1e-13)
        # D(alpha, beta, gamma) = D(alpha, 0, 0) D(0, beta, 0) D(0, 0, gamma)
        factors = [_d_matrix(tj, e) for e in ((a, 0.0, 0.0), (0.0, b, 0.0), (0.0, 0.0, c))]
        np.testing.assert_allclose(factors[0] @ factors[1] @ factors[2], d, atol=1e-13)
    # j = 1 against the rotation of the spherical vectors e_q, built here
    euler = (0.3, 1.1, -0.7)
    rotation = _rz(euler[0]) @ _ry(euler[1]) @ _rz(euler[2])
    e = {+2: np.array([-1.0, -1.0j, 0.0]) / math.sqrt(2.0), 0: np.array([0.0, 0.0, 1.0])}
    e[-2] = np.array([1.0, -1.0j, 0.0]) / math.sqrt(2.0)
    for tq, vector in e.items():
        want = sum(e[tp] * wigner_d(2, tp, tq, *euler) for tp in e)
        np.testing.assert_allclose(rotation @ vector, want, atol=1e-15)


def test_invariants_are_rotation_covariant(spec):
    rng = np.random.default_rng(2024)
    for _ in range(CASES):
        pump, phi0 = random_pump(spec, rng), random_condensate(spec, rng)
        direction = random_direction(rng)
        euler = tuple(rng.uniform(0.0, 2.0 * math.pi, size=3))
        rpump, rphi0, rotation = _rotated(pump, phi0, euler)
        want = _invariants(build_pair_state(spec, pump, phi0, direction))
        got = _invariants(build_pair_state(spec, rpump, rphi0, rotation @ direction))
        for key in ("entropy", "concurrence", "channel_weight"):
            np.testing.assert_allclose(got[key], want[key], rtol=0.0, atol=1e-12, err_msg=key)
        for key in ("emission_weight", "omega"):
            np.testing.assert_allclose(got[key], want[key], rtol=1e-12, atol=0.0, err_msg=key)


MEASURES = (
    ("entropy", None),
    ("concurrence_after_filter", 1),
    ("concurrence_after_filter", 2),
    ("conditional_overlap", None),
)


@pytest.mark.parametrize("measure, filter_f", MEASURES)
def test_z_rotation_by_grid_steps_rolls_the_scan(spec, measure, filter_f):
    # R_z by whole phi steps maps the grid onto itself: node (theta, phi)
    # of the rotated config is node (theta, phi - steps) of the original.
    # The (theta-hat, phi-hat) basis turns with R_z, and the circular pole
    # pair only gains phases, so here the branch overlap rolls as well
    rng = np.random.default_rng(99)
    pump, phi0 = random_pump(spec, rng), random_condensate(spec, rng)
    steps = 5
    rpump, rphi0, _ = _rotated(pump, phi0, (steps * RESOLUTION, 0.0, 0.0))
    scan = scan_sphere(spec, pump, phi0, RESOLUTION, measure, filter_f=filter_f)
    rotated = scan_sphere(spec, rpump, rphi0, RESOLUTION, measure, filter_f=filter_f)
    n_phi = round(2.0 * math.pi / RESOLUTION)
    want = np.roll(scan.measures.reshape(-1, n_phi), steps, axis=1)
    np.testing.assert_allclose(rotated.measures.reshape(-1, n_phi), want, rtol=0.0, atol=1e-12)
