"""The polarization basis and the two-photon coupling G as the pair-state
kernel evaluates it: selection rules, the exchange identity, detuning
linearity and the excited-manifold sum."""

import numpy as np
import pytest

from conftest import (
    doubled_detunings,
    random_condensate,
    random_direction,
    random_pump,
    sublevels,
)
from oracles import oracle_dipole
from raman_pairs.angular_momentum import CoupledValue, HalfInt
from raman_pairs.atomic_model import (
    _dipole_tensor,
    detuning,
    dipole_matrix_element,
    spherical_component,
)
from raman_pairs.errors import PhysicsError
from raman_pairs.pair_state import CondensateSpinor, PumpConfig, pair_batch
from raman_pairs.raman_coupling import condensate_factor, polarization_bases

X = np.array([1.0, 0.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


def basis_of(k):
    """(eps_1, eps_2) of one direction."""
    return polarization_bases(np.asarray(k, dtype=float)[np.newaxis])[0]


def scattered(spec, pump, phi0, k):
    """G phi0 for both branches at one direction: the kernel's raw (2, G) amplitudes."""
    batch = pair_batch(spec, pump, phi0, k[np.newaxis])
    return batch.norms[0] * batch.phases[0] * batch.amplitudes[0]


def single(sublevel):
    """The condensate in one (2F, 2m) sublevel."""
    tf, tm = sublevel
    return CondensateSpinor.single(HalfInt(tf), HalfInt(tm))


# --- polarization basis ---------------------------------------------------------


def test_basis_on_z_axis_is_circular():
    for k in (Z, -Z):
        e1, e2 = basis_of(k)
        np.testing.assert_array_equal(e1, spherical_component(+1))
        np.testing.assert_array_equal(e2, spherical_component(-1))


def test_basis_on_x_axis_is_spherical_pair():
    e1, e2 = basis_of(X)
    np.testing.assert_allclose(e1, np.array([0.0, 0.0, -1.0]), atol=1e-15)
    np.testing.assert_allclose(e2, np.array([0.0, 1.0, 0.0]), atol=1e-15)


def test_basis_transverse_orthonormal_random():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        k = random_direction(rng)
        e1, e2 = basis_of(k)
        assert abs(np.vdot(e1, e1) - 1.0) < 1e-12
        assert abs(np.vdot(e2, e2) - 1.0) < 1e-12
        assert abs(np.vdot(e1, e2)) < 1e-12
        assert abs(np.vdot(e1, k)) < 1e-12
        assert abs(np.vdot(e2, k)) < 1e-12


# --- dipole tensor ---------------------------------------------------------------


@pytest.mark.parametrize(
    "doubled", [(3, 1, 3), (1, 1, 1), (5, 1, 3)], ids=["sodium", "2I,2Jg,2Je=1,1,1", "5,1,3"]
)
def test_dipole_tensor_is_the_element_table(doubled, spec, monkeypatch):
    # the tensor the kernel reads, keyed on (2I, 2J_g, 2J_e) at unit reduced
    # dipole, for sodium and two species built here, against the validating
    # element function bit for bit (which scales it by the species' reduced
    # dipole) and the |m_I, m_J> uncoupling oracle; its loop builds no
    # per-element object
    ti, tjg, tje = doubled
    if doubled != (3, 1, 3):
        levels = range(abs(ti - tjg), ti + tjg + 1, 2)
        spec = spec.replace(
            nuclear_spin=HalfInt(ti),
            ground_j=HalfInt(tjg),
            excited_j=HalfInt(tje),
            ground_splittings=tuple((HalfInt(tf), 1.0e9 * i) for i, tf in enumerate(levels)),
            reduced_dipole=1.7,
        )

    def built(obj, *args, **kwargs):
        raise AssertionError(f"the tensor built a {type(obj).__name__}")

    for cls in (HalfInt, CoupledValue):
        monkeypatch.setattr(cls, "__init__", built)
    dip = _dipole_tensor.__wrapped__(ti, tjg, tje)
    monkeypatch.undo()

    excited, ground = sublevels(spec.excited_levels()), sublevels(spec.ground_levels())
    table = np.array(
        [[[dipole_matrix_element(spec, *e, *g, q) for q in (-1, 0, +1)] for g in ground] for e in excited]
    )
    scaled = dip * spec.reduced_dipole
    assert dip.shape == table.shape and scaled.tobytes() == table.tobytes()
    oracle = [
        oracle_dipole(ti, tjg, tje, *e, *g, q, spec.reduced_dipole)
        for e in excited
        for g in ground
        for q in (-1, 0, +1)
    ]
    assert np.abs(table.ravel() - oracle).max() <= 1e-12
    assert np.count_nonzero(dip) > 0


# --- two-photon coupling ----------------------------------------------------------


def test_pi_pi_selection_rule(spec, pump):
    # the reference pump is pi, and so is the lambda = 1 branch on the x axis:
    # pi in / pi out cannot change m
    basis = sublevels(spec.ground_levels())
    for ini in basis:
        branch = scattered(spec, pump, single(ini), X)[0]
        assert all(amp == 0.0 for g, amp in zip(basis, branch) if g[1] != ini[1])
    ini = (2, 0)
    assert scattered(spec, pump, single(ini), X)[0, basis.index(ini)] != 0.0


def test_sigma_plus_pairs_with_m_minus_one(spec, pump, phi0):
    branch = scattered(spec, pump, phi0, Z)[0]
    nonzero = [g for g, amp in zip(sublevels(spec.ground_levels()), branch) if amp != 0.0]
    assert nonzero == [(2, -2), (4, -2)]


def test_exchange_identity(spec, pump):
    # G_ab(f, i) Delta(F_i) = conj(G_ba(i, f) Delta(F_f)): swapping the pump
    # and the detected mode conjugates the detuning-weighted amplitude
    rng = np.random.default_rng(17)
    omega = pump.omega_laser
    basis = sublevels(spec.ground_levels())
    for _ in range(100):
        ka, kb = random_direction(rng), random_direction(rng)
        la, lb = rng.integers(0, 2, size=2)
        pump_a = PumpConfig(direction=ka, polarization=basis_of(ka)[la], omega_laser=omega)
        pump_b = PumpConfig(direction=kb, polarization=basis_of(kb)[lb], omega_laser=omega)
        i_fin, i_ini = rng.integers(0, len(basis), size=2)
        fin, ini = basis[i_fin], basis[i_ini]
        lhs = scattered(spec, pump_b, single(ini), ka)[la, i_fin] * detuning(
            spec, omega, HalfInt(ini[0])
        )
        rhs = np.conj(
            scattered(spec, pump_a, single(fin), kb)[lb, i_ini]
            * detuning(spec, omega, HalfInt(fin[0]))
        )
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))


def test_detuning_linearity(spec):
    # doubling every detuning (laser offset and splittings together) exactly
    # halves G: the norms halve and the normalized amplitudes stay
    rng = np.random.default_rng(19)
    pump = random_pump(spec, rng)
    phi0 = random_condensate(spec, rng)
    doubled, pump2 = doubled_detunings(spec, pump)
    directions = np.array([random_direction(rng) for _ in range(50)] + [Z, -Z, X])
    one = pair_batch(spec, pump, phi0, directions)
    two = pair_batch(doubled, pump2, phi0, directions)
    assert (one.norms > 0.0).all()
    np.testing.assert_allclose(two.norms, 0.5 * one.norms, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(two.amplitudes, one.amplitudes, rtol=0.0, atol=1e-12)


def test_dropping_f2_excited_manifold_breaks_amplitudes(spec, pump, phi0):
    # mutation check: the excited-manifold sum must include every allowed
    # (F'', m''); summed by hand over all of them it gives the kernel's
    # sigma+ amplitude, and without the F''=2 contribution it does not
    e1, _ = basis_of(Z)
    basis = sublevels(spec.ground_levels())
    ini, fin = (2, 0), (2, -2)
    kernel = scattered(spec, pump, phi0, Z)[0, basis.index(fin)]

    def g(e, ground, pol):
        return sum(
            np.vdot(spherical_component(q), pol) * dipole_matrix_element(spec, *e, *ground, q)
            for q in (-1, 0, +1)
        )

    def excited_sum(skip):
        total = 0.0 + 0.0j
        for e in sublevels(spec.excited_levels()):
            if e[0] != skip:
                total += np.conj(g(e, fin, e1)) * g(e, ini, pump.polarization)
        return total / detuning(spec, pump.omega_laser, HalfInt(ini[0]))

    assert abs(excited_sum(skip=None) - kernel) <= 1e-12 * abs(kernel)
    assert abs(excited_sum(skip=4) - kernel) > 1e-3 * abs(kernel)  # drop the F''=2 manifold


def test_singular_detuning_raises(spec, pump, phi0):
    with pytest.raises(PhysicsError, match="^laser exactly resonant with a ground level"):
        condensate_factor(spec, spec.resonance, pump.polarization, phi0.vector(spec))
