from dataclasses import replace

import numpy as np
import pytest

from quenchmps import evolve, tfim, transfer
from quenchmps.ansatz import FULL15, REDUCED8, AnsatzParams, build_unitary, tensor_of
from quenchmps.qcore import InvalidArgumentError, NumericFailure

H = 1e-5  # central-difference step; truncation and rounding both stay near 1e-10


def central_difference(f, x):
    out = []
    for k in range(len(x)):
        step = np.zeros(len(x))
        step[k] = H
        out.append((f(x + step) - f(x - step)) / (2 * H))
    return np.array(out)


@pytest.fixture(scope="module")
def ground():
    return evolve.ground_state_optimize(1.0, 1.5, FULL15)


class TestGradients:
    @pytest.mark.parametrize("template, n", [(FULL15, 15), (REDUCED8, 8)])
    def test_unitary_derivative_matches_central_differences(self, template, n):
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.uniform(-np.pi, np.pi, n)
            _, du = build_unitary(AnsatzParams(template, x), grad=True)
            fd = central_difference(
                lambda y: build_unitary(AnsatzParams(template, y)), x
            )
            assert du.shape == (n, 4, 4)
            assert np.max(np.abs(du - fd)) <= 1e-8

    def test_eigen_objective_gradient_matches_central_differences(self):
        rng = np.random.default_rng(1)
        spec = tfim.REFERENCE_QUENCH
        for _ in range(5):
            current = AnsatzParams(FULL15, rng.uniform(-np.pi, np.pi, 15))
            objective, jac = evolve._step_objective(current, spec, "eigen")
            assert jac is True
            x = current.angles + 0.1 * rng.standard_normal(15)
            _, grad = objective(x)
            fd = central_difference(lambda y: objective(y)[0], x)
            assert np.max(np.abs(grad - fd)) <= 1e-8

    def test_non_simple_top_eigenvalue_raises(self):
        # identity-state bra: the cell matrix is K[0] (x) 1, here a Jordan block
        ket = np.zeros((4, 2, 2), dtype=complex)
        ket[0] = [[1.0, 1.0], [0.0, 1.0]]
        b = np.zeros((2, 2, 2), dtype=complex)
        b[0] = np.eye(2)
        with pytest.raises(NumericFailure):
            transfer.cell_eigenvalue_gradient(ket, b, np.ones((1, 2, 2, 2)))


class TestDrivers:
    def test_ground_state_energy_near_free_fermion(self, ground):
        e = evolve.energy_density(ground, 1.0, 1.5)
        exact = tfim.ground_energy_density_ff(1.0, 1.5)
        assert exact - 1e-9 <= e <= exact + 1e-3

    def test_right_fixed_point_is_a_positive_fixed_point(self, ground):
        a = tensor_of(ground)
        rho = evolve._right_fixed_point(a)
        mapped = np.einsum("sab,bc,sdc->ad", a, rho, a.conj())  # one map step
        assert np.max(np.abs(mapped - rho)) < 1e-10
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() > 0.0

    def test_full15_reference_tracks_free_fermion_echo(self, ground):
        spec = replace(tfim.REFERENCE_QUENCH, t_max=1.0)
        traj = evolve.evolve_exact_in_ansatz(spec, FULL15, "eigen", ground=ground)
        assert traj.complete and traj.n_steps == spec.n_steps
        r_ff = tfim.loschmidt_exact_ff(spec.g0, spec.g1, traj.times, J=spec.J)
        assert np.max(np.abs(traj.echoes - r_ff)) <= 0.02

    def test_unknown_cost_mode_rejected(self, ground):
        with pytest.raises(InvalidArgumentError):
            evolve.evolve_exact_in_ansatz(
                tfim.REFERENCE_QUENCH, FULL15, "eigenvalue", ground=ground
            )

    def test_spsa_raises_on_constant_cost(self):
        seed = AnsatzParams(FULL15, np.zeros(15))
        with pytest.raises(NumericFailure, match="zero gradient estimate"):
            evolve.spsa_optimize(lambda x: 0.5, seed, evolve.SpsaSchedule(), 0)
