from dataclasses import replace

import numpy as np
import pytest

from quenchmps import circuits, evolve, tfim, transfer
from quenchmps.ansatz import FULL15, REDUCED8, AnsatzParams, build_unitary, tensor_of
from quenchmps.qcore import InvalidArgumentError, NumericFailure

H = 1e-5  # central-difference step; truncation and rounding both stay near 1e-10
SHORT = replace(tfim.REFERENCE_QUENCH, t_max=0.3)  # three steps


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

    @pytest.mark.parametrize("order", [1, 2])
    def test_circuit_objectives_take_their_boundary_copies(self, order):
        rng = np.random.default_rng(2)
        spec = replace(tfim.REFERENCE_QUENCH, trotter_order=order)
        current = AnsatzParams(FULL15, rng.uniform(-np.pi, np.pi, 15))
        x = current.angles + 0.3 * rng.standard_normal(15)
        cand = AnsatzParams(FULL15, x)
        lt, jac_lt = evolve._step_objective(current, spec, "circuit_lt")
        lw, jac_lw = evolve._step_objective(current, spec, "circuit_lw")
        assert jac_lt is None and jac_lw is None
        p_lt = circuits.dense_success_probability(current, cand, spec)
        p_lw = circuits.dense_success_probability(current, cand, spec, copies_params=cand)
        assert abs(p_lt - p_lw) > 1e-6  # the two boundaries differ here
        assert lt(x) == -p_lt
        assert lw(x) == -p_lw

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


def patch_step_costs(monkeypatch, fail_after):
    """Count the evaluations of each per-step cost, and make every one built
    after the first ``fail_after`` raise :class:`NumericFailure`. Returns the
    per-step evaluation counts."""
    real = circuits.success_probability_fn
    evaluations = []

    def patched(params_t, spec, *args, **kwargs):
        evaluations.append(0)
        if len(evaluations) > fail_after:

            def fails(candidate):
                raise NumericFailure("forced")

            return fails
        p = real(params_t, spec, *args, **kwargs)

        def counted(candidate, k=len(evaluations) - 1):
            evaluations[k] += 1
            return p(candidate)

        return counted

    monkeypatch.setattr(circuits, "success_probability_fn", patched)
    return evaluations


class TestStochastic:
    def test_seeded_full15_run_is_bit_identical(self, ground):
        first, again = (
            evolve.evolve_stochastic(SHORT, "extrapolate", seed=3, ground=ground)
            for _ in range(2)
        )
        assert first.template == FULL15
        assert first.complete and first.failure is None and first.n_steps == 3
        for name in ("angles", "echoes", "costs", "cum_shots"):
            assert np.array_equal(getattr(first, name), getattr(again, name))

    def test_shots_count_two_evaluations_per_spsa_iteration(self, ground, monkeypatch):
        evaluations = patch_step_costs(monkeypatch, fail_after=SHORT.n_steps)
        traj = evolve.evolve_stochastic(SHORT, "extrapolate", seed=3, ground=ground)
        assert traj.complete
        increments = np.diff(traj.cum_shots).tolist()
        # the default 6 SPSA iterations, 4 times as many on the two bootstrap steps
        assert increments == [2 * 4 * 6 * 2048] * 2 + [2 * 6 * 2048]
        assert increments == [2048 * n for n in evaluations]

    def test_failure_is_recorded(self, ground, monkeypatch):
        patch_step_costs(monkeypatch, fail_after=2)
        traj = evolve.evolve_stochastic(SHORT, "extrapolate", seed=3, ground=ground)
        assert not traj.complete
        assert traj.failure == "NumericFailure: forced"
        assert traj.n_steps == 2
        assert len(traj.angles) == len(traj.echoes) == len(traj.cum_shots) == 3

    def test_ensemble_keeps_a_truncated_run(self, ground, monkeypatch):
        full = evolve.evolve_stochastic(SHORT, "extrapolate", seed=0, ground=ground)

        def no_solve(*args, **kwargs):
            raise AssertionError("the given ground state was solved again")

        monkeypatch.setattr(evolve, "ground_state_optimize", no_solve)
        # run 0 builds three step costs; run 1 fails on its second step
        patch_step_costs(monkeypatch, fail_after=SHORT.n_steps + 1)
        stats = evolve.ensemble_run(SHORT, "extrapolate", 2, ground=ground)
        assert np.array_equal(stats.times, SHORT.times)
        assert stats.reached.tolist() == [2, 2, 1, 1]
        assert np.array_equal(stats.echoes[0], full.echoes)
        assert np.all(np.isnan(stats.echoes[1, 2:]))
        assert np.array_equal(stats.mean[2:], full.echoes[2:])
        assert stats.mean[1] == pytest.approx(np.mean(stats.echoes[:, 1]))
        assert np.all(np.isfinite(stats.variance[:2]))
        assert np.all(np.isnan(stats.variance[2:]))
        assert np.all(stats.envelope_lo <= stats.envelope_hi + 1e-15)
        assert stats.total_shots == full.cum_shots[-1] + 2 * 4 * 6 * 2048
