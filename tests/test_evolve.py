from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from quenchmps import circuits, evolve, tfim, transfer
from quenchmps.ansatz import FULL15, REDUCED8, AnsatzParams, build_unitary, tensor_of
from quenchmps.qcore import InvalidArgumentError, NumericFailure

H = 1e-5  # central-difference step; truncation and rounding both stay near 1e-10
SHORT = replace(tfim.REFERENCE_QUENCH, t_max=0.3)  # three steps

# accepted angles of evolve_stochastic(SHORT, "extrapolate", seed=3) from the
# Full15 ground state of the ``ground`` fixture
GOLDEN_SEED3_ANGLES = np.array(
    [
        [
            -4.0160662291850657e-01, -1.2305007496725282e+00, 1.1198541752346909e+00,
            -4.4033633776183723e-01, -4.6821994548723944e-01, 4.1714409838973021e-01,
            2.7371550997014982e-01, -8.2798641712419407e-01, -7.2850924650405924e-01,
            -3.9408601128789700e-01, -6.0027806592951727e-01, 4.7139589689210282e-01,
            3.1184586004145351e-02, -8.1495242346213781e-01, -3.4743545815728494e-01,
        ],
        [
            -3.2113607272376016e-01, -1.1540648414590149e+00, 1.2134242394267962e+00,
            -6.1573709132487697e-01, -6.8710366308258752e-01, -9.9569552364729563e-01,
            4.7272406583919629e-01, -5.2015751230289009e-01, -6.6872187019886242e-01,
            -8.2246228911615638e-01, -1.0135418102950040e+00, 4.1602905323932277e-01,
            4.5154589077632604e-02, -8.6344270714870563e-01, -6.8726383383259626e-01,
        ],
        [
            -3.0848278394893802e-01, -9.4663345967133528e-01, 1.6315241800085343e+00,
            -5.3254996986140457e-01, -9.9766187966224373e-01, -2.3103950495154790e+00,
            6.1038095747285248e-01, -1.2184137350318713e-01, -4.3466699151485355e-01,
            -1.1186558283643400e+00, -1.2881572188958812e+00, 4.2847947100646699e-01,
            -4.9200908864571923e-02, -8.0360748981958174e-01, -1.0868673495403292e+00,
        ],
    ]
)


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

    def test_energy_gradient_matches_central_differences(self):
        # Full15 only: Reduced8 tensors are near-reducible almost everywhere
        def energy(y, grad=False):
            return evolve.energy_density(AnsatzParams(FULL15, y), 1.0, 1.5, grad=grad)

        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.uniform(-np.pi, np.pi, 15)
            value, grad = energy(x, grad=True)
            assert value == energy(x)
            assert np.max(np.abs(grad - central_difference(energy, x))) <= 1e-8

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

    def test_ground_state_is_pinned_by_gauge_invariants(self, ground):
        # angles are not pinned: they sit anywhere on the gauge orbit
        value, grad = evolve.energy_density(ground, 1.0, 1.5, grad=True)
        gap = value - tfim.ground_energy_density_ff(1.0, 1.5)
        assert abs(gap - 1.8959764e-4) <= 1e-9
        assert np.max(np.abs(grad)) <= 1e-6
        assert abs(evolve.echo_density(ground, ground)) <= 1e-9

    def test_reducible_ground_state_rejected(self, monkeypatch):
        # zero angles give U = 1 and the transfer spectrum {1, 1, 1, 1}
        def stops_at_zero(fun, x0, **kwargs):
            return OptimizeResult(x=np.zeros(len(x0)))

        monkeypatch.setattr(evolve, "minimize", stops_at_zero)
        with pytest.raises(NumericFailure, match="optimizer seed 7 is reducible"):
            evolve.ground_state_optimize(1.0, 1.5, FULL15, optimizer_seed=7)

    def test_non_stationary_ground_state_rejected(self, ground, monkeypatch):
        moved = ground.angles + 1e-3

        def stops_early(fun, x0, **kwargs):
            return OptimizeResult(x=moved)

        monkeypatch.setattr(evolve, "minimize", stops_early)
        with pytest.raises(NumericFailure, match="optimizer seed 7 is not stationary"):
            evolve.ground_state_optimize(1.0, 1.5, FULL15, optimizer_seed=7)

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
            evolve.spsa_optimize(
                lambda xs: np.full(len(xs), 0.5), seed, evolve.SpsaSchedule(), 0
            )

    def test_spsa_evaluates_each_pair_in_one_call(self):
        pairs = []

        def cost(xs):
            pairs.append(xs.copy())
            return np.sum(xs**2, axis=1)

        seed = AnsatzParams(FULL15, np.linspace(-1.0, 1.0, 15))
        evolve.spsa_optimize(cost, seed, evolve.SpsaSchedule(steps=3), 0)
        assert [p.shape for p in pairs] == [(2, 15)] * 3
        # the first pair is x + c_0 delta, x - c_0 delta with c_0 = c = 0.1
        plus, minus = pairs[0] - seed.angles
        assert np.allclose(np.abs(plus), 0.1, rtol=0, atol=1e-15)
        assert np.allclose(minus, -plus, rtol=0, atol=1e-15)

    @pytest.mark.parametrize(
        "options", [{"a": -1.0}, {"a": 0.0}, {"A": -5.0}, {"a": np.nan}]
    )
    def test_invalid_spsa_gains_rejected(self, options):
        with pytest.raises(InvalidArgumentError):
            evolve.SpsaSchedule(**options)

    @pytest.mark.parametrize("shots", [0, -5, 2.5])
    def test_invalid_shot_counts_rejected(self, ground, shots):
        with pytest.raises(InvalidArgumentError, match="shots_per_eval"):
            evolve.evolve_stochastic(
                SHORT, "extrapolate", shots_per_eval=shots, ground=ground
            )


def patch_step_costs(monkeypatch, fail_after):
    """Count the candidates evaluated by each per-step cost (one per row of
    a stacked call), and make every cost built after the first ``fail_after``
    raise :class:`NumericFailure`. Returns the per-step candidate counts."""
    real = circuits.success_probability_fn
    evaluations = []

    def patched(*args, **kwargs):
        evaluations.append(0)
        if len(evaluations) > fail_after:

            def fails(candidates):
                raise NumericFailure("forced")

            return fails
        p = real(*args, **kwargs)

        def counted(candidates, k=len(evaluations) - 1):
            evaluations[k] += len(candidates.angles)
            return p(candidates)

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
        # pinned: reordering the +/- evaluations or their binomial draws
        # moves the accepted angles
        assert np.array_equal(first.angles[0], ground.angles)
        assert np.max(np.abs(first.angles[1:] - GOLDEN_SEED3_ANGLES)) <= 1e-12
        assert first.cum_shots.tolist() == [0, 98304, 196608, 221184]

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
