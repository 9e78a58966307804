from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import OptimizeResult

from quenchmps import circuits, evolve, qcore, tfim, transfer
from quenchmps.ansatz import FULL15, AnsatzParams, build_unitary, tensor_of
from quenchmps.qcore import InvalidArgumentError, NumericFailure

H = 1e-5  # central-difference step; truncation and rounding both stay near 1e-10
SHORT = replace(tfim.REFERENCE_QUENCH, t_max=0.3)  # three steps

# Full15 ground state ground_state_optimize(1.0, 1.5, FULL15) as solved with
# BFGS gtol 1e-10; the golden SPSA runs start from it, so they do not move with
# the ground solver's stopping rule
GOLDEN_GROUND_ANGLES = [
    0.05029208843735358, -1.5707963268595133, 0.5450410327611752,
    -0.07397143880371868, -0.3046512420997071, -0.11293897022451826,
    0.8562885201643545, -0.6589070277084386, -0.5176226398320246,
    -0.6363209836960773, -3.9682769809066186e-11, -0.11344482638328449,
    -0.9507638701460915, -1.1279367581958528, -0.6142958645661426,
]

# accepted angles of evolve_stochastic(SHORT, "extrapolate", seed=3) from the
# ground state GOLDEN_GROUND_ANGLES
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

# accepted angles of evolve_stochastic(replace(SHORT, trotter_order=2),
# "extrapolate", seed=3) from the ground state GOLDEN_GROUND_ANGLES
GOLDEN_SEED3_ORDER2_ANGLES = np.array(
    [
        [
            -4.9733081283777991e-01, -1.7372014030428213e+00, 8.5167653177115754e-01,
            -7.2651256204157766e-01, -1.0629169318414080e+00, -5.3565682374975265e-01,
            -1.4985312845853950e-02, -3.4617884004578003e-01, -6.8708204377465026e-02,
            -2.5206055302261970e-01, -1.7591201782270979e-01, 3.6638467339937220e-01,
            -5.6074819963066258e-01, -1.7591579052526078e+00, 1.6689757022599003e-01,
        ],
        [
            1.7258246557501145e-01, -2.4530299638556539e+00, 9.3894653862852484e-01,
            -1.9232899300920823e+00, -2.5578638878215421e-01, 7.7337824605039451e-01,
            4.1780883626279398e-03, -3.8759452674600448e-01, -2.9023384064227686e-01,
            -6.5049668114544235e-01, 6.2139704173974508e-01, 4.8080559857036620e-01,
            -1.1996293943143617e+00, -2.7259123325524559e+00, 4.1465367089801297e-01,
        ],
        [
            1.9603097190697625e+00, -1.4069694805572088e+00, -2.4026917301721917e-01,
            -4.0324023086501537e+00, -1.3669031178427815e-01, -2.8436276265327809e-01,
            -1.9136550799121270e+00, 7.0309932164446687e-01, -1.3539446509640087e+00,
            2.6888116581369559e-01, -3.1829046818103812e-01, -5.2258745134059836e-01,
            -1.3504761229366835e+00, -4.1807012259136798e+00, 2.2188198511069239e+00,
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


@pytest.fixture(scope="module")
def golden_ground():
    return AnsatzParams(FULL15, np.array(GOLDEN_GROUND_ANGLES))


def spy(monkeypatch, owner, name):
    """Wrap ``owner.name`` so that every call appends ``(args, result)`` to
    the returned list."""
    real = getattr(owner, name)
    calls = []

    def recorded(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args, result))
        return result

    monkeypatch.setattr(owner, name, recorded)
    return calls


def no_grad_build_shapes(calls):
    """Angle shapes of the ``tensor_of`` calls recorded by :func:`spy` that
    built no gradient (a gradient build returns a pair)."""
    return [np.shape(args[0]) for args, a in calls if not isinstance(a, tuple)]


class TestGradients:
    def test_unitary_derivative_matches_central_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.uniform(-np.pi, np.pi, 15)
            _, du = build_unitary(AnsatzParams(FULL15, x), grad=True)
            fd = central_difference(lambda y: build_unitary(AnsatzParams(FULL15, y)), x)
            assert du.shape == (15, 4, 4)
            assert np.max(np.abs(du - fd)) <= 1e-8

    def test_eigen_objective_gradient_matches_central_differences(self):
        rng = np.random.default_rng(1)
        spec = tfim.REFERENCE_QUENCH
        gate = tfim.trotter_gate_first_order(spec.J, spec.g1, spec.dt)
        for _ in range(5):
            current = AnsatzParams(FULL15, rng.uniform(-np.pi, np.pi, 15))
            objective, jac = evolve._step_objective(tensor_of(current), gate, "eigen")
            assert jac is True
            x = current.angles + 0.1 * rng.standard_normal(15)
            _, grad = objective(x)
            fd = central_difference(lambda y: objective(y)[0], x)
            assert np.max(np.abs(grad - fd)) <= 1e-8

    def test_eigen_objective_matches_the_slow_formula(self):
        # from public pieces: the cell matrix of the candidate's tensor, its
        # leading eigenpair from scipy's eig with left vectors, and
        # d lambda = <l| dE |r> / <l|r>, where dE along a tangent d is exact by
        # polarization, as E is quadratic in the bra tensor
        rng = np.random.default_rng(19)
        gate = tfim.trotter_gate_first_order(1.0, 0.2, 0.1)
        for _ in range(20):
            current = AnsatzParams(FULL15, rng.uniform(-np.pi, np.pi, 15))
            x = current.angles + 0.3 * rng.standard_normal(15)
            a_t = tensor_of(current)
            ket = transfer.window_ket(a_t, gate)
            b, db = tensor_of(AnsatzParams(FULL15, x), grad=True)
            w, vl, vr = scipy.linalg.eig(transfer.cell_matrix(ket, b), left=True)
            k = np.argmax(np.abs(w))
            left, right = vl[:, k].conj(), vr[:, k]
            de = [
                transfer.cell_matrix(ket, b + d) - transfer.cell_matrix(ket, b - d)
                for d in db
            ]
            dlam = np.array([left @ e @ right for e in de]) / (2.0 * (left @ right))
            value, grad = evolve._step_objective(a_t, gate, "eigen")[0](x)
            assert abs(value + abs(w[k])) <= 1e-13
            slow = -np.real(np.conj(w[k]) * dlam) / abs(w[k])
            assert np.max(np.abs(grad - slow)) <= 1e-13

    def test_energy_gradient_matches_central_differences(self):
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
        layer, _ = circuits.evolution_gate_layer(spec)
        lt, jac = evolve._step_objective(tensor_of(current), layer, "circuit_lt")
        assert jac is None
        assert lt(x) == -circuits.dense_success_probability(current, cand, spec)

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

    def test_right_fixed_point_is_a_positive_fixed_point(self, ground, monkeypatch):
        # rho is the first solve of energy_density; BFGS also evaluates the
        # energy far from the ground state, hence the random tensors
        solves = spy(monkeypatch, np.linalg, "solve")
        rng = np.random.default_rng(4)
        points = [ground] + [
            AnsatzParams(FULL15, rng.uniform(-np.pi, np.pi, 15)) for _ in range(5)
        ]
        for params in points:
            solves.clear()
            evolve.energy_density(params, 1.0, 1.5)
            a, rho = tensor_of(params), solves[0][1].reshape(2, 2)
            mapped = np.einsum("sab,bc,sdc->ad", a, rho, a.conj())  # one map step
            assert np.max(np.abs(mapped - rho)) < 1e-10
            assert abs(np.trace(rho) - 1.0) < 1e-12
            assert np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() > 0.0

    def test_energy_solves_share_one_pinned_matrix(self, ground, monkeypatch):
        builds = spy(monkeypatch, transfer, "transfer_matrix")
        solves = spy(monkeypatch, np.linalg, "solve")
        evolve.energy_density(ground, 1.0, 1.5, grad=True)
        assert len(builds) == 1 and len(solves) == 2
        (pinned, _), (adjoint, _) = (args for args, _ in solves)
        assert np.array_equal(adjoint, pinned.conj().T)

    def test_bfgs_ends_on_its_gradient_test(self, ground, monkeypatch):
        # the ground solve's BFGS status 0 is its gradient test (2 is a stop on
        # precision loss); a step's L-BFGS-B status 0 also covers its
        # relative-reduction stop, so the step objective's gradient is
        # recomputed at each step's end point instead
        solves = spy(monkeypatch, evolve, "minimize")
        evolve.ground_state_optimize(1.0, 1.5, FULL15, optimizer_seed=0)
        assert [res.status for _, res in solves] == [0]
        for t_max, dt in [(1.0, 0.1), (2.5, 0.05)]:
            solves.clear()
            spec = replace(tfim.REFERENCE_QUENCH, t_max=t_max, dt=dt)
            traj = evolve.evolve_exact_in_ansatz(spec, FULL15, "eigen", ground=ground)
            assert traj.complete and len(solves) == spec.n_steps
            for (objective, _), res in solves:
                _, grad = objective(res.x)
                assert np.max(np.abs(grad)) <= evolve.GTOL

    def test_reference_evaluation_budget(self, ground, monkeypatch):
        # 28.0 evaluations per step with BFGS, 25.6 with a 30-pair L-BFGS-B
        # memory and 34.4 with a 10-pair one
        solves = spy(monkeypatch, evolve, "minimize")
        spec = replace(tfim.REFERENCE_QUENCH, t_max=1.0)
        traj = evolve.evolve_exact_in_ansatz(spec, FULL15, "eigen", ground=ground)
        assert traj.complete and len(solves) == spec.n_steps
        assert np.mean([res.nfev for _, res in solves]) <= 27.0

    def test_full15_reference_tracks_free_fermion_echo(self, ground):
        spec = replace(tfim.REFERENCE_QUENCH, t_max=1.0)
        traj = evolve.evolve_exact_in_ansatz(spec, FULL15, "eigen", ground=ground)
        assert traj.complete and traj.n_steps == spec.n_steps
        r_ff = tfim.loschmidt_exact_ff(spec.g0, spec.g1, traj.times, J=spec.J)
        assert np.max(np.abs(traj.echoes - r_ff)) <= 0.02

    def test_reference_records_why_it_stopped(self, ground, monkeypatch):
        def diverges(fun, x0, **kwargs):
            return OptimizeResult(x=np.full(len(x0), np.nan), message="diverged")

        monkeypatch.setattr(evolve, "minimize", diverges)
        traj = evolve.evolve_exact_in_ansatz(SHORT, FULL15, "eigen", ground=ground)
        assert not traj.complete and traj.n_steps == 0
        assert traj.failure == (
            "NumericFailure: step 1: L-BFGS-B returned non-finite angles (diverged)"
        )

    @pytest.mark.parametrize("error", [NumericFailure, InvalidArgumentError])
    def test_reference_records_a_failing_objective(self, ground, monkeypatch, error):
        # the objective of step 2 raises; step 1 is kept
        steps = []
        real_ket, real_gradient = transfer.window_ket, transfer.cell_eigenvalue_gradient

        def counted_ket(*args):
            steps.append(args)
            return real_ket(*args)

        def fails_on_step_2(*args):
            if len(steps) == 2:
                raise error("forced")
            return real_gradient(*args)

        monkeypatch.setattr(transfer, "window_ket", counted_ket)
        monkeypatch.setattr(transfer, "cell_eigenvalue_gradient", fails_on_step_2)
        traj = evolve.evolve_exact_in_ansatz(SHORT, FULL15, "eigen", ground=ground)
        assert not traj.complete and traj.n_steps == 1
        assert traj.failure == f"{error.__name__}: forced"
        assert len(traj.angles) == len(traj.echoes) == len(traj.costs) == 2
        assert traj.echoes[1] > 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_step_costs_reject_a_non_finite_angle(self, bad):
        current = AnsatzParams(FULL15, np.linspace(-1.0, 1.0, 15))
        x = current.angles.copy()
        x[4] = bad
        gate = tfim.trotter_gate_first_order(1.0, 0.2, 0.1)
        layer, _ = circuits.evolution_gate_layer(tfim.REFERENCE_QUENCH)
        objective, _ = evolve._step_objective(tensor_of(current), gate, "eigen")
        probability = circuits.success_probability_fn(tensor_of(current), layer)
        pair = [current.angles, x]
        for cost, angles in [(objective, x), (probability, x), (probability, pair)]:
            with pytest.raises(InvalidArgumentError, match="angles must be finite"):
                cost(angles)

    def test_reference_records_a_non_finite_candidate(self, ground, monkeypatch):
        def evaluates_nan(fun, x0, **kwargs):
            fun(np.full(len(x0), np.nan))

        monkeypatch.setattr(evolve, "minimize", evaluates_nan)
        traj = evolve.evolve_exact_in_ansatz(SHORT, FULL15, "eigen", ground=ground)
        assert not traj.complete and traj.n_steps == 0
        assert traj.failure == "InvalidArgumentError: angles must be finite"

    @pytest.mark.parametrize("site", ["objective", "echo"])
    def test_reference_records_an_eigensolver_failure(self, ground, monkeypatch, site):
        # the one geev does not converge in step 2, called from the objective's
        # cell eigenpairs or from the echo's leading eigenpair; step 1 is kept
        steps = spy(monkeypatch, transfer, "window_ket")  # one call per step
        in_echo = []
        real_geev, real_echo = qcore._GEEV, evolve._echo_of_tensors

        def geev(*args, **kwargs):
            w, vl, vr, info = real_geev(*args, **kwargs)
            fails = len(steps) == 2 and bool(in_echo) == (site == "echo")
            return w, vl, vr, 1 if fails else info

        def echo_of_tensors(*tensors):
            in_echo.append(tensors)
            try:
                return real_echo(*tensors)
            finally:
                in_echo.pop()

        monkeypatch.setattr(qcore, "_GEEV", geev)
        monkeypatch.setattr(evolve, "_echo_of_tensors", echo_of_tensors)
        traj = evolve.evolve_exact_in_ansatz(SHORT, FULL15, "eigen", ground=ground)
        assert not traj.complete and traj.n_steps == 1
        assert traj.failure == "NumericFailure: eigensolver failed (geev info 1)"
        assert traj.echoes[1] > 0.0

    def test_eigen_needs_first_order_gates(self, ground):
        spec = replace(SHORT, trotter_order=2)
        with pytest.raises(InvalidArgumentError, match="first-order"):
            evolve.evolve_exact_in_ansatz(spec, FULL15, "eigen", ground=ground)

    @pytest.mark.parametrize("cost_mode", ["eigenvalue", "circuit_lw"])
    def test_unknown_cost_mode_rejected(self, ground, cost_mode):
        with pytest.raises(InvalidArgumentError, match="unknown cost mode"):
            evolve.evolve_exact_in_ansatz(
                tfim.REFERENCE_QUENCH, FULL15, cost_mode, ground=ground
            )

    @pytest.mark.parametrize("order", [1, 2])
    def test_circuit_reference_tracks_free_fermion_echo(
        self, golden_ground, monkeypatch, order
    ):
        # the gate layer is built once per run, the current state's side once per step
        layers = spy(monkeypatch, circuits, "evolution_gate_layer")
        sides = spy(monkeypatch, circuits, "success_probability_fn")
        spec = replace(SHORT, trotter_order=order)
        traj = evolve.evolve_exact_in_ansatz(spec, FULL15, "circuit_lt", ground=golden_ground)
        assert traj.complete and traj.n_steps == spec.n_steps
        assert len(layers) == 1 and len(sides) == spec.n_steps
        r_ff = tfim.loschmidt_exact_ff(spec.g0, spec.g1, traj.times, J=spec.J)
        assert np.max(np.abs(traj.echoes - r_ff)) <= 0.03

    def test_eigen_reference_builds_its_gate_once(self, golden_ground, monkeypatch):
        gates = spy(monkeypatch, tfim, "trotter_gate_first_order")
        traj = evolve.evolve_exact_in_ansatz(SHORT, FULL15, "eigen", ground=golden_ground)
        assert traj.complete and traj.n_steps == SHORT.n_steps
        assert len(gates) == 1

    def test_reference_builds_one_tensor_per_accepted_state(
        self, golden_ground, monkeypatch
    ):
        # the ground state's and each accepted state's, each serving its echo
        # and the next step's current state; candidates build with gradients
        calls = spy(monkeypatch, evolve, "tensor_of")
        traj = evolve.evolve_exact_in_ansatz(SHORT, FULL15, "eigen", ground=golden_ground)
        assert traj.complete
        assert no_grad_build_shapes(calls) == [(15,)] * (SHORT.n_steps + 1)

    @pytest.mark.parametrize(
        "J, g",
        [
            (np.nan, 1.5),
            (1.0, np.nan),
            (1.0, np.inf),
            (1.0, 1.5 + 0.1j),
            (1.0 + 0j, 1.5),
            (True, 1.5),
            (1.0, np.True_),
            ("1", 1.5),
            (1.0, None),
        ],
    )
    def test_non_finite_ground_field_rejected(self, monkeypatch, J, g):
        monkeypatch.setattr(evolve, "minimize", self.must_not_run)
        with pytest.raises(InvalidArgumentError, match="must be finite"):
            evolve.ground_state_optimize(J, g, FULL15)

    @pytest.mark.parametrize("optimizer_seed", [True, np.True_, -1, 2.5, None, "0"])
    def test_invalid_optimizer_seed_rejected(self, monkeypatch, optimizer_seed):
        monkeypatch.setattr(evolve, "minimize", self.must_not_run)
        with pytest.raises(InvalidArgumentError, match="optimizer_seed"):
            evolve.ground_state_optimize(1.0, 1.5, FULL15, optimizer_seed=optimizer_seed)

    def test_spsa_raises_on_constant_cost(self):
        with pytest.raises(NumericFailure, match="zero gradient estimate"):
            evolve.spsa_optimize(
                lambda xs: np.full(len(xs), 0.5), np.zeros(15), evolve.SPSA_STEPS, 0
            )

    def test_spsa_evaluates_each_pair_in_one_call(self):
        pairs = []

        def cost(xs):
            pairs.append(xs.copy())
            return np.sum(xs**2, axis=1)

        seed = np.linspace(-1.0, 1.0, 15)
        evolve.spsa_optimize(cost, seed, 3, 0)
        assert [p.shape for p in pairs] == [(2, 15)] * 3
        # the first pair is x + c_0 delta, x - c_0 delta with c_0 = c = 0.1
        plus, minus = pairs[0] - seed
        assert np.allclose(np.abs(plus), 0.1, rtol=0, atol=1e-15)
        assert np.allclose(minus, -plus, rtol=0, atol=1e-15)

    def test_unknown_init_scheme_rejected(self, ground):
        with pytest.raises(InvalidArgumentError, match="init scheme"):
            evolve.evolve_stochastic(SHORT, "linear", ground=ground)

    @pytest.mark.parametrize(
        "seeds, match",
        [
            ([0], "at least 2"),
            ([], "at least 2"),
            ([3, 3], "distinct"),
            ((s for s in [0, 4, 0]), "distinct"),
            ([0, -1], "nonnegative integer"),
            ([0, 1.5], "nonnegative integer"),
            ([True, 0], "nonnegative integer"),
            ([0, None], "nonnegative integer"),
        ],
    )
    def test_invalid_ensemble_rejected(self, monkeypatch, seeds, match):
        # rejected before the ground state is solved or any run starts
        for name in ("ground_state_optimize", "evolve_stochastic"):
            monkeypatch.setattr(evolve, name, self.must_not_run)
        with pytest.raises(InvalidArgumentError, match=match):
            evolve.ensemble_run(SHORT, "extrapolate", seeds)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, np.bool_(True), None, "3"])
    def test_invalid_run_seed_rejected(self, monkeypatch, seed):
        monkeypatch.setattr(evolve, "ground_state_optimize", self.must_not_run)
        with pytest.raises(InvalidArgumentError, match="nonnegative integer"):
            evolve.evolve_stochastic(SHORT, "extrapolate", seed=seed)

    @staticmethod
    def must_not_run(*args, **kwargs):
        raise AssertionError("ran before its options were checked")

    @pytest.mark.parametrize("entry", ["stochastic", "reference", "ensemble"])
    @pytest.mark.parametrize(
        "template, stacked, match",
        [
            ("Bogus", False, "unknown template"),
            ("Reduced8", True, "unknown template"),
            (FULL15, True, "one parameter set"),
        ],
    )
    def test_bad_template_or_ground_rejected(
        self, golden_ground, monkeypatch, entry, template, stacked, match
    ):
        # rejected before the ground state is solved or any step runs; a
        # stacked ground state is rejected as it is built, by AnsatzParams
        for name in ("ground_state_optimize", "_evolve"):
            monkeypatch.setattr(evolve, name, self.must_not_run)

        def ground():
            if stacked:
                return AnsatzParams(template, np.tile(golden_ground.angles, (2, 1)))
            return golden_ground

        run = {
            "stochastic": lambda: evolve.evolve_stochastic(
                SHORT, "extrapolate", template=template, ground=ground()
            ),
            "reference": lambda: evolve.evolve_exact_in_ansatz(
                SHORT, template, ground=ground()
            ),
            "ensemble": lambda: evolve.ensemble_run(
                SHORT, "extrapolate", [0, 1], template=template, ground=ground()
            ),
        }[entry]
        with pytest.raises(InvalidArgumentError, match=match):
            run()

    @pytest.mark.parametrize("entry", ["stochastic", "reference", "ensemble"])
    def test_a_missing_ground_state_is_solved_once(self, monkeypatch, entry):
        # the run from the solved ground state is the run given that state
        solves = spy(monkeypatch, evolve, "ground_state_optimize")
        run = {
            "stochastic": lambda **kw: evolve.evolve_stochastic(
                SHORT, "extrapolate", seed=3, **kw
            ),
            "reference": lambda **kw: evolve.evolve_exact_in_ansatz(SHORT, FULL15, **kw),
            "ensemble": lambda **kw: evolve.ensemble_run(SHORT, "copy", [0, 1], **kw),
        }[entry]
        solved = run()
        assert [args for args, _ in solves] == [(SHORT.J, SHORT.g0, FULL15)]
        given = run(ground=solves[0][1])
        assert len(solves) == 1
        names = ("echoes", "total_shots") if entry == "ensemble" else (
            "angles", "echoes", "costs", "cum_shots", "failure"
        )
        for name in names:
            assert np.array_equal(getattr(solved, name), getattr(given, name)), name

    def test_ensemble_takes_any_iterable_of_seeds(self, ground):
        stats = evolve.ensemble_run(
            SHORT, "copy", (s for s in (7, np.int64(2))), ground=ground
        )
        for row, seed in zip(stats.echoes, (7, 2)):
            run = evolve.evolve_stochastic(SHORT, "copy", seed=seed, ground=ground)
            assert np.array_equal(row, run.echoes)

    @pytest.mark.parametrize("entry", ["stochastic", "ensemble"])
    @pytest.mark.parametrize(
        "options, match",
        [
            ({"init_scheme": "bogus"}, "init scheme"),
            ({"init_scheme": "random"}, "init scheme"),
            ({"shots_per_eval": 0}, "shots_per_eval"),
        ],
        ids=["bogus-init", "random-init", "zero-shots"],
    )
    def test_bad_run_options_rejected_before_the_ground_solve(
        self, monkeypatch, entry, options, match
    ):
        for name in ("ground_state_optimize", "_evolve"):
            monkeypatch.setattr(evolve, name, self.must_not_run)
        kwargs = {"init_scheme": "extrapolate"} | options
        run = {
            "stochastic": lambda: evolve.evolve_stochastic(SHORT, **kwargs),
            "ensemble": lambda: evolve.ensemble_run(SHORT, seeds=[0, 1], **kwargs),
        }[entry]
        with pytest.raises(InvalidArgumentError, match=match):
            run()

    @pytest.mark.parametrize("shots", [0, -5, 2.5, True])
    def test_invalid_shot_counts_rejected(self, ground, shots):
        with pytest.raises(InvalidArgumentError, match="shots_per_eval"):
            evolve.evolve_stochastic(
                SHORT, "extrapolate", shots_per_eval=shots, ground=ground
            )


def patch_step_costs(monkeypatch, fail_after):
    """Count the candidates evaluated by each per-step cost (one per row of
    the raw angle stack), and make every cost built after the first
    ``fail_after`` raise :class:`NumericFailure`. Returns the per-step
    candidate counts."""
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
            evaluations[k] += len(candidates)
            return p(candidates)

        return counted

    monkeypatch.setattr(circuits, "success_probability_fn", patched)
    return evaluations


class TestStochastic:
    def test_seeded_full15_run_is_bit_identical(self, golden_ground):
        first, again = (
            evolve.evolve_stochastic(SHORT, "extrapolate", seed=3, ground=golden_ground)
            for _ in range(2)
        )
        assert first.template == FULL15
        assert first.complete and first.failure is None and first.n_steps == 3
        for name in ("angles", "echoes", "costs", "cum_shots"):
            assert np.array_equal(getattr(first, name), getattr(again, name))
        # pinned: reordering the +/- evaluations or their binomial draws
        # moves the accepted angles
        assert np.array_equal(first.angles[0], golden_ground.angles)
        assert np.max(np.abs(first.angles[1:] - GOLDEN_SEED3_ANGLES)) <= 1e-12
        assert first.cum_shots.tolist() == [0, 98304, 196608, 221184]

    def test_seeded_second_order_run_is_pinned(self, golden_ground):
        # the 16x16 odd/even window path of the cost circuit
        spec = replace(SHORT, trotter_order=2)
        traj = evolve.evolve_stochastic(spec, "extrapolate", seed=3, ground=golden_ground)
        assert traj.complete and traj.failure is None and traj.n_steps == 3
        assert np.array_equal(traj.angles[0], golden_ground.angles)
        assert np.max(np.abs(traj.angles[1:] - GOLDEN_SEED3_ORDER2_ANGLES)) <= 1e-12
        assert traj.cum_shots.tolist() == [0, 98304, 196608, 221184]

    @pytest.mark.parametrize("seed", [0, 3, 2**40])
    def test_step_streams_are_the_spawn_chain(self, seed):
        # each step takes three children of its link, and the next link is
        # the fourth child; child 0 stays reserved, so the SPSA and shot
        # streams are children 1 and 2
        link = np.random.SeedSequence(seed)
        for step in range(1, 31):
            children = link.spawn(3)
            for stream in (evolve.SPSA_STREAM, evolve.SHOT_STREAM):
                on_demand = evolve._step_stream(seed, step, stream)
                want = children[stream].generate_state(4)
                assert np.array_equal(on_demand.generate_state(4), want)
            link = link.spawn(1)[0]

    def test_one_tensor_per_accepted_state(self, golden_ground, monkeypatch):
        # the loop's builds: the ground state's and each accepted state's; the
        # cost builds every candidate tensor from an SPSA +/- pair of raw angles
        calls = spy(monkeypatch, evolve, "tensor_of")
        candidates = spy(monkeypatch, circuits, "tensor_of")
        traj = evolve.evolve_stochastic(SHORT, "extrapolate", seed=3, ground=golden_ground)
        assert traj.complete
        builds = no_grad_build_shapes(calls)
        assert len(builds) == len(calls)
        assert builds == [(15,)] * (SHORT.n_steps + 1)
        pairs = [np.shape(args[0]) for args, _ in candidates]
        assert pairs == [(2, 15)] * (4 * 6 * 2 + 6)

    @pytest.mark.parametrize("init_scheme", evolve.INIT_SCHEMES)
    def test_each_step_starts_spsa_from_its_predictor(
        self, golden_ground, monkeypatch, init_scheme
    ):
        # "copy" starts every step from the previous accepted angles, and
        # "extrapolate" does so on steps 1 and 2 only; from step 3 it starts
        # from 2 prev - prevprev
        starts = spy(monkeypatch, evolve, "spsa_optimize")
        spec = replace(SHORT, t_max=0.5)
        traj = evolve.evolve_stochastic(spec, init_scheme, seed=3, ground=golden_ground)
        assert traj.complete and len(starts) == spec.n_steps
        for step, ((_, x0, _, _), _) in enumerate(starts, start=1):
            want = traj.angles[step - 1]
            if init_scheme == "extrapolate" and step >= 3:
                want = 2.0 * want - traj.angles[step - 2]
            assert np.array_equal(x0, want), step

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

    def test_non_finite_candidate_is_recorded(self, ground, monkeypatch):
        # a NaN perturbation puts a NaN into both candidates of the first pair
        monkeypatch.setattr(evolve, "SPSA_C", np.nan)
        traj = evolve.evolve_stochastic(SHORT, "extrapolate", seed=3, ground=ground)
        assert not traj.complete and traj.n_steps == 0
        assert traj.failure == "InvalidArgumentError: angles must be finite"

    def test_echo_failure_is_recorded(self, golden_ground, monkeypatch):
        real = evolve._echo_of_tensors
        calls = []

        def fails_on_step_3(*tensors):
            calls.append(tensors)
            if len(calls) == 3:
                raise NumericFailure("no simple leading eigenvalue")
            return real(*tensors)

        monkeypatch.setattr(evolve, "_echo_of_tensors", fails_on_step_3)
        traj = evolve.evolve_stochastic(SHORT, "extrapolate", seed=3, ground=golden_ground)
        assert not traj.complete and traj.n_steps == 2
        assert traj.failure == "NumericFailure: no simple leading eigenvalue"
        assert np.max(np.abs(traj.angles[1:] - GOLDEN_SEED3_ANGLES[:2])) <= 1e-12
        assert traj.cum_shots.tolist() == [0, 98304, 196608]

    def test_ensemble_keeps_a_truncated_run(self, ground, monkeypatch):
        full = evolve.evolve_stochastic(SHORT, "extrapolate", seed=0, ground=ground)

        def no_solve(*args, **kwargs):
            raise AssertionError("the given ground state was solved again")

        monkeypatch.setattr(evolve, "ground_state_optimize", no_solve)
        # run 0 builds three step costs; run 1 fails on its second step
        patch_step_costs(monkeypatch, fail_after=SHORT.n_steps + 1)
        stats = evolve.ensemble_run(SHORT, "extrapolate", [0, 1], ground=ground)
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

    @pytest.mark.parametrize("init_scheme", ["copy"])
    def test_other_init_schemes_run_and_repeat(self, ground, init_scheme):
        first, again = (
            evolve.evolve_stochastic(SHORT, init_scheme, seed=5, ground=ground)
            for _ in range(2)
        )
        assert first.complete and first.n_steps == SHORT.n_steps
        assert first.init_scheme == init_scheme
        assert np.array_equal(first.angles, again.angles)
        assert np.all(np.isfinite(first.echoes)) and first.echoes[0] == 0.0
        assert np.diff(first.cum_shots).tolist() == [2 * 4 * 6 * 2048] * 2 + [2 * 6 * 2048]


def pair_with_mid_probability():
    """A current state, a candidate and the default gate layer at which the
    cost circuit succeeds with a probability well inside (0, 1)."""
    rng = np.random.default_rng(6)
    current = AnsatzParams(FULL15, 0.8 * rng.standard_normal(15))
    candidate = AnsatzParams(FULL15, current.angles + 0.25 * rng.standard_normal(15))
    layer, _ = circuits.evolution_gate_layer(tfim.REFERENCE_QUENCH)
    p = float(circuits.success_probability_fn(tensor_of(current), layer)(candidate))
    assert 0.05 < p < 0.95
    return current, candidate, layer, p


class TestSampledCost:
    def test_certain_outcomes(self):
        # the current state against itself through the identity layer always succeeds
        current = AnsatzParams(FULL15, np.linspace(-1.0, 1.0, 15))
        stack = np.tile(current.angles, (4, 1))
        for shots in (1, 2048):
            cost = evolve._sampled_cost(
                tensor_of(current), np.eye(16), shots, np.random.SeedSequence(0)
            )
            assert cost(stack) == [0.0] * 4

    def test_deterministic_given_seed(self):
        current, candidate, layer, _ = pair_with_mid_probability()
        stack = np.tile(candidate.angles, (20, 1))

        def draws(seed, shots=64):
            seedseq = np.random.SeedSequence(seed)
            return evolve._sampled_cost(tensor_of(current), layer, shots, seedseq)(stack)

        assert draws(1) == draws(1)
        assert draws(1) != draws(2)
        # every cost is 1 - (successes / shots)
        assert all(0.0 <= c <= 1.0 and (64 * c).is_integer() for c in draws(1))

    def test_rows_drawn_in_order(self):
        # one binomial draw per row, in row order, from the step's own stream
        current, candidate, layer, _ = pair_with_mid_probability()
        xs = np.array([candidate.angles, current.angles, 0.5 * candidate.angles])
        p_rows = circuits.success_probability_fn(tensor_of(current), layer)(xs)
        seedseq = np.random.SeedSequence(11)
        rng = np.random.default_rng(seedseq)
        expected = [1.0 - rng.binomial(100, min(p, 1.0)) / 100 for p in p_rows]
        assert evolve._sampled_cost(tensor_of(current), layer, 100, seedseq)(xs) == expected

    def test_estimator_unbiased(self):
        current, candidate, layer, p = pair_with_mid_probability()
        n_draws, shots = 400, 256
        cost = evolve._sampled_cost(
            tensor_of(current), layer, shots, np.random.SeedSequence(3)
        )
        p_hat = 1.0 - np.mean(cost(np.tile(candidate.angles, (n_draws, 1))))
        sigma = np.sqrt(p * (1 - p) / (shots * n_draws))
        assert abs(p_hat - p) < 4 * sigma

    def test_rms_error_scales_with_shot_noise(self):
        current, candidate, layer, p = pair_with_mid_probability()
        stack = np.tile(candidate.angles, (400, 1))
        for shots in (16, 1024):
            cost = evolve._sampled_cost(
                tensor_of(current), layer, shots, np.random.SeedSequence(shots)
            )
            rms = np.sqrt(np.mean((1.0 - np.array(cost(stack)) - p) ** 2))
            expected = np.sqrt(p * (1 - p) / shots)
            assert 0.8 * expected < rms < 1.2 * expected


class TestStepHelpers:
    def test_extrapolate_is_linear(self):
        prev, curr = np.linspace(-1.0, 1.0, 15), np.linspace(0.5, -0.5, 15)
        assert np.array_equal(evolve.extrapolate(prev, curr), 2.0 * curr - prev)

    def test_unwrap_toward_nearest_branch_changes_sign_at_most(self):
        rng = np.random.default_rng(8)
        reference = rng.uniform(-np.pi, np.pi, 15)
        angles = reference + rng.uniform(-np.pi, np.pi, 15)
        angles += 2.0 * np.pi * rng.integers(-3, 4, 15)
        out = evolve.unwrap_toward(reference, angles)
        turns = (out - angles) / (2.0 * np.pi)
        assert np.allclose(turns, np.round(turns), rtol=0, atol=1e-12)
        assert np.all(np.abs(out - reference) <= np.pi + 1e-12)
        u = build_unitary(AnsatzParams(FULL15, angles))
        u_out = build_unitary(AnsatzParams(FULL15, out))
        sign = np.sign(np.real(np.vdot(u, u_out)))
        assert np.max(np.abs(u_out - sign * u)) < 1e-12

    def test_spsa_zero_steps_returns_the_seed(self):
        seed = np.linspace(-1.0, 1.0, 15)

        def never(xs):
            raise AssertionError("zero iterations evaluated the cost")

        out, history = evolve.spsa_optimize(never, seed, 0, 0)
        assert np.array_equal(out, seed) and history == []

    def test_spsa_descends_a_quadratic_deterministically(self):
        target = np.linspace(-0.5, 0.5, 15)

        def cost(xs):
            return np.sum((xs - target) ** 2, axis=1)

        seed = np.zeros(15)
        out, history = evolve.spsa_optimize(cost, seed, 60, 4)
        again, _ = evolve.spsa_optimize(cost, seed, 60, 4)
        assert np.array_equal(out, again)
        assert len(history) == 60
        assert cost(out[None])[0] < 0.5 * cost(seed[None])[0]

    def test_trajectory_params_at(self):
        angles = np.arange(45.0).reshape(3, 15)
        traj = evolve.Trajectory(
            spec=SHORT, template=FULL15, init_scheme="copy", seed=0,
            shots_per_eval=1, times=SHORT.times[:3], angles=angles,
            echoes=np.zeros(3), costs=np.zeros(3), cum_shots=np.zeros(3, dtype=int),
        )
        assert traj.n_steps == 2
        params = traj.params_at(1)
        assert params.template == FULL15
        assert np.array_equal(params.angles, angles[1])
        assert not np.shares_memory(params.angles, angles)

    def test_trajectory_complete_follows_failure(self):
        traj = evolve.Trajectory(
            spec=SHORT, template=FULL15, init_scheme="copy", seed=0,
            shots_per_eval=1, times=SHORT.times[:1], angles=np.zeros((1, 15)),
            echoes=np.zeros(1), costs=np.zeros(1), cum_shots=np.zeros(1, dtype=int),
        )
        assert traj.complete and traj.failure is None
        traj.failure = "NumericFailure: forced"
        assert not traj.complete
        traj.failure = None
        assert traj.complete

    @pytest.mark.parametrize("theta", [0.3, 1.0, 2.0])
    def test_echo_of_product_state_quench(self, theta):
        # only a1 set: U = Rx(theta) (x) 1, so A^0 = cos(theta/2) 1 and
        # A^1 = -i sin(theta/2) 1, and E = cos(theta/2) against the zero state
        angles = np.zeros(15)
        angles[1] = theta
        r = evolve.echo_density(
            AnsatzParams(FULL15, np.zeros(15)), AnsatzParams(FULL15, angles)
        )
        assert abs(r + np.log(np.cos(0.5 * theta) ** 2)) < 1e-12
