import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

import quenchmps
from quenchmps import circuits, evolve, qcore, tfim, transfer
from quenchmps.ansatz import FULL15, AnsatzParams, build_unitary, tensor_of
from quenchmps.qcore import InvalidArgumentError, NumericFailure
from test_qcore import GEEV_FAILED, assert_matches_scipy_eig, geev_not_converged
from test_transfer import cell_matrix

H = 1e-5  # central-difference step; truncation and rounding both stay near 1e-10
SHORT = replace(tfim.REFERENCE_QUENCH, t_max=0.3)  # three steps
RUN_FIELDS = ("times", "angles", "echoes", "costs", "cum_shots", "failure")  # per run

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
            6.9600506806450274e-02, -1.5421948127051091e+00, 5.3428634845049394e-01,
            -6.0038963240489615e-02, -3.0887085581738194e-01, -1.1558554366342129e-01,
            8.7935392250216604e-01, -6.6078297768893235e-01, -4.7813294834222003e-01,
            -6.4615530342793115e-01, -6.9790971402262772e-02, -9.0751427052665687e-02,
            -9.4870365496107900e-01, -1.1329177137191839e+00, -6.2231984796351059e-01,
        ],
        [
            7.6202578791652792e-02, -1.5279870764119741e+00, 5.4698029104378965e-01,
            3.6324182740583330e-03, -3.1700058755955896e-01, -1.4964395111772044e-01,
            8.9139577071019116e-01, -6.4655330456145899e-01, -4.5668334348637507e-01,
            -6.5545100853559368e-01, -1.1838082900937065e-01, -7.2257755645385557e-02,
            -9.2841287096459113e-01, -1.1809269801240827e+00, -6.2978316082139907e-01,
        ],
        [
            4.6307931701824873e-02, -1.5332529239870982e+00, 5.9490771100924367e-01,
            9.6355778596085545e-02, -3.2350732964843171e-01, -1.4773552798409503e-01,
            9.1177199562330546e-01, -6.3467997430305612e-01, -4.0618175982305083e-01,
            -6.9010422555511675e-01, -1.5818782232237907e-01, -7.2940097585286856e-02,
            -8.8864850309984411e-01, -1.2260500151728053e+00, -5.9652539922153247e-01,
        ],
    ]
)

# accepted angles of evolve_stochastic(replace(SHORT, trotter_order=2),
# "extrapolate", seed=3) from the ground state GOLDEN_GROUND_ANGLES
GOLDEN_SEED3_ORDER2_ANGLES = np.array(
    [
        [
            6.7714616652498325e-02, -1.5609054416253927e+00, 5.3730891067664377e-01,
            -6.3498963365689207e-02, -3.0585405787337566e-01, -1.1741741243483340e-01,
            8.7686634098662075e-01, -6.5955958725710762e-01, -4.8984635915600461e-01,
            -6.2376976467498846e-01, -3.6834303686725654e-02, -1.1256934518739158e-01,
            -9.4458482025432755e-01, -1.1417690359124650e+00, -6.1964450687593675e-01,
        ],
        [
            8.7417456560858045e-02, -1.5587009738685909e+00, 5.3078517036840533e-01,
            -1.6424021903141101e-02, -3.1162160698978597e-01, -1.4256571969489540e-01,
            8.8310011251689957e-01, -6.4061107382815130e-01, -4.7706780269992222e-01,
            -6.3766287910072961e-01, -6.8806508509376488e-02, -9.7261050367108734e-02,
            -9.4533402340317707e-01, -1.1834592206771244e+00, -6.1772291853828643e-01,
        ],
        [
            9.0256576607501665e-02, -1.5713132409635453e+00, 5.5016639575213788e-01,
            5.2741769115724896e-02, -3.0746605361827178e-01, -1.5208671356315492e-01,
            9.0430750914066971e-01, -6.2130801058695084e-01, -4.4219839668752192e-01,
            -6.6857660362992166e-01, -1.0058105376151805e-01, -9.5159249514623706e-02,
            -9.3126649170027009e-01, -1.2242675487841141e+00, -5.9263096441613927e-01,
        ],
    ]
)

# evolve.minimize's two short stops: one iteration, and an Armijo test that no
# trial passes, with a sufficient-decrease factor far above 1
STOPS_SHORT = pytest.mark.parametrize(
    "name, value, status, stop",
    [
        ("MAX_ITER", 1, 1, "hit its iteration cap"),
        ("ARMIJO_C", 1e6, 2, "found no decrease"),
    ],
    ids=["iteration-cap", "line-search"],
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
    return AnsatzParams(np.array(GOLDEN_GROUND_ANGLES))


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


def stops_at(x):
    """A fake ``evolve.minimize`` that ignores its objective and returns the
    real minimizer's record of a flat function from ``x``: ``x`` itself, on
    status 0."""
    real = evolve.minimize

    def fake(fun, x0):
        res = real(lambda y: (0.0, np.zeros(len(y)), None), x)
        assert res.status == 0 and res.x is x
        return res

    return fake


def fail_step_2_geev(monkeypatch, site):
    """Make the one ``geev`` call not converge (NaN out) in step 2: in its
    "objective", keyed on the step's one ``window_ket`` call, or in its
    "echo", the second echo call, which the run takes as it accepts step 2."""
    steps = spy(monkeypatch, transfer, "window_ket")  # one call per step
    echo_calls, in_echo = [], []
    real_geev, real_echo = qcore._geev, evolve._echo_of_tensors

    def geev(m, vectors):
        out = real_geev(m, vectors)
        if site == "echo":
            fails = bool(in_echo) and len(echo_calls) == 2
        else:
            fails = not in_echo and len(steps) == 2
        return geev_not_converged(out) if fails else out

    def echo_of_tensors(*tensors):
        echo_calls.append(tensors)
        in_echo.append(tensors)
        try:
            return real_echo(*tensors)
        finally:
            in_echo.pop()

    monkeypatch.setattr(qcore, "_geev", geev)
    monkeypatch.setattr(evolve, "_echo_of_tensors", echo_of_tensors)


def accepted_gradient_max(traj, gate, cost_mode):
    """Largest component of the unscaled step objective's angle gradient at
    the accepted rows of a reference run, each from the previous row's tensor."""
    return max(
        np.max(np.abs(evolve._step_objective(tensor_of(prev), gate, cost_mode)(x)[1]))
        for prev, x in zip(traj.angles[:-1], traj.angles[1:])
    )


def no_grad_build_shapes(calls):
    """Angle shapes of the ``tensor_of`` calls recorded by :func:`spy` that
    built no gradient (a gradient build returns a pair), read from the
    ``angles`` of an :class:`AnsatzParams`."""
    return [
        np.shape(getattr(args[0], "angles", args[0]))
        for args, a in calls
        if not isinstance(a, tuple)
    ]


class TestGradients:
    def test_eigen_objective_gradient_matches_central_differences(self):
        rng = np.random.default_rng(1)
        spec = tfim.REFERENCE_QUENCH
        gate = tfim.trotter_gate_first_order(spec.J, spec.g1, spec.dt)
        for _ in range(5):
            current = AnsatzParams(rng.uniform(-np.pi, np.pi, 15))
            objective = evolve._step_objective(tensor_of(current), gate, "eigen")
            x = current.angles + 0.1 * rng.standard_normal(15)
            grad = objective(x)[1]
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
            current = AnsatzParams(rng.uniform(-np.pi, np.pi, 15))
            x = current.angles + 0.3 * rng.standard_normal(15)
            a_t = tensor_of(current)
            ket = transfer.window_ket(a_t, gate)
            b, db = tensor_of(AnsatzParams(x), grad=True)
            w, vl, vr = scipy.linalg.eig(cell_matrix(ket, b), left=True)
            k = np.argmax(np.abs(w))
            left, right = vl[:, k].conj(), vr[:, k]
            de = [cell_matrix(ket, b + d) - cell_matrix(ket, b - d) for d in db]
            dlam = np.array([left @ e @ right for e in de]) / (2.0 * (left @ right))
            value, grad, _ = evolve._step_objective(a_t, gate, "eigen")(x)
            assert abs(value + abs(w[k])) <= 1e-13
            slow = -np.real(np.conj(w[k]) * dlam) / abs(w[k])
            assert np.max(np.abs(grad - slow)) <= 1e-13

    def test_energy_gradient_matches_central_differences(self):
        def energy(y, grad=False):
            return evolve.energy_density(AnsatzParams(y), 1.0, 1.5, grad=grad)

        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.uniform(-np.pi, np.pi, 15)
            value, grad = energy(x, grad=True)
            assert value == energy(x)
            assert np.max(np.abs(grad - central_difference(energy, x))) <= 1e-8

    def test_tangent_metric_is_half_the_eigen_hessian_under_the_identity_gate(self, ground):
        # at B = A the "eigen" objective -|lambda|^2 of the cell matrix E^2 has
        # Hessian 2F; central differences of its exact gradient, at the ground
        # state and at random angles
        rng = np.random.default_rng(7)
        for x in [ground.angles] + [rng.uniform(-np.pi, np.pi, 15) for _ in range(4)]:
            a, da = tensor_of(x, grad=True)
            objective = evolve._step_objective(a, np.eye(4), "eigen")
            hessian = central_difference(lambda y: objective(y)[1], x)
            assert np.max(np.abs(2.0 * transfer.tangent_metric(a, da) - hessian)) <= 1e-6

    def test_eigen_gradient_has_no_part_on_the_tangent_metric_null_space(self, ground):
        # the "eigen" objective is the same at every tensor of one state, so
        # its gradient is orthogonal to F's null space (at most 2.8e-15 of |g|
        # here), and the reference step may scale by F's exact inverse on its
        # range. The circuit cost's two-cell window is not: at the same points
        # its largest component on that null space is 0.7-7.7% of |g|, at
        # either Trotter order
        spec = tfim.REFERENCE_QUENCH
        gate = tfim.trotter_gate_first_order(spec.J, spec.g1, spec.dt)
        rng = np.random.default_rng(9)
        points = [(ground.angles, ground.angles)]
        for _ in range(5):
            current = rng.uniform(-np.pi, np.pi, 15)
            points.append((current, current + 0.1 * rng.standard_normal(15)))
        for current, x in points:
            w, v = np.linalg.eigh(transfer.tangent_metric(*tensor_of(x, grad=True)))
            null = v[:, w <= transfer.TANGENT_RANK_RTOL * w[-1]]
            grad = evolve._step_objective(tensor_of(current), gate, "eigen")(x)[1]
            assert null.shape == (15, 7)
            assert np.max(np.abs(grad @ null)) <= 1e-12 * np.linalg.norm(grad)

    def test_tangent_metric_is_symmetric(self, ground):
        rng = np.random.default_rng(8)
        for x in [ground.angles] + [rng.uniform(-np.pi, np.pi, 15) for _ in range(10)]:
            metric = transfer.tangent_metric(*tensor_of(x, grad=True))
            assert metric.shape == (15, 15) and metric.dtype == float
            assert np.max(np.abs(metric - metric.T)) <= 1e-14

    @pytest.mark.parametrize("order", [1, 2])
    def test_circuit_objectives_take_their_boundary_copies(self, order):
        rng = np.random.default_rng(2)
        spec = replace(tfim.REFERENCE_QUENCH, trotter_order=order)
        current = AnsatzParams(rng.uniform(-np.pi, np.pi, 15))
        x = current.angles + 0.3 * rng.standard_normal(15)
        cand = AnsatzParams(x)
        layer, _ = circuits.evolution_gate_layer(spec)
        lt = evolve._step_objective(tensor_of(current), layer, "circuit_lt")
        value, grad = lt(x)
        assert value == -circuits.dense_success_probability(current, cand, spec)
        fd = central_difference(lambda y: lt(y)[0], x)
        assert np.max(np.abs(grad - fd)) <= 1e-8

    @pytest.mark.parametrize("grad", [False, True])
    def test_energy_of_a_product_state_raises(self, grad):
        # zero angles give A^0 = 1, A^1 = 0: E = 1, so the pinned matrix
        # 1 - E + |vec 1><vec 1| has rank 1
        product = AnsatzParams(np.zeros(15))
        with pytest.raises(NumericFailure, match="fixed-point solve"):
            evolve.energy_density(product, 1.0, 1.5, grad=grad)

    @pytest.mark.parametrize("bad", [None, np.inf, True], ids=["none", "inf", "bool"])
    @pytest.mark.parametrize("coupling", ["J", "g"])
    @pytest.mark.parametrize("state", ["product", "random"])
    @pytest.mark.parametrize("grad", [False, True])
    def test_energy_checks_its_couplings_before_the_solve(self, grad, state, coupling, bad):
        # the product state's singular solve raised NumericFailure first
        x = np.zeros(15) if state == "product" else np.random.default_rng(5).uniform(-3, 3, 15)
        couplings = {"J": 1.0, "g": 1.5} | {coupling: bad}
        with pytest.raises(InvalidArgumentError, match=f"{coupling} must be finite"):
            evolve.energy_density(x, couplings["J"], couplings["g"], grad=grad)

    @pytest.mark.parametrize(
        "call",
        [
            lambda xs: evolve.echo_density(xs, xs[0]),
            lambda xs: evolve.echo_density(xs[0], xs),
            lambda xs: evolve.energy_density(xs, 1.0, 1.5),
            lambda xs: evolve.energy_density(xs, 1.0, 1.5, grad=True),
        ],
        ids=["echo-first", "echo-second", "energy", "energy-grad"],
    )
    def test_echo_and_energy_take_one_parameter_set(self, call):
        # the transfer matrix behind them checks no shapes, so AnsatzParams is
        # what stops a stack
        stack = np.random.default_rng(6).uniform(-np.pi, np.pi, (2, 15))
        with pytest.raises(InvalidArgumentError, match="AnsatzParams holds one parameter set"):
            call(stack)

    def test_non_simple_top_eigenvalue_raises(self):
        # identity-state bra: the cell matrix is K[0] (x) 1, here a Jordan block
        ket = np.zeros((4, 2, 2), dtype=complex)
        ket[0] = [[1.0, 1.0], [0.0, 1.0]]
        b = np.zeros((2, 2, 2), dtype=complex)
        b[0] = np.eye(2)
        with pytest.raises(NumericFailure):
            transfer.cell_eigenvalue_gradient(ket, b, np.ones((1, 2, 2, 2)))


def test_package_import_leaves_scipy_unloaded():
    # the eigensolvers run on NumPy's LAPACK and the ground state and the
    # "eigen" steps on evolve.minimize, so only a circuit_lt run imports SciPy;
    # this process has it loaded already, hence a fresh interpreter
    src = str(Path(quenchmps.__file__).resolve().parent.parent)
    code = (
        "import sys, quenchmps.circuits, quenchmps.evolve; "
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]; "
        "assert not loaded, loaded"
    )
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


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
        # zero angles give U = 1 and the transfer spectrum {1, 1, 1, 1}; the
        # fake solve is the package's own minimizer on a flat function, which
        # returns its start on status 0
        monkeypatch.setattr(evolve, "minimize", stops_at(np.zeros(15)))
        spectra = spy(monkeypatch, qcore, "eigenvalues")
        with pytest.raises(NumericFailure, match="ground state is reducible"):
            evolve.ground_state_optimize(1.0, 1.5, FULL15)
        # the gap is read from one eigenvalue-only geev of the transfer matrix
        assert len(spectra) == 1 and np.allclose(spectra[0][1], 1.0, rtol=0, atol=1e-12)

    def test_non_stationary_ground_state_rejected(self, ground, monkeypatch):
        monkeypatch.setattr(evolve, "minimize", stops_at(ground.angles + 1e-3))
        with pytest.raises(NumericFailure, match="ground state is not stationary"):
            evolve.ground_state_optimize(1.0, 1.5, FULL15)

    def test_right_fixed_point_is_a_positive_fixed_point(self, ground, monkeypatch):
        # rho is the first solve of energy_density; BFGS also evaluates the
        # energy far from the ground state, hence the random tensors
        solves = spy(monkeypatch, np.linalg, "solve")
        rng = np.random.default_rng(4)
        points = [ground] + [
            AnsatzParams(rng.uniform(-np.pi, np.pi, 15)) for _ in range(5)
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
        # the ground solve's BFGS status 0 and an "eigen" step's Gauss-Newton
        # status 0 are the one minimizer's test on the unscaled angle
        # gradient, which its result carries as jac; a step's gradient is also
        # recomputed in the angles of each accepted row, after unwrapping,
        # from the previous row's tensor
        solves = spy(monkeypatch, evolve, "minimize")
        evolve.ground_state_optimize(1.0, 1.5, FULL15)
        (_, res), = solves
        assert res.status == 0 and np.max(np.abs(res.jac)) <= evolve.GTOL
        for t_max, dt in [(1.0, 0.1), (2.5, 0.05), (1.0, 0.025)]:
            solves.clear()
            spec = replace(tfim.REFERENCE_QUENCH, t_max=t_max, dt=dt)
            traj = evolve.evolve_exact_in_ansatz(spec, FULL15, "eigen", ground=ground)
            assert traj.complete and len(solves) == spec.n_steps
            assert [res.status for _, res in solves] == [0] * spec.n_steps
            assert max(np.max(np.abs(res.jac)) for _, res in solves) <= evolve.GTOL
            gate = tfim.trotter_gate_first_order(spec.J, spec.g1, spec.dt)
            assert accepted_gradient_max(traj, gate, "eigen") <= evolve.GTOL

    def test_tangent_metric_has_rank_8_along_the_reference(self, ground):
        # the bond-dimension-2 iMPS manifold has 8 real dimensions. Along this
        # run, |eigenvalue| 8 of F is at least 4.1e-5 of the largest (at
        # t = 2.7; 3.9e-4 at the ground state) and |eigenvalue| 9 at most
        # 5.7e-16 of it
        spec = replace(tfim.REFERENCE_QUENCH, t_max=3.5, dt=0.05)
        traj = evolve.evolve_exact_in_ansatz(spec, FULL15, "eigen", ground=ground)
        assert traj.complete and traj.n_steps == 70
        for x in traj.angles:
            w = np.abs(np.linalg.eigvalsh(transfer.tangent_metric(*tensor_of(x, grad=True))))
            assert np.sum(w > transfer.TANGENT_RANK_RTOL * w.max()) == 8

    def test_reference_evaluation_budget(self, golden_ground, monkeypatch):
        # evaluations per step, line-search trials included, to t = 1, from
        # the golden ground state, so that the budget tests the step rule and
        # not the ground solver's point of the gauge orbit. At dt = 0.1: 28.0
        # with BFGS, 25.6 with a 30-pair L-BFGS-B memory and 34.4 with a
        # 10-pair one; 15.3 in the coordinates scaled by the tangent metric
        # with its eigenvalues floored at METRIC_FLOOR, 13.9 (19 at most)
        # scaled by its exact inverse on its range, and 5.9 (7 at most) by
        # Gauss-Newton on 2F. At dt = 0.025: 15.2 floored, 8.2 (12 at most)
        # exactly scaled, and 3.8 (5 at most) by Gauss-Newton. From the
        # solved ground state, Gauss-Newton reads 5.6 (7) and 3.5 (9): two
        # steps near t* take 9 evaluations there
        solves = spy(monkeypatch, evolve, "minimize")
        for dt, budget, most in [(0.1, 6.5, 8), (0.025, 4.2, 6)]:
            solves.clear()
            spec = replace(tfim.REFERENCE_QUENCH, t_max=1.0, dt=dt)
            traj = evolve.evolve_exact_in_ansatz(
                spec, FULL15, "eigen", ground=golden_ground
            )
            assert traj.complete and len(solves) == spec.n_steps
            assert np.mean([res.nfev for _, res in solves]) <= budget
            assert max(res.nfev for _, res in solves) <= most

    def test_eigen_step_builds_one_tensor_per_evaluation(self, ground, monkeypatch):
        # the objective and its metric 2F share the candidate's gradient build,
        # so a step builds exactly nfev of them, the line search's included
        builds = spy(monkeypatch, evolve, "tensor_of")
        solves = spy(monkeypatch, evolve, "minimize")
        traj = evolve.evolve_exact_in_ansatz(SHORT, FULL15, "eigen", ground=ground)
        assert traj.complete and len(solves) == SHORT.n_steps
        gradient_builds = [a for _, a in builds if isinstance(a, tuple)]
        assert len(gradient_builds) == sum(res.nfev for _, res in solves)

    @STOPS_SHORT
    def test_reference_records_a_step_that_stops_short(
        self, ground, monkeypatch, name, value, status, stop
    ):
        # one Gauss-Newton iteration does not reach GTOL from the first seed,
        # and no step passes Armijo's test with a sufficient-decrease factor
        # far above 1, after every trial t is evaluated and counted; either
        # way step 1 raises, naming its last |g|_inf
        monkeypatch.setattr(evolve, name, value)
        solves = spy(monkeypatch, evolve, "minimize")
        traj = evolve.evolve_exact_in_ansatz(SHORT, FULL15, "eigen", ground=ground)
        assert not traj.complete and traj.n_steps == 0
        (_, res), = solves
        worst = np.max(np.abs(res.jac))
        assert worst > evolve.GTOL and res.status == status
        assert res.nfev == 1 + (1 if status == 1 else len(evolve.ARMIJO_STEPS))
        assert traj.failure == (
            f"NumericFailure: step 1: Gauss-Newton {stop} at |g|_inf = {worst:.3e}"
        )

    @STOPS_SHORT
    def test_ground_solve_that_stops_short_raises(
        self, monkeypatch, name, value, status, stop
    ):
        # the same two stops end the ground state's BFGS short of GTOL, and
        # the solve raises with its last |g|_inf
        monkeypatch.setattr(evolve, name, value)
        solves = spy(monkeypatch, evolve, "minimize")
        with pytest.raises(NumericFailure) as raised:
            evolve.ground_state_optimize(1.0, 1.5, FULL15)
        (_, res), = solves
        worst = np.max(np.abs(res.jac))
        assert worst > evolve.GTOL and res.status == status
        assert str(raised.value) == f"ground state: BFGS {stop} at |g|_inf = {worst:.3e}"

    def test_full15_reference_tracks_free_fermion_echo(self, ground):
        spec = replace(tfim.REFERENCE_QUENCH, t_max=1.0)
        traj = evolve.evolve_exact_in_ansatz(spec, FULL15, "eigen", ground=ground)
        assert traj.complete and traj.n_steps == spec.n_steps
        r_ff = tfim.loschmidt_exact_ff(spec.g0, spec.g1, traj.times, J=spec.J)
        assert np.max(np.abs(traj.echoes - r_ff)) <= 0.02

    def test_reference_cell_eigenpairs_match_scipy(self, ground, monkeypatch):
        # every cell matrix of the benchmark's reference run, the Full15
        # "eigen" reference to t = 1 through the first cusp
        pairs = spy(monkeypatch, qcore, "leading_eig")
        spec = replace(tfim.REFERENCE_QUENCH, t_max=1.0)
        assert evolve.evolve_exact_in_ansatz(spec, FULL15, "eigen", ground=ground).complete
        assert len(pairs) >= spec.n_steps
        for (m,), _ in pairs:
            assert_matches_scipy_eig(m)

    def test_reference_records_why_it_stopped(self, ground, monkeypatch):
        # the circuit_lt step's L-BFGS-B end point is checked for finite angles
        def diverges(fun, x0, **kwargs):
            return scipy.optimize.OptimizeResult(
                x=np.full(len(x0), np.nan), message="diverged"
            )

        monkeypatch.setattr(scipy.optimize, "minimize", diverges)
        traj = evolve.evolve_exact_in_ansatz(SHORT, FULL15, "circuit_lt", ground=ground)
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
        current = AnsatzParams(np.linspace(-1.0, 1.0, 15))
        x = current.angles.copy()
        x[4] = bad
        gate = tfim.trotter_gate_first_order(1.0, 0.2, 0.1)
        layer, _ = circuits.evolution_gate_layer(tfim.REFERENCE_QUENCH)
        objective = evolve._step_objective(tensor_of(current), gate, "eigen")
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
        fail_step_2_geev(monkeypatch, site)
        traj = evolve.evolve_exact_in_ansatz(SHORT, FULL15, "eigen", ground=ground)
        assert not traj.complete and traj.n_steps == 1
        assert traj.failure == "NumericFailure: " + GEEV_FAILED
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
        sides = spy(monkeypatch, circuits, "success_probability_gradient_fn")
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

    @pytest.mark.parametrize("cost_mode", ["eigen", "circuit_lt"])
    def test_reference_builds_one_tensor_per_accepted_state(
        self, golden_ground, monkeypatch, cost_mode
    ):
        # the ground state's and each accepted state's, each serving its echo
        # and the next step's current state; candidates build with gradients
        # (under finite differences, circuit_lt built one without per evaluation)
        calls = spy(monkeypatch, evolve, "tensor_of")
        candidates = spy(monkeypatch, circuits, "tensor_of")
        traj = evolve.evolve_exact_in_ansatz(
            SHORT, FULL15, cost_mode, ground=golden_ground
        )
        assert traj.complete
        assert no_grad_build_shapes(calls) == [(15,)] * (SHORT.n_steps + 1)
        assert no_grad_build_shapes(candidates) == []

    @pytest.mark.parametrize("order", [1, 2])
    def test_circuit_reference_steps_end_on_the_gradient_test(
        self, golden_ground, monkeypatch, order
    ):
        # on the exact gradient every step to t = 1 ends on L-BFGS-B's
        # projected-gradient test (status 0), at 22.1 and 23.2 evaluations per
        # step in the coordinates scaled by the tangent metric (33.1 and 34.5
        # without); under finite differences up to half of them ended ABNORMAL
        # or on "no reduction", at about 1,200 evaluations per step. The test
        # runs on the scaled gradient, so the unscaled one is recomputed in
        # the angles of each accepted row too
        results = spy(monkeypatch, scipy.optimize, "minimize")
        spec = replace(tfim.REFERENCE_QUENCH, t_max=1.0, trotter_order=order)
        traj = evolve.evolve_exact_in_ansatz(spec, FULL15, "circuit_lt", ground=golden_ground)
        assert traj.complete and len(results) == spec.n_steps
        assert [res.status for _, res in results] == [0] * spec.n_steps
        assert max(np.max(np.abs(res.jac)) for _, res in results) <= evolve.GTOL
        layer, _ = circuits.evolution_gate_layer(spec)
        assert accepted_gradient_max(traj, layer, "circuit_lt") <= evolve.GTOL
        assert np.mean([res.nfev for _, res in results]) <= 25.5

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

    def test_spsa_tie_returns_the_seed(self):
        # a +/- pair of equal costs is a zero update, never a stop
        seed = np.linspace(-1.0, 1.0, 15)
        out, history = evolve.spsa_optimize(
            lambda xs: np.full(len(xs), 0.5), seed, evolve.SPSA_STEPS, 0
        )
        assert np.array_equal(out, seed) and history == [0.5] * evolve.SPSA_STEPS

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
            *(
                pytest.param(
                    seeds, "seed must be an integer of at least 0",
                    id=f"seeds{i}-nonnegative integer",
                )
                for i, seeds in enumerate([[0, -1], [0, 1.5], [True, 0], [0, None]], 4)
            ),
            (5, "seeds must be an iterable, got 5"),  # escaped as a TypeError
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
        match = "seed must be an integer of at least 0"
        with pytest.raises(InvalidArgumentError, match=match):
            evolve.evolve_stochastic(SHORT, "extrapolate", seed=seed)

    @staticmethod
    def must_not_run(*args, **kwargs):
        raise AssertionError("ran before its options were checked")

    @pytest.mark.parametrize(
        "template, stacked, match, entry",
        [
            ("Bogus", False, "unknown template", "stochastic"),
            ("Bogus", False, "unknown template", "reference"),
            (FULL15, True, "one parameter set", "stochastic"),
            (FULL15, True, "one parameter set", "reference"),
            (FULL15, True, "one parameter set", "ensemble"),
        ],
    )
    def test_bad_template_or_ground_rejected(
        self, golden_ground, monkeypatch, entry, template, stacked, match
    ):
        # rejected before the ground state is solved or any step runs; a
        # stacked ground state is rejected as it is built, by AnsatzParams,
        # whatever the template; the ensemble takes no template
        for name in ("ground_state_optimize", "_evolve"):
            monkeypatch.setattr(evolve, name, self.must_not_run)

        def ground():
            if stacked:
                return AnsatzParams(np.tile(golden_ground.angles, (2, 1)))
            return golden_ground

        run = {
            "stochastic": lambda: evolve.evolve_stochastic(
                SHORT, "extrapolate", template=template, ground=ground()
            ),
            "reference": lambda: evolve.evolve_exact_in_ansatz(
                SHORT, template, ground=ground()
            ),
            "ensemble": lambda: evolve.ensemble_run(
                SHORT, "extrapolate", [0, 1], ground=ground()
            ),
        }[entry]
        with pytest.raises(InvalidArgumentError, match=match):
            run()

    def test_ensemble_takes_no_template(self, monkeypatch):
        for name in ("ground_state_optimize", "_evolve"):
            monkeypatch.setattr(evolve, name, self.must_not_run)
        with pytest.raises(TypeError, match="template"):
            evolve.ensemble_run(SHORT, "extrapolate", [0, 1], template=FULL15)

    @pytest.mark.parametrize("entry", ["stochastic", "reference", "ensemble"])
    @pytest.mark.parametrize("bad", [np.zeros(15), "x"], ids=["array", "string"])
    def test_ground_that_is_not_params_rejected(self, monkeypatch, entry, bad):
        # rejected before the ground state is solved or any step runs
        for name in ("ground_state_optimize", "_evolve"):
            monkeypatch.setattr(evolve, name, self.must_not_run)
        run = {
            "stochastic": lambda: evolve.evolve_stochastic(
                SHORT, "extrapolate", ground=bad
            ),
            "reference": lambda: evolve.evolve_exact_in_ansatz(SHORT, ground=bad),
            "ensemble": lambda: evolve.ensemble_run(
                SHORT, "extrapolate", [0, 1], ground=bad
            ),
        }[entry]
        with pytest.raises(InvalidArgumentError, match="None or an AnsatzParams, got"):
            run()

    @pytest.mark.parametrize("entry", ["stochastic", "reference", "ensemble"])
    @pytest.mark.parametrize("spec", [None, {"J": 1.0}], ids=["none", "dict"])
    def test_spec_that_is_not_a_quench_spec_rejected(self, monkeypatch, entry, spec):
        # rejected before the ground state is solved or any step runs; it
        # escaped as an AttributeError on its first attribute
        for name in ("ground_state_optimize", "_evolve"):
            monkeypatch.setattr(evolve, name, self.must_not_run)
        run = {
            "stochastic": lambda: evolve.evolve_stochastic(spec, "copy"),
            "reference": lambda: evolve.evolve_exact_in_ansatz(spec),
            "ensemble": lambda: evolve.ensemble_run(spec, "copy", [0, 1]),
        }[entry]
        with pytest.raises(InvalidArgumentError, match="spec must be a QuenchSpec, got"):
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
        if entry != "ensemble":
            solved, given = [solved], [given]
        assert len(solved) == len(given) == (2 if entry == "ensemble" else 1)
        for solved_run, given_run in zip(solved, given):
            for name in RUN_FIELDS:
                assert np.array_equal(
                    getattr(solved_run, name), getattr(given_run, name)
                ), name

    @pytest.mark.parametrize(
        "entry, option",
        [
            ("stochastic", "template"), ("stochastic", "init_scheme"),
            ("ensemble", "init_scheme"),
            ("reference", "template"), ("reference", "cost_mode"),
            ("ground", "template"),
        ],
    )
    @pytest.mark.parametrize(
        "bad", [[], {}, np.array([FULL15, "x"])], ids=["list", "dict", "array"]
    )
    def test_a_named_option_that_is_not_a_string_rejected(
        self, monkeypatch, entry, option, bad
    ):
        # a list or dict escaped as "TypeError: unhashable type", and a
        # 2-element array as numpy's ambiguous truth value ValueError
        ground_state_optimize = evolve.ground_state_optimize
        for name in ("ground_state_optimize", "_evolve", "minimize"):
            monkeypatch.setattr(evolve, name, self.must_not_run)
        run = {
            "stochastic": lambda **kw: evolve.evolve_stochastic(
                SHORT, **({"init_scheme": "copy"} | kw)
            ),
            "ensemble": lambda **kw: evolve.ensemble_run(
                SHORT, seeds=[0, 1], **({"init_scheme": "copy"} | kw)
            ),
            "reference": lambda **kw: evolve.evolve_exact_in_ansatz(SHORT, **kw),
            "ground": lambda **kw: ground_state_optimize(1.0, 1.5, **kw),
        }[entry]
        match = "unknown " + option.replace("_", " ")
        with pytest.raises(InvalidArgumentError, match=match):
            run(**{option: bad})

    def test_ensemble_takes_any_iterable_of_seeds(self, ground):
        runs = evolve.ensemble_run(
            SHORT, "copy", (s for s in (7, np.int64(2))), ground=ground
        )
        assert [run.seed for run in runs] == [7, 2]
        for run, seed in zip(runs, (7, 2)):
            alone = evolve.evolve_stochastic(SHORT, "copy", seed=seed, ground=ground)
            for name in RUN_FIELDS:
                assert np.array_equal(getattr(run, name), getattr(alone, name)), name

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

    # 2**62 shots an evaluation overflowed the int64 shot counter of the run
    @pytest.mark.parametrize("shots", [0, -5, 2.5, True, 2**62])
    def test_invalid_shot_counts_rejected(self, ground, shots):
        with pytest.raises(InvalidArgumentError, match="shots_per_eval"):
            evolve.evolve_stochastic(
                SHORT, "extrapolate", shots_per_eval=shots, ground=ground
            )

    def test_kernels_get_only_what_the_entries_checked(self, monkeypatch):
        # the kernels check none of their inputs: every call that the ground solve,
        # both references, a sampled step and the circuit entry points make hands
        # each of them what it needs, at both Trotter orders; each run completes,
        # so no call was cut short by a failure the spies do not record
        kernels = [
            (transfer, "transfer_matrix"), (transfer, "window_ket"),
            (transfer, "strand_products"), (qcore, "two_site_exp"),
            (qcore, "leading_eig"), (qcore, "eigenvalues"),
            (tfim, "trotter_gate_first_order"), (tfim, "trotter_gates_second_order"),
        ]
        calls = {name: spy(monkeypatch, owner, name) for owner, name in kernels}
        spec = tfim.QuenchSpec(dt=0.05, t_max=0.05)  # one step
        ground = evolve.ground_state_optimize(spec.J, spec.g0, FULL15)
        runs = [evolve.evolve_exact_in_ansatz(spec, ground=ground)]
        for order in (1, 2):
            ordered = replace(spec, trotter_order=order)
            runs.append(
                evolve.evolve_exact_in_ansatz(ordered, cost_mode="circuit_lt", ground=ground)
            )
            runs.append(evolve.evolve_stochastic(ordered, "extrapolate", ground=ground))
            circuits.dense_success_probability(ground, ground, ordered)
            circuits.build_cost_circuit(ground, ground, ordered)
        evolve.echo_density(ground, ground)
        assert all(run.complete for run in runs), [run.failure for run in runs]
        assert all(calls.values()), {name: len(c) for name, c in calls.items()}

        def is_tensor(a):
            return a.dtype == complex and a.shape == (2, 2, 2)

        for (a, b), _ in calls["transfer_matrix"]:
            assert is_tensor(a) and is_tensor(b)
        layer_sites = set()
        for (a, layer), _ in calls["window_ket"]:
            n = len(layer).bit_length() - 1
            assert is_tensor(a) and layer.dtype == complex and layer.shape == (2**n, 2**n)
            layer_sites.add(n)
        assert layer_sites == {2, 4}
        for (a, n_sites), _ in calls["strand_products"]:
            assert is_tensor(a) and qcore.is_count(n_sites) and n_sites >= 1
        for name in ("leading_eig", "eigenvalues"):
            for (m,), _ in calls[name]:
                assert m.dtype == complex and m.shape == (4, 4)
                assert np.isfinite(m).all() and np.abs(m).max() > 0.0
        for (h, tau), _ in calls["two_site_exp"]:
            assert h.dtype == complex and h.shape == (4, 4)
            assert np.max(np.abs(h - h.conj().T)) < 1e-10
            assert isinstance(tau, float) and 0.0 < tau < np.inf
        for name in ("trotter_gate_first_order", "trotter_gates_second_order"):
            for (J, g, dt), _ in calls[name]:
                assert (J, g, dt) == (spec.J, spec.g1, spec.dt)


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
    def test_step_streams_have_flat_keys(self, seed):
        # stream 0 is SPSA's and stream 1 the shots'; every (step, stream)
        # of a run draws its own state
        assert (evolve.SPSA_STREAM, evolve.SHOT_STREAM) == (0, 1)
        states = set()
        for step in range(1, 31):
            for stream in (evolve.SPSA_STREAM, evolve.SHOT_STREAM):
                seq = evolve._step_stream(seed, step, stream)
                assert seq.entropy == seed and seq.spawn_key == (step, stream)
                states.add(tuple(seq.generate_state(4)))
        assert len(states) == 30 * 2

    def test_runs_go_on_through_tied_pairs(self, ground, monkeypatch):
        """Seven runs that a gain calibrated on each step's first pair
        stopped early, on a tie there (order-2 seed 11 on step 1), reach
        t_max; a tie is a zero update, and the seven meet 6 ties."""
        real = evolve._sampled_cost
        ties = []

        def counting_ties(*args):
            cost = real(*args)

            def counted(xs):
                y_plus, y_minus = cost(xs)
                ties.append(y_plus == y_minus)
                return y_plus, y_minus

            return counted

        monkeypatch.setattr(evolve, "_sampled_cost", counting_ties)
        for order, seeds in [(1, (4, 5, 11)), (2, (5, 7, 9, 11))]:
            spec = replace(tfim.REFERENCE_QUENCH, trotter_order=order)
            for seed in seeds:
                traj = evolve.evolve_stochastic(
                    spec, "extrapolate", seed=seed, ground=ground
                )
                assert traj.complete and traj.n_steps == spec.n_steps, (order, seed)
        assert sum(ties) >= 1

    def test_ensemble_tracks_the_oracle_up_to_the_cusp(self, ground):
        """8 order-1 runs to t = 1 at 2048 shots: the mean over runs of each
        run's max |r - r_FF| for t <= t* reads 0.091 (0.969 with a gain
        calibrated on each step's first pair)."""
        spec = replace(tfim.REFERENCE_QUENCH, t_max=1.0)
        t_star = tfim.cusp_times(spec.g0, spec.g1, spec.t_max, J=spec.J)[0]
        r_ff = tfim.loschmidt_exact_ff(spec.g0, spec.g1, spec.times, J=spec.J)
        errors = []
        for seed in range(8):
            traj = evolve.evolve_stochastic(spec, "extrapolate", seed=seed, ground=ground)
            assert traj.complete
            errors.append(np.max(np.abs(traj.echoes - r_ff)[spec.times <= t_star]))
        assert np.mean(errors) <= 0.3

    def test_echo_eigenvalues_match_scipy_zgeev(self, ground, monkeypatch):
        # the mixed transfer matrices of the benchmark's ensemble run seeds
        # 0-3, against SciPy's wrapper of the same LAPACK routine
        solves = spy(monkeypatch, qcore, "eigenvalues")
        for seed in range(4):
            traj = evolve.evolve_stochastic(
                tfim.REFERENCE_QUENCH, "extrapolate", seed=seed, ground=ground
            )
            assert traj.complete
        assert len(solves) == 4 * tfim.REFERENCE_QUENCH.n_steps
        for (m,), w in solves:
            want, _, _, info = scipy.linalg.lapack.zgeev(m, compute_vl=0, compute_vr=0)
            assert info == 0 and np.max(np.abs(w - want)) <= 1e-14

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

    def test_records_an_eigensolver_failure_in_an_echo(self, golden_ground, monkeypatch):
        # step 2's echo, taken as step 2 is accepted, truncates the run before
        # step 2; the rows kept are those of the run without the failure
        full = evolve.evolve_stochastic(SHORT, "extrapolate", seed=3, ground=golden_ground)
        fail_step_2_geev(monkeypatch, "echo")
        pairs = spy(monkeypatch, qcore, "leading_eig")
        traj = evolve.evolve_stochastic(SHORT, "extrapolate", seed=3, ground=golden_ground)
        assert full.complete and pairs == []  # the echo's geev computes no eigenvectors
        assert not traj.complete and traj.n_steps == 1
        assert traj.failure == "NumericFailure: " + GEEV_FAILED
        for name in ("times", "angles", "echoes", "costs", "cum_shots"):
            assert np.array_equal(getattr(traj, name), getattr(full, name)[:2]), name

    def test_ensemble_keeps_a_truncated_run(self, ground, monkeypatch):
        full = evolve.evolve_stochastic(SHORT, "extrapolate", seed=0, ground=ground)
        unpatched = evolve.evolve_stochastic(SHORT, "extrapolate", seed=1, ground=ground)

        def no_solve(*args, **kwargs):
            raise AssertionError("the given ground state was solved again")

        monkeypatch.setattr(evolve, "ground_state_optimize", no_solve)
        # run 0 builds three step costs; run 1 fails on its second step
        patch_step_costs(monkeypatch, fail_after=SHORT.n_steps + 1)
        first, second = evolve.ensemble_run(SHORT, "extrapolate", [0, 1], ground=ground)
        assert first.complete
        for name in RUN_FIELDS:
            assert np.array_equal(getattr(first, name), getattr(full, name)), name
        assert second.seed == 1 and second.n_steps == 1
        assert second.failure == "NumericFailure: forced"
        for name in ("times", "angles", "echoes", "costs", "cum_shots"):
            assert np.array_equal(getattr(second, name), getattr(unpatched, name)[:2]), name

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
    current = AnsatzParams(0.8 * rng.standard_normal(15))
    candidate = AnsatzParams(current.angles + 0.25 * rng.standard_normal(15))
    layer, _ = circuits.evolution_gate_layer(tfim.REFERENCE_QUENCH)
    p = float(circuits.success_probability_fn(tensor_of(current), layer)(candidate))
    assert 0.05 < p < 0.95
    return current, candidate, layer, p


class TestSampledCost:
    def test_certain_outcomes(self):
        # the current state against itself through the identity layer always succeeds
        current = AnsatzParams(np.linspace(-1.0, 1.0, 15))
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
        u = build_unitary(AnsatzParams(angles))
        u_out = build_unitary(AnsatzParams(out))
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

    @pytest.mark.parametrize("steps", [0, 1, 6, 24])
    def test_spsa_iterates_equal_the_unfactored_loop(self, steps):
        # the reference loop forms each pair as x +/- (c_k delta) and steps
        # by x - a_k (g delta); spsa_optimize builds the +/- signs up front
        # and steps by x - (a_k g) delta: every pair, iterate and mean cost
        # is the same float. The cost is sampled at 4 shots, so some pairs tie.
        def reference_spsa(cost, x0, steps, rng_seed):
            rng = np.random.default_rng(rng_seed)
            x, history = x0, []
            offset = evolve.SPSA_A_FRACTION * steps
            deltas = rng.integers(0, 2, size=(steps, len(x))) * 2.0 - 1.0
            for k, delta in enumerate(deltas):
                ck = evolve.SPSA_C / (k + 1) ** evolve.SPSA_GAMMA
                y_plus, y_minus = cost(x + np.array([[1.0], [-1.0]]) * (ck * delta))
                ghat = (y_plus - y_minus) / (2.0 * ck) * delta
                ak = evolve.SPSA_A / (k + 1 + offset) ** evolve.SPSA_ALPHA
                x = x - ak * ghat
                history.append(0.5 * (y_plus + y_minus))
            return x, history

        target = np.linspace(-0.5, 0.5, 15)

        def sampled_cost(pairs, costs):
            rng = np.random.default_rng(11)

            def cost(xs):
                pairs.append(xs.copy())
                p = np.exp(-np.sum((xs - target) ** 2, axis=1))
                costs.append([1.0 - rng.binomial(4, q) / 4 for q in p.tolist()])
                return costs[-1]

            return cost

        seed = target + 0.2 * np.cos(np.arange(15.0))
        got_pairs, want_pairs, costs = [], [], []
        got = evolve.spsa_optimize(sampled_cost(got_pairs, costs), seed, steps, 5)
        want = reference_spsa(sampled_cost(want_pairs, []), seed, steps, 5)
        assert len(got_pairs) == len(want_pairs) == steps
        for got_pair, want_pair in zip(got_pairs, want_pairs):
            assert np.array_equal(got_pair, want_pair)
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]
        if steps == 0:
            assert got[0] is seed
        ties = sum(plus == minus for plus, minus in costs)
        assert steps < 6 or 0 < ties < steps, costs  # tied and untied pairs

    def test_trajectory_params_at(self):
        angles = np.arange(45.0).reshape(3, 15)
        traj = evolve.Trajectory(
            spec=SHORT, template=FULL15, init_scheme="copy", seed=0,
            shots_per_eval=1, times=SHORT.times[:3], angles=angles,
            echoes=np.zeros(3), costs=np.zeros(3), cum_shots=np.zeros(3, dtype=int),
        )
        assert traj.n_steps == 2
        params = traj.params_at(1)
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
            AnsatzParams(np.zeros(15)), AnsatzParams(angles)
        )
        assert abs(r + np.log(np.cos(0.5 * theta) ** 2)) < 1e-12

