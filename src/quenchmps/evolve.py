"""Time evolution of the quench: ground-state preparation, one step loop
with two correctors, and ensemble experiments.

One loop owns every run (:func:`_evolve`). It starts from the variational
ground state (:func:`ground_state_optimize`, BFGS on the exact energy
gradient), and each step then runs

    predict: seed from the previous step under "copy" and on steps 1 and 2,
             else linearly from the two previous steps (``extrapolate``)
      -> correct: the driver's corrector moves the seed from the current
                  state's MPS tensor
      -> accept:  unwrap the angles, build their tensor once, take its echo
                  against the ground state's tensor, add up the shots.

The deterministic reference (:func:`evolve_exact_in_ansatz`) corrects on the
tangent metric: "eigen" by Gauss-Newton, "circuit_lt" by metric-scaled
L-BFGS-B. The ground state and the "eigen" steps share one NumPy minimizer
(:func:`minimize`) and the eigensolvers run on NumPy's LAPACK, so importing
the package loads no SciPy; "circuit_lt" imports SciPy's L-BFGS-B when it
runs. The sampled
experiment (:func:`evolve_stochastic`) corrects with SPSA
(:func:`spsa_optimize`) on the measured cost 1 - p_hat, drawn from per-step
streams (:func:`_step_stream`), so the circuit acts as a stochastic
correction on top of the classical prediction. :func:`ensemble_run` runs it
over many seeds from one ground state.
"""

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import circuits, qcore, tfim, transfer
from .ansatz import FULL15, N_ANGLES, AnsatzParams, tensor_of
from .qcore import InvalidArgumentError, NumericFailure, check_choice, check_count, check_reals

INIT_SCHEMES = ("copy", "extrapolate")
# largest gradient component at which minimize (the ground state's BFGS and an
# "eigen" step) and "circuit_lt"'s scaled L-BFGS-B stop, above the rounding
# floor (~1e-10)
GTOL = 1e-7
# least eigenvalue ratio w / w_max of F that the "circuit_lt" step's scaling S
# takes (see evolve_exact_in_ansatz). Its two-cell window cost bends along F's
# null space (its gradient there is 0.7-7.7% of its norm): F's exact inverse on
# its range takes 37.8 / 38.8 evaluations per step at orders 1 / 2 (dt = 0.1,
# to t = 2.5) with 3 steps of 50 on status 2, this floor 19.6 / 22.3 with none;
# floors from 1e-2 to 7e-2 leave larger accepted gradients (up to 1.35e-7)
METRIC_FLOOR = 2e-2
# iteration cap of minimize: the ground state takes 31; "eigen" steps take at
# most 7 at dt <= 0.1 and 32 at dt = 0.5, where 2F is further from the Hessian
MAX_ITER = 100
ARMIJO_C = 1e-4  # its line search's sufficient-decrease factor, over t = 1 to 2^-29
ARMIJO_STEPS = 0.5 ** np.arange(30)
_STOPS = ("passed its gradient test", "hit its iteration cap", "found no decrease")
GROUND_GAP_TOL = 1e-6  # least 1 - |lambda_2| of an accepted ground state
GROUND_GRAD_TOL = 1e-6  # largest energy gradient component of an accepted ground state
BOOTSTRAP_FACTOR = 4  # SPSA budget multiplier while extrapolation lacks history
# SPSA gains a_k = a/(k+1+A)^alpha, c_k = c/(k+1)^gamma, with Spall's practical
# values (IEEE TAES 34, 817, 1998); see spsa_optimize
SPSA_STEPS = 6  # iterations per step after the bootstrap
SPSA_C = 0.1
SPSA_ALPHA = 0.602
SPSA_GAMMA = 0.101
SPSA_A_FRACTION = 0.1  # A as a fraction of the iterations
# a, chosen from 0.05, 0.07, 0.1 and 0.15 for the lowest median order-1 echo
# error up to t* over run seeds 48-95 at 2048 shots
SPSA_A = 0.07
_PLUS_MINUS = np.array([[1.0], [-1.0]])  # rows of an SPSA pair x +/- c_k delta
SPSA_STREAM, SHOT_STREAM = 0, 1  # a stochastic step's streams


@dataclass
class Trajectory:
    """Time series of one evolution run, one row per time that it reached.

    ``spec``: the quench; ``template``: a label, always ``FULL15``;
    ``init_scheme``: the predictor ("extrapolate" for the reference);
    ``seed``: the run seed (``None`` for the reference); ``shots_per_eval``:
    shots per cost evaluation (0 for the reference). ``times``: ``spec.times``
    up to the last accepted step. ``angles``: row 0 the ground state, row n
    step n's accepted angles, unwrapped toward row n - 1. ``echoes``: the
    echo rate of each row against row 0 (0 at row 0). ``costs``: 0 at row 0,
    then what the corrector reports, which differs per driver: the reference
    stores its minimized objective at the accepted angles, -|lambda| for
    "eigen" and -p for "circuit_lt"; the sampled run stores the mean measured
    1 - p_hat of its last SPSA +/- pair, not the cost at the accepted angles.
    ``cum_shots``: the shots spent up to each step. ``failure``: ``None``, or
    "<exception type>: <message>" of the step that ended the run early: its
    cost, tensor or echo raised, or its reference step stopped short of its
    gradient test ("eigen") or returned non-finite angles ("circuit_lt").
    SPSA has no stop of its own; a tied +/- pair is a zero update.
    """

    spec: tfim.QuenchSpec
    template: str
    init_scheme: str
    seed: int | None
    shots_per_eval: int
    times: np.ndarray = field(repr=False)
    angles: np.ndarray = field(repr=False)
    echoes: np.ndarray = field(repr=False)
    costs: np.ndarray = field(repr=False)
    cum_shots: np.ndarray = field(repr=False)
    failure: str | None = None

    @property
    def complete(self):
        return self.failure is None

    def params_at(self, step):
        return AnsatzParams(self.angles[step])

    @property
    def n_steps(self):
        return len(self.times) - 1


def echo_density(params_0, params_t):
    """Loschmidt echo rate -log |lambda(E_{A(0),A(t)})|^2 from the largest
    |eigenvalue| of the one-site mixed transfer matrix (:func:`qcore.eigenvalues`).
    Kept for ``check_outputs`` in ``bench/harness.py``."""
    return _echo_of_tensors(tensor_of(AnsatzParams(params_0)), tensor_of(AnsatzParams(params_t)))


def _echo_of_tensors(a_0, a_t):
    """:func:`echo_density` of the MPS tensors ``a_0`` and ``a_t``: max |w| over
    the eigenvalues w of one ``geev`` without eigenvectors (:func:`qcore.eigenvalues`)."""
    lam = np.abs(qcore.eigenvalues(transfer.transfer_matrix(a_0, a_t))).max()
    return float(-np.log(max(lam**2, 1e-300)))


def energy_density(params, J, g, grad=False):
    """Energy per site of the iMPS, e = sum_{t,s} h[t,s] Tr[P_s rho P_t^dag],
    with P the two-site strand products, the identity as left fixed point
    (exact for left-isometric tensors) and rho the trace-one right fixed point
    of T(X) = sum_s A^s X A^s^dag, whose matrix is E = ``transfer_matrix(a, a)``.
    As <vec 1| is a left null vector of 1 - E, rho is one solve with the pinned
    matrix P = 1 - E + |vec 1><vec 1|: P vec rho = vec 1
    (:func:`transfer.right_fixed_point`).

    With ``grad``, returns ``(e, de/dtheta)``. Only rho moves besides the
    tensors, so for a tangent dA (from ``tensor_of(params, grad=True)``)

        de = 2 Re sum_{t,s} h[t,s] Tr[dP_s rho P_t^dag] + Tr[Y dT(rho)],
        dT(rho) = sum_s (dA^s rho A^s^dag + A^s rho dA^s^dag),

    where Y solves the adjoint equation Y - T^dag(Y) = H_env - e 1, with
    H_env = sum_{t,s} h[t,s] P_t^dag P_s. That is the solve on the same pinned
    matrix, P^dag vec Y = vec H_env: <vec rho| applied to it gives Tr Y = e,
    which supplies the -e 1. The value is the same float with and without
    ``grad``. A ``J`` or ``g`` that :func:`tfim.bond_hamiltonian` rejects, or
    a stack of parameter sets, raises :class:`InvalidArgumentError` before the
    solve; a singular pinned matrix, as for a product state, whose fixed point
    is not unique, raises :class:`NumericFailure`.
    """
    h2 = tfim.bond_hamiltonian(J, g)
    params = AnsatzParams(params)
    if grad:
        a, da = tensor_of(params, grad=True)
    else:
        a = tensor_of(params)
    pinned, rho = transfer.right_fixed_point(a)
    prods = transfer.strand_products(a, 2)
    value = float(np.einsum("ts,sab,bc,tac->", h2, prods, rho, prods.conj()).real)
    if not grad:
        return value
    cotangent = np.einsum("ts,bc,tac->sab", h2, rho, prods.conj())  # on P_s
    direct = da.reshape(len(da), 8) @ transfer.pair_cotangent(a, cotangent).reshape(8)
    h_env = np.einsum("ts,tca,scb->ab", h2, prods.conj(), prods)
    y = transfer.pinned_solve(pinned.conj().T, h_env.reshape(4)).reshape(2, 2)
    # Tr[Y dT(rho)] = 2 Re sum_s Tr[Y dA^s rho A^s^dag] for Hermitian Y and rho
    moved = np.einsum("ab,ksbc,cd,sad->k", y, da, rho, a.conj())
    return value, 2.0 * (direct + moved).real


def minimize(fun, x0):
    """Minimize ``fun(x)`` = (value, gradient g, metric) from ``x0`` by
    x <- x + t p, with t the first of ``ARMIJO_STEPS`` (1, 1/2, ...) that
    passes Armijo's test. A callable metric() gives the Gauss-Newton matrix G
    at x, and p = -G+ g, G+ the pseudo-inverse on G's eigenvalues above
    ``transfer.TANGENT_RANK_RTOL`` times the largest. A metric of ``None``
    makes it BFGS: p = -H g, with H = 1 at x0 and, after each accepted step
    s = t p with y the change of g, H <- V H V^T + s s^T / s^T y,
    V = 1 - s y^T / s^T y, skipped unless s^T y > 0 (Nocedal and Wright,
    ch. 6).

    It stops on status 0 once no component of g exceeds ``GTOL`` (a NaN one
    does), on 1 after ``MAX_ITER`` iterations and on 2 when no t passes.
    Returns a record with ``x``, ``fun``, ``jac`` (g at x), ``nit``,
    ``nfev`` (every evaluation, the line search's included), ``status`` and
    ``message``, which names the method, the stop and the last |g|_inf.
    """
    x, (value, grad, metric), nfev, nit, status = x0, fun(x0), 1, 0, 0
    bfgs = metric is None
    inv_hess = np.eye(len(x0))
    while not (worst := np.abs(grad).max()) <= GTOL:
        if nit == MAX_ITER:
            status = 1
            break
        if bfgs:
            step = -(inv_hess @ grad)
        else:
            w, v = np.linalg.eigh(metric())
            kept = w > transfer.TANGENT_RANK_RTOL * w[-1]
            step = v[:, kept] @ ((grad @ v[:, kept]) / -w[kept])
        for t in ARMIJO_STEPS:
            nfev += 1
            evaluated = fun(x + t * step)
            if evaluated[0] <= value + ARMIJO_C * t * (grad @ step):
                break
        else:
            status = 2
            break
        if bfgs:
            s, y = t * step, evaluated[1] - grad
            if (sy := s @ y) > 0.0:
                v = np.eye(len(x0)) - np.outer(s, y) / sy
                inv_hess = v @ inv_hess @ v.T + np.outer(s, s) / sy
        x, (value, grad, metric), nit = x + t * step, evaluated, nit + 1
    method = "BFGS" if bfgs else "Gauss-Newton"
    return SimpleNamespace(
        x=x, fun=value, jac=grad, nit=nit, nfev=nfev, status=status,
        message=f"{method} {_STOPS[status]} at |g|_inf = {worst:.3e}",
    )


def ground_state_optimize(J, g, template):
    """Variational ground state of H(g) at bond dimension 2.

    One BFGS minimization (:func:`minimize`) of :func:`energy_density` on its
    exact angle gradient, from the fixed start 0.4 N(0, 1) drawn by
    ``default_rng(0)``. Which point of the state's gauge orbit it returns is
    set by that start and that update rule; the sampled runs from it depend
    on the point. A solve that stops on the iteration cap or finds no
    decrease raises :class:`NumericFailure` with the solver's message. The
    end point is checked, not trusted: :class:`NumericFailure`, naming the
    offending value, is raised when the solved state's transfer matrix has a
    second eigenvalue within ``GROUND_GAP_TOL`` of the unit circle (a
    reducible state, where BFGS can stop on a saddle) or when a component of
    its energy gradient exceeds ``GROUND_GRAD_TOL``. A ``template`` other than
    ``FULL15``, and a ``J`` or ``g`` that :func:`qcore.check_reals` rejects,
    raise :class:`InvalidArgumentError` before solving.
    """
    check_choice("template", template, (FULL15,))
    check_reals(J=J, g=g)
    x0 = 0.4 * np.random.default_rng(0).standard_normal(N_ANGLES)
    res = minimize(lambda x: (*energy_density(x, J, g, grad=True), None), x0)
    if res.status != 0:
        raise NumericFailure(f"ground state: {res.message}")
    ground = AnsatzParams(res.x)
    a = tensor_of(ground)
    lam2 = np.sort(np.abs(qcore.eigenvalues(transfer.transfer_matrix(a, a))))[-2]
    if not 1.0 - lam2 >= GROUND_GAP_TOL:
        raise NumericFailure(
            "ground state is reducible: "
            f"1 - |lambda_2| = {1.0 - lam2:.3e} for its second transfer eigenvalue"
        )
    worst = np.max(np.abs(energy_density(ground, J, g, grad=True)[1]))
    if not worst <= GROUND_GRAD_TOL:
        raise NumericFailure(
            f"ground state is not stationary: largest energy gradient component {worst:.3e}"
        )
    return ground


def extrapolate(theta_prev, theta_curr):
    """Linear extrapolation 2*curr - prev from the two previous steps' angles.

    Angles must be unwrapped (continuous across steps)."""
    return 2.0 * theta_curr - theta_prev


def unwrap_toward(reference, angles):
    """Shift each angle by multiples of 2*pi to the branch nearest the
    reference (a 2*pi shift changes the unitary by at most a global sign,
    which no cost or echo observes)."""
    two_pi = 2.0 * np.pi
    return angles + two_pi * np.round((reference - angles) / two_pi)


def spsa_optimize(cost, x0, steps, rng_seed):
    """Simultaneous-perturbation minimization of a noisy scalar cost from the
    angle array ``x0`` in ``steps`` iterations, on Spall's schedule from the
    first iteration on: iteration k = 0, 1, ... perturbs by
    c_k = ``SPSA_C`` / (k + 1)^``SPSA_GAMMA`` and steps by
    a_k = ``SPSA_A`` / (k + 1 + A)^``SPSA_ALPHA``, A = ``SPSA_A_FRACTION`` *
    ``steps``. A pair that measures equal costs (a shot-noise tie) gives a
    zero update, and the iterations go on.

    Rademacher perturbation directions and their +/- pairs, all built up front
    from one draw (the same stream as one draw per iteration); a product with
    +/-1 is exact, so x - (a_k g) delta is the float x - a_k (g delta). ``cost``
    takes a (2, n) stack of angles, the pair x + c_k delta, x - c_k delta in
    that order, and returns the two costs; it is called once per iteration, so
    a sampled cost draws the + evaluation before the - one. Deterministic
    given ``rng_seed``. Returns the final angle array (``x0`` itself after
    zero iterations) and the per-iteration mean measured cost.
    """
    rng = np.random.default_rng(rng_seed)
    x = x0
    offset = SPSA_A_FRACTION * steps
    history = []
    deltas = rng.integers(0, 2, size=(steps, len(x))) * 2.0 - 1.0
    # a table, as forming each pair per iteration (np.stack, delta * _PLUS_MINUS) is 1.5-3x slower
    signs = deltas[:, None, :] * _PLUS_MINUS  # iteration k's pair: x + c_k signs[k]
    for k, delta in enumerate(deltas):
        ck = SPSA_C / (k + 1) ** SPSA_GAMMA
        y_plus, y_minus = cost(x + ck * signs[k])
        ak = SPSA_A / (k + 1 + offset) ** SPSA_ALPHA
        x = x - (ak * ((y_plus - y_minus) / (2.0 * ck))) * delta
        history.append(0.5 * (y_plus + y_minus))
    return x, history


def _sampled_cost(a_t, layer, shots_per_eval, seed_sequence):
    """Stochastic cost oracle 1 - p_hat for one evolution step from the
    current state's MPS tensor ``a_t`` with the dense gate layer ``layer``.

    ``a_t`` is the tensor that :func:`_evolve` built when it accepted the
    current state; the side of the cost diagram it fixes (ket window with the
    boundary copies folded in) is built from it once per step, by
    :func:`circuits.success_probability_fn`, folded into a bilinear form.
    The oracle takes SPSA's raw (k, n) stack of candidate angles, goes from
    them to the k exact probabilities in one pass (finiteness check,
    tensors, two-site products, two products per row with the form), and
    returns k costs; a non-finite angle raises :class:`InvalidArgumentError`.
    The exact probabilities equal the statevector circuit to machine
    precision (the equivalence is enforced by the acceptance suite) and are
    sampled with one scalar binomial draw per row, in row order, from
    ``seed_sequence`` (the step's shot stream): for an SPSA pair, two scalar
    draws cost about a fifth of numpy's broadcast draw of the stack.
    """
    rng = np.random.default_rng(seed_sequence)
    success_probability = circuits.success_probability_fn(a_t, layer)

    def cost(xs):
        return [
            1.0 - rng.binomial(shots_per_eval, min(max(p, 0.0), 1.0)) / shots_per_eval
            for p in success_probability(xs).tolist()
        ]

    return cost


def _evolve(spec, ground, init_scheme, solve_step, **labels):
    """The one run of both drivers, from ``ground`` (solved here at
    ``spec.J``, ``spec.g0`` when ``None``) over ``spec.times``.

    Every state is a plain angle array. Step n is seeded with the angles x0
    of step n - 1 under "copy" and on steps 1 and 2, else with ``extrapolate``
    of steps n - 2 and n - 1. The corrector ``solve_step(n, a_prev, x0)``
    moves x0 (maybe a view of a stored row, not to be written) from the
    previous state's MPS tensor ``a_prev`` and returns
    ``(accepted, cost, shots)``. The accepted angles are unwrapped toward
    step n - 1 and stored, and their tensor is built once: step n's echo is
    taken from it against the ground tensor at accept, by the eigenvalue-only
    :func:`qcore.eigenvalues`, and it is step n + 1's ``a_prev``. A 2*pi
    shift of an angle flips the unitary's sign, which no echo observes. A
    solve, tensor or echo of step n that raises :class:`NumericFailure` or
    :class:`InvalidArgumentError` truncates the run before step n, with
    ``failure = "<type>: <message>"``, and no later step runs. ``labels``
    fill the other fields.
    """
    if ground is None:
        ground = ground_state_optimize(spec.J, spec.g0, FULL15)
    times = spec.times
    angles = np.zeros((len(times), len(ground.angles)))
    angles[0] = ground.angles
    echoes = np.zeros(len(times))
    costs = np.zeros(len(times))
    cum_shots = np.zeros(len(times), dtype=np.int64)
    a_0 = a_prev = tensor_of(ground)
    end, failure = len(times), None
    for step in range(1, len(times)):
        prev = angles[step - 1]
        copy_prev = step < 3 or init_scheme == "copy"
        x0 = prev if copy_prev else extrapolate(angles[step - 2], prev)
        try:
            accepted, cost, shots = solve_step(step, a_prev, x0)
            angles[step] = unwrap_toward(prev, accepted)
            a_prev = tensor_of(angles[step])
            echoes[step] = _echo_of_tensors(a_0, a_prev)
        except (NumericFailure, InvalidArgumentError) as exc:
            end, failure = step, f"{type(exc).__name__}: {exc}"
            break
        costs[step] = cost
        cum_shots[step] = cum_shots[step - 1] + shots
    return Trajectory(
        spec=spec, template=FULL15, init_scheme=init_scheme, times=times[:end],
        angles=angles[:end], echoes=echoes[:end], costs=costs[:end],
        cum_shots=cum_shots[:end], failure=failure, **labels,
    )


def _check_run(spec, init_scheme, shots_per_eval, seeds, ground):
    """The checks both stochastic drivers make before anything is solved or
    stepped: reject an unknown ``init_scheme``, ``seeds`` that are not an
    iterable, a ``shots_per_eval`` below 1 or a run seed below 0
    (:func:`qcore.check_count`), a ``shots_per_eval`` that could overflow the
    int64 shot counter (``tfim.MAX_STEPS`` steps at the bootstrap's budget),
    and what :func:`_check_start` rejects. Returns the seeds as a list."""
    check_choice("init scheme", init_scheme, INIT_SCHEMES)
    if not np.iterable(seeds):
        raise InvalidArgumentError(f"seeds must be an iterable, got {seeds!r}")
    seeds = list(seeds)
    check_count(1, shots_per_eval=shots_per_eval)
    most = np.iinfo(np.int64).max // (2 * SPSA_STEPS * BOOTSTRAP_FACTOR * tfim.MAX_STEPS)
    if shots_per_eval > most:
        msg = f"shots_per_eval must be at most {most}, got {shots_per_eval}"
        raise InvalidArgumentError(msg)
    for seed in seeds:
        check_count(0, seed=seed)
    _check_start(spec, ground)
    return seeds


def _check_start(spec, ground):
    """Reject a ``spec`` that is not a :class:`tfim.QuenchSpec` and a
    ``ground`` that is neither ``None`` nor an :class:`AnsatzParams`."""
    tfim.check_spec(spec)
    if ground is not None and not isinstance(ground, AnsatzParams):
        raise InvalidArgumentError(
            f"ground must be None or an AnsatzParams, got {type(ground).__name__}"
        )


def _step_stream(seed, step, stream):
    """Seed sequence of stream ``stream`` (``SPSA_STREAM`` or
    ``SHOT_STREAM``) of step ``step`` >= 1 of the stochastic run ``seed``, on
    the flat key ``(step, stream)``: one ``SeedSequence`` at any step, built
    only when its step runs."""
    return np.random.SeedSequence(seed, spawn_key=(step, stream))


def evolve_stochastic(
    spec, init_scheme, shots_per_eval=2048, seed=0, template=FULL15, ground=None
):
    """Stochastic variational evolution of the quench from ``ground``
    (solved when not given).

    The corrector of :func:`_evolve`: from the seed that the loop predicts
    under ``init_scheme`` ("extrapolate", the paper's protocol, or "copy",
    the previous step), run ``SPSA_STEPS`` iterations of SPSA
    (:func:`spsa_optimize`) on the sampled cost and accept the final iterate.
    The first two steps run ``BOOTSTRAP_FACTOR`` times as many (extrapolation
    needs two previous points). Bit-identical for identical ``(spec, seed)``:
    step n draws its SPSA and shot streams from ``SeedSequence(seed)`` on the
    keys ``(n, stream)`` (:func:`_step_stream`). A cost, tensor or echo
    failure ends the run (see :func:`_evolve`).

    The gate layer is built once per run; each step builds the side of the
    cost fixed by its current state from the tensor that :func:`_evolve`
    hands over (:func:`_sampled_cost`), and each SPSA iteration evaluates
    its +/- pair as one stacked call.

    Bad options, a ``spec`` that is not a :class:`tfim.QuenchSpec` or a
    ``template`` other than ``FULL15`` among them, raise
    :class:`InvalidArgumentError` before the ground state is solved
    (:func:`_check_run`).
    """
    check_choice("template", template, (FULL15,))
    _check_run(spec, init_scheme, shots_per_eval, [seed], ground)
    layer, _ = circuits.evolution_gate_layer(spec)

    def solve_step(step, a_prev, x0):
        steps = SPSA_STEPS * BOOTSTRAP_FACTOR if step <= 2 else SPSA_STEPS
        cost = _sampled_cost(
            a_prev, layer, shots_per_eval, _step_stream(seed, step, SHOT_STREAM)
        )
        accepted, history = spsa_optimize(
            cost, x0, steps, _step_stream(seed, step, SPSA_STREAM)
        )
        # two cost evaluations per SPSA iteration
        return accepted, history[-1], 2 * steps * shots_per_eval

    return _evolve(
        spec, ground, init_scheme, solve_step, seed=seed, shots_per_eval=shots_per_eval
    )


def _step_objective(a_t, gate, cost_mode):
    """Objective x -> (value, exact gradient) of one reference step, with the
    run's evolution ``gate`` (see :func:`evolve_exact_in_ansatz`) and the side
    fixed by the current state's MPS tensor ``a_t`` built here, so each
    evaluation builds only the candidate and its tangents
    (:func:`ansatz.tensor_of` with gradients): -|lambda| of
    :func:`transfer.cell_eigenvalue_gradient` for "eigen", which adds a
    callable for its Gauss-Newton matrix 2F at x on the same tensors
    (:func:`transfer.tangent_metric`), and -p of
    :func:`circuits.success_probability_gradient_fn` for "circuit_lt". A
    non-finite angle raises :class:`InvalidArgumentError`."""
    if cost_mode == "eigen":
        ket = transfer.window_ket(a_t, gate)

        def objective(x):
            b, db = tensor_of(x, grad=True)
            lam, dlam = transfer.cell_eigenvalue_gradient(ket, b, db)
            # d|lambda| = Re(conj(lambda) d lambda) / |lambda|
            grad = (dlam * (-lam.conjugate() / abs(lam))).real
            return -abs(lam), grad, lambda: 2.0 * transfer.tangent_metric(b, db)

        return objective
    success_probability_and_gradient = circuits.success_probability_gradient_fn(a_t, gate)

    def objective(x):
        p, dp = success_probability_and_gradient(x)
        return -float(p), -dp

    return objective


def evolve_exact_in_ansatz(spec, template=FULL15, cost_mode="eigen", ground=None):
    """Deterministic reference evolution: each step maximizes the dense
    fidelity objective to high precision (no sampling).

    ``cost_mode``: "eigen" maximizes |fidelity density| of the
    evolution-inserted transfer matrix and needs first-order Trotter gates
    (a second-order ``spec`` is rejected with :class:`InvalidArgumentError`);
    "circuit_lt" maximizes the exact success probability that
    :func:`_sampled_cost` samples, at either Trotter order. The evolution
    gate (the cell gate for "eigen", the dense gate layer for "circuit_lt")
    is built once per run, and the current state's side once per step.

    Each step minimizes from the seed x0 of :func:`_evolve` on the iMPS
    tangent metric F (:func:`transfer.tangent_metric`):

    - "eigen", a fidelity of the state alone whose Hessian under the identity
      gate is exactly 2F, by Gauss-Newton on 2F(x) (:func:`minimize`), 5.6
      evaluations per step at dt = 0.1 to t = 1 from the solved ground state.
      It stops when no component of the angle gradient exceeds ``GTOL``, so
      that bound holds at every accepted step by construction.
    - "circuit_lt", whose cost also bends along F's null space, by L-BFGS-B
      on y -> f(x0 + S y) from y = 0, with F = V diag(w) V^T at x0 and
      S = V diag(max(w / w_max, ``METRIC_FLOOR``))^(-1/2), unbounded, with 30
      correction pairs and ``ftol = 0``: it ends on status 0, no component of
      S^T g above ``GTOL``, or on status 2 (ABNORMAL), and accepts x0 + S y*.
      This is SciPy's ``minimize``, imported when a "circuit_lt" run starts.

    The exact gradients come through the closed-form dA/dtheta
    (:func:`_step_objective`). A step whose metric or objective raises
    :class:`NumericFailure` or :class:`InvalidArgumentError`, that stops
    short of ``GTOL`` ("eigen") or whose angles are not finite ("circuit_lt")
    ends the run (see :func:`_evolve`); the last two name the step.

    It starts from ``ground`` (solved when not given) and predicts by
    "extrapolate". A ``spec`` or ``ground`` that :func:`_check_start`
    rejects, a ``template`` other than ``FULL15`` and a ``cost_mode`` other
    than the strings "eigen" and "circuit_lt" raise
    :class:`InvalidArgumentError` before any solve.
    """
    check_choice("template", template, (FULL15,))
    _check_start(spec, ground)
    check_choice("cost mode", cost_mode, ("eigen", "circuit_lt"))
    if cost_mode == "eigen":
        if spec.trotter_order != 1:
            raise InvalidArgumentError("eigen needs first-order Trotter gates")
        gate = tfim.trotter_gate_first_order(spec.J, spec.g1, spec.dt)
    else:
        from scipy import optimize

        gate, _ = circuits.evolution_gate_layer(spec)

    def solve_step(step, a_prev, x0):
        objective = _step_objective(a_prev, gate, cost_mode)
        if cost_mode == "eigen":
            res = minimize(objective, x0)
            if res.status != 0:
                raise NumericFailure(f"step {step}: {res.message}")
            return res.x, res.fun, 0
        w, v = np.linalg.eigh(transfer.tangent_metric(*tensor_of(x0, grad=True)))
        scale = v / np.sqrt(np.maximum(w / w[-1], METRIC_FLOOR))

        def preconditioned(y):
            value, grad = objective(x0 + scale @ y)
            return value, grad @ scale

        # 2 * 15 correction pairs: a 10-pair memory takes 32.9 / 32.5 evaluations
        # per step at orders 1 / 2 (dt = 0.1, to t = 1), not 22.2 / 23.2, and
        # ends one step on status 2 at each order, where this one ends none
        res = optimize.minimize(
            preconditioned,
            np.zeros(N_ANGLES),
            method="L-BFGS-B",
            jac=True,
            options={"gtol": GTOL, "ftol": 0.0, "maxcor": 2 * N_ANGLES},
        )
        accepted = x0 + scale @ res.x
        if not np.all(np.isfinite(accepted)):
            raise NumericFailure(
                f"step {step}: L-BFGS-B returned non-finite angles ({res.message})"
            )
        return accepted, res.fun, 0

    return _evolve(spec, ground, "extrapolate", solve_step, seed=None, shots_per_eval=0)


def ensemble_run(spec, init_scheme, seeds, shots_per_eval=2048, ground=None):
    """Ensemble of perfect-gate stochastic runs (shot noise only) of the
    ``FULL15`` ansatz, all started from ``ground`` (solved here once when not
    given): one :class:`Trajectory` per seed, in the order given, each the
    :func:`evolve_stochastic` run at that seed. A run that stopped early is
    truncated and carries its ``failure``.

    ``seeds`` is any iterable of at least 2 distinct run seeds, one per run,
    each a nonnegative integer; ``seeds`` that are not, and any ``spec``,
    ``init_scheme``, ``shots_per_eval`` or ``ground`` that
    :func:`evolve_stochastic` would reject, are rejected with
    :class:`InvalidArgumentError` before the ground state is solved or any
    run starts (:func:`_check_run`)."""
    seeds = _check_run(spec, init_scheme, shots_per_eval, seeds, ground)
    if len(seeds) < 2:
        raise InvalidArgumentError(f"an ensemble needs at least 2 seeds, got {seeds!r}")
    if len(set(seeds)) != len(seeds):
        raise InvalidArgumentError(f"run seeds must be distinct, got {seeds!r}")
    if ground is None:
        ground = ground_state_optimize(spec.J, spec.g0, FULL15)
    options = dict(shots_per_eval=shots_per_eval, ground=ground)
    return [evolve_stochastic(spec, init_scheme, seed=s, **options) for s in seeds]
