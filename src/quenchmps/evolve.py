"""Time evolution of the quench: ground-state preparation, one step loop
with two correctors, and ensemble experiments.

One loop owns every run (:func:`_evolve`). It starts from the variational
ground state, which it solves unless one is given: one BFGS minimization of
the energy density on its exact gradient through the fixed-point equation
(see :func:`energy_density` and :func:`ground_state_optimize`). Each step
then runs

    predict: seed from the previous step under "copy" and on steps 1 and 2,
             else linearly from the two previous steps (``extrapolate``)
      -> correct: the driver's corrector moves the seed from the current
                  state's MPS tensor
      -> accept:  unwrap the angles, build their tensor once, take its echo
                  against the ground state's tensor, add up the shots.

The accepted state's tensor serves as the next step's current state. A
driver only checks its options and supplies the corrector. The deterministic
reference (:func:`evolve_exact_in_ansatz`, always "extrapolate") corrects
with one L-BFGS-B solve of the dense step objective on its exact gradient,
which stops on the gradient test alone. The sampled experiment
(:func:`evolve_stochastic`) corrects with ``SPSA_STEPS`` SPSA iterations
(``BOOTSTRAP_FACTOR`` times as many on steps 1 and 2) on the measured
cost 1 - p_hat, so the circuit acts as a stochastic correction on top of the
classical prediction ("extrapolate", the paper's protocol, or "copy", the
baseline without extrapolation); every SPSA iteration spends exactly two
cost evaluations. Its gains follow one schedule from the first iteration on,
fixed by the module's ``SPSA_*`` constants, not by an option. Its step n
draws stream i (0 SPSA, 1 shots) from ``SeedSequence(seed, spawn_key=(n,
i))``, built when the step runs (:func:`_step_stream`). A step whose solve,
tensor or echo raises :class:`NumericFailure` or
:class:`InvalidArgumentError` ends either run the same way: the trajectory
is truncated before it and ``failure`` names it.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from . import circuits, qcore, tfim, transfer
from .ansatz import FULL15, N_ANGLES, AnsatzParams, tensor_of
from .qcore import InvalidArgumentError, NumericFailure, check_choice, check_count, check_reals

INIT_SCHEMES = ("copy", "extrapolate")
# largest gradient component at which a reference step (L-BFGS-B) and the ground
# state (BFGS) stop; above the objective's rounding floor (~1e-10), so every solve
# ends on it (scipy status 0)
GTOL = 1e-7
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
    cost, tensor or echo raised, or L-BFGS-B returned non-finite angles. SPSA
    has no stop of its own; a tied +/- pair is a zero update.
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
    return _echo_of_tensors(tensor_of(params_0), tensor_of(params_t))


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
    matrix P = 1 - E + |vec 1><vec 1|: P vec rho = vec 1.

    With ``grad``, returns ``(e, de/dtheta)``. Only rho moves besides the
    tensors, so for a tangent dA (from ``tensor_of(params, grad=True)``)

        de = 2 Re sum_{t,s} h[t,s] Tr[dP_s rho P_t^dag] + Tr[Y dT(rho)],
        dT(rho) = sum_s (dA^s rho A^s^dag + A^s rho dA^s^dag),

    where Y solves the adjoint equation Y - T^dag(Y) = H_env - e 1, with
    H_env = sum_{t,s} h[t,s] P_t^dag P_s. That is the solve on the same pinned
    matrix, P^dag vec Y = vec H_env: <vec rho| applied to it gives Tr Y = e,
    which supplies the -e 1. The value is the same float with and without
    ``grad``. A ``J`` or ``g`` that :func:`tfim.bond_hamiltonian` rejects
    raises :class:`InvalidArgumentError` before the solve; a singular pinned
    matrix, as for a product state, whose fixed point is not unique, raises
    :class:`NumericFailure`.
    """
    h2 = tfim.bond_hamiltonian(J, g)
    if grad:
        a, da = tensor_of(params, grad=True)
    else:
        a = tensor_of(params)
    pinned = np.eye(4) - transfer.transfer_matrix(a, a)
    pinned += np.outer(transfer.VEC_IDENTITY, transfer.VEC_IDENTITY)
    rho = _fixed_point_solve(pinned, transfer.VEC_IDENTITY).reshape(2, 2)
    prods = transfer.strand_products(a, 2)
    value = float(np.einsum("ts,sab,bc,tac->", h2, prods, rho, prods.conj()).real)
    if not grad:
        return value
    cotangent = np.einsum("ts,bc,tac->sab", h2, rho, prods.conj())  # on P_s
    direct = da.reshape(len(da), 8) @ transfer.pair_cotangent(a, cotangent).reshape(8)
    h_env = np.einsum("ts,tca,scb->ab", h2, prods.conj(), prods)
    y = _fixed_point_solve(pinned.conj().T, h_env.reshape(4)).reshape(2, 2)
    # Tr[Y dT(rho)] = 2 Re sum_s Tr[Y dA^s rho A^s^dag] for Hermitian Y and rho
    moved = np.einsum("ab,ksbc,cd,sad->k", y, da, rho, a.conj())
    return value, 2.0 * (direct + moved).real


def _fixed_point_solve(pinned, rhs):
    """``np.linalg.solve`` that raises :class:`NumericFailure` on a singular
    matrix."""
    try:
        return np.linalg.solve(pinned, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure(f"energy fixed-point solve failed: {exc}") from exc


def ground_state_optimize(J, g, template):
    """Variational ground state of H(g) at bond dimension 2.

    One BFGS minimization of :func:`energy_density` on its exact angle
    gradient, from the fixed start 0.4 N(0, 1) drawn by ``default_rng(0)``.
    The end point is checked, not trusted: :class:`NumericFailure`, naming
    the offending value, is raised when the solved state's transfer matrix
    has a second eigenvalue within ``GROUND_GAP_TOL`` of the unit circle (a
    reducible state, where BFGS can stop on a saddle) or when a component of
    its energy gradient exceeds ``GROUND_GRAD_TOL``. A ``template`` other than
    ``FULL15``, and a ``J`` or ``g`` that :func:`qcore.check_reals` rejects,
    raise :class:`InvalidArgumentError` before solving.
    """
    check_choice("template", template, (FULL15,))
    check_reals(J=J, g=g)

    def objective(x):
        return energy_density(x, J, g, grad=True)

    x0 = 0.4 * np.random.default_rng(0).standard_normal(N_ANGLES)
    res = minimize(objective, x0, method="BFGS", jac=True, options={"gtol": GTOL})
    ground = AnsatzParams(res.x)
    a = tensor_of(ground)
    lam2 = np.sort(np.abs(qcore.eigenvalues(transfer.transfer_matrix(a, a))))[-2]
    if not 1.0 - lam2 >= GROUND_GAP_TOL:
        raise NumericFailure(
            "ground state is reducible: "
            f"1 - |lambda_2| = {1.0 - lam2:.3e} for its second transfer eigenvalue",
            residual=1.0 - lam2,
        )
    worst = np.max(np.abs(energy_density(ground, J, g, grad=True)[1]))
    if not worst <= GROUND_GRAD_TOL:
        raise NumericFailure(
            "ground state is not stationary: "
            f"largest energy gradient component {worst:.3e}",
            residual=worst,
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
    if not isinstance(spec, tfim.QuenchSpec):
        raise InvalidArgumentError(f"spec must be a QuenchSpec, got {type(spec).__name__}")
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
    """Objective x -> (value, exact gradient) of one reference step, for
    ``minimize`` with ``jac=True``, with the run's evolution ``gate`` (see
    :func:`evolve_exact_in_ansatz`) and the side fixed by the current state's
    MPS tensor ``a_t`` built here, so each evaluation builds only the
    candidate and its tangents (:func:`ansatz.tensor_of` with gradients):
    -|lambda| of :func:`transfer.cell_eigenvalue_gradient` for "eigen", -p of
    :func:`circuits.success_probability_gradient_fn` for "circuit_lt". A
    non-finite angle raises :class:`InvalidArgumentError`."""
    if cost_mode == "eigen":
        ket = transfer.window_ket(a_t, gate)

        def objective(x):
            b, db = tensor_of(x, grad=True)
            lam, dlam = transfer.cell_eigenvalue_gradient(ket, b, db)
            # d|lambda| = Re(conj(lambda) d lambda) / |lambda|
            return -abs(lam), (dlam * (-lam.conjugate() / abs(lam))).real

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

    Each step is one L-BFGS-B minimization from the seed of :func:`_evolve`,
    unbounded, with a memory of 30 correction pairs and no relative-reduction
    stop (``ftol = 0``), so it ends when no gradient component exceeds
    ``GTOL``. Both objectives supply their exact gradients through the
    closed-form dA/dtheta (:func:`_step_objective`): "eigen" d lambda =
    <l| dE |r> / <l|r>, "circuit_lt" the chain rule through the cost's
    bilinear form. A step whose objective raises
    :class:`NumericFailure` or :class:`InvalidArgumentError`, or on which
    L-BFGS-B returns non-finite angles, ends the run (see :func:`_evolve`);
    the latter's ``failure`` names the step and the optimizer's message.

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
        gate, _ = circuits.evolution_gate_layer(spec)

    def solve_step(step, a_prev, x0):
        # 2 * 15 correction pairs hold a whole step's iterations; a 10-pair
        # memory costs 34.4 evaluations per step to t = 1 instead of 25.6
        res = minimize(
            _step_objective(a_prev, gate, cost_mode),
            x0,
            method="L-BFGS-B",
            jac=True,
            options={"gtol": GTOL, "ftol": 0.0, "maxcor": 2 * N_ANGLES},
        )
        if not np.all(np.isfinite(res.x)):
            raise NumericFailure(
                f"step {step}: L-BFGS-B returned non-finite angles ({res.message})"
            )
        return res.x, res.fun, 0

    return _evolve(spec, ground, "extrapolate", solve_step, seed=None, shots_per_eval=0)


@dataclass
class EnsembleStats:
    """Per-time statistics over an ensemble of stochastic runs.

    A run that stopped early holds NaN after its last step. Each statistic
    at t is taken over the ``reached[t]`` runs that got there; it is NaN
    where none did (and the variance also where only one did).
    """

    times: np.ndarray
    echoes: np.ndarray  # shape (n_runs, n_times), NaN-padded
    reached: np.ndarray  # runs that reached each time
    mean: np.ndarray
    variance: np.ndarray
    envelope_lo: np.ndarray
    envelope_hi: np.ndarray
    total_shots: int


def ensemble_run(spec, init_scheme, seeds, shots_per_eval=2048, ground=None):
    """Ensemble of perfect-gate stochastic runs (shot noise only) of the
    ``FULL15`` ansatz, all started from ``ground`` (solved here when not
    given).

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
    runs = [evolve_stochastic(spec, init_scheme, seed=s, **options) for s in seeds]
    echoes = np.full((len(runs), len(spec.times)), np.nan)
    for row, run in zip(echoes, runs):
        row[: len(run.echoes)] = run.echoes
    with warnings.catch_warnings():
        # times that no run, or only one run, reached give NaN statistics
        warnings.simplefilter("ignore", RuntimeWarning)
        mean = np.nanmean(echoes, axis=0)
        variance = np.nanvar(echoes, axis=0, ddof=1)
        envelope_lo = np.nanpercentile(echoes, 5.0, axis=0)
        envelope_hi = np.nanpercentile(echoes, 95.0, axis=0)
    return EnsembleStats(
        times=spec.times,
        echoes=echoes,
        reached=np.sum(~np.isnan(echoes), axis=0),
        mean=mean,
        variance=variance,
        envelope_lo=envelope_lo,
        envelope_hi=envelope_hi,
        total_shots=int(sum(r.cum_shots[-1] for r in runs)),
    )
