"""Time-evolution drivers: SPSA over the sampled circuit cost, linear
extrapolation seeding, ground-state preparation, the deterministic
exact-in-ansatz reference, and ensemble experiments.

The stochastic driver realizes one evolution step as

    seed the candidate (random / copy / linear extrapolation)
      -> a handful of SPSA iterations on the sampled cost 1 - p_hat
      -> accept the final iterate, unwrap angles, record the echo,

so the sampled circuit acts as a stochastic correction on top of the
classical parameter extrapolation. Shot accounting is exact: every SPSA
iteration spends exactly two cost evaluations.

The deterministic reference instead maximizes the fidelity density of each
step with BFGS on its exact angle gradient (see :func:`evolve_exact_in_ansatz`).
Every quench starts from the variational ground state, one BFGS minimization
of the energy density on its exact gradient through the fixed-point equation
(see :func:`energy_density` and :func:`ground_state_optimize`).
"""

import numbers
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import minimize

from . import circuits, qcore, tfim, transfer
from .ansatz import FULL15, N_ANGLES, AnsatzParams, tensor_of
from .qcore import InvalidArgumentError, NumericFailure

INIT_SCHEMES = ("random", "copy", "extrapolate")
COST_MODES = ("eigen", "circuit_lt", "circuit_lw")
GTOL = 1e-10  # BFGS gradient-norm tolerance of a reference step and the ground state
GROUND_GAP_TOL = 1e-6  # least 1 - |lambda_2| of an accepted ground state
GROUND_GRAD_TOL = 1e-6  # largest energy gradient component of an accepted ground state
BOOTSTRAP_FACTOR = 4  # SPSA budget multiplier while extrapolation lacks history
_PLUS_MINUS = np.array([[1.0], [-1.0]])  # rows of an SPSA pair x +/- c_k delta


@dataclass(frozen=True)
class SpsaSchedule:
    """Gain schedule a_k = a/(k+1+A)^alpha, c_k = c/(k+1)^gamma.

    ``a = None`` calibrates the step scale from the first gradient estimate
    so the first update moves at most 0.1 rad per angle; a given ``a`` must
    be positive. ``A = None`` takes 10% of the iterations; a given ``A``
    must be nonnegative.
    """

    steps: int = 6
    a: float | None = None
    c: float = 0.1
    A: float | None = None
    alpha: float = 0.602
    gamma: float = 0.101

    def __post_init__(self):
        if not 0.5 < self.alpha <= 1.0:
            raise InvalidArgumentError("alpha must lie in (0.5, 1]")
        if not 0.0 < self.gamma <= 0.5:
            raise InvalidArgumentError("gamma must lie in (0, 0.5]")
        if self.steps < 0:
            raise InvalidArgumentError("steps must be nonnegative")
        if self.c <= 0:
            raise InvalidArgumentError("c must be positive")
        if self.a is not None and not self.a > 0:
            raise InvalidArgumentError("a must be positive")
        if self.A is not None and not self.A >= 0:
            raise InvalidArgumentError("A must be nonnegative")

    def stability_offset(self, steps):
        return self.A if self.A is not None else 0.1 * steps


@dataclass
class Trajectory:
    """Time series of one evolution run."""

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
    complete: bool = True
    failure: str | None = None  # "<exception type>: <message>" of an early stop

    def params_at(self, step):
        return AnsatzParams(self.template, self.angles[step].copy())

    @property
    def n_steps(self):
        return len(self.times) - 1


def echo_density(params_0, params_t):
    """Loschmidt echo rate -log |lambda(E_{A(0),A(t)})|^2 from the dense
    leading eigenvalue of the one-site mixed transfer matrix."""
    return _echo_of_tensors(tensor_of(params_0), tensor_of(params_t))


def _echo_of_tensors(a_0, a_t):
    """:func:`echo_density` of the MPS tensors ``a_0`` and ``a_t``."""
    lam = transfer.fidelity_density(transfer.transfer_matrix(a_0, a_t))
    return float(-np.log(max(abs(lam) ** 2, 1e-300)))


def _right_fixed_point(a):
    """Positive, trace-one right fixed point of the state's transfer matrix.

    The eigenvector route alone is unsafe: for almost-reducible tensors the
    top of the spectrum degenerates and an eigenvector mix Hermitizes to an
    indefinite matrix, which an optimizer will happily exploit. Project onto
    the positive cone and settle with the (trace-preserving, positivity-
    preserving) map rho -> sum_s A^s rho (A^s)^dag, 30 times: E^30 on vec(rho).
    """
    e = transfer.transfer_matrix(a, a).E
    evals, evecs = np.linalg.eig(e)
    rho = evecs[:, int(np.argmax(np.abs(evals)))].reshape(2, 2)
    trace = np.trace(rho)
    rho = rho * (np.conj(trace) / max(abs(trace), 1e-300))
    rho = 0.5 * (rho + rho.conj().T)
    w, u = np.linalg.eigh(rho)
    w = np.maximum(w.real, 0.0)
    if w.sum() < 1e-12:
        rho = 0.5 * np.eye(2, dtype=complex)
    else:
        rho = (u * w) @ u.conj().T / w.sum()
    rho = (np.linalg.matrix_power(e, 30) @ rho.reshape(4)).reshape(2, 2)
    return rho / np.trace(rho).real


def energy_density(params, J, g, grad=False):
    """Energy per site of the iMPS, e = sum_{t,s} h[t,s] Tr[P_s rho P_t^dag],
    with P the two-site strand products, the identity as left fixed point
    (exact for left-isometric tensors) and rho the right fixed point of
    T(X) = sum_s A^s X A^s^dag (:func:`_right_fixed_point`).

    With ``grad``, returns ``(e, de/dtheta)``. Only rho moves besides the
    tensors, so for a tangent dA (from ``tensor_of(params, grad=True)``)

        de = 2 Re sum_{t,s} h[t,s] Tr[dP_s rho P_t^dag] + Tr[Y dT(rho)],
        dT(rho) = sum_s (dA^s rho A^s^dag + A^s rho dA^s^dag),

    where Y solves the adjoint fixed-point equation Y - T^dag(Y) = H_env - e 1,
    H_env = sum_{t,s} h[t,s] P_t^dag P_s. That is one 4x4 solve,
    (1 - T^dag + |vec 1><vec rho|) vec Y = vec H_env: its rank-one term gives
    Tr[rho Y] = e, which supplies the -e 1, and leaves Y fixed up to a multiple
    of 1, which Tr[1 dT(rho)] = 0 does not see. The value is the same float
    with and without ``grad``.
    """
    if grad:
        a, da = tensor_of(params, grad=True)
    else:
        a = tensor_of(params)
    rho = _right_fixed_point(a)
    prods = transfer.strand_products(a, 2)
    h2 = tfim.bond_hamiltonian(J, g)
    value = float(np.einsum("ts,sab,bc,tac->", h2, prods, rho, prods.conj()).real)
    if not grad:
        return value
    # strand_products holds P[2p + u] = A^u A^p
    dprods = (
        np.einsum("kuab,pbc->kpuac", da, a) + np.einsum("uab,kpbc->kpuac", a, da)
    ).reshape(len(da), 4, 2, 2)
    direct = np.einsum("ts,ksab,bc,tac->k", h2, dprods, rho, prods.conj())
    h_env = np.einsum("ts,tca,scb->ab", h2, prods.conj(), prods)
    t_dag = transfer.transfer_matrix(a, a).E.conj().T
    pin = np.outer(transfer.VEC_IDENTITY, rho.reshape(4).conj())  # |vec 1><vec rho|
    y = np.linalg.solve(np.eye(4) - t_dag + pin, h_env.reshape(4)).reshape(2, 2)
    # Tr[Y dT(rho)] = 2 Re sum_s Tr[Y dA^s rho A^s^dag] for Hermitian Y and rho
    moved = np.einsum("ab,ksbc,cd,sad->k", y, da, rho, a.conj())
    return value, 2.0 * (direct + moved).real


def ground_state_optimize(J, g, template, optimizer_seed=0):
    """Variational ground state of H(g) at bond dimension 2.

    One BFGS minimization of :func:`energy_density` on its exact angle
    gradient, from the seeded random angles 0.4 N(0, 1) of the template
    itself. The end point is checked, not trusted: :class:`NumericFailure`
    is raised when the solved state's transfer matrix has a second
    eigenvalue within ``GROUND_GAP_TOL`` of the unit circle (a reducible
    state, where BFGS can stop on a saddle) or when a component of its energy
    gradient exceeds ``GROUND_GRAD_TOL``. The message names the optimizer
    seed and the offending value.
    """
    if template not in N_ANGLES:
        raise InvalidArgumentError(f"unknown template {template!r}")

    def objective(x):
        return energy_density(AnsatzParams(template, x), J, g, grad=True)

    x0 = 0.4 * np.random.default_rng(optimizer_seed).standard_normal(N_ANGLES[template])
    res = minimize(objective, x0, method="BFGS", jac=True, options={"gtol": GTOL})
    ground = AnsatzParams(template, res.x)
    a = tensor_of(ground)
    lam2 = np.sort(np.abs(np.linalg.eigvals(transfer.transfer_matrix(a, a).E)))[-2]
    if 1.0 - lam2 < GROUND_GAP_TOL:
        raise NumericFailure(
            f"ground state from optimizer seed {optimizer_seed} is reducible: "
            f"1 - |lambda_2| = {1.0 - lam2:.3e} for its second transfer eigenvalue",
            residual=1.0 - lam2,
        )
    worst = np.max(np.abs(energy_density(ground, J, g, grad=True)[1]))
    if worst > GROUND_GRAD_TOL:
        raise NumericFailure(
            f"ground state from optimizer seed {optimizer_seed} is not stationary: "
            f"largest energy gradient component {worst:.3e}",
            residual=worst,
        )
    return ground


def extrapolate(theta_prev, theta_curr):
    """Linear extrapolation 2*curr - prev from the two previous steps.

    Angles must be unwrapped (continuous across steps)."""
    if theta_prev.template != theta_curr.template:
        raise InvalidArgumentError("extrapolation requires matching templates")
    return theta_curr.replace_angles(2.0 * theta_curr.angles - theta_prev.angles)


def unwrap_toward(reference, angles):
    """Shift each angle by multiples of 2*pi to the branch nearest the
    reference (a 2*pi shift changes the unitary by at most a global sign,
    which no cost or echo observes)."""
    two_pi = 2.0 * np.pi
    return angles + two_pi * np.round((reference - angles) / two_pi)


def spsa_optimize(cost, seed_params, schedule, rng_seed):
    """Simultaneous-perturbation minimization of a noisy scalar cost.

    Rademacher perturbation directions. ``cost`` takes a (2, n) stack of
    angles, the pair x + c_k delta, x - c_k delta in that order, and returns
    the two costs; it is called once per iteration, so a sampled cost draws
    the + evaluation before the - one. Deterministic given ``rng_seed``.
    Returns the final iterate and the per-iteration mean measured cost.
    """
    rng = np.random.default_rng(rng_seed)
    x = seed_params.angles.copy()
    n = len(x)
    a = schedule.a
    offset = schedule.stability_offset(schedule.steps)
    history = []
    for k in range(schedule.steps):
        ck = schedule.c / (k + 1) ** schedule.gamma
        delta = rng.integers(0, 2, size=n) * 2.0 - 1.0
        y_plus, y_minus = cost(x + _PLUS_MINUS * (ck * delta))
        ghat = (y_plus - y_minus) / (2.0 * ck) * delta
        if a is None:
            # first-step calibration: move at most 0.1 rad per angle
            gmax = np.max(np.abs(ghat))
            if gmax == 0.0:
                raise NumericFailure(
                    "SPSA gain calibration on a zero gradient estimate"
                )
            a = 0.1 * (1 + offset) ** schedule.alpha / gmax
        ak = a / (k + 1 + offset) ** schedule.alpha
        x = x - ak * ghat
        history.append(0.5 * (y_plus + y_minus))
    return seed_params.replace_angles(x), history


def _sampled_cost(params_t, layer, shots_per_eval, seed_sequence):
    """Stochastic cost oracle 1 - p_hat for one evolution step with the
    dense gate layer ``layer``.

    The side of the cost diagram fixed by the current state (current tensor,
    ket window, boundary copies) is built once per step, by
    :func:`circuits.success_probability_fn`. The oracle takes a (k, n) stack
    of candidate angles, builds their tensors and contracts them against that
    side in one pass, and returns k costs. The exact probabilities equal the
    statevector circuit to machine precision (the equivalence is enforced by
    the acceptance suite) and are sampled with one binomial draw per row, in
    row order.
    """
    rng = np.random.default_rng(seed_sequence)
    success_probability = circuits.success_probability_fn(params_t, layer)

    def cost(xs):
        p_exact = success_probability(AnsatzParams(params_t.template, xs))
        return [
            1.0 - rng.binomial(shots_per_eval, min(max(p, 0.0), 1.0)) / shots_per_eval
            for p in p_exact.tolist()
        ]

    return cost


def evolve_stochastic(
    spec,
    init_scheme,
    spsa=SpsaSchedule(),
    shots_per_eval=2048,
    seed=0,
    template=FULL15,
    ground=None,
):
    """Stochastic variational evolution of the quench.

    Per step: seed the candidate via ``init_scheme``, run SPSA on the
    sampled cost, accept the final iterate. The first two steps use a
    ``BOOTSTRAP_FACTOR`` larger SPSA budget (extrapolation needs two
    previous points). Bit-identical for identical ``(spec, seed)``.

    A step whose cost or echo raises :class:`NumericFailure` or
    :class:`InvalidArgumentError` ends the run: the trajectory is truncated
    before it, marked incomplete, and ``failure`` holds the exception.
    ``shots_per_eval`` must be a positive integer.

    The gate layer and the ground-state tensor are built once per run; each
    step builds the side of the cost fixed by its current state
    (:func:`_sampled_cost`), and each SPSA iteration evaluates its +/- pair
    as one stacked call.

    The default template is Full15 because Reduced8 cannot represent the
    initial paramagnet: a derivative-free search stops at E = -1.000 per site
    against the exact -1.672 at g = 1.5, and :func:`ground_state_optimize`
    rejects its end point as reducible.
    """
    if init_scheme not in INIT_SCHEMES:
        raise InvalidArgumentError(f"unknown init scheme {init_scheme!r}")
    if not isinstance(shots_per_eval, numbers.Integral) or shots_per_eval < 1:
        raise InvalidArgumentError(
            f"shots_per_eval must be a positive integer, got {shots_per_eval!r}"
        )
    if ground is None:
        ground = ground_state_optimize(spec.J, spec.g0, template)
    layer, _ = circuits.evolution_gate_layer(spec)
    a_0 = tensor_of(ground)
    n_angles = len(ground.angles)
    times = spec.times
    angles = np.zeros((len(times), n_angles))
    angles[0] = ground.angles
    echoes = np.zeros(len(times))
    costs = np.zeros(len(times))
    cum_shots = np.zeros(len(times), dtype=np.int64)
    seedseq = np.random.SeedSequence(seed)
    failure = None
    for step in range(1, len(times)):
        prev = AnsatzParams(template, angles[step - 1].copy())
        init_seed, spsa_seed, shot_seed = seedseq.spawn(3)
        seedseq = seedseq.spawn(1)[0]
        if init_scheme == "random":
            x0 = np.random.default_rng(init_seed).uniform(-np.pi, np.pi, n_angles)
            seed_params = AnsatzParams(template, x0)
        elif init_scheme == "copy" or step < 3:
            seed_params = prev
        else:
            older = AnsatzParams(template, angles[step - 2].copy())
            seed_params = extrapolate(older, prev)
        budget = spsa.steps * (BOOTSTRAP_FACTOR if step <= 2 else 1)
        schedule = replace(spsa, steps=budget)
        try:
            cost = _sampled_cost(prev, layer, shots_per_eval, shot_seed)
            new_params, history = spsa_optimize(
                cost, seed_params, schedule, spsa_seed
            )
            echoes[step] = _echo_of_tensors(a_0, tensor_of(new_params))
        except (NumericFailure, qcore.InvalidArgumentError) as exc:
            failure = f"{type(exc).__name__}: {exc}"
            times = times[:step]
            angles, echoes = angles[:step], echoes[:step]
            costs, cum_shots = costs[:step], cum_shots[:step]
            break
        angles[step] = unwrap_toward(angles[step - 1], new_params.angles)
        costs[step] = history[-1] if history else np.nan
        # two cost evaluations per SPSA iteration
        cum_shots[step] = cum_shots[step - 1] + 2 * schedule.steps * shots_per_eval
    return Trajectory(
        spec=spec,
        template=template,
        init_scheme=init_scheme,
        seed=seed,
        shots_per_eval=shots_per_eval,
        times=times,
        angles=angles,
        echoes=echoes,
        costs=costs,
        cum_shots=cum_shots,
        complete=failure is None,
        failure=failure,
    )


def _step_objective(params_t, spec, cost_mode):
    """Objective of one reference step and its ``jac`` argument for
    ``minimize``: ``True`` when the objective returns its exact gradient,
    ``None`` for a finite-difference gradient."""
    if cost_mode == "eigen" and spec.trotter_order == 1:
        gate = tfim.trotter_gate_first_order(spec.J, spec.g1, spec.dt)
        ket = transfer.window_ket(tensor_of(params_t), gate, 2)

        def objective(x):
            b, db = tensor_of(AnsatzParams(params_t.template, x), grad=True)
            lam, dlam = transfer.cell_eigenvalue_gradient(ket, b, db)
            return -abs(lam), -np.real(np.conj(lam) * dlam) / abs(lam)

        return objective, True

    def objective(x):
        candidate = AnsatzParams(params_t.template, x)
        copies = candidate if cost_mode == "circuit_lw" else None
        return -circuits.dense_success_probability(
            params_t, candidate, spec, copies_params=copies
        )

    return objective, None


def evolve_exact_in_ansatz(spec, template=FULL15, cost_mode="eigen", ground=None):
    """Deterministic reference evolution: each step maximizes the dense
    fidelity objective to high precision (no sampling).

    ``cost_mode``: "eigen" maximizes |fidelity density| of the
    evolution-inserted transfer matrix (first order); "circuit_lt" /
    "circuit_lw" maximize the dense circuit cost with boundary copies taken
    from the current state / the candidate. Second-order Trotterisation
    always uses the circuit cost (the odd/even window).

    Each step is one BFGS minimization from the linear extrapolation of the
    previous two steps. The "eigen" objective supplies its exact gradient,
    d lambda = <l| dE |r> / <l|r> with dE from the closed-form dU/dtheta; the
    circuit costs use scipy's finite-difference gradient.
    """
    if cost_mode not in COST_MODES:
        raise InvalidArgumentError(f"unknown cost mode {cost_mode!r}")
    if ground is None:
        ground = ground_state_optimize(spec.J, spec.g0, template)
    times = spec.times
    angles = np.zeros((len(times), len(ground.angles)))
    angles[0] = ground.angles
    echoes = np.zeros(len(times))
    costs = np.zeros(len(times))
    complete = True
    for step in range(1, len(times)):
        prev = AnsatzParams(template, angles[step - 1].copy())
        if step >= 3:
            older = AnsatzParams(template, angles[step - 2].copy())
            seed_params = extrapolate(older, prev)
        else:
            seed_params = prev
        objective, jac = _step_objective(prev, spec, cost_mode)
        res = minimize(
            objective,
            seed_params.angles,
            method="BFGS",
            jac=jac,
            options={"gtol": GTOL},
        )
        if not np.all(np.isfinite(res.x)):
            complete = False
            times, angles = times[:step], angles[:step]
            echoes, costs = echoes[:step], costs[:step]
            break
        angles[step] = unwrap_toward(angles[step - 1], res.x)
        costs[step] = res.fun
        echoes[step] = echo_density(
            AnsatzParams(template, angles[0]), AnsatzParams(template, angles[step])
        )
    return Trajectory(
        spec=spec,
        template=template,
        init_scheme="extrapolate",
        seed=None,
        shots_per_eval=0,
        times=times,
        angles=angles,
        echoes=echoes,
        costs=costs,
        cum_shots=np.zeros(len(times), dtype=np.int64),
        complete=complete,
    )


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

    @property
    def envelope_width(self):
        return self.envelope_hi - self.envelope_lo


def ensemble_run(
    spec,
    init_scheme,
    n_runs,
    seeds=None,
    spsa=SpsaSchedule(),
    shots_per_eval=2048,
    template=FULL15,
    ground=None,
):
    """Ensemble of perfect-gate stochastic runs (shot noise only), all
    started from ``ground`` (solved here when not given). Full15 is the
    default template for the reason given in :func:`evolve_stochastic`."""
    if n_runs < 2:
        raise InvalidArgumentError("an ensemble needs at least 2 runs")
    if seeds is None:
        seeds = list(range(n_runs))
    if len(seeds) != n_runs:
        raise InvalidArgumentError("need one seed per run")
    if ground is None:
        ground = ground_state_optimize(spec.J, spec.g0, template)
    runs = [
        evolve_stochastic(
            spec,
            init_scheme,
            spsa=spsa,
            shots_per_eval=shots_per_eval,
            seed=s,
            template=template,
            ground=ground,
        )
        for s in seeds
    ]
    echoes = np.full((n_runs, len(spec.times)), np.nan)
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
