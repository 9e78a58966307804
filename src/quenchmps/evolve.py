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
"""

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import minimize

from . import circuits, qcore, tfim, transfer
from .ansatz import FULL15, N_ANGLES, REDUCED8, AnsatzParams, tensor_of
from .qcore import InvalidArgumentError, NumericFailure

INIT_SCHEMES = ("random", "copy", "extrapolate")
COST_MODES = ("eigen", "circuit_lt", "circuit_lw")
GTOL = 1e-10  # BFGS gradient-norm tolerance of a reference step
BOOTSTRAP_FACTOR = 4  # SPSA budget multiplier while extrapolation lacks history


@dataclass(frozen=True)
class SpsaSchedule:
    """Gain schedule a_k = a/(k+1+A)^alpha, c_k = c/(k+1)^gamma.

    ``a = None`` calibrates the step scale from the first gradient estimate
    so the first update moves at most 0.1 rad per angle.
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

    def params_at(self, step):
        return AnsatzParams(self.template, self.angles[step].copy())

    @property
    def n_steps(self):
        return len(self.times) - 1


def echo_density(params_0, params_t):
    """Loschmidt echo rate -log |lambda(E_{A(0),A(t)})|^2 from the dense
    leading eigenvalue of the one-site mixed transfer matrix."""
    e = transfer.transfer_matrix(tensor_of(params_0), tensor_of(params_t))
    lam = transfer.fidelity_density(e)
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


def energy_density(params, J, g):
    """Energy per site of the iMPS: the bond-term expectation evaluated with
    the identity left and the leading right fixed point of the transfer
    matrix."""
    a = tensor_of(params)
    rho = _right_fixed_point(a)
    prods = transfer.strand_products(a, 2)
    h2 = tfim.bond_hamiltonian(J, g)
    value = np.einsum("ts,sab,bc,tac->", h2, prods, rho, prods.conj())
    return float(value.real)


def ground_state_optimize(J, g, template, optimizer_seed=0):
    """Variational ground state of H(g) at bond dimension 2.

    Deterministic direct search (Powell, then a Nelder-Mead polish) from
    seeded random angles of the template itself. Returns parameters whose
    energy density is converged to about 1e-6.
    """
    if template not in N_ANGLES:
        raise InvalidArgumentError(f"unknown template {template!r}")

    def objective(x):
        return energy_density(AnsatzParams(template, x), J, g)

    x0 = 0.4 * np.random.default_rng(optimizer_seed).standard_normal(N_ANGLES[template])
    res = minimize(
        objective,
        x0,
        method="Powell",
        options={"xtol": 1e-9, "ftol": 1e-12, "maxfev": 40000},
    )
    res = minimize(
        objective,
        res.x,
        method="Nelder-Mead",
        options={"xatol": 1e-9, "fatol": 1e-12, "maxfev": 40000},
    )
    return AnsatzParams(template, res.x)


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

    Rademacher perturbation directions; two cost evaluations per iteration;
    deterministic given ``rng_seed``. Returns the final iterate and the
    per-iteration mean measured cost.
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
        y_plus = cost(x + ck * delta)
        y_minus = cost(x - ck * delta)
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


class _ShotLedger:
    def __init__(self):
        self.total = 0

    def spend(self, shots):
        self.total += shots


def _sampled_cost(params_t, spec, shots_per_eval, seed_sequence, ledger, template):
    """Stochastic cost oracle 1 - p_hat for one evolution step.

    Success probabilities come from the dense contraction of the cost
    diagram, which equals the statevector circuit to machine precision (the
    equivalence is enforced by the acceptance suite), and are sampled with a
    binomial draw per evaluation.
    """
    rng = np.random.default_rng(seed_sequence)

    def cost(x):
        candidate = AnsatzParams(template, x)
        p_exact = circuits.dense_success_probability(params_t, candidate, spec)
        ledger.spend(shots_per_eval)
        p_hat = rng.binomial(shots_per_eval, min(max(p_exact, 0.0), 1.0)) / shots_per_eval
        return 1.0 - p_hat

    return cost


def evolve_stochastic(
    spec,
    init_scheme,
    spsa=SpsaSchedule(),
    shots_per_eval=2048,
    seed=0,
    template=REDUCED8,
    ground=None,
):
    """Stochastic variational evolution of the quench.

    Per step: seed the candidate via ``init_scheme``, run SPSA on the
    sampled cost, accept the final iterate. The first two steps use a
    ``BOOTSTRAP_FACTOR`` larger SPSA budget (extrapolation needs two
    previous points). Bit-identical for identical ``(spec, seed)``.
    """
    if init_scheme not in INIT_SCHEMES:
        raise InvalidArgumentError(f"unknown init scheme {init_scheme!r}")
    if ground is None:
        ground = ground_state_optimize(spec.J, spec.g0, template)
    n_angles = len(ground.angles)
    times = spec.times
    angles = np.zeros((len(times), n_angles))
    angles[0] = ground.angles
    echoes = np.zeros(len(times))
    costs = np.zeros(len(times))
    cum_shots = np.zeros(len(times), dtype=np.int64)
    ledger = _ShotLedger()
    seedseq = np.random.SeedSequence(seed)
    complete = True
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
        cost = _sampled_cost(prev, spec, shots_per_eval, shot_seed, ledger, template)
        try:
            new_params, history = spsa_optimize(
                cost, seed_params, schedule, spsa_seed
            )
            echoes[step] = echo_density(AnsatzParams(template, angles[0]), new_params)
        except (NumericFailure, qcore.InvalidArgumentError):
            complete = False
            times = times[:step]
            angles, echoes = angles[:step], echoes[:step]
            costs, cum_shots = costs[:step], cum_shots[:step]
            break
        angles[step] = unwrap_toward(angles[step - 1], new_params.angles)
        costs[step] = history[-1] if history else np.nan
        cum_shots[step] = ledger.total
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
        complete=complete,
    )


def _step_objective(params_t, spec, cost_mode):
    """Objective of one reference step and its ``jac`` argument for
    ``minimize``: ``True`` when the objective returns its exact gradient,
    ``None`` for a finite-difference gradient."""
    if cost_mode == "eigen" and spec.trotter_order == 1:
        gate = tfim.trotter_gate_first_order(spec.J, spec.g1, spec.dt)
        ket = transfer.cell_ket(tensor_of(params_t), gate)

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
    """Per-time statistics over an ensemble of stochastic runs."""

    times: np.ndarray
    echoes: np.ndarray  # shape (n_runs, n_times)
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
    template=REDUCED8,
):
    """Ensemble of perfect-gate stochastic runs (shot noise only)."""
    if n_runs < 2:
        raise InvalidArgumentError("an ensemble needs at least 2 runs")
    if seeds is None:
        seeds = list(range(n_runs))
    if len(seeds) != n_runs:
        raise InvalidArgumentError("need one seed per run")
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
    echoes = np.array([r.echoes for r in runs])
    return EnsembleStats(
        times=runs[0].times,
        echoes=echoes,
        mean=echoes.mean(axis=0),
        variance=echoes.var(axis=0, ddof=1),
        envelope_lo=np.percentile(echoes, 5.0, axis=0),
        envelope_hi=np.percentile(echoes, 95.0, axis=0),
        total_shots=int(sum(r.cum_shots[-1] for r in runs)),
    )
