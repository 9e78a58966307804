"""Workloads, set-up, timed body, output checks and metrics of the quench
benchmark. ``run.py`` imports this module after it has timed the import of
``quenchmps``; see ``README.md`` for what each workload and metric means."""

import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np
from quenchmps import circuits, evolve, tfim
from quenchmps.ansatz import FULL15

import tracing
from probe import SpeedProbe

MEMBERS = 16  # runs per ensemble workload; run seeds 16*seed .. 16*seed+15
SHOTS_PER_EVAL = 2048
SETUP_REPEATS = 2  # ground-state solves per untraced run; setup_s is their median
CHECK_TOL = 1e-9

# name -> (unit, better); the order is the order of the printed report
END_TO_END = {
    "setup_s": ("s", "lower"),
    "steps_per_s": ("1/s", "higher"),
    "done_frac": ("fraction", "higher"),
    "evals_per_step": ("count", "lower"),
    "echo_err": ("1/site", "lower"),
    "echo_err_tstar": ("1/site", "lower"),
    "energy_gap": ("J/site", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

# the exceptions on which evolve_stochastic stops a run early; any other
# type is counted as "other"
STOP_TYPES = ("InvalidArgumentError", "NumericFailure")


def per_layer_units():
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for name in tracing.TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in tracing.SETUP_TRACED:
        units[f"setup.{name}.calls"] = "count"
        units[f"setup.{name}.self_s"] = "s"
    units["evolve.evals_per_step"] = "count"
    units["evolve.shots_per_step"] = "count"
    units["evolve.failed_runs"] = "count"
    for kind in (*STOP_TYPES, "other"):
        units[f"evolve.failure.{kind}"] = "count"
    units["trace.body_s"] = "s"
    units["trace.overhead_frac"] = "fraction"
    return units


@dataclass(frozen=True)
class Workload:
    spec: tfim.QuenchSpec
    members: int  # 0: one deterministic reference run

    def run_seeds(self, seed):
        return [self.members * seed + i for i in range(self.members)]

    def toy(self):
        return Workload(replace(self.spec, t_max=0.2), min(self.members, 2))


WORKLOADS = {
    "reference_eigen": Workload(replace(tfim.REFERENCE_QUENCH, t_max=1.0), 0),
    "ensemble_order1": Workload(tfim.REFERENCE_QUENCH, MEMBERS),
    "ensemble_order2": Workload(
        replace(tfim.REFERENCE_QUENCH, trotter_order=2), MEMBERS
    ),
}


@dataclass
class Pass:
    """One timed execution of a workload body."""

    seconds: float  # probe seconds when a probe ran, else wall seconds
    raw_s: float  # wall seconds
    trajectories: list  # one per run; None where the run raised
    raised: list  # exception type names of runs that raised
    early_stops: list  # exception type names behind truncated runs (traced only)
    evals: int  # optimizer evaluations of the reference run


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)
    notes: list = field(default_factory=list)  # extra figures for the log

    def to_json(self):
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


def solve_ground(spec):
    return evolve.ground_state_optimize(spec.J, spec.g0, FULL15)


def _counting_nfev(counter):
    def wrap(_name, minimize):
        def counted(*args, **kwargs):
            res = minimize(*args, **kwargs)
            counter[0] += res.nfev
            return res

        return counted

    return wrap


def body(workload, ground, seed, tracer=None, probe=None):
    """Run the workload once and time it, in probe seconds when ``probe`` is
    given. Every run seed is driven on its own; a run that raises is
    recorded and the next one still runs."""
    spec = workload.spec
    if workload.members == 0:
        calls = [lambda: evolve.evolve_exact_in_ansatz(spec, FULL15, "eigen", ground=ground)]
    else:
        calls = [
            lambda s=s: evolve.evolve_stochastic(
                spec,
                "extrapolate",
                template=FULL15,
                shots_per_eval=SHOTS_PER_EVAL,
                seed=s,
                ground=ground,
            )
            for s in workload.run_seeds(seed)
        ]
    nfev = [0]
    trajectories, raised, early_stops = [], [], []
    with tracing.patched(_counting_nfev(nfev), names=("evolve.minimize",)):
        start = time.perf_counter()
        with probe.measuring() if probe is not None else nullcontext() as block:
            for call in calls:
                if tracer is not None:
                    tracer.escaped.pop("evolve.evolve_stochastic", None)
                try:
                    traj = call()
                except Exception as exc:  # a failed run is counted, never dropped
                    traceback.print_exc(file=sys.stderr)
                    trajectories.append(None)
                    raised.append(type(exc).__name__)
                    continue
                trajectories.append(traj)
                if tracer is not None and not traj.complete:
                    early_stops.append(
                        tracer.escaped.get("evolve.evolve_stochastic", "other")
                    )
        raw_s = time.perf_counter() - start
    seconds = raw_s if block is None else block.seconds
    return Pass(seconds, raw_s, trajectories, raised, early_stops, nfev[0])


def timed_passes(workload, ground, seed, seconds, probe):
    """At least one pass; another while it is expected to end within
    ``seconds`` of wall time."""
    passes = [body(workload, ground, seed, probe=probe)]
    while sum(p.raw_s for p in passes) + passes[-1].raw_s <= seconds:
        passes.append(body(workload, ground, seed, probe=probe))
    return passes


# ---------------------------------------------------------------- figures


def completed_steps(p):
    return sum(t.n_steps for t in p.trajectories if t is not None)


def planned_steps(workload, p):
    return len(p.trajectories) * workload.spec.n_steps


def shots_per_step(p):
    shots = sum(int(t.cum_shots[-1]) for t in p.trajectories if t is not None)
    return shots / max(completed_steps(p), 1)


def evals_per_step(workload, p):
    """Nelder-Mead evaluations for the reference; for an ensemble, SPSA
    cost evaluations, each of which spends SHOTS_PER_EVAL shots."""
    if workload.members == 0:
        return p.evals / max(completed_steps(p), 1)
    return shots_per_step(p) / SHOTS_PER_EVAL


def _oracle(spec):
    """Free-fermion echo on the workload's time grid, and the first cusp t*
    (which lies beyond the horizon of the toy workloads)."""
    times = spec.times
    r_ff = tfim.loschmidt_exact_ff(spec.g0, spec.g1, times, J=spec.J)
    t_star = tfim.cusp_times(spec.g0, spec.g1, tfim.REFERENCE_QUENCH.t_max, J=spec.J)[0]
    return times, r_ff, t_star


def echo_errors(spec, p):
    """Mean over runs that completed a step of each run's largest
    |r - r_FF|, over its whole horizon and over t <= t*. For the single
    reference run this is its maximum error."""
    times, r_ff, t_star = _oracle(spec)
    full, early = [], []
    for traj in p.trajectories:
        if traj is None or traj.n_steps == 0:
            continue
        err = np.abs(traj.echoes - r_ff[: len(traj.echoes)])
        full.append(float(err.max()))
        early.append(float(err[traj.times <= t_star].max()))
    if not full:
        return float("inf"), float("inf")
    return float(np.mean(full)), float(np.mean(early))


def ensemble_mean_errors(spec, p):
    """Largest |mean r - r_FF|, the mean taken at each t over the runs that
    reached t, over the horizon and over t <= t*."""
    times, r_ff, t_star = _oracle(spec)
    rows = np.full((len(p.trajectories), len(times)), np.nan)
    for i, traj in enumerate(p.trajectories):
        if traj is not None:
            rows[i, : len(traj.echoes)] = traj.echoes
    reached = ~np.all(np.isnan(rows), axis=0)
    err = np.abs(np.nanmean(rows[:, reached], axis=0) - r_ff[reached])
    return float(err.max()), float(err[times[reached] <= t_star].max())


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------- checks


def dense_statevector_mismatches(traj, spec, dense=circuits.dense_success_probability):
    """Accepted steps where the dense contraction of the cost circuit and
    the statevector simulation of the same circuit differ by more than
    CHECK_TOL, as ``(step, p_dense, p_statevector)``."""
    bad = []
    for step in range(1, traj.n_steps + 1):
        prev, accepted = traj.params_at(step - 1), traj.params_at(step)
        p_dense = dense(prev, accepted, spec)
        p_sv = circuits.exact_success_probability(
            circuits.build_cost_circuit(prev, accepted, spec)
        )
        if not abs(p_dense - p_sv) <= CHECK_TOL:
            bad.append((step, p_dense, p_sv))
    return bad


def check_outputs(workload, ground, passes):
    """Failed output checks, as messages; empty when all hold."""
    spec = workload.spec
    problems = []
    e_ground = evolve.energy_density(ground, spec.J, spec.g0)
    e_exact = tfim.ground_energy_density_ff(spec.J, spec.g0)
    if not e_ground >= e_exact - CHECK_TOL:
        problems.append(f"ground energy {e_ground!r} lies below the exact {e_exact!r}")
    echo_0 = evolve.echo_density(ground, ground)
    if not abs(echo_0) <= CHECK_TOL:
        problems.append(f"echo of the ground state with itself is {echo_0!r}, not 0")
    first = passes[0].trajectories
    for i, traj in enumerate(first):
        if traj is None:
            continue
        if not np.all(np.isfinite(traj.echoes)):
            problems.append(f"run {i}: echo is not finite")
        if traj.echoes[0] != 0.0:
            problems.append(f"run {i}: echo at t=0 is {traj.echoes[0]!r}, not 0")
    for later in passes[1:]:
        for a, b in zip(first, later.trajectories):
            if (a is None) != (b is None) or (
                a is not None and not np.array_equal(a.angles, b.angles)
            ):
                problems.append("a repeated pass gave different trajectories")
                break
    if workload.members:
        member = next((t for t in first if t is not None), None)
        if member is not None:
            for step, p_dense, p_sv in dense_statevector_mismatches(member, spec):
                problems.append(
                    f"step {step}: dense probability {p_dense!r} "
                    f"differs from the statevector {p_sv!r}"
                )
    return problems


# ---------------------------------------------------------------- runs


def run(name, seed, seconds, trace, import_s, toy=False):
    workload = WORKLOADS[name]
    if toy:
        workload = workload.toy()
    if trace:
        return _traced_run(workload, seed)
    return _untraced_run(workload, seed, seconds, import_s, toy)


def _untraced_run(workload, seed, seconds, import_s, toy):
    spec = workload.spec
    probe = SpeedProbe()
    import_probe_s = probe.rescale(import_s)
    setups, setups_raw, grounds = [], [], []
    for _ in range(1 if toy else SETUP_REPEATS):
        with probe.measuring() as block:
            grounds.append(solve_ground(spec))
        setups.append(import_probe_s + block.seconds)
        setups_raw.append(import_s + block.raw_s)
    ground = grounds[-1]
    passes = timed_passes(workload, ground, seed, seconds, probe)
    rss = peak_rss_mb()

    problems = check_outputs(workload, ground, passes)
    if any(not np.array_equal(g.angles, ground.angles) for g in grounds):
        problems.append("repeated ground-state solves disagree")
    first = passes[0]
    echo_err, echo_err_tstar = echo_errors(spec, first)
    gap = evolve.energy_density(ground, spec.J, spec.g0) - tfim.ground_energy_density_ff(
        spec.J, spec.g0
    )
    values = {
        "setup_s": statistics.median(setups),
        "steps_per_s": sum(completed_steps(p) for p in passes)
        / sum(p.seconds for p in passes),
        "done_frac": completed_steps(first) / planned_steps(workload, first),
        "evals_per_step": evals_per_step(workload, first),
        "echo_err": echo_err,
        "echo_err_tstar": echo_err_tstar,
        "energy_gap": gap,
        "peak_rss_mb": rss,
    }
    notes = [
        f"passes {len(passes)}, body probe seconds "
        + ", ".join(f"{p.seconds:.3f}" for p in passes)
        + ", wall seconds "
        + ", ".join(f"{p.raw_s:.3f}" for p in passes),
        f"setup probe seconds (import {import_probe_s:.3f} included) "
        + ", ".join(f"{s:.3f}" for s in setups)
        + ", wall seconds "
        + ", ".join(f"{s:.3f}" for s in setups_raw),
        f"steps completed {completed_steps(first)} of {planned_steps(workload, first)}",
        f"shots per step {shots_per_step(first):.1f}",
    ]
    if workload.members:
        mean_err, mean_err_tstar = ensemble_mean_errors(spec, first)
        notes.append(
            f"ensemble-mean echo error {mean_err:.4f}, up to t* {mean_err_tstar:.4f}"
        )
        notes.append(f"run seeds {workload.run_seeds(seed)}")
    notes.extend(f"CHECK FAILED: {msg}" for msg in problems)
    return Result(
        correct=not problems,
        attempted=sum(len(p.trajectories) for p in passes),
        failed=sum(len(p.raised) for p in passes),
        metrics={k: (v, END_TO_END[k][0]) for k, v in values.items()},
        notes=notes,
    )


def _traced_run(workload, seed):
    spec = workload.spec
    tracer = tracing.Tracer()
    tracer.phase = "setup"
    with tracing.patched(tracer.wrap):
        ground = solve_ground(spec)
    plain = body(workload, ground, seed)
    tracer.phase = "body"
    with tracing.patched(tracer.wrap):
        traced = body(workload, ground, seed, tracer)

    problems = check_outputs(workload, ground, [plain, traced])
    units = per_layer_units()
    values = {}
    for name in tracing.TRACED:
        values[f"{name}.calls"] = tracer.stats[("body", name)][0]
        values[f"{name}.self_s"] = tracer.stats[("body", name)][1]
    for name in tracing.SETUP_TRACED:
        values[f"setup.{name}.calls"] = tracer.stats[("setup", name)][0]
        values[f"setup.{name}.self_s"] = tracer.stats[("setup", name)][1]
    values["evolve.evals_per_step"] = evals_per_step(workload, traced)
    values["evolve.shots_per_step"] = shots_per_step(traced)
    values["evolve.failed_runs"] = len(traced.raised) + len(traced.early_stops)
    reasons = traced.raised + traced.early_stops
    for kind in STOP_TYPES:
        values[f"evolve.failure.{kind}"] = reasons.count(kind)
    values["evolve.failure.other"] = sum(r not in STOP_TYPES for r in reasons)
    values["trace.body_s"] = traced.seconds
    values["trace.overhead_frac"] = traced.seconds / plain.seconds - 1.0
    notes = [
        f"untraced body {plain.seconds:.3f} s, traced body {traced.seconds:.3f} s",
        "early stops: " + (", ".join(reasons) or "none"),
    ]
    notes.extend(f"CHECK FAILED: {msg}" for msg in problems)
    return Result(
        correct=not problems,
        attempted=len(plain.trajectories) + len(traced.trajectories),
        failed=len(plain.raised) + len(traced.raised),
        metrics={k: (values[k], units[k]) for k in units},
        notes=notes,
    )
