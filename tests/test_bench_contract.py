import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

from quenchmps import circuits, evolve, tfim
from quenchmps.ansatz import FULL15, AnsatzParams

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_name_resolves(monkeypatch):
    # ``bench/run.py --trace 1`` looks each name up with getattr, so deleting
    # or renaming one of these functions breaks the traced benchmark
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for name in tracing.TRACED + tracing.SETUP_TRACED:
        owner, attr = name.split(".")
        module = importlib.import_module(f"quenchmps.{owner}")
        assert callable(getattr(module, attr, None)), name


def _binds(fn, *args, **kwargs):
    inspect.signature(fn).bind(*args, **kwargs)


def test_benchmark_call_shapes_bind():
    # the exact calls that bench/harness.py and bench/selftest.py make; a
    # renamed or dropped parameter breaks the benchmark before any test runs it
    spec, ground, prev = object(), object(), object()
    _binds(evolve.ground_state_optimize, 1.0, 1.5, FULL15)
    _binds(evolve.evolve_exact_in_ansatz, spec, FULL15, "eigen", ground=ground)
    _binds(
        evolve.evolve_stochastic, spec, "extrapolate",
        template=FULL15, shots_per_eval=2048, seed=0, ground=ground,
    )
    _binds(
        evolve.Trajectory, spec=spec, template=FULL15, init_scheme="extrapolate",
        seed=0, shots_per_eval=0, times=None, angles=None, echoes=None, costs=None,
        cum_shots=None,
    )
    _binds(circuits.dense_success_probability, prev, prev, spec)
    _binds(circuits.build_cost_circuit, prev, prev, spec)
    _binds(evolve.echo_density, ground, ground)
    _binds(evolve.energy_density, ground, 1.0, 1.5)


def test_what_the_benchmark_reads_holds():
    # bench/harness.py reads ground.angles and each trajectory's .angles, and
    # passes traj.params_at(step) to both circuit entry points
    angles = AnsatzParams(np.zeros(15)).angles
    assert angles.shape == (15,) and not angles.flags.writeable
    spec = tfim.REFERENCE_QUENCH
    traj = evolve.Trajectory(
        spec=spec, template=FULL15, init_scheme="extrapolate", seed=0,
        shots_per_eval=0, times=spec.times[:2], angles=np.arange(30.0).reshape(2, 15),
        echoes=np.zeros(2), costs=np.zeros(2), cum_shots=np.zeros(2, dtype=np.int64),
    )
    params = traj.params_at(1)
    assert np.array_equal(params.angles, traj.angles[1])
    circuits.dense_success_probability(params, params, spec)
    circuits.build_cost_circuit(params, params, spec)
