"""Self-test of the quench benchmark at toy size. Run from the root of a
checkout::

    python3 bench/selftest.py

It runs every workload of ``BENCHMARK.json`` at t_max = 0.2 with 2 runs,
untraced and traced, through ``run.py``, and checks that

* each run passes its output checks and emits every metric that
  ``BENCHMARK.json`` names, with its unit, and no other;
* the dense/statevector check trips on a mismatched probability;
* ``run.py`` exits non-zero, printing no result, in a directory that holds
  only ``BENCHMARK.json`` and ``bench/``.

It exits with 0 when all of these hold and prints each failure otherwise.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["bench/run.py"]
TIMEOUT_S = 300


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, *RUN, *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )


def check_toy_runs(spec, failures):
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            proc = run_bench(
                ROOT, "--workload", workload, "--seed", "0", "--seconds", "0",
                "--trace", str(trace), "--toy",
            )
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{label}: result keys {sorted(result)}")
                continue
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                failures.append(f"{label}: {result['correct']=} {result['attempted']=} {result['failed']=}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(k for k in got if k in expected[trace] and got[k] != expected[trace][k])
                failures.append(f"{label}: missing {missing}, extra {extra}, wrong unit {wrong}")
            for name, entry in result["metrics"].items():
                if not isinstance(entry["value"], (int, float)):
                    failures.append(f"{label}: {name} is not a number")
            print(f"ok {label}", flush=True)


def check_mismatch_trips(failures):
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from quenchmps import circuits, evolve
    from quenchmps.ansatz import FULL15

    import harness

    if harness.WORKLOADS["ensemble_order1"].run_seeds(0) != list(range(16)):
        failures.append("seed 0 does not give run seeds 0-15")
    spec = harness.WORKLOADS["ensemble_order1"].spec
    rng = np.random.default_rng(5)
    angles = np.cumsum(0.05 * rng.standard_normal((3, 15)), axis=0)
    traj = evolve.Trajectory(
        spec=spec,
        template=FULL15,
        init_scheme="extrapolate",
        seed=0,
        shots_per_eval=0,
        times=spec.dt * np.arange(3),
        angles=angles,
        echoes=np.zeros(3),
        costs=np.zeros(3),
        cum_shots=np.zeros(3, dtype=np.int64),
    )
    if harness.dense_statevector_mismatches(traj, spec):
        failures.append("dense/statevector check trips on matching probabilities")

    def skewed(*args):
        return circuits.dense_success_probability(*args) * (1.0 + 1e-6)

    if len(harness.dense_statevector_mismatches(traj, spec, dense=skewed)) != 2:
        failures.append("dense/statevector check misses a mismatched probability")
    print("ok dense/statevector check", flush=True)


def check_refuses_without_sources(failures):
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(ROOT / "bench", Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(tmp, "--workload", "reference_eigen", "--seed", "0", "--seconds", "1", "--trace", "0")
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"run without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("ok refuses to run without sources", flush=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    check_refuses_without_sources(failures)
    check_mismatch_trips(failures)
    check_toy_runs(spec, failures)
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
