"""Quench benchmark of ``quenchmps``: one workload per process, on one thread.

Run from the root of a checkout::

    python3 bench/run.py --workload reference_eigen --seed 0 --seconds 10 --trace 0

It prints one line per metric and, as its last line, a JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are per-layer
call counts and self times. It exits with 1 when an output check fails and
with 2, printing no result, when the checkout holds no ``quenchmps`` sources.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

# one thread: set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("reference_eigen", "ensemble_order1", "ensemble_order2")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--toy", action="store_true", help="t_max = 0.2 and 2 runs (self-test size)"
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds < 0:
        parser.error("--seconds must be nonnegative")
    return args


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "quenchmps" / "__init__.py").is_file():
        print(f"no quenchmps sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import quenchmps.circuits  # noqa: F401  (set-up: the import a user pays)
    import quenchmps.evolve  # noqa: F401

    import_s = time.perf_counter() - start

    import harness

    result = harness.run(
        args.workload, args.seed, args.seconds, args.trace, import_s, toy=args.toy
    )
    for note in result.notes:
        print(f"# {note}")
    for name, (value, unit) in result.metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps(result.to_json()))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
