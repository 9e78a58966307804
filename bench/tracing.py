"""Call counts and self time for public functions of ``quenchmps``.

The tracer replaces each traced function by a wrapper in every module of the
package that binds it, so a name brought in with ``from ... import`` is seen
wherever it is called (``circuits.build_unitary``, ``evolve.tensor_of``,
``ansatz.rot_gate``, ``evolve.minimize``). Spans nest through a stack: a
span's self time is its duration minus the durations of the spans it
encloses. Spans are aggregated per ``(phase, name)`` in memory rather than
stored one by one, because the reference workload makes about a million
calls.
"""

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# Functions wrapped in a traced run, named by the module that defines them
# (``evolve.minimize`` is scipy's minimize as bound in ``evolve``).
TRACED = (
    "qcore.leading_eig",
    "qcore.two_site_exp",
    "qcore.rot_gate",
    "ansatz.build_unitary",
    "ansatz.mps_tensor",
    "ansatz.tensor_of",
    "transfer.transfer_matrix",
    "transfer.strand_products",
    "transfer.window_overlap_map",
    "transfer.site_overlap_map",
    "circuits.dense_success_probability",
    "circuits.evolution_gate_layer",
    "tfim.trotter_gate_first_order",
    "tfim.trotter_gates_second_order",
    "evolve.minimize",
    "evolve.spsa_optimize",
    "evolve.energy_density",
    "evolve.echo_density",
    "evolve.ground_state_optimize",
    "evolve.evolve_exact_in_ansatz",
    "evolve.evolve_stochastic",
)

# The subset that the ground-state solve reaches; only these get
# ``setup.``-prefixed metrics.
SETUP_TRACED = (
    "qcore.two_site_exp",
    "qcore.rot_gate",
    "ansatz.build_unitary",
    "ansatz.mps_tensor",
    "ansatz.tensor_of",
    "transfer.transfer_matrix",
    "transfer.strand_products",
    "evolve.minimize",
    "evolve.energy_density",
    "evolve.ground_state_optimize",
)

MODULES = ("qcore", "tfim", "ansatz", "transfer", "circuits", "evolve")


class Tracer:
    """Aggregated spans: ``stats[(phase, name)] = [calls, self_s]``.

    ``escaped[name]`` is the type name of the last exception that left a
    child span of the span ``name``; a caller that catches the exception
    (``evolve_stochastic`` stops early this way) leaves it there as the reason.
    """

    def __init__(self):
        self.phase = "body"
        self.stats = defaultdict(lambda: [0, 0.0])
        self.escaped = {}
        self._stack = []

    def wrap(self, name, fn):
        stack = self._stack
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0, name]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if len(stack) > 1:
                    self.escaped[stack[-2][1]] = type(exc).__name__
                raise
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                entry = self.stats[(self.phase, name)]
                entry[0] += 1
                entry[1] += duration - frame[0]

        traced.__wrapped__ = fn
        return traced


def _package_modules():
    return {m: importlib.import_module(f"quenchmps.{m}") for m in MODULES}


@contextmanager
def patched(wrap, names=TRACED):
    """Replace every binding of each named function inside the package by
    ``wrap(name, fn)``; restore the originals on exit."""
    modules = _package_modules()
    saved = []
    try:
        for name in names:
            owner, attr = name.split(".")
            original = getattr(modules[owner], attr)
            wrapper = wrap(name, original)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        saved.append((module, key, value))
                        setattr(module, key, wrapper)
        yield
    finally:
        for module, key, value in reversed(saved):
            setattr(module, key, value)
