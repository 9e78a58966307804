import importlib
import importlib.util
import sys
from pathlib import Path

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
