"""The dead-name guard: every top-level name of the package is reached from
inside the package, or is on one of two explicit lists. A name that only the
tests reach fails here, and so does a listed name once it is reached or gone,
or, for a name kept for the benchmark, once the benchmark no longer names it.
"""

import ast
import pathlib

import quenchmps

PACKAGE = pathlib.Path(quenchmps.__file__).parent
BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"

# what callers outside the package use: the drivers, the oracles, the
# reference quench, the statevector entry points and the version
PUBLIC_API = {
    "evolve.ensemble_run",
    "evolve.evolve_exact_in_ansatz",
    "tfim.loschmidt_exact_ff",
    "tfim.ground_energy_density_ff",
    "tfim.cusp_times",
    "tfim.REFERENCE_QUENCH",
    "circuits.build_cost_circuit",
    "circuits.exact_success_probability",
    "quenchmps.__version__",
}
# kept only because bench/ calls or traces them; deleted with benchmark v2
# (ROADMAP item 4)
KEPT_FOR_BENCH = {
    "qcore.rot_gate",
    "ansatz.mps_tensor",
    "transfer.window_overlap_map",
    "transfer.site_overlap_map",
    "circuits.dense_success_probability",
    "evolve.echo_density",
}


def top_level_names(tree):
    """Names that a module's own statements bind: functions, classes and
    assigned constants (not imports)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def referenced_names(tree):
    """Every name that a module reads, as a bare name, an attribute or an
    imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_only_listed_names_are_unreferenced_inside_the_package():
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    assert {"__init__", "ansatz", "evolve", "tfim"} <= trees.keys()
    referenced = set()
    for tree in trees.values():
        referenced.update(referenced_names(tree))
    unreferenced = {
        f"{'quenchmps' if module == '__init__' else module}.{name}"
        for module, tree in trees.items()
        for name in top_level_names(tree)
        if name not in referenced
    }
    listed = PUBLIC_API | KEPT_FOR_BENCH
    assert len(listed) == len(PUBLIC_API) + len(KEPT_FOR_BENCH)
    assert unreferenced == listed, (
        f"unlisted: {sorted(unreferenced - listed)}, "
        f"listed but referenced or gone: {sorted(listed - unreferenced)}"
    )


def test_every_name_kept_for_bench_is_named_by_the_bench():
    # the files that call or trace these names; only their text is read
    text = "".join(
        (BENCH / name).read_text() for name in ("harness.py", "tracing.py", "selftest.py")
    )
    assert sorted(name for name in KEPT_FOR_BENCH if name not in text) == []
