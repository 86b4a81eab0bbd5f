"""The package layout: what the CLI loads, where imports sit, what the root exports."""
import ast
import dataclasses
import functools
import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import crossroads
import crossroads.routes

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MODULES = sorted((SRC / "crossroads").glob("*.py"))


def _imports(tree: ast.AST):
    return [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def _modules_named(node: "ast.Import | ast.ImportFrom") -> "list[str]":
    """Every dotted name an import statement could load, relative ones inside the package."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = f"crossroads.{node.module}" if node.level and node.module else node.module or "crossroads"
    return [base] + [f"{base}.{alias.name}" for alias in node.names]


def test_cli_does_not_load_the_routes():
    paths = [str(SRC), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = "import sys, crossroads.cli\nprint('crossroads.routes' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_no_function_level_imports():
    found = []
    for path in MODULES:
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno}" for node in _imports(func)]
    assert found == []


def test_no_module_imports_routes():
    assert "routes.py" in [path.name for path in MODULES]
    importers = [
        path.name for path in MODULES
        if any("crossroads.routes" in _modules_named(node) for node in _imports(ast.parse(path.read_text())))
    ]
    assert importers == []


def test_routes_name_no_engine_scan():
    """The routes recheck the engine, so they call none of its scans or counters.

    ``noncrossing_partitions`` stays allowed: ``nc_count_enumerated`` checks
    ``nc_count``, not the walker.
    """
    engine = {
        "is_noncrossing", "_regions", "nesting_forest", "classify", "classify_fast",
        "_u_turn_regions", "is_absolute", "Msl", "_walk", "classified_stream",
        "_lonely_numbers", "tally", "tally_range",
    }
    tree = ast.parse((SRC / "crossroads" / "routes.py").read_text())
    named = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(tree)}
    named |= {alias.name for node in _imports(tree) for alias in node.names}
    assert sorted(named & engine) == []


def test_definition_route_reaches_no_region_scan(monkeypatch):
    """With the region scan refused, the definition route still answers: it calls the scan nowhere, not even indirectly."""
    def refuse(p):
        raise AssertionError("the region scan was called")

    monkeypatch.setattr(crossroads.partitions, "_regions", refuse)
    p = crossroads.Partition.from_text("1,4/2/3/5")
    assert crossroads.routes.can_merge(p, 2, 3) and not crossroads.routes.can_merge(p, 3, 5)
    assert crossroads.routes.classify_definitional(p).witness == (2, 3)
    assert crossroads.routes.oracle_tally(7) == crossroads.Tally(7, 232, 197, 429)


def test_all_lists_every_public_name_of_the_root():
    bound = {
        name for name, value in vars(crossroads).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(crossroads.__all__) == sorted(bound)
    assert len(set(crossroads.__all__)) == len(crossroads.__all__)
    assert all(hasattr(crossroads, name) for name in crossroads.__all__)


def test_every_traced_name_resolves():
    """The names the benchmark tracer wraps exist, so a rename fails here and not under ``--trace 1``."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    traced = [
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]
    ]
    assert len(traced) == 1 and traced[0]
    missing = []
    for name in traced[0]:
        module, *attrs = name.split(".")
        try:
            functools.reduce(getattr, attrs, importlib.import_module(f"crossroads.{module}"))
        except (AttributeError, ImportError):
            missing.append(name)
    assert missing == []


def _owned_nodes():
    """Every AST node of the package with ``module.function``, its outermost enclosing function.

    A method is named with its class, as ``module.Class.method``.
    """
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in MODULES:
        tree = ast.parse(path.read_text())
        names = {}  # method -> Class.method
        owner = {}  # node -> outermost enclosing function, as ast.walk visits outer nodes first
        for func in ast.walk(tree):
            if isinstance(func, ast.ClassDef):
                names.update((f, f"{func.name}.{f.name}") for f in func.body if isinstance(f, functions))
            elif isinstance(func, functions):
                for node in ast.walk(func):
                    owner.setdefault(node, names.get(func, func.name))
        for node in ast.walk(tree):
            yield f"{path.stem}.{owner.get(node)}", node


def test_ceiling_errors_are_built_in_one_place():
    """Every size ceiling is enforced by ``check_size``, ``cli.verify``'s published-row limit included."""
    found = [
        owner for owner, node in _owned_nodes()
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "CeilingExceededError"
    ]
    assert sorted(found) == ["partitions.check_size"]


def test_unchecked_partitions_are_built_in_three_places():
    """Only the walker's two partition views and the lane bijection skip ``Partition`` validation.

    Each is guarded by a test. The walker yields its live lists;
    ``noncrossing_partitions`` and ``classified_stream`` hand the list of
    blocks to ``Partition._canonical``, which makes the copy.
    """
    found = [
        owner for owner, node in _owned_nodes()
        if isinstance(node, ast.Attribute) and node.attr == "_canonical"
    ]
    assert sorted(found) == [
        "enumeration.classified_stream", "enumeration.noncrossing_partitions", "intersection.msl_to_partition",
    ]


def test_lane_regions_are_scanned_in_two_places():
    """One lane scan with two readers: ``Msl`` validation reads its verdict, ``is_absolute`` its regions.

    ``intersection``'s rows build no ``Msl`` and run no lane scan: they read
    ``absolute`` off the walker's witness, so a per-row scan added back
    fails here.
    """
    found = [
        owner for owner, node in _owned_nodes()
        if getattr(node, "id", getattr(node, "attr", None)) == "_u_turn_regions"
    ]
    assert sorted(found) == ["intersection.Msl.__init__", "intersection.is_absolute"]
    # and nothing caches the regions: a lane set is its exit permutation alone
    assert [f.name for f in dataclasses.fields(crossroads.Msl)] == ["exits"]
    assert vars(crossroads.Msl((1,))) == {"exits": (1,)}


def test_rows_are_written_in_one_chunk_loop():
    """``_render`` is the one user of ``_lines`` and calls its write function once, on joined chunks.

    A per-row write would be one system call per row on a write-through stdout.
    """
    users = [owner for owner, node in _owned_nodes() if getattr(node, "id", None) == "_lines"]
    assert users == ["cli._render"]
    render = [node for owner, node in _owned_nodes() if owner == "cli._render"]
    withs = [item for node in render if isinstance(node, ast.With) for item in node.items]
    writers = [item.optional_vars.id for item in withs if ast.unparse(item.context_expr) == "_lines(output)"]
    assert len(writers) == 1
    names = {*writers, "write"}
    calls = [
        node for node in render
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) in names
    ]
    assert len(calls) == 1
    (call,) = calls
    assert ast.unparse(call) == f"{writers[0]}(''.join(chunk))"
    loops = [node for node in render if isinstance(node, (ast.For, ast.While))]
    assert any(call in ast.walk(loop) for loop in loops)


def test_readme_ceilings_are_the_code_ceilings():
    """Every `X_CEILING` the README names is a constant of the package or its routes, with the value it states."""
    readme = (ROOT / "README.md").read_text()
    named = re.findall(r"`([A-Z_]+_CEILING)`(?:\s*=\s*(\d+))?", readme)  # the value may follow a line break
    assert sum(1 for _, value in named if value) >= 5
    wrong = []
    for name, value in named:
        module = next((m for m in (crossroads, crossroads.routes) if hasattr(m, name)), None)
        if module is None or value and getattr(module, name) != int(value):
            wrong.append(f"{name} = {value}" if value else name)
    assert wrong == []
