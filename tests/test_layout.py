"""The package layout: what the CLI loads, where imports sit, what the root exports."""
import ast
import functools
import importlib
import io
import os
import re
import shlex
import subprocess
import sys
import tokenize
import types
from pathlib import Path

import pytest

import crossroads
import crossroads.routes
from test_enumeration import CERTIFICATES

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
    """Neither the package root nor the CLI loads the routes or the constructive maps."""
    paths = [str(SRC), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    check = "print([name for name in ('crossroads.routes', 'crossroads.maps') if name in sys.modules])\n"
    code = "import sys, crossroads\n" + check + "import crossroads.cli\n" + check
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n[]\n", "")


def test_cli_loads_only_the_standard_library():
    """``import crossroads.cli`` adds no top-level module outside the standard library and the package.

    The baseline is what the interpreter had loaded before the import, so a
    module that ``site`` loads (from a ``.pth`` file, say) is not counted.
    """
    paths = [str(SRC), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import crossroads.cli\n"
        "added = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(added - set(sys.stdlib_module_names) - {'crossroads'}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("module", ["crossroads", "crossroads.cli"])
def test_import_loads_neither_dataclasses_nor_inspect(module):
    """Importing the package or its CLI adds neither ``dataclasses`` nor ``inspect`` to the interpreter.

    Together they cost about 10 ms of every CLI process; the records are
    ``partitions._Record`` subclasses. The baseline is what the interpreter
    had loaded before the import.
    """
    paths = [str(SRC), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"import {module}\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_no_function_level_imports():
    found = []
    for path in MODULES:
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno}" for node in _imports(func)]
    assert found == []


def test_no_module_imports_routes():
    """No module of the package imports the routes or the constructive maps."""
    assert {"routes.py", "maps.py"} <= {path.name for path in MODULES}
    importers = [
        f"{path.name} imports {module}" for path in MODULES for module in ("crossroads.routes", "crossroads.maps")
        if any(module in _modules_named(node) for node in _imports(ast.parse(path.read_text())))
    ]
    assert importers == []


def test_routes_name_no_engine_scan():
    """The routes recheck the engine, so they call none of its scans, walks or counters."""
    engine = {
        "is_noncrossing", "_exits", "nesting_forest", "classify", "classify_fast",
        "_u_turn_regions", "is_absolute", "Msl", "_walk", "noncrossing_partitions",
        "classified_stream", "_lonely_numbers", "_p_recursive", "tally", "tally_range",
    }
    tree = ast.parse((SRC / "crossroads" / "routes.py").read_text())
    named = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(tree)}
    named |= {alias.name for node in _imports(tree) for alias in node.names}
    assert sorted(named & engine) == []


def test_every_recurrence_table_is_certified():
    """The ``_..._RECURRENCE`` tables the package defines are, by name and rows, those the certificate test certifies."""
    tables = sorted(
        (target.id, getattr(importlib.import_module(f"crossroads.{path.stem}"), target.id))
        for path in MODULES for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assign) for target in node.targets
        if re.fullmatch(r"_\w+_RECURRENCE", getattr(target, "id", ""))
    )
    certified = sorted((param.id, param.values[1]) for param in CERTIFICATES if param.values[3])
    assert len(tables) >= 3 and tables == certified


def test_definition_route_reaches_no_region_scan(monkeypatch):
    """With the region scan refused, the definition route still answers: it calls the scan nowhere, not even indirectly."""
    def refuse(exits):
        raise AssertionError("the region scan was called")

    monkeypatch.setattr(crossroads.partitions, "_u_turn_regions", refuse)
    p = crossroads.Partition.from_text("1,4/2/3/5")
    assert crossroads.routes.can_merge(p, 2, 3) and not crossroads.routes.can_merge(p, 3, 5)
    assert crossroads.routes.classify_definitional(p) == (2, 3)
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


def test_region_scan_has_four_readers():
    """One region scan for both models, in ``partitions``, and four named readers.

    ``Msl`` validation reads its verdict and ``is_absolute`` its regions on
    the lane side; ``is_noncrossing`` reads the verdict and
    ``_singleton_regions`` the regions of a partition's exits, and
    ``nesting_forest`` and ``classify`` read that helper.
    ``intersection``'s rows build no ``Msl`` and run no lane scan: they read
    ``absolute`` off the walker's witness, so a per-row scan added back
    fails here.
    """
    found = [
        owner for owner, node in _owned_nodes()
        if getattr(node, "id", getattr(node, "attr", None)) == "_u_turn_regions"
    ]
    assert sorted(found) == [
        "intersection.Msl.__init__", "intersection.is_absolute",
        "partitions._singleton_regions", "partitions.is_noncrossing",
    ]
    defined = [
        f"{path.stem}.{node.name}" for path in MODULES for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name in {"_u_turn_regions", "_exits", "_regions"}
    ]
    assert sorted(defined) == ["partitions._exits", "partitions._u_turn_regions"]
    # and nothing caches the regions: a lane set is its exit permutation alone, and has no __dict__ to hold more
    assert crossroads.Msl.__slots__ == ("exits",)
    assert not hasattr(crossroads.Msl((1,)), "__dict__")


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


def test_only_the_streams_render_without_a_document():
    """Every ``_render`` call without ``document=`` is a stream's or the text-only ``bfile``'s.

    Those json lines write each cell as text or a bool, so a report, whose
    cells hold None or integers past 2^53 - 1, renders a document instead.
    """
    calls = [
        owner for owner, node in _owned_nodes()
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_render"
        and "document" not in {keyword.arg for keyword in node.keywords}
    ]
    assert sorted(calls) == ["cli.bfile", "cli.enumerate_cmd", "cli.intersection"]


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


def _leading_literal(comment: str):
    """The longest prefix of ``comment`` that is a Python literal, as ``(True, value)``, else ``(False, None)``."""
    for end in range(len(comment), 0, -1):
        try:
            return True, ast.literal_eval(comment[:end])
        except (ValueError, TypeError, SyntaxError):
            pass
    return False, None


def test_readme_library_example_runs():
    """The README's one python block runs, and each ``expr  # literal...`` line evaluates to that literal."""
    (source,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    comments = {
        token.start[0]: token.string[1:].strip()
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT
    }
    namespace: dict = {}
    wrong, checked = [], 0
    for statement in ast.parse(source).body:
        found, expected = _leading_literal(comments.get(statement.end_lineno, ""))
        if isinstance(statement, ast.Expr) and found:
            value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
            checked += 1
            if value != expected:
                wrong.append(f"{ast.unparse(statement)} gives {value!r}, the README says {expected!r}")
        else:
            exec(compile(ast.Module([statement], type_ignores=[]), "README.md", "exec"), namespace)
    assert wrong == [] and checked >= 3


def test_readme_transcripts_and_values_are_the_code_output(invoke):
    """The Quick start transcripts, the recomputed-values table, its published line and the verify sentence hold.

    Each ``$ crossroads ARGS`` line runs in-process and must print, byte for
    byte, the lines after it up to the next blank line or the block's end.
    """
    readme = (ROOT / "README.md").read_text()
    wrong = []
    (block,) = re.findall(r"## Quick start\n\n```\n(.*?)```", readme, re.S)
    transcripts = [chunk.strip("\n").split("\n") for chunk in block.split("\n\n")]
    for command, *lines in transcripts:
        args = shlex.split(command.removeprefix("$ crossroads "))
        result = invoke(args)
        if (result.exit_code, result.stdout) != (0, "".join(line + "\n" for line in lines)):
            wrong.append(f"{command} exits {result.exit_code} and prints {result.stdout!r}")

    rows = [tuple(map(int, row)) for row in re.findall(r"^\| (\d+) \| (\d+) \| (\d+) \| (\d+) \|$", readme, re.M)]
    tallies = crossroads.tally_range(14)
    computed = [(n, tallies[n].lonely, tallies[n].marriageable, tallies[n].total) for n in range(10, 15)]
    if rows != computed:
        wrong.append(f"the values table is {rows}, the recurrence gives {computed}")
    (published,) = re.findall(r"\(published: (.*?) respectively", readme, re.S)
    pairs = [tuple(map(int, pair.split("/"))) for pair in re.split(r",\s+", published)]
    # "totals agree throughout": each published row adds up to the recomputed total
    said = [(*pair, tallies[n].total) for n, pair in zip(range(10, 15), pairs)]
    if len(pairs) != 5 or said != [crossroads.published_row(n) for n in range(10, 15)]:
        wrong.append(f"the published line says {pairs}")

    ((ok, max_n, beyond),) = re.findall(r"`verify` exits (\d+) for `--max-n (\d+)` and exits (\d+) ", readme)
    for n, code in ((int(max_n), int(ok)), (int(max_n) + 1, int(beyond))):
        result = invoke(["verify", "--max-n", str(n)])
        if result.exit_code != code:
            wrong.append(f"verify --max-n {n} exits {result.exit_code}, the README says {code}")
    assert len(transcripts) == 5 and wrong == []
