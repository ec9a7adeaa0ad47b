"""Source rules the test suite enforces on ``src/repro/`` (via ``ast``).

* **Fail closed.**  ``python -O`` strips ``assert`` statements, so a
  runtime invariant written as one silently stops being checked.  An
  ``assert`` is allowed only inside a function named
  ``check_invariants`` (the opt-in structural checks tests call);
  everywhere else a violated invariant raises.
* **One resident-cluster lifecycle.**  ``ResidentCluster.acquire`` is
  the only place a simulated cluster is built, for every cluster kind,
  so no module under ``src/repro/core/`` calls ``Engine(...)``; and
  under ``src/repro/graphstore/`` only the ``ResidentCluster`` class
  builds an engine, attaches or detaches a cache, or opens or closes an
  epoch (``Engine(...)``, ``attach_cache`` / ``detach_cache``,
  ``lock_all`` / ``unlock_all``): a kind supplies its build and its
  diff, never its own copy of the lifecycle.
* **One block representation.**  A 2D block lives once, as its packed
  window part.  In ``src/repro/core/tc2d.py`` and under
  ``src/repro/graphstore/`` a SciPy matrix (``csr_matrix(...)`` /
  ``coo_matrix(...)``) is constructed only inside ``_unpack_block``,
  the view a kernel multiplies with.
* **One command per subsystem.**  ``src/repro/cli.py`` reaches the
  analysis layer only through ``repro.analysis.benchsuite``, the
  ``repro bench`` driver: a subsystem is run and checked by its bench
  suite, not by a command with its own payload builder.
* **One request lifecycle.**  A served record (``QueryRecord(...)``,
  ``UpdateRecord(...)``, ``ReadRecord(...)``) is constructed only in
  ``src/repro/serve/records.py``, by the builders every serving loop
  calls; and ``src/repro/serve/tasks.py`` defines no generator (no
  ``yield``): the event loop acquires, runs and commits directly.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def parsed_modules(root: Path):
    for path in sorted(root.rglob("*.py")):
        yield path.relative_to(SRC.parent), ast.parse(path.read_text(),
                                                      str(path))


def asserts_outside_check_invariants(tree: ast.AST) -> list[int]:
    """Line numbers of ``assert`` statements not inside ``check_invariants``."""
    found: list[int] = []

    def visit(node: ast.AST, allowed: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, allowed or child.name == "check_invariants")
                continue
            if isinstance(child, ast.Assert) and not allowed:
                found.append(child.lineno)
            visit(child, allowed)

    visit(tree, False)
    return found


def call_name(node: ast.Call) -> str | None:
    """``f`` for ``f(...)`` and ``<expr>.f(...)``."""
    func = node.func
    return (func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None)


def engine_calls(tree: ast.AST) -> list[int]:
    """Line numbers of ``Engine(...)`` / ``<module>.Engine(...)`` calls."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and call_name(node) == "Engine"]


#: The calls that make up the resident-cluster lifecycle.
LIFECYCLE_CALLS = {"Engine", "attach_cache", "detach_cache", "lock_all",
                   "unlock_all"}


def lifecycle_calls_outside_base(tree: ast.AST) -> list[int]:
    """Line numbers of :data:`LIFECYCLE_CALLS` not inside the body of a
    class named ``ResidentCluster``."""
    found: list[int] = []

    def visit(node: ast.AST, allowed: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, allowed or child.name == "ResidentCluster")
                continue
            if (isinstance(child, ast.Call) and not allowed
                    and call_name(child) in LIFECYCLE_CALLS):
                found.append(child.lineno)
            visit(child, allowed)

    visit(tree, False)
    return found


#: The SciPy constructors a second copy of a block would be built with.
MATRIX_CALLS = {"csr_matrix", "coo_matrix"}


def matrix_builds_outside_unpack(tree: ast.AST) -> list[int]:
    """Line numbers of :data:`MATRIX_CALLS` not inside a function named
    ``_unpack_block``."""
    found: list[int] = []

    def visit(node: ast.AST, allowed: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, allowed or child.name == "_unpack_block")
                continue
            if (isinstance(child, ast.Call) and not allowed
                    and call_name(child) in MATRIX_CALLS):
                found.append(child.lineno)
            visit(child, allowed)

    visit(tree, False)
    return found


#: The one ``repro.analysis`` module the CLI may import.
CLI_ANALYSIS_MODULE = "repro.analysis.benchsuite"


def analysis_imports_besides_benchsuite(tree: ast.AST) -> list[int]:
    """Line numbers of imports of a ``repro.analysis`` module other than
    :data:`CLI_ANALYSIS_MODULE` (the package itself included)."""
    found: list[int] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules = ([f"{node.module}.{alias.name}" for alias in node.names]
                       if node.module == "repro.analysis" else [node.module])
        else:
            continue
        if any(m.split(".")[:2] == ["repro", "analysis"]
               and m != CLI_ANALYSIS_MODULE for m in modules):
            found.append(node.lineno)
    return sorted(found)


#: The served-record types, constructed only in :data:`RECORDS_MODULE`.
RECORD_TYPES = {"QueryRecord", "UpdateRecord", "ReadRecord"}
RECORDS_MODULE = "repro/serve/records.py"


def record_constructions(tree: ast.AST) -> list[int]:
    """Line numbers of :data:`RECORD_TYPES` constructor calls."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and call_name(node) in RECORD_TYPES)


def yields(tree: ast.AST) -> list[int]:
    """Line numbers of ``yield`` / ``yield from`` expressions."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, (ast.Yield, ast.YieldFrom)))


def test_no_assert_outside_check_invariants():
    offenders = [f"{path}:{line}" for path, tree in parsed_modules(SRC)
                 for line in asserts_outside_check_invariants(tree)]
    assert offenders == [], "raise instead of assert (survives python -O)"


def test_core_builds_no_engine():
    offenders = [f"{path}:{line}"
                 for path, tree in parsed_modules(SRC / "core")
                 for line in engine_calls(tree)]
    assert offenders == [], "build clusters through Session / acquire"


def test_only_the_base_runs_the_lifecycle_in_graphstore():
    offenders = [f"{path}:{line}"
                 for path, tree in parsed_modules(SRC / "graphstore")
                 for line in lifecycle_calls_outside_base(tree)]
    assert offenders == [], "go through ResidentCluster's lifecycle"


def test_one_block_representation():
    modules = [m for m in parsed_modules(SRC / "core")
               if m[0].name == "tc2d.py"]
    modules += parsed_modules(SRC / "graphstore")
    offenders = [f"{path}:{line}" for path, tree in modules
                 for line in matrix_builds_outside_unpack(tree)]
    assert offenders == [], "a 2D block lives once, as its packed part"


def test_cli_imports_only_the_bench_driver():
    tree = ast.parse((SRC / "cli.py").read_text())
    assert analysis_imports_besides_benchsuite(tree) == [], \
        "run a subsystem through its bench suite"


def test_one_request_lifecycle():
    offenders = [f"{path}:{line}" for path, tree in parsed_modules(SRC)
                 if path.as_posix() != RECORDS_MODULE
                 for line in record_constructions(tree)]
    assert offenders == [], "build served records in serve/records.py"
    tree = ast.parse((SRC / "serve" / "tasks.py").read_text())
    assert yields(tree) == [], "the event loop calls, tasks do not yield"


def test_rules_fire_on_what_they_forbid():
    tree = ast.parse(
        "def kernel():\n"
        "    assert total % 6 == 0\n"
        "def check_invariants():\n"
        "    assert ok\n"
        "    def inner():\n"
        "        assert fine\n"
        "engine = runtime.Engine(4)\n"
        "other = Engine(2)\n")
    assert asserts_outside_check_invariants(tree) == [2]
    assert engine_calls(tree) == [7, 8]
    tree = ast.parse(
        "class ResidentCluster:\n"
        "    def acquire(self):\n"
        "        self._engine = Engine(4)\n"
        "        win.lock_all(0)\n"
        "class GridCluster2D(ResidentCluster):\n"
        "    def _build(self):\n"
        "        engine = runtime.Engine(4)\n"
        "        ctx.attach_cache(win, cache)\n"
        "        ctx.detach_cache(win)\n"
        "        win.lock_all(0)\n"
        "        win.unlock_all(0)\n"
        "def helper(ctx):\n"
        "    ctx.attach_cache(win, cache)\n")
    assert lifecycle_calls_outside_base(tree) == [7, 8, 9, 10, 11, 13]
    tree = ast.parse(
        "def _unpack_block(data, n_cols):\n"
        "    return sp.csr_matrix((values, indices, indptr))\n"
        "def build_block(graph, grid, rank):\n"
        "    return sp.csr_matrix(shape, dtype=np.int64)\n"
        "def build_grid_blocks(graph, grid):\n"
        "    return [coo_matrix(e).tocsr() for e in edges]\n")
    assert matrix_builds_outside_unpack(tree) == [4, 6]
    tree = ast.parse(
        "from repro.analysis.benchsuite import run_suites\n"
        "from repro.analysis import benchsuite\n"
        "import repro.analysis.benchsuite\n"
        "from repro.analysis.dynamic import one_shot\n"
        "def cmd():\n"
        "    from repro.analysis.tracing import TRACE_SEED\n"
        "from repro.analysis import benchsuite, store\n"
        "import repro.analysis\n"
        "from repro.analysisx import y\n")
    assert analysis_imports_besides_benchsuite(tree) == [4, 6, 7, 8]
    tree = ast.parse(
        "def query_task(req):\n"
        "    done = yield Run(req)\n"
        "    return QueryRecord(qid=req.qid)\n"
        "def update_task(req):\n"
        "    yield from hold(req)\n"
        "    return [records.UpdateRecord(**f), ReadRecord(replica=r)]\n"
        "rec = query_record(req, result)\n")
    assert record_constructions(tree) == [3, 6, 6]
    assert yields(tree) == [2, 5]
