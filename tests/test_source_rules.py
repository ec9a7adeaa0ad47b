"""Source rules the test suite enforces on ``src/repro/`` (via ``ast``).

* **Fail closed.**  ``python -O`` strips ``assert`` statements, so a
  runtime invariant written as one silently stops being checked.  An
  ``assert`` is allowed only inside a function named
  ``check_invariants`` (the opt-in structural checks tests call);
  everywhere else a violated invariant raises.
* **One builder per cluster shape.**  ``Cluster1D.acquire`` and
  ``GridCluster2D.acquire`` are the only places a simulated cluster is
  built, so no module under ``src/repro/core/`` calls ``Engine(...)``.
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


def engine_calls(tree: ast.AST) -> list[int]:
    """Line numbers of ``Engine(...)`` / ``<module>.Engine(...)`` calls."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        if name == "Engine":
            lines.append(node.lineno)
    return lines


def test_no_assert_outside_check_invariants():
    offenders = [f"{path}:{line}" for path, tree in parsed_modules(SRC)
                 for line in asserts_outside_check_invariants(tree)]
    assert offenders == [], "raise instead of assert (survives python -O)"


def test_core_builds_no_engine():
    offenders = [f"{path}:{line}"
                 for path, tree in parsed_modules(SRC / "core")
                 for line in engine_calls(tree)]
    assert offenders == [], "build clusters through Session / acquire"


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
