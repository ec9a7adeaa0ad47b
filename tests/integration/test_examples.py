"""Smoke tests: the example scripts run end-to-end.

Each example is executed in-process (``runpy``) with stdout captured; we
assert on the domain output so a silent breakage cannot pass.
"""

import runpy
import sys
from pathlib import Path


EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, argv: list[str] | None = None) -> None:
    old_argv = sys.argv
    sys.argv = [name] + (argv or [])
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv


def test_quickstart(capsys):
    run_example("quickstart.py")
    out = capsys.readouterr().out
    assert "triangles" in out
    assert "distributed == cached == local results: OK" in out


def test_social_network_analysis(capsys):
    run_example("social_network_analysis.py")
    out = capsys.readouterr().out
    assert "community core" in out
    assert "top-degree vertices" in out


def test_scaling_study_custom_args(capsys):
    run_example("scaling_study.py", ["skitter", "--nodes", "4", "16",
                                     "--scale", "0.3"])
    out = capsys.readouterr().out
    assert "speedup 4 -> 16" in out
    assert "tric" in out


def test_link_recommendation(capsys):
    run_example("link_recommendation.py")
    out = capsys.readouterr().out
    assert "recommendations for vertex" in out
    assert "shared friends" in out


def test_session_queries(capsys):
    run_example("session_queries.py")
    out = capsys.readouterr().out
    assert "per-vertex triangle queries" in out
    assert "1 partitioning" in out


def test_cache_tuning(capsys):
    run_example("cache_tuning.py")
    out = capsys.readouterr().out
    assert "no cache:" in out
    assert "runs amortized one partitioning" in out


def test_serving(capsys):
    run_example("serving.py")
    out = capsys.readouterr().out
    assert "cache-affinity scheduling" in out
    assert "answers identical: True" in out


def test_dynamic_graph(capsys):
    run_example("dynamic_graph.py")
    out = capsys.readouterr().out
    assert "mode = transparent" in out
    assert "all epochs correct: True" in out


def test_dynamic_updates(capsys):
    run_example("dynamic_updates.py")
    out = capsys.readouterr().out
    # Each epoch's post-update answer against the raw, un-memoised recount.
    assert out.count("scores match the raw recount: True") == 3
    assert "scores match the raw recount: False" not in out
    assert "retained" in out
    assert "3 batches affected" in out


def test_graph_versions(capsys):
    run_example("graph_versions.py")
    out = capsys.readouterr().out
    assert "@v3" in out
    assert "rekeyed" in out
    assert "blocks" in out
    assert "replica replay: digests agree" in out
