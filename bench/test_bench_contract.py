"""Contract test of the wall-clock ledger (tier-1, < 30 s).

Runs ``bench/run.py --quick`` twice and checks what a later PR relies
on: every workload and metric BENCHMARK.json names is emitted with its
unit, names and counts stay within the driver's limits, exact counts
repeat bit-for-bit, and a deliberately corrupted answer is counted as a
failed operation.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bench import run, workloads

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Ratios that are exact functions of exact counts (the other ``ratio``
#: metrics are wall-clock shares).
EXACT_RATIOS = {"clampi.hit_rate", "core.sim_speedup_4_to_64",
                "serve.warm_fraction", "e2e.failed_frac"}


def _quick() -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--quick"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def quick_runs() -> tuple[dict, dict]:
    return _quick(), _quick()


def test_manifest_within_driver_limits():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in MANIFEST[key]]
    assert len(MANIFEST["workloads"]) <= 8
    assert len(MANIFEST["end_to_end"]) <= 16
    assert len(MANIFEST["per_layer"]) <= 128
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names)
    assert all(0 <= m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= \
        next(m for m in MANIFEST["end_to_end"]
             if m["name"] == "setup_s").items()
    assert [w["name"] for w in MANIFEST["workloads"]] == list(
        workloads.WORKLOADS)


def test_quick_run_emits_every_named_metric(quick_runs):
    doc = quick_runs[0]
    assert doc["quick"] is True
    assert set(doc["workloads"]) == {w["name"] for w in MANIFEST["workloads"]}
    for name, row in doc["workloads"].items():
        assert row["correct"] and row["failed"] == 0, name
        assert row["attempted"] >= 1
        for key in ("end_to_end", "per_layer"):
            want = {m["name"]: m["unit"] for m in MANIFEST[key]}
            got = {m: cell["unit"] for m, cell in row[key].items()}
            assert got == want, (name, key)
        assert all(cell["value"] > 0 for cell in row["end_to_end"].values())


def test_exact_counts_repeat_across_runs(quick_runs):
    a, b = quick_runs
    exact = [m["name"] for m in MANIFEST["per_layer"]
             if m["unit"] in ("count", "B", "sim_s")
             or m["name"] in EXACT_RATIOS]
    assert len(exact) > 30
    for name in a["workloads"]:
        for metric in exact:
            assert (a["workloads"][name]["per_layer"][metric]["value"]
                    == b["workloads"][name]["per_layer"][metric]["value"]), \
                (name, metric)


def test_corrupted_answer_counts_as_failed(monkeypatch):
    """Mutation test of the oracle: every ``tc`` answer is off by one."""
    real = workloads.Session.run

    def corrupt(self, kernel, **opts):
        result = real(self, kernel, **opts)
        if kernel == "tc":
            result.raw.global_triangles += 1
        return result

    w = workloads.WORKLOADS["kernel1d_pressure"]
    clean = run.measure(w, seed=3, seconds=0, traced=False, quick=True)
    assert clean["correct"] and clean["failed"] == 0
    monkeypatch.setattr(workloads.Session, "run", corrupt)
    out = run.measure(w, seed=3, seconds=0, traced=True, quick=True)
    assert not out["correct"]
    assert (out["failed"], out["attempted"]) == (4, 8)   # 2 tc ops x 2 repeats
    assert out["per_layer"]["e2e.failed_frac"]["value"] == 0.5
