"""Schema validation for BENCH_*.json reports and trajectory rows."""

import json

import pytest

from repro.analysis.benchsuite import (
    SUITE_NAMES,
    append_trajectory,
    get_suite,
    validate_file,
)
from repro.analysis.schema import (
    trajectory_row_problems,
    validate_report,
    validate_trajectory,
)


def _minimal_report(kind):
    report = {key: {} for key in get_suite(kind).keys}
    report["schema_version"] = 1
    report["quick"] = True
    return report


def test_infer_kind_from_filenames(tmp_path):
    """A file is validated as what its name claims, nothing more."""
    doc = json.dumps({"schema_version": 1})

    def problems(name):
        path = tmp_path / name
        path.write_text(doc)
        return validate_file(str(path))

    assert any("missing key 'kernels'" in p
               for p in problems("BENCH_kernels.json"))
    assert any("missing key 'burst'" in p
               for p in problems("BENCH_async.json"))
    assert problems("BENCH_async_quick.json") == []
    assert problems("report.json") == []
    assert any("'rows'" in p for p in problems("BENCH_trajectory.json"))


def test_required_keys_unknown_kind():
    with pytest.raises(ValueError, match="unknown bench suite"):
        get_suite("nope")


@pytest.mark.parametrize("kind", sorted(SUITE_NAMES))
def test_minimal_report_passes_per_kind(kind):
    assert validate_report(_minimal_report(kind), get_suite(kind).keys) == []


def test_missing_key_and_bad_schema_version():
    report = _minimal_report("kernels")
    del report["graphs"]
    report["schema_version"] = 0
    problems = validate_report(report, get_suite("kernels").keys)
    assert any("missing key 'graphs'" in p for p in problems)
    assert any("schema_version" in p for p in problems)


def test_non_finite_numbers_rejected():
    report = _minimal_report("kernels")
    report["kernels"] = {"lcc:g": {"wall_clock_s": float("nan")}}
    problems = validate_report(report, get_suite("kernels").keys)
    assert any("non-finite" in p and "wall_clock_s" in p for p in problems)


def test_non_dict_report():
    assert validate_report([1, 2], get_suite("kernels").keys)
    assert validate_report(None) != []


def test_trajectory_row_validation():
    good = {"date": "2026-08-08", "kind": "async", "speedup": 2.0}
    assert trajectory_row_problems(good) == []
    assert trajectory_row_problems({"date": "yesterday", "kind": "async",
                                    "x": 1})
    # Every row names its suite: the trajectory is one series.
    assert any("'kind'" in p for p in trajectory_row_problems(
        {"date": "2026-08-08", "x": 1}))
    assert trajectory_row_problems(
        {"date": "2026-08-08", "kind": "async", "quick": True})  # no payload
    assert trajectory_row_problems(
        {"date": "2026-08-08", "kind": "async", "x": float("inf")})
    # The source commit: a git hash, null outside a checkout, or absent
    # (rows older than the field) -- and never the row's only payload.
    assert trajectory_row_problems({**good, "commit": "059a4fc"}) == []
    assert trajectory_row_problems({**good, "commit": None}) == []
    assert any("'commit'" in p for p in trajectory_row_problems(
        {**good, "commit": "HEAD~1"}))
    assert any("'commit'" in p for p in trajectory_row_problems(
        {**good, "commit": 15}))
    assert trajectory_row_problems(
        {"date": "2026-08-08", "kind": "async", "commit": "059a4fc"})


def test_trajectory_document_validation():
    good = {"schema_version": 1,
            "rows": [{"date": "2026-01-01", "kind": "kernels", "n": 3}]}
    assert validate_trajectory(good) == []
    assert validate_trajectory({"schema_version": 1, "rows": "nope"})
    bad_row = {"schema_version": 1, "rows": [{"kind": "kernels", "n": 3}]}
    problems = validate_trajectory(bad_row)
    assert any("row 0" in p for p in problems)


def test_validate_file_dispatch(tmp_path):
    p = tmp_path / "BENCH_kernels.json"
    p.write_text(json.dumps(_minimal_report("kernels")))
    assert validate_file(str(p)) == []
    t = tmp_path / "BENCH_trajectory.json"
    t.write_text(json.dumps({"schema_version": 1, "rows": []}))
    assert validate_file(str(t)) == []
    missing = validate_file(str(tmp_path / "BENCH_store.json"))
    assert missing and "does not exist" in missing[0]
    corrupt = tmp_path / "BENCH_async.json"
    corrupt.write_text("{not json")
    problems = validate_file(str(corrupt))
    assert len(problems) == 1 and "not valid JSON" in problems[0]
    assert str(corrupt) in problems[0]


def test_append_refuses_malformed_row(tmp_path):
    path = str(tmp_path / "BENCH_trajectory.json")
    with pytest.raises(ValueError, match="malformed trajectory row"):
        append_trajectory({"date": "not-a-date", "kind": "k", "x": 1}, path)
    with pytest.raises(ValueError, match="malformed trajectory row"):
        append_trajectory({"date": "2026-08-08", "x": 1}, path)
    # A good row still appends.
    append_trajectory({"date": "2026-08-08", "kind": "kernels", "x": 1}, path)
    data = json.loads(open(path).read())
    assert [row["x"] for row in data["rows"]] == [1]
