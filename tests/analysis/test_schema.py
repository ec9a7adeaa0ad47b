"""Schema validation for BENCH_*.json reports."""

import json

import pytest

from repro.analysis.benchsuite import SUITE_NAMES, get_suite, validate_file
from repro.analysis.schema import validate_report


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
    assert any("missing key 'burst'" in p
               for p in problems("BENCH_async_quick.json"))
    assert any("missing key 'ablations'" in p
               for p in problems("BENCH_paper_quick.json"))
    assert problems("report.json") == []


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


def test_validate_file_dispatch(tmp_path):
    p = tmp_path / "BENCH_kernels.json"
    p.write_text(json.dumps(_minimal_report("kernels")))
    assert validate_file(str(p)) == []
    missing = validate_file(str(tmp_path / "BENCH_store.json"))
    assert missing and "does not exist" in missing[0]
    corrupt = tmp_path / "BENCH_async.json"
    corrupt.write_text("{not json")
    problems = validate_file(str(corrupt))
    assert len(problems) == 1 and "not valid JSON" in problems[0]
    assert str(corrupt) in problems[0]
