"""Tests for the command-line interface."""

import copy
import dataclasses
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def patch_suite_run(monkeypatch, module, report):
    """Make ``module.SUITE`` "measure" ``report`` instead of running."""
    monkeypatch.setattr(module, "SUITE", dataclasses.replace(
        module.SUITE, run=lambda quick: report))


class TestDatasets:
    def test_lists_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "livejournal" in out
        assert "rmat-s21-ef16" in out


class TestInfo:
    def test_dataset_info(self, capsys):
        assert main(["info", "skitter", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "vertices" in out
        assert "degree_max" in out

    def test_info_json(self, capsys):
        assert main(["info", "skitter", "--scale", "0.2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["vertices"] > 0

    def test_input_file(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n0 2\n")
        assert main(["info", "--input", str(path)]) == 0
        assert "vertices" in capsys.readouterr().out

    def test_missing_graph_rejected(self, capsys):
        assert main(["info"]) == 2
        assert capsys.readouterr().err == (
            "repro: error: pass a dataset name or --input FILE\n")


class TestLcc:
    def test_lcc_run(self, capsys):
        assert main(["lcc", "skitter", "--scale", "0.2",
                     "--nranks", "4"]) == 0
        out = capsys.readouterr().out
        assert "simulated_time" in out
        assert "global_triangles" in out

    def test_lcc_cached_json(self, capsys):
        assert main(["lcc", "skitter", "--scale", "0.2", "--nranks", "4",
                     "--cache", "degree", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["hit_rate"] >= 0

    def test_lcc_top_and_output(self, tmp_path, capsys):
        out_file = tmp_path / "scores.npy"
        assert main(["lcc", "skitter", "--scale", "0.2", "--nranks", "2",
                     "--top", "3", "--json", "--output", str(out_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["top_lcc_vertices"]) == 3
        scores = np.load(out_file)
        assert scores.shape[0] == payload["vertices"]

    @pytest.mark.parametrize("output", ["{tmp}/no/such/dir/x.npy",
                                        "{tmp}/dir.npy"],
                             ids=["missing-dir", "a-directory"])
    def test_unwritable_output_fails_before_the_run(
            self, output, tmp_path, capsys, monkeypatch):
        import repro.cli as cli

        def never(*args, **kwargs):
            raise AssertionError("run_kernel called for an unwritable path")

        monkeypatch.setattr(cli, "run_kernel", never)
        (tmp_path / "dir.npy").mkdir()
        assert main(["lcc", "facebook-circles", "--scale", "0.2",
                     "--output", output.format(tmp=tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro: error: cannot write --output")
        assert captured.err.count("\n") == 1

    def test_output_check_leaves_no_file_behind(self, tmp_path, capsys,
                                                monkeypatch):
        """The writability check creates nothing a failed run leaves
        behind, and ``--output`` without ``.npy`` names ``np.save``'s
        file."""
        import repro.cli as cli
        from repro.utils.errors import KernelError

        def failing(*args, **kwargs):
            raise KernelError("no such kernel")

        monkeypatch.setattr(cli, "run_kernel", failing)
        assert main(["lcc", "facebook-circles", "--scale", "0.2",
                     "--output", str(tmp_path / "scores")]) == 2
        assert list(tmp_path.iterdir()) == []
        monkeypatch.undo()
        assert main(["lcc", "facebook-circles", "--scale", "0.2",
                     "--output", str(tmp_path / "scores")]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["scores.npy"]
        assert capsys.readouterr().err.endswith(
            f"LCC scores written to {tmp_path / 'scores.npy'}\n")


class TestTc:
    @pytest.mark.parametrize("algorithm", ["async", "async-2d", "tric",
                                           "disttc", "mapreduce"])
    def test_all_algorithms_agree(self, algorithm, capsys):
        assert main(["tc", "skitter", "--scale", "0.15", "--nranks", "4",
                     "--algorithm", algorithm, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["triangles"] > 0

    def test_triangle_counts_consistent(self, capsys):
        counts = set()
        for algorithm in ("async", "tric", "mapreduce"):
            main(["tc", "skitter", "--scale", "0.15", "--nranks", "4",
                  "--algorithm", algorithm, "--json"])
            counts.add(json.loads(capsys.readouterr().out)["triangles"])
        assert len(counts) == 1


class TestKernels:
    def test_lists_every_registered_kernel(self, capsys):
        from repro.session import kernel_names

        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        for name in kernel_names():
            assert name in out
        assert "resident" in out  # traits are shown

    def test_square_grid_trait_listed(self, capsys):
        # The SUMMA kernels advertise their grid-shape requirement.
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        for line in out.splitlines():
            name = line.split()[0] if line.split() else ""
            if name in ("tc2d_spgemm", "lcc2d"):
                assert "square-grid" in line, line
            elif name == "tc2d":
                assert "square-grid" not in line, line

    def test_run_unknown_kernel_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "skitter", "--scale", "0.2", "--kernel", "nope"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_run_unknown_dataset_rejected(self, capsys):
        assert main(["run", "no-such-dataset", "--kernel", "lcc"]) == 2
        assert capsys.readouterr().err.startswith(
            "repro: error: unknown dataset 'no-such-dataset'")

    def test_run_without_graph_rejected(self, capsys):
        assert main(["run", "--kernel", "lcc"]) == 2
        assert capsys.readouterr().err == (
            "repro: error: pass a dataset name or --input FILE\n")


class TestInputErrors:
    @pytest.mark.parametrize("argv", [
        ["info", "nosuch"],
        ["lcc", "facebook-circles", "--nranks", "0"],
        ["run", "facebook-circles", "--kernel", "lcc2d", "--nranks", "8"],
        ["tc", "--input", "{tri}", "--directed"],
        ["info", "--input", "{bad}"],
        ["info", "--input", "{missing}"],
    ], ids=" ".join)
    def test_bad_input_is_one_line_and_exit_2(self, argv, tmp_path, capsys):
        (tmp_path / "tri.txt").write_text("0 1\n1 2\n2 0\n")
        (tmp_path / "bad.txt").write_text("1 x\n")
        argv = [a.format(tri=tmp_path / "tri.txt", bad=tmp_path / "bad.txt",
                         missing=tmp_path / "missing.txt") for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro: error: ")
        assert captured.err.count("\n") == 1

    def test_internal_faults_still_raise(self, monkeypatch):
        import repro.cli as cli
        from repro.utils.errors import SimulationError

        def fault(*args, **kwargs):
            raise SimulationError("time went backwards")

        monkeypatch.setattr(cli, "run_kernel", fault)
        with pytest.raises(SimulationError):
            main(["lcc", "facebook-circles", "--scale", "0.2"])


class TestCommandSet:
    COMMANDS = ("datasets", "kernels", "info", "lcc", "tc", "run", "bench")

    def test_help_lists_exactly_the_commands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "{" + ",".join(self.COMMANDS) + "}" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["update", "store", "shard", "serve",
                                         "async-serve", "trace"])
    def test_removed_command_exits_2(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["dynamic", "--check"],
        ["dynamic", "--edges", "50"],
        ["store", "--edges", "50"],
        ["shard", "--nshards", "8"],
        ["serve", "--pool-capacity", "5"],
        ["async", "--workers", "2"],
        ["trace", "--scheduler", "interleave"],
    ], ids=" ".join)
    def test_bench_takes_no_workload_flags(self, argv, capsys):
        """A gated run is pinned: `bench <suite>` has no baseline mode
        (`--check`) and rejects the flags the removed one-off commands
        took."""
        with pytest.raises(SystemExit) as exc:
            main(["bench", argv[0], "--quick", *argv[1:]])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def readme_commands() -> list:
    """Every distinct ``python -m repro …`` command in README.md, as argv
    lists; usage synopses (``[SUITE ...]``) are not commands."""
    text = README.read_text(encoding="utf-8").replace("\\\n", " ")
    found = (shlex.split(m["args"], comments=True)
             for m in re.finditer(r"(?:^|`)python -m repro (?P<args>[^`\n]*)",
                                  text, re.M)
             if "[" not in m["args"])
    return [list(argv) for argv in dict.fromkeys(map(tuple, found))]


class TestReadme:
    @pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
    def test_readme_command_parses(self, argv):
        build_parser().parse_args(argv)

    def test_readme_has_commands(self):
        assert len(readme_commands()) >= 10


class TestServe:
    def test_serve_bench_writes_gated_report(self, tmp_path, capsys,
                                             monkeypatch, quick_report_of):
        import repro.analysis.serving as srv
        from repro.analysis.benchsuite import evaluate

        patch_suite_run(monkeypatch, srv, quick_report_of("serve"))
        assert main(["bench", "serve", "--quick",
                     "--dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "BENCH_serve_quick.json").read_text())
        assert evaluate(srv.SUITE, report) == []
        captured = capsys.readouterr()
        assert "| serve | measured | 3/3 rows hold; " in captured.out
        assert "| PASS | True (2 rows) | workloads.*.results_identical" \
            in captured.out
        assert "serve gate OK; report written to" in captured.err


class TestBench:
    def test_bench_json_round_trip(self, tmp_path, capsys):
        from repro.analysis.benchreport import SUITE
        from repro.analysis.benchsuite import evaluate

        assert main(["bench", "kernels", "--quick",
                     "--dir", str(tmp_path)]) == 0
        out_file = tmp_path / "BENCH_kernels_quick.json"
        assert not (tmp_path / "BENCH_kernels.json").exists()
        report = json.loads(out_file.read_text())
        assert evaluate(SUITE, report) == []  # keys, finite numbers, gates
        assert report["quick"] is True
        # Every kernel × graph cell records wall clock + simulated time.
        assert report["kernels"]
        for name, row in report["kernels"].items():
            assert row["wall_clock_s"] > 0
            assert row["simulated_time_s"] > 0
            # Only the 1D CLaMPI kernels carry both cache rates.
            if name.split(":")[0] in ("lcc", "tc"):
                assert row["offsets_hit_rate"] is not None
        # The cached-replay section proves the fast path stayed exact.
        assert report["cached_replay"]
        for row in report["cached_replay"].values():
            assert row["bit_identical"] is True
            assert row["warm_speedup"] > 0
        out = capsys.readouterr().out
        assert "| kernels | measured | 2/2 rows hold; n_kernels " in out

    def test_failing_run_keeps_the_committed_report(
            self, tmp_path, capsys, monkeypatch, quick_report_of):
        """A full-size run writes to the committed report's path: a failing
        run leaves the previous contents in place, a passing one replaces
        them."""
        import repro.analysis.dynamic as dyn

        path = tmp_path / "BENCH_dynamic.json"
        path.write_text("{}")
        bad = copy.deepcopy(quick_report_of("dynamic"))
        next(iter(bad["incremental"].values()))["bit_identical"] = False
        patch_suite_run(monkeypatch, dyn, bad)
        assert main(["bench", "dynamic", "--dir", str(tmp_path)]) == 1
        assert "dynamic gate FAILED" in capsys.readouterr().err
        assert path.read_text() == "{}"
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_dynamic.json"]
        patch_suite_run(monkeypatch, dyn, quick_report_of("dynamic"))
        assert main(["bench", "dynamic", "--dir", str(tmp_path)]) == 0
        assert json.loads(path.read_text())["invalidation"]

    def test_paper_bench_names_the_violated_claim(
            self, tmp_path, capsys, monkeypatch, quick_report_of):
        """One claim pushed past its bound: exit 1, one line naming the
        row and quoting the paper, FAIL in the summary, nothing written."""
        import repro.analysis.paper as paper

        doctored = copy.deepcopy(quick_report_of("paper"))
        for graph in doctored["scaling"]["fig9"].values():
            graph["speedup"]["lcc"] = 3.9
        patch_suite_run(monkeypatch, paper, doctored)
        assert main(["bench", "paper", "--quick",
                     "--dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.count("paper gate: ") == 1
        assert "speedup.lcc: Fig. 9: non-cached LCC strong-scales" \
            in captured.err
        n = len(paper.SUITE.gates)
        assert f"| paper | measured | {n - 1}/{n} rows hold; " in captured.out
        assert captured.out.count("| FAIL |") == 1
        assert not (tmp_path / "BENCH_paper_quick.json").exists()

    def test_all_runs_every_suite_and_reports_every_failure(
            self, tmp_path, capsys, monkeypatch, quick_report_of):
        import repro.analysis.benchreport as br
        import repro.analysis.benchsuite as bs

        monkeypatch.setattr(bs, "SUITE_NAMES", ("kernels", "shard"))
        patch_suite_run(monkeypatch, br, quick_report_of("kernels"))
        TestShard._patch_canned_shard(monkeypatch, scaling=1.1)
        assert main(["bench", "--quick", "--dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "kernels gate OK" in err and "shard gate FAILED" in err
        assert "bench FAILED: shard" in err
        assert [p.name for p in tmp_path.iterdir()] == \
            ["BENCH_kernels_quick.json"]

    def test_list_and_unknown_suite(self, capsys):
        from repro.analysis.benchsuite import SUITE_NAMES

        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for name in SUITE_NAMES:
            assert f"| `{name}` | `BENCH_{name}.json` |" in out
        assert ("read_scaling.read_scaling >= 1.5 -- read scaling at the "
                "full replica count is below the floor") in out
        # Wall-clock measurements are recorded, never gated.
        for path in ("incremental.*.speedup", "warm_speedup",
                     "overhead_ratio"):
            assert path not in out
        assert main(["bench", "nope"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: unknown bench suite(s) nope;")
        assert err.count("\n") == 1


class TestBenchWritesOnlyReports:
    def test_passing_run_leaves_only_its_report(
            self, tmp_path, capsys, monkeypatch, quick_report_of):
        """A passing `bench kernels --quick --dir D` leaves exactly its
        report in D, and `--no-trajectory` is an unknown option."""
        import repro.analysis.benchreport as br

        patch_suite_run(monkeypatch, br, quick_report_of("kernels"))
        assert main(["bench", "kernels", "--quick",
                     "--dir", str(tmp_path)]) == 0
        assert [p.name for p in tmp_path.iterdir()] == \
            ["BENCH_kernels_quick.json"]
        with pytest.raises(SystemExit) as exc:
            main(["bench", "kernels", "--quick", "--dir", str(tmp_path),
                  "--no-trajectory"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --no-trajectory" \
            in capsys.readouterr().err


class TestUpdate:
    def test_update_bench_writes_gated_report(self, tmp_path, capsys):
        from repro.analysis.benchsuite import evaluate
        from repro.analysis.dynamic import SUITE

        assert main(["bench", "dynamic", "--quick",
                     "--dir", str(tmp_path)]) == 0
        report = json.loads(
            (tmp_path / "BENCH_dynamic_quick.json").read_text())
        assert evaluate(SUITE, report) == []
        out = capsys.readouterr().out
        n = len(SUITE.gates)
        assert f"| dynamic | measured | {n}/{n} rows hold; " in out
        assert "| PASS | True | serving.results_identical is True" in out


class TestStore:
    def test_store_bench_writes_gated_report(self, tmp_path, capsys):
        from repro.analysis.benchsuite import evaluate
        from repro.analysis.store import SUITE

        assert main(["bench", "store", "--quick",
                     "--dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "BENCH_store_quick.json").read_text())
        assert evaluate(SUITE, report) == []
        out = capsys.readouterr().out
        n = len(SUITE.gates)
        assert f"| store | measured | {n}/{n} rows hold; " in out
        assert ("| PASS | True | versions.version_histories_identical is "
                "True") in out

class TestShard:
    @staticmethod
    def _patch_canned_shard(monkeypatch, scaling=2.0, **overrides):
        """Replace the (slow) shard bench with a canned passing report."""
        import repro.analysis.shard as shd

        canned = {
            "schema_version": 1, "quick": True,
            "nranks": 8, "nshards": 4, "replicas": 3, "threads": 4,
            "graphs": {},
            "bit_identity": {"g": {
                "rounds": 4, "nshards": 4, "multi_shard_commits": 3,
                "heads_identical": True, "kernels_checked": 6,
                "kernels_identical": True, "version_vector": [3, 3, 3, 3],
                "version_vector_ok": True, "final_version": 4}},
            "read_scaling": {
                "n_queries": 36, "replicas": 3, "throughput_1_qps": 500.0,
                "throughput_n_qps": 500.0 * scaling,
                "read_scaling": scaling, "digests_identical": True,
                "replica_counts": {"r0": 12, "r1": 12, "r2": 12}},
            "updates": {
                "serving": {
                    "n_requests": 32, "n_updates": 8,
                    "multi_shard_updates": 4, "results_identical": True,
                    "matches_unsharded_queries": True, "schedulers": {}},
                "g": {"edges_per_batch": 8, "single_shard_wall_s": 0.001,
                      "cross_shard_wall_s": 0.002,
                      "cross_to_single_latency": 2.0,
                      "cross_shards_touched_mean": 4.0,
                      "version_vector_ok": True}},
            "failover": {
                "n_queries": 36, "killed_replica": "r1", "kill_at_qid": 12,
                "rejoin_at_qid": 24, "digests_identical": True,
                "reseeds": 1, "rejoined_converged": True,
                "throughput_plain_qps": 1000.0,
                "throughput_faulted_qps": 900.0,
                "replica_counts_faulted": {}},
            "replication": {"g": {
                "commits": 4, "replicas": 3, "converged": True,
                "divergence_detected": True, "healed": True,
                "converged_after_heal": True, "reseeds": 1}},
        }
        canned.update(overrides)
        patch_suite_run(monkeypatch, shd, canned)

    def test_shard_bench_writes_gated_report(self, tmp_path, capsys,
                                             monkeypatch):
        from repro.analysis.benchsuite import evaluate

        self._patch_canned_shard(monkeypatch)
        from repro.analysis.shard import SUITE

        assert main(["bench", "shard", "--quick",
                     "--dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "BENCH_shard_quick.json").read_text())
        assert evaluate(SUITE, report) == []
        out = capsys.readouterr().out
        n = len(SUITE.gates)
        assert f"| shard | measured | {n}/{n} rows hold; read_scaling 2, " \
            in out
        assert "| PASS | 1 | failover.reseeds == 1" in out

    def test_failed_run_records_nothing(self, tmp_path, capsys,
                                        monkeypatch):
        self._patch_canned_shard(monkeypatch, scaling=1.4)
        assert main(["bench", "shard", "--quick",
                     "--dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.count("shard gate: ") == 1
        assert "read_scaling.read_scaling: read scaling" in captured.err
        assert ("| FAIL | 1.4 | read_scaling.read_scaling >= 1.5"
                in captured.out)
        assert list(tmp_path.iterdir()) == []

    def test_passing_run_writes_only_its_report(self, tmp_path, monkeypatch):
        from repro.analysis.shard import SUITE

        self._patch_canned_shard(monkeypatch)
        assert main(["bench", "shard", "--quick",
                     "--dir", str(tmp_path)]) == 0
        path = tmp_path / "BENCH_shard_quick.json"
        assert list(tmp_path.iterdir()) == [path]
        assert SUITE.headline(json.loads(path.read_text()))[
            "read_scaling"] == 2.0

class TestAsyncServe:
    @staticmethod
    def _patch_canned_async(monkeypatch, speedup=2.0, **overrides):
        """Replace the (slow) async bench with a canned passing report."""
        import repro.analysis.async_serve as asv

        canned = {
            "schema_version": 1, "quick": True,
            "nranks": 8, "threads": 4, "workers": 6,
            "steady": {
                "n_requests": 48, "results_identical": True,
                "p99_serial_s": 0.02, "p99_async_s": 0.01,
                "p99_ratio": 0.5, "serial": {}, "async": {}},
            "burst": {
                "n_requests": 48, "disjoint_updates": 9,
                "results_identical": True,
                "throughput_serial_qps": 800.0,
                "throughput_async_qps": 800.0 * speedup,
                "throughput_ratio": speedup,
                "p99_serial_s": 0.05, "p99_async_s": 0.03,
                "serial": {}, "async": {"overlap_fraction": 0.7}},
            "backpressure": {
                "n_requests": 40, "defer_identical": True,
                "n_deferred": 12, "shed_deterministic": True,
                "n_rejected": 8, "rejected_absent_from_digests": True,
                "deferred_keep_arrival_accounting": True,
                "defer": {}, "shed": {}},
            "interleavings": {
                "n_requests": 32, "seeds": [0, 1, 2, 3],
                "identical": {"0": True, "1": True, "2": True, "3": True},
                "all_identical": True, "overlap_fraction_min": 0.4},
        }
        canned.update(overrides)
        patch_suite_run(monkeypatch, asv, canned)

    def test_async_bench_writes_gated_report(self, tmp_path, capsys,
                                             monkeypatch):
        from repro.analysis.benchsuite import evaluate

        self._patch_canned_async(monkeypatch)
        from repro.analysis.async_serve import SUITE

        assert main(["bench", "async", "--quick",
                     "--dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "BENCH_async_quick.json").read_text())
        assert evaluate(SUITE, report) == []
        out = capsys.readouterr().out
        n = len(SUITE.gates)
        assert f"| async | measured | {n}/{n} rows hold; burst_speedup 2, " \
            in out
        assert "| PASS | True (4 rows) | interleavings.identical.* is True" \
            in out

    def test_failed_run_records_nothing(self, tmp_path, monkeypatch):
        self._patch_canned_async(monkeypatch, speedup=1.2)
        assert main(["bench", "async", "--quick",
                     "--dir", str(tmp_path)]) == 1
        assert list(tmp_path.iterdir()) == []

    def test_passing_run_writes_only_its_report(self, tmp_path, monkeypatch):
        from repro.analysis.async_serve import SUITE

        self._patch_canned_async(monkeypatch)
        assert main(["bench", "async", "--quick",
                     "--dir", str(tmp_path)]) == 0
        path = tmp_path / "BENCH_async_quick.json"
        assert list(tmp_path.iterdir()) == [path]
        assert SUITE.headline(json.loads(path.read_text()))[
            "burst_speedup"] == 2.0
