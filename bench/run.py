#!/usr/bin/env python3
"""The wall-clock ledger's entry point.

``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``
    One workload in this interpreter: a discarded warm-up repeat, then
    untraced repeats for ``S`` seconds (``--trace 1``: half of ``S``
    untraced, half traced from outside by :mod:`bench.trace`), then the
    correctness pass.  The last stdout line is one JSON object with
    exactly ``correct``, ``attempted``, ``failed`` and ``metrics`` —
    the end-to-end metrics with ``--trace 0``, the per-layer metrics
    with ``--trace 1``.  A violated regime guard aborts with exit 3.

``python3 bench/run.py``
    Every workload, each in its own fresh interpreter, sequentially;
    prints every metric by name with its unit as one JSON document.
    ``--quick`` runs tiny inputs once, in this interpreter (smoke test).

``--selfcheck`` runs the acceptance procedure (two sets of runs over
ten seeds; spread and set-to-set drift against BENCHMARK.json's bounds),
``--update-golden`` regenerates ``golden.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

_T0 = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    # Script dir -> checkout root: siblings import as ``bench.*`` and
    # bench/trace.py cannot shadow the standard library's ``trace``.
    sys.path[0] = str(ROOT)

import numpy as np  # noqa: E402

from bench import SRC, oracle  # noqa: E402
from bench.trace import PER_LAYER, Tracer, layer_metrics  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402
from repro.obs import Observation  # noqa: E402

#: numpy + scipy + repro + the benchmark's own modules; part of setup_s.
IMPORT_S = time.perf_counter() - _T0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "query_wall_mean_ms": "ms",
    "peak_rss_mb": "MB",
}

NOTE = ("Serve traces are open-loop on the simulated clock (Poisson, 2000 "
        "sim-qps, saturating); on the wall clock the engine drains them as "
        "an offline single-threaded batch, so ops_per_s is work per "
        "wall-second at the stated input size and query_wall_* is "
        "per-request service wall, not latency under a rate ladder.")


class RegimeError(RuntimeError):
    """A workload no longer sits in the regime it claims to measure."""


_SLICE_ARRAY = np.random.default_rng(0).permutation(20_000)

#: Mean :class:`SpeedSampler` slice on this sandbox when nothing disturbs
#: it.  Only fixes the unit: calibrated times read as seconds of a quiet
#: sandbox.
SLICE_REF_S = 0.00055


class SpeedSampler:
    """Sample the machine's speed *during* a timed interval.

    This sandbox's vCPUs slow down by up to 1.8x for seconds to minutes
    at a time (host contention: user time inflates, not system time), so
    the same tree's raw walls spread by 15-30% across runs and a
    calibration taken before or after an interval misses most of it.
    While the sampler is entered, an interval timer interrupts the (single)
    main thread every 20 ms and the handler times one fixed slice of work
    — dict/call-heavy bytecode plus NumPy sort/scan, the program's own
    mix.  The mean slice is the machine's speed over exactly the measured
    interval; :meth:`scale` removes the slices' own time and rescales to
    :data:`SLICE_REF_S`.  Machine speed cancels, the program's cost does
    not.  Measured under heavy disturbance: spread of a five-repeat
    median 14-15% raw, 1.5-3.6% calibrated.
    """

    PERIOD_S = 0.02

    def __init__(self) -> None:
        self.slices: list[float] = []
        self._previous = None

    def _slice(self, signum, frame) -> None:
        t0 = time.perf_counter()
        acc: dict = {}
        get = acc.get
        for i in range(4000):
            key = i & 255
            acc[key] = get(key, 0) + i
        np.sort(_SLICE_ARRAY)
        np.cumsum(_SLICE_ARRAY)
        self.slices.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedSampler":
        self.slices = []
        self._previous = signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self) -> float:
        """Reference slice / observed mean slice (1.0 if none was taken)."""
        if not self.slices:
            return 1.0
        return SLICE_REF_S / statistics.fmean(self.slices)

    def scale(self, elapsed: float) -> float:
        """Factor turning a raw interval into calibrated seconds."""
        return (1.0 - sum(self.slices) / elapsed) * self.speed()


class Probe:
    """What the harness hangs on a timed region: the speed sampler and,
    in a traced repeat, the tracer's root span and per-operation qid."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.sampler = SpeedSampler()

    @contextmanager
    def region(self):
        span = (self.tracer.span("bench.region") if self.tracer
                else nullcontext())
        with span, self.sampler:
            yield

    def op(self, index: int) -> None:
        if self.tracer is not None:
            self.tracer.qid = index


def _repeat(w, seed: int, quick: bool, tracer=None, observation=None) -> dict:
    """One set-up + one timed region, both speed-calibrated."""
    gc.collect()
    probe = Probe(tracer)
    spans = counts = None
    t0 = time.perf_counter()
    with probe.sampler:
        if tracer is None:
            state = w.prepare(seed, quick)
        else:
            with tracer.span("bench.setup"):
                state = w.prepare(seed, quick)
    setup_s = time.perf_counter() - t0
    setup_s *= probe.sampler.scale(setup_s)
    if tracer is not None:
        setup_spans, _ = tracer.take()
    result = w.run(state, probe=probe, observation=observation)
    if tracer is not None:
        spans, counts = tracer.take()
        spans = (setup_spans, spans)
    scale = probe.sampler.scale(result.wall_s)
    return {"setup_s": setup_s, "scale": scale, "speed": probe.sampler.speed(),
            "wall_s": result.wall_s * scale, "result": result,
            "spans": spans, "counts": counts}


def _per_op_ms(repeats: list, field: str) -> list[float]:
    """Each operation's median calibrated wall across repeats, in ms.

    A seed maps to exactly one trace, so repeats re-time the same
    operations.
    """
    ops = getattr(repeats[0]["result"], field)
    return [1e3 * statistics.median(
        getattr(r["result"], field)[op] * r["scale"] for r in repeats)
        for op in ops]


def _run_repeats(w, seed: int, seconds: float, traced: bool, quick: bool):
    """Warm-up, untraced repeats, then (``traced``) traced repeats and the
    ``Observation.enabled()`` repeat; ``--quick`` runs each kind once."""
    warmup = None if quick else _repeat(w, seed, quick)   # discarded
    plain, traced_reps, observed = [], [], None
    budget = 0.0 if quick else seconds
    min_plain = 1 if quick else (2 if traced else 3)
    start = time.perf_counter()
    while (len(plain) < min_plain
           or time.perf_counter() - start < (budget / 2 if traced else budget)):
        plain.append(_repeat(w, seed, quick))
    if traced:
        tracer = Tracer()
        tracer.install()
        try:
            while not traced_reps or time.perf_counter() - start < budget:
                traced_reps.append(_repeat(w, seed, quick, tracer))
        finally:
            tracer.uninstall()
        if w.obs_probe:
            observed = _repeat(w, seed, quick,
                               observation=Observation.enabled())
    for r in (plain + traced_reps)[1:]:
        r["result"].answers = None                   # the oracle reads [0]
    return warmup, plain, traced_reps, observed


def _count_failures(w, seed: int, quick: bool, repeats: list,
                    problems: list[str]) -> tuple[int, int]:
    """``(attempted, failed)`` operations over ``repeats``; explains the
    failures in ``problems``."""
    first = repeats[0]["result"]
    attempted = sum(r["result"].n_ops for r in repeats)
    if first.errors:
        problems.append(f"{first.errors} operations raised")
        return attempted, attempted
    # The oracle checks the first repeat; a repeat with the same exact
    # counts and answer bits inherits its verdict, any other repeat fails
    # whole.
    wrong = oracle.check(w, first.answers)
    if wrong:
        problems.append(f"{wrong} operations disagree with the oracle")
    failed = 0
    for r in repeats:
        res = r["result"]
        same = (res.fingerprint == first.fingerprint
                and res.answer_digest == first.answer_digest)
        failed += wrong if same else res.n_ops
    if failed > wrong * len(repeats):
        problems.append("repeats disagree on exact counts or answers")
    if seed == oracle.GOLDEN_SEED and not quick:
        drift = oracle.golden_mismatch(w.name, first.fingerprint)
        if drift:
            problems.append(f"golden.json differs in: {drift}")
            return attempted, attempted
    return attempted, failed


def measure(w, seed: int, seconds: float, traced: bool, quick: bool) -> dict:
    """Run one workload; returns the contract's fields, both metric sets
    (``per_layer`` only when ``traced``), ``details`` and the fastest
    traced repeat's ``spans``."""
    warmup, plain, traced_reps, observed = _run_repeats(
        w, seed, seconds, traced, quick)
    first = plain[0]["result"]
    layers = [layer_metrics(*r["spans"], {**r["result"].counts, **r["counts"]})
              for r in traced_reps]
    problems: list[str] = []
    attempted, failed = _count_failures(w, seed, quick, plain + traced_reps,
                                        problems)
    if not quick and not first.errors:
        counts = {**first.counts, **(layers[0] if layers else {})}
        broken = [g.violated(counts) for g in w.guards
                  if traced or not g.traced]
        if any(broken):
            raise RegimeError(
                f"{w.name}: " + "; ".join(b for b in broken if b))

    walls = [r["wall_s"] for r in plain]
    wall = statistics.median(walls)
    spans = None
    query_ms = _per_op_ms(plain, "query_walls") if not first.errors else []
    update_ms = (_per_op_ms(plain, "update_walls")
                 if not first.errors else [])
    end_to_end = {
        # The import is timed once, unsampled; the repeat that ran right
        # after it lends its speed.
        "setup_s": IMPORT_S * (warmup or plain[0])["speed"]
        + statistics.median(r["setup_s"] for r in plain),
        "wall_s": wall,
        "ops_per_s": first.n_ops / wall,
        "query_wall_mean_ms": statistics.fmean(query_ms) if query_ms else 0.0,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    per_layer = None
    if traced:
        # The fastest traced repeat: one consistent set of raw layer
        # times that sums to its own region.
        best = min(range(len(layers)),
                   key=lambda i: traced_reps[i]["result"].wall_s)
        spans = traced_reps[best]["spans"]
        per_layer = dict(layers[best])
        per_layer.update({
            "trace.overhead_frac": statistics.median(
                r["wall_s"] for r in traced_reps) / wall - 1.0,
            "obs.enabled_overhead_frac": (
                observed["wall_s"] / wall - 1.0 if observed else 0.0),
            "e2e.raw_wall_s": min(r["result"].wall_s for r in plain),
            "e2e.speed_factor": statistics.median(
                r["speed"] for r in plain),
            "e2e.sim_time_s": first.sim_time_s,
            "e2e.failed_frac": failed / attempted,
            "e2e.query_wall_p50_ms": (float(np.percentile(query_ms, 50))
                                      if query_ms else 0.0),
            "e2e.query_wall_p90_ms": (float(np.percentile(query_ms, 90))
                                      if query_ms else 0.0),
            "e2e.query_samples": len(query_ms),
            "e2e.update_wall_p50_ms": (float(np.percentile(update_ms, 50))
                                       if update_ms else 0.0),
            "e2e.update_samples": len(update_ms),
        })
        if per_layer["trace.coverage_frac"] < 0.90:
            problems.append("trace.coverage_frac < 0.90")
        if per_layer["trace.overhead_frac"] > 0.15:
            problems.append("trace.overhead_frac > 0.15")
        per_layer = {name: {"value": per_layer[name], "unit": row[0]}
                     for name, row in PER_LAYER.items()}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {name: {"value": end_to_end[name], "unit": unit}
                       for name, unit in END_TO_END.items()},
        "per_layer": per_layer,
        "details": {
            "workload": w.name, "seed": seed, "quick": quick,
            "input": w.input_size(quick), "why": w.why,
            "untraced_repeats": len(plain), "traced_repeats": len(traced_reps),
            "query_samples": len(query_ms), "update_samples": len(update_ms),
            "wall_s_repeats": walls,
            "raw_wall_s_repeats": [r["result"].wall_s for r in plain],
            "speed_factor": statistics.median(r["speed"] for r in plain),
            "problems": problems,
        },
        "spans": spans,
    }


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def _spawn(name: str, seed: int, seconds: float, trace: int) -> list[dict]:
    """One workload in a fresh interpreter; its ``details`` and result."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{name} (trace {trace}) exited {proc.returncode}")
    return [json.loads(line) for line in proc.stdout.splitlines()[-2:]]


def run_one(args) -> int:
    """The driver's contract: details line, then the result as last line."""
    try:
        out = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                      bool(args.trace), args.quick)
    except RegimeError as exc:
        print(f"regime guard violated: {exc}", file=sys.stderr)
        return 3
    for problem in out["details"]["problems"]:
        print(f"{args.workload}: {problem}", file=sys.stderr)
    spans = out["spans"]
    if args.spans_out and spans:
        # Spans live in memory during the run and are written at exit.
        setup, region = spans
        Path(args.spans_out).write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "fields": list(setup[0]._fields),
             "setup": setup, "region": region}))
    print(json.dumps(out["details"]))
    print(json.dumps({
        "correct": out["correct"], "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": out["per_layer" if args.trace else "end_to_end"]}))
    return 0


def run_all(args) -> int:
    """Every workload, every metric, one JSON document."""
    doc = {"benchmark": "wall-clock ledger", "quick": args.quick,
           "seed": args.seed, "seconds": args.seconds, "note": NOTE,
           "workloads": {}}
    for name, w in WORKLOADS.items():
        if args.quick:
            out = measure(w, args.seed, args.seconds, True, True)
            details, runs = out["details"], [out]
            end_to_end, per_layer = out["end_to_end"], out["per_layer"]
        else:
            (details, plain), (_, traced) = (
                _spawn(name, args.seed, args.seconds, trace)
                for trace in (0, 1))
            runs = [plain, traced]
            end_to_end, per_layer = plain["metrics"], traced["metrics"]
        doc["workloads"][name] = {
            "why": details["why"], "input": details["input"],
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "untraced_repeats": details["untraced_repeats"],
            "query_samples": details["query_samples"],
            "update_samples": details["update_samples"],
            "end_to_end": end_to_end,
            "per_layer": per_layer,
        }
    print(json.dumps(doc, indent=1))
    return 0 if all(w["correct"] for w in doc["workloads"].values()) else 1


def _spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def selfcheck(args) -> int:
    """Two run sets of the same tree against BENCHMARK.json's bounds."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [args.workload] if args.workload else list(WORKLOADS)
    sets: list[dict] = []
    for _ in range(2):
        values: dict = {}
        for name in names:
            for seed in range(1, args.runs + 1):
                _, result = _spawn(name, seed, args.seconds, 0)
                if not result["correct"]:
                    raise SystemExit(f"{name} seed {seed}: incorrect")
                print(f"set {len(sets) + 1} {name} seed {seed}: " + " ".join(
                    f"{m}={c['value']:.4g}"
                    for m, c in result["metrics"].items()), file=sys.stderr)
                for metric, cell in result["metrics"].items():
                    values.setdefault((metric, name), []).append(
                        cell["value"])
        sets.append(values)
    rows, ok = [], True
    print("| metric | workload | median 1 | spread 1 | median 2 | spread 2 "
          "| worse by | bound | ok |")
    print("|---|---|---|---|---|---|---|---|---|")
    for spec in manifest["end_to_end"]:
        for name in names:
            a, b = (s[(spec["name"], name)] for s in sets)
            m1, m2 = statistics.median(a), statistics.median(b)
            worse = (m2 - m1 if spec["better"] == "lower" else m1 - m2) / m1
            spreads = (_spread(a), _spread(b))
            good = worse <= spec["bound"] and (
                spec["name"] == "setup_s"
                or max(spreads) <= spec["bound"])
            ok = ok and good
            rows.append({"metric": spec["name"], "workload": name,
                         "medians": [m1, m2], "spreads": spreads,
                         "worse_by": worse, "bound": spec["bound"],
                         "ok": good})
            print(f"| {spec['name']} | {name} | {m1:.4g} | {spreads[0]:.3f} "
                  f"| {m2:.4g} | {spreads[1]:.3f} | {worse:+.3f} "
                  f"| {spec['bound']} | {'yes' if good else 'NO'} |")
    print(json.dumps({"ok": ok, "runs_per_set": args.runs, "rows": rows}))
    return 0 if ok else 1


def update_golden(args) -> int:
    golden = {}
    for name, w in WORKLOADS.items():
        result = w.run(w.prepare(oracle.GOLDEN_SEED))
        golden[name] = json.loads(json.dumps(result.fingerprint))
    oracle.GOLDEN_PATH.write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {oracle.GOLDEN_PATH}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=oracle.GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--spans-out", metavar="FILE",
                        help="with --workload --trace 1: write the fastest "
                             "traced repeat's spans here")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--runs", type=int, default=10,
                        help="seeds per --selfcheck run set")
    parser.add_argument("--update-golden", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.update_golden:
        return update_golden(args)
    if args.selfcheck:
        return selfcheck(args)
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
