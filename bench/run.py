"""Benchmark of the topologic library: one command, three workloads.

    python3 bench/run.py --workload decide|sweep|models --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
`src/`.  One process, one thread, closed loop: each operation starts when
the previous one ends.  A run sets up `SETUP_REPEATS` times, runs one
untimed round whose outputs are checked against the oracle and one under
tracemalloc, then repeats whole rounds of the same operations until
`--seconds` have passed.

With `--trace 0` the last line of standard output carries the end-to-end
metrics; with `--trace 1`, traced and untraced rounds alternate and the
last line carries the per-layer metrics.  The line before it holds the
raw (unscaled) figures.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import shutil
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(BENCH_DIR))

import oracle  # noqa: E402
import workloads as W  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = ("decide", "sweep", "models")
HASH_SEED = "0"
SETUP_REPEATS = 9
LIBRARY_MODULES = ("formula", "space", "semantics", "splitting",
                   "finitemodel", "decide", "modelfile", "cli")

# Reference loop: integer arithmetic only, no library code, no containers.
# It runs between operations; each operation's latency is rescaled by
# REF_NOMINAL_MS over the mean of the loop times just before and after it,
# which reports timed metrics at the reference machine's speed (README).
REF_ITERATIONS = 20_000
REF_NOMINAL_MS = 3.0


def ref_loop() -> float:
    t0 = perf_counter()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc = (acc * 1103515245 + i) & 0x7FFFFFFF
    return (perf_counter() - t0) * 1000.0


def import_library():
    """Import topologic afresh from src/ (dropping any earlier import)."""
    for name in [n for n in sys.modules
                 if n == "topologic" or n.startswith("topologic.")]:
        del sys.modules[name]
    lib = importlib.import_module("topologic")
    for name in LIBRARY_MODULES:
        importlib.import_module(f"topologic.{name}")
    return lib


def make_inputs(workload: str, seed: int):
    rng = random.Random(f"{workload}:{seed}")
    return {"decide": W.decide_inputs, "sweep": W.sweep_inputs,
            "models": W.models_inputs}[workload](rng)


def setup(workload: str, lib, inputs, workdir: Path, stdout_bytes: list[int]):
    if workload == "decide":
        return W.decide_setup(lib, inputs)
    if workload == "sweep":
        return W.sweep_setup(lib, inputs)
    return W.models_setup(lib, inputs, workdir, stdout_bytes)


class Run:
    """Counts, latencies and correctness across the rounds of one run."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.problems: list[str] = []
        self.expected: list = [None] * len(ops)
        self.latencies: list[float] = []
        self.op_ref_ms: list[float] = []  # reference loop around each latency
        self.ref_ms: list[float] = []

    def _attempt(self, op):
        """Run one operation; returns (ok, result, seconds)."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # noqa: BLE001 - an error is a failed op
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{op.label}: {exc!r}")
            return False, None, 0.0
        return True, result, perf_counter() - t0

    def first_round(self) -> None:
        """Run every operation once, untimed, then check each output
        against the oracle; later rounds must reproduce these outputs."""
        results = []
        for i, op in enumerate(self.ops):
            ok, result, _ = self._attempt(op)
            results.append((ok, result, op.signature(result) if ok else None))
        for i, (ok, result, sig) in enumerate(results):
            self.expected[i] = sig
            problem = self.ops[i].check(result) if ok else None
            if problem:
                self.problems.append(f"{self.ops[i].label}: {problem}")

    def alloc_round(self) -> int:
        """One untimed pass under tracemalloc; returns the most any one
        operation allocated above what was allocated when it started, in
        bytes.  A full collection before each operation empties the
        interpreter's free lists, whose freed-but-kept blocks tracemalloc
        counts.  What stays allocated between operations is left out:
        across processes with identical inputs it moved by a fifth."""
        peak = 0
        tracemalloc.start()
        try:
            for i, op in enumerate(self.ops):
                gc.collect()
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                ok, result, _ = self._attempt(op)
                peak = max(peak, tracemalloc.get_traced_memory()[1] - start)
                if ok and op.signature(result) != self.expected[i]:
                    self.problems.append(
                        f"{op.label}: output changed between rounds")
            return peak
        finally:
            tracemalloc.stop()

    def round(self, tracer: Tracer | None = None, timed: bool = True) -> float:
        """One pass over the operations; returns the summed time of its
        operations.  Latencies are kept only when `timed` is set."""
        busy = 0.0
        before = ref_loop()
        self.ref_ms.append(before)
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op_id = i
            ok, result, elapsed = self._attempt(op)
            after = ref_loop()
            self.ref_ms.append(after)
            around, before = (before + after) / 2, after
            if not ok:
                continue
            busy += elapsed
            if timed:
                self.latencies.append(elapsed)
                self.op_ref_ms.append(around)
            if op.signature(result) != self.expected[i]:
                self.problems.append(f"{op.label}: output changed between rounds")
        return busy


def latency_stats(latencies: list[float]) -> dict[str, float]:
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {"ops_per_s": len(latencies) / sum(latencies),
            "op_p50_ms": statistics.median(latencies) * 1000.0,
            "op_p90_ms": deciles[8] * 1000.0}


def end_to_end(run: Run, setup_s: float, peak_bytes: int) -> tuple[dict, dict]:
    ref = statistics.median(run.ref_ms)
    raw = latency_stats(run.latencies)
    scaled = latency_stats([t * REF_NOMINAL_MS / r
                            for t, r in zip(run.latencies, run.op_ref_ms)])
    run_scaled = {k: v * (ref / REF_NOMINAL_MS if k == "ops_per_s"
                          else REF_NOMINAL_MS / ref) for k, v in raw.items()}
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": scaled["ops_per_s"], "unit": "1/s"},
        "op_p50_ms": {"value": scaled["op_p50_ms"], "unit": "ms"},
        "op_p90_ms": {"value": scaled["op_p90_ms"], "unit": "ms"},
        "peak_alloc_mb": {"value": peak_bytes / 1e6, "unit": "MB"},
    }
    detail = {"raw": raw, "run_scaled": run_scaled, "ref_loop_ms": ref,
              "ref_samples": len(run.ref_ms), "timed_ops": len(run.latencies)}
    return metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "topologic" / "__init__.py").is_file():
        print(f"error: no library source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    oracle.self_check()
    inputs = make_inputs(args.workload, args.seed)
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    stdout_bytes = [0]
    try:
        setup_times, setup_scaled = [], []
        before = ref_loop()
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            lib = import_library()
            ops = setup(args.workload, lib, inputs, workdir, stdout_bytes)
            setup_times.append(perf_counter() - t0)
            after = ref_loop()
            setup_scaled.append(setup_times[-1] * REF_NOMINAL_MS
                                / ((before + after) / 2))
            before = after
        if Path(lib.__file__).resolve().parent != (src / "topologic").resolve():
            print(f"error: imported topologic from {lib.__file__}",
                  file=sys.stderr)
            return 2
        setup_s = statistics.median(setup_scaled)
        run = Run(ops)
        gc.collect()
        if args.trace:
            result = traced_run(run, lib, args, stdout_bytes)
        else:
            result = timed_run(run, args, setup_s, stdout_bytes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, detail = result
    detail["problems"] = run.problems[:10]
    detail["failures"] = run.failures
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "rounds": run.attempted // len(run.ops),
                      "setup_samples_s": setup_times, **detail}))
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def timed_run(run: Run, args, setup_s: float, stdout_bytes):
    run.first_round()
    t0 = perf_counter()
    peak = run.alloc_round()
    alloc_round_s = perf_counter() - t0
    gc.collect()
    deadline = perf_counter() + args.seconds
    while True:
        run.round()
        if perf_counter() >= deadline:
            break
    metrics, detail = end_to_end(run, setup_s, peak)
    detail["alloc_round_s"] = alloc_round_s
    detail["stdout_bytes_per_round"] = stdout_bytes[0] // (
        run.attempted // len(run.ops))
    return metrics, detail


def traced_run(run: Run, lib, args, stdout_bytes):
    tracer = Tracer(lib)
    run.first_round()
    plain, traced, layers = [], [], []
    deadline = perf_counter() + args.seconds
    while True:
        plain.append(run.round(timed=False))
        tracer.reset()
        before = stdout_bytes[0]
        tracer.install()
        try:
            traced.append(run.round(tracer, timed=False))
        finally:
            tracer.uninstall()
        layer = tracer.layer_metrics()
        layer["cli.stdout_bytes"] = stdout_bytes[0] - before
        if not layers:
            tracer.write_spans(
                OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl",
                {"workload": args.workload, "seed": args.seed})
        layers.append(layer)
        if perf_counter() >= deadline:
            break
    values = {name: statistics.median(layer[name] for layer in layers)
              for name in layers[0]}
    values["bench.ref_loop_ms"] = statistics.median(run.ref_ms)
    values["bench.trace_overhead_ratio"] = (statistics.median(traced)
                                            / statistics.median(plain))
    units = {"bench.ref_loop_ms": "ms", "bench.trace_overhead_ratio": "ratio",
             "cli.stdout_bytes": "B"}
    metrics = {name: {"value": v, "unit": units.get(name, (
                   "s" if name.endswith("_s") else "count"))}
               for name, v in values.items()}
    detail = {"traced_rounds_s": traced, "plain_rounds_s": plain}
    return metrics, detail


if __name__ == "__main__":
    # String hashing is salted per process, and the salt moved the sweep's
    # allocation peak by a fifth between runs of identical inputs; run
    # under one fixed salt (exec replaces this process, starting none).
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.exit(main())
