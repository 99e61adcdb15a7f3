"""Run a workload of the hasseknot benchmark and print its metrics.

From the root of a checkout:

    python3 bench/run.py --workload decide-stream --seed 1 --seconds 10 --trace 0

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones; BENCHMARK.json lists
both.  The line before it holds the run's metadata and the figures under
the names of the workload's own operations.  --workload all runs every
workload, each in a fresh process, and prints one combined line.  See
bench/README.md for what each workload and metric measures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 9

if __name__ == "__main__" and not (SRC / "hasseknot" / "__init__.py").is_file():
    sys.exit(f"error: no hasseknot sources under {SRC}; "
             "run the benchmark from the root of a checkout of the repository")

# Pin numpy and its BLAS to one thread before anything imports them.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
for _path in (SRC, BENCH):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import numpy  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "items_per_s_at_ref": "1/s",
              "side_items_per_s_at_ref": "1/s"}

PER_LAYER = {
    "arith.spf_table.calls": "count", "arith.spf_table.s": "s",
    "arith.spf_table.per_count_series": "calls/call",
    "arith.hilbert.calls": "count", "arith.hilbert.s": "s",
    "arith.factorize.calls": "count", "arith.factorize.s": "s",
    "arith.is_square_local.calls": "count",
    "arith.kronecker.calls": "count",
    "arith.is_prime.calls": "count", "arith.is_prime.s": "s",
    "arith.is_prime.per_census_prime": "calls/prime",
    "arith.sieve_primes.s": "s",
    "arith.table_factorize.calls": "count", "arith.table_factorize.s": "s",
    "gfpoly.factor.calls": "count", "gfpoly.factor.self_s": "s",
    "gfpoly.squarefree_decomposition.s": "s", "gfpoly.distinct_degree.s": "s",
    "gfpoly.equal_degree.calls": "count", "gfpoly.equal_degree.s": "s",
    "gfpoly.equal_degree.per_factor": "calls/call",
    "numfield.splitting_data.calls": "count", "numfield.splitting_data.self_s": "s",
    "numfield.delta_K_estimate.self_s": "s",
    "numfield.count_ideal_norms.self_s": "s",
    "numfield.NumberField.s": "s",
    "biquad.is_everywhere_local_norm.calls": "count",
    "biquad.is_everywhere_local_norm.self_s": "s",
    "biquad.local_type.calls": "count", "biquad.local_type.s": "s",
    "biquad.local_type.per_place": "calls/place",
    "biquad.decide_global.self_s": "s",
    "biquad.certificate_search.calls": "count", "biquad.certificate_search.s": "s",
    "biquad.search.s": "s",
    "biquad.search.points": "points/search", "biquad.search.points_per_s": "points/s",
    "biquad.search.resolved_ratio": "ratio",
    "count.local_tables.self_s": "s",
    "count.count_series.self_s": "s",
    "count.count_integer_norms_local.self_s": "s",
    "trace.overhead_s": "s",
}

# Span pairs (ancestor, span) whose nesting the computed counters need.
NESTED = [("count.count_series", "arith.spf_table"),
          ("numfield.delta_K_estimate", "arith.is_prime"),
          ("biquad.is_everywhere_local_norm", "biquad.local_type")]

# The workload's own operations behind items_per_s_at_ref and
# side_items_per_s_at_ref.
OWN_NAMES = {
    "count-series": (("rationals_per_s", "1/s"), ("integers_per_s", "1/s")),
    "decide-stream": (("queries_per_s", "1/s"), ("local_only_queries_per_s", "1/s")),
    "prime-census": (("primes_per_s", "1/s"), ("integers_per_s", "1/s")),
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def probe_setup(workload: str) -> float:
    """Wall time of a fresh interpreter that does the workload's set-up."""
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import workloads; workloads.setup(sys.argv[3])")
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code, str(BENCH), str(SRC), workload],
                   check=True, cwd=ROOT, stdin=subprocess.DEVNULL)
    return perf_counter() - t0


def measure(workload: str, seed: int, seconds: float, size: str, pins: dict):
    """Untraced run: set-up probes, then whole passes until `seconds` passed.

    The gated throughputs are medians over the passes of the calls' times
    scaled to reference speed: on a shared virtual machine the CPU speed
    drifts by tens of percent over seconds to minutes, whole runs long, and
    the reference loop timed between the calls follows that drift (see
    README.md)."""
    setup = [probe_setup(workload) for _ in range(SETUP_PROBES)]
    ops = W.build_ops(workload, W.setup(workload), seed, size, pins)
    tallies = []
    t0 = perf_counter()
    while not tallies or perf_counter() - t0 < seconds:
        tallies.append(W.run_pass(ops))
    metrics = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "items_per_s_at_ref": W.scaled_throughput(ops, tallies, "items"),
        "side_items_per_s_at_ref": W.scaled_throughput(ops, tallies, "side_items"),
    }
    return ({k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
            (ops, tallies))


def measure_traced(workload: str, seed: int, size: str, pins: dict):
    """Traced run: traced set-up, then one pass untraced, traced and untraced
    again; the overhead compares the traced pass with the mean of the others."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        fields = W.setup(workload)
        mark = len(tracer)
        tracer.uninstall()
        ops = W.build_ops(workload, fields, seed, size, pins)
        t0 = perf_counter()
        before = W.run_pass(ops)
        t1 = perf_counter()
        tracer.install()
        tally = W.run_pass(ops)
        tracer.uninstall()
        t2 = perf_counter()
        after = W.run_pass(ops)
        t3 = perf_counter()
    finally:
        tracer.uninstall()
    tracer.save(OUT / f"spans-{workload}-seed{seed}.npz")
    pass_ = spans.Summary(tracer, mark, len(tracer), NESTED)
    setup = spans.Summary(tracer, 0, mark)
    values = {}
    for name in PER_LAYER:
        span, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = pass_.calls.get(span, 0)
        elif stat == "s":
            values[name] = pass_.incl.get(span, 0.0)
        elif stat == "self_s":
            values[name] = pass_.self_.get(span, 0.0)
    values.update({
        "numfield.NumberField.s": setup.incl["numfield.NumberField"],
        "biquad.search.s": pass_.incl["biquad._shell_search"],
        "arith.spf_table.per_count_series": _ratio(
            pass_.nested[NESTED[0]], pass_.calls["count.count_series"]),
        "arith.is_prime.per_census_prime": _ratio(
            pass_.nested[NESTED[1]], pass_.items["numfield.delta_K_estimate"]),
        "biquad.local_type.per_place": _ratio(
            pass_.nested[NESTED[2]], pass_.items["biquad.is_everywhere_local_norm"]),
        "gfpoly.equal_degree.per_factor": _ratio(
            pass_.calls["gfpoly.equal_degree"], pass_.calls["gfpoly.factor"]),
        "biquad.search.points": _ratio(tally.points, tally.searches),
        "biquad.search.points_per_s": _ratio(tally.points, pass_.incl["biquad._shell_search"]),
        "biquad.search.resolved_ratio": _ratio(tally.resolved, tally.searches),
        "trace.overhead_s": (t2 - t1) - ((t1 - t0) + (t3 - t2)) / 2,
    })
    return ({k: {"value": values[k], "unit": PER_LAYER[k]} for k in PER_LAYER},
            [before, tally, after])


def own_figures(workload: str, metrics: dict, ops: list, tallies: list) -> dict:
    """The untraced figures under the names of the workload's operations:
    the gated ones at reference speed, then as measured, each call at its
    fastest over the passes."""
    (main, unit), (side, side_unit) = OWN_NAMES[workload]
    attempted = sum(t.attempted for t in tallies)
    bad = sum(t.failed + t.unknown for t in tallies)
    best = W.best_times(tallies)
    out = {f"{main}_at_ref": {"value": metrics["items_per_s_at_ref"]["value"], "unit": unit},
           f"{side}_at_ref": {"value": metrics["side_items_per_s_at_ref"]["value"],
                              "unit": side_unit},
           main: {"value": W.throughput(ops, best, "items"), "unit": unit},
           side: {"value": W.throughput(ops, best, "side_items"), "unit": side_unit},
           "reference_ms": {"value": statistics.median(r for t in tallies for r in t.refs) * 1e3,
                            "unit": "ms"},
           "failed_ratio": {"value": bad / attempted, "unit": "ratio"}}
    if workload == "decide-stream":
        lat = [x for t in tallies for x in t.times]
        p99 = statistics.quantiles(lat, n=100)[98]
        out["latency_p50_ms"] = {"value": statistics.median(lat) * 1e3, "unit": "ms"}
        out["latency_p99_ms"] = {"value": p99 * 1e3, "unit": "ms"}
        out["latency_samples"] = {"value": len(lat), "unit": "count"}
        out["latency_beyond_p99"] = {"value": sum(x > p99 for x in lat), "unit": "count"}
        out["unknown_per_pass"] = {"value": tallies[0].unknown, "unit": "count"}
    return out


def metadata(workload: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    src = hashlib.sha256()
    for path in sorted((SRC / "hasseknot").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "size": size, "inputs": W.SIZES[size], "commit": git_commit(),
            "source_sha256": src.hexdigest()[:16], "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
            "platform": platform.platform()}


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving it; None when the
    checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def run(workload: str, seed: int, seconds: float, trace: int, size: str = "full",
        pins: dict | None = None) -> tuple[dict, dict]:
    """One run of one workload: (result line, metadata and own-name figures)."""
    if pins is None:
        pins = json.loads((BENCH / "pins.json").read_text())
    if trace:
        metrics, tallies = measure_traced(workload, seed, size, pins)
    else:
        metrics, (ops, tallies) = measure(workload, seed, seconds, size, pins)
    detail = metadata(workload, seed, seconds, trace, size)
    detail["passes"] = len(tallies)
    if workload == "decide-stream":
        detail["decisions_sha256"] = tallies[-1].decisions.hexdigest()[:16]
    if not trace:
        detail["figures"] = own_figures(workload, metrics, ops, tallies)
    failed = sum(t.failed for t in tallies)
    detail["errors"] = [why for t in tallies for why in t.errors][:20]
    result = {"correct": failed == 0, "attempted": sum(t.attempted for t in tallies),
              "failed": failed, "metrics": metrics}
    return result, detail


def run_all(args) -> dict:
    """Every workload in a fresh process of its own; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in W.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size],
            cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"error: {workload} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        print(lines[-2])
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + W.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every operation at toy sizes, for the smoke test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    result, detail = run(args.workload, args.seed, args.seconds, args.trace, args.size)
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"detail": detail, "result": result}, indent=1))
    for why in detail["errors"]:
        print(f"failed: {why}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
