"""Benchmark for the permutiples library: one workload, one process, one line.

Run from the repository root:

    python3 perfbench/run.py --workload multiset --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

A run builds the workload's op list from the seed, then times whole passes
over the list until --seconds have elapsed.  The first pass checks every
output independently; later passes must reproduce the checked outputs
exactly.  With --trace 0 it reports the end-to-end metrics named in
BENCHMARK.json; with --trace 1 it times untraced passes for half the time
and traced passes for the rest, and reports the per-layer metrics.  The
last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Details (environment, sample counts, the inputs digest) go to the line
before it and to .perfbench_out/.  The exit code is 0 only when every op
passed its check and every identity check held.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NoReturn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("multiset", "sweep", "scan")
# Fresh interpreters started per run for setup_s (and import.ms when
# tracing).  They start after the run's own process has imported the
# package, so the bytecode cache is already written.
FRESH_STARTS = 3
MIN_TRACED_PASSES = 2


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# --- set-up, in a fresh interpreter -----------------------------------------


def setup(workload: str, seed: int):
    """Import the package, build the workload's inputs and warm up."""
    t0 = time.perf_counter()
    import workloads  # noqa: E402  (imports permutiples)

    t1 = time.perf_counter()
    wl = workloads.FROM_SEED[workload](seed)
    t2 = time.perf_counter()
    wl.warm()
    t3 = time.perf_counter()
    return wl, {"import_s": t1 - t0, "build_s": t2 - t1, "warm_s": t3 - t2}


def fresh_starts(argv: list[str], count: int) -> tuple[list[float], list[str]]:
    """Wall time and stdout of `count` fresh interpreters."""
    walls, outputs = [], []
    for _ in range(count):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=150
        )
        wall = time.perf_counter() - t0
        if done.returncode != 0:
            fail(f"fresh start {argv} failed:\n{done.stderr}")
        walls.append(wall)
        outputs.append(done.stdout)
    return walls, outputs


# --- passes ------------------------------------------------------------------


class Passes:
    """Runs whole passes over the op list and keeps every op's time.

    The first pass checks every output independently and keeps it; every
    later pass must reproduce those outputs exactly.  Checks run outside
    the timed region.
    """

    def __init__(self, wl) -> None:
        self.wl = wl
        self.reference: list = []
        self.bad: set[int] = set()
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def run(self, run_op=None) -> list[float]:
        """One pass; returns each op's time in seconds."""
        first = not self.reference
        times = []
        for i, op in enumerate(self.wl.ops):
            t0 = time.perf_counter()
            try:
                out = op.run() if run_op is None else run_op(i, op.run)
                problem = None
            except Exception as exc:  # an op that raises is a failed op, not a crash
                out, problem = None, f"raised {type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - t0)
            if first:
                self.reference.append(out)
                if problem is None:
                    problem = op.check(out)
            elif problem is None and i in self.bad:
                problem = "its first-pass output failed the check"
            elif problem is None and out != self.reference[i]:
                problem = "output differs from the checked first pass"
            self.attempted += 1
            if problem is not None:
                self.failed += 1
                self.bad.add(i)
                if len(self.problems) < 20:
                    self.problems.append(f"op {i} {op.key}: {problem}")
        return times


def harrell_davis(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A weighted mean of all order statistics, with weights from the
    Beta((n+1)q, (n+1)(1-q)) distribution over [i/n, (i+1)/n], so the
    estimate moves smoothly instead of jumping with one or two values.
    """
    s = sorted(values)
    n = len(s)
    if n == 1:
        return s[0]
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def pdf(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    steps = 64  # Simpson's rule on each interval
    total = weight_sum = 0.0
    for i, v in enumerate(s):
        lo, h = i / n, 1 / (n * steps)
        inner = sum((4 if j % 2 else 2) * pdf(lo + j * h) for j in range(1, steps))
        w = (pdf(lo) + inner + pdf(lo + steps * h)) * h / 3
        total += w * v
        weight_sum += w
    return total / weight_sum


def latency(passes: list[list[float]]) -> dict:
    """op_ms quantiles over the ops' per-op median times.

    Every pass times the same ops, so each op counts once.  Taking each
    op's median over the passes first keeps a slow pass from moving the
    quantile; the Harrell-Davis estimator then blends neighbouring ops
    instead of reading one op's time.
    """
    per_op = [statistics.median(col) * 1e3 for col in zip(*passes)]
    p50, p90 = harrell_davis(per_op, 0.5), harrell_davis(per_op, 0.9)
    samples = [t * 1e3 for ts in passes for t in ts]
    return {
        "op_ms.p50": p50,
        "op_ms.p90": p90,
        "samples": len(samples),
        "ops": len(per_op),
        "passes": len(passes),
        "samples_beyond_p90": sum(1 for t in samples if t > p90),
        "per_op_ms": per_op,
    }


def timed_passes(runner: Passes, seconds: float) -> list[list[float]]:
    """Whole untraced passes until `seconds` have elapsed, at least one."""
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        passes.append(runner.run())
    return passes


# --- identity and environment -------------------------------------------------


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_sha():
    """HEAD of the repository rooted here, or None outside a git checkout."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=20,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(args) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def check_identity(workload: str, seed: int, digest: str, src: str, counts) -> list[str]:
    """Same seed, same inputs; same seed and same code, same work counts.

    Records live in .perfbench_out/identity/, one per workload and seed, so
    every later run in this checkout is compared against the first.
    """
    path = OUT / "identity" / f"{workload}-s{seed}.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    problems = []
    if record.get("inputs_sha256", digest) != digest:
        problems.append(f"inputs digest {digest} differs from an earlier run's")
    record["inputs_sha256"] = digest
    if counts is not None:
        earlier = record.setdefault("counts", {}).get(src)
        if earlier is not None and earlier != counts:
            changed = sorted(k for k in counts if counts[k] != earlier.get(k))
            problems.append(f"work counts differ from an earlier run's: {changed}")
        record["counts"][src] = counts
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return problems


# --- one workload -------------------------------------------------------------


def run_workload(args, spec: dict) -> int:
    sys.path.insert(0, str(SRC))
    wl, _ = setup(args.workload, args.seed)
    digest = wl.digest()
    env = environment(args)
    env["inputs_sha256"] = digest
    env["ops_per_pass"] = len(wl.ops)
    problems: list[str] = []

    child = ["perfbench/run.py", "--setup-only", "--workload", args.workload,
             "--seed", str(args.seed)]
    setup_walls, outputs = fresh_starts(child, FRESH_STARTS)
    child_phases = [json.loads(o.strip().splitlines()[-1]) for o in outputs]
    if any(c["inputs_sha256"] != digest for c in child_phases):
        problems.append("a fresh interpreter built different inputs from the same seed")

    runner = Passes(wl)
    gc.collect()
    metrics: dict[str, float] = {}
    samples: dict[str, int] = {}
    counts = None
    if args.trace == 0:
        passes = timed_passes(runner, args.seconds)
        lat = latency(passes)
        ops_timed = lat["samples"]
        metrics["setup_s"] = statistics.median(setup_walls)
        pass_s = [sum(ts) for ts in passes]
        metrics["ops_per_s"] = len(wl.ops) / harrell_davis(pass_s, 0.5)
        metrics["op_ms.p50"] = lat["op_ms.p50"]
        metrics["op_ms.p90"] = lat["op_ms.p90"]
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        samples.update({"setup_s": len(setup_walls), "ops_per_s": len(passes),
                        "op_ms.p50": ops_timed, "op_ms.p90": ops_timed, "peak_rss_mb": 1})
        env["latency"] = {k: lat[k] for k in ("ops", "passes", "samples_beyond_p90", "per_op_ms")}
        env["pass_s"] = pass_s
        env["setup_phases_s"] = {
            k: statistics.median(c[k] for c in child_phases) for k in child_phases[0]
            if k.endswith("_s")
        }
    else:
        import spans

        plain = timed_passes(runner, args.seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        traced, summaries, recorded = [], [], ()
        try:
            t0 = time.perf_counter()
            while len(traced) < MIN_TRACED_PASSES or time.perf_counter() - t0 < args.seconds / 2:
                tracer.reset()
                traced.append(runner.run(tracer.run_op))
                summaries.append(tracer.summary())
                if not recorded:
                    recorded = tracer.arrays()
        finally:
            tracer.uninstall()
        counts = layer_counts(summaries[0])
        if any(layer_counts(s) != counts for s in summaries[1:]):
            problems.append("work counts differ between traced passes of one run")
        metrics.update(counts)
        for name in summaries[0][0]:
            metrics[f"{name}.self_ms"] = statistics.mean(s[0][name]["self_ms"] for s in summaries)
        import_walls, _ = fresh_starts(
            ["-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); import permutiples"],
            FRESH_STARTS,
        )
        metrics["import.ms"] = statistics.median(import_walls) * 1e3
        plain_s = statistics.median(map(sum, plain))
        traced_s = statistics.median(map(sum, traced))
        metrics["trace.overhead_frac"] = traced_s / plain_s - 1
        samples.update({name: len(traced) for name in metrics})
        samples["import.ms"] = len(import_walls)
        samples["trace.overhead_frac"] = len(plain) + len(traced)
        spans_path = OUT / "spans" / f"{args.workload}-s{args.seed}.tsv"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        with open(spans_path, "w") as out:
            spans.write_tsv(out, tracer.names, *recorded)
        env["spans_file"] = str(spans_path.relative_to(ROOT))

    problems += runner.problems
    problems += check_identity(args.workload, args.seed, digest, env["src_sha256"], counts)
    failed_frac = runner.failed / runner.attempted
    correct = not problems

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail(f"metrics not produced: {missing}")
    shown = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    env["samples"] = samples
    env["failed_frac"] = failed_frac
    env["problems"] = problems

    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": shown,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"environment": env, "all_metrics": metrics, "result": result}, indent=1)
    )
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(wl.ops)} ops per pass, inputs sha256 {digest[:16]}")
    for name, m in shown.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']:<6} n={samples[name]}")
    print(f"  {'failed_frac':<44} {failed_frac:>14.6g} {'ratio':<6} "
          f"({runner.failed} of {runner.attempted} ops)")
    for problem in problems:
        print(f"  FAILED: {problem}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


def layer_counts(summary) -> dict:
    """The exact part of a pass summary: calls and work counts."""
    per_fn, work = summary
    out = {f"{name}.calls": stats["calls"] for name, stats in per_fn.items()}
    out.update(work)
    return out


def run_all(args) -> int:
    """Every workload in its own process, then one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"] and done.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main() -> int:
    args = parse_args()
    if not (SRC / "permutiples" / "__init__.py").is_file():
        fail(f"no package source under {SRC}; run from a full checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the repository root")
    if args.setup_only:
        sys.path.insert(0, str(SRC))
        wl, phases = setup(args.workload, args.seed)
        print(json.dumps({"inputs_sha256": wl.digest(), **phases}))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, json.loads(spec_path.read_text()))


if __name__ == "__main__":
    sys.exit(main())
