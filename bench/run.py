"""coverkit benchmark: one workload, one process, one thread, closed loop.

Usage (from the root of a coverkit checkout):

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

``--workload`` is one of sweep, lattice, duality, cli or all.  The next
input starts when the previous verdict returns.  Every verdict is checked
outside the timed region.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer ones from a traced
run.  Spans of a traced run are written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 6         # fresh interpreters before the timed loop, and again after it
TAIL_CAP = 99.0          # beyond p99 a 2-core shared host measures its own hiccups
TAIL_BEYOND = 10

END_TO_END = (("setup_s", "s"), ("items_per_s", "1/s"), ("item_ms_p50", "ms"),
              ("item_ms_tail", "ms"), ("peak_rss_mb", "MB"))

SETUP_CODE = """\
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import coverkit
from coverkit import kernel
t1 = time.perf_counter()
tables = []
for n in {sizes!r}:
    s = time.perf_counter()
    kernel.tables(n)
    tables.append(time.perf_counter() - s)
print(json.dumps({{"import_s": t1 - t0, "tables_s": tables}}))
"""
CLI_IMPORT_CODE = "import sys; sys.path.insert(0, {src!r}); import coverkit.cli"


def per_layer_metrics(workloads):
    names = []
    for stage in workloads.STAGES:
        names += [(f"{stage}.s", "s"), (f"{stage}.calls", "count"), (f"{stage}.p50_ms", "ms")]
    names += [(f"{layer}.errors", "count") for layer in workloads.LAYERS]
    names += [(c, "count") for c in workloads.COUNTS]
    names += [("trace.overhead_pct", "%"), ("trace.item_self_s", "s")]
    return names


# ---------------------------------------------------------------------------
# set-up: fresh interpreters
# ---------------------------------------------------------------------------

def fresh_interpreter(code):
    """Run ``code`` in a new interpreter; return (wall seconds, stdout)."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=ROOT, timeout=120)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"fresh interpreter failed: {proc.stderr.strip()}")
    return wall, proc.stdout


def setup_walls(sizes, tracer):
    """Wall times of SETUP_REPEATS fresh interpreters, each importing
    coverkit and warming ``kernel.tables`` for the workload's ground sizes."""
    walls = []
    for _ in range(SETUP_REPEATS):
        wall, out = fresh_interpreter(SETUP_CODE.format(src=SRC, sizes=tuple(sizes)))
        walls.append(wall)
        if tracer.enabled:
            for t in json.loads(out)["tables_s"]:
                tracer.record("kernel.tables", t)
    return walls


def measure_cli_import(tracer):
    for _ in range(SETUP_REPEATS):
        wall, _ = fresh_interpreter(CLI_IMPORT_CODE.format(src=SRC))
        tracer.record("cli.import", wall)


# ---------------------------------------------------------------------------
# the timed loop and the checks
# ---------------------------------------------------------------------------

class Tally:
    """Checks verdicts and counts outcomes across every block of a run."""

    def __init__(self, wl):
        self.wl = wl
        self.first = {}          # pool index -> fingerprint of its first verdict
        self.runs = Counter()
        self.attempted = self.failed = 0
        self.probes = self.refused = 0
        self.reasons = Counter()

    def judge(self, idx, item, verdict) -> bool:
        self.runs[idx] += 1
        fp = self.wl.fingerprint(verdict)
        reason = self.wl.check(item, verdict)
        if self.first.setdefault(idx, fp) != fp:
            reason = "verdict differs between repeats"
        if item.excluded:
            self.probes += 1
            if reason == "refused":
                self.refused += 1
                return False
            if reason is None:
                return True
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.reasons[f"{item.kind}: {reason}"] += 1
        return reason is None


class Passes:
    """Item latencies from the complete passes over the pool.

    Each pool input's latency is its fastest time over the passes, as
    ``timeit`` takes it: load from other tenants of a shared host only ever
    adds time (see README.md).  A partial last pass is dropped unless no
    pass completed.  Only the fastest times are kept, so memory does not
    grow with the number of passes.
    """

    def __init__(self):
        self.best = {}          # pool index -> fastest seconds over complete passes
        self.current = {}       # pool index -> seconds in the pass under way
        self.count = 0          # complete passes
        self.failed = set()     # pool indices whose verdict failed in any pass

    def end_pass(self):
        for idx, seconds in self.current.items():
            self.best[idx] = min(seconds, self.best.get(idx, seconds))
        self.current = {}
        self.count += 1

    @property
    def latencies(self):
        """Fastest latency of each included pool input, in pool order."""
        return [self.best[i] for i in sorted(self.best)]

    @property
    def items_per_s(self):
        """Inputs whose verdicts passed, per second of every input's latency."""
        passed = len(self.best) - len(self.failed & self.best.keys())
        return passed / sum(self.best.values())


def execute(wl, item, idx, tracer):
    from workloads import Raised

    tracer.begin_item(idx)
    start = time.perf_counter()
    try:
        verdict = wl.run(item, tracer)
    except Exception as exc:
        verdict = Raised(type(exc).__name__, str(exc))
    elapsed = time.perf_counter() - start
    tracer.end_item()
    return verdict, elapsed


def timed_block(wl, pool, seconds, tracers, tally):
    """Cycle through the pool for ``seconds`` of wall time, checks included.

    Pass k runs under ``tracers[k % len(tracers)]``, so that with an
    untraced and a traced tracer both see the same spells of the host.
    Returns one Passes per tracer; every tracer gets at least one input.
    """
    passes = [Passes() for _ in tracers]
    deadline = time.perf_counter() + seconds
    least = len(pool) * (len(tracers) - 1) + 1
    i = 0
    while i < least or time.perf_counter() < deadline:
        idx = i % len(pool)
        k = i // len(pool) % len(tracers)
        if idx == 0 and i:
            passes[k - 1].end_pass()
        i += 1
        item = pool[idx]
        verdict, elapsed = execute(wl, item, idx, tracers[k])
        ok = tally.judge(idx, item, verdict)
        if not item.excluded:
            passes[k].current[idx] = elapsed
            if not ok:
                passes[k].failed.add(idx)
    last = passes[(i - 1) // len(pool) % len(tracers)]
    if i % len(pool) == 0 or not last.count:
        last.end_pass()
    return passes


def complete(wl, pool, tally, null):
    """Untimed: give every pool item a verdict (for the output digest), and
    a second one where the workload checks repeats."""
    want = 2 if wl.repeat_check else 1
    for idx, item in enumerate(pool):
        while tally.runs[idx] < want:
            verdict, _ = execute(wl, item, idx, null)
            tally.judge(idx, item, verdict)


def tail(latencies):
    """(percentile, value): the highest percentile, capped at TAIL_CAP, with
    at least TAIL_BEYOND items beyond it (nearest rank), or the slowest
    item when there are no more than TAIL_BEYOND."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    pct = min(TAIL_CAP, 100.0 * (n - TAIL_BEYOND) / n)
    return pct, ordered[math.ceil(pct / 100.0 * n) - 1]


def digest(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def input_digest(pool):
    from workloads import _dumps

    return digest(_dumps([item.kind, item.data, getattr(item, "files", None)])
                  for item in pool)


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def run_workload(wl, seed, seconds, trace, rounds=None):
    """Set up, generate, measure and check one workload; return a result dict."""
    import workloads
    from tracer import NullTracer, Tracer

    null = NullTracer()
    tracer = Tracer() if trace else null
    walls = setup_walls(wl.sizes, tracer)
    pool = wl.pool(workloads.seeded(seed, wl.name), rounds)
    for item in pool:
        item.expect = wl.expect(item)
    workdir = os.path.join(OUT, f"{wl.name}-{os.getpid()}")
    if hasattr(wl, "materialise"):
        wl.materialise(pool, workdir)
    tally = Tally(wl)
    captured = io.StringIO()
    try:
        with contextlib.redirect_stderr(captured):
            # an untimed, checked warm-up pass fills lazy imports and tables
            for idx, item in enumerate(pool):
                tally.judge(idx, item, execute(wl, item, idx, null)[0])
            gc.collect()
            gc.freeze()     # the pool and its expectations stay out of collections
            if trace:
                refused = tally.refused
                plain, measured = timed_block(wl, pool, seconds, (null, tracer), tally)
                tracer.count("axioms.classify_s4.refused", tally.refused - refused)
            else:
                measured, = timed_block(wl, pool, seconds, (null,), tally)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            complete(wl, pool, tally, null)
    finally:
        if hasattr(wl, "materialise"):
            shutil.rmtree(workdir, ignore_errors=True)
    # set-up is timed on both sides of the loop, so a slow spell of the host
    # during one of them moves the median less
    setup_s = statistics.median(walls + setup_walls(wl.sizes, tracer))
    if tracer.enabled:
        measure_cli_import(tracer)

    pct, tail_s = tail(measured.latencies)
    result = {
        "workload": wl.name, "seed": seed, "pool": len(pool),
        "input_digest": input_digest(pool),
        "output_digest": digest(tally.first[i] for i in range(len(pool))),
        "attempted": tally.attempted, "failed": tally.failed,
        "probes": tally.probes, "refused": tally.refused,
        "failures": dict(tally.reasons),
        "samples": len(measured.latencies), "passes": measured.count,
        "tail_percentile": round(pct, 2),
        "stderr_lines": captured.getvalue().count("\n"),
    }
    if not trace:
        values = {
            "setup_s": setup_s,
            "items_per_s": measured.items_per_s,
            "item_ms_p50": statistics.median(measured.latencies) * 1e3,
            "item_ms_tail": tail_s * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        result["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, unit in END_TO_END}
        return result

    stats = tracer.stage_stats()
    values = {}
    for stage in workloads.STAGES:
        st = stats.get(stage, {"s": 0.0, "calls": 0, "p50_ms": 0.0})
        values[f"{stage}.s"] = st["s"]
        values[f"{stage}.calls"] = st["calls"]
        values[f"{stage}.p50_ms"] = st["p50_ms"]
    errors = tracer.errors()
    for layer in workloads.LAYERS:
        values[f"{layer}.errors"] = sum(v for (lay, _), v in errors.items() if lay == layer)
    for name in workloads.COUNTS:
        values[name] = tracer.counts[name]
    values["trace.overhead_pct"] = (
        100.0 * (1.0 - measured.items_per_s / plain.items_per_s) if plain.items_per_s else 0.0)
    values["trace.item_self_s"] = stats.get("item", {"self_s": 0.0})["self_s"]
    result["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit in per_layer_metrics(workloads)}
    result["self_time"] = {k: round(v["self_s"], 6) for k, v in sorted(stats.items())}
    result["errors_by_type"] = {f"{lay}.{typ}": v for (lay, typ), v in sorted(errors.items())}
    result["items_per_s_untraced"] = plain.items_per_s
    result["items_per_s_traced"] = measured.items_per_s
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"trace-{wl.name}-seed{seed}.json")
    tracer.dump(spans_path)
    result["spans_file"] = os.path.relpath(spans_path, ROOT)
    return result


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def environment():
    lines = 0
    h = hashlib.sha256()
    for dirpath, _, files in sorted(os.walk(SRC)):
        for f in sorted(files):
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    data = fh.read()
                lines += data.count(b"\n")
                h.update(data)
    sha = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=ROOT, timeout=10)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    return {"git_sha": sha, "src_digest": h.hexdigest()[:16], "src_lines": lines,
            "python": sys.version.split()[0], "nproc": os.cpu_count()}


def report(result):
    print(f"workload {result['workload']}  seed {result['seed']}  pool {result['pool']} inputs")
    print(f"  input_digest  {result['input_digest']}")
    print(f"  output_digest {result['output_digest']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    print(f"  ops_attempted {result['attempted']} count  ops_failed {result['failed']} count")
    print(f"  tail percentile p{result['tail_percentile']} of {result['samples']} inputs,"
          f" each its fastest of {result['passes']} passes over the pool")
    if result["probes"]:
        print(f"  |S|=4 probes {result['probes']}, refused {result['refused']} "
              "(known defect: non-lower classification at |S|=4 raises CapExceededError)")
    for reason, n in result["failures"].items():
        print(f"  FAILED {n}x {reason}")
    if "self_time" in result:
        print(f"  items_per_s untraced {result['items_per_s_untraced']:.6g}, "
              f"traced {result['items_per_s_traced']:.6g}")
        for name, s in result["self_time"].items():
            print(f"  self {name:<38} {s:>12.6f} s")
        for name, n in result["errors_by_type"].items():
            print(f"  error {name} {n}")
        print(f"  spans written to {result['spans_file']}")
    print(f"  stderr lines captured {result['stderr_lines']}")


def line(correct, attempted, failed, metrics):
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def run_all(args):
    """Each workload in its own process, so peak memory is per workload."""
    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in ("sweep", "lattice", "duality", "cli"):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(line(correct, attempted, failed, metrics))
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("sweep", "lattice", "duality", "cli", "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    needed = [os.path.join(SRC, "coverkit", "__init__.py"),
              os.path.join(ROOT, "tests", "oracles.py"),
              os.path.join(ROOT, "tests", "gen.py"),
              os.path.join(ROOT, "fixtures")]
    missing = [os.path.relpath(p, ROOT) for p in needed if not os.path.exists(p)]
    if missing:
        print(f"error: not a coverkit checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [SRC, os.path.join(ROOT, "tests")]
    import workloads

    print(json.dumps({"environment": environment()}))
    result = run_workload(workloads.make(args.workload, ROOT), args.seed,
                          args.seconds, args.trace)
    report(result)
    print(line(result["failed"] == 0, result["attempted"], result["failed"],
               result["metrics"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
