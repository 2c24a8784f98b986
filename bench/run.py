"""Closed-loop benchmark of the ntumatch command line.

One client, one thread, one process: each query is ``ntumatch.cli.main``
called in-process on files written during set-up, and the next query is
sent only after the previous one returns.  Before every query the
benchmark clears each ``functools.lru_cache`` it finds on the ntumatch
modules, so every query starts as cold as a fresh CLI invocation does.

Usage, from the repository root::

    python3 bench/run.py --workload couples_structure --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

``--trace 0`` reports the end-to-end metrics that BENCHMARK.json lists and
``--trace 1`` the per-layer ones, from passes that alternate untraced and
traced.  The last line of stdout is one JSON object; the line before it
names every end-to-end figure with its unit: raw ``wall_s`` and
``query_s_p50`` next to their calibrated ``wall_rel`` and
``query_rel_p50``, and ``failed_frac`` and ``canonical_drift``, which feed
``correct`` and ``failed``.

The ``_rel`` figures divide each pass's times by the median of a fixed
pure-Python calibration loop run before every query of that pass.  On a
shared machine, raw times of identical back-to-back runs can differ by a
third; the calibrated ones follow the program, not the neighbours.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 5
MIN_PASSES = 3

sys.path.insert(0, BENCH_DIR)
import tracing  # noqa: E402
import workloads  # noqa: E402


def load_ntumatch():
    """Import ntumatch from this checkout's ``src``, never from elsewhere."""
    for name in [m for m in sys.modules if m == "ntumatch" or m.startswith("ntumatch.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    nm = importlib.import_module("ntumatch")
    importlib.import_module("ntumatch.cli")
    importlib.import_module("ntumatch.serialize")
    if not os.path.abspath(nm.__file__).startswith(SRC + os.sep):
        raise ImportError(f"ntumatch imported from {nm.__file__}, not from {SRC}")
    modules = {
        name.rpartition(".")[2]: mod
        for name, mod in sys.modules.items()
        if name == "ntumatch" or name.startswith("ntumatch.")
    }
    return nm, modules


def calibrate() -> float:
    """Seconds for a fixed, stdlib-only, pure-Python imitation of the
    library's work: a sorted edge set, tuple adjacency, alternating
    breadth-first searches over a greedy matching, frozenset and dict
    traffic.  Work shaped like the program's follows the machine's speed
    more closely than a plain arithmetic loop does."""
    t0 = time.perf_counter()
    n = 300
    edges = sorted(
        {(min(a, b), max(a, b)) for a in range(n) for b in ((a * 7 + 3) % n, (a * 13 + 5) % n) if a != b}
    )
    lists: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        lists[u].append(v)
        lists[v].append(u)
    adj = tuple(tuple(sorted(a)) for a in lists)
    match = [-1] * n
    for u, v in edges:
        if match[u] == -1 and match[v] == -1:
            match[u], match[v] = v, u
    evens = frozenset(range(0, n, 2))
    acc = 0
    for root in range(0, n, 4):
        parent = [-1] * n
        used = [False] * n
        used[root] = True
        queue = [root]
        for v in queue:
            for to in adj[v]:
                if parent[to] == -1 and to != root:
                    parent[to] = v
                    w = match[to]
                    if w != -1 and not used[w]:
                        used[w] = True
                        queue.append(w)
        acc += len(frozenset(queue) & evens)
    counts: dict[tuple[int, int], int] = {}
    for e in edges:
        counts[e] = counts.get(e, 0) + 1
    return time.perf_counter() - t0


def canonical(text: str) -> str:
    """The benchmark's own canonical form of a matching or certificate:
    sorted arrays, smaller endpoint first, two-space indent, LF."""
    if not text:
        return text
    try:
        obj = json.loads(text)
    except ValueError:
        return ""  # not JSON, so never canonical
    for key in ("edges", "witness"):
        if key in obj:
            obj[key] = sorted(sorted(e) for e in obj[key])
    if "coalition" in obj:
        obj["coalition"] = sorted(obj["coalition"])
    return json.dumps(obj, indent=2) + "\n"


def execute(cli, query) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(query.argv)
        except Exception as exc:  # a fault is a failed query, not a crash
            rc = f"raised {exc!r}"
        dt = time.perf_counter() - t0
    return rc, out.getvalue(), dt


class Ledger:
    """Per-query outcomes: the first output is the recorded canonical one,
    later outputs must repeat it byte for byte."""

    def __init__(self, queries):
        self.queries = queries
        self.first = [None] * len(queries)
        self.attempted = 0
        self.failed = 0
        self.drift = 0
        self.errors: dict[str, int] = {}  # message -> occurrences

    def note(self, i: int, rc, out: str) -> None:
        q = self.queries[i]
        self.attempted += 1
        reason = None
        if not isinstance(rc, int) or rc not in (0, 1):
            reason = f"exit {rc}"
        elif q.expect_rc is not None and rc != q.expect_rc:
            reason = f"exit {rc}, expected {q.expect_rc}"
        if self.first[i] is None:
            self.first[i] = (rc, out)
            if out != canonical(out):
                self.drift += 1
                self.error(f"{q.name}: output is not canonical")
        elif self.first[i] != (rc, out):
            if self.first[i][0] != rc:
                reason = reason or f"verdict changed from exit {self.first[i][0]} to {rc}"
            if self.first[i][1] != out:
                self.drift += 1
                self.error(f"{q.name}: output differs from the recorded one")
        if reason:
            self.failed += 1
            self.error(f"{q.name}: {reason}")

    def error(self, message: str) -> None:
        self.errors[message] = self.errors.get(message, 0) + 1

    def revalidate(self, passes: int) -> None:
        """Check every recorded output; a bad one fails every pass."""
        for q, first in zip(self.queries, self.first):
            if first is None or not isinstance(first[0], int):
                continue
            try:
                problem = q.check(*first)
            except Exception as exc:  # revalidation faults count as failures
                problem = f"revalidation raised {exc!r}"
            if problem:
                self.failed += passes
                self.error(f"{q.name}: {problem}")


def setup(workload: str, seed: int, tiny: bool, workdir: str):
    """Import, instance generation, file writing and expected answers."""
    t0 = time.perf_counter()
    nm, modules = load_ntumatch()
    rng = random.Random(f"{workload}:{seed}")
    queries = workloads.WORKLOADS[workload](nm, workloads.Files(workdir), rng, tiny)
    return time.perf_counter() - t0, modules, queries


def run_pass(cli, queries, ledger, caches, after=None) -> tuple:
    """Sends every query once.  Returns the per-query seconds and the
    median of the calibration runs interleaved with them, which tracks the
    machine's speed during this pass."""
    gc.collect()
    times, calib = [], []
    for i, q in enumerate(queries):
        calib.append(calibrate())
        for cache in caches.values():
            cache.cache_clear()
        if after is not None:
            after.before_query()
        rc, out, dt = execute(cli, q)
        if after is not None:
            after.after_query()
        times.append(dt)
        ledger.note(i, rc, out)
        if q.save_as:
            with open(q.save_as, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(out)
    return times, statistics.median(calib)


class CacheStats:
    """cache_info() of every discovered cache, summed over traced queries;
    each query starts from a cleared cache, so its info is its own."""

    def __init__(self, caches, tracer):
        self.caches = caches
        self.tracer = tracer
        self.hits: dict[str, int] = {}
        self.misses: dict[str, int] = {}
        self.peak = 0

    def before_query(self):
        self.tracer.query += 1

    def after_query(self):
        size = 0
        for key, cache in self.caches.items():
            info = cache.cache_info()
            self.hits[key] = self.hits.get(key, 0) + info.hits
            self.misses[key] = self.misses.get(key, 0) + info.misses
            size += info.currsize
        self.peak = max(self.peak, size)


def layer_metric(name: str, tracer, cache_stats, passes: int, cal: float, overhead: float) -> float:
    """One per-layer figure per traced pass.  Self times are divided by the
    traced passes' calibration median, like wall_rel."""
    stats = tracer.stats

    def self_sum(pred) -> float:
        return sum(st.self_s for key, st in stats.items() if pred(key)) / passes / cal

    if name == "tracing_overhead_rel":
        return overhead
    if name == "serialize.parse_rel":
        return self_sum(lambda k: k.startswith("serialize.") and k.endswith("_from_json"))
    if name == "serialize.emit_rel":
        return self_sum(lambda k: k.startswith("serialize.") and k.endswith("_to_json"))
    if name == "cli.self_rel":
        return self_sum(lambda k: k.startswith("cli."))
    if name == "caches.currsize_peak":
        return float(cache_stats.peak)
    key, _, stat = name.rpartition(".")
    if stat == "hit_ratio":
        hits, misses = cache_stats.hits.get(key, 0), cache_stats.misses.get(key, 0)
        return hits / (hits + misses) if hits + misses else 0.0
    if stat == "constructed":
        key += ".__init__"
    st = stats.get(key, tracing.Stat())
    if stat in ("calls", "constructed"):
        return st.calls / passes
    if stat == "self_rel":
        return st.self_s / passes / cal
    if stat in ("true_ratio", "found_ratio"):
        return st.hits / st.calls if st.calls else 0.0
    if stat == "yielded":
        return st.yielded / passes
    if stat == "vectors":
        return st.items / passes
    raise KeyError(f"no per-layer metric named {name}")


def machine() -> str:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"nproc={os.cpu_count()} cpu={model!r} python={platform.python_version()}"


def run_one(args, spec) -> int:
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_REPS):
            elapsed, modules, queries = setup(args.workload, args.seed, args.tiny, workdir)
            setups.append(elapsed)
        return measure(args, spec, modules, queries, statistics.median(setups))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def median_of_medians(samples: list) -> float:
    """The median query: each query's median over the passes, then the
    median over queries.  Taking the median of all samples at once would,
    where the query costs leave a gap in the middle, report the noisiest
    sample on either side of the gap."""
    return statistics.median(statistics.median(s) for s in samples)


def measure(args, spec, modules, queries, setup_s) -> int:
    cli = modules["cli"]
    caches = tracing.find_caches(modules)
    ledger = Ledger(queries)
    walls: list[float] = []
    rels: list[float] = []
    query_times: list[list[float]] = [[] for _ in queries]
    query_rels: list[list[float]] = [[] for _ in queries]
    traced_rels: list[float] = []
    traced_cals: list[float] = []
    tracer = tracing.Tracer(modules) if args.trace else None
    cache_stats = CacheStats(caches, tracer) if args.trace else None
    start = time.perf_counter()
    while True:
        times, cal = run_pass(cli, queries, ledger, caches)
        walls.append(sum(times))
        rels.append(sum(times) / cal)
        for i, t in enumerate(times):
            query_times[i].append(t)
            query_rels[i].append(t / cal)
        if tracer is not None:
            tracer.install()
            try:
                times, cal = run_pass(cli, queries, ledger, caches, after=cache_stats)
            finally:
                tracer.uninstall()
            traced_rels.append(sum(times) / cal)
            traced_cals.append(cal)
        rounds = len(walls)
        elapsed = time.perf_counter() - start
        enough = rounds >= (1 if tracer is not None else MIN_PASSES)
        if enough and elapsed * (rounds + 1) / rounds > args.seconds:
            break
    passes = len(walls) + len(traced_rels)
    ledger.revalidate(passes)
    for message, count in ledger.errors.items():
        print(f"error: {args.workload}: {message} ({count}x)", file=sys.stderr)

    wall_s = statistics.median(walls)
    summary = {
        "wall_s": (wall_s, "s"),
        "wall_rel": (statistics.median(rels), "ratio"),
        "query_s_p50": (median_of_medians(query_times), "s"),
        "query_rel_p50": (median_of_medians(query_rels), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "failed_frac": (ledger.failed / ledger.attempted, "ratio"),
        "canonical_drift": (ledger.drift, "count"),
    }
    if tracer is not None:
        cal = statistics.median(traced_cals)
        overhead = statistics.median(traced_rels) - summary["wall_rel"][0]
        metrics = {
            m["name"]: {
                "value": layer_metric(m["name"], tracer, cache_stats, len(traced_rels), cal, overhead),
                "unit": m["unit"],
            }
            for m in spec["per_layer"]
        }
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write_spans(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    else:
        metrics = {
            m["name"]: {"value": summary[m["name"]][0], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    print(f"# {args.workload} seed={args.seed} {machine()}")
    print(
        f"# {args.workload}: passes={len(walls)} untraced"
        + (f" + {len(traced_rels)} traced" if tracer is not None else "")
        + f", queries per pass={len(queries)}, query samples={len(walls) * len(queries)}, "
        + ", ".join(f"{k}={v:.6g} {u}" for k, (v, u) in summary.items())
    )
    print(
        json.dumps(
            {
                "correct": ledger.failed == 0 and ledger.drift == 0,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process, one after the other."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, val in res["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = val
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest instances, for the self-test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ntumatch", "__init__.py")):
        print(f"error: no ntumatch sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
