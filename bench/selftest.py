"""Self-test of the benchmark at tiny sizes.

Run from the repository root::

    python3 bench/selftest.py

Checks BENCHMARK.json's keys, names and limits, runs every workload
at tiny sizes untraced and traced, and requires every named metric to be
printed with its unit, ``correct`` to hold, and ``failed_frac`` and
``canonical_drift`` to read 0.  It also runs the benchmark in a directory
holding only BENCHMARK.json and the benchmark's files, where it must fail
without printing a result.  Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# every end-to-end figure the summary line must carry, gated or not
SUMMARY = ("wall_s", "wall_rel", "query_s_p50", "query_rel_p50", "setup_s",
           "peak_rss_mb", "failed_frac", "canonical_drift")


def check_spec(spec: dict, problems: list) -> None:
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(spec)} != {sorted(keys)}")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for name in names:
        if not NAME.match(name):
            problems.append(f"bad name {name!r}")
    if len(names) != len(set(names)):
        problems.append("a name is used twice")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload {w['name']}: needs exactly a one-line why of <= 200 chars")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
            problems.append(f"metric {m['name']}: bad unit or direction")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s must be an end-to-end metric in s, lower is better")
    elif bounds["setup_s"] < max(bounds.values()):
        problems.append("setup_s must have the largest bound")
    if any(not 0 < b <= 0.25 for b in bounds.values()):
        problems.append("every bound must lie in (0, 0.25]")
    # a full measuring round, 4 + 22 runs per workload plus start-up, must
    # fit in 57 minutes
    runs = 4 + 22 * len(spec["workloads"])
    if not 1 <= spec["run_seconds"] <= 60 or runs * (spec["run_seconds"] + 6) > 3420:
        problems.append(f"{runs} runs of {spec['run_seconds']} s do not fit in 3420 s")


def check_meta(spec: dict, problems: list) -> None:
    with open(os.path.join(BENCH_DIR, "meta.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    layer_names = {m["name"] for m in spec["per_layer"]}
    e2e_names = set(SUMMARY)
    workloads = {w["name"] for w in spec["workloads"]}
    for row in meta["layers"]:
        missing = set(row["metrics"]) - layer_names
        if missing:
            problems.append(f"meta.json names unknown per-layer metrics {sorted(missing)}")
        if row["moves"] not in e2e_names or not set(row["workloads"]) <= workloads:
            problems.append(f"meta.json row {row['metrics'][0]}: unknown metric or workload")


def run(args: list, cwd: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def check_run(spec: dict, workload: str, trace: int, problems: list) -> None:
    proc = run(["--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--tiny"], ROOT)
    where = f"{workload} --trace {trace}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
        return
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}: {proc.stderr.strip()[-300:]}")
    want = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    if set(got) != {m["name"] for m in want}:
        problems.append(f"{where}: metrics {sorted(set(got) ^ {m['name'] for m in want})} differ")
    for m in want:
        val = got.get(m["name"], {})
        if val.get("unit") != m["unit"] or not isinstance(val.get("value"), (int, float)):
            problems.append(f"{where}: metric {m['name']} printed as {val}")
    summary = lines[-2]
    for name in SUMMARY:
        if not re.search(rf"\b{name}=\S+ \S+", summary):
            problems.append(f"{where}: summary line lacks {name} with its unit")
    for name in ("failed_frac", "canonical_drift"):
        if not re.search(rf"\b{name}=0 ", summary):
            problems.append(f"{where}: {name} is not 0")


def check_bare(spec: dict, problems: list) -> None:
    """A directory with only BENCHMARK.json and the benchmark must fail."""
    bare = os.path.join(ROOT, ".bench_work", f"bare-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", spec["workloads"][0]["name"], "--seed", "1",
                    "--seconds", "1", "--trace", "0"], bare)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            problems.append("bare directory: the benchmark did not fail")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems: list[str] = []
    check_spec(spec, problems)
    check_meta(spec, problems)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace, problems)
    check_bare(spec, problems)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
