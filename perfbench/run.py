#!/usr/bin/env python3
"""Host-time benchmark of the rtoc simulator.

Measures how fast the simulator itself runs (host wall and CPU time),
never the simulated cycles, which are deterministic model outputs: the
benchmark checks those against pinned values instead of scoring them.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record      # re-pin expected/*.tsv
    python3 perfbench/run.py --self-test   # the benchmark's own tests

Run from the repository root. The first call builds perfbench/ (the
rtoc library from ../src plus hostbench) into .bench_build/perfbench.
Each hostbench process gets a scrubbed environment (every RTOC_* knob
dropped, RTOC_THREADS pinned to min(2, cores), a private empty
RTOC_CACHE_DIR), so neither the user's cache nor their knobs leak in.
Two pool threads, not one per core: an op on every core of a host
shared with other tenants is slowed by whichever core they load.

A run's ops are a fixed list of distinct ops (pb/plans.py) that
hostbench repeats in order: a closed loop with one client, each op
starting when the previous one ends, apart from the thread pool the
simulator uses inside an op. --trace 0 splits --seconds over PROCESSES
hostbench processes run one after another, each set up afresh and
timing at least one pass over the ops. Each process keeps its speed
for its lifetime (its CPU and its neighbours on the host), and two
processes timed side by side can differ by 1.4x, so a run times
several. It prints the end-to-end metrics: the median set-up time of
the processes, then ops/s, op latency p50/p90 and CPU seconds over each
distinct op's best repetition in any of them (pb/report.py), and the
highest peak RSS.
--trace 1 runs the same ops twice, plain and under RTOC_TRACE with the
timing plant decorator, and prints the per-layer metrics derived from
the trace. The last stdout line is the JSON result.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from pb import check, plans, report, spans, stats  # noqa: E402

BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUNS_DIR = ROOT / ".bench_build" / "perfbench-runs"
PROCESSES = 5          # timed processes the run's seconds are split over
PROC_TIMEOUT_S = 150   # per hostbench process


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def threads():
    return max(1, min(2, os.cpu_count() or 1))


def build():
    """Build hostbench from the checkout's sources; paths of the tools."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise SystemExit("perfbench: rtoc sources not found beside perfbench/")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        *gen, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j",
                    str(max(1, min(4, os.cpu_count() or 1)))],
                   stdout=sys.stderr, check=True)
    return BUILD_DIR / "hostbench", BUILD_DIR / "hostbench_tests"


class Runner:
    """Launches hostbench processes inside one private run directory."""

    def __init__(self, exe, workload, plan_text):
        self.exe = exe
        self.workload = workload
        self.dir = RUNS_DIR / f"{workload}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.plan = self.dir / "plan.txt"
        self.plan.write_text(plan_text)
        self.count = 0

    def run(self, extra, trace=False):
        """Run hostbench once; its parsed result."""
        self.count += 1
        tag = f"p{self.count}"
        cache = self.dir / f"cache-{tag}"
        cache.mkdir()
        out = self.dir / f"{tag}.json"
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("RTOC_")}
        env["RTOC_THREADS"] = str(threads())
        env["RTOC_CACHE_DIR"] = str(cache)
        env["XDG_CACHE_HOME"] = str(self.dir / "xdg")
        if trace:
            env["RTOC_TRACE"] = str(self.dir / f"{tag}.trace.json")
        cmd = [str(self.exe), f"--workload={self.workload}",
               f"--plan={self.plan}", f"--out={out}", *extra]
        # Spawn time on CLOCK_MONOTONIC, the clock hostbench reads.
        cmd.append(f"--t0-ns={time.monotonic_ns()}")
        subprocess.run(cmd, env=env, stdout=sys.stderr, check=True,
                       timeout=PROC_TIMEOUT_S)
        with open(out) as f:
            result = json.load(f)
        if result["threads"] != threads():
            raise SystemExit(f"perfbench: hostbench ran {result['threads']} "
                             f"pool threads, not {threads()}")
        if trace:
            result["trace_path"] = env["RTOC_TRACE"]
        return result

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def measure(exe, workload, seed, seconds, trace):
    ops, checks = plans.generate(workload, seed)
    if len(ops) < stats.min_samples(90):
        raise SystemExit(f"perfbench: {workload} has too few distinct ops")
    expected = check.load_expected(check.expected_path(BENCH_DIR, workload))
    runner = Runner(exe, workload, plans.render(ops, checks))
    try:
        if not trace:
            results = [runner.run([f"--seconds={seconds / PROCESSES}",
                                   f"--min-ops={len(ops)}"])
                       for _ in range(PROCESSES)]
            log(f"{len(ops)} distinct ops timed "
                f"{sum(len(r['ops']) for r in results)} times in "
                f"{PROCESSES} processes")
            metrics = report.with_units(report.end_to_end(results),
                                        report.END_TO_END)
        else:
            plain = runner.run([f"--seconds={seconds / 2}",
                                f"--min-ops={len(ops)}"])
            traced = runner.run([f"--ops={len(plain['ops'])}"], trace=True)
            results = [plain, traced]
            values = report.per_layer(plain, traced,
                                      spans.load_trace(traced["trace_path"]))
            metrics = report.with_units(values, report.PER_LAYER)
    finally:
        runner.close()
    attempted, failed, problems = check.tally(results, expected)
    for p in problems[:20]:
        log(f"output mismatch: {p}")
    log(f"failed_frac {check.failed_frac(attempted, failed):.6g} "
        f"({failed} of {attempted} ops and checks)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def record(exe, workloads):
    """Re-pin expected/<workload>.tsv from one pass over the pool."""
    (BENCH_DIR / "expected").mkdir(exist_ok=True)
    for w in workloads:
        ops, checks = plans.pinned_pool(w)
        runner = Runner(exe, w, plans.render(ops, checks))
        try:
            result = runner.run([f"--ops={len(ops)}"])
        finally:
            runner.close()
        bad = [c["name"] for c in result["checks"] if not c["ok"]]
        if bad:
            raise SystemExit(f"perfbench: {w}: checks failed: {bad}")
        check.write_expected(check.expected_path(BENCH_DIR, w), result)
        log(f"pinned {len(result['ops'])} ops of {w}")


def self_test(tests_exe):
    suite = unittest.defaultTestLoader.discover(str(BENCH_DIR / "tests"))
    ok = unittest.TextTestRunner(stream=sys.stderr).run(suite).wasSuccessful()
    env = {k: v for k, v in os.environ.items() if not k.startswith("RTOC_")}
    ok &= subprocess.run([str(tests_exe)], env=env, stdout=sys.stderr,
                         timeout=PROC_TIMEOUT_S).returncode == 0
    return 0 if ok else 1


def main():
    # A terminated run still kills and reaps its hostbench child (via
    # subprocess.run's exception path) and removes its run directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", choices=plans.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not (args.record or args.self_test or args.workload):
        ap.error("--workload is required")

    exe, tests_exe = build()
    if args.self_test:
        return self_test(tests_exe)
    if args.record:
        record(exe, [args.workload] if args.workload else plans.WORKLOADS)
        return 0
    result = measure(exe, args.workload, args.seed, args.seconds,
                     bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
