"""End-to-end and per-layer metrics from hostbench results and traces."""

from . import spans as sp
from .stats import median, percentile

# (name, unit) in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("tinympc.ns_per_iter", "ns"),
    ("tinympc.admm_iters", "count"),
    ("tinympc.capped_share", "frac"),
    ("tinympc.diverged_solves", "count"),
    ("matlib.ns_per_iter.bf16", "ns"),
    ("matlib.ns_per_iter.i32", "ns"),
    ("matlib.ns_per_iter.i16", "ns"),
    ("matlib.quant_sats", "count"),
    ("matlib.acc_sats", "count"),
    ("plant.step_ns_p50", "ns"),
    ("plant.steps", "count"),
    ("hil.tick_us_p50", "us"),
    ("hil.ticks", "count"),
    ("hil.episode_self_ms", "ms"),
    ("hil.calibrate_ms", "ms"),
    ("hil.refresh_us_p50", "us"),
    ("hil.refreshes", "count"),
    ("hil.refresh_failures", "count"),
    ("sched.self_ms", "ms"),
    ("sched.ns_per_release", "ns"),
    ("sched.releases", "count"),
    ("sched.misses", "count"),
    ("sched.drops", "count"),
    ("sched.preemptions", "count"),
    ("sched.hold_ticks", "count"),
    ("isa.emit_ns_per_uop", "ns"),
    ("isa.emissions", "count"),
    ("isa.prog_cache.hits", "count"),
    ("isa.prog_cache.misses", "count"),
    ("isa.disk.put_us_p50", "us"),
    ("isa.disk.get_us_p50", "us"),
    ("isa.disk.bytes", "B"),
    ("isa.disk.rejected", "count"),
    ("cpu.inorder.ns_per_uop", "ns"),
    ("cpu.ooo.ns_per_uop", "ns"),
    ("vector.saturn.ns_per_uop", "ns"),
    ("systolic.gemmini.ns_per_uop", "ns"),
    ("replay.uops", "count"),
    ("dse.submit_ms_p50", "ms"),
    ("dse.cells", "count"),
    ("dse.replays", "count"),
    ("pool.utilization", "frac"),
    ("obs.trace_overhead_frac", "frac"),
)

# matlib::NumericFormat enumerator values.
FORMAT_CODE = {"f32": 0, "i16": 1, "i32": 2, "bf16": 3}

REPLAY_FAMILIES = ("cpu.inorder", "cpu.ooo", "vector.saturn",
                   "systolic.gemmini")

OP_SPANS = ("bench.episode", "bench.sched_run")


def with_units(values, table):
    """{name: {"value", "unit"}} for every metric of table."""
    return {name: {"value": values[name], "unit": unit}
            for name, unit in table}


def best_times(ops, field="ns"):
    """{(key, phase): fastest repetition} over a run's repeated ops.

    The host's speed drifts by up to 2x from second to second with the
    load of other tenants; an op's best time over several repetitions
    spread across the run is its cost with that noise filtered out.
    """
    best = {}
    for op in ops:
        k = (op["key"], op["phase"])
        if k not in best or op[field] < best[k]:
            best[k] = op[field]
    return best


def end_to_end(results):
    """End-to-end metrics of one untraced run's hostbench results.

    setup_s is the median set-up time of the processes. Throughput,
    latency and CPU figures are over the run's distinct ops, each at
    its best time in any process: ops_per_s is distinct ops per second
    of summed best wall time, and cpu_s the summed best CPU time (all
    threads) of one op of each.
    """
    ops = [op for r in results for op in r["ops"]]
    ns = list(best_times(ops).values())
    cpu = best_times(ops, "cpu_ns").values()
    return {
        "setup_s": median([r["setup_ns"] for r in results]) / 1e9,
        "ops_per_s": len(ns) / (sum(ns) / 1e9),
        "op_ms_p50": percentile(ns, 50) / 1e6,
        "op_ms_p90": percentile(ns, 90) / 1e6,
        "cpu_s": sum(cpu) / 1e9,
        "peak_rss_mb": max(r["peak_rss_kb"] for r in results) / 1024.0,
    }


def _ratio(num, den):
    return num / den if den else 0.0


def _replay_metrics(untraced):
    """Per-family host ns per replayed uop over design_replay's hot
    ops, which replay resident streams of every configuration."""
    ops = untraced["ops"]
    best = best_times(ops)
    first = {(op["key"], op["phase"]): op for op in ops}
    out = {}
    for fam in REPLAY_FAMILIES:
        hot = [k for k, op in first.items()
               if op["family"] == fam and op["phase"] == "hot"]
        out[f"{fam}.ns_per_uop"] = _ratio(sum(best[k] for k in hot),
                                          sum(first[k]["uops"] for k in hot))
    out["replay.uops"] = sum(op["uops"] for op in ops)
    out["dse.submit_ms_p50"] = median(
        [v for k, v in best.items() if k[0].startswith("dr|")]) / 1e6
    out["dse.cells"] = untraced["layers"]["dse_cells"]
    out["dse.replays"] = untraced["layers"]["dse_replays"]
    return out


def per_layer(untraced, traced, trace_spans):
    """Per-layer metrics of a traced run.

    untraced and traced ran the same ops, the second under RTOC_TRACE
    and the timing plant decorator; trace_spans are the traced
    process's spans.
    """
    idx = sp.SpanIndex(trace_spans)
    timed = idx.named("bench.timed")
    if len(timed) != 1:
        raise ValueError("trace lacks the bench.timed span")
    window = (timed[0].start, timed[0].end)
    layers = traced["layers"]
    m = {}

    # Functional solve: hil.tick self time (refresh excluded) per ADMM
    # iteration, split by the datapath format of the enclosing op.
    ticks = idx.named("hil.tick", window)
    fmt_ns = [0, 0, 0, 0]
    fmt_iters = [0, 0, 0, 0]
    for t in ticks:
        op = idx.enclosing(t, OP_SPANS)
        if op is None:
            continue
        fmt = op.args.get("format", 0)
        fmt_ns[fmt] += sp.self_time(t, idx.inside(t, ("hil.refresh",)))
        fmt_iters[fmt] += t.args.get("solve_iters", 0)
    f32 = FORMAT_CODE["f32"]
    m["tinympc.ns_per_iter"] = _ratio(fmt_ns[f32], fmt_iters[f32])
    m["tinympc.admm_iters"] = fmt_iters[f32]
    m["tinympc.capped_share"] = _ratio(layers["capped_solves"],
                                       layers["solves"])
    m["tinympc.diverged_solves"] = layers["diverged_solves"]
    for name in ("bf16", "i32", "i16"):
        code = FORMAT_CODE[name]
        m[f"matlib.ns_per_iter.{name}"] = _ratio(fmt_ns[code],
                                                 fmt_iters[code])
    m["matlib.quant_sats"] = layers["quant_sats"]
    m["matlib.acc_sats"] = layers["acc_sats"]

    m["plant.step_ns_p50"] = layers["plant_step_ns_p50"]
    m["plant.steps"] = layers["plant_steps"]

    m["hil.tick_us_p50"] = median([t.dur for t in ticks]) / 1e3
    m["hil.ticks"] = len(ticks)
    episodes = idx.self_times("hil.episode", ("hil.tick",), window)
    m["hil.episode_self_ms"] = _ratio(sum(s for _, s in episodes),
                                      len(episodes)) / 1e6
    m["hil.calibrate_ms"] = sp.union_length(
        idx.named("hil.calibrate") + idx.named("hil.calibrate_batch")) / 1e6
    refreshes = idx.named("hil.refresh", window)
    m["hil.refresh_us_p50"] = median([r.dur for r in refreshes]) / 1e3
    failures = sum(1 for r in refreshes if r.args.get("diverged"))
    m["hil.refreshes"] = len(refreshes) - failures
    m["hil.refresh_failures"] = failures

    # Scheduler event loop: RtScheduler::run minus its solves.
    runs = idx.self_times("bench.sched_run", ("sched.solve",), window)
    sched_self = sum(s for _, s in runs)
    m["sched.self_ms"] = _ratio(sched_self, len(runs)) / 1e6
    m["sched.ns_per_release"] = _ratio(sched_self, layers["releases"])
    for name in ("releases", "misses", "drops", "preemptions"):
        m[f"sched.{name}"] = layers[name]
    m["sched.hold_ticks"] = layers["hold_ticks"]

    # Emission (its own disk write excluded) and the disk cache.
    emits = idx.self_times("isa.emit", ("disk.put",))
    m["isa.emit_ns_per_uop"] = _ratio(
        sum(s for _, s in emits), sum(e.args.get("uops", 0) for e, _ in emits))
    m["isa.emissions"] = len(emits)
    m["isa.prog_cache.hits"] = layers["prog_hits"]
    m["isa.prog_cache.misses"] = layers["prog_misses"]
    m["isa.disk.put_us_p50"] = median(
        [s.dur for s in idx.named("disk.put")]) / 1e3
    m["isa.disk.get_us_p50"] = median(
        [s.dur for s in idx.named("disk.get")]) / 1e3
    m["isa.disk.bytes"] = layers["disk_bytes"]
    m["isa.disk.rejected"] = layers["disk_rejected"]

    m.update(_replay_metrics(untraced))

    busy = sum(s.dur for s in idx.named("pool.task", window))
    m["pool.utilization"] = _ratio(
        busy, traced["threads"] * (window[1] - window[0]))
    # Same ops in both processes: compare summed best times, which the
    # host's load drift moves far less than the timed sections' walls.
    m["obs.trace_overhead_frac"] = (
        sum(best_times(traced["ops"]).values()) /
        sum(best_times(untraced["ops"]).values()) - 1)
    return m
