/**
 * @file
 * hostbench: one benchmark process. Runs a workload's set-up, then the
 * ops of a plan file, repeated in order for the timed section, then the
 * plan's untimed invariant checks, and writes a JSON result file for
 * run.py.
 *
 *   hostbench --workload=NAME --plan=FILE --out=FILE
 *             [--seconds=S | --ops=N] [--min-ops=K]
 *             [--t0-ns=MONOTONIC_NS]
 *
 * The timed section stops at the first op boundary after S seconds
 * with at least K ops done (or after exactly N ops). --t0-ns is the
 * launcher's CLOCK_MONOTONIC reading at spawn, so setup_ns spans
 * process start to the first timed op. Under RTOC_TRACE, closed-loop
 * episodes fly through the TimedPlant decorator. The process refuses
 * to run when an rtoc environment knob other than RTOC_THREADS,
 * RTOC_CACHE_DIR and RTOC_TRACE is set, each of which the launcher
 * pins: any other would silently change what is measured.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "isa/disk_cache.hh"
#include "isa/program_cache.hh"
#include "obs/trace.hh"
#include "workloads.hh"

extern char **environ;

using namespace rtoc;
using namespace rtoc::perfbench;

namespace {

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

uint64_t
cpuNs()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto ns = [](const timeval &tv) {
        return static_cast<uint64_t>(tv.tv_sec) * 1000000000ull +
               static_cast<uint64_t>(tv.tv_usec) * 1000ull;
    };
    return ns(ru.ru_utime) + ns(ru.ru_stime);
}

/** Refuse to run under a foreign rtoc knob (see file comment). */
void
checkEnvironment()
{
    for (char **e = environ; *e; ++e) {
        const std::string kv = *e;
        if (kv.rfind("RTOC_", 0) != 0)
            continue;
        const std::string k = kv.substr(0, kv.find('='));
        const std::string v = kv.substr(kv.find('=') + 1);
        if ((k == "RTOC_THREADS" || k == "RTOC_CACHE_DIR" ||
             k == "RTOC_TRACE") &&
            !v.empty())
            continue;
        rtoc_fatal("refusing to run with %s set", kv.c_str());
    }
    if (!std::getenv("RTOC_CACHE_DIR"))
        rtoc_fatal("RTOC_CACHE_DIR must name a private cache directory");
}

std::string
jsonStr(const std::string &s)
{
    std::string o = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            o += c;
    }
    return o + "\"";
}

uint64_t
median(std::vector<uint32_t> v)
{
    if (v.empty())
        return 0;
    auto mid = v.begin() + static_cast<long>(v.size() / 2);
    std::nth_element(v.begin(), mid, v.end());
    return *mid;
}

} // namespace

int
main(int argc, char **argv)
{
    const uint64_t main_ns = nowNs();
    Cli cli(argc, argv);
    const std::string name = cli.getString("workload", "");
    const std::string plan_path = cli.getString("plan", "");
    const std::string out_path = cli.getString("out", "");
    const double seconds = cli.getDouble("seconds", 0.0);
    const long op_limit = cli.getInt("ops", 0);
    const long min_ops = cli.getInt("min-ops", 0);
    const bool traced = std::getenv("RTOC_TRACE") != nullptr;
    const long t0_arg = cli.getInt("t0-ns", 0);
    const uint64_t t0 = t0_arg > 0 ? static_cast<uint64_t>(t0_arg) : main_ns;

    if (plan_path.empty() || out_path.empty())
        rtoc_fatal("usage: hostbench --workload=NAME --plan=FILE "
                   "--out=FILE [--seconds=S|--ops=N]");
    if ((seconds > 0.0) == (op_limit > 0))
        rtoc_fatal("give exactly one of --seconds and --ops");
    checkEnvironment();

    std::unique_ptr<Workload> wl =
        makeWorkload(name, traced, std::getenv("RTOC_CACHE_DIR"));
    if (!wl)
        rtoc_fatal("unknown workload %s", name.c_str());

    const Plan plan = readPlan(plan_path);
    wl->setup(plan);
    const uint64_t setup_end = nowNs();

    std::vector<OpRecord> ops;
    {
        obs::Span timed_span("bench.timed", "bench");
        auto done = [&] {
            if (op_limit > 0)
                return static_cast<long>(ops.size()) == op_limit;
            return nowNs() - setup_end >= seconds * 1e9 &&
                   static_cast<long>(ops.size()) >= min_ops;
        };
        for (int rep = 0; !done(); ++rep) {
            for (size_t i = 0; i < plan.ops.size() && !done(); ++i) {
                const uint64_t c0 = cpuNs();
                ops.push_back(wl->run(plan.ops[i], rep));
                ops.back().cpuNs = cpuNs() - c0;
            }
        }
    }
    // Checks and clean-up stay out of the trace.
    if (traced)
        obs::TraceWriter::global().disable();

    std::vector<CheckRecord> checks;
    for (const PlanOp &c : plan.checks)
        checks.push_back(wl->check(c, ops));

    wl->finish();
    LayerCounters &lc = wl->layers;
    const isa::ProgramCacheStats pcs = isa::ProgramCache::global().stats();
    lc.progHits += pcs.hits;
    lc.progMisses += pcs.misses;
    lc.diskRejected += isa::DiskCache::global().stats().rejected;
    lc.diskBytes += dirBytes(isa::DiskCache::global().dir());

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    FILE *f = std::fopen(out_path.c_str(), "w");
    if (!f)
        rtoc_fatal("cannot write %s", out_path.c_str());
    std::fprintf(f,
                 "{\"threads\": %d, \"setup_ns\": %llu, "
                 "\"peak_rss_kb\": %ld,\n",
                 ThreadPool::global().threads(),
                 static_cast<unsigned long long>(setup_end - t0),
                 ru.ru_maxrss);
    std::fprintf(
        f,
        "\"layers\": {\"plant_steps\": %zu, \"plant_step_ns_p50\": %llu, "
        "\"solves\": %llu, \"capped_solves\": %llu, "
        "\"diverged_solves\": %llu, \"quant_sats\": %llu, "
        "\"acc_sats\": %llu, "
        "\"releases\": %llu, \"misses\": %llu, \"drops\": %llu, "
        "\"preemptions\": %llu, \"hold_ticks\": %llu, "
        "\"dse_cells\": %llu, \"dse_replays\": %llu, "
        "\"prog_hits\": %llu, \"prog_misses\": %llu, "
        "\"disk_rejected\": %llu, \"disk_bytes\": %llu},\n",
        lc.plantStepNs.size(),
        static_cast<unsigned long long>(median(lc.plantStepNs)),
        static_cast<unsigned long long>(lc.solves),
        static_cast<unsigned long long>(lc.cappedSolves),
        static_cast<unsigned long long>(lc.divergedSolves),
        static_cast<unsigned long long>(lc.quantSats),
        static_cast<unsigned long long>(lc.accSats),
        static_cast<unsigned long long>(lc.releases),
        static_cast<unsigned long long>(lc.misses),
        static_cast<unsigned long long>(lc.drops),
        static_cast<unsigned long long>(lc.preemptions),
        static_cast<unsigned long long>(lc.holdTicks),
        static_cast<unsigned long long>(lc.dseCells),
        static_cast<unsigned long long>(lc.dseReplays),
        static_cast<unsigned long long>(lc.progHits),
        static_cast<unsigned long long>(lc.progMisses),
        static_cast<unsigned long long>(lc.diskRejected),
        static_cast<unsigned long long>(lc.diskBytes));
    std::fprintf(f, "\"checks\": [");
    for (size_t i = 0; i < checks.size(); ++i) {
        std::fprintf(f, "%s{\"name\": %s, \"ok\": %s, \"detail\": %s}",
                     i ? ", " : "", jsonStr(checks[i].name).c_str(),
                     checks[i].ok ? "true" : "false",
                     jsonStr(checks[i].detail).c_str());
    }
    std::fprintf(f, "],\n\"ops\": [\n");
    for (size_t i = 0; i < ops.size(); ++i) {
        const OpRecord &o = ops[i];
        std::fprintf(f,
                     "%s{\"key\": %s, \"sig\": %s, \"ns\": %llu, "
                     "\"cpu_ns\": %llu, "
                     "\"rep\": %d, \"family\": %s, \"phase\": %s, "
                     "\"uops\": %llu}",
                     i ? ",\n" : "", jsonStr(o.key).c_str(),
                     jsonStr(o.sig).c_str(),
                     static_cast<unsigned long long>(o.ns),
                     static_cast<unsigned long long>(o.cpuNs), o.rep,
                     jsonStr(o.family).c_str(), jsonStr(o.phase).c_str(),
                     static_cast<unsigned long long>(o.uops));
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
    return 0;
}
