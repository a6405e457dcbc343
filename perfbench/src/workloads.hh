/**
 * @file
 * The benchmark's workloads, each driven only through public
 * rtoc calls (hil::runEpisode, hil::namedControllerTiming,
 * sched::RtScheduler::run, dse::Explorer::submit,
 * isa::ProgramCache::getOrEmit over an isa::DiskCache).
 *
 * A run receives a Plan — generated inputs, never the seed — made of
 * ops, repeated in order for the timed section, plus untimed post-run
 * checks. Each op yields an
 * OpRecord: a key naming its inputs, a signature of its deterministic
 * outputs (compared against the pinned expected table by run.py) and
 * its host time.
 */

#ifndef RTOC_PERFBENCH_WORKLOADS_HH
#define RTOC_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace rtoc::perfbench {

/** One plan line: a kind tag plus its whitespace-separated fields. */
struct PlanOp
{
    std::string kind;
    std::vector<std::string> f;
};

/** Generated inputs of one run. */
struct Plan
{
    std::vector<PlanOp> ops;    ///< timed, repeated in order
    std::vector<PlanOp> checks; ///< after the timed section
};

/**
 * Parse a plan file: "check <kind> ..." adds a post-run check, any
 * other non-empty line is an op. Fatal on a malformed file.
 */
Plan readPlan(const std::string &path);

/** Outcome of one timed op. */
struct OpRecord
{
    std::string key; ///< identity of the op's inputs
    std::string sig; ///< its deterministic outputs
    uint64_t ns = 0;    ///< host wall time of the op
    uint64_t cpuNs = 0; ///< process CPU time (all threads) of the op
    int rep = 0;     ///< repetition of the plan the op ran in
    // design_replay attribution (empty / zero elsewhere)
    std::string family; ///< replay family of the submitted config
    std::string phase;  ///< "cold", "warm" or "hot"
    uint64_t uops = 0;  ///< EvalStats::uopsReplayed delta
};

/** Outcome of one post-run invariant check. */
struct CheckRecord
{
    std::string name;
    bool ok = false;
    std::string detail;
};

/** Bench-side per-layer counters of one run. */
struct LayerCounters
{
    std::vector<uint32_t> plantStepNs; ///< traced runs only
    uint64_t solves = 0;       ///< f32 closed-loop solves
    uint64_t cappedSolves = 0; ///< ... that ran to the iteration cap
    uint64_t divergedSolves = 0;
    uint64_t quantSats = 0;
    uint64_t accSats = 0;
    uint64_t releases = 0;
    uint64_t misses = 0;
    uint64_t drops = 0;
    uint64_t preemptions = 0;
    uint64_t holdTicks = 0;
    uint64_t dseCells = 0;
    uint64_t dseReplays = 0;
    uint64_t progHits = 0;
    uint64_t progMisses = 0;
    uint64_t diskRejected = 0;
    uint64_t diskBytes = 0;
};

/** One workload (see file comment). */
class Workload
{
  public:
    Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;
    virtual ~Workload() = default;

    /** Everything before the first timed op. */
    virtual void setup(const Plan &plan) = 0;

    /** Run one timed op in repetition @p rep of the plan. */
    virtual OpRecord run(const PlanOp &op, int rep) = 0;

    /** Post-run invariant check @p c over the timed @p ops. */
    virtual CheckRecord check(const PlanOp &c,
                              const std::vector<OpRecord> &ops) = 0;

    /** Fold workload-owned cache counters into layers after the run. */
    virtual void finish() {}

    LayerCounters layers;
};

/** Total bytes of the regular files under @p dir (0 when absent). */
uint64_t dirBytes(const std::string &dir);

/**
 * Workload by name; nullptr when unknown. @p traced flies closed-loop
 * episodes through TimedPlant. @p cacheDir is the private disk-cache
 * directory design_replay keeps its passes under.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name, bool traced,
                                       const std::string &cacheDir);

} // namespace rtoc::perfbench

#endif // RTOC_PERFBENCH_WORKLOADS_HH
