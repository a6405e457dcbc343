#include "workloads.hh"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <tuple>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "dse/explorer.hh"
#include "dse_spaces.hh"
#include "hil/episode.hh"
#include "hil/sweep.hh"
#include "hil/timing.hh"
#include "isa/disk_cache.hh"
#include "isa/program_cache.hh"
#include "matlib/fixed.hh"
#include "obs/trace.hh"
#include "plant/registry.hh"
#include "sched/scheduler.hh"
#include "timed_plant.hh"
#include "tinympc/workspace.hh"

namespace rtoc::perfbench {

namespace {

namespace fs = std::filesystem;

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** FNV-1a accumulator for output signatures. */
struct Fnv
{
    uint64_t h = 0xcbf29ce484222325ull;

    void
    add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    }
};

const std::string &
field(const PlanOp &op, size_t i)
{
    if (i >= op.f.size())
        rtoc_fatal("plan: '%s' op lacks field %zu", op.kind.c_str(), i);
    return op.f[i];
}

long
intField(const PlanOp &op, size_t i)
{
    const std::string &s = field(op, i);
    char *end = nullptr;
    long v = std::strtol(s.c_str(), &end, 10);
    if (s.empty() || *end != '\0')
        rtoc_fatal("plan: '%s' field %zu is not an integer: %s",
                   op.kind.c_str(), i, s.c_str());
    return v;
}

matlib::NumericFormat
formatField(const PlanOp &op, size_t i)
{
    const std::string &s = field(op, i);
    for (matlib::NumericFormat f :
         {matlib::NumericFormat::F32, matlib::NumericFormat::BF16,
          matlib::NumericFormat::I32, matlib::NumericFormat::I16}) {
        if (s == matlib::formatName(f))
            return f;
    }
    rtoc_fatal("plan: unknown format %s", s.c_str());
}

const std::string &
modelField(const PlanOp &op, size_t i)
{
    const std::string &m = field(op, i);
    if (m != "scalar" && m != "vector" && m != "gemmini")
        rtoc_fatal("plan: unknown timing model %s", m.c_str());
    return m;
}

const plant::ScenarioSpec &
specById(const std::vector<plant::ScenarioSpec> &specs,
         const std::string &id)
{
    for (const plant::ScenarioSpec &s : specs) {
        if (s.id == id)
            return s;
    }
    rtoc_fatal("plan: unknown scenario spec %s", id.c_str());
}

// --------------------------------------------------------------------
// closed_loop

/**
 * Op "cl <spec id> <model> <format> <scenario index>": one
 * hil::runEpisode of the registry spec's whole scenario (every
 * waypoint plus the settling grace) under the named timing model at
 * the format, fixed trim.
 */
class ClosedLoop : public Workload
{
  public:
    explicit ClosedLoop(bool timedPlant) : timedPlant_(timedPlant) {}

    void
    setup(const Plan &plan) override
    {
        specs_ = plant::ScenarioRegistry::global().specs();
        planOps_ = plan.ops;
        // Calibrate every (plant, model, format) the plan flies, in a
        // canonical order so set-up does not depend on the op order;
        // the timings are memoized in-process, so ops replay nothing.
        std::map<std::string, const PlanOp *> distinct;
        for (const PlanOp &op : plan.ops)
            distinct.emplace(configKey(op), &op);
        for (const auto &kv : distinct)
            config(*kv.second);
        for (const PlanOp &c : plan.checks) {
            if (c.kind != "pool")
                rtoc_fatal("plan: unknown closed-loop check %s",
                           c.kind.c_str());
        }
    }

    OpRecord
    run(const PlanOp &op, int rep) override
    {
        OpRecord r;
        r.rep = rep;
        r.key = "cl";
        for (const std::string &s : op.f)
            r.key += "|" + s;
        const hil::HilConfig &cfg = config(op);
        const plant::ScenarioSpec &spec = specById(specs_, field(op, 0));
        const plant::Scenario sc = scenario(spec, op);

        const uint64_t t0 = nowNs();
        std::unique_ptr<plant::Plant> p = spec.makePlant();
        hil::EpisodeResult res;
        {
            obs::Span span("bench.episode", "bench");
            span.arg("format", static_cast<uint64_t>(cfg.format));
            if (timedPlant_) {
                TimedPlant tp(*p, layers.plantStepNs);
                res = hil::runEpisode(tp, sc, cfg);
            } else {
                res = hil::runEpisode(*p, sc, cfg);
            }
        }
        r.ns = nowNs() - t0;
        r.sig = signature(res);
        account(res, cfg.format);
        return r;
    }

    CheckRecord
    check(const PlanOp &c, const std::vector<OpRecord> &ops) override
    {
        // "pool <n>": the first n timed ops again, fanned over the
        // thread pool, must reproduce the serial signatures.
        const size_t n = std::min<size_t>(
            static_cast<size_t>(intField(c, 0)),
            std::min(ops.size(), planOps_.size()));
        hil::SweepRunner runner;
        std::vector<std::string> sigs = runner.map<std::string>(
            n, [&](size_t i) {
                const PlanOp &op = planOps_[i];
                const plant::ScenarioSpec &spec =
                    specById(specs_, field(op, 0));
                std::unique_ptr<plant::Plant> p = spec.makePlant();
                return signature(
                    hil::runEpisode(*p, scenario(spec, op), config(op)));
            });
        CheckRecord out{"pool_equals_serial", true, ""};
        for (size_t i = 0; i < sigs.size(); ++i) {
            if (sigs[i] != ops[i].sig) {
                out.ok = false;
                out.detail = ops[i].key;
            }
        }
        return out;
    }

  private:
    static plant::Scenario
    scenario(const plant::ScenarioSpec &spec, const PlanOp &op)
    {
        return spec.makeScenario(static_cast<int>(intField(op, 3)));
    }

    /** Solves of @p res that ran to the ADMM iteration bound. */
    static int
    cappedSolves(const hil::EpisodeResult &res)
    {
        const int cap = tinympc::Settings{}.maxIters;
        int n = 0;
        for (double v : res.iterations.samples())
            n += v >= cap ? 1 : 0;
        return n;
    }

    static std::string
    configKey(const PlanOp &op)
    {
        if (op.kind != "cl")
            rtoc_fatal("plan: unexpected op %s", op.kind.c_str());
        return field(op, 0) + "|" + field(op, 1) + "|" + field(op, 2);
    }

    const hil::HilConfig &
    config(const PlanOp &op)
    {
        const std::string key = configKey(op);
        auto it = cfgs_.find(key);
        if (it != cfgs_.end())
            return it->second;
        const plant::ScenarioSpec &spec = specById(specs_, field(op, 0));
        const std::string &model = modelField(op, 1);
        hil::HilConfig cfg;
        cfg.socFreqHz = 100e6;
        cfg.relin = spec.relin;
        cfg.format = formatField(op, 2);
        cfg.timing = hil::namedControllerTiming(
            model, *spec.prototype, cfg.controlPeriodS, cfg.horizon,
            !cfg.relin.fixedTrim(), cfg.format);
        cfg.power = hil::namedPowerParams(model);
        return cfgs_.emplace(key, cfg).first->second;
    }

    static std::string
    signature(const hil::EpisodeResult &res)
    {
        double iters = 0.0;
        for (double v : res.iterations.samples())
            iters += v;
        return csprintf("ok%d cr%d wp%d n%zu it%.0f cap%d dv%d rf%d/%d "
                        "qs%llu as%llu",
                        res.success ? 1 : 0, res.crashed ? 1 : 0,
                        res.waypointsReached, res.iterations.size(),
                        iters, cappedSolves(res), res.divergedSolves,
                        res.modelRefreshes,
                        res.refreshFailures,
                        static_cast<unsigned long long>(res.quantSats),
                        static_cast<unsigned long long>(res.accSats));
    }

    void
    account(const hil::EpisodeResult &res, matlib::NumericFormat fmt)
    {
        if (fmt == matlib::NumericFormat::F32) {
            layers.solves += res.iterations.size();
            layers.cappedSolves += static_cast<uint64_t>(cappedSolves(res));
        }
        layers.divergedSolves += static_cast<uint64_t>(res.divergedSolves);
        layers.quantSats += res.quantSats;
        layers.accSats += res.accSats;
    }

    bool timedPlant_;
    std::vector<plant::ScenarioSpec> specs_;
    std::map<std::string, hil::HilConfig> cfgs_;
    std::vector<PlanOp> planOps_; ///< replayed by the pool check
};

// --------------------------------------------------------------------
// shared_soc

/** One live task of a schedulability set. */
struct TaskDef
{
    const char *plantPrefix; ///< registry plantName prefix
    double rateHz;
    int priority; ///< rate-monotonic
};

const std::map<std::string, std::vector<TaskDef>> &
taskSets()
{
    static const std::map<std::string, std::vector<TaskDef>> sets = {
        {"quad50", {{"quad", 50.0, 2}}},
        {"quad50+rover25", {{"quad", 50.0, 2}, {"rover", 25.0, 1}}},
        {"cart100+quad50+rover25",
         {{"cartpole", 100.0, 3}, {"quad", 50.0, 2}, {"rover", 25.0, 1}}},
    };
    return sets;
}

/**
 * Ops:
 *  - "ss <set> <model> <MHz> <jitter seed>": a one-second
 *    RtScheduler::run of a bench_sched_rt task set with 5% release
 *    jitter;
 *  - "fault <offset ms> <anytime 0|1> <jitter seed>": a two-second run
 *    of the overload pair — relinearizing quadrotor @50 Hz + rover
 *    @25 Hz on a core sized to 65% nominal utilization, hit by a 2.5x
 *    cycle spike for half a second starting 0.5 s + offset into the
 *    run, with the anytime governor on or off.
 * Environment faults are never applied (useEnvFaults = false).
 */
class SharedSoc : public Workload
{
  public:
    void
    setup(const Plan &plan) override
    {
        specs_ = plant::ScenarioRegistry::global().specs();
        planOps_ = plan.ops;
        // Calibrate every (plant, model) the plan schedules, in a
        // canonical order so set-up does not depend on the op order.
        std::map<std::string, std::pair<TaskDef, std::string>> distinct;
        bool faults = false;
        for (const PlanOp &op : plan.ops) {
            if (op.kind == "ss") {
                for (const TaskDef &d : setDefs(op)) {
                    distinct.emplace(std::string(d.plantPrefix) + "|" +
                                         csprintf("%g", d.rateHz) + "|" +
                                         modelField(op, 1),
                                     std::make_pair(d, modelField(op, 1)));
                }
            } else if (op.kind == "fault") {
                faults = true;
            } else {
                rtoc_fatal("plan: unexpected op %s", op.kind.c_str());
            }
        }
        for (const auto &kv : distinct)
            liveTask(kv.second.first, kv.second.second, false);
        if (faults)
            faultFreqHz();
        for (const PlanOp &c : plan.checks) {
            if (c.kind != "pool")
                rtoc_fatal("plan: unknown shared_soc check %s",
                           c.kind.c_str());
        }
    }

    OpRecord
    run(const PlanOp &op, int rep) override
    {
        OpRecord r;
        r.rep = rep;
        r.key = op.kind;
        for (const std::string &s : op.f)
            r.key += "|" + s;
        const uint64_t t0 = nowNs();
        sched::ScheduleRunResult res;
        {
            obs::Span span("bench.sched_run", "bench");
            res = simulate(op);
        }
        r.ns = nowNs() - t0;
        r.sig = signature(res);
        for (const sched::TaskStats &t : res.tasks) {
            layers.releases += t.releases;
            layers.misses += t.misses;
            layers.drops += t.drops;
            layers.preemptions += t.preemptions;
            layers.holdTicks += t.holdTicks;
        }
        return r;
    }

    CheckRecord
    check(const PlanOp &c, const std::vector<OpRecord> &ops) override
    {
        const size_t n = std::min<size_t>(
            static_cast<size_t>(intField(c, 0)),
            std::min(ops.size(), planOps_.size()));
        hil::SweepRunner runner;
        std::vector<std::string> sigs = runner.map<std::string>(
            n, [&](size_t i) { return signature(simulate(planOps_[i])); });
        CheckRecord out{"pool_equals_serial", true, ""};
        for (size_t i = 0; i < n; ++i) {
            if (sigs[i] != ops[i].sig) {
                out.ok = false;
                out.detail = ops[i].key;
            }
        }
        return out;
    }

  private:
    const std::vector<TaskDef> &
    setDefs(const PlanOp &op) const
    {
        auto it = taskSets().find(field(op, 0));
        if (it == taskSets().end())
            rtoc_fatal("plan: unknown task set %s", field(op, 0).c_str());
        return it->second;
    }

    const plant::ScenarioSpec &
    easySpec(const std::string &prefix) const
    {
        for (const plant::ScenarioSpec &s : specs_) {
            if (s.plantName.rfind(prefix, 0) == 0 &&
                s.difficulty == plant::Difficulty::Easy &&
                s.disturbance.cmdNoiseSigma == 0.0)
                return s;
        }
        rtoc_fatal("no registry spec for plant prefix %s", prefix.c_str());
    }

    sched::TaskSpec
    liveTask(const TaskDef &def, const std::string &model, bool relin)
    {
        const plant::ScenarioSpec &spec = easySpec(def.plantPrefix);
        sched::TaskSpec t;
        t.name = spec.plantName;
        t.priority = def.priority;
        t.periodS = 1.0 / def.rateHz;
        t.releaseJitterFrac = 0.05;
        t.plant = spec.prototype;
        t.scenario = spec.makeScenario(0);
        if (relin)
            t.relin.everyK = 5;
        t.timing = hil::namedControllerTiming(
            model, *spec.prototype, t.periodS, t.horizon, relin);
        return t;
    }

    /** Core sized so the fixed-bound pair sits at 65% utilization. */
    double
    faultFreqHz()
    {
        if (faultFreq_ == 0.0) {
            sched::TaskSpec q = liveTask({"quad", 50.0, 2}, "scalar", true);
            sched::TaskSpec v =
                liveTask({"rover", 25.0, 1}, "scalar", false);
            faultFreq_ = (50.0 * q.timing.solveCycles(q.maxIters) +
                          25.0 * v.timing.solveCycles(v.maxIters)) /
                         0.65;
        }
        return faultFreq_;
    }

    sched::ScheduleRunResult
    simulate(const PlanOp &op)
    {
        sched::SchedulerConfig cfg;
        cfg.useEnvFaults = false;
        if (op.kind == "ss") {
            cfg.horizonS = 1.0;
            cfg.freqHz = static_cast<double>(intField(op, 2)) * 1e6;
            cfg.seed = static_cast<uint64_t>(intField(op, 3));
            sched::RtScheduler rs(cfg);
            for (const TaskDef &d : setDefs(op))
                rs.addTask(liveTask(d, modelField(op, 1), false));
            return rs.run();
        }
        cfg.horizonS = 2.0;
        cfg.freqHz = faultFreqHz();
        cfg.seed = static_cast<uint64_t>(intField(op, 2));
        sched::FaultEvent spike;
        spike.kind = sched::FaultKind::CycleSpike;
        spike.t0 = 0.5 + static_cast<double>(intField(op, 0)) / 1000.0;
        spike.lenS = 0.5;
        spike.factor = 2.5;
        cfg.faults.events.push_back(spike);
        const bool anytime = intField(op, 1) != 0;
        sched::RtScheduler rs(cfg);
        sched::TaskSpec quad = liveTask({"quad", 50.0, 2}, "scalar", true);
        sched::TaskSpec rover =
            liveTask({"rover", 25.0, 1}, "scalar", false);
        for (sched::TaskSpec *t : {&quad, &rover}) {
            t->checkTerminationEvery = t->maxIters + 1;
            t->anytime.enabled = anytime;
        }
        rs.addTask(std::move(quad));
        rs.addTask(std::move(rover));
        return rs.run();
    }

    static std::string
    signature(const sched::ScheduleRunResult &res)
    {
        std::string s;
        for (const sched::TaskStats &t : res.tasks) {
            s += csprintf(
                "%sr%llu m%llu d%llu st%llu h%llu sv%llu ri%llu sr%llu "
                "wp%d ok%d cr%d",
                s.empty() ? "" : " ; ",
                static_cast<unsigned long long>(t.releases),
                static_cast<unsigned long long>(t.misses),
                static_cast<unsigned long long>(t.drops),
                static_cast<unsigned long long>(t.missStreakMax),
                static_cast<unsigned long long>(t.holdTicks),
                static_cast<unsigned long long>(t.solves),
                static_cast<unsigned long long>(t.reducedIterTicks),
                static_cast<unsigned long long>(t.skippedRelinTicks),
                t.waypointsReached, t.success ? 1 : 0, t.crashed ? 1 : 0);
        }
        return s;
    }

    std::vector<plant::ScenarioSpec> specs_;
    std::vector<PlanOp> planOps_; ///< replayed by the pool check
    double faultFreq_ = 0.0;
};

// --------------------------------------------------------------------
// control

void
addLayers(LayerCounters &to, const LayerCounters &from)
{
    to.plantStepNs.insert(to.plantStepNs.end(), from.plantStepNs.begin(),
                          from.plantStepNs.end());
    to.solves += from.solves;
    to.cappedSolves += from.cappedSolves;
    to.divergedSolves += from.divergedSolves;
    to.quantSats += from.quantSats;
    to.accSats += from.accSats;
    to.releases += from.releases;
    to.misses += from.misses;
    to.drops += from.drops;
    to.preemptions += from.preemptions;
    to.holdTicks += from.holdTicks;
    to.dseCells += from.dseCells;
    to.dseReplays += from.dseReplays;
    to.progHits += from.progHits;
    to.progMisses += from.progMisses;
    to.diskRejected += from.diskRejected;
    to.diskBytes += from.diskBytes;
}

/**
 * ClosedLoop's "cl" ops and SharedSoc's "ss"/"fault" ops in one plan,
 * each op run by its part. The "pool <n>" check replays the first n
 * ops of each part on the thread pool.
 */
class Control : public Workload
{
  public:
    explicit Control(bool timedPlant) : episodes_(timedPlant) {}

    void
    setup(const Plan &plan) override
    {
        Plan cl, ss;
        for (const PlanOp &op : plan.ops)
            (op.kind == "cl" ? cl : ss).ops.push_back(op);
        cl.checks = ss.checks = plan.checks;
        episodes_.setup(cl);
        sched_.setup(ss);
    }

    OpRecord
    run(const PlanOp &op, int rep) override
    {
        return op.kind == "cl" ? episodes_.run(op, rep) : sched_.run(op, rep);
    }

    CheckRecord
    check(const PlanOp &c, const std::vector<OpRecord> &ops) override
    {
        std::vector<OpRecord> cl, ss;
        for (const OpRecord &o : ops)
            (o.key.rfind("cl|", 0) == 0 ? cl : ss).push_back(o);
        CheckRecord out = episodes_.check(c, cl);
        const CheckRecord s = sched_.check(c, ss);
        if (!s.ok)
            out = s;
        return out;
    }

    void
    finish() override
    {
        addLayers(layers, episodes_.layers);
        addLayers(layers, sched_.layers);
    }

  private:
    ClosedLoop episodes_;
    SharedSoc sched_;
};

// --------------------------------------------------------------------
// design_replay

/** Replay family of a fig10 configuration name. */
std::string
familyOf(const std::string &config)
{
    if (config == "rocket" || config == "shuttle")
        return "cpu.inorder";
    if (config.rfind("boom", 0) == 0)
        return "cpu.ooo";
    if (config.rfind("saturn", 0) == 0)
        return "vector.saturn";
    if (config.rfind("gemmini", 0) == 0)
        return "systolic.gemmini";
    rtoc_fatal("unknown fig10 configuration %s", config.c_str());
}

/**
 * The refined fig10 space re-targeted at one plant shape: models,
 * areas and axes come from bench::refinedFig10Space; every stream is
 * emitted for @p proto's (nx, nu) through @p *cache (a bench-owned
 * ProgramCache, so each pass can start from an empty disk directory).
 */
dse::DesignSpace
shapedSpace(const plant::Plant &proto, isa::ProgramCache *const *cache)
{
    const dse::DesignSpace base = bench::refinedFig10Space(true);
    dse::DesignSpace s("fig10-" + proto.name());

    // Backend + mapping style of each configuration (bench/dse_spaces.hh).
    using BackendFn = std::function<std::unique_ptr<matlib::Backend>()>;
    std::map<std::string, std::pair<BackendFn, tinympc::MappingStyle>> how;
    auto scalar = [] {
        return std::unique_ptr<matlib::Backend>(
            new matlib::ScalarBackend(matlib::ScalarFlavor::Optimized));
    };
    for (const dse::ConfigEntry &e : base.configs()) {
        if (familyOf(e.name).rfind("cpu.", 0) == 0)
            how[e.name] = {scalar, tinympc::MappingStyle::Library};
    }
    for (auto [vlen, dlen, shuttle] :
         {std::tuple{256, 128, false}, std::tuple{512, 128, false},
          std::tuple{256, 128, true}, std::tuple{512, 256, false},
          std::tuple{512, 128, true}, std::tuple{512, 256, true}}) {
        const int vl = vlen;
        how[vector::SaturnConfig::make(vlen, dlen, shuttle).name] = {
            [vl] {
                return std::unique_ptr<matlib::Backend>(
                    new matlib::RvvBackend(
                        vl, matlib::RvvMapping::handOptimized()));
            },
            tinympc::MappingStyle::Fused};
    }
    auto gemmini = [](matlib::GemminiMapping m) {
        return [m] {
            return std::unique_ptr<matlib::Backend>(
                new matlib::GemminiBackend(m));
        };
    };
    how["gemmini-os4x4-spad64k"] = {
        gemmini(matlib::GemminiMapping::fullyOptimized()),
        tinympc::MappingStyle::Library};
    how["gemmini-os4x4-spad32k"] = how["gemmini-os4x4-spad64k"];
    how["gemmini-ws4x4-spad64k"] = {
        gemmini(matlib::GemminiMapping::staticMapped()),
        tinympc::MappingStyle::Library};

    std::shared_ptr<const plant::Plant> shape(proto.clone());
    for (const dse::ConfigEntry &e : base.configs()) {
        auto it = how.find(e.name);
        if (it == how.end())
            rtoc_fatal("no backend for fig10 configuration %s",
                       e.name.c_str());
        dse::ConfigEntry c = e;
        const BackendFn make = it->second.first;
        const tinympc::MappingStyle style = it->second.second;
        c.progKey = [make, style, shape](dse::Fidelity f,
                                         matlib::NumericFormat fmt) {
            std::unique_ptr<matlib::Backend> b = make();
            b->setFormat(fmt);
            return bench::plantSolveKey(*b, style, shape->nx(), shape->nu(),
                                        10, bench::fidelityIters(f));
        };
        c.emit = [make, style, shape, cache](dse::Fidelity f,
                                             matlib::NumericFormat fmt) {
            std::unique_ptr<matlib::Backend> b = make();
            b->setFormat(fmt);
            const int iters = bench::fidelityIters(f);
            return (*cache)->getOrEmit(
                bench::plantSolveKey(*b, style, shape->nx(), shape->nu(),
                                     10, iters),
                [&](isa::Program &p) {
                    p = bench::emitPlantSolve(*shape, *b, style, iters);
                });
        };
        s.addConfig(std::move(c));
    }
    s.setLatScales(base.latScales());
    s.setWidthScales(base.widthScales());
    s.setFreqsHz(base.freqsHz());
    return s;
}

/**
 * Fail unless shapedSpace's stream identities match
 * bench::refinedFig10Space configuration for configuration on the
 * quadrotor shape that space is emitted for, so the copied backend and
 * mapping table above cannot drift from bench/dse_spaces.hh unnoticed.
 */
void
checkAgainstFig10(const dse::DesignSpace &shaped)
{
    const dse::DesignSpace base = bench::refinedFig10Space(true);
    if (shaped.configs().size() != base.configs().size())
        rtoc_fatal("shaped fig10 space has %zu configurations, not %zu",
                   shaped.configs().size(), base.configs().size());
    for (size_t i = 0; i < base.configs().size(); ++i) {
        const dse::ConfigEntry &want = base.configs()[i];
        const dse::ConfigEntry &got = shaped.configs()[i];
        for (dse::Fidelity f : {dse::Fidelity::Low, dse::Fidelity::Full}) {
            const std::string w = want.progKey(f, matlib::NumericFormat::F32);
            const std::string g = got.progKey(f, matlib::NumericFormat::F32);
            if (got.name != want.name || g != w)
                rtoc_fatal("fig10 configuration %s: stream %s, dse_spaces.hh "
                           "has %s",
                           want.name.c_str(), g.c_str(), w.c_str());
        }
    }
}

/**
 * Op "dr <plant> <config index> <cold|warm|hot>": one Explorer::submit
 * of the configuration's whole refined grid on the plant's shape, memo
 * and cycle cache off. Each repetition of the plan is one pass over a
 * fresh disk-cache directory under the private cache directory: the
 * cold phase emits, encodes, writes and replays; the warm phase drops
 * the in-process program cache and reads, decodes and replays. The hot
 * phase replays streams set-up made resident in memory, so its ops
 * time the replay families alone, over the same configurations for
 * every seed.
 */
class DesignReplay : public Workload
{
  public:
    explicit DesignReplay(std::string cacheDir)
        : cacheDir_(std::move(cacheDir))
    {}

    ~DesignReplay() override { dropPass(); }

    void
    setup(const Plan &plan) override
    {
        if (cacheDir_.empty())
            rtoc_fatal("design_replay needs a private cache directory");
        auto &reg = plant::ScenarioRegistry::global();
        for (const std::string &name : reg.plantNames()) {
            std::unique_ptr<plant::Plant> p = reg.makePlant(name);
            dse::DesignSpace s = shapedSpace(*p, &cache_);
            if (p->nx() == 12 && p->nu() == 4)
                checkAgainstFig10(s);
            spaces_.emplace(name, std::move(s));
        }
        // Make every hot op's stream resident; a submit of each also
        // warms the replay engines before the timed section.
        cache_ = &hot_;
        for (const PlanOp &op : plan.ops) {
            if (phaseOf(op) == "hot")
                submit(op);
        }
        cache_ = nullptr;
    }

    OpRecord
    run(const PlanOp &op, int rep) override
    {
        const std::string &phase = phaseOf(op);
        if (rep != rep_) {
            dropPass();
            rep_ = rep;
            passDir_ = cacheDir_ + csprintf("/perfbench-pass-%d", rep);
            disk_ = std::make_unique<isa::DiskCache>(passDir_);
            phase_.clear();
        }
        if (phase != phase_) {
            // Fresh in-process caches at each cold or warm phase start.
            foldCacheStats();
            if (phase == "hot") {
                cache_ = &hot_;
            } else {
                ownCache_ = std::make_unique<isa::ProgramCache>(disk_.get());
                cache_ = ownCache_.get();
            }
            phase_ = phase;
        }

        OpRecord r;
        r.rep = rep;
        r.key = "dr|" + field(op, 0) + "|" + field(op, 1);
        r.phase = phase;
        const uint64_t t0 = nowNs();
        Submitted sub;
        {
            obs::Span span("bench.submit", "bench");
            sub = submit(op);
        }
        r.ns = nowNs() - t0;
        r.family = sub.family;
        r.uops = sub.uops;
        Fnv h;
        uint64_t cyc = 0;
        for (const dse::EvalOutcome &o : sub.out) {
            h.add(o.cycles);
            h.add(o.uops);
            cyc += o.cycles;
        }
        r.sig = csprintf("n%zu cyc%llu h%016llx", sub.out.size(),
                         static_cast<unsigned long long>(cyc),
                         static_cast<unsigned long long>(h.h));
        last_[r.key] = std::move(sub.out);
        return r;
    }

    CheckRecord
    check(const PlanOp &c, const std::vector<OpRecord> &ops) override
    {
        (void)ops;
        if (c.kind == "frontier")
            return frontier(c);
        // Checks re-emit nothing: every stream is resident in hot_.
        cache_ = &hot_;
        PlanOp op{"dr", {field(c, 0), field(c, 1), "hot"}};
        const std::string key = "dr|" + field(c, 0) + "|" + field(c, 1);
        auto it = last_.find(key);
        if (it == last_.end())
            return {c.kind + "|" + key, false, "config never submitted"};
        const std::vector<dse::EvalOutcome> &got = it->second;
        const dse::DesignSpace &space = spaceOf(op);

        if (c.kind == "sample") {
            // "sample <plant> <config> <point>": a direct replay of one
            // cell through TimingModel::runStream.
            const size_t i = static_cast<size_t>(intField(c, 2));
            std::vector<dse::PointSpec> pts = points(op);
            if (i >= pts.size())
                rtoc_fatal("plan: sample point %zu out of range", i);
            dse::Candidate cand =
                space.materialize(pts[i], dse::Fidelity::Full);
            const uint64_t cycles =
                cand.model->runStream(cand.prog->stream()).cycles +
                cand.extraCycles;
            return {"runstream|" + key + csprintf("|%zu", i),
                    cycles == got[i].cycles,
                    csprintf("%llu vs %llu",
                             static_cast<unsigned long long>(cycles),
                             static_cast<unsigned long long>(
                                 got[i].cycles))};
        }
        if (c.kind == "serial") {
            // "serial <plant> <config>": a one-thread pool must equal
            // the shared pool's outcomes.
            ThreadPool one(1);
            std::vector<dse::EvalOutcome> ser = submit(op, &one).out;
            bool same = ser.size() == got.size();
            for (size_t i = 0; same && i < ser.size(); ++i)
                same = ser[i].cycles == got[i].cycles &&
                       ser[i].uops == got[i].uops;
            return {"pool_equals_serial|" + key, same, ""};
        }
        rtoc_fatal("plan: unknown design_replay check %s", c.kind.c_str());
    }

    void
    finish() override
    {
        dropPass();
        const isa::ProgramCacheStats s = hot_.stats();
        layers.progHits += progHits_ + s.hits;
        layers.progMisses += progMisses_ + s.misses;
        layers.diskRejected += diskRejected_;
        layers.diskBytes += diskBytes_;
    }

  private:
    struct Submitted
    {
        std::vector<dse::EvalOutcome> out;
        std::string family;
        uint64_t uops = 0; ///< EvalStats::uopsReplayed
    };

    /** Submit @p op's grid through cache_ (on @p pool, or the shared
     *  pool when null). */
    Submitted
    submit(const PlanOp &op, ThreadPool *pool = nullptr)
    {
        const dse::DesignSpace &space = spaceOf(op);
        std::vector<dse::PointSpec> pts = points(op);
        dse::Explorer::Options eo;
        eo.useMemo = false;
        eo.useDisk = false;
        eo.pool = pool;
        dse::Explorer ex(space, eo);
        Submitted sub;
        sub.out = ex.submit(pts);
        sub.family = familyOf(space.configs()[pts[0].config].name);
        sub.uops = ex.stats().uopsReplayed;
        layers.dseCells += ex.stats().cellsRequested;
        layers.dseReplays += ex.stats().replays;
        return sub;
    }

    static const std::string &
    phaseOf(const PlanOp &op)
    {
        const std::string &phase = field(op, 2);
        if (phase != "cold" && phase != "warm" && phase != "hot")
            rtoc_fatal("plan: unknown phase %s", phase.c_str());
        return phase;
    }

    const dse::DesignSpace &
    spaceOf(const PlanOp &op) const
    {
        auto it = spaces_.find(field(op, 0));
        if (it == spaces_.end())
            rtoc_fatal("plan: unknown plant %s", field(op, 0).c_str());
        return it->second;
    }

    std::vector<dse::PointSpec>
    points(const PlanOp &op) const
    {
        if (op.kind != "dr")
            rtoc_fatal("plan: unexpected op %s", op.kind.c_str());
        const dse::DesignSpace &space = spaceOf(op);
        const long c = intField(op, 1);
        if (c < 0 || c >= static_cast<long>(space.configs().size()))
            rtoc_fatal("plan: config index %ld out of range", c);
        std::vector<dse::PointSpec> pts;
        for (int l = 0; l < static_cast<int>(space.latScales().size()); ++l) {
            for (int w = 0; w < static_cast<int>(space.widthScales().size());
                 ++w)
                pts.push_back({static_cast<int>(c), l, w, 0, 0});
        }
        return pts;
    }

    /** "frontier <plant>": Pareto frontier of every submitted config
     *  of the plant (config order), as a pinned signature. */
    CheckRecord
    frontier(const PlanOp &c)
    {
        const std::string plant = field(c, 0);
        const dse::DesignSpace &space = spaceOf({"dr", {plant, "0", "hot"}});
        std::vector<dse::EvalOutcome> all;
        for (size_t k = 0; k < space.configs().size(); ++k) {
            auto it = last_.find(csprintf("dr|%s|%zu", plant.c_str(), k));
            if (it != last_.end())
                all.insert(all.end(), it->second.begin(), it->second.end());
        }
        Fnv h;
        std::vector<dse::EvalOutcome> f = dse::paretoFrontier(all);
        for (const dse::EvalOutcome &o : f) {
            h.add(static_cast<uint64_t>(o.point.config));
            h.add(static_cast<uint64_t>(o.point.lat));
            h.add(static_cast<uint64_t>(o.point.width));
            h.add(o.cycles);
        }
        // The check's detail is its signature; run.py pins it.
        return {"frontier|" + plant, !f.empty(),
                csprintf("n%zu of %zu h%016llx", f.size(), all.size(),
                         static_cast<unsigned long long>(h.h))};
    }

    /** Add the current pass-phase program cache's counters, then
     *  retire it. */
    void
    foldCacheStats()
    {
        if (ownCache_) {
            isa::ProgramCacheStats s = ownCache_->stats();
            progHits_ += s.hits;
            progMisses_ += s.misses;
        }
        cache_ = nullptr;
        ownCache_.reset();
    }

    void
    dropPass()
    {
        foldCacheStats();
        if (disk_) {
            diskRejected_ += disk_->stats().rejected;
            diskBytes_ += dirBytes(passDir_);
        }
        disk_.reset();
        if (!passDir_.empty()) {
            std::error_code ec;
            fs::remove_all(passDir_, ec);
            passDir_.clear();
        }
    }

    std::string cacheDir_;
    std::map<std::string, dse::DesignSpace> spaces_;
    isa::ProgramCache *cache_ = nullptr; ///< read by the emit closures
    isa::ProgramCache hot_;              ///< memory only, filled in setup
    std::unique_ptr<isa::ProgramCache> ownCache_;
    std::unique_ptr<isa::DiskCache> disk_;
    std::string passDir_;
    std::string phase_;
    int rep_ = -1;
    std::map<std::string, std::vector<dse::EvalOutcome>> last_;
    uint64_t progHits_ = 0, progMisses_ = 0, diskRejected_ = 0,
             diskBytes_ = 0;
};

} // namespace

uint64_t
dirBytes(const std::string &dir)
{
    uint64_t n = 0;
    std::error_code ec;
    if (dir.empty() || !fs::exists(dir, ec))
        return 0;
    for (const auto &e : fs::recursive_directory_iterator(dir, ec)) {
        if (e.is_regular_file(ec))
            n += e.file_size(ec);
    }
    return n;
}

Plan
readPlan(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        rtoc_fatal("cannot read plan %s", path.c_str());
    Plan plan;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ss(line);
        PlanOp op;
        if (!(ss >> op.kind))
            continue;
        for (std::string w; ss >> w;)
            op.f.push_back(w);
        if (op.kind == "check") {
            if (op.f.empty())
                rtoc_fatal("plan: empty check line");
            PlanOp c{op.f[0], {op.f.begin() + 1, op.f.end()}};
            plan.checks.push_back(std::move(c));
        } else {
            plan.ops.push_back(std::move(op));
        }
    }
    if (plan.ops.empty())
        rtoc_fatal("plan %s has no ops", path.c_str());
    return plan;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, bool traced, const std::string &cacheDir)
{
    if (name == "control")
        return std::make_unique<Control>(traced);
    if (name == "design_replay")
        return std::make_unique<DesignReplay>(cacheDir);
    return nullptr;
}

} // namespace rtoc::perfbench
