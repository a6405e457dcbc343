#include "ooo.hh"

#include <algorithm>
#include <vector>

#include "common/logging.hh"

namespace rtoc::cpu {

namespace {

/** Interned "uops" stat id (one-time; per-run sets index by id). */
StatId
oooUopsId()
{
    static const StatId id = internStat("uops");
    return id;
}

} // namespace

OooConfig
OooConfig::boomSmall()
{
    OooConfig c;
    c.name = "boom-small";
    c.frontWidth = 1;
    c.robSize = 64;
    c.intIssue = 1;
    c.memIssue = 1;
    c.fpIssue = 1;
    return c;
}

OooConfig
OooConfig::boomMedium()
{
    OooConfig c;
    c.name = "boom-medium";
    c.frontWidth = 2;
    c.robSize = 96;
    c.intIssue = 2;
    c.memIssue = 1;
    c.fpIssue = 1;
    return c;
}

OooConfig
OooConfig::boomLarge()
{
    OooConfig c;
    c.name = "boom-large";
    c.frontWidth = 3;
    c.robSize = 128;
    c.intIssue = 3;
    c.memIssue = 2;
    c.fpIssue = 1;
    return c;
}

OooConfig
OooConfig::boomMega()
{
    OooConfig c;
    c.name = "boom-mega";
    c.frontWidth = 4;
    c.robSize = 192;
    c.intIssue = 4;
    c.memIssue = 2;
    c.fpIssue = 2;
    return c;
}

namespace {

enum class PipeClass { Int, Mem, Fp };

PipeClass
classOf(isa::UopKind k)
{
    using isa::UopKind;
    switch (k) {
      case UopKind::Load:
      case UopKind::Store:
        return PipeClass::Mem;
      case UopKind::FpAdd:
      case UopKind::FpMul:
      case UopKind::FpFma:
      case UopKind::FpDiv:
      case UopKind::FpMinMax:
      case UopKind::FpAbs:
      case UopKind::FpCmp:
      case UopKind::FpMove:
        return PipeClass::Fp;
      default:
        return PipeClass::Int;
    }
}

/** Per-cycle issue-slot occupancy for one pipeline class. */
class SlotMap
{
  public:
    /** Rearm for a new run of @p width; keeps buffer capacity. */
    void
    reset(int width)
    {
        width_ = width;
        std::fill(used_.begin(), used_.end(), 0);
    }

    /** Earliest cycle >= t with a free slot; claims it. */
    uint64_t
    claimFrom(uint64_t t)
    {
        while (true) {
            if (t >= used_.size())
                used_.resize(t * 2 + 64, 0);
            if (used_[t] < width_) {
                ++used_[t];
                return t;
            }
            ++t;
        }
    }

  private:
    int width_ = 1;
    std::vector<uint8_t> used_;
};

/** Reusable AoS-oracle simulation state for one thread. */
struct OooScratch
{
    std::vector<uint64_t> finish;
    RegReadyFile regs;            ///< register ready times
    std::vector<uint64_t> commit; ///< in-order commit ring
    SlotMap intSlots, memSlots, fpSlots;
};

} // namespace

namespace {

/** One greedy-dataflow scoreboard of the OoO columnar engine. */
struct OooBatchLane
{
    uint64_t lat[isa::kNumLatClasses] = {};
    SlotMap *pipe[isa::kNumLatClasses] = {};
    std::vector<uint64_t> regs; ///< ready cycle per scalar register
    std::vector<uint64_t> commit;
    SlotMap intSlots, memSlots, fpSlots;
    RegionAttributor attr;
    uint64_t lastCommit = 0;
    uint64_t frontWidth = 1;
    size_t robSize = 1;

    OooBatchLane(const isa::Program &prog, const OooConfig &cfg)
        : regs(prog.scalarRegCount(), 0), attr(prog),
          frontWidth(static_cast<uint64_t>(cfg.frontWidth)),
          robSize(static_cast<size_t>(cfg.robSize))
    {
        using isa::LatClass;
        commit.assign(robSize, 0);
        intSlots.reset(cfg.intIssue);
        memSlots.reset(cfg.memIssue);
        fpSlots.reset(cfg.fpIssue);

        lat[static_cast<size_t>(LatClass::IntAlu)] = 1;
        lat[static_cast<size_t>(LatClass::IntMul)] =
            static_cast<uint64_t>(cfg.intMulLatency);
        lat[static_cast<size_t>(LatClass::Fp)] =
            static_cast<uint64_t>(cfg.fpLatency);
        lat[static_cast<size_t>(LatClass::FpDiv)] =
            static_cast<uint64_t>(cfg.fpDivLatency);
        lat[static_cast<size_t>(LatClass::FpCmp)] = 2;
        lat[static_cast<size_t>(LatClass::FpMove)] = 2;
        lat[static_cast<size_t>(LatClass::Load)] =
            static_cast<uint64_t>(cfg.loadLatency);
        lat[static_cast<size_t>(LatClass::Store)] = 1;
        lat[static_cast<size_t>(LatClass::Branch)] = 1;
        lat[static_cast<size_t>(LatClass::FpNarrow)] =
            static_cast<uint64_t>(cfg.resolvedFpNarrowLatency());

        pipe[static_cast<size_t>(LatClass::IntAlu)] = &intSlots;
        pipe[static_cast<size_t>(LatClass::IntMul)] = &intSlots;
        pipe[static_cast<size_t>(LatClass::Fp)] = &fpSlots;
        pipe[static_cast<size_t>(LatClass::FpDiv)] = &fpSlots;
        pipe[static_cast<size_t>(LatClass::FpCmp)] = &fpSlots;
        pipe[static_cast<size_t>(LatClass::FpMove)] = &fpSlots;
        pipe[static_cast<size_t>(LatClass::Load)] = &memSlots;
        pipe[static_cast<size_t>(LatClass::Store)] = &memSlots;
        pipe[static_cast<size_t>(LatClass::Branch)] = &intSlots;
        pipe[static_cast<size_t>(LatClass::FpNarrow)] = &fpSlots;
    }

    // The SlotMap pointers alias this object's members: rebuild them
    // on copy/move so lanes stay safely relocatable in a vector.
    OooBatchLane(const OooBatchLane &o)
        : lat(), regs(o.regs), commit(o.commit), intSlots(o.intSlots),
          memSlots(o.memSlots), fpSlots(o.fpSlots), attr(o.attr),
          lastCommit(o.lastCommit), frontWidth(o.frontWidth),
          robSize(o.robSize)
    {
        for (size_t c = 0; c < isa::kNumLatClasses; ++c) {
            lat[c] = o.lat[c];
            pipe[c] = o.pipe[c] == &o.intSlots   ? &intSlots
                      : o.pipe[c] == &o.memSlots ? &memSlots
                      : o.pipe[c] == &o.fpSlots  ? &fpSlots
                                                 : nullptr;
        }
    }
    OooBatchLane &operator=(const OooBatchLane &) = delete;
};

} // namespace

std::vector<TimingResult>
OooCore::runStreamBatch(
    const isa::UopStreamView &v,
    const std::vector<const TimingModel *> &models) const
{
    if (!v.program) {
        rtoc_panic("OoO core '%s': view has no owning program",
                   cfg_.name.c_str());
    }

    std::vector<OooBatchLane> lanes;
    lanes.reserve(models.size());
    for (const OooCore *core : familyGroup<OooCore>(models, "OoO"))
        lanes.emplace_back(*v.program, core->config());
    const uint32_t nsreg = v.program->scalarRegCount();

    // Blocked lane-major walk: the block's columns are loaded once
    // and every lane's scoreboard advances over them.
    const uint8_t *const cls_col = v.cls;
    const uint32_t *const dst_col = v.dst;
    const uint32_t *const src0_col = v.src0;
    const uint32_t *const src1_col = v.src1;
    const uint32_t *const src2_col = v.src2;

    constexpr size_t kBlock = 2048;
    for (size_t b0 = 0; b0 < v.n; b0 += kBlock) {
        const size_t b1 = std::min(v.n, b0 + kBlock);
        for (OooBatchLane &ln : lanes) {
            // Register-resident locals; the lane struct only carries
            // state between blocks.
            const uint64_t *const lat = ln.lat;
            SlotMap *const *const pipe = ln.pipe;
            uint64_t *const regs = ln.regs.data();
            RegionAttributor &attr = ln.attr;
            uint64_t *const commit = ln.commit.data();
            const uint64_t front_width = ln.frontWidth;
            const size_t rob_size = ln.robSize;
            uint64_t last_commit = ln.lastCommit;
            // kNoReg and never-written ids read 0 (RegReadyFile
            // semantics of the AoS oracle).
            auto ready_of = [&](uint32_t reg) -> uint64_t {
                const uint32_t idx = reg & 0x7fffffffu;
                return reg == isa::kNoReg || idx >= nsreg ? 0 : regs[idx];
            };

            for (size_t i = b0; i < b1; ++i) {
                const uint8_t cls = cls_col[i];
                if (!(cls & isa::kClsScalar)) {
                    rtoc_panic("OoO core given coprocessor uop %s "
                               "(BOOM cores are evaluated scalar-only)",
                               isa::uopName(v.kind[i]));
                }

                uint64_t fetch = static_cast<uint64_t>(i) / front_width;
                uint64_t rob_free = commit[i % rob_size];
                uint64_t operands =
                    std::max({ready_of(src0_col[i]),
                              ready_of(src1_col[i]),
                              ready_of(src2_col[i])});
                uint64_t t = std::max({fetch, rob_free, operands});

                uint64_t issue =
                    pipe[cls & isa::kClsLatMask]->claimFrom(t);
                uint64_t done = issue + lat[cls & isa::kClsLatMask];
                attr.step(i, done);
                const uint32_t dst = dst_col[i];
                if (dst != isa::kNoReg) {
                    const uint32_t idx = dst & 0x7fffffffu;
                    if (idx >= nsreg) {
                        rtoc_panic("uop writes scalar register %u; the "
                                   "program declares %u", idx, nsreg);
                    }
                    regs[idx] = done;
                }

                last_commit = std::max(last_commit, done);
                commit[i % rob_size] = last_commit;
            }

            ln.lastCommit = last_commit;
        }
    }

    std::vector<TimingResult> out(lanes.size());
    for (size_t L = 0; L < lanes.size(); ++L) {
        out[L].regionCycles = lanes[L].attr.finish(v.n);
        out[L].cycles = lanes[L].attr.maxCompletion();
        out[L].stats.set(oooUopsId(), v.n);
    }
    return out;
}

std::string
OooCore::cacheKey() const
{
    std::string key =
        csprintf("ooo:%s:fw%d:rob%d:ii%d:mi%d:fi%d:ld%d:fp%d:"
                 "div%d:imul%d",
                 cfg_.name.c_str(), cfg_.frontWidth, cfg_.robSize,
                 cfg_.intIssue, cfg_.memIssue, cfg_.fpIssue,
                 cfg_.loadLatency, cfg_.fpLatency,
                 cfg_.fpDivLatency, cfg_.intMulLatency);
    // Only an explicit override is encoded: the derived default keeps
    // every historical key (and cached cell) byte-identical.
    if (cfg_.fpNarrowLatency > 0)
        key += csprintf(":fpn%d", cfg_.fpNarrowLatency);
    return key;
}

TimingResult
OooCore::runAos(const isa::Program &prog) const
{
    using isa::Uop;
    using isa::UopKind;

    const auto &uops = prog.uops();
    TimingResult result;

    static thread_local OooScratch scratch;
    scratch.finish.assign(uops.size(), 0);
    scratch.regs.reset();
    scratch.commit.assign(static_cast<size_t>(cfg_.robSize), 0);
    scratch.intSlots.reset(cfg_.intIssue);
    scratch.memSlots.reset(cfg_.memIssue);
    scratch.fpSlots.reset(cfg_.fpIssue);

    std::vector<uint64_t> &finish = scratch.finish;
    RegReadyFile &regs = scratch.regs;

    auto latency_of = [&](const Uop &u) -> uint64_t {
        const UopKind k = u.kind;
        switch (k) {
          case UopKind::IntAlu: return 1;
          case UopKind::IntMul:
            return static_cast<uint64_t>(cfg_.intMulLatency);
          case UopKind::FpAdd:
          case UopKind::FpMul:
          case UopKind::FpFma:
          case UopKind::FpMinMax:
          case UopKind::FpAbs:
            return static_cast<uint64_t>(
                u.sew < 32 ? cfg_.resolvedFpNarrowLatency()
                           : cfg_.fpLatency);
          case UopKind::FpDiv:
            return static_cast<uint64_t>(cfg_.fpDivLatency);
          case UopKind::FpCmp:
          case UopKind::FpMove: return 2;
          case UopKind::Load:
            return static_cast<uint64_t>(cfg_.loadLatency);
          case UopKind::Store: return 1;
          case UopKind::Branch: return 1;
          default:
            rtoc_panic("OoO core '%s': non-scalar uop %s",
                       cfg_.name.c_str(), isa::uopName(k));
        }
    };

    SlotMap &int_slots = scratch.intSlots;
    SlotMap &mem_slots = scratch.memSlots;
    SlotMap &fp_slots = scratch.fpSlots;

    // In-order commit ring for the ROB-occupancy constraint.
    std::vector<uint64_t> &commit = scratch.commit;
    uint64_t last_commit = 0;

    for (size_t i = 0; i < uops.size(); ++i) {
        const Uop &u = uops[i];
        if (!isa::isScalar(u.kind)) {
            rtoc_panic("OoO core '%s' given coprocessor uop %s "
                       "(BOOM cores are evaluated scalar-only)",
                       cfg_.name.c_str(), isa::uopName(u.kind));
        }

        uint64_t fetch =
            static_cast<uint64_t>(i) /
            static_cast<uint64_t>(cfg_.frontWidth);
        uint64_t rob_free = commit[i % cfg_.robSize];
        uint64_t operands = std::max(
            {regs.readyTime(u.src0), regs.readyTime(u.src1),
             regs.readyTime(u.src2)});
        uint64_t t = std::max({fetch, rob_free, operands});

        SlotMap &slots = classOf(u.kind) == PipeClass::Int ? int_slots
                         : classOf(u.kind) == PipeClass::Mem
                             ? mem_slots
                             : fp_slots;
        uint64_t issue = slots.claimFrom(t);
        uint64_t done = issue + latency_of(u);
        finish[i] = done;
        regs.setReady(u.dst, done);

        last_commit = std::max(last_commit, done);
        commit[i % cfg_.robSize] = last_commit;
    }

    uint64_t total = 0;
    for (uint64_t f : finish)
        total = std::max(total, f);

    result.cycles = total;
    result.regionCycles = attributeRegions(prog, finish);
    result.stats.set(oooUopsId(), uops.size());
    return result;
}

} // namespace rtoc::cpu
