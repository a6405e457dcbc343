#include "gemmini.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/ring_fifo.hh"

namespace rtoc::systolic {

namespace {

/** Interned stat ids (one-time; per-run sets index by id). */
struct GemminiIds
{
    StatId cmds = internStat("rocc_cmds");
    StatId fences = internStat("rocc_fences");
    StatId fence_stall = internStat("fence_stall_cycles");
    StatId stall_rob = internStat("stall_rob_full");
};

const GemminiIds &
gemminiIds()
{
    static const GemminiIds ids;
    return ids;
}

} // namespace

GemminiConfig
GemminiConfig::os4x4(int spad_kb)
{
    GemminiConfig c;
    c.meshDim = 4;
    c.dataflow = Dataflow::OutputStationary;
    c.spadKb = spad_kb;
    c.accKb = 0;
    c.name = "gemmini-os4x4-spad" + std::to_string(spad_kb) + "k";
    return c;
}

GemminiConfig
GemminiConfig::ws4x4(int spad_kb)
{
    GemminiConfig c;
    c.meshDim = 4;
    c.dataflow = Dataflow::WeightStationary;
    c.spadKb = spad_kb;
    c.accKb = 1;
    c.name = "gemmini-ws4x4-spad" + std::to_string(spad_kb) + "k";
    return c;
}

GemminiConfig
GemminiConfig::os4x4HwGemv(int spad_kb)
{
    GemminiConfig c = os4x4(spad_kb);
    c.hardwareGemv = true;
    c.name = "gemmini-os4x4hwgemv-spad" + std::to_string(spad_kb) + "k";
    return c;
}

namespace {

/** AoS-oracle accelerator state threaded through the frontend loop. */
struct AccelState
{
    uint64_t lastCompletion = 0;   ///< in-order execution tail
    RingFifo inFlight;             ///< per-command completion times
    bool mvoutSinceFence = false;  ///< store pending -> fence penalty
    uint64_t cmds = 0;
    uint64_t fences = 0;
    uint64_t fenceStall = 0;
    uint64_t stallQueueFull = 0;

    /** Rearm for a new run; the ring keeps its capacity. */
    void
    reset()
    {
        lastCompletion = 0;
        inFlight.clear();
        mvoutSinceFence = false;
        cmds = 0;
        fences = 0;
        fenceStall = 0;
        stallQueueFull = 0;
    }
};

/**
 * Gemmini columnar engine over the in-order frontend engine, with a
 * lane count fixed at compile time (kLanes > 0) or at run time (0).
 */
template <size_t kLanes>
std::vector<cpu::TimingResult>
replayGemmini(const isa::UopStreamView &view,
              const std::vector<const GemminiModel *> &group)
{
    using isa::UopKind;

    std::vector<cpu::InOrderConfig> frontends;
    for (const GemminiModel *m : group)
        frontends.push_back(m->config().frontend);

    // Lane-major SoA accelerator state (see the Saturn engine for the
    // pattern): flat per-lane arrays replace the oracle's AccelState,
    // so the coprocessor callback runs contiguous lane loops with the
    // command kind, operand fields, and the RoccFence branch hoisted
    // out.
    using U64Lanes = cpu::LaneArray<uint64_t, kLanes>;
    const size_t L = kLanes ? kLanes : group.size();
    U64Lanes last_comp(L), fence_stall(L), stall_rob(L);
    U64Lanes rob_depth(L), issue_lat(L), config_lat(L), dma_fixed(L),
        mesh_dim(L), bus(L), fence_base(L), fence_mem(L);
    cpu::LaneArray<int, kLanes> bus_shift(L);
    cpu::LaneArray<uint8_t, kLanes> bus_pow2(L), hw_gemv(L),
        mvout_pending(L);
    uint64_t max_rob = 0;
    for (size_t l = 0; l < L; ++l) {
        const GemminiConfig &c = group[l]->config();
        rob_depth[l] = static_cast<uint64_t>(c.robDepth);
        issue_lat[l] = static_cast<uint64_t>(c.issueLat);
        config_lat[l] = static_cast<uint64_t>(c.configLat);
        dma_fixed[l] = static_cast<uint64_t>(c.dmaFixed);
        mesh_dim[l] = static_cast<uint64_t>(c.meshDim);
        bus[l] = static_cast<uint64_t>(c.busBytes);
        fence_base[l] = static_cast<uint64_t>(c.fenceBase);
        fence_mem[l] = static_cast<uint64_t>(c.fenceMemPenalty);
        bus_pow2[l] = bus[l] != 0 && (bus[l] & (bus[l] - 1)) == 0;
        bus_shift[l] = bus_pow2[l] ? __builtin_ctzll(bus[l]) : 0;
        hw_gemv[l] = c.hardwareGemv ? 1 : 0;
        max_rob = std::max(max_rob, rob_depth[l]);
    }

    // Lane-major command queue: occupancy never exceeds robDepth (the
    // drain pops before a full queue pushes, fences clear it), so a
    // flat ring of max_rob+1 slots per lane suffices.
    const size_t qcap = static_cast<size_t>(max_rob) + 1;
    std::vector<uint64_t> qbuf(L * qcap, 0);
    cpu::LaneArray<uint32_t, kLanes> qhead(L), qcount(L);
    auto q_front = [&](size_t l) { return qbuf[l * qcap + qhead[l]]; };
    auto q_pop = [&](size_t l) {
        qhead[l] = qhead[l] + 1 == qcap ? 0 : qhead[l] + 1;
        --qcount[l];
    };
    auto q_push = [&](size_t l, uint64_t t) {
        size_t p = qhead[l] + qcount[l];
        if (p >= qcap)
            p -= qcap;
        qbuf[l * qcap + p] = t;
        ++qcount[l];
    };

    uint64_t cmds = 0, fences = 0; ///< lane-invariant counts
    U64Lanes lat(L);

    const UopKind *const kind_col = view.kind;
    const uint16_t *const rows_col = view.rows;
    const uint16_t *const cols_col = view.cols;
    const uint32_t *const bytes_col = view.bytes;
    const uint8_t *const taken_col = view.taken;
    const uint16_t *const sew_col = view.sew;

    auto coproc = [&](const isa::UopStreamView &, size_t i,
                      const uint64_t *present, uint64_t *release,
                      uint64_t *done, const cpu::BatchRegFiles &) {
        const UopKind kind = kind_col[i];

        if (kind == UopKind::RoccFence) {
            for (size_t l = 0; l < L; ++l) {
                uint64_t d = std::max(present[l], last_comp[l]) +
                             fence_base[l];
                if (mvout_pending[l])
                    d += fence_mem[l];
                mvout_pending[l] = 0;
                qcount[l] = 0;
                fence_stall[l] += d - present[l];
                release[l] = d;
                done[l] = d;
            }
            ++fences;
            return;
        }

        // Per-lane execution latency with the kind switch hoisted.
        switch (kind) {
          case UopKind::RoccConfig:
            for (size_t l = 0; l < L; ++l)
                lat[l] = config_lat[l];
            break;
          case UopKind::RoccMvin:
          case UopKind::RoccMvout: {
            const uint16_t rows = rows_col[i];
            const uint64_t bytes = bytes_col[i];
            const bool colvec = cols_col[i] == 1 && rows > 1;
            const uint64_t pool =
                kind == UopKind::RoccMvout && taken_col[i] ? rows : 0;
            for (size_t l = 0; l < L; ++l) {
                uint64_t move;
                if (colvec && !hw_gemv[l]) {
                    // Column vector: one 4-byte scratchpad entry per
                    // cycle (§4.2.4) — rows at fp32, packed pairs at
                    // 16-bit widths.
                    move = (bytes + 3) / 4;
                } else {
                    const uint64_t x = bytes + bus[l] - 1;
                    move = bus_pow2[l] ? x >> bus_shift[l] : x / bus[l];
                }
                lat[l] = dma_fixed[l] + move + pool;
            }
            break;
          }
          case UopKind::RoccPreload:
            for (size_t l = 0; l < L; ++l)
                lat[l] = mesh_dim[l];
            break;
          case UopKind::RoccCompute: {
            // Physical pipeline rows: ceil(rows*sew/32) — packed
            // pairs at 16-bit widths, exactly rows at fp32.
            const uint64_t prows =
                (static_cast<uint64_t>(rows_col[i]) * sew_col[i] + 31) /
                32;
            for (size_t l = 0; l < L; ++l)
                lat[l] = prows + 2 * mesh_dim[l];
            break;
          }
          default:
            rtoc_panic("gemmini '%s': unsupported uop %s",
                       group.front()->name().c_str(), isa::uopName(kind));
        }

        for (size_t l = 0; l < L; ++l) {
            const uint64_t p = present[l];
            uint64_t rel = p;
            while (qcount[l] != 0 && q_front(l) <= p)
                q_pop(l);
            if (qcount[l] >= rob_depth[l]) {
                const uint64_t drain = q_front(l);
                stall_rob[l] += drain - p;
                rel = drain;
                q_pop(l);
            }
            release[l] = rel;
            const uint64_t start = std::max(
                std::max(p, rel) + issue_lat[l], last_comp[l]);
            const uint64_t completion = start + lat[l];
            last_comp[l] = completion;
            q_push(l, completion);
            done[l] = completion;
        }
        ++cmds;
        if (kind == UopKind::RoccMvout)
            for (size_t l = 0; l < L; ++l)
                mvout_pending[l] = 1;
    };

    std::vector<cpu::TimingResult> out =
        cpu::runInOrderStreamBatchWithCoproc<kLanes>(view, frontends,
                                                     coproc);
    for (size_t l = 0; l < out.size(); ++l) {
        out[l].stats.set(gemminiIds().cmds, cmds);
        out[l].stats.set(gemminiIds().fences, fences);
        out[l].stats.set(gemminiIds().fence_stall, fence_stall[l]);
        out[l].stats.set(gemminiIds().stall_rob, stall_rob[l]);
    }
    return out;
}

} // namespace

std::vector<cpu::TimingResult>
GemminiModel::runStreamBatch(
    const isa::UopStreamView &view,
    const std::vector<const cpu::TimingModel *> &models) const
{
    std::vector<const GemminiModel *> group =
        cpu::familyGroup<GemminiModel>(models, "Gemmini");
    if (group.size() == 1)
        return replayGemmini<1>(view, group);
    return replayGemmini<0>(view, group);
}

std::string
GemminiModel::cacheKey() const
{
    return csprintf(
        "gemmini:%s:m%d:df%d:spad%d:acc%d:rob%d:il%d:cl%d:dma%d:"
        "bus%d:fb%d:fmp%d:hwgemv%d|%s",
        cfg_.name.c_str(), cfg_.meshDim,
        static_cast<int>(cfg_.dataflow), cfg_.spadKb, cfg_.accKb,
        cfg_.robDepth, cfg_.issueLat, cfg_.configLat, cfg_.dmaFixed,
        cfg_.busBytes, cfg_.fenceBase, cfg_.fenceMemPenalty,
        cfg_.hardwareGemv ? 1 : 0,
        cpu::InOrderCore(cfg_.frontend).cacheKey().c_str());
}

cpu::TimingResult
GemminiModel::runAos(const isa::Program &prog) const
{
    using isa::Uop;
    using isa::UopKind;

    static thread_local AccelState st;
    st.reset();
    cpu::InOrderCore frontend(cfg_.frontend);

    auto exec_latency = [&](const Uop &u) -> uint64_t {
        switch (u.kind) {
          case UopKind::RoccConfig:
            return static_cast<uint64_t>(cfg_.configLat);
          case UopKind::RoccMvin:
          case UopKind::RoccMvout: {
            uint64_t move;
            if (u.cols == 1 && u.rows > 1 && !cfg_.hardwareGemv) {
                // Column vector: one scratchpad entry per cycle
                // (§4.2.4 inefficiency) — a 4-byte entry, so fp32
                // moves one element per cycle (bytes/4 == rows,
                // unchanged) while 16-bit formats pack two. The
                // hardware-GEMV extension packs vectors across rows
                // and moves them at full bandwidth instead.
                move = (static_cast<uint64_t>(u.bytes) + 3) / 4;
            } else {
                move = (static_cast<uint64_t>(u.bytes) +
                        cfg_.busBytes - 1) /
                       static_cast<uint64_t>(cfg_.busBytes);
            }
            // Pool window > 1 adds a comparator pass per output row.
            if (u.kind == UopKind::RoccMvout && u.taken)
                move += u.rows;
            return static_cast<uint64_t>(cfg_.dmaFixed) + move;
          }
          case UopKind::RoccPreload:
            return static_cast<uint64_t>(cfg_.meshDim);
          case UopKind::RoccCompute: {
            // Physical rows flow through a meshDim-deep pipeline: a
            // narrow tile packs 32/sew elements per fp32 PE, so a
            // sew-bit tile of r rows occupies ceil(r*sew/32) physical
            // rows. At sew=32 this is exactly r — unchanged.
            const uint64_t prows =
                (static_cast<uint64_t>(u.rows) * u.sew + 31) / 32;
            return prows + 2 * static_cast<uint64_t>(cfg_.meshDim);
          }
          default:
            rtoc_panic("gemmini '%s': unsupported uop %s",
                       cfg_.name.c_str(), isa::uopName(u.kind));
        }
    };

    auto coproc = [&](const Uop &u, uint64_t present,
                      cpu::RegReadyFile &sregs, cpu::RegReadyFile &vregs)
        -> std::pair<uint64_t, uint64_t> {
        (void)sregs;
        (void)vregs;
        uint64_t release = present;

        if (u.kind == UopKind::RoccFence) {
            // Frontend blocks until the accelerator drains; when an
            // mvout is outstanding the memory system must also be
            // ordered, costing the paper's measured several-hundred-
            // cycle stall.
            uint64_t done = std::max(present, st.lastCompletion) +
                            static_cast<uint64_t>(cfg_.fenceBase);
            if (st.mvoutSinceFence)
                done += static_cast<uint64_t>(cfg_.fenceMemPenalty);
            st.mvoutSinceFence = false;
            st.inFlight.clear();
            ++st.fences;
            st.fenceStall += done - present;
            return {done, done};
        }

        // Command-queue back-pressure.
        while (!st.inFlight.empty() && st.inFlight.front() <= present)
            st.inFlight.popFront();
        if (static_cast<int>(st.inFlight.size()) >= cfg_.robDepth) {
            uint64_t drain = st.inFlight.front();
            st.stallQueueFull += drain - present;
            release = drain;
            st.inFlight.popFront();
        }

        uint64_t start = std::max(std::max(present, release) +
                                      static_cast<uint64_t>(cfg_.issueLat),
                                  st.lastCompletion);
        uint64_t completion = start + exec_latency(u);
        st.lastCompletion = completion;
        st.inFlight.pushBack(completion);
        ++st.cmds;
        if (u.kind == UopKind::RoccMvout)
            st.mvoutSinceFence = true;
        return {release, completion};
    };

    cpu::TimingResult result = frontend.runWithCoproc(prog, coproc);
    result.stats.set(gemminiIds().cmds, st.cmds);
    result.stats.set(gemminiIds().fences, st.fences);
    result.stats.set(gemminiIds().fence_stall, st.fenceStall);
    result.stats.set(gemminiIds().stall_rob, st.stallQueueFull);
    return result;
}

} // namespace rtoc::systolic
