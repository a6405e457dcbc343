#include "saturn.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/ring_fifo.hh"

namespace rtoc::vector {

namespace {

/** Interned stat ids (one-time; per-run sets index by id). */
struct SaturnIds
{
    StatId vinstrs = internStat("vector_instrs");
    StatId stall_vq = internStat("stall_vq_full");
};

const SaturnIds &
saturnIds()
{
    static const SaturnIds ids;
    return ids;
}

} // namespace

SaturnConfig
SaturnConfig::make(int vlen, int dlen, bool shuttle_frontend)
{
    SaturnConfig c;
    c.vlen = vlen;
    c.dlen = dlen;
    c.frontend = shuttle_frontend ? cpu::InOrderConfig::shuttle()
                                  : cpu::InOrderConfig::rocket();
    c.name = "saturn-v" + std::to_string(vlen) + "d" +
             std::to_string(dlen) + "-" + c.frontend.name;
    return c;
}

namespace {

/** AoS-oracle vector-unit state threaded through the frontend loop. */
struct VectorUnitState
{
    uint64_t vxuFree = 0; ///< arithmetic pipe next-free cycle
    uint64_t vluFree = 0; ///< load pipe
    uint64_t vsuFree = 0; ///< store pipe
    RingFifo inFlight;             ///< completion times, FIFO
    cpu::RegReadyFile chainReady;  ///< first-element availability
    uint64_t vinstrs = 0;
    uint64_t stallQueueFull = 0;

    /** Rearm for a new run; buffers keep their capacity. */
    void
    reset()
    {
        vxuFree = vluFree = vsuFree = 0;
        inFlight.clear();
        chainReady.reset();
        vinstrs = 0;
        stallQueueFull = 0;
    }
};

/**
 * Saturn columnar engine over the in-order frontend engine, with a
 * lane count fixed at compile time (kLanes > 0) or at run time (0).
 */
template <size_t kLanes>
std::vector<cpu::TimingResult>
replaySaturn(const isa::UopStreamView &view,
             const std::vector<const SaturnModel *> &group)
{
    using isa::UopKind;
    std::vector<cpu::InOrderConfig> frontends;
    for (const SaturnModel *m : group)
        frontends.push_back(m->config().frontend);

    // Lane-major SoA vector-unit state: every per-lane quantity of
    // the oracle's VectorUnitState lives in a flat array indexed by
    // lane, so each per-kind lane loop below streams contiguous
    // memory and vectorizes under RTOC_NATIVE. The engine presents
    // each vector op once for all lanes, so the kind switch,
    // operand-row resolution and the beats branch hoist out of the
    // lane loops.
    using U64Lanes = cpu::LaneArray<uint64_t, kLanes>;
    const size_t L = kLanes ? kLanes : group.size();
    U64Lanes vxu_free(L), vlu_free(L), vsu_free(L), stall_q(L);
    U64Lanes vq_depth(L), pipe_lat(L), chain_lat(L), mem_lat(L),
        sm_lat(L), dlen(L), vlen(L);
    U64Lanes beats(L), start_v(L);
    cpu::LaneArray<int, kLanes> dlen_shift(L);
    cpu::LaneArray<uint8_t, kLanes> dlen_pow2(L);
    for (size_t l = 0; l < L; ++l) {
        const SaturnConfig &c = group[l]->config();
        vq_depth[l] = static_cast<uint64_t>(c.vqDepth);
        pipe_lat[l] = static_cast<uint64_t>(c.pipeLat);
        chain_lat[l] = static_cast<uint64_t>(c.chainLat);
        mem_lat[l] = static_cast<uint64_t>(c.memLat);
        sm_lat[l] = static_cast<uint64_t>(c.scalarMoveLat);
        dlen[l] = static_cast<uint64_t>(c.dlen);
        vlen[l] = static_cast<uint64_t>(c.vlen);
        dlen_pow2[l] = dlen[l] != 0 && (dlen[l] & (dlen[l] - 1)) == 0;
        dlen_shift[l] = dlen_pow2[l] ? __builtin_ctzll(dlen[l]) : 0;
    }

    // Lane-major in-flight queue. Every lane sees every vector op and
    // pushes exactly one completion per queue-pushing op (everything
    // but VSetVl), in stream order — so the FIFO collapses to a
    // per-lane head index into a lane-major completion history:
    // occupancy of lane l is vi - head[l], the front is
    // hist[head[l]*L + l], a pop is ++head[l], and the push is the
    // completion store the kind loops make anyway. No ring arithmetic
    // and no separate push pass. The history is thread-local scratch,
    // grown on demand, so repeated replays never re-fault its pages.
    static thread_local std::vector<uint64_t> comp_hist;
    U64Lanes head(L);
    size_t vi = 0; ///< pushes so far; lane occupancy = vi - head[l]

    // Lane-interleaved chaining file (first-element availability),
    // sized from the program's vector-register counter; reads of
    // unwritten/out-of-range ids fall back to a zero row and kNoReg
    // writes to a sink row, matching RegReadyFile. Every chain write
    // pairs with a BatchRegFiles::vrowW of the same destination,
    // which panics on an out-of-range id.
    const uint32_t nvreg = view.program->vectorRegCount();
    std::vector<uint64_t> chain(static_cast<size_t>(nvreg) * L, 0);
    U64Lanes chain_zero(L), chain_sink(L);
    auto chain_row = [&](uint32_t reg) -> const uint64_t * {
        const uint32_t idx = reg & 0x7fffffffu;
        if (reg == isa::kNoReg || idx >= nvreg)
            return chain_zero.data();
        return chain.data() + static_cast<size_t>(idx) * L;
    };
    auto chain_row_w = [&](uint32_t reg) -> uint64_t * {
        const uint32_t idx = reg & 0x7fffffffu;
        if (reg == isa::kNoReg || idx >= nvreg)
            return chain_sink.data();
        return chain.data() + static_cast<size_t>(idx) * L;
    };

    uint64_t vinstrs = 0; ///< lane-invariant (every lane sees each op)

    const UopKind *const kind_col = view.kind;
    const uint32_t *const dst_col = view.dst;
    const uint32_t *const src0_col = view.src0;
    const uint32_t *const src1_col = view.src1;
    const uint32_t *const src2_col = view.src2;
    const uint32_t *const vl_col = view.vl;
    const uint16_t *const sew_col = view.sew;
    const uint16_t *const lmul8_col = view.lmul8;

    auto coproc = [&](const isa::UopStreamView &, size_t i,
                      const uint64_t *present, uint64_t *release,
                      uint64_t *done, const cpu::BatchRegFiles &rf) {
        const UopKind kind = kind_col[i];
        const uint32_t dst = dst_col[i];

        if (kind == UopKind::VSetVl) {
            uint64_t *sd = rf.srowW(dst);
            for (size_t l = 0; l < L; ++l) {
                sd[l] = present[l] + 2;
                release[l] = present[l] + 1;
                done[l] = present[l] + 2;
            }
            return;
        }

        const uint32_t src0 = src0_col[i];
        const uint32_t src1 = src1_col[i];
        const uint32_t src2 = src2_col[i];
        const bool v0 = src0 != isa::kNoReg && isa::Program::isVReg(src0);
        const bool v1 = src1 != isa::kNoReg && isa::Program::isVReg(src1);
        const bool v2 = src2 != isa::kNoReg && isa::Program::isVReg(src2);
        const uint64_t *c0 = v0 ? chain_row(src0) : chain_zero.data();
        const uint64_t *c1 = v1 ? chain_row(src1) : chain_zero.data();
        const uint64_t *c2 = v2 ? chain_row(src2) : chain_zero.data();

        // Shared prologue, split so the serial queue walk never
        // blocks vectorization of the start-cycle maxes: first the
        // drain + back-pressure per lane, then the chained start
        // cycle (zero-row fallbacks keep it branchless).
        const uint64_t *const hist = comp_hist.data();
        for (size_t l = 0; l < L; ++l) {
            const uint64_t p = present[l];
            uint64_t h = head[l];
            while (h < vi && hist[h * L + l] <= p)
                ++h;
            uint64_t rel = p;
            if (vi - h >= vq_depth[l]) {
                const uint64_t drain = hist[h * L + l];
                stall_q[l] += drain - p;
                rel = drain;
                ++h;
            }
            head[l] = h;
            release[l] = rel;
        }
        for (size_t l = 0; l < L; ++l) {
            uint64_t start = std::max(present[l], release[l]);
            start = std::max(start, c0[l]);
            start = std::max(start, c1[l]);
            start = std::max(start, c2[l]);
            start_v[l] = start;
        }

        // Beats: the LMUL-group branch is lane-invariant, so it
        // hoists; only the datapath width differs per lane. VMove
        // never sequences beats, so it skips the pass entirely.
        const uint16_t ulm = lmul8_col[i];
        if (kind == UopKind::VMove) {
            // no beats
        } else if (ulm > 8) {
            for (size_t l = 0; l < L; ++l) {
                const uint64_t group_bits =
                    static_cast<uint64_t>(ulm) * vlen[l] / 8;
                const uint64_t x = group_bits + dlen[l] - 1;
                beats[l] = std::max<uint64_t>(
                    1, dlen_pow2[l] ? x >> dlen_shift[l] : x / dlen[l]);
            }
        } else {
            const uint64_t live_bits =
                static_cast<uint64_t>(vl_col[i]) *
                static_cast<uint64_t>(sew_col[i]);
            for (size_t l = 0; l < L; ++l) {
                const uint64_t x = live_bits + dlen[l] - 1;
                beats[l] = std::max<uint64_t>(
                    1, dlen_pow2[l] ? x >> dlen_shift[l] : x / dlen[l]);
            }
        }

        // Queue push: the kind loops below store each completion into
        // the history row for this op as well as done[] — that store
        // IS the push (see the queue comment above).
        if (comp_hist.size() < (vi + 1) * L) {
            // Geometric growth, capped at the stream's bound (every
            // uop pushes at most once).
            comp_hist.resize(std::min(
                view.n * L, std::max((vi + 1) * L, 2 * comp_hist.size())));
        }
        uint64_t *const hrow = comp_hist.data() + vi * L;

        switch (kind) {
          case UopKind::VLoad:
          case UopKind::VLoadStrided: {
            uint64_t *ch_d = chain_row_w(dst);
            uint64_t *vr_d = rf.vrowW(dst);
            const bool strided = kind == UopKind::VLoadStrided;
            const uint64_t strided_occ =
                std::max<uint64_t>(vl_col[i], 1);
            for (size_t l = 0; l < L; ++l) {
                const uint64_t start =
                    std::max(start_v[l], vlu_free[l]);
                const uint64_t occ = strided ? strided_occ : beats[l];
                vlu_free[l] = start + occ;
                const uint64_t completion = start + mem_lat[l] + occ;
                ch_d[l] = start + mem_lat[l] + 1;
                vr_d[l] = completion;
                hrow[l] = completion;
                done[l] = completion;
            }
            break;
          }
          case UopKind::VStore: {
            const uint64_t *r0 = v0 ? rf.vrow(src0) : chain_zero.data();
            const uint64_t *r1 = v1 ? rf.vrow(src1) : chain_zero.data();
            for (size_t l = 0; l < L; ++l) {
                // Stores need full operand data, not just the head.
                uint64_t start = std::max(start_v[l], vsu_free[l]);
                start = std::max(start, r0[l]);
                start = std::max(start, r1[l]);
                vsu_free[l] = start + beats[l];
                const uint64_t completion = start + beats[l] + 1;
                hrow[l] = completion;
                done[l] = completion;
            }
            break;
          }
          case UopKind::VArith:
          case UopKind::VFma: {
            uint64_t *ch_d = chain_row_w(dst);
            uint64_t *vr_d = rf.vrowW(dst);
            for (size_t l = 0; l < L; ++l) {
                const uint64_t start =
                    std::max(start_v[l], vxu_free[l]);
                vxu_free[l] = start + beats[l];
                const uint64_t completion =
                    start + pipe_lat[l] + beats[l];
                ch_d[l] = start + pipe_lat[l] + chain_lat[l];
                vr_d[l] = completion;
                hrow[l] = completion;
                done[l] = completion;
            }
            break;
          }
          case UopKind::VRed: {
            // Reductions cannot chain out: full tree latency.
            const uint64_t *r0 = v0 ? rf.vrow(src0) : chain_zero.data();
            const uint64_t *r1 = v1 ? rf.vrow(src1) : chain_zero.data();
            uint64_t *sd = rf.srowW(dst);
            constexpr uint64_t tree = 12;
            for (size_t l = 0; l < L; ++l) {
                uint64_t start = std::max(start_v[l], vxu_free[l]);
                start = std::max(start, r0[l]);
                start = std::max(start, r1[l]);
                vxu_free[l] = start + beats[l] + tree;
                const uint64_t completion =
                    start + pipe_lat[l] + beats[l] + tree + sm_lat[l];
                sd[l] = completion;
                hrow[l] = completion;
                done[l] = completion;
            }
            break;
          }
          case UopKind::VMove: {
            const uint64_t *r0 = v0 ? rf.vrow(src0) : chain_zero.data();
            if (isa::Program::isVReg(dst)) {
                uint64_t *ch_d = chain_row_w(dst);
                uint64_t *vr_d = rf.vrowW(dst);
                for (size_t l = 0; l < L; ++l) {
                    const uint64_t start = std::max(start_v[l], r0[l]);
                    const uint64_t completion = start + sm_lat[l];
                    vr_d[l] = completion;
                    ch_d[l] = completion;
                    hrow[l] = completion;
                    done[l] = completion;
                }
            } else {
                // vfmv.f.s: scalar destination, waits for full vreg.
                uint64_t *sd = rf.srowW(dst);
                for (size_t l = 0; l < L; ++l) {
                    const uint64_t start = std::max(start_v[l], r0[l]);
                    const uint64_t completion = start + sm_lat[l];
                    sd[l] = completion;
                    hrow[l] = completion;
                    done[l] = completion;
                }
            }
            break;
          }
          default:
            rtoc_panic("saturn '%s': unsupported coprocessor uop %s",
                       group.front()->name().c_str(), isa::uopName(kind));
        }

        ++vi;
        ++vinstrs;
    };

    std::vector<cpu::TimingResult> out =
        cpu::runInOrderStreamBatchWithCoproc<kLanes>(view, frontends,
                                                     coproc);
    for (size_t l = 0; l < out.size(); ++l) {
        out[l].stats.set(saturnIds().vinstrs, vinstrs);
        out[l].stats.set(saturnIds().stall_vq, stall_q[l]);
    }
    return out;
}

} // namespace

std::vector<cpu::TimingResult>
SaturnModel::runStreamBatch(
    const isa::UopStreamView &view,
    const std::vector<const cpu::TimingModel *> &models) const
{
    std::vector<const SaturnModel *> group =
        cpu::familyGroup<SaturnModel>(models, "Saturn");
    if (group.size() == 1)
        return replaySaturn<1>(view, group);
    return replaySaturn<0>(view, group);
}

std::string
SaturnModel::cacheKey() const
{
    return csprintf("saturn:%s:v%d:d%d:vq%d:pl%d:cl%d:ml%d:sm%d|%s",
                    cfg_.name.c_str(), cfg_.vlen, cfg_.dlen,
                    cfg_.vqDepth, cfg_.pipeLat, cfg_.chainLat,
                    cfg_.memLat, cfg_.scalarMoveLat,
                    cpu::InOrderCore(cfg_.frontend).cacheKey().c_str());
}

cpu::TimingResult
SaturnModel::runAos(const isa::Program &prog) const
{
    using isa::Uop;
    using isa::UopKind;

    static thread_local VectorUnitState st;
    st.reset();
    cpu::InOrderCore frontend(cfg_.frontend);

    auto beats_of = [&](const Uop &u) -> uint64_t {
        // A grouped instruction sequences the whole register group;
        // an ungrouped one only the live elements.
        uint64_t dlen = static_cast<uint64_t>(cfg_.dlen);
        if (u.lmul8 > 8) {
            uint64_t group_bits = static_cast<uint64_t>(u.lmul8) *
                                  static_cast<uint64_t>(cfg_.vlen) / 8;
            return std::max<uint64_t>(1, (group_bits + dlen - 1) / dlen);
        }
        uint64_t live_bits =
            static_cast<uint64_t>(u.vl) * static_cast<uint64_t>(u.sew);
        return std::max<uint64_t>(1, (live_bits + dlen - 1) / dlen);
    };

    auto coproc = [&](const Uop &u, uint64_t present,
                      cpu::RegReadyFile &sregs, cpu::RegReadyFile &vregs)
        -> std::pair<uint64_t, uint64_t> {
        uint64_t release = present;

        if (u.kind == UopKind::VSetVl) {
            // Decode-stage handling with a short interlock before the
            // new VL takes effect for the following vector ops.
            sregs.setReady(u.dst, present + 2);
            return {present + 1, present + 2};
        }

        // Queue back-pressure: frontend blocks when the vector unit
        // already holds vqDepth undrained instructions.
        while (!st.inFlight.empty() && st.inFlight.front() <= present)
            st.inFlight.popFront();
        if (static_cast<int>(st.inFlight.size()) >= cfg_.vqDepth) {
            uint64_t drain = st.inFlight.front();
            st.stallQueueFull += drain - present;
            release = drain;
            st.inFlight.popFront();
        }

        uint64_t start = std::max(present, release);
        // Chaining: wait for the first elements of vector operands.
        for (uint32_t src : {u.src0, u.src1, u.src2}) {
            if (src != isa::kNoReg && isa::Program::isVReg(src))
                start = std::max(start, st.chainReady.readyTime(src));
        }

        uint64_t beats = beats_of(u);
        uint64_t completion = 0;

        switch (u.kind) {
          case UopKind::VLoad:
          case UopKind::VLoadStrided: {
            start = std::max(start, st.vluFree);
            uint64_t lat = static_cast<uint64_t>(cfg_.memLat);
            uint64_t occ = u.kind == UopKind::VLoadStrided
                               ? std::max<uint64_t>(u.vl, 1) // 1 elem/cyc
                               : beats;
            st.vluFree = start + occ;
            completion = start + lat + occ;
            st.chainReady.setReady(u.dst, start + lat + 1);
            vregs.setReady(u.dst, completion);
            break;
          }
          case UopKind::VStore: {
            start = std::max(start, st.vsuFree);
            // Stores need full operand data, not just the head.
            for (uint32_t src : {u.src0, u.src1}) {
                if (src != isa::kNoReg && isa::Program::isVReg(src))
                    start = std::max(start, vregs.readyTime(src));
            }
            st.vsuFree = start + beats;
            completion = start + beats + 1;
            break;
          }
          case UopKind::VArith:
          case UopKind::VFma: {
            start = std::max(start, st.vxuFree);
            st.vxuFree = start + beats;
            completion =
                start + static_cast<uint64_t>(cfg_.pipeLat) + beats;
            st.chainReady.setReady(u.dst,
                                   start + cfg_.pipeLat + cfg_.chainLat);
            vregs.setReady(u.dst, completion);
            break;
          }
          case UopKind::VRed: {
            start = std::max(start, st.vxuFree);
            // Reductions cannot chain out: full tree latency.
            for (uint32_t src : {u.src0, u.src1}) {
                if (src != isa::kNoReg && isa::Program::isVReg(src))
                    start = std::max(start, vregs.readyTime(src));
            }
            // Ordered FP reductions are slow on short-vector
            // machines: a multi-pass lane tree plus pipeline drain.
            uint64_t tree = 12;
            st.vxuFree = start + beats + tree;
            completion = start + cfg_.pipeLat + beats + tree +
                         static_cast<uint64_t>(cfg_.scalarMoveLat);
            sregs.setReady(u.dst, completion);
            break;
          }
          case UopKind::VMove: {
            // vfmv.f.s: scalar destination, waits for full vreg.
            uint64_t src_ready = 0;
            if (u.src0 != isa::kNoReg && isa::Program::isVReg(u.src0))
                src_ready = vregs.readyTime(u.src0);
            start = std::max(start, src_ready);
            completion =
                start + static_cast<uint64_t>(cfg_.scalarMoveLat);
            if (isa::Program::isVReg(u.dst)) {
                vregs.setReady(u.dst, completion);
                st.chainReady.setReady(u.dst, completion);
            } else {
                sregs.setReady(u.dst, completion);
            }
            break;
          }
          default:
            rtoc_panic("saturn '%s': unsupported coprocessor uop %s",
                       cfg_.name.c_str(), isa::uopName(u.kind));
        }

        st.inFlight.pushBack(completion);
        ++st.vinstrs;
        return {release, completion};
    };

    cpu::TimingResult result = frontend.runWithCoproc(prog, coproc);
    result.stats.set(saturnIds().vinstrs, st.vinstrs);
    result.stats.set(saturnIds().stall_vq, st.stallQueueFull);
    return result;
}

} // namespace rtoc::vector
