/**
 * @file
 * Inline implementation of the in-order scoreboard model, templated on
 * the coprocessor callback so the Saturn and Gemmini models reuse one
 * frontend without virtual dispatch per uop.
 *
 * The in-order family (and every family built on its frontend) has
 * one columnar engine and one AoS oracle:
 *
 *  - runInOrderStreamBatchWithCoproc is the columnar engine. One pass
 *    over a UopStreamView advances an independent scoreboard per
 *    config ("lane"); TimingModel::runStream is its one-lane case.
 *    The lane count is a template parameter: kLanes == 1 turns the
 *    lane arrays into fixed-size locals, so a single replay keeps its
 *    scoreboard in registers, and kLanes == 0 sizes them at run time.
 *  - InOrderCore::runWithCoproc is the historical AoS loop over
 *    Program::uops(), an independent transliteration of the same cost
 *    rules that the bit-exactness tests hold the engine to.
 *
 * The engine sizes its register stores from the program's register
 * counts and panics on a destination register outside them, so a
 * malformed or hostile Program cannot silently lose writes.
 */

#ifndef RTOC_CPU_INORDER_IMPL_HH
#define RTOC_CPU_INORDER_IMPL_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"

namespace rtoc::cpu {

namespace inorder_detail {

/** Interned stat ids for the in-order loops (one-time interning; the
 *  per-run stats.set calls index by id instead of hashing a string). */
struct Ids
{
    StatId uops = internStat("uops");
    StatId stall_data = internStat("stall_data");
    StatId stall_struct = internStat("stall_struct");
};

inline const Ids &
statIds()
{
    static const Ids ids;
    return ids;
}

} // namespace inorder_detail

/** Reusable AoS-oracle scoreboard state for one simulation thread. */
struct InOrderScratch
{
    std::vector<uint64_t> finish;
    RegReadyFile sregs; ///< scalar registers
    RegReadyFile vregs; ///< vector registers (only coproc uses these)

    void
    reset(size_t n_uops)
    {
        finish.assign(n_uops, 0);
        sregs.reset();
        vregs.reset();
    }
};

/**
 * Per-lane state of the columnar engines. With a compile-time lane
 * count (N > 0) it is a zeroed std::array, so one-lane state is a
 * plain local the optimizer keeps in registers; N == 0 is a zeroed
 * std::vector of the run-time size. Tables of K entries per lane use
 * LaneArray<T, N * K> constructed with L * K.
 */
template <typename T, size_t N>
struct LaneArray : std::array<T, N>
{
    explicit LaneArray(size_t) : std::array<T, N>{} {}
};

template <typename T>
struct LaneArray<T, 0> : std::vector<T>
{
    explicit LaneArray(size_t n) : std::vector<T>(n, T{}) {}
};

/**
 * Lane-major register files handed to the coprocessor callbacks: entry
 * (reg, lane) lives at base[idx * lanes + lane], so one register's
 * ready times across all lanes share a cache line, and a family
 * resolves a register once per uop instead of once per lane. Read
 * rows fall back to a shared always-zero row (kNoReg and never-written
 * ids read 0, RegReadyFile semantics); kNoReg destinations write a
 * shared sink row. The stores are sized from the program's register
 * counts, so a destination at or beyond them is a malformed program
 * and panics.
 */
struct BatchRegFiles
{
    uint64_t *sready = nullptr;
    uint64_t *vready = nullptr;
    const uint64_t *zero_row = nullptr;
    uint64_t *sink_row = nullptr;
    uint32_t nsreg = 0;
    uint32_t nvreg = 0;
    size_t lanes = 0;

    const uint64_t *
    srow(uint32_t reg) const
    {
        const uint32_t idx = reg & 0x7fffffffu;
        if (reg == isa::kNoReg || idx >= nsreg)
            return zero_row;
        return sready + static_cast<size_t>(idx) * lanes;
    }

    uint64_t *
    srowW(uint32_t reg) const
    {
        if (reg == isa::kNoReg)
            return sink_row;
        const uint32_t idx = reg & 0x7fffffffu;
        if (idx >= nsreg) {
            rtoc_panic("uop writes scalar register %u; the program "
                       "declares %u", idx, nsreg);
        }
        return sready + static_cast<size_t>(idx) * lanes;
    }

    const uint64_t *
    vrow(uint32_t reg) const
    {
        const uint32_t idx = reg & 0x7fffffffu;
        if (reg == isa::kNoReg || idx >= nvreg)
            return zero_row;
        return vready + static_cast<size_t>(idx) * lanes;
    }

    uint64_t *
    vrowW(uint32_t reg) const
    {
        if (reg == isa::kNoReg)
            return sink_row;
        const uint32_t idx = reg & 0x7fffffffu;
        if (idx >= nvreg) {
            rtoc_panic("uop writes vector register %u; the program "
                       "declares %u", idx, nvreg);
        }
        return vready + static_cast<size_t>(idx) * lanes;
    }
};

/**
 * The in-order columnar engine: ONE pass over the columns advances an
 * independent scoreboard per config in @p cfgs (lanes may differ in
 * every knob, including issue width). The lane-invariant work is
 * hoisted out of the lane loop:
 *
 *  - columns are loaded and decoded once per uop, not once per
 *    (config, uop);
 *  - operand/destination register rows are resolved once per uop,
 *    and the lane-interleaved ready store puts all lanes of a register
 *    on one cache line;
 *  - kernel-region attribution is driven by a shared boundary-event
 *    list (region structure is lane-invariant), so the per-lane,
 *    per-uop attribution work collapses to a running max.
 *
 * @p kLanes is cfgs.size() when the caller fixes it at compile time
 * (1 for a one-lane replay), or 0 for a run-time lane count.
 *
 * Coprocessor uops are presented to @p coproc ONCE per uop as
 * (view, i, present[], release[], done[], BatchRegFiles): present[l]
 * is the cycle at which lane l's frontend issues the op, and the
 * callback fills release[l] (when that frontend may continue, which
 * models back-pressure and fences) and done[l] (the op's completion).
 * The callback owns its per-lane coprocessor state, so a family can
 * hoist its kind switch and operand resolution out of its lane loops.
 */
template <size_t kLanes, typename CoprocFn>
std::vector<TimingResult>
runInOrderStreamBatchWithCoproc(const isa::UopStreamView &v,
                                const std::vector<InOrderConfig> &cfgs,
                                CoprocFn &&coproc)
{
    using isa::LatClass;

    if (!v.program) {
        rtoc_panic("in-order engine: view has no owning program "
                   "(region attribution needs Program::stream())");
    }
    if (v.program->kernelOpen()) {
        rtoc_panic("in-order engine: kernel region '%s' still open — "
                   "close it (endKernel) before timing the program",
                   v.program->kernels().back().name().c_str());
    }
    rtoc_assert(kLanes == 0 || cfgs.size() == kLanes);

    const size_t L = kLanes ? kLanes : cfgs.size();
    const uint32_t nsreg = v.program->scalarRegCount();
    const uint32_t nvreg = v.program->vectorRegCount();
    constexpr size_t kNumCls = isa::kNumLatClasses;

    // Per-lane scoreboard state and configuration, one struct per
    // lane: the lane loop reaches all of it through one pointer, which
    // matters because that loop is register-bound, not memory-bound.
    //
    // The three issue counters (slots, fp_used, mem_used) live in one
    // packed word per lane — 16-bit fields at bits 0/16/32 — so the
    // structural-hazard test
    //   slots >= issueWidth || (fp && fp_used >= fpuCount) ||
    //   (mem && mem_used >= memPorts)
    // becomes one add+mask against a per-lane packed complement
    // (field f trips bit 15 of its lane exactly when counter_f >=
    // limit_f; counters stay tiny, so fields never carry into each
    // other), and the counter increments collapse to one shared
    // packed add.
    struct Lane
    {
        uint64_t cycle;        ///< frontend issue cycle
        uint64_t occ;          ///< packed slots/fp/mem counters
        uint64_t running_max;  ///< max completion so far
        uint64_t stall_data;
        uint64_t stall_struct;
        uint64_t open_before;  ///< running_max at the open region
        uint64_t branch_bubble;
        uint64_t issue_width;
        uint64_t comp[4];      ///< packed limit complements by ports
        uint64_t lat[kNumCls]; ///< latency by class
    };
    LaneArray<Lane, kLanes> st(L);
    constexpr uint64_t kOccHi = 0x0000800080008000ull;
    for (size_t l = 0; l < L; ++l) {
        const InOrderConfig &cfg = cfgs[l];
        Lane &ln = st[l];
        ln.issue_width = static_cast<uint64_t>(cfg.issueWidth);
        ln.branch_bubble = static_cast<uint64_t>(cfg.branchBubble);
        const uint64_t cs =
            0x8000ull - static_cast<uint64_t>(cfg.issueWidth);
        const uint64_t cf =
            0x8000ull - static_cast<uint64_t>(cfg.fpuCount);
        const uint64_t cm =
            0x8000ull - static_cast<uint64_t>(cfg.memPorts);
        // Gate selector: bit0 = fp port used by this uop, bit1 = mem
        // port used; disabled gates contribute 0 (never trip).
        ln.comp[0] = cs;
        ln.comp[1] = cs | (cf << 16);
        ln.comp[2] = cs | (cm << 32);
        ln.comp[3] = cs | (cf << 16) | (cm << 32);
        auto lt = [&](LatClass c) -> uint64_t & {
            return ln.lat[static_cast<size_t>(c)];
        };
        lt(LatClass::IntAlu) = 1;
        lt(LatClass::IntMul) =
            static_cast<uint64_t>(cfg.intMulLatency);
        lt(LatClass::Fp) = static_cast<uint64_t>(cfg.fpLatency);
        lt(LatClass::FpDiv) =
            static_cast<uint64_t>(cfg.fpDivLatency);
        lt(LatClass::FpCmp) = 2;
        lt(LatClass::FpMove) = 2;
        lt(LatClass::Load) = static_cast<uint64_t>(cfg.loadLatency);
        lt(LatClass::Store) = 1;
        lt(LatClass::Branch) = 1;
        lt(LatClass::FpNarrow) =
            static_cast<uint64_t>(cfg.resolvedFpNarrowLatency());
    }
    // Port-usage selector of a class byte: bit0 = fp, bit1 = mem.
    static_assert(isa::kClsFp == 0x10 && isa::kClsMem == 0x20,
                  "port selector reads the fp/mem class bits");
    constexpr uint64_t kOccInc[4] = {1ull, 1ull | 1ull << 16,
                                     1ull | 1ull << 32,
                                     1ull | 1ull << 16 | 1ull << 32};

    // Lane-interleaved ready stores (zero == never written, exactly
    // RegReadyFile's unwritten semantics), plus the shared zero and
    // sink rows that keep the lane loops branchless.
    std::vector<uint64_t> sready(static_cast<size_t>(nsreg) * L, 0);
    std::vector<uint64_t> vready(static_cast<size_t>(nvreg) * L, 0);
    LaneArray<uint64_t, kLanes> zero_row(L), sink_row(L);
    LaneArray<uint64_t, kLanes> co_present(L), co_release(L), co_done(L);
    const BatchRegFiles rf{sready.data(), vready.data(), zero_row.data(),
                           sink_row.data(), nsreg, nvreg, L};

    // Shared region-boundary events, replayed in exactly the order
    // RegionAttributor::closeUpTo visits them (open at begin, close
    // at end, region order): an event at position p applies before
    // uop p. The uop loop runs in segments between events, so its
    // only bound is the segment end.
    struct REvent
    {
        size_t pos;
        bool open;
    };
    const std::vector<isa::KernelRegion> &regions =
        v.program->kernels();
    std::vector<REvent> events;
    events.reserve(regions.size() * 2);
    for (const isa::KernelRegion &r : regions) {
        events.push_back({r.begin, true});
        events.push_back({r.end, false});
    }
    std::vector<std::vector<uint64_t>> region_out(L);
    for (auto &o : region_out)
        o.reserve(regions.size());
    constexpr uint8_t kBranchCls =
        static_cast<uint8_t>(LatClass::Branch);

    const uint8_t *const cls_col = v.cls;
    const uint32_t *const dst_col = v.dst;
    const uint32_t *const src0_col = v.src0;
    const uint32_t *const src1_col = v.src1;
    const uint32_t *const src2_col = v.src2;
    const uint8_t *const taken_col = v.taken;
    const size_t n = v.n;

    size_t i = 0;
    for (size_t e = 0; e <= events.size(); ++e) {
        const size_t seg_end =
            e < events.size() ? std::min(events[e].pos, n) : n;
        for (; i < seg_end; ++i) {
            const uint8_t cls = cls_col[i];

            if (!(cls & isa::kClsScalar)) {
                // Coprocessor op: the frontend presents it in one
                // issue slot once its scalar operands are ready
                // (vector-register operands are the coprocessor's
                // business, so they read the zero row), then the
                // coprocessor decides when the frontend may continue.
                const uint32_t s0 = src0_col[i];
                const uint32_t s1 = src1_col[i];
                const uint32_t s2 = src2_col[i];
                auto scalar_row = [&](uint32_t reg) {
                    return rf.srow(isa::Program::isVReg(reg) ? isa::kNoReg
                                                             : reg);
                };
                const uint64_t *p0 = scalar_row(s0);
                const uint64_t *p1 = scalar_row(s1);
                const uint64_t *p2 = scalar_row(s2);
                for (size_t l = 0; l < L; ++l) {
                    while ((st[l].occ & 0xffffu) >= st[l].issue_width) {
                        st[l].cycle += 1;
                        st[l].occ = 0;
                    }
                    uint64_t ready =
                        std::max(std::max(p0[l], p1[l]), p2[l]);
                    if (ready > st[l].cycle) {
                        st[l].stall_data += ready - st[l].cycle;
                        st[l].cycle = ready;
                        st[l].occ = 0;
                    }
                    st[l].occ += 1;
                    co_present[l] = st[l].cycle;
                }
                coproc(v, i, co_present.data(), co_release.data(),
                       co_done.data(), rf);
                for (size_t l = 0; l < L; ++l) {
                    if (co_done[l] > st[l].running_max)
                        st[l].running_max = co_done[l];
                    if (co_release[l] > st[l].cycle) {
                        st[l].cycle = co_release[l];
                        st[l].occ = 0;
                    }
                }
                continue;
            }

            // Scalar op: operand rows, latency class, port flags and
            // the taken-branch predicate are all lane-invariant.
            const uint64_t *p0 = rf.srow(src0_col[i]);
            const uint64_t *p1 = rf.srow(src1_col[i]);
            const uint64_t *p2 = rf.srow(src2_col[i]);
            uint64_t *pd = rf.srowW(dst_col[i]);
            const size_t lc = cls & isa::kClsLatMask;
            const bool br_taken = lc == kBranchCls && taken_col[i];
            const size_t ports = (cls >> 4) & 3u;
            const uint64_t occ_inc = kOccInc[ports];

            for (size_t l = 0; l < L; ++l) {
                Lane &ln = st[l];
                uint64_t ready =
                    std::max(std::max(p0[l], p1[l]), p2[l]);
                uint64_t c = ln.cycle;
                uint64_t oc = ln.occ;
                if (ready > c) {
                    ln.stall_data += ready - c;
                    c = ready;
                    oc = 0;
                }
                // A full issue group or port pushes the op one cycle
                // on; one step suffices (counters restart at zero, and
                // every limit is at least 1).
                if ((oc + ln.comp[ports]) & kOccHi) {
                    ++ln.stall_struct;
                    c += 1;
                    oc = 0;
                }
                oc += occ_inc;

                const uint64_t done = c + ln.lat[lc];
                if (done > ln.running_max)
                    ln.running_max = done;
                pd[l] = done;

                if (br_taken) {
                    c += 1 + ln.branch_bubble;
                    oc = 0;
                }
                ln.cycle = c;
                ln.occ = oc;
            }
        }
        if (e == events.size())
            break;
        if (events[e].open) {
            for (size_t l = 0; l < L; ++l)
                st[l].open_before = st[l].running_max;
        } else {
            for (size_t l = 0; l < L; ++l)
                region_out[l].push_back(st[l].running_max -
                                        st[l].open_before);
        }
    }

    std::vector<TimingResult> out(L);
    for (size_t l = 0; l < L; ++l) {
        rtoc_assert(region_out[l].size() == regions.size());
        out[l].regionCycles = std::move(region_out[l]);
        out[l].cycles = std::max(st[l].cycle, st[l].running_max);
        out[l].stats.set(inorder_detail::statIds().uops, n);
        out[l].stats.set(inorder_detail::statIds().stall_data,
                         st[l].stall_data);
        out[l].stats.set(inorder_detail::statIds().stall_struct,
                         st[l].stall_struct);
    }
    return out;
}

template <typename CoprocFn>
TimingResult
InOrderCore::runWithCoproc(const isa::Program &prog,
                           CoprocFn &&coproc) const
{
    using isa::Uop;
    using isa::UopKind;

    TimingResult result;
    const auto &uops = prog.uops();

    static thread_local InOrderScratch scratch;
    scratch.reset(uops.size());
    std::vector<uint64_t> &finish = scratch.finish;
    RegReadyFile &sregs = scratch.sregs;
    RegReadyFile &vregs = scratch.vregs;

    uint64_t cycle = 0;
    int slots = 0;
    int fp_used = 0;
    int mem_used = 0;
    uint64_t stall_data = 0;
    uint64_t stall_struct = 0;

    auto advance_to = [&](uint64_t c) {
        if (c > cycle) {
            cycle = c;
            slots = 0;
            fp_used = 0;
            mem_used = 0;
        }
    };

    auto latency_of = [&](const Uop &u) -> int {
        const UopKind k = u.kind;
        switch (k) {
          case UopKind::IntAlu: return 1;
          case UopKind::IntMul: return cfg_.intMulLatency;
          case UopKind::FpAdd:
          case UopKind::FpMul:
          case UopKind::FpFma:
          case UopKind::FpMinMax:
          case UopKind::FpAbs:
            return u.sew < 32 ? cfg_.resolvedFpNarrowLatency()
                              : cfg_.fpLatency;
          case UopKind::FpDiv: return cfg_.fpDivLatency;
          case UopKind::FpCmp:
          case UopKind::FpMove: return 2;
          case UopKind::Load: return cfg_.loadLatency;
          case UopKind::Store: return 1;
          case UopKind::Branch: return 1;
          default:
            rtoc_panic("in-order core '%s': non-scalar uop %s",
                       cfg_.name.c_str(), isa::uopName(k));
        }
    };

    auto is_fp = [](UopKind k) {
        return k == UopKind::FpAdd || k == UopKind::FpMul ||
               k == UopKind::FpFma || k == UopKind::FpDiv ||
               k == UopKind::FpMinMax || k == UopKind::FpAbs ||
               k == UopKind::FpCmp;
    };
    auto is_mem = [](UopKind k) {
        return k == UopKind::Load || k == UopKind::Store;
    };

    for (size_t i = 0; i < uops.size(); ++i) {
        const Uop &u = uops[i];

        if (!isa::isScalar(u.kind)) {
            // Frontend presents the coprocessor instruction: it costs
            // one issue slot, then the coprocessor decides when the
            // frontend may continue (back-pressure, fences).
            while (slots >= cfg_.issueWidth)
                advance_to(cycle + 1);
            // Scalar operand of the coprocessor op must be ready
            // (e.g. vfmacc.vf reads a scalar f-register).
            uint64_t ready = std::max(
                {sregs.readyTime(isa::Program::isVReg(u.src0)
                                     ? isa::kNoReg : u.src0),
                 sregs.readyTime(isa::Program::isVReg(u.src1)
                                     ? isa::kNoReg : u.src1),
                 sregs.readyTime(isa::Program::isVReg(u.src2)
                                     ? isa::kNoReg : u.src2)});
            if (ready > cycle) {
                stall_data += ready - cycle;
                advance_to(ready);
            }
            ++slots;
            auto [release, done] = coproc(u, cycle, sregs, vregs);
            finish[i] = done;
            if (release > cycle)
                advance_to(release);
            continue;
        }

        uint64_t ready =
            std::max({sregs.readyTime(u.src0), sregs.readyTime(u.src1),
                      sregs.readyTime(u.src2)});
        if (ready > cycle) {
            stall_data += ready - cycle;
            advance_to(ready);
        }
        while (slots >= cfg_.issueWidth ||
               (is_fp(u.kind) && fp_used >= cfg_.fpuCount) ||
               (is_mem(u.kind) && mem_used >= cfg_.memPorts)) {
            ++stall_struct;
            advance_to(cycle + 1);
        }
        ++slots;
        if (is_fp(u.kind))
            ++fp_used;
        if (is_mem(u.kind))
            ++mem_used;

        uint64_t done = cycle + static_cast<uint64_t>(latency_of(u));
        finish[i] = done;
        sregs.setReady(u.dst, done);

        if (u.kind == UopKind::Branch && u.taken)
            advance_to(cycle + 1 + static_cast<uint64_t>(cfg_.branchBubble));
    }

    uint64_t total = cycle;
    for (uint64_t f : finish)
        total = std::max(total, f);

    result.cycles = total;
    result.regionCycles = attributeRegions(prog, finish);
    result.stats.set(inorder_detail::statIds().uops, uops.size());
    result.stats.set(inorder_detail::statIds().stall_data, stall_data);
    result.stats.set(inorder_detail::statIds().stall_struct, stall_struct);
    return result;
}

} // namespace rtoc::cpu

#endif // RTOC_CPU_INORDER_IMPL_HH
