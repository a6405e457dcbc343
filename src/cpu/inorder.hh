/**
 * @file
 * Scoreboarded in-order core model covering Rocket (single-issue) and
 * Shuttle (dual-issue superscalar in-order), the two scalar front ends
 * the paper drives Saturn and Gemmini with (§4, §5.1.1).
 */

#ifndef RTOC_CPU_INORDER_HH
#define RTOC_CPU_INORDER_HH

#include <string>

#include "cpu/core_model.hh"

namespace rtoc::cpu {

/** Microarchitectural parameters of an in-order core. */
struct InOrderConfig
{
    std::string name = "rocket";
    int issueWidth = 1;   ///< instructions issued per cycle
    int fpuCount = 1;     ///< pipelined FPUs (FMA-capable)
    int memPorts = 1;     ///< loads+stores per cycle
    int loadLatency = 3;  ///< L1-hit load-use latency
    int fpLatency = 4;    ///< fadd/fmul/fma latency
    int fpDivLatency = 16;
    int intMulLatency = 3;
    int branchBubble = 2; ///< taken-branch redirect penalty

    /**
     * Latency of pipelined FPU ops at sub-32-bit element width
     * (LatClass::FpNarrow). 0 keeps the derived default of
     * max(1, fpLatency - 1) — half-width FMAs shave a stage — and
     * keeps the cache key unchanged; explicit values are encoded.
     */
    int fpNarrowLatency = 0;

    /** FpNarrow latency with the derived default applied. */
    int
    resolvedFpNarrowLatency() const
    {
        if (fpNarrowLatency > 0)
            return fpNarrowLatency;
        return fpLatency > 1 ? fpLatency - 1 : 1;
    }

    /** Rocket: classic 5-stage single-issue in-order. */
    static InOrderConfig rocket();

    /** Shuttle: dual-issue superscalar in-order. */
    static InOrderConfig shuttle();
};

/** Scoreboard timing model for an in-order scalar pipeline. */
class InOrderCore : public TimingModel
{
  public:
    explicit InOrderCore(InOrderConfig cfg) : cfg_(std::move(cfg)) {}

    TimingResult runAos(const isa::Program &prog) const override;

    /**
     * Scalar lane loop: one column pass advances one scoreboard per
     * InOrderCore in @p models. Panics on a model of another family.
     */
    std::vector<TimingResult>
    runStreamBatch(const isa::UopStreamView &view,
                   const std::vector<const TimingModel *> &models)
        const override;

    std::string name() const override { return cfg_.name; }

    std::string cacheKey() const override;

    const InOrderConfig &config() const { return cfg_; }

    /**
     * AoS oracle entry point, shared with the Saturn and Gemmini
     * oracles: simulates only scalar uops, invoking @p coproc for
     * non-scalar kinds. @p coproc receives the uop and the cycle at
     * which the frontend presents it and returns the cycle at which
     * the frontend may proceed (allowing coprocessor back-pressure)
     * plus the op's completion cycle.
     */
    template <typename CoprocFn>
    TimingResult runWithCoproc(const isa::Program &prog,
                               CoprocFn &&coproc) const;

  private:
    InOrderConfig cfg_;
};

} // namespace rtoc::cpu

#include "cpu/inorder_impl.hh"

#endif // RTOC_CPU_INORDER_HH
