#include "inorder.hh"

#include "common/logging.hh"

namespace rtoc::cpu {

InOrderConfig
InOrderConfig::rocket()
{
    InOrderConfig c;
    c.name = "rocket";
    c.issueWidth = 1;
    c.fpuCount = 1;
    c.memPorts = 1;
    return c;
}

InOrderConfig
InOrderConfig::shuttle()
{
    InOrderConfig c;
    c.name = "shuttle";
    c.issueWidth = 2;
    c.fpuCount = 1;
    c.memPorts = 1;
    return c;
}

TimingResult
InOrderCore::runAos(const isa::Program &prog) const
{
    return runWithCoproc(
        prog,
        [this](const isa::Uop &u, uint64_t, RegReadyFile &,
               RegReadyFile &) -> std::pair<uint64_t, uint64_t> {
            rtoc_panic("scalar core '%s' given coprocessor uop %s",
                       cfg_.name.c_str(), isa::uopName(u.kind));
        });
}

std::vector<TimingResult>
InOrderCore::runStreamBatch(
    const isa::UopStreamView &view,
    const std::vector<const TimingModel *> &models) const
{
    std::vector<InOrderConfig> cfgs;
    for (const InOrderCore *core :
         familyGroup<InOrderCore>(models, "in-order"))
        cfgs.push_back(core->config());
    // Pure scalar replay: any coprocessor uop is a programming error.
    auto coproc = [this](const isa::UopStreamView &v, size_t i,
                         const uint64_t *, uint64_t *, uint64_t *,
                         const BatchRegFiles &) {
        rtoc_panic("scalar core '%s' given coprocessor uop %s",
                   cfg_.name.c_str(), isa::uopName(v.kind[i]));
    };
    if (cfgs.size() == 1)
        return runInOrderStreamBatchWithCoproc<1>(view, cfgs, coproc);
    return runInOrderStreamBatchWithCoproc<0>(view, cfgs, coproc);
}

std::string
InOrderCore::cacheKey() const
{
    std::string key =
        csprintf("inorder:%s:iw%d:fpu%d:mp%d:ld%d:fp%d:div%d:"
                 "imul%d:bb%d",
                 cfg_.name.c_str(), cfg_.issueWidth, cfg_.fpuCount,
                 cfg_.memPorts, cfg_.loadLatency, cfg_.fpLatency,
                 cfg_.fpDivLatency, cfg_.intMulLatency,
                 cfg_.branchBubble);
    // Only an explicit override is encoded: the derived default keeps
    // every historical key (and cached cell) byte-identical.
    if (cfg_.fpNarrowLatency > 0)
        key += csprintf(":fpn%d", cfg_.fpNarrowLatency);
    return key;
}

} // namespace rtoc::cpu
