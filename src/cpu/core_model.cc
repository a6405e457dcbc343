#include "core_model.hh"

#include "common/logging.hh"

namespace rtoc::cpu {

std::vector<uint64_t>
attributeRegions(const isa::Program &prog,
                 const std::vector<uint64_t> &finish)
{
    const auto &uops = prog.uops();
    if (finish.size() != uops.size())
        rtoc_panic("attributeRegions: finish array size mismatch");
    if (prog.kernelOpen()) {
        rtoc_panic("attributeRegions: kernel region '%s' still open — "
                   "close it (endKernel) before timing the program",
                   prog.kernels().back().name().c_str());
    }

    // Running max completion up to and including index i; the prefix
    // array is thread-local so repeated replays of cached programs do
    // not reallocate it.
    static thread_local std::vector<uint64_t> prefix_max;
    prefix_max.assign(uops.size() + 1, 0);
    for (size_t i = 0; i < uops.size(); ++i)
        prefix_max[i + 1] = std::max(prefix_max[i], finish[i]);

    std::vector<uint64_t> out;
    out.reserve(prog.kernels().size());
    for (const auto &region : prog.kernels()) {
        uint64_t before = prefix_max[region.begin];
        uint64_t after = prefix_max[region.end];
        out.push_back(after - before);
    }
    return out;
}

RegionAttributor::RegionAttributor(const isa::Program &prog)
    : regions_(&prog.kernels())
{
    if (prog.kernelOpen()) {
        rtoc_panic("RegionAttributor: kernel region '%s' still open — "
                   "close it (endKernel) before timing the program",
                   prog.kernels().back().name().c_str());
    }
    out_.reserve(regions_->size());
}

std::vector<uint64_t>
RegionAttributor::finish(size_t n_uops)
{
    closeUpTo(n_uops);
    if (out_.size() != regions_->size()) {
        rtoc_panic("RegionAttributor: closed %zu of %zu regions",
                   out_.size(), regions_->size());
    }
    return std::move(out_);
}

} // namespace rtoc::cpu
