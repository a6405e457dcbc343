/**
 * @file
 * TimedPlant: a forwarding plant::Plant decorator that times every
 * step() of the wrapped plant with the host steady clock. Every other
 * call forwards unchanged, so an episode flown through the decorator
 * is bit-identical to one flown on the bare plant; only the extra
 * clock reads cost host time (the benchmark uses it in traced runs
 * only, where that cost lands in obs.trace_overhead_frac).
 */

#ifndef RTOC_PERFBENCH_TIMED_PLANT_HH
#define RTOC_PERFBENCH_TIMED_PLANT_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "plant/plant.hh"

namespace rtoc::perfbench {

class TimedPlant : public plant::Plant
{
  public:
    /** Wrap @p inner (not owned); samples land in @p step_ns. */
    TimedPlant(plant::Plant &inner, std::vector<uint32_t> &step_ns)
        : inner_(inner), stepNs_(step_ns)
    {}

    std::string name() const override { return inner_.name(); }
    std::string cacheKey() const override { return inner_.cacheKey(); }
    int nx() const override { return inner_.nx(); }
    int nu() const override { return inner_.nu(); }
    std::unique_ptr<plant::Plant> clone() const override
    {
        return inner_.clone();
    }

    void reset() override { inner_.reset(); }

    void
    step(const std::vector<double> &cmd, double dt) override
    {
        const auto t0 = std::chrono::steady_clock::now();
        inner_.step(cmd, dt);
        const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
        stepNs_.push_back(static_cast<uint32_t>(ns));
    }

    double timeS() const override { return inner_.timeS(); }
    bool crashed() const override { return inner_.crashed(); }
    double actuationEnergyJ() const override
    {
        return inner_.actuationEnergyJ();
    }
    bool supportsWrench() const override
    {
        return inner_.supportsWrench();
    }
    void applyWrench(const plant::Wrench &w) override
    {
        inner_.applyWrench(w);
    }

    std::vector<double> trimCommand() const override
    {
        return inner_.trimCommand();
    }
    std::vector<double> commandMin() const override
    {
        return inner_.commandMin();
    }
    std::vector<double> commandMax() const override
    {
        return inner_.commandMax();
    }
    std::vector<double> commandFromDelta(const float *du) const override
    {
        return inner_.commandFromDelta(du);
    }

    std::vector<double> trimState() const override
    {
        return inner_.trimState();
    }
    void modelDeriv(const double *x, const double *du,
                    double *dxdt) const override
    {
        inner_.modelDeriv(x, du, dxdt);
    }
    plant::LinearModel linearize(double dt) const override
    {
        return inner_.linearize(dt);
    }
    plant::LinearModel linearizeAt(const double *x, const double *du,
                                   double dt) const override
    {
        return inner_.linearizeAt(x, du, dt);
    }
    plant::Weights mpcWeights() const override
    {
        return inner_.mpcWeights();
    }
    tinympc::Workspace buildWorkspace(double dt,
                                      int horizon) const override
    {
        return inner_.buildWorkspace(dt, horizon);
    }
    void packState(float *x) const override { inner_.packState(x); }
    std::vector<float> reference(const plant::Vec3 &wp) const override
    {
        return inner_.reference(wp);
    }

    plant::Vec3 home() const override { return inner_.home(); }
    double distanceTo(const plant::Vec3 &wp) const override
    {
        return inner_.distanceTo(wp);
    }
    double reachRadius() const override { return inner_.reachRadius(); }
    double settleS() const override { return inner_.settleS(); }

    plant::DifficultySpec difficultySpec(plant::Difficulty d) const override
    {
        return inner_.difficultySpec(d);
    }
    plant::Scenario makeScenario(plant::Difficulty d,
                                 int index) const override
    {
        return inner_.makeScenario(d, index);
    }
    int defaultEpisodes() const override
    {
        return inner_.defaultEpisodes();
    }

  private:
    plant::Plant &inner_;
    std::vector<uint32_t> &stepNs_;
};

} // namespace rtoc::perfbench

#endif // RTOC_PERFBENCH_TIMED_PLANT_HH
