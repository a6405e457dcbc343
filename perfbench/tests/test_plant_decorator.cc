/**
 * @file
 * Self-test of the benchmark's forwarding plant decorator: an episode
 * flown through TimedPlant must be bit-identical to the same episode
 * on the bare plant, for every registry plant, on the fixed-trim f32
 * path, a narrow format and a relinearizing policy (which exercises
 * the forwarded linearizeAt). Exits 1 on the first difference.
 *
 * The disk cache is switched off before any rtoc call, so the test
 * never reads or writes a cache directory.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "hil/episode.hh"
#include "hil/timing.hh"
#include "plant/registry.hh"
#include "timed_plant.hh"

using namespace rtoc;

namespace {

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

bool
sameSamples(const Distribution &a, const Distribution &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (!sameBits(a.samples()[i], b.samples()[i]))
            return false;
    }
    return true;
}

bool
identical(const hil::EpisodeResult &a, const hil::EpisodeResult &b)
{
    return a.success == b.success && a.crashed == b.crashed &&
           a.waypointsReached == b.waypointsReached &&
           sameBits(a.missionTimeS, b.missionTimeS) &&
           sameSamples(a.solveTimesS, b.solveTimesS) &&
           sameSamples(a.iterations, b.iterations) &&
           sameBits(a.rotorEnergyJ, b.rotorEnergyJ) &&
           sameBits(a.socEnergyJ, b.socEnergyJ) &&
           sameBits(a.computeUtilization, b.computeUtilization) &&
           a.modelRefreshes == b.modelRefreshes &&
           a.refreshFailures == b.refreshFailures &&
           sameBits(a.trackingErrM, b.trackingErrM) &&
           a.divergedSolves == b.divergedSolves &&
           a.quantSats == b.quantSats && a.accSats == b.accSats;
}

} // namespace

int
main()
{
    setenv("RTOC_CACHE", "0", 1);
    struct Variant
    {
        const char *label;
        matlib::NumericFormat fmt;
        int relinK;
    };
    const Variant variants[] = {{"f32/trim", matlib::NumericFormat::F32, 0},
                                {"i16/trim", matlib::NumericFormat::I16, 0},
                                {"f32/K5", matlib::NumericFormat::F32, 5}};

    int failures = 0, cases = 0;
    for (const plant::ScenarioSpec &spec :
         plant::ScenarioRegistry::global().specs()) {
        if (spec.difficulty != plant::Difficulty::Medium)
            continue; // clean and gusty medium per plant
        for (const Variant &v : variants) {
            hil::HilConfig cfg;
            cfg.format = v.fmt;
            cfg.relin.everyK = v.relinK;
            cfg.timing = hil::namedControllerTiming(
                "scalar", *spec.prototype, cfg.controlPeriodS, cfg.horizon,
                v.relinK > 0, v.fmt);
            const plant::Scenario sc = spec.makeScenario(1);

            std::unique_ptr<plant::Plant> bare = spec.makePlant();
            hil::EpisodeResult want = hil::runEpisode(*bare, sc, cfg);

            std::unique_ptr<plant::Plant> inner = spec.makePlant();
            std::vector<uint32_t> step_ns;
            perfbench::TimedPlant timed(*inner, step_ns);
            hil::EpisodeResult got = hil::runEpisode(timed, sc, cfg);

            ++cases;
            const bool ok = identical(want, got) && !step_ns.empty();
            if (!ok)
                ++failures;
            std::printf("%-4s %s %s (%zu steps timed)\n",
                        ok ? "ok" : "FAIL", spec.id.c_str(), v.label,
                        step_ns.size());
        }
    }
    std::printf("%d/%d decorator cases bit-identical\n", cases - failures,
                cases);
    return failures == 0 && cases > 0 ? 0 : 1;
}
