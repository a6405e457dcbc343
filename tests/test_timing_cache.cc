/**
 * @file
 * Tests for the columnar micro-op stream refactor and the persistent
 * program/calibration cache: SoA-vs-AoS bit-exact cycle counts on all
 * four timing-model families x mapping styles, column/view fidelity,
 * disk round-trips (cold write -> warm read with zero re-emissions),
 * corrupt and fingerprint-mismatched file rejection, the RTOC_CACHE=0
 * bypass, and registry-driven episode counts.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "cpu/inorder.hh"
#include "cpu/ooo.hh"
#include "hil/timing.hh"
#include "isa/disk_cache.hh"
#include "isa/program_cache.hh"
#include "matlib/gemmini_backend.hh"
#include "matlib/rvv_backend.hh"
#include "matlib/scalar_backend.hh"
#include "plant/quad_plant.hh"
#include "plant/registry.hh"
#include "systolic/gemmini.hh"
#include "vector/saturn.hh"

namespace rtoc {
namespace {

std::string
makeTempDir()
{
    char tmpl[] = "/tmp/rtoc-cache-test-XXXXXX";
    const char *dir = mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    return dir ? dir : "/tmp/rtoc-cache-test-fallback";
}

bool
samePrograms(const isa::Program &a, const isa::Program &b)
{
    if (a.size() != b.size() || a.kernels().size() != b.kernels().size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        const isa::Uop &x = a.uops()[i];
        const isa::Uop &y = b.uops()[i];
        if (x.kind != y.kind || x.dst != y.dst || x.src0 != y.src0 ||
            x.src1 != y.src1 || x.src2 != y.src2 || x.vl != y.vl ||
            x.sew != y.sew || x.lmul8 != y.lmul8 ||
            x.bytes != y.bytes || x.rows != y.rows ||
            x.cols != y.cols || x.taken != y.taken) {
            return false;
        }
    }
    for (size_t i = 0; i < a.kernels().size(); ++i) {
        const auto &ka = a.kernels()[i];
        const auto &kb = b.kernels()[i];
        if (ka.id != kb.id || ka.begin != kb.begin || ka.end != kb.end)
            return false;
    }
    return true;
}

void
expectSameResult(const cpu::TimingResult &got,
                 const cpu::TimingResult &aos, const std::string &label)
{
    EXPECT_EQ(static_cast<uint64_t>(got.cycles),
              static_cast<uint64_t>(aos.cycles))
        << label;
    ASSERT_EQ(got.regionCycles.size(), aos.regionCycles.size()) << label;
    for (size_t i = 0; i < got.regionCycles.size(); ++i) {
        ASSERT_EQ(got.regionCycles[i], aos.regionCycles[i])
            << label << " region " << i;
    }
}

/**
 * The columnar engine against the AoS oracle: each model's one-lane
 * run() and its lane of one group replay over @p family (models of
 * one family) must reproduce runAos bit-for-bit.
 */
void
expectRunsMatch(const std::vector<const cpu::TimingModel *> &family,
                const isa::Program &prog, const std::string &label)
{
    std::vector<cpu::TimingResult> group =
        family.front()->runStreamBatch(prog.stream(), family);
    ASSERT_EQ(group.size(), family.size()) << label;
    for (size_t i = 0; i < family.size(); ++i) {
        const cpu::TimingResult aos = family[i]->runAos(prog);
        const std::string tag = label + " " + family[i]->name();
        expectSameResult(family[i]->run(prog), aos, tag + " one-lane");
        expectSameResult(group[i], aos, tag + " group lane");
    }
}

/** The int16 stream of @p backend: the narrow-format oracle input. */
isa::Program
narrowSolve(matlib::Backend &backend, tinympc::MappingStyle style)
{
    backend.setFormat(matlib::NumericFormat::I16);
    return bench::emitQuadSolve(backend, style, 2);
}

// --- SoA vs AoS bit-exactness, all four model families ---

TEST(UopStream, SoaMatchesAosOnScalarModels)
{
    using tinympc::MappingStyle;
    cpu::InOrderCore rocket(cpu::InOrderConfig::rocket());
    cpu::InOrderCore shuttle(cpu::InOrderConfig::shuttle());
    cpu::OooCore small(cpu::OooConfig::boomSmall());
    cpu::OooCore mega(cpu::OooConfig::boomMega());
    auto check = [&](const isa::Program &prog, const std::string &tag) {
        expectRunsMatch({&rocket, &shuttle}, prog, "in-order " + tag);
        expectRunsMatch({&small, &mega}, prog, "boom " + tag);
    };
    for (auto style : {MappingStyle::Library, MappingStyle::LibraryPerStep,
                       MappingStyle::Fused}) {
        matlib::ScalarBackend b(matlib::ScalarFlavor::Optimized);
        check(*bench::emitQuadSolveCached(b, style),
              "style " + std::to_string(static_cast<int>(style)));
    }
    matlib::ScalarBackend nb(matlib::ScalarFlavor::Optimized);
    check(narrowSolve(nb, MappingStyle::Library), "i16");
}

TEST(UopStream, SoaMatchesAosOnSaturn)
{
    using tinympc::MappingStyle;
    vector::SaturnModel rocket_fe(vector::SaturnConfig::make(512, 256, false));
    vector::SaturnModel shuttle_fe(vector::SaturnConfig::make(512, 256, true));
    const std::vector<const cpu::TimingModel *> family = {&rocket_fe,
                                                          &shuttle_fe};
    for (auto style : {MappingStyle::Library, MappingStyle::LibraryPerStep,
                       MappingStyle::Fused}) {
        matlib::RvvBackend b(512, matlib::RvvMapping::handOptimized());
        expectRunsMatch(family, *bench::emitQuadSolveCached(b, style),
                        "saturn style " +
                            std::to_string(static_cast<int>(style)));
    }
    matlib::RvvBackend nb(512, matlib::RvvMapping::handOptimized());
    expectRunsMatch(family, narrowSolve(nb, MappingStyle::Fused),
                    "saturn i16");
}

TEST(UopStream, SoaMatchesAosOnGemmini)
{
    using tinympc::MappingStyle;
    systolic::GemminiModel os(systolic::GemminiConfig::os4x4(64));
    systolic::GemminiModel ws(systolic::GemminiConfig::ws4x4(64));
    systolic::GemminiModel hw(systolic::GemminiConfig::os4x4HwGemv(64));
    const std::vector<const cpu::TimingModel *> family = {&os, &ws, &hw};
    for (auto style :
         {MappingStyle::Library, MappingStyle::LibraryPerStep}) {
        matlib::GemminiBackend b(matlib::GemminiMapping::fullyOptimized());
        expectRunsMatch(family, *bench::emitQuadSolveCached(b, style),
                        "gemmini style " +
                            std::to_string(static_cast<int>(style)));
    }
    matlib::GemminiBackend nb(matlib::GemminiMapping::fullyOptimized());
    expectRunsMatch(family, narrowSolve(nb, MappingStyle::Library),
                    "gemmini i16");
}

// --- column store fidelity ---

TEST(UopStream, ViewColumnsMirrorAosFields)
{
    matlib::RvvBackend b(512, matlib::RvvMapping::handOptimized());
    auto prog =
        bench::emitQuadSolveCached(b, tinympc::MappingStyle::Fused);
    isa::UopStreamView v = prog->stream();
    ASSERT_EQ(v.n, prog->size());
    EXPECT_EQ(v.program, prog.get());
    for (size_t i = 0; i < v.n; ++i) {
        const isa::Uop &u = prog->uops()[i];
        ASSERT_EQ(v.kind[i], u.kind) << i;
        ASSERT_EQ(v.cls[i], isa::decodeClass(u.kind)) << i;
        ASSERT_EQ((v.cls[i] & isa::kClsScalar) != 0, isa::isScalar(u.kind))
            << i;
        ASSERT_EQ(v.dst[i], u.dst) << i;
        ASSERT_EQ(v.src0[i], u.src0) << i;
        ASSERT_EQ(v.src1[i], u.src1) << i;
        ASSERT_EQ(v.src2[i], u.src2) << i;
        ASSERT_EQ(v.vl[i], u.vl) << i;
        ASSERT_EQ(v.sew[i], u.sew) << i;
        ASSERT_EQ(v.lmul8[i], u.lmul8) << i;
        ASSERT_EQ(v.bytes[i], u.bytes) << i;
        ASSERT_EQ(v.rows[i], u.rows) << i;
        ASSERT_EQ(v.cols[i], u.cols) << i;
        ASSERT_EQ(v.taken[i], u.taken) << i;
    }
}

TEST(UopStream, MutationInvalidatesColumns)
{
    isa::Program p;
    p.push(isa::Uop::scalar(isa::UopKind::IntAlu, p.newReg()));
    isa::UopStreamView v1 = p.stream();
    EXPECT_EQ(v1.n, 1u);
    p.push(isa::Uop::scalar(isa::UopKind::FpAdd, p.newReg()));
    isa::UopStreamView v2 = p.stream();
    EXPECT_EQ(v2.n, 2u);
    EXPECT_EQ(v2.kind[1], isa::UopKind::FpAdd);

    // Copies rebuild their own columns.
    isa::Program q(p);
    isa::UopStreamView vq = q.stream();
    EXPECT_EQ(vq.n, 2u);
    EXPECT_EQ(vq.program, &q);
    EXPECT_NE(q.id(), p.id());
}

// --- program serialization + disk cache ---

TEST(DiskCache, ProgramPayloadRoundTrip)
{
    matlib::GemminiBackend b(matlib::GemminiMapping::fullyOptimized());
    isa::Program prog =
        bench::emitQuadSolve(b, tinympc::MappingStyle::Library, 2);
    std::string payload = isa::encodeProgram(prog);
    auto back = isa::decodeProgram(payload);
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(samePrograms(prog, *back));
    EXPECT_EQ(back->scalarRegCount(), prog.scalarRegCount());
    EXPECT_EQ(back->vectorRegCount(), prog.vectorRegCount());
}

TEST(DiskCache, MalformedPayloadRejected)
{
    EXPECT_FALSE(isa::decodeProgram("").has_value());
    EXPECT_FALSE(isa::decodeProgram("garbage").has_value());
    // A valid payload truncated mid-stream must not decode.
    matlib::ScalarBackend b(matlib::ScalarFlavor::Optimized);
    isa::Program prog =
        bench::emitQuadSolve(b, tinympc::MappingStyle::Library, 2);
    std::string payload = isa::encodeProgram(prog);
    EXPECT_FALSE(
        isa::decodeProgram(payload.substr(0, payload.size() / 2))
            .has_value());
}

TEST(DiskCache, ColdWriteWarmReadWithZeroEmissions)
{
    const std::string dir = makeTempDir();
    isa::DiskCache disk(dir, "test-fp");

    // Cold process: the emitter runs once and the stream is persisted.
    isa::ProgramCache cold(&disk);
    int emissions = 0;
    auto emit = [&](isa::Program &p) {
        ++emissions;
        matlib::ScalarBackend b(matlib::ScalarFlavor::Optimized);
        p = bench::emitQuadSolve(b, tinympc::MappingStyle::Library, 2);
    };
    auto first = cold.getOrEmit("k", emit);
    EXPECT_EQ(emissions, 1);
    EXPECT_EQ(cold.stats().emissions, 1u);
    EXPECT_EQ(disk.stats().writes, 1u);

    // Warm process (fresh in-memory cache, same directory): the
    // stream comes back bit-identical without invoking the emitter.
    isa::ProgramCache warm(&disk);
    auto second = warm.getOrEmit("k", [&](isa::Program &) {
        ADD_FAILURE() << "warm read must not re-emit";
    });
    ASSERT_TRUE(second != nullptr);
    EXPECT_TRUE(samePrograms(*first, *second));
    EXPECT_EQ(warm.stats().emissions, 0u);
    EXPECT_EQ(warm.stats().diskHits, 1u);
}

TEST(DiskCache, CorruptFileRejectedAndRegenerated)
{
    const std::string dir = makeTempDir();
    isa::DiskCache disk(dir, "test-fp");
    isa::ProgramCache cold(&disk);
    auto emit = [&](isa::Program &p) {
        matlib::ScalarBackend b(matlib::ScalarFlavor::Optimized);
        p = bench::emitQuadSolve(b, tinympc::MappingStyle::Library, 2);
    };
    auto first = cold.getOrEmit("k", emit);

    // Flip bytes in the middle of the file: the checksum must reject
    // it, delete it, and the next process regenerates.
    const std::string path = disk.pathFor("prog", "k");
    {
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.good());
        f.seekp(200);
        f.write("\xde\xad\xbe\xef", 4);
    }
    isa::DiskCache disk2(dir, "test-fp");
    isa::ProgramCache warm(&disk2);
    int emissions = 0;
    auto reemit = [&](isa::Program &p) {
        ++emissions;
        matlib::ScalarBackend b(matlib::ScalarFlavor::Optimized);
        p = bench::emitQuadSolve(b, tinympc::MappingStyle::Library, 2);
    };
    auto second = warm.getOrEmit("k", reemit);
    EXPECT_EQ(emissions, 1);
    EXPECT_EQ(disk2.stats().rejected, 1u);
    EXPECT_TRUE(samePrograms(*first, *second));

    // The regenerated file is valid again.
    isa::DiskCache disk3(dir, "test-fp");
    isa::ProgramCache again(&disk3);
    auto third = again.getOrEmit("k", [&](isa::Program &) {
        ADD_FAILURE() << "regenerated file must serve the warm read";
    });
    EXPECT_TRUE(samePrograms(*first, *third));
}

TEST(DiskCache, FingerprintMismatchInvalidates)
{
    const std::string dir = makeTempDir();
    isa::DiskCache old_build(dir, "fingerprint-A");
    old_build.put("prog", "k", "payload-bytes");
    ASSERT_TRUE(old_build.get("prog", "k").has_value());

    // A different build fingerprint must treat the file as stale.
    isa::DiskCache new_build(dir, "fingerprint-B");
    EXPECT_FALSE(new_build.get("prog", "k").has_value());
    EXPECT_EQ(new_build.stats().rejected, 1u);
    // ... and the stale file is gone, so the next probe is a miss.
    isa::DiskCache probe(dir, "fingerprint-B");
    EXPECT_FALSE(probe.get("prog", "k").has_value());
    EXPECT_EQ(probe.stats().misses, 1u);
}

TEST(DiskCache, EnvControls)
{
    // Preserve the ambient configuration.
    const char *old_cache = std::getenv("RTOC_CACHE");
    const char *old_dir = std::getenv("RTOC_CACHE_DIR");
    std::string saved_cache = old_cache ? old_cache : "";
    std::string saved_dir = old_dir ? old_dir : "";

    setenv("RTOC_CACHE_DIR", "/tmp/rtoc-env-test", 1);
    unsetenv("RTOC_CACHE");
    isa::DiskCache enabled = isa::DiskCache::fromEnv();
    EXPECT_TRUE(enabled.enabled());
    EXPECT_EQ(enabled.dir(), "/tmp/rtoc-env-test");

    // RTOC_CACHE=0 bypasses persistence even with a directory set.
    setenv("RTOC_CACHE", "0", 1);
    isa::DiskCache disabled = isa::DiskCache::fromEnv();
    EXPECT_FALSE(disabled.enabled());
    disabled.put("prog", "k", "payload");
    EXPECT_FALSE(disabled.get("prog", "k").has_value());
    EXPECT_EQ(disabled.stats().writes, 0u);

    if (!saved_cache.empty())
        setenv("RTOC_CACHE", saved_cache.c_str(), 1);
    else
        unsetenv("RTOC_CACHE");
    if (!saved_dir.empty())
        setenv("RTOC_CACHE_DIR", saved_dir.c_str(), 1);
    else
        unsetenv("RTOC_CACHE_DIR");
}

// --- calibration persistence ---

TEST(CalibCache, TimingPayloadRoundTrip)
{
    hil::ControllerTiming t;
    t.archName = "shuttle";
    t.mappingName = "scalar-opt";
    t.baseCycles = 12345.6789;
    t.cyclesPerIter = 98765.4321;
    auto back = hil::decodeTiming(hil::encodeTiming(t));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->archName, t.archName);
    EXPECT_EQ(back->mappingName, t.mappingName);
    EXPECT_EQ(back->baseCycles, t.baseCycles);
    EXPECT_EQ(back->cyclesPerIter, t.cyclesPerIter);
    EXPECT_FALSE(hil::decodeTiming("junk").has_value());
}

TEST(CalibCache, ColdWriteWarmReadIdenticalTiming)
{
    const std::string dir = makeTempDir();
    isa::DiskCache disk(dir, "test-fp");
    plant::QuadrotorPlant plant;
    cpu::InOrderCore shuttle(cpu::InOrderConfig::shuttle());
    matlib::ScalarBackend backend(matlib::ScalarFlavor::Optimized);

    hil::CalibCacheStats before = hil::calibCacheStats();
    hil::ControllerTiming cold = hil::calibrateTiming(
        shuttle, backend, tinympc::MappingStyle::Library, plant, 0.02,
        10, &disk);
    hil::CalibCacheStats mid = hil::calibCacheStats();
    EXPECT_EQ(mid.computes, before.computes + 1);
    EXPECT_EQ(disk.stats().writes, 1u);

    // Warm read: served from disk, bit-identical fit, no replay.
    hil::ControllerTiming warm = hil::calibrateTiming(
        shuttle, backend, tinympc::MappingStyle::Library, plant, 0.02,
        10, &disk);
    hil::CalibCacheStats after = hil::calibCacheStats();
    EXPECT_EQ(after.computes, mid.computes);
    EXPECT_EQ(after.diskHits, mid.diskHits + 1);
    EXPECT_EQ(warm.archName, cold.archName);
    EXPECT_EQ(warm.mappingName, cold.mappingName);
    EXPECT_EQ(warm.baseCycles, cold.baseCycles);
    EXPECT_EQ(warm.cyclesPerIter, cold.cyclesPerIter);

    // A corrupt calibration file is rejected and recomputed to the
    // same deterministic fit.
    const std::string path = disk.pathFor(
        "calib", csprintf("%s|%s|style%d|nx%d|nu%d|dt%.17g|h%d",
                          shuttle.cacheKey().c_str(),
                          backend.cacheKey().c_str(),
                          static_cast<int>(
                              tinympc::MappingStyle::Library),
                          plant.nx(), plant.nu(), 0.02, 10));
    {
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.good());
        f.seekp(30);
        f.write("\x42\x42", 2);
    }
    isa::DiskCache disk2(dir, "test-fp");
    hil::ControllerTiming redo = hil::calibrateTiming(
        shuttle, backend, tinympc::MappingStyle::Library, plant, 0.02,
        10, &disk2);
    EXPECT_EQ(disk2.stats().rejected, 1u);
    EXPECT_EQ(redo.baseCycles, cold.baseCycles);
    EXPECT_EQ(redo.cyclesPerIter, cold.cyclesPerIter);

    // nullptr bypasses persistence entirely.
    hil::CalibCacheStats pre_null = hil::calibCacheStats();
    hil::ControllerTiming direct = hil::calibrateTiming(
        shuttle, backend, tinympc::MappingStyle::Library, plant, 0.02,
        10, nullptr);
    EXPECT_EQ(hil::calibCacheStats().computes, pre_null.computes + 1);
    EXPECT_EQ(direct.baseCycles, cold.baseCycles);
}

// --- registry-driven episode counts ---

TEST(Registry, SpecsCarryEpisodeCounts)
{
    auto specs = plant::ScenarioRegistry::global().specs();
    ASSERT_FALSE(specs.empty());
    for (const auto &s : specs)
        EXPECT_EQ(s.episodes, s.prototype->defaultEpisodes()) << s.id;

    // An explicit spec may override the plant default, and find()
    // surfaces it to sweep drivers.
    plant::ScenarioSpec custom = specs.front();
    custom.id = "quadrotor-episode-override-test";
    custom.episodes = 3;
    plant::ScenarioRegistry::global().addSpec(custom);
    auto found = plant::ScenarioRegistry::global().find(
        "quadrotor-episode-override-test");
    ASSERT_TRUE(found != nullptr);
    EXPECT_EQ(found->episodes, 3);
}

} // namespace
} // namespace rtoc
