/**
 * @file
 * Numeric-format axis tests: the fx:: kernels match an element-wise
 * oracle bit for bit (outputs and saturation counters, on grid edges,
 * non-finite values, accumulator overflow and aliased operands),
 * out-of-range shift schedules are rejected, fixed-point kernels stay
 * within the error bounds their Q-format schedules imply, saturation
 * telemetry fires on engineered overflow, the float32 path is
 * bit-identical whether the format is defaulted or set explicitly,
 * pinned narrow-format episodes (bf16/i32/i16, with saturation counts
 * and relinearizing refreshes) reproduce their golden outputs,
 * narrow streams survive schedule search and batched replay
 * bit-exactly, formats round-trip through the program codec / disk
 * cache under distinct keys, and the DSE format axis enumerates
 * without disturbing the single-format default.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bench_util.hh"
#include "common/random.hh"
#include "cpu/inorder.hh"
#include "dse/design_space.hh"
#include "hil/episode.hh"
#include "hil/timing.hh"
#include "isa/disk_cache.hh"
#include "isa/program_cache.hh"
#include "isa/sched_search.hh"
#include "isa/schedule.hh"
#include "matlib/fixed.hh"
#include "matlib/gemmini_backend.hh"
#include "matlib/rvv_backend.hh"
#include "matlib/scalar_backend.hh"
#include "plant/cartpole.hh"
#include "plant/quad_plant.hh"
#include "plant/registry.hh"
#include "plant/rocket.hh"
#include "plant/rover.hh"
#include "systolic/gemmini.hh"
#include "vector/saturn.hh"

namespace rtoc {
namespace {

using matlib::Mat;
using matlib::NumericFormat;
namespace fx = matlib::fx;

/** Owned random-filled matrix with entries in [-scale, scale]. */
struct TestMat
{
    std::vector<float> data;
    int rows, cols;

    TestMat(int r, int c, Rng &rng, float scale = 1.0f)
        : data(static_cast<size_t>(r) * c), rows(r), cols(c)
    {
        for (auto &v : data)
            v = static_cast<float>(rng.uniform(-1.0, 1.0)) * scale;
    }

    Mat view() { return {data.data(), rows, cols}; }
};

bool
samePrograms(const isa::Program &a, const isa::Program &b)
{
    if (a.size() != b.size())
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
    return true;
}

std::string
makeTempDir()
{
    char tmpl[] = "/tmp/rtoc-precision-test-XXXXXX";
    const char *dir = mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    return dir ? dir : "/tmp/rtoc-precision-test-fallback";
}

// --- fixed-point kernel error bounds ---

/**
 * Worst-case gemv error the Q-format schedule implies: operand
 * rounding (half an LSB each) amplified through an n-term dot
 * product, plus output-grid rounding. Saturation-free by
 * construction (asserted), so the bound is purely quantization.
 */
double
gemvErrorBound(const fx::KernelSpec &s, int n, double a_max,
               double x_max, double alpha, double beta)
{
    double ea = std::ldexp(0.5, -s.aFrac); // operand LSB/2
    double ex = std::ldexp(0.5, -s.xFrac);
    double eo = std::ldexp(0.5, -s.outFrac);
    double dot = n * (a_max * ex + x_max * ea + ea * ex);
    // beta*y is quantized onto the x grid before the accumulate.
    return std::abs(alpha) * dot + std::abs(beta) * ex + 2.0 * eo;
}

TEST(FxKernels, GemvWithinDerivedBound)
{
    for (NumericFormat f : {NumericFormat::I16, NumericFormat::I32}) {
        Rng rng(7);
        const int n = 12;
        TestMat a(n, n, rng), x(1, n, rng), y(1, n, rng);
        TestMat y_ref = y;

        fx::Scaling s = fx::Scaling::forRanges(f, 1.0, 1.0,
                                               static_cast<double>(n));
        fx::Counters c;
        fx::gemv(f, s, c, y.view(), a.view(), x.view(), 1.0f, 0.5f);
        matlib::ref::gemv(y_ref.view(), a.view(), x.view(), 1.0f, 0.5f);

        EXPECT_EQ(c.quantSats, 0u) << matlib::formatName(f);
        EXPECT_EQ(c.accSats, 0u) << matlib::formatName(f);
        double bound = gemvErrorBound(s.gemv, n, 1.0, 1.0, 1.0, 0.5);
        // The float32 reference rounds too: when the fixed-point grid
        // is finer than float ulps (int32), its own accumulation
        // error shows up in the comparison.
        double f32_slack = 2.0 * n * std::ldexp(double(n), -23);
        for (int i = 0; i < n; ++i) {
            EXPECT_NEAR(y.view()[i], y_ref.view()[i], bound + f32_slack)
                << matlib::formatName(f) << " elem " << i;
        }
        // int32 must be far tighter than int16 would allow.
        if (f == NumericFormat::I32)
            EXPECT_LT(bound, 1e-5);
    }
}

TEST(FxKernels, GemvTAndSaxpbyWithinDerivedBound)
{
    Rng rng(11);
    const int n = 10;
    TestMat a(n, n, rng), x(1, n, rng), y(1, n, rng);
    TestMat y_ref = y;
    fx::Scaling s = fx::Scaling::forRanges(NumericFormat::I16, 1.0, 1.0,
                                           static_cast<double>(n));
    fx::Counters c;
    fx::gemvT(NumericFormat::I16, s, c, y.view(), a.view(), x.view(),
              0.7f, 1.0f);
    matlib::ref::gemvT(y_ref.view(), a.view(), x.view(), 0.7f, 1.0f);
    EXPECT_EQ(c.accSats, 0u);
    double bound = gemvErrorBound(s.gemvT, n, 1.0, 1.0, 0.7, 1.0);
    for (int i = 0; i < n; ++i)
        EXPECT_NEAR(y.view()[i], y_ref.view()[i], bound) << i;

    TestMat u(1, n, rng), v(1, n, rng), out(1, n, rng);
    TestMat out_ref = out;
    fx::saxpby(NumericFormat::I16, s, c, out.view(), 0.5f, u.view(),
               -0.25f, v.view());
    matlib::ref::saxpby(out_ref.view(), 0.5f, u.view(), -0.25f,
                        v.view());
    double sb = gemvErrorBound(s.saxpby, 1, 1.0, 1.0, 0.5, 0.25);
    for (int i = 0; i < n; ++i)
        EXPECT_NEAR(out.view()[i], out_ref.view()[i], sb) << i;
}

TEST(FxKernels, Bf16TracksFloatAtHalfMantissa)
{
    Rng rng(3);
    const int n = 12;
    TestMat a(n, n, rng), x(1, n, rng), y(1, n, rng);
    TestMat y_ref = y;
    fx::Scaling s; // unused by bf16
    fx::Counters c;
    fx::gemv(NumericFormat::BF16, s, c, y.view(), a.view(), x.view(),
             1.0f, 0.0f);
    matlib::ref::gemv(y_ref.view(), a.view(), x.view(), 1.0f, 0.0f);
    EXPECT_EQ(c.quantSats + c.accSats, 0u); // bf16 never saturates
    // 8-bit mantissa: relative 2^-8 per operand through an n-term dot.
    double bound = n * 2.0 * std::ldexp(1.0, -8) * 1.0 * 1.0 + 1e-6;
    for (int i = 0; i < n; ++i)
        EXPECT_NEAR(y.view()[i], y_ref.view()[i], bound) << i;
}

TEST(FxKernels, SaturationCountersFireOnEngineeredOverflow)
{
    Rng rng(5);
    const int n = 8;
    // Declare ranges of 1.0 but feed operands of magnitude ~100: the
    // quantizer must clamp onto the declared grid.
    TestMat a(n, n, rng, 100.0f), x(1, n, rng), y(1, n, rng);
    fx::Scaling s = fx::Scaling::forRanges(NumericFormat::I16, 1.0, 1.0,
                                           static_cast<double>(n));
    fx::Counters c;
    fx::gemv(NumericFormat::I16, s, c, y.view(), a.view(), x.view(),
             1.0f, 0.0f);
    EXPECT_GT(c.quantSats, 0u);
    for (int i = 0; i < n; ++i)
        EXPECT_TRUE(std::isfinite(y.view()[i])) << i; // clamped, not NaN

    // Same-sign products against a tiny declared accumulator range:
    // the saturating accumulate must clamp (and count).
    TestMat ap(1, 64, rng), xp(1, 64, rng), yp(1, 1, rng);
    for (int i = 0; i < 64; ++i) {
        ap.view()[i] = 0.9f;
        xp.view()[i] = 0.9f;
    }
    fx::Scaling tight =
        fx::Scaling::forRanges(NumericFormat::I16, 1.0, 1.0, 1.0);
    fx::Counters c2;
    fx::gemv(NumericFormat::I16, tight, c2, yp.view(),
             Mat(ap.data.data(), 1, 64), xp.view(), 1.0f, 0.0f);
    EXPECT_GT(c2.accSats, 0u);
}

// --- element-wise oracle of the fx:: kernels ---

/*
 * The historical element-wise fx:: kernels, kept as the oracle the
 * format-specialized kernels must match bit for bit, saturation
 * counters included: quantize every operand per use (the vector once
 * per row), llround on the ldexp-scaled value, and one format branch
 * per element. One deviation: shiftRoundSat is stated in exact 128-bit
 * arithmetic, because its historical form overflowed (undefined
 * behaviour) on a saturated int64 accumulator and on negative shifts.
 */
namespace oracle {

int
magnitudeBits(NumericFormat f)
{
    return f == NumericFormat::I16 ? 15 : 31;
}

int64_t
quantizeSat(NumericFormat f, float v, int frac, uint64_t &sat_count)
{
    const int64_t lim = (int64_t{1} << magnitudeBits(f)) - 1;
    double scaled = static_cast<double>(v) * std::ldexp(1.0, frac);
    if (!std::isfinite(scaled)) {
        ++sat_count;
        return scaled > 0 ? lim : -lim - 1;
    }
    if (scaled >= static_cast<double>(lim)) {
        if (scaled > static_cast<double>(lim))
            ++sat_count;
        return lim;
    }
    if (scaled <= static_cast<double>(-lim - 1)) {
        if (scaled < static_cast<double>(-lim - 1))
            ++sat_count;
        return -lim - 1;
    }
    return std::llround(scaled);
}

float
dequantize(int64_t q, int frac)
{
    return static_cast<float>(std::ldexp(static_cast<double>(q), -frac));
}

int64_t
accAddSat(NumericFormat f, int64_t acc, int64_t prod, uint64_t &sat_count)
{
    if (f == NumericFormat::I16) {
        const int64_t lim = INT32_MAX;
        int64_t sum = acc + prod;
        if (sum > lim) {
            ++sat_count;
            return lim;
        }
        if (sum < -lim - 1) {
            ++sat_count;
            return -lim - 1;
        }
        return sum;
    }
    int64_t sum;
    if (__builtin_add_overflow(acc, prod, &sum)) {
        ++sat_count;
        return acc > 0 ? INT64_MAX : INT64_MIN;
    }
    return sum;
}

int64_t
shiftRoundSat(NumericFormat f, int64_t acc, int shift, uint64_t &sat_count)
{
    __int128 v = acc;
    if (shift > 0) {
        const __int128 half = __int128{1} << (shift - 1);
        v = v >= 0 ? (v + half) >> shift : -((-v + half) >> shift);
    } else if (shift < 0) {
        v *= __int128{1} << -shift; // |acc| <= 2^63, shift >= -30
    }
    const int64_t lim = (int64_t{1} << magnitudeBits(f)) - 1;
    if (v > lim) {
        ++sat_count;
        return lim;
    }
    if (v < -lim - 1) {
        ++sat_count;
        return -lim - 1;
    }
    return static_cast<int64_t>(v);
}

float
fxDot(NumericFormat f, const fx::KernelSpec &s, fx::Counters &c,
      const Mat &a, int row, Mat x, bool transposed)
{
    const int n = x.cols;
    int64_t acc = 0;
    for (int j = 0; j < n; ++j) {
        float av = transposed ? a.at(j, row) : a.at(row, j);
        int64_t qa = quantizeSat(f, av, s.aFrac, c.quantSats);
        int64_t qx = quantizeSat(f, x[j], s.xFrac, c.quantSats);
        acc = accAddSat(f, acc, qa * qx, c.accSats);
    }
    int64_t q = shiftRoundSat(f, acc, s.aFrac + s.xFrac - s.outFrac,
                              c.accSats);
    return dequantize(q, s.outFrac);
}

float
fxStore(NumericFormat f, const fx::KernelSpec &s, fx::Counters &c,
        float v)
{
    return dequantize(quantizeSat(f, v, s.outFrac, c.quantSats),
                      s.outFrac);
}

float
bfDot(const Mat &a, int row, Mat x, bool transposed)
{
    const int n = x.cols;
    float acc = 0.0f;
    for (int j = 0; j < n; ++j) {
        float av = transposed ? a.at(j, row) : a.at(row, j);
        acc += fx::toBf16(av) * fx::toBf16(x[j]);
    }
    return acc;
}

void
gemvAny(NumericFormat f, const fx::Scaling &sc, fx::Counters &c, Mat y,
        const Mat &a, Mat x, float alpha, float beta, bool transposed)
{
    const fx::KernelSpec &s = transposed ? sc.gemvT : sc.gemv;
    const int m = y.cols;
    for (int i = 0; i < m; ++i) {
        if (f == NumericFormat::BF16) {
            float dot = bfDot(a, i, x, transposed);
            y[i] = fx::toBf16(alpha * dot + beta * fx::toBf16(y[i]));
        } else {
            float dot = fxDot(f, s, c, a, i, x, transposed);
            y[i] = fxStore(f, s, c, alpha * dot + beta * y[i]);
        }
    }
}

void
saxpby(NumericFormat f, const fx::Scaling &s, fx::Counters &c, Mat out,
       float sa, const Mat &a, float sb, const Mat &b)
{
    const int n = out.size();
    Mat af(a.data, 1, n), bf(b.data, 1, n), of(out.data, 1, n);
    for (int i = 0; i < n; ++i) {
        if (f == NumericFormat::BF16) {
            of[i] = fx::toBf16(sa * fx::toBf16(af[i]) +
                               sb * fx::toBf16(bf[i]));
        } else {
            float av = dequantize(
                quantizeSat(f, af[i], s.saxpby.aFrac, c.quantSats),
                s.saxpby.aFrac);
            float bv = dequantize(
                quantizeSat(f, bf[i], s.saxpby.xFrac, c.quantSats),
                s.saxpby.xFrac);
            of[i] = fxStore(f, s.saxpby, c, sa * av + sb * bv);
        }
    }
}

} // namespace oracle

enum class FxOp { Gemv, GemvT, Saxpby, GemvSaxpby };

/**
 * Operands of one kernel call as offsets into one shared buffer, so a
 * case can make any of them alias. For Saxpby, out/a/b are
 * aCols-long vectors at yOff/aOff/bOff.
 */
struct FxCall
{
    FxOp op = FxOp::Gemv;
    int yOff = 0, aOff = 0, aRows = 0, aCols = 0, xOff = 0, bOff = 0;
    float alpha = 1.0f, beta = 0.0f, sa = 1.0f, sb = 1.0f;
};

/** Same float bits, or both NaN (NaN payloads of a product of two
 *  NaNs depend on the operand order the compiler picks). */
bool
sameFloats(const std::vector<float> &p, const std::vector<float> &q)
{
    if (p.size() != q.size())
        return false;
    for (size_t i = 0; i < p.size(); ++i) {
        if (std::memcmp(&p[i], &q[i], sizeof(float)) != 0 &&
            !(std::isnan(p[i]) && std::isnan(q[i]))) {
            return false;
        }
    }
    return true;
}

/** Run @p call through fx:: and the oracle on copies of @p buf. */
void
expectMatchesOracle(NumericFormat f, const fx::Scaling &s,
                    const FxCall &call, const std::vector<float> &buf,
                    const std::string &what)
{
    std::vector<float> got = buf, want = buf;
    fx::Counters cg, cw;
    const int m = call.aRows, n = call.aCols;
    auto vec = [](std::vector<float> &v, int off, int len) {
        return Mat(v.data() + off, 1, len);
    };
    auto mat = [&](std::vector<float> &v) {
        return Mat(v.data() + call.aOff, m, n);
    };
    switch (call.op) {
      case FxOp::Gemv:
        fx::gemv(f, s, cg, vec(got, call.yOff, m), mat(got),
                 vec(got, call.xOff, n), call.alpha, call.beta);
        oracle::gemvAny(f, s, cw, vec(want, call.yOff, m), mat(want),
                        vec(want, call.xOff, n), call.alpha, call.beta,
                        false);
        break;
      case FxOp::GemvT:
        fx::gemvT(f, s, cg, vec(got, call.yOff, n), mat(got),
                  vec(got, call.xOff, m), call.alpha, call.beta);
        oracle::gemvAny(f, s, cw, vec(want, call.yOff, n), mat(want),
                        vec(want, call.xOff, m), call.alpha, call.beta,
                        true);
        break;
      case FxOp::Saxpby:
        fx::saxpby(f, s, cg, vec(got, call.yOff, n), call.sa,
                   vec(got, call.aOff, n), call.sb, vec(got, call.bOff, n));
        oracle::saxpby(f, s, cw, vec(want, call.yOff, n), call.sa,
                       vec(want, call.aOff, n), call.sb,
                       vec(want, call.bOff, n));
        break;
      case FxOp::GemvSaxpby:
        // The solver's pass shape: a gemv, then a saxpby over its y.
        fx::gemv(f, s, cg, vec(got, call.yOff, m), mat(got),
                 vec(got, call.xOff, n), call.alpha, call.beta);
        fx::saxpby(f, s, cg, vec(got, call.yOff, m), call.sa,
                   vec(got, call.yOff, m), call.sb, vec(got, call.bOff, m));
        oracle::gemvAny(f, s, cw, vec(want, call.yOff, m), mat(want),
                        vec(want, call.xOff, n), call.alpha, call.beta,
                        false);
        oracle::saxpby(f, s, cw, vec(want, call.yOff, m), call.sa,
                       vec(want, call.yOff, m), call.sb,
                       vec(want, call.bOff, m));
        break;
    }
    const std::string tag =
        std::string(matlib::formatName(f)) + " " + what;
    EXPECT_TRUE(sameFloats(got, want)) << tag;
    EXPECT_EQ(cg.quantSats, cw.quantSats) << tag;
    EXPECT_EQ(cg.accSats, cw.accSats) << tag;
}

const NumericFormat kNarrow[] = {NumericFormat::BF16, NumericFormat::I32,
                                 NumericFormat::I16};

/**
 * Values at the edges of the grids of @p s: half points (k + 0.5
 * after scaling) around zero and near the range limit, the limit and
 * just past it on both sides, infinities, NaNs, signed zeros and a
 * denormal.
 */
std::vector<float>
edgeValues(NumericFormat f, const fx::Scaling &s)
{
    const double lim =
        std::ldexp(1.0, oracle::magnitudeBits(f)) - 1.0;
    std::vector<float> v = {
        0.0f, -0.0f, std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity(),
        std::numeric_limits<float>::quiet_NaN(),
        -std::numeric_limits<float>::quiet_NaN(),
        std::numeric_limits<float>::denorm_min(), 1.0f, -1.0f};
    for (const fx::KernelSpec *k : {&s.gemv, &s.gemvT, &s.saxpby}) {
        for (int frac : {k->aFrac, k->xFrac, k->outFrac}) {
            const double lsb = std::ldexp(1.0, -frac);
            for (double h : {0.5, 1.5, 2.5, 7.5, lim - 0.5, lim - 1.5}) {
                v.push_back(static_cast<float>(h * lsb));
                v.push_back(static_cast<float>(-h * lsb));
            }
            for (double q : {lim, lim + 1.0, lim + 2.0}) {
                v.push_back(static_cast<float>(q * lsb));
                v.push_back(static_cast<float>(-q * lsb));
            }
            const float top = static_cast<float>(lim * lsb);
            v.push_back(std::nextafter(top, 0.0f));
            v.push_back(std::nextafter(top, INFINITY));
            v.push_back(-std::nextafter(top, INFINITY));
        }
    }
    return v;
}

/** Random values of magnitude up to @p range, one in @p edge_every
 *  drawn from @p edges instead (0: none). */
std::vector<float>
fillValues(Rng &rng, size_t n, double range,
           const std::vector<float> &edges, int edge_every)
{
    std::vector<float> v(n);
    for (float &x : v) {
        if (edge_every > 0 && rng.uniformInt(edge_every) == 0)
            x = edges[rng.uniformInt(edges.size())];
        else
            x = static_cast<float>(rng.uniform(-range, range));
    }
    return v;
}

/** Every kernel on disjoint operands of one buffer, shape m x n. */
void
expectAllKernelsMatch(NumericFormat f, const fx::Scaling &s,
                      const std::vector<float> &buf, int m, int n,
                      Rng &rng, const std::string &what)
{
    // Layout: A (m*n), then x, y, b slots of max(m, n) each.
    const int w = std::max(m, n);
    const int a_off = 0, x_off = m * n, y_off = x_off + w,
              b_off = y_off + w;
    ASSERT_GE(buf.size(), static_cast<size_t>(b_off + w));
    const float alpha = static_cast<float>(rng.uniform(-1.5, 1.5));
    const float beta = static_cast<float>(rng.uniform(-1.0, 1.0));
    const float sa = static_cast<float>(rng.uniform(-1.0, 1.0));
    const float sb = static_cast<float>(rng.uniform(-1.0, 1.0));
    expectMatchesOracle(f, s,
                        {FxOp::Gemv, y_off, a_off, m, n, x_off, b_off,
                         alpha, beta, sa, sb},
                        buf, what + " gemv");
    expectMatchesOracle(f, s,
                        {FxOp::GemvT, y_off, a_off, m, n, x_off, b_off,
                         alpha, beta, sa, sb},
                        buf, what + " gemvT");
    expectMatchesOracle(f, s,
                        {FxOp::Saxpby, y_off, x_off, 1, w, 0, b_off,
                         alpha, beta, sa, sb},
                        buf, what + " saxpby");
    expectMatchesOracle(f, s,
                        {FxOp::GemvSaxpby, y_off, a_off, m, n, x_off,
                         b_off, alpha, beta, sa, sb},
                        buf, what + " gemvSaxpby");
}

TEST(FxOracle, SeededRandomOperandsMatchBitwise)
{
    Rng rng(2024);
    for (NumericFormat f : kNarrow) {
        const std::pair<int, int> shapes[] = {{12, 12}, {4, 12}, {12, 4},
                                              {1, 1},   {5, 70}, {70, 3}};
        for (auto [m, n] : shapes) {
            for (double range : {0.5, 2.0, 40.0}) {
                fx::Scaling s = fx::Scaling::forRanges(
                    f, 1.0, 1.0, static_cast<double>(std::max(m, n)));
                const int w = std::max(m, n);
                std::vector<float> buf = fillValues(
                    rng, static_cast<size_t>(m) * n + 3 * w, range, {}, 0);
                expectAllKernelsMatch(
                    f, s, buf, m, n, rng,
                    std::to_string(m) + "x" + std::to_string(n) +
                        " range " + std::to_string(range));
            }
        }
    }
}

TEST(FxOracle, GridEdgesAndNonFiniteValuesMatchBitwise)
{
    Rng rng(99);
    for (NumericFormat f : kNarrow) {
        std::vector<fx::Scaling> scalings = {
            fx::Scaling::forRanges(f, 1.0, 1.0, 12.0),
            fx::Scaling::forRanges(f, 0.01, 100.0, 1e3)};
        if (f != NumericFormat::BF16) {
            // Negative shift schedules: outFrac > aFrac + xFrac.
            const int top = oracle::magnitudeBits(f) - 1;
            fx::Scaling neg;
            neg.gemv = {1, 2, top};
            neg.gemvT = {0, 0, top};
            neg.saxpby = {0, top, 3};
            scalings.push_back(neg);
        }
        for (size_t k = 0; k < scalings.size(); ++k) {
            const std::vector<float> edges = edgeValues(f, scalings[k]);
            for (int rep = 0; rep < 20; ++rep) {
                const int m = 1 + static_cast<int>(rng.uniformInt(13));
                const int n = 1 + static_cast<int>(rng.uniformInt(13));
                std::vector<float> buf =
                    fillValues(rng, static_cast<size_t>(m) * n + 3 * 13,
                               4.0, edges, 2);
                expectAllKernelsMatch(f, scalings[k], buf, m, n, rng,
                                      "edges scaling " +
                                          std::to_string(k) + " rep " +
                                          std::to_string(rep));
            }
        }
    }
}

TEST(FxOracle, AccumulatorOverflowSaturatesLikeOracle)
{
    for (NumericFormat f : {NumericFormat::I16, NumericFormat::I32}) {
        // Operands near the top of a unit-range grid: every product is
        // ~2^30 (i16, int32 accumulator) or ~2^62 (i32, int64), so a
        // few same-sign terms overflow the accumulator. Four positive
        // products, then eight negative ones: the sum saturates high,
        // comes back down and saturates low.
        fx::Scaling s = fx::Scaling::forRanges(f, 1.0, 1.0, 1.0);
        const int n = 12;
        std::vector<float> buf(static_cast<size_t>(n) * n + 3 * n, 0.0f);
        for (int i = 0; i < n; ++i) {
            for (int j = 0; j < n; ++j)
                buf[static_cast<size_t>(i) * n + j] = j < 4 ? 1.99f : -1.99f;
            buf[static_cast<size_t>(n) * n + i] = 1.99f; // x
        }
        fx::Counters probe;
        fx::gemv(f, s, probe, Mat(buf.data() + n * n + n, 1, n),
                 Mat(buf.data(), n, n), Mat(buf.data() + n * n, 1, n),
                 1.0f, 0.0f);
        EXPECT_GT(probe.accSats, 0u) << matlib::formatName(f);
        Rng rng(1);
        expectAllKernelsMatch(f, s, buf, n, n, rng, "accumulator overflow");
    }
}

TEST(FxOracle, AliasedOperandsKeepInOrderSemantics)
{
    Rng rng(31);
    for (NumericFormat f : kNarrow) {
        fx::Scaling s = fx::Scaling::forRanges(f, 1.0, 1.0, 12.0);
        const int n = 12;
        // A at 0, then a vector region of 3n that the views share.
        std::vector<float> buf = fillValues(
            rng, static_cast<size_t>(n) * n + 3 * n, 1.5, {}, 0);
        const int v0 = n * n;
        auto check = [&](FxCall call, const std::string &what) {
            call.alpha = 0.75f;
            call.beta = -0.5f;
            call.sa = 0.5f;
            call.sb = -1.25f;
            expectMatchesOracle(f, s, call, buf, what);
        };
        // saxpby in place and over shifted views of one buffer.
        check({FxOp::Saxpby, v0, v0, 1, n, 0, v0 + n}, "saxpby out==a");
        check({FxOp::Saxpby, v0 + n, v0, 1, n, 0, v0 + n}, "saxpby out==b");
        check({FxOp::Saxpby, v0, v0 + 1, 1, n, 0, v0 + 3}, "saxpby out<a");
        check({FxOp::Saxpby, v0 + 2, v0, 1, n, 0, v0 + 1}, "saxpby out>a");
        for (FxOp op : {FxOp::Gemv, FxOp::GemvT, FxOp::GemvSaxpby}) {
            const std::string name = op == FxOp::Gemv    ? "gemv"
                                     : op == FxOp::GemvT ? "gemvT"
                                                         : "gemvSaxpby";
            // Rows of one buffer: y, x and b side by side.
            check({op, v0, 0, n, n, v0 + n, v0 + 2 * n}, name + " rows");
            // y is x: later rows read the rows already written.
            check({op, v0, 0, n, n, v0, v0 + 2 * n}, name + " y==x");
            check({op, v0 + 3, 0, n, n, v0, v0 + 2 * n}, name + " y>x");
            check({op, v0, 0, n, n, v0 + 5, v0 + 2 * n}, name + " y<x");
            // y overlaps A, and b overlaps y.
            check({op, n * 2, 0, n, n, v0, v0 + 2 * n}, name + " y in A");
            check({op, v0, 0, n, n, v0 + n, v0 + 4}, name + " b in y");
        }
    }
}

TEST(FxKernels, NegativeShiftSaturatesInsteadOfOverflowing)
{
    // outFrac > aFrac + xFrac: the accumulator shifts left. Small
    // values shift exactly, negative ones included; a product that
    // leaves int64 saturates with its sign.
    fx::Scaling s;
    s.gemv = {0, 0, 30}; // shift -30 on the i32 datapath
    auto run = [&](float a, float x, fx::Counters &c) {
        float y = 0.0f;
        fx::gemv(NumericFormat::I32, s, c, Mat(&y, 1, 1), Mat(&a, 1, 1),
                 Mat(&x, 1, 1), 1.0f, 0.0f);
        return y;
    };
    fx::Counters c;
    EXPECT_EQ(run(1.0f, 1.0f, c), 1.0f);
    EXPECT_EQ(run(-1.0f, 1.0f, c), -1.0f);
    EXPECT_EQ(c.quantSats + c.accSats, 0u);

    // 2^20 * 2^20 = 2^40, times 2^30 is past int64.
    const float big = std::ldexp(1.0f, 20);
    fx::Counters hi;
    EXPECT_EQ(run(big, big, hi), 2.0f); // (2^31 - 1) / 2^30 as float
    EXPECT_EQ(hi.accSats, 1u);
    fx::Counters lo;
    EXPECT_EQ(run(-big, big, lo), -2.0f);
    EXPECT_EQ(lo.accSats, 1u);

    // The i16 datapath: shift -14 of an int32 accumulator.
    fx::Scaling s16;
    s16.gemv = {0, 0, 14};
    float y = 0.0f, a = -3.0f, x = 1.0f;
    fx::Counters c16;
    fx::gemv(NumericFormat::I16, s16, c16, Mat(&y, 1, 1), Mat(&a, 1, 1),
             Mat(&x, 1, 1), 1.0f, 0.0f);
    EXPECT_EQ(y, -2.0f); // -3 * 2^14 clamps to -2^15
    EXPECT_EQ(c16.accSats, 1u);
}

TEST(FxKernels, SetFixedScalingRejectsOutOfRangeFractions)
{
    matlib::ScalarBackend backend(matlib::ScalarFlavor::Optimized);
    backend.setFormat(NumericFormat::I16);
    fx::Scaling ok = fx::Scaling::forRanges(NumericFormat::I16, 1.0, 1.0,
                                            12.0);
    backend.setFixedScaling(ok);
    fx::Scaling edge;
    edge.gemv = {0, 14, 14};
    backend.setFixedScaling(edge);

    fx::Scaling wide = ok;
    wide.gemvT.outFrac = 15; // i16 holds at most 14 fraction bits
    EXPECT_EXIT(backend.setFixedScaling(wide),
                ::testing::ExitedWithCode(1), "fraction bits");
    fx::Scaling negative = ok;
    negative.saxpby.aFrac = -1;
    EXPECT_EXIT(backend.setFixedScaling(negative),
                ::testing::ExitedWithCode(1), "fraction bits");
    backend.setFormat(NumericFormat::I32);
    backend.setFixedScaling(wide); // 15 is fine on 32 bits
}

// --- float32 byte-identity ---

TEST(FormatIdentity, ExplicitF32MatchesDefaultEverywhere)
{
    EXPECT_EQ(matlib::formatKeySuffix(NumericFormat::F32), "");
    EXPECT_NE(matlib::formatKeySuffix(NumericFormat::I16), "");
    EXPECT_NE(matlib::formatKeySuffix(NumericFormat::I16),
              matlib::formatKeySuffix(NumericFormat::I32));

    auto check = [](matlib::Backend &plain, matlib::Backend &touched) {
        touched.setFormat(NumericFormat::F32);
        EXPECT_EQ(plain.cacheKey(), touched.cacheKey());
        isa::Program a = bench::emitQuadSolve(
            plain, tinympc::MappingStyle::Library, 2);
        isa::Program b = bench::emitQuadSolve(
            touched, tinympc::MappingStyle::Library, 2);
        EXPECT_TRUE(samePrograms(a, b)) << plain.name();
        for (const isa::Uop &u : a.uops())
            EXPECT_EQ(u.sew, 32) << plain.name();
    };
    matlib::ScalarBackend s1(matlib::ScalarFlavor::Optimized);
    matlib::ScalarBackend s2(matlib::ScalarFlavor::Optimized);
    check(s1, s2);
    matlib::RvvBackend v1(512, matlib::RvvMapping::handOptimized());
    matlib::RvvBackend v2(512, matlib::RvvMapping::handOptimized());
    check(v1, v2);
    matlib::GemminiBackend g1(matlib::GemminiMapping::fullyOptimized());
    matlib::GemminiBackend g2(matlib::GemminiMapping::fullyOptimized());
    check(g1, g2);
}

TEST(FormatIdentity, F32EpisodeBitExactPerPlant)
{
    // Every registered plant: an episode flown with the format left
    // at its default must be bit-identical to one flown with F32 set
    // explicitly (the format axis is purely additive at float32).
    for (const plant::ScenarioSpec &spec :
         plant::ScenarioRegistry::global().specs()) {
        if (spec.difficulty != plant::Difficulty::Easy ||
            spec.disturbance.cmdNoiseSigma != 0.0) {
            continue; // one clean cell per plant is enough
        }
        hil::HilConfig base;
        base.socFreqHz = 100e6;
        base.relin = spec.relin;
        base.timing = hil::namedControllerTiming(
            "vector", *spec.prototype, 0.02, 10, false);

        hil::HilConfig explicit_f32 = base;
        explicit_f32.format = NumericFormat::F32;

        std::unique_ptr<plant::Plant> p1 = spec.prototype->clone();
        std::unique_ptr<plant::Plant> p2 = spec.prototype->clone();
        plant::Scenario sc = spec.makeScenario(0);
        hil::EpisodeResult a = hil::runEpisode(*p1, sc, base);
        hil::EpisodeResult b = hil::runEpisode(*p2, sc, explicit_f32);
        EXPECT_EQ(a.success, b.success) << spec.id;
        EXPECT_EQ(a.waypointsReached, b.waypointsReached) << spec.id;
        EXPECT_EQ(a.trackingErrM, b.trackingErrM) << spec.id;
        EXPECT_EQ(a.missionTimeS, b.missionTimeS) << spec.id;
        EXPECT_EQ(a.rotorEnergyJ, b.rotorEnergyJ) << spec.id;
        EXPECT_EQ(a.divergedSolves, 0) << spec.id;
        EXPECT_EQ(a.quantSats, 0u) << spec.id;
    }
}

// --- narrow-format episode goldens ---

/** One narrow-format closed-loop episode, pinned. */
struct NarrowGolden
{
    const char *plant;
    NumericFormat format;
    int relinEveryK; ///< 0: fixed trim; K: refresh every K ticks
    int success;
    int waypointsReached;
    size_t solves;
    double iterations; ///< summed over the solves
    int divergedSolves;
    int modelRefreshes;
    uint64_t quantSats;
    uint64_t accSats;
};

// Recorded while every narrow solve still ran through the Backend's
// fx:: kernel calls (Easy scenario 0, synthetic pin timing): one
// episode per format, the rover's int16 accumulator saturation, and
// two relinearizing episodes whose refreshes recalibrate the fixed-
// point scaling mid-episode.
const NarrowGolden kNarrowGolden[] = {
    {"quad-crazyflie", NumericFormat::I32, 0, 0, 0, 104, 2375, 0, 0,
     1651167, 0},
    {"rocket-lander", NumericFormat::BF16, 0, 1, 0, 245, 6125, 0, 0, 0, 0},
    {"rover-rover", NumericFormat::I16, 0, 0, 1, 451, 11255, 0, 0, 1678050,
     4050},
    {"rocket-lander", NumericFormat::I16, 5, 1, 0, 175, 4375, 0, 34,
     895765, 0},
    {"rover-rover", NumericFormat::BF16, 5, 1, 5, 322, 7995, 0, 64, 0, 0},
};

std::unique_ptr<plant::Plant>
plantNamed(const std::string &name)
{
    std::vector<std::unique_ptr<plant::Plant>> plants;
    plants.push_back(std::make_unique<plant::QuadrotorPlant>());
    plants.push_back(std::make_unique<plant::RocketPlant>());
    plants.push_back(std::make_unique<plant::RoverPlant>());
    plants.push_back(std::make_unique<plant::CartPolePlant>());
    for (auto &p : plants) {
        if (p->name() == name)
            return std::move(p);
    }
    ADD_FAILURE() << "no plant " << name;
    return nullptr;
}

TEST(NarrowEpisodes, BitExactGoldenPerFormat)
{
    hil::ControllerTiming pin;
    pin.archName = "pin";
    pin.mappingName = "pin";
    pin.baseCycles = 200000.0;
    pin.cyclesPerIter = 30000.0;
    pin.refreshBaseCycles = 50000.0;
    pin.refreshCyclesPerIter = 4000.0;
    for (const NarrowGolden &g : kNarrowGolden) {
        std::unique_ptr<plant::Plant> p = plantNamed(g.plant);
        ASSERT_NE(p, nullptr);
        hil::HilConfig cfg;
        cfg.timing = pin;
        cfg.format = g.format;
        cfg.relin.everyK = g.relinEveryK;
        const std::string what = std::string(g.plant) + " " +
                                 matlib::formatName(g.format) + " K" +
                                 std::to_string(g.relinEveryK);
        hil::EpisodeResult r = hil::runEpisode(
            *p, p->makeScenario(plant::Difficulty::Easy, 0), cfg);
        double iterations = 0.0;
        for (double it : r.iterations.samples())
            iterations += it;
        EXPECT_EQ(r.success, g.success == 1) << what;
        EXPECT_EQ(r.waypointsReached, g.waypointsReached) << what;
        EXPECT_EQ(r.iterations.size(), g.solves) << what;
        EXPECT_EQ(iterations, g.iterations) << what;
        EXPECT_EQ(r.divergedSolves, g.divergedSolves) << what;
        EXPECT_EQ(r.modelRefreshes, g.modelRefreshes) << what;
        EXPECT_EQ(r.quantSats, g.quantSats) << what;
        EXPECT_EQ(r.accSats, g.accSats) << what;
    }
}

// --- narrow streams: emission, schedule search, batched replay ---

TEST(NarrowStreams, CarryElementWidthAndDistinctKeys)
{
    matlib::GemminiBackend g(matlib::GemminiMapping::fullyOptimized());
    std::string key_f32 = g.cacheKey();
    g.setFormat(NumericFormat::I16);
    EXPECT_NE(g.cacheKey(), key_f32);
    isa::Program narrow =
        bench::emitQuadSolve(g, tinympc::MappingStyle::Library, 2);
    bool saw_sew16 = false;
    for (const isa::Uop &u : narrow.uops()) {
        if (u.sew == 16)
            saw_sew16 = true;
        EXPECT_TRUE(u.sew == 16 || u.sew == 32);
    }
    EXPECT_TRUE(saw_sew16);

    // int32 keeps the 32-bit stream byte-identical to float32 (the
    // values differ, the uops do not) — only the key is distinct.
    matlib::GemminiBackend g32(matlib::GemminiMapping::fullyOptimized());
    g32.setFormat(NumericFormat::I32);
    EXPECT_NE(g32.cacheKey(), key_f32);
    isa::Program i32 =
        bench::emitQuadSolve(g32, tinympc::MappingStyle::Library, 2);
    matlib::GemminiBackend gf(matlib::GemminiMapping::fullyOptimized());
    isa::Program f32 =
        bench::emitQuadSolve(gf, tinympc::MappingStyle::Library, 2);
    EXPECT_TRUE(samePrograms(i32, f32));
}

TEST(NarrowStreams, NarrowReplayCheaperOnWideBackends)
{
    matlib::GemminiBackend gf(matlib::GemminiMapping::fullyOptimized());
    isa::Program f32 =
        bench::emitQuadSolve(gf, tinympc::MappingStyle::Library, 2);
    matlib::GemminiBackend gn(matlib::GemminiMapping::fullyOptimized());
    gn.setFormat(NumericFormat::I16);
    isa::Program i16 =
        bench::emitQuadSolve(gn, tinympc::MappingStyle::Library, 2);
    systolic::GemminiModel m(systolic::GemminiConfig::os4x4());
    uint64_t cf = m.run(f32).cycles;
    uint64_t cn = m.run(i16).cycles;
    // The acceptance bar for the precision bench: >= 1.5x on Gemmini.
    EXPECT_GE(static_cast<double>(cf),
              1.5 * static_cast<double>(cn));
}

TEST(NarrowStreams, ScheduleSearchAndBatchedReplayBitExact)
{
    matlib::GemminiBackend g(matlib::GemminiMapping::fullyOptimized());
    g.setFormat(NumericFormat::I16);
    isa::Program narrow =
        bench::emitQuadSolve(g, tinympc::MappingStyle::Library, 2);

    // Schedule search on the narrow stream: any found schedule must
    // verify and reproduce its claimed cost.
    systolic::GemminiModel m(systolic::GemminiConfig::os4x4());
    auto cost = [&](const isa::Program &p) { return m.run(p).cycles; };
    isa::SchedSearchResult res = isa::searchSchedule(narrow, cost, 24);
    isa::ScheduleResult r = isa::applySchedule(narrow, res.spec);
    std::string why;
    EXPECT_TRUE(isa::verifySchedule(narrow, r.prog, r.perm, &why))
        << why;
    EXPECT_EQ(cost(r.prog), res.bestCycles);

    // Batched replay of the narrow stream across a design sweep must
    // be bit-identical to sequential replay (same contract the f32
    // streams are pinned to).
    systolic::GemminiModel m2(systolic::GemminiConfig::os4x4HwGemv());
    std::vector<const cpu::TimingModel *> models = {&m, &m2};
    std::vector<cpu::TimingResult> batch =
        m.runStreamBatch(narrow.stream(), models);
    ASSERT_EQ(batch.size(), models.size());
    for (size_t i = 0; i < models.size(); ++i) {
        cpu::TimingResult seq = models[i]->runStream(narrow.stream());
        EXPECT_EQ(batch[i].cycles, seq.cycles) << i;
        EXPECT_EQ(batch[i].stats.counters(), seq.stats.counters()) << i;
    }

    // Saturn, same contract.
    matlib::RvvBackend v(512, matlib::RvvMapping::handOptimized());
    v.setFormat(NumericFormat::I16);
    isa::Program vec =
        bench::emitQuadSolve(v, tinympc::MappingStyle::Fused, 2);
    vector::SaturnModel s1(vector::SaturnConfig::make(512, 256, true));
    vector::SaturnModel s2(vector::SaturnConfig::make(512, 128, true));
    std::vector<const cpu::TimingModel *> sm = {&s1, &s2};
    std::vector<cpu::TimingResult> vb = s1.runStreamBatch(vec.stream(), sm);
    for (size_t i = 0; i < sm.size(); ++i)
        EXPECT_EQ(vb[i].cycles, sm[i]->runStream(vec.stream()).cycles)
            << i;
}

// --- persistence ---

TEST(FormatPersistence, NarrowProgramRoundTripsThroughCodecAndDisk)
{
    matlib::GemminiBackend g(matlib::GemminiMapping::fullyOptimized());
    g.setFormat(NumericFormat::I16);
    isa::Program narrow =
        bench::emitQuadSolve(g, tinympc::MappingStyle::Library, 2);

    // Codec round trip preserves the element widths.
    auto back = isa::decodeProgram(isa::encodeProgram(narrow));
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(samePrograms(narrow, *back));

    // Disk cache: per-format keys produce independently cached blobs
    // that warm-read back bit-identical with zero re-emissions.
    const std::string dir = makeTempDir();
    auto key = [&](NumericFormat f) {
        return "quad-solve" + matlib::formatKeySuffix(f);
    };
    {
        isa::DiskCache disk(dir, "test-fp");
        isa::ProgramCache cold(&disk);
        cold.getOrEmit(key(NumericFormat::I16),
                       [&](isa::Program &p) { p = narrow; });
        matlib::GemminiBackend gf(
            matlib::GemminiMapping::fullyOptimized());
        cold.getOrEmit(key(NumericFormat::F32), [&](isa::Program &p) {
            p = bench::emitQuadSolve(gf, tinympc::MappingStyle::Library,
                                     2);
        });
        EXPECT_EQ(cold.stats().emissions, 2u);
    }
    isa::DiskCache disk2(dir, "test-fp");
    isa::ProgramCache warm(&disk2);
    auto warm_narrow =
        warm.getOrEmit(key(NumericFormat::I16), [&](isa::Program &) {
            ADD_FAILURE() << "warm read must not re-emit";
        });
    ASSERT_TRUE(warm_narrow != nullptr);
    EXPECT_TRUE(samePrograms(narrow, *warm_narrow));
    auto warm_f32 =
        warm.getOrEmit(key(NumericFormat::F32), [&](isa::Program &) {
            ADD_FAILURE() << "warm read must not re-emit";
        });
    ASSERT_TRUE(warm_f32 != nullptr);
    EXPECT_FALSE(samePrograms(*warm_narrow, *warm_f32));
}

// --- DSE format axis ---

TEST(DseFormatAxis, EnumeratesWithoutDisturbingDefault)
{
    auto make_space = [](dse::DesignSpace &space) {
        dse::ConfigEntry e;
        e.name = "gem";
        e.model = [](double, double) -> std::unique_ptr<cpu::TimingModel> {
            return std::make_unique<systolic::GemminiModel>(
                systolic::GemminiConfig::os4x4());
        };
        e.emit = [](dse::Fidelity, matlib::NumericFormat fmt)
            -> std::shared_ptr<const isa::Program> {
            matlib::GemminiBackend b(
                matlib::GemminiMapping::fullyOptimized());
            b.setFormat(fmt);
            return std::make_shared<const isa::Program>(
                bench::emitQuadSolve(b, tinympc::MappingStyle::Library,
                                     2));
        };
        e.progKey = [](dse::Fidelity, matlib::NumericFormat fmt) {
            return "dse-fmt-test" + matlib::formatKeySuffix(fmt);
        };
        space.addConfig(std::move(e));
    };

    // Single-format default: one point, fmt decodes to 0 everywhere.
    dse::DesignSpace plain("fmt-default");
    make_space(plain);
    ASSERT_EQ(plain.size(), 1u);
    EXPECT_EQ(plain.point(0).fmt, 0);

    dse::DesignSpace space("fmt-axis");
    make_space(space);
    space.setFormats({NumericFormat::F32, NumericFormat::I16});
    ASSERT_EQ(space.size(), 2u);
    for (size_t flat = 0; flat < space.size(); ++flat)
        EXPECT_EQ(space.flatIndex(space.point(flat)), flat);

    dse::Candidate f32 =
        space.materialize(space.point(0), dse::Fidelity::Low);
    dse::Candidate i16 =
        space.materialize(space.point(1), dse::Fidelity::Low);
    EXPECT_EQ(f32.name.find("@"), std::string::npos);
    EXPECT_NE(i16.name.find("@i16"), std::string::npos);
    EXPECT_NE(f32.cellKey, i16.cellKey);
    EXPECT_NE(f32.progKey, i16.progKey);
    ASSERT_TRUE(f32.prog && i16.prog);
    EXPECT_FALSE(samePrograms(*f32.prog, *i16.prog));
}

} // namespace
} // namespace rtoc
