/**
 * @file
 * matlib tests: reference-kernel correctness (fast paths and the
 * column-form solver kernels bitwise equal to plain loops; clamp and
 * residual selects bitwise equal to libm fmaxf/fminf on adversarial
 * operands), bit-exact functional equivalence across all four
 * backends (the paper's invariant that software mappings change
 * timing, never semantics), and emission properties (fusion removes
 * loads/stores, static scheduling shrinks command construction,
 * optimized scalar beats naive).
 */

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "cpu/inorder.hh"
#include "matlib/gemmini_backend.hh"
#include "matlib/rvv_backend.hh"
#include "matlib/scalar_backend.hh"

namespace rtoc::matlib {
namespace {

/** Owned random-filled matrix for tests. */
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

TEST(Ref, GemvKnownValues)
{
    float a_data[] = {1, 2, 3, 4};
    float x_data[] = {1, 1};
    float y_data[] = {0, 0};
    Mat a(a_data, 2, 2), x(x_data, 1, 2), y(y_data, 1, 2);
    ref::gemv(y, a, x, 1.0f, 0.0f);
    EXPECT_FLOAT_EQ(y[0], 3.0f);
    EXPECT_FLOAT_EQ(y[1], 7.0f);
}

TEST(Ref, GemvAlphaBeta)
{
    float a_data[] = {1, 0, 0, 1};
    float x_data[] = {2, 3};
    float y_data[] = {10, 20};
    Mat a(a_data, 2, 2), x(x_data, 1, 2), y(y_data, 1, 2);
    ref::gemv(y, a, x, 2.0f, 1.0f);
    EXPECT_FLOAT_EQ(y[0], 14.0f);
    EXPECT_FLOAT_EQ(y[1], 26.0f);
}

TEST(Ref, GemvTMatchesExplicitTranspose)
{
    Rng rng(5);
    TestMat a(4, 6, rng);
    TestMat x(1, 4, rng);
    TestMat y1(1, 6, rng), y2(1, 6, rng);
    ref::gemvT(y1.view(), a.view(), x.view(), 1.0f, 0.0f);
    // Explicit transpose.
    std::vector<float> at_data(24);
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 6; ++j)
            at_data[static_cast<size_t>(j) * 4 + i] = a.view().at(i, j);
    Mat at(at_data.data(), 6, 4);
    ref::gemv(y2.view(), at, x.view(), 1.0f, 0.0f);
    for (int j = 0; j < 6; ++j)
        EXPECT_FLOAT_EQ(y1.view()[j], y2.view()[j]);
}

TEST(Ref, ClampOrdering)
{
    float a_data[] = {-5, 0, 5};
    float out_data[3];
    Mat a(a_data, 1, 3), out(out_data, 1, 3);
    ref::clampConst(out, a, -1.0f, 1.0f);
    EXPECT_FLOAT_EQ(out[0], -1.0f);
    EXPECT_FLOAT_EQ(out[1], 0.0f);
    EXPECT_FLOAT_EQ(out[2], 1.0f);
}

TEST(Ref, AbsMaxDiff)
{
    float a_data[] = {1, -2, 3};
    float b_data[] = {1, 2, 2};
    Mat a(a_data, 1, 3), b(b_data, 1, 3);
    EXPECT_FLOAT_EQ(ref::absMaxDiff(a, b), 4.0f);
}

/**
 * The plain reference loops the `__restrict` fast paths of ref::gemv,
 * gemvT and saxpby, and the column-form gemvCol/gemvSaxpbyCol, must
 * reproduce bit for bit: one serial accumulator per output in index
 * order.
 */
namespace plain {

void
gemv(Mat y, const Mat &a, Mat x, float alpha, float beta)
{
    for (int i = 0; i < a.rows; ++i) {
        float acc = 0.0f;
        for (int j = 0; j < a.cols; ++j)
            acc += a.at(i, j) * x[j];
        y[i] = alpha * acc + beta * y[i];
    }
}

void
gemvT(Mat y, const Mat &a, Mat x, float alpha, float beta)
{
    for (int j = 0; j < a.cols; ++j) {
        float acc = 0.0f;
        for (int i = 0; i < a.rows; ++i)
            acc += a.at(i, j) * x[i];
        y[j] = alpha * acc + beta * y[j];
    }
}

void
saxpby(Mat out, float sa, const Mat &a, float sb, const Mat &b)
{
    for (int i = 0; i < out.size(); ++i)
        out.data[i] = sa * a.data[i] + sb * b.data[i];
}

} // namespace plain

TEST(Ref, FastPathsMatchPlainLoopsBitwise)
{
    Rng rng(17);
    const std::pair<int, int> shapes[] = {{12, 12}, {4, 12}, {12, 4},
                                          {1, 7},   {33, 5}, {120, 1}};
    for (auto [m, n] : shapes) {
        TestMat a(m, n, rng, 3.0f), x(1, n, rng), xt(1, m, rng),
            b(1, m, rng), y0(1, m, rng), yt0(1, n, rng);
        const float alpha = -0.75f, beta = 0.5f, sa = 1.25f, sb = -1.0f;

        TestMat got = y0, want = y0;
        ref::gemv(got.view(), a.view(), x.view(), alpha, beta);
        plain::gemv(want.view(), a.view(), x.view(), alpha, beta);
        EXPECT_EQ(got.data, want.data) << "gemv " << m << "x" << n;

        TestMat got_t = yt0, want_t = yt0;
        ref::gemvT(got_t.view(), a.view(), xt.view(), alpha, beta);
        plain::gemvT(want_t.view(), a.view(), xt.view(), alpha, beta);
        EXPECT_EQ(got_t.data, want_t.data) << "gemvT " << m << "x" << n;

        TestMat out_got = y0, out_want = y0;
        ref::saxpby(out_got.view(), sa, b.view(), sb, y0.view());
        plain::saxpby(out_want.view(), sa, b.view(), sb, y0.view());
        EXPECT_EQ(out_got.data, out_want.data) << "saxpby " << m;
    }
}

/** Aᵀ of a row-major m x n matrix, as an n x m TestMat. */
TestMat
transposed(TestMat &a)
{
    TestMat t = a;
    std::swap(t.rows, t.cols);
    for (int i = 0; i < a.rows; ++i)
        for (int j = 0; j < a.cols; ++j)
            t.view().at(j, i) = a.view().at(i, j);
    return t;
}

bool
sameBits(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/**
 * gemvCol<M, N> and gemvSaxpbyCol<M, N> (M = N = 0: run-time shape)
 * against the plain gemv and the plain gemv;saxpby pair, bitwise,
 * for the solver's constants and general ones. y starts with an
 * infinity and a NaN where it has room, so beta = 0 must still
 * multiply them (0·inf = NaN) exactly as the reference does.
 */
template <int M, int N>
void
expectColumnFormMatches(Rng &rng, int m, int n)
{
    TestMat a(m, n, rng, 3.0f), x(1, n, rng), b(1, m, rng),
        y0(1, m, rng);
    if (m > 2) {
        y0.data[1] = std::numeric_limits<float>::infinity();
        y0.data[2] = std::numeric_limits<float>::quiet_NaN();
    }
    TestMat at = transposed(a);
    struct Coeffs
    {
        float alpha, beta, sa, sb;
    };
    const Coeffs cases[] = {{-1.0f, 0.0f, 1.0f, -1.0f},
                            {1.0f, 1.0f, 1.0f, 1.0f},
                            {-1.0f, 1.0f, 1.0f, 1.0f},
                            {-0.75f, 0.5f, 1.25f, -1.0f}};
    for (const Coeffs &c : cases) {
        TestMat got = y0, want = y0;
        ref::gemvCol<M, N>(got.data.data(), at.data.data(),
                           x.data.data(), c.alpha, c.beta, m, n);
        plain::gemv(want.view(), a.view(), x.view(), c.alpha, c.beta);
        EXPECT_TRUE(sameBits(got.data, want.data))
            << "gemvCol<" << M << "," << N << "> " << m << "x" << n
            << " alpha=" << c.alpha << " beta=" << c.beta;

        got = y0;
        ref::gemvSaxpbyCol<M, N>(got.data.data(), at.data.data(),
                                 x.data.data(), c.alpha, c.beta, c.sa,
                                 c.sb, b.data.data(), m, n);
        plain::saxpby(want.view(), c.sa, want.view(), c.sb, b.view());
        EXPECT_TRUE(sameBits(got.data, want.data))
            << "gemvSaxpbyCol<" << M << "," << N << "> " << m << "x"
            << n << " alpha=" << c.alpha << " beta=" << c.beta;
    }
}

/** The four products of the solve at a registry shape (NX, NU). */
template <int NX, int NU>
void
expectSolverShapesMatch(Rng &rng)
{
    expectColumnFormMatches<NU, NX>(rng, NU, NX); // Kinf x, Bdynᵀ p
    expectColumnFormMatches<NX, NX>(rng, NX, NX); // Adyn x, AmBKt p
    expectColumnFormMatches<NX, NU>(rng, NX, NU); // Bdyn u, Kinfᵀ r
    expectColumnFormMatches<NU, NU>(rng, NU, NU); // Quu_inv t
}

TEST(Ref, ColumnFormMatchesPlainLoopsBitwise)
{
    Rng rng(23);
    // Run-time shapes, including several output chunks (m > 16).
    const std::pair<int, int> shapes[] = {{12, 12}, {4, 12}, {12, 4},
                                          {1, 7},   {33, 5}, {120, 1},
                                          {7, 3},   {17, 16}};
    for (auto [m, n] : shapes)
        expectColumnFormMatches<0, 0>(rng, m, n);
    // The compile-time instantiations the solver uses.
    expectSolverShapesMatch<12, 4>(rng);
    expectSolverShapesMatch<6, 3>(rng);
    expectSolverShapesMatch<5, 2>(rng);
    expectSolverShapesMatch<4, 1>(rng);
}

/**
 * The inline clamp/residual selects against the C library's
 * fmaxf/fminf on every pair of adversarial operands: signed zeros,
 * ones, infinities, NaNs of both signs, denormals and FLT_MAX. The
 * library is called through volatile pointers so the compiler cannot
 * fold the calls with its own semantics.
 */
float (*volatile libFmax)(float, float) = ::fmaxf;
float (*volatile libFmin)(float, float) = ::fminf;

std::vector<float>
adversarialFloats()
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float den = std::numeric_limits<float>::denorm_min() * 3.0f;
    const float big = std::numeric_limits<float>::max();
    return {0.0f, -0.0f, 1.0f, -1.0f, inf, -inf,
            nan,  -nan,  den,  -den,  big, -big};
}

bool
sameBits(float a, float b)
{
    return std::memcmp(&a, &b, sizeof(float)) == 0;
}

TEST(Ref, ClampsMatchLibmOnAdversarialOperands)
{
    const std::vector<float> v = adversarialFloats();
    // Every (a, lo, hi) triple, laid out as vectors; odd lengths and
    // offsets reach the tails of vectorized loops.
    std::vector<float> a, lo, hi, want;
    for (float x : v) {
        for (float l : v) {
            for (float h : v) {
                a.push_back(x);
                lo.push_back(l);
                hi.push_back(h);
                want.push_back(libFmin(libFmax(x, l), h));
            }
        }
    }
    const int total = static_cast<int>(a.size());
    for (int off : {0, 1, 3}) {
        const int n = total - off;
        auto view = [&](std::vector<float> &buf) {
            return Mat(buf.data() + off, 1, n);
        };
        std::vector<float> out(a.size(), 7.0f);
        ref::clampVec(view(out), view(a), view(lo), view(hi));
        std::vector<float> inplace = a;
        ref::clampVec(view(inplace), view(inplace), view(lo), view(hi));
        for (int i = off; i < total; ++i) {
            EXPECT_TRUE(sameBits(out[i], want[i]))
                << "clampVec a=" << a[i] << " lo=" << lo[i]
                << " hi=" << hi[i] << " got " << out[i] << " want "
                << want[i];
            EXPECT_TRUE(sameBits(inplace[i], want[i]))
                << "in-place clampVec a=" << a[i] << " lo=" << lo[i]
                << " hi=" << hi[i];
        }
    }
    // Scalar bounds: each (lo, hi) pair over the whole operand list.
    for (float l : v) {
        for (float h : v) {
            std::vector<float> out(v.size()), inplace = v;
            ref::clampConst(Mat(out.data(), 1, static_cast<int>(v.size())),
                            Mat(const_cast<float *>(v.data()), 1,
                                static_cast<int>(v.size())),
                            l, h);
            ref::clampConst(
                Mat(inplace.data(), 1, static_cast<int>(v.size())),
                Mat(inplace.data(), 1, static_cast<int>(v.size())), l, h);
            for (size_t i = 0; i < v.size(); ++i) {
                const float w = libFmin(libFmax(v[i], l), h);
                EXPECT_TRUE(sameBits(out[i], w))
                    << "clampConst a=" << v[i] << " lo=" << l
                    << " hi=" << h;
                EXPECT_TRUE(sameBits(inplace[i], w))
                    << "in-place clampConst a=" << v[i] << " lo=" << l
                    << " hi=" << h;
            }
        }
    }
}

TEST(Ref, AbsMaxDiffMatchesLibmOnAdversarialOperands)
{
    const std::vector<float> v = adversarialFloats();
    std::vector<float> a, b;
    for (float x : v) {
        for (float y : v) {
            a.push_back(x);
            b.push_back(y);
        }
    }
    // The serial libm chain over every prefix and every single pair.
    float want = 0.0f;
    for (size_t n = 1; n <= a.size(); ++n) {
        want = libFmax(want, std::fabs(a[n - 1] - b[n - 1]));
        const float got = ref::absMaxDiff(
            Mat(a.data(), 1, static_cast<int>(n)),
            Mat(b.data(), 1, static_cast<int>(n)));
        EXPECT_TRUE(sameBits(got, want)) << "prefix " << n;
        const float one = ref::absMaxDiff(Mat(&a[n - 1], 1, 1),
                                          Mat(&b[n - 1], 1, 1));
        EXPECT_TRUE(sameBits(one, libFmax(0.0f,
                                          std::fabs(a[n - 1] - b[n - 1]))))
            << "a=" << a[n - 1] << " b=" << b[n - 1];
    }
    // Both operands one buffer (a residual of a vector with itself).
    EXPECT_TRUE(sameBits(ref::absMaxDiff(Mat(a.data(), 1, 12),
                                         Mat(a.data(), 1, 12)),
                         0.0f));
}

TEST(Ref, RowScaleNeg)
{
    float a_data[] = {1, 2, 3, 4};
    float d_data[] = {10, 100};
    float out_data[4];
    Mat a(a_data, 2, 2), d(d_data, 1, 2), out(out_data, 2, 2);
    ref::rowScaleNeg(out, a, d);
    EXPECT_FLOAT_EQ(out.at(0, 0), -10.0f);
    EXPECT_FLOAT_EQ(out.at(0, 1), -200.0f);
    EXPECT_FLOAT_EQ(out.at(1, 0), -30.0f);
    EXPECT_FLOAT_EQ(out.at(1, 1), -400.0f);
}

/** Build every backend for the equivalence suite. */
std::vector<std::unique_ptr<Backend>>
allBackends()
{
    std::vector<std::unique_ptr<Backend>> v;
    v.push_back(
        std::make_unique<ScalarBackend>(ScalarFlavor::Naive));
    v.push_back(
        std::make_unique<ScalarBackend>(ScalarFlavor::Optimized));
    v.push_back(std::make_unique<RvvBackend>(512, RvvMapping::library()));
    v.push_back(
        std::make_unique<RvvBackend>(512, RvvMapping::handOptimized()));
    v.push_back(
        std::make_unique<GemminiBackend>(GemminiMapping::baseline()));
    v.push_back(std::make_unique<GemminiBackend>(
        GemminiMapping::fullyOptimized()));
    return v;
}

/** Parameterized over (m, n) operand shapes. */
class BackendEquivalence
    : public ::testing::TestWithParam<std::pair<int, int>>
{};

TEST_P(BackendEquivalence, AllOpsBitExactAcrossBackends)
{
    auto [m, n] = GetParam();
    Rng rng(42 + m * 131 + n);
    TestMat a(m, n, rng);
    TestMat x(1, n, rng);
    TestMat b_vec(1, m, rng);
    TestMat lo(1, m, rng, 0.1f);
    TestMat hi(1, m, rng, 0.1f);
    for (int i = 0; i < m; ++i) {
        float l = lo.view()[i], h = hi.view()[i];
        lo.view()[i] = std::fmin(l, h) - 0.5f;
        hi.view()[i] = std::fmax(l, h) + 0.5f;
    }

    // Golden results via the reference backend (naive scalar).
    auto backends = allBackends();
    std::vector<std::vector<float>> gemv_results;
    std::vector<std::vector<float>> clamp_results;
    std::vector<float> red_results;

    for (auto &backend : backends) {
        std::vector<float> y(static_cast<size_t>(m), 0.5f);
        Mat ym(y.data(), 1, m);
        backend->gemv(ym, a.view(), x.view(), -1.0f, 1.0f);
        gemv_results.push_back(y);

        std::vector<float> c(static_cast<size_t>(m));
        Mat cm(c.data(), 1, m);
        backend->clampVec(cm, b_vec.view(), lo.view(), hi.view());
        clamp_results.push_back(c);

        red_results.push_back(
            backend->absMaxDiff(b_vec.view(), cm));
    }
    for (size_t k = 1; k < backends.size(); ++k) {
        EXPECT_EQ(gemv_results[k], gemv_results[0])
            << backends[k]->name();
        EXPECT_EQ(clamp_results[k], clamp_results[0])
            << backends[k]->name();
        EXPECT_EQ(red_results[k], red_results[0])
            << backends[k]->name();
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BackendEquivalence,
    ::testing::Values(std::pair{4, 4}, std::pair{4, 12},
                      std::pair{12, 4}, std::pair{12, 12},
                      std::pair{1, 16}, std::pair{17, 3},
                      std::pair{32, 32}));

TEST(Emission, NoProgramMeansNoEmission)
{
    Rng rng(1);
    TestMat a(4, 4, rng), x(1, 4, rng), y(1, 4, rng);
    ScalarBackend b(ScalarFlavor::Optimized);
    b.gemv(y.view(), a.view(), x.view(), 1.0f, 0.0f); // must not crash
    EXPECT_EQ(b.program(), nullptr);
}

TEST(Emission, OptimizedScalarFewerUopsThanNaive)
{
    Rng rng(2);
    TestMat a(12, 12, rng), x(1, 12, rng), y(1, 12, rng);
    isa::Program pn, po;
    ScalarBackend naive(ScalarFlavor::Naive);
    ScalarBackend opt(ScalarFlavor::Optimized);
    naive.setProgram(&pn);
    opt.setProgram(&po);
    naive.gemv(y.view(), a.view(), x.view(), 1.0f, 0.0f);
    opt.gemv(y.view(), a.view(), x.view(), 1.0f, 0.0f);
    EXPECT_LT(po.size(), pn.size());
}

TEST(Emission, OptimizedScalarFasterOnRocket)
{
    Rng rng(3);
    TestMat a(12, 12, rng), x(1, 12, rng), y(1, 12, rng);
    isa::Program pn, po;
    ScalarBackend naive(ScalarFlavor::Naive);
    ScalarBackend opt(ScalarFlavor::Optimized);
    naive.setProgram(&pn);
    opt.setProgram(&po);
    for (int rep = 0; rep < 5; ++rep) {
        naive.gemv(y.view(), a.view(), x.view(), 1.0f, 0.0f);
        opt.gemv(y.view(), a.view(), x.view(), 1.0f, 0.0f);
    }
    cpu::InOrderCore rocket(cpu::InOrderConfig::rocket());
    EXPECT_LT(rocket.run(po).cycles, rocket.run(pn).cycles);
}

TEST(Emission, FusionRemovesIntermediateTraffic)
{
    Rng rng(4);
    TestMat a(1, 12, rng), b(1, 12, rng), c(1, 12, rng);
    TestMat t1(1, 12, rng), t2(1, 12, rng);

    auto count_mem = [](const isa::Program &p) {
        size_t n = 0;
        for (const auto &u : p.uops())
            if (u.kind == isa::UopKind::VLoad ||
                u.kind == isa::UopKind::VStore)
                ++n;
        return n;
    };

    // Chain: t1 = a+b; t2 = t1+c; t1 consumed immediately.
    isa::Program plib, pfused;
    RvvBackend lib(512, RvvMapping::library());
    RvvBackend fused(512, RvvMapping::handOptimized());
    lib.setProgram(&plib);
    fused.setProgram(&pfused);

    lib.add(t1.view(), a.view(), b.view());
    lib.add(t2.view(), t1.view(), c.view());

    fused.beginFuse();
    fused.add(t1.view(), a.view(), b.view());
    fused.add(t2.view(), t1.view(), c.view());
    fused.endFuse();

    EXPECT_LT(count_mem(pfused), count_mem(plib));
}

TEST(Emission, FusionWritebackPreservesResults)
{
    // Fused path must still produce the same memory contents after
    // endFuse (the writeback of dirty registers).
    Rng rng(6);
    TestMat a(1, 8, rng), b(1, 8, rng);
    TestMat out_lib(1, 8, rng), out_fused(1, 8, rng);

    isa::Program p1, p2;
    RvvBackend lib(512, RvvMapping::library());
    RvvBackend fused(512, RvvMapping::handOptimized());
    lib.setProgram(&p1);
    fused.setProgram(&p2);

    lib.add(out_lib.view(), a.view(), b.view());
    fused.beginFuse();
    fused.add(out_fused.view(), a.view(), b.view());
    fused.endFuse();
    EXPECT_EQ(out_lib.data, out_fused.data);
}

TEST(Emission, RvvLibraryEmitsStripLoops)
{
    Rng rng(7);
    TestMat a(1, 100, rng), b(1, 100, rng), out(1, 100, rng);
    isa::Program p;
    RvvBackend lib(512, RvvMapping::library());
    lib.setProgram(&p);
    lib.add(out.view(), a.view(), b.view());
    // 100 elements / 16-lane strips -> 7 strips: >= 7 vsetvls.
    size_t vsetvls = 0;
    for (const auto &u : p.uops())
        if (u.kind == isa::UopKind::VSetVl)
            ++vsetvls;
    EXPECT_GE(vsetvls, 7u);
}

TEST(Emission, LmulShrinksInstructionCount)
{
    Rng rng(8);
    TestMat a(1, 128, rng), b(1, 128, rng), out(1, 128, rng);
    isa::Program p1, p4;
    RvvBackend m1(512, RvvMapping::library(1));
    RvvBackend m4(512, RvvMapping::library(4));
    m1.setProgram(&p1);
    m4.setProgram(&p4);
    m1.add(out.view(), a.view(), b.view());
    m4.add(out.view(), a.view(), b.view());
    EXPECT_LT(p4.countVector(), p1.countVector());
}

TEST(Emission, GemminiStaticScheduleShrinksScalarWork)
{
    Rng rng(9);
    TestMat a(12, 12, rng), x(1, 12, rng), y(1, 12, rng);
    isa::Program pd, ps;
    GemminiBackend dyn(GemminiMapping::baseline());
    GemminiMapping sm = GemminiMapping::staticMapped();
    GemminiBackend stat(sm);
    dyn.setProgram(&pd);
    stat.setProgram(&ps);
    dyn.gemv(y.view(), a.view(), x.view(), 1.0f, 0.0f);
    stat.gemv(y.view(), a.view(), x.view(), 1.0f, 0.0f);
    EXPECT_LT(ps.countScalar(), pd.countScalar());
    // Same accelerator commands either way.
    EXPECT_EQ(ps.countRocc(), pd.countRocc());
}

TEST(Emission, GemminiSpadResidencyDropsFences)
{
    Rng rng(10);
    TestMat a(12, 12, rng), x(1, 12, rng), y(1, 12, rng);

    auto fences = [](const isa::Program &p) {
        size_t n = 0;
        for (const auto &u : p.uops())
            if (u.kind == isa::UopKind::RoccFence)
                ++n;
        return n;
    };

    isa::Program plib, pres;
    GemminiBackend lib(GemminiMapping::staticMapped());
    GemminiBackend res(GemminiMapping::fullyOptimized());
    lib.setProgram(&plib);
    res.setProgram(&pres);
    for (int rep = 0; rep < 4; ++rep) {
        lib.gemv(y.view(), a.view(), x.view(), 1.0f, 0.0f);
        res.gemv(y.view(), a.view(), x.view(), 1.0f, 0.0f);
    }
    EXPECT_GT(fences(plib), fences(pres));
}

TEST(Emission, GemminiCiscEmitsMoreConfigTraffic)
{
    Rng rng(11);
    TestMat a(12, 12, rng), x(1, 12, rng), y(1, 12, rng);
    GemminiMapping cisc;
    cisc.fineGrained = false;
    GemminiMapping fine;
    fine.fineGrained = true;
    isa::Program pc, pf;
    GemminiBackend bc(cisc), bf(fine);
    bc.setProgram(&pc);
    bf.setProgram(&pf);
    bc.gemv(y.view(), a.view(), x.view(), 1.0f, 0.0f);
    bf.gemv(y.view(), a.view(), x.view(), 1.0f, 0.0f);
    auto configs = [](const isa::Program &p) {
        size_t n = 0;
        for (const auto &u : p.uops())
            if (u.kind == isa::UopKind::RoccConfig)
                ++n;
        return n;
    };
    // CISC needs multiple RoCC configuration commands per macro-op
    // (§4.2.3); the fine-grained path reuses one configuration.
    EXPECT_GT(configs(pc), configs(pf));
}

TEST(Emission, EmissionIsDataIndependent)
{
    // The same operation on different data must emit the same stream
    // (timing depends on shapes/mappings only) - required for the
    // HIL calibration approach.
    Rng rng1(1), rng2(999);
    TestMat a1(12, 12, rng1), x1(1, 12, rng1), y1(1, 12, rng1);
    TestMat a2(12, 12, rng2), x2(1, 12, rng2), y2(1, 12, rng2);
    isa::Program p1, p2;
    RvvBackend b1(512, RvvMapping::handOptimized());
    RvvBackend b2(512, RvvMapping::handOptimized());
    b1.setProgram(&p1);
    b2.setProgram(&p2);
    b1.gemv(y1.view(), a1.view(), x1.view(), 1.0f, 0.0f);
    b2.gemv(y2.view(), a2.view(), x2.view(), 1.0f, 0.0f);
    ASSERT_EQ(p1.size(), p2.size());
    for (size_t i = 0; i < p1.size(); ++i)
        EXPECT_EQ(static_cast<int>(p1.uops()[i].kind),
                  static_cast<int>(p2.uops()[i].kind));
}

/** Elementwise op sweep: every backend agrees on every size. */
class EwiseSizeSweep : public ::testing::TestWithParam<int>
{};

TEST_P(EwiseSizeSweep, SaxpbyAgreesEverywhere)
{
    int n = GetParam();
    Rng rng(n * 17 + 3);
    TestMat a(1, n, rng), b_in(1, n, rng);
    auto backends = allBackends();
    std::vector<float> golden;
    for (auto &backend : backends) {
        std::vector<float> out(static_cast<size_t>(n));
        Mat om(out.data(), 1, n);
        backend->saxpby(om, -2.5f, a.view(), 0.5f, b_in.view());
        if (golden.empty())
            golden = out;
        else
            EXPECT_EQ(out, golden) << backend->name() << " n=" << n;
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EwiseSizeSweep,
                         ::testing::Values(1, 3, 4, 12, 16, 17, 48, 100,
                                           120, 129));

TEST(Emission, GemminiCiscRequiresMemoryOperands)
{
    GemminiMapping bad = GemminiMapping::fullyOptimized();
    bad.fineGrained = false;
    EXPECT_EXIT({ GemminiBackend b(bad); (void)b; },
                ::testing::ExitedWithCode(1), "");
}

} // namespace
} // namespace rtoc::matlib
