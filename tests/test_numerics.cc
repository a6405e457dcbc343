/**
 * @file
 * Unit and property tests for the offline numerics: dense matrix
 * algebra, LU solve, Cholesky, matrix exponential, ZOH discretization
 * and the discrete Riccati solver (and its memo).
 */

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "common/thread_pool.hh"
#include "hil/sweep.hh"
#include "numerics/dare.hh"
#include "numerics/dmatrix.hh"

namespace rtoc::numerics {
namespace {

TEST(DMatrix, IdentityMultiplication)
{
    DMatrix a(2, 3, {1, 2, 3, 4, 5, 6});
    DMatrix r = DMatrix::identity(2) * a;
    EXPECT_NEAR(r.maxAbsDiff(a), 0.0, 1e-15);
}

TEST(DMatrix, MultiplyKnownValues)
{
    DMatrix a(2, 2, {1, 2, 3, 4});
    DMatrix b(2, 2, {5, 6, 7, 8});
    DMatrix c = a * b;
    EXPECT_DOUBLE_EQ(c(0, 0), 19);
    EXPECT_DOUBLE_EQ(c(0, 1), 22);
    EXPECT_DOUBLE_EQ(c(1, 0), 43);
    EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(DMatrix, TransposeInvolution)
{
    DMatrix a(3, 2, {1, 2, 3, 4, 5, 6});
    EXPECT_NEAR(a.transpose().transpose().maxAbsDiff(a), 0.0, 0.0);
}

TEST(DMatrix, AddSubScale)
{
    DMatrix a(2, 2, {1, 2, 3, 4});
    DMatrix b(2, 2, {4, 3, 2, 1});
    DMatrix sum = a + b;
    EXPECT_DOUBLE_EQ(sum(0, 0), 5);
    DMatrix diff = sum - b;
    EXPECT_NEAR(diff.maxAbsDiff(a), 0.0, 0.0);
    DMatrix scaled = a * 2.0;
    EXPECT_DOUBLE_EQ(scaled(1, 1), 8);
}

TEST(DMatrix, FrobeniusNorm)
{
    DMatrix a(1, 2, {3, 4});
    EXPECT_DOUBLE_EQ(a.frobenius(), 5.0);
}

TEST(LuSolve, SolvesKnownSystem)
{
    DMatrix a(2, 2, {2, 1, 1, 3});
    DMatrix b(2, 1, {3, 5});
    DMatrix x = luSolve(a, b);
    EXPECT_NEAR(x(0, 0), 0.8, 1e-12);
    EXPECT_NEAR(x(1, 0), 1.4, 1e-12);
}

TEST(LuSolve, InverseRoundTrip)
{
    DMatrix a(4, 4,
              {4, 1, 0, 0, 1, 5, 2, 0, 0, 2, 6, 1, 0, 0, 1, 7});
    DMatrix inv = inverse(a);
    DMatrix eye = a * inv;
    EXPECT_NEAR(eye.maxAbsDiff(DMatrix::identity(4)), 0.0, 1e-10);
}

TEST(LuSolve, PermutedSystemNeedsPivoting)
{
    // Zero on the leading diagonal forces a row swap.
    DMatrix a(2, 2, {0, 1, 1, 0});
    DMatrix b(2, 1, {2, 3});
    DMatrix x = luSolve(a, b);
    EXPECT_NEAR(x(0, 0), 3.0, 1e-12);
    EXPECT_NEAR(x(1, 0), 2.0, 1e-12);
}

TEST(Cholesky, FactorReconstructs)
{
    DMatrix a(3, 3, {4, 2, 1, 2, 5, 2, 1, 2, 6});
    DMatrix l = cholesky(a);
    DMatrix recon = l * l.transpose();
    EXPECT_NEAR(recon.maxAbsDiff(a), 0.0, 1e-12);
    // L is lower-triangular.
    EXPECT_DOUBLE_EQ(l(0, 1), 0.0);
    EXPECT_DOUBLE_EQ(l(0, 2), 0.0);
    EXPECT_DOUBLE_EQ(l(1, 2), 0.0);
}

TEST(Expm, ZeroMatrixGivesIdentity)
{
    DMatrix z(3, 3);
    EXPECT_NEAR(expm(z).maxAbsDiff(DMatrix::identity(3)), 0.0, 1e-14);
}

TEST(Expm, DiagonalMatchesScalarExp)
{
    DMatrix a = DMatrix::diag({0.5, -1.0, 2.0});
    DMatrix e = expm(a);
    EXPECT_NEAR(e(0, 0), std::exp(0.5), 1e-10);
    EXPECT_NEAR(e(1, 1), std::exp(-1.0), 1e-10);
    EXPECT_NEAR(e(2, 2), std::exp(2.0), 1e-10);
    EXPECT_NEAR(e(0, 1), 0.0, 1e-12);
}

TEST(Expm, RotationBlock)
{
    // exp([[0,-t],[t,0]]) = [[cos t, -sin t],[sin t, cos t]].
    double t = 0.7;
    DMatrix a(2, 2, {0, -t, t, 0});
    DMatrix e = expm(a);
    EXPECT_NEAR(e(0, 0), std::cos(t), 1e-10);
    EXPECT_NEAR(e(0, 1), -std::sin(t), 1e-10);
    EXPECT_NEAR(e(1, 0), std::sin(t), 1e-10);
}

TEST(Zoh, DoubleIntegratorKnownForm)
{
    // xdot = [[0,1],[0,0]] x + [0,1]^T u -> Ad = [[1,dt],[0,1]],
    // Bd = [dt^2/2, dt]^T.
    DMatrix ac(2, 2, {0, 1, 0, 0});
    DMatrix bc(2, 1, {0, 1});
    double dt = 0.05;
    DMatrix adbd = zohDiscretize(ac, bc, dt);
    EXPECT_NEAR(adbd(0, 0), 1.0, 1e-12);
    EXPECT_NEAR(adbd(0, 1), dt, 1e-12);
    EXPECT_NEAR(adbd(1, 1), 1.0, 1e-12);
    EXPECT_NEAR(adbd(0, 2), dt * dt / 2, 1e-12);
    EXPECT_NEAR(adbd(1, 2), dt, 1e-12);
}

class DareTest : public ::testing::TestWithParam<double>
{};

TEST_P(DareTest, RiccatiFixedPointHolds)
{
    // Double integrator with varying rho: the returned Pinf must
    // satisfy the rho-augmented DARE.
    double rho = GetParam();
    DMatrix a(2, 2, {1, 0.05, 0, 1});
    DMatrix b(2, 1, {0.00125, 0.05});
    DMatrix q = DMatrix::diag({10.0, 1.0});
    DMatrix r = DMatrix::diag({0.1});
    LqrCache c = solveDare(a, b, q, r, rho);

    DMatrix q_rho = q + DMatrix::identity(2) * rho;
    DMatrix r_rho = r + DMatrix::identity(1) * rho;
    DMatrix at = a.transpose();
    DMatrix bt = b.transpose();
    DMatrix rhs = q_rho + at * c.pinf * (a - b * c.kinf);
    EXPECT_NEAR(rhs.maxAbsDiff(c.pinf), 0.0, 1e-6);

    // Kinf consistency: (R + B'PB) K = B'PA.
    DMatrix lhs = (r_rho + bt * c.pinf * b) * c.kinf;
    DMatrix rhs2 = bt * c.pinf * a;
    EXPECT_NEAR(lhs.maxAbsDiff(rhs2), 0.0, 1e-8);

    // QuuInv really is the inverse.
    DMatrix eye = c.quuInv * (r_rho + bt * c.pinf * b);
    EXPECT_NEAR(eye.maxAbsDiff(DMatrix::identity(1)), 0.0, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(RhoSweep, DareTest,
                         ::testing::Values(0.1, 1.0, 5.0, 25.0));

TEST(Dare, ClosedLoopIsStable)
{
    DMatrix a(2, 2, {1, 0.05, 0, 1});
    DMatrix b(2, 1, {0.00125, 0.05});
    LqrCache c = solveDare(a, b, DMatrix::diag({10.0, 1.0}),
                           DMatrix::diag({0.1}), 1.0);
    // Simulate x+ = (A - B K) x: must contract to zero.
    DMatrix acl = a - b * c.kinf;
    DMatrix x(2, 1, {1.0, -2.0});
    for (int i = 0; i < 400; ++i)
        x = acl * x;
    EXPECT_LT(x.maxAbs(), 1e-6);
}

TEST(Dare, AmBKtIsTransposedClosedLoop)
{
    DMatrix a(2, 2, {1, 0.05, 0, 1});
    DMatrix b(2, 1, {0.00125, 0.05});
    LqrCache c = solveDare(a, b, DMatrix::diag({10.0, 1.0}),
                           DMatrix::diag({0.1}), 1.0);
    DMatrix expect = (a - b * c.kinf).transpose();
    EXPECT_NEAR(c.amBKt.maxAbsDiff(expect), 0.0, 1e-12);
}

// --- in-place DMatrix updates and the allocation-free DARE loop ---

TEST(DMatrixInPlace, MatchesAllocatingOperatorsBitExactly)
{
    // Deterministic pseudo-random operands (LCG, no <random>).
    auto fill = [](DMatrix &m, uint64_t seed) {
        for (int i = 0; i < m.rows(); ++i)
            for (int j = 0; j < m.cols(); ++j) {
                seed = seed * 6364136223846793005ull + 1442695040888963407ull;
                m(i, j) =
                    static_cast<double>(static_cast<int64_t>(seed >> 20)) /
                    (1ll << 40);
            }
    };
    DMatrix a(7, 5), b(5, 9), c(7, 9), d(7, 9);
    fill(a, 1);
    fill(b, 2);
    fill(c, 3);
    fill(d, 4);

    DMatrix prod;
    prod.gemmInto(a, b);
    DMatrix expect = a * b;
    EXPECT_EQ(prod.maxAbsDiff(expect), 0.0);

    // Shape reuse: second gemmInto of the same shape reuses storage.
    const double *before = prod.data();
    prod.gemmInto(a, b);
    EXPECT_EQ(prod.data(), before);

    DMatrix add = c;
    add.addInPlace(d);
    EXPECT_EQ(add.maxAbsDiff(c + d), 0.0);
    DMatrix sub = c;
    sub.subInPlace(d);
    EXPECT_EQ(sub.maxAbsDiff(c - d), 0.0);

    // The zero-skip of operator* is mirrored (sparse row).
    DMatrix az(3, 3, {0, 0, 0, 1, 0, 2, 0, 3, 0});
    DMatrix bz(3, 3);
    fill(bz, 5);
    DMatrix pz;
    pz.gemmInto(az, bz);
    EXPECT_EQ(pz.maxAbsDiff(az * bz), 0.0);
}

/**
 * The historical allocating DARE iteration, kept verbatim as the
 * reference: the in-place loop in trySolveDare must reproduce its
 * Pinf/Kinf bit-for-bit (addInPlace commutes bitwise, gemmInto keeps
 * the accumulation order).
 */
std::optional<LqrCache>
referenceDare(const DMatrix &a, const DMatrix &b, const DMatrix &q,
              const DMatrix &r, double rho, const DMatrix *p_warm,
              double tol, int max_iters)
{
    int nx = a.rows();
    DMatrix q_rho = q + DMatrix::identity(nx) * rho;
    DMatrix r_rho = r + DMatrix::identity(b.cols()) * rho;
    DMatrix at = a.transpose();
    DMatrix bt = b.transpose();
    DMatrix p = p_warm != nullptr ? *p_warm : q_rho;
    DMatrix kinf(b.cols(), nx);
    LqrCache cache;
    for (int it = 0; it < max_iters; ++it) {
        DMatrix btp = bt * p;
        DMatrix quu = r_rho + btp * b;
        DMatrix k_new = luSolve(quu, btp * a);
        DMatrix p_new = q_rho + at * p * (a - b * k_new);
        double dk = k_new.maxAbsDiff(kinf);
        kinf = k_new;
        double dp = p_new.maxAbsDiff(p);
        p = p_new;
        cache.iterations = it + 1;
        cache.residual = dp;
        if (dk < tol && it > 1) {
            DMatrix quu_final = r_rho + bt * p * b;
            cache.kinf = kinf;
            cache.pinf = p;
            cache.quuInv = inverse(quu_final);
            cache.amBKt = (a - b * kinf).transpose();
            return cache;
        }
    }
    return std::nullopt;
}

TEST(Dare, InPlaceIterationBitIdenticalToAllocatingReference)
{
    // Double integrator and a 3-state system, cold and warm started.
    DMatrix a2(2, 2, {1, 0.05, 0, 1});
    DMatrix b2(2, 1, {0.00125, 0.05});
    DMatrix q2 = DMatrix::diag({10.0, 1.0});
    DMatrix r2 = DMatrix::diag({0.1});

    DMatrix a3(3, 3, {1, 0.05, 0.001, 0, 0.98, 0.05, 0.01, 0, 0.95});
    DMatrix b3(3, 2, {0.002, 0, 0.05, 0.01, 0, 0.04});
    DMatrix q3 = DMatrix::diag({5.0, 2.0, 1.0});
    DMatrix r3 = DMatrix::diag({0.2, 0.3});

    struct Case
    {
        const DMatrix *a, *b, *q, *r;
        double rho;
    };
    for (const Case &c :
         {Case{&a2, &b2, &q2, &r2, 1.0}, Case{&a2, &b2, &q2, &r2, 5.0},
          Case{&a3, &b3, &q3, &r3, 1.0}}) {
        auto expect = referenceDare(*c.a, *c.b, *c.q, *c.r, c.rho,
                                    nullptr, 1e-10, 10000);
        auto got = trySolveDare(*c.a, *c.b, *c.q, *c.r, c.rho, nullptr,
                                1e-10, 10000);
        ASSERT_TRUE(expect.has_value());
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(got->iterations, expect->iterations);
        EXPECT_EQ(got->pinf.maxAbsDiff(expect->pinf), 0.0);
        EXPECT_EQ(got->kinf.maxAbsDiff(expect->kinf), 0.0);
        EXPECT_EQ(got->quuInv.maxAbsDiff(expect->quuInv), 0.0);
        EXPECT_EQ(got->amBKt.maxAbsDiff(expect->amBKt), 0.0);

        // Warm start from the converged Pinf: the session-refresh
        // path. Must also match bit-for-bit and converge faster.
        auto warm_ref = referenceDare(*c.a, *c.b, *c.q, *c.r, c.rho,
                                      &expect->pinf, 1e-10, 10000);
        auto warm_got = trySolveDare(*c.a, *c.b, *c.q, *c.r, c.rho,
                                     &expect->pinf, 1e-10, 10000);
        ASSERT_TRUE(warm_ref.has_value());
        ASSERT_TRUE(warm_got.has_value());
        EXPECT_EQ(warm_got->iterations, warm_ref->iterations);
        EXPECT_EQ(warm_got->pinf.maxAbsDiff(warm_ref->pinf), 0.0);
        EXPECT_LE(warm_got->iterations, got->iterations);
    }
}

// --- the solveDare memo ---

void
expectSameBits(const DMatrix &got, const DMatrix &want, const char *what)
{
    ASSERT_EQ(got.rows(), want.rows()) << what;
    ASSERT_EQ(got.cols(), want.cols()) << what;
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(double)),
              0)
        << what;
}

/** Every field bitwise, the iteration count and residual included. */
void
expectSameCache(const LqrCache &got, const LqrCache &want)
{
    expectSameBits(got.kinf, want.kinf, "kinf");
    expectSameBits(got.pinf, want.pinf, "pinf");
    expectSameBits(got.quuInv, want.quuInv, "quuInv");
    expectSameBits(got.amBKt, want.amBKt, "amBKt");
    EXPECT_EQ(got.iterations, want.iterations);
    EXPECT_EQ(std::memcmp(&got.residual, &want.residual, sizeof(double)),
              0);
}

/** A 3-state problem no other test in this binary solves. */
struct MemoProblem
{
    DMatrix a{3, 3, {1, 0.04, 0.002, 0, 0.97, 0.04, 0.02, 0, 0.96}};
    DMatrix b{3, 2, {0.003, 0, 0.04, 0.02, 0, 0.05}};
    DMatrix q = DMatrix::diag({7.0, 3.0, 1.5});
    DMatrix r = DMatrix::diag({0.25, 0.35});
};

TEST(Dare, MemoHitIsBitIdenticalToFreshSolve)
{
    MemoProblem m;
    auto fresh = trySolveDare(m.a, m.b, m.q, m.r, 2.0, nullptr, 1e-10,
                              10000);
    ASSERT_TRUE(fresh.has_value());

    DareMemoStats before = dareMemoStats();
    LqrCache first = solveDare(m.a, m.b, m.q, m.r, 2.0);
    LqrCache second = solveDare(m.a, m.b, m.q, m.r, 2.0);
    DareMemoStats after = dareMemoStats();
    EXPECT_EQ(after.misses - before.misses, 1u);
    EXPECT_EQ(after.hits - before.hits, 1u);
    expectSameCache(first, *fresh);
    expectSameCache(second, *fresh);

    // The copy handed out is the caller's: mutating it leaves the
    // memoized entry intact.
    second.kinf(0, 0) += 1.0;
    expectSameCache(solveDare(m.a, m.b, m.q, m.r, 2.0), *fresh);

    // Every input is part of the key: another tolerance, iteration
    // bound or one changed bit of an operand solves afresh.
    before = dareMemoStats();
    LqrCache loose = solveDare(m.a, m.b, m.q, m.r, 2.0, 1e-6);
    solveDare(m.a, m.b, m.q, m.r, 2.0, 1e-10, 9999);
    DMatrix q2 = m.q;
    q2(2, 2) = std::nextafter(q2(2, 2), 2.0);
    solveDare(m.a, m.b, q2, m.r, 2.0);
    after = dareMemoStats();
    EXPECT_EQ(after.misses - before.misses, 3u);
    EXPECT_EQ(after.hits - before.hits, 0u);
    auto loose_fresh =
        trySolveDare(m.a, m.b, m.q, m.r, 2.0, nullptr, 1e-6, 10000);
    ASSERT_TRUE(loose_fresh.has_value());
    expectSameCache(loose, *loose_fresh);
}

TEST(Dare, ConcurrentMemoCallsAgree)
{
    // Racing first solves and hits of three keys on four workers.
    MemoProblem m;
    const double rhos[] = {3.0, 4.0, 6.0};
    ThreadPool pool(4);
    hil::SweepRunner runner(pool);
    runner.setGrain(1);
    std::vector<LqrCache> got = runner.map<LqrCache>(
        48, [&](size_t i) {
            return solveDare(m.a, m.b, m.q, m.r, rhos[i % 3]);
        });
    for (size_t i = 0; i < got.size(); ++i) {
        auto fresh = trySolveDare(m.a, m.b, m.q, m.r, rhos[i % 3],
                                  nullptr, 1e-10, 10000);
        ASSERT_TRUE(fresh.has_value());
        expectSameCache(got[i], *fresh);
    }
}

} // namespace
} // namespace rtoc::numerics
