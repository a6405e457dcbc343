#include "solver.hh"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "common/logging.hh"
#include "matlib/fixed_arith.hh"
#include "matlib/gemmini_backend.hh"

namespace rtoc::tinympc {

using matlib::Mat;
using matlib::NumericFormat;
namespace fx = matlib::fx;

namespace {

/**
 * Kernel-region ids interned once per process; the per-solve hot path
 * opens regions by id and never constructs a name string.
 */
struct KernelIds
{
    isa::KernelId forwardPass1 = isa::internKernel("forward_pass_1");
    isa::KernelId forwardPass2 = isa::internKernel("forward_pass_2");
    isa::KernelId updateSlack1 = isa::internKernel("update_slack_1");
    isa::KernelId updateSlack2 = isa::internKernel("update_slack_2");
    isa::KernelId updateDual1 = isa::internKernel("update_dual_1");
    isa::KernelId updateLinearCost1 =
        isa::internKernel("update_linear_cost_1");
    isa::KernelId updateLinearCost2 =
        isa::internKernel("update_linear_cost_2");
    isa::KernelId updateLinearCost3 =
        isa::internKernel("update_linear_cost_3");
    isa::KernelId updateLinearCost4 =
        isa::internKernel("update_linear_cost_4");
    isa::KernelId backwardPass1 = isa::internKernel("backward_pass_1");
    isa::KernelId backwardPass2 = isa::internKernel("backward_pass_2");
    isa::KernelId primalResidualState =
        isa::internKernel("primal_residual_state");
    isa::KernelId dualResidualState =
        isa::internKernel("dual_residual_state");
    isa::KernelId primalResidualInput =
        isa::internKernel("primal_residual_input");
    isa::KernelId dualResidualInput =
        isa::internKernel("dual_residual_input");
    isa::KernelId slackCopy = isa::internKernel("slack_copy");
    isa::KernelId affineShift = isa::internKernel("affine_shift");
    isa::KernelId riccatiSweep = isa::internKernel("riccati_sweep");
    isa::KernelId modelRefreshCommit =
        isa::internKernel("model_refresh_commit");
};

const KernelIds &
kid()
{
    static const KernelIds ids;
    return ids;
}

/** dst = srcᵀ. */
void
transposeInto(Buffer &dst, const Buffer &src)
{
    const int rows = src.rows();
    const int cols = src.cols();
    rtoc_assert(dst.rows() == cols && dst.cols() == rows);
    const float *sp = src.data();
    float *dp = dst.data();
    for (int i = 0; i < rows; ++i)
        for (int j = 0; j < cols; ++j)
            dp[static_cast<size_t>(j) * rows + i] =
                sp[static_cast<size_t>(i) * cols + j];
}

/*
 * The non-emitting solve. Each loop below performs, per element,
 * exactly the op sequence of the Backend calls in Solver's kernel
 * methods at the backend's format (1·a + 1·b is written a + b at f32:
 * multiplying by one is exact, and the compiler folds it in both
 * paths alike), so every workspace buffer and every saturation count
 * ends bit-identical to an emitting solve. The elementwise kernels of
 * one iteration (slack, dual and linear-cost updates) are fused into
 * one pass per trajectory: each element reads only its own index of
 * the other trajectories, so the order across elements is free.
 */

/**
 * The datapath of one non-emitting solve at format @p F: its
 * column-form gemv operands, the conversion of vector operands and
 * the MAC and elementwise kernels. At f32 the operands are the float
 * transposes and the kernels are ref::gemvCol and plain float ops. On
 * a narrow format each gain/dynamics matrix is converted once per
 * solve, under the KernelSpec of the kernel that reads it (gemvT for
 * Pinf, gemv for the rest), and its quantizer clamps are counted once;
 * every use adds that count, which is the count the fx:: kernels give
 * by converting it on every call. Nothing is cached across solves: a
 * model refresh may swap the matrices and the scaling between ticks.
 */
template <NumericFormat F>
class Datapath
{
  public:
    static constexpr bool kF32 = F == NumericFormat::F32;
    using T = std::conditional_t<kF32, float, fx::Operand<F>>;

    /** A gemv operand: Aᵀ (n x m), its quantizer clamps and the
     *  grids of the kernel that reads it. */
    struct Col
    {
        const T *at = nullptr;
        uint64_t sats = 0;
        const fx::SpecGrids<F> *spec = nullptr;
    };

    /** A converted vector operand and its quantizer clamps. */
    struct Vec
    {
        const T *v = nullptr;
        uint64_t sats = 0;
    };

    Col kinf, adyn, bdyn, bdynT, quuInv, amBKt, kinfT, pinf;

    Datapath(Workspace &ws, const fx::Scaling &s)
        : gemv_(s.gemv), gemvT_(s.gemvT), saxpby_(s.saxpby)
    {
        // Column-form operands: A x runs over Aᵀ. Kinf x, Bdyn u,
        // BdynᵀP and KinfᵀR read the existing kinfT, bdynT, bdyn and
        // kinf; Pinfᵀ x (gemvT) reads Pinf itself.
        if constexpr (kF32) {
            transposeInto(ws.adynT, ws.adyn);
            transposeInto(ws.amBK, ws.amBKt);
            transposeInto(ws.quuInvT, ws.quuInv);
            kinf = {ws.kinfT.data(), 0, &gemv_};
            adyn = {ws.adynT.data(), 0, &gemv_};
            bdyn = {ws.bdynT.data(), 0, &gemv_};
            bdynT = {ws.bdyn.data(), 0, &gemv_};
            quuInv = {ws.quuInvT.data(), 0, &gemv_};
            amBKt = {ws.amBK.data(), 0, &gemv_};
            kinfT = {ws.kinf.data(), 0, &gemv_};
            pinf = {ws.pinf.data(), 0, &gemvT_};
        } else {
            if (F != NumericFormat::BF16 &&
                !(fx::fracsInRange(F, s.gemv) &&
                  fx::fracsInRange(F, s.gemvT) &&
                  fx::fracsInRange(F, s.saxpby))) {
                rtoc_panic("fx kernel: fraction bits out of range");
            }
            T *dst = nullptr;
            if constexpr (F == NumericFormat::BF16)
                dst = ws.bf16Cols.data();
            else
                dst = ws.fixedCols.data();
            kinf = convert(dst, ws.kinfT, false, gemv_);
            adyn = convert(dst, ws.adyn, true, gemv_);
            bdyn = convert(dst, ws.bdynT, false, gemv_);
            bdynT = convert(dst, ws.bdyn, false, gemv_);
            quuInv = convert(dst, ws.quuInv, true, gemv_);
            amBKt = convert(dst, ws.amBKt, true, gemv_);
            kinfT = convert(dst, ws.kinf, false, gemv_);
            pinf = convert(dst, ws.pinf, false, gemvT_);
            slots_ = dst;
            slotLen_ = std::max(ws.nx, ws.nu);
        }
    }

    // The operands point at this object's grids.
    Datapath(const Datapath &) = delete;
    Datapath &operator=(const Datapath &) = delete;

    /** Vector @p v of @p n elements as the x operand of a gemv use,
     *  converted into scratch slot @p slot. */
    Vec
    vec(const float *v, int n, int slot)
    {
        return convert(v, n, slot, gemv_);
    }

    /** Vector @p v as the x operand of a gemvT use. */
    Vec
    vecT(const float *v, int n, int slot)
    {
        return convert(v, n, slot, gemvT_);
    }

    /** y = alpha·A x + beta·y. */
    template <int M, int N>
    void
    gemv(float *y, const Col &a, const Vec &x, float alpha, float beta,
         int m, int n)
    {
        if constexpr (kF32) {
            matlib::ref::gemvCol<M, N>(y, a.at, x.v, alpha, beta, m, n);
        } else {
            mac<M, N>(y, a, x, alpha, beta, m, n,
                      [&](int i, float v, uint64_t &) { y[i] = v; });
        }
    }

    /** y = sa·(alpha·A x + beta·y) + sb·b. */
    template <int M, int N>
    void
    gemvSaxpby(float *y, const Col &a, const Vec &x, float alpha,
               float beta, float sa, float sb, const float *b, int m,
               int n)
    {
        if constexpr (kF32) {
            matlib::ref::gemvSaxpbyCol<M, N>(y, a.at, x.v, alpha, beta, sa,
                                             sb, b, m, n);
        } else {
            mac<M, N>(y, a, x, alpha, beta, m, n,
                      [&](int i, float v, uint64_t &sats) {
                          y[i] = fx::saxpbyElem<F>(sa, v, sb, b[i],
                                                   saxpby_, sats);
                      });
        }
    }

    /** The elementwise saxpby sa·a + sb·b; clamps count into @p sats. */
    float
    saxpby(float sa, float a, float sb, float b, uint64_t &sats) const
    {
        if constexpr (kF32)
            return sa * a + sb * b;
        else
            return fx::saxpbyElem<F>(sa, a, sb, b, saxpby_, sats);
    }

    /** a + b, the saxpby of Backend::add. */
    float
    add(float a, float b, uint64_t &sats) const
    {
        if constexpr (kF32)
            return a + b;
        else
            return fx::saxpbyElem<F>(1.0f, a, 1.0f, b, saxpby_, sats);
    }

    /** Add the clamps counted by an elementwise pass. */
    void countQuant(uint64_t sats) { counts_.quantSats += sats; }

    /** The saturation counts of the solve so far. */
    const fx::Counters &counts() const { return counts_; }

  private:
    /** Convert @p src (as is, or transposed) into @p dst, advancing it. */
    Col
    convert(T *&dst, const Buffer &src, bool transpose,
            const fx::SpecGrids<F> &k)
    {
        const int rows = src.rows();
        const int cols = src.cols();
        const float *sp = src.data();
        uint64_t sats = 0;
        for (int i = 0; i < rows; ++i) {
            for (int j = 0; j < cols; ++j) {
                const size_t at = transpose
                                      ? static_cast<size_t>(j) * rows + i
                                      : static_cast<size_t>(i) * cols + j;
                dst[at] = fx::toOperand<F>(
                    sp[static_cast<size_t>(i) * cols + j], k.a, sats);
            }
        }
        Col c{dst, sats, &k};
        dst += static_cast<size_t>(rows) * cols;
        return c;
    }

    Vec
    convert(const float *v, int n, int slot, const fx::SpecGrids<F> &k)
    {
        if constexpr (kF32) {
            return {v, 0};
        } else {
            T *dst = slots_ + static_cast<size_t>(slot) * slotLen_;
            uint64_t sats = 0;
            for (int j = 0; j < n; ++j)
                dst[j] = fx::toOperand<F>(v[j], k.x, sats);
            return {dst, sats};
        }
    }

    /**
     * One narrow gemv use: the MAC chains of every output in column
     * form, then the output store handed to @p store(i, value, sats).
     * The vector's clamps count once per output row, as in fx::gemv.
     */
    template <int M, int N, typename Store>
    void
    mac(const float *y, const Col &a, const Vec &x, float alpha,
        float beta, int m, int n, Store &&store)
    {
        const fx::SpecGrids<F> &k = *a.spec;
        uint64_t quant = a.sats + static_cast<uint64_t>(m) * x.sats;
        uint64_t acc_sats = 0;
        matlib::macColChunks<M, N, fx::Acc<F>>(
            a.at, x.v, m, n,
            [&](fx::Acc<F> acc, T av, T xv) {
                return fx::mac<F>(acc, av, xv, acc_sats);
            },
            [&](int i, fx::Acc<F> acc) {
                store(i,
                      fx::gemvStore<F>(acc, alpha, beta, y[i], k, quant,
                                       acc_sats),
                      quant);
            });
        counts_.quantSats += quant;
        counts_.accSats += acc_sats;
    }

    fx::SpecGrids<F> gemv_, gemvT_, saxpby_;
    T *slots_ = nullptr;
    size_t slotLen_ = 0;
    fx::Counters counts_;
};

/**
 * Input side: znew = clamp(u + y), y += u - znew,
 * r = -rho·znew + rho·y.
 */
template <NumericFormat F>
void
inputUpdates(const Datapath<F> &dp, uint64_t &sats, int n, float rho,
             const float *__restrict u, float *__restrict y,
             float *__restrict znew, float *__restrict r,
             const float *__restrict lo, const float *__restrict hi)
{
    for (int e = 0; e < n; ++e) {
        float v = dp.add(u[e], y[e], sats);
        v = matlib::ref::fmaxSel(v, lo[e]);
        v = matlib::ref::fminSel(v, hi[e]);
        znew[e] = v;
        const float yn = y[e] + (u[e] - v);
        y[e] = yn;
        r[e] = dp.saxpby(-rho, v, rho, yn, sats);
    }
}

/**
 * State side: vnew = clamp(x + g), g += x - vnew,
 * q = -(xRef·Q) - rho·(vnew - g).
 */
template <NumericFormat F, int NX>
void
stateUpdates(const Datapath<F> &dp, uint64_t &sats, int rows, int nx,
             float rho, const float *__restrict x, float *__restrict g,
             float *__restrict vnew, float *__restrict q,
             const float *__restrict lo, const float *__restrict hi,
             const float *__restrict xref, const float *__restrict qdiag)
{
    if constexpr (NX > 0)
        nx = NX;
    for (int i = 0; i < rows; ++i) {
        const size_t row = static_cast<size_t>(i) * nx;
        for (int j = 0; j < nx; ++j) {
            const size_t e = row + j;
            float v = dp.add(x[e], g[e], sats);
            v = matlib::ref::fmaxSel(v, lo[e]);
            v = matlib::ref::fminSel(v, hi[e]);
            vnew[e] = v;
            const float gn = g[e] + (x[e] - v);
            g[e] = gn;
            const float qe = -xref[e] * qdiag[j];
            q[e] = qe + -rho * (v - gn);
        }
    }
}

/**
 * ADMM iterations of the non-emitting solve at format @p F and shape
 * (NX, NU); 0 takes the dimension from the workspace at run time.
 * Fills iterations, converged and the residuals of @p res, and
 * returns the saturation counts of the narrow datapaths.
 */
template <NumericFormat F, int NX, int NU>
fx::Counters
admm(Workspace &ws, const fx::Scaling &scaling, int bound,
     SolveResult &res)
{
    const int nx = NX > 0 ? NX : ws.nx;
    const int nu = NU > 0 ? NU : ws.nu;
    const int N = ws.N;
    const Settings &s = ws.settings;
    const float rho = s.rho;

    Datapath<F> dp(ws, scaling);
    float *x = ws.x.data();
    float *u = ws.u.data();
    float *d = ws.d.data();
    float *p = ws.p.data();
    float *r = ws.r.data();
    float *q = ws.q.data();
    const float *affine = ws.affine.data();
    const float *pAffine = ws.pAffine.data();
    float *tmpNu = ws.tmpNu.data();
    float *tmpNx = ws.tmpNx.data();
    const size_t last = static_cast<size_t>(N - 1) * nx;

    for (int iter = 1; iter <= bound; ++iter) {
        uint64_t sats = 0; // elementwise clamps of this iteration

        // Forward pass: u[i] = -Kinf x[i] - d[i];
        // x[i+1] = Adyn x[i] + Bdyn u[i] (+ cd off-trim).
        for (int i = 0; i < N - 1; ++i) {
            float *xi = x + static_cast<size_t>(i) * nx;
            float *xn = xi + nx;
            float *ui = u + static_cast<size_t>(i) * nu;
            const auto xv = dp.vec(xi, nx, 0);
            dp.template gemvSaxpby<NU, NX>(
                ui, dp.kinf, xv, -1.0f, 0.0f, 1.0f, -1.0f,
                d + static_cast<size_t>(i) * nu, nu, nx);
            dp.template gemv<NX, NX>(xn, dp.adyn, xv, 1.0f, 0.0f, nx, nx);
            const auto uv = dp.vec(ui, nu, 1);
            if (ws.hasAffine) {
                dp.template gemvSaxpby<NX, NU>(xn, dp.bdyn, uv, 1.0f, 1.0f,
                                               1.0f, 1.0f, affine, nx, nu);
            } else {
                dp.template gemv<NX, NU>(xn, dp.bdyn, uv, 1.0f, 1.0f, nx,
                                         nu);
            }
        }

        // Slack, dual and linear-cost updates.
        inputUpdates(dp, sats, (N - 1) * nu, rho, u, ws.y.data(),
                     ws.znew.data(), r, ws.uMin.data(), ws.uMax.data());
        stateUpdates<F, NX>(dp, sats, N, nx, rho, x, ws.g.data(),
                            ws.vnew.data(), q, ws.xMin.data(),
                            ws.xMax.data(), ws.xRef.data(),
                            ws.qDiag.data());
        // p[N-1] = -(Xref[N-1]ᵀ Pinf) - rho (vnew[N-1] - g[N-1]).
        float *pl = p + last;
        dp.template gemv<NX, NX>(pl, dp.pinf,
                                 dp.vecT(ws.xRef.data() + last, nx, 0),
                                 -1.0f, 0.0f, nx, nx);
        const float *vl = ws.vnew.data() + last;
        const float *gl = ws.g.data() + last;
        for (int j = 0; j < nx; ++j)
            pl[j] += -rho * (vl[j] - gl[j]);

        // Backward pass: d[i] = Quu_inv (Bdynᵀ p[i+1] + r[i]);
        // p[i] = q[i] + AmBKt p[i+1] - Kinfᵀ r[i].
        for (int i = N - 2; i >= 0; --i) {
            const float *pn = p + static_cast<size_t>(i + 1) * nx;
            float *pi = p + static_cast<size_t>(i) * nx;
            const float *ri = r + static_cast<size_t>(i) * nu;
            if (ws.hasAffine) {
                for (int j = 0; j < nx; ++j)
                    tmpNx[j] = dp.add(pn[j], pAffine[j], sats);
                pn = tmpNx;
            }
            const auto pv = dp.vec(pn, nx, 0);
            dp.template gemvSaxpby<NU, NX>(tmpNu, dp.bdynT, pv, 1.0f, 0.0f,
                                           1.0f, 1.0f, ri, nu, nx);
            dp.template gemv<NU, NU>(d + static_cast<size_t>(i) * nu,
                                     dp.quuInv, dp.vec(tmpNu, nu, 2), 1.0f,
                                     0.0f, nu, nu);
            dp.template gemvSaxpby<NX, NX>(
                pi, dp.amBKt, pv, 1.0f, 0.0f, 1.0f, 1.0f,
                q + static_cast<size_t>(i) * nx, nx, nx);
            dp.template gemv<NX, NU>(pi, dp.kinfT, dp.vec(ri, nu, 1), -1.0f,
                                     1.0f, nx, nu);
        }
        dp.countQuant(sats);
        res.iterations = iter;

        if (iter % s.checkTermination == 0) {
            res.primalResidualState =
                matlib::ref::absMaxDiff(ws.x.view(), ws.vnew.view());
            res.dualResidualState =
                rho * matlib::ref::absMaxDiff(ws.v.view(), ws.vnew.view());
            res.primalResidualInput =
                matlib::ref::absMaxDiff(ws.u.view(), ws.znew.view());
            res.dualResidualInput =
                rho * matlib::ref::absMaxDiff(ws.z.view(), ws.znew.view());
            res.converged = res.primalResidualState < s.priTol &&
                            res.primalResidualInput < s.priTol &&
                            res.dualResidualState < s.duaTol &&
                            res.dualResidualInput < s.duaTol;
        }
        matlib::ref::copy(ws.z.view(), ws.znew.view());
        matlib::ref::copy(ws.v.view(), ws.vnew.view());
        if (res.converged)
            break;
    }
    return dp.counts();
}

/** Shape dispatch: the registry plants get compile-time shapes. */
template <NumericFormat F>
fx::Counters
solveFast(Workspace &ws, const fx::Scaling &s, int bound,
          SolveResult &res)
{
    if (ws.nx == 12 && ws.nu == 4)
        return admm<F, 12, 4>(ws, s, bound, res); // quadrotor
    if (ws.nx == 6 && ws.nu == 3)
        return admm<F, 6, 3>(ws, s, bound, res); // rocket
    if (ws.nx == 5 && ws.nu == 2)
        return admm<F, 5, 2>(ws, s, bound, res); // rover
    if (ws.nx == 4 && ws.nu == 1)
        return admm<F, 4, 1>(ws, s, bound, res); // cart-pole
    return admm<F, 0, 0>(ws, s, bound, res);
}

/** Format dispatch of the non-emitting solve. */
fx::Counters
solveFast(NumericFormat f, Workspace &ws, const fx::Scaling &s, int bound,
          SolveResult &res)
{
    switch (f) {
      case NumericFormat::F32:
        return solveFast<NumericFormat::F32>(ws, s, bound, res);
      case NumericFormat::BF16:
        return solveFast<NumericFormat::BF16>(ws, s, bound, res);
      case NumericFormat::I32:
        return solveFast<NumericFormat::I32>(ws, s, bound, res);
      case NumericFormat::I16:
        return solveFast<NumericFormat::I16>(ws, s, bound, res);
    }
    rtoc_panic("solve: bad format %d", static_cast<int>(f));
}

} // namespace

Solver::Solver(Workspace &ws, matlib::Backend &backend, MappingStyle style)
    : ws_(ws), backend_(backend), style_(style)
{}

void
Solver::checkFusedEmission() const
{
    if (style_ == MappingStyle::Fused && backend_.program() != nullptr &&
        !backend_.supportsFusedEmission()) {
        rtoc_fatal("backend '%s' cannot emit MappingStyle::Fused "
                   "kernels (CISC tiled-matmul constraints forbid "
                   "register-resident per-step fusion, paper §4.2.3); "
                   "use MappingStyle::Library or LibraryPerStep",
                   backend_.name().c_str());
    }
}

void
Solver::setup()
{
    checkFusedEmission();
    // Gemmini scratchpad residency: stage the whole solver workspace
    // plus the cache matrices into bank 0 once (paper Fig. 8).
    if (auto *gem = dynamic_cast<matlib::GemminiBackend *>(&backend_)) {
        Mat mats[] = {ws_.kinf.view(),   ws_.kinfT.view(),
                      ws_.pinf.view(),   ws_.quuInv.view(),
                      ws_.amBKt.view(),  ws_.adyn.view(),
                      ws_.bdyn.view(),   ws_.bdynT.view(),
                      ws_.x.view(),      ws_.u.view(),
                      ws_.znew.view(),   ws_.z.view(),
                      ws_.y.view(),      ws_.vnew.view(),
                      ws_.v.view(),      ws_.g.view(),
                      ws_.q.view(),      ws_.p.view(),
                      ws_.r.view(),      ws_.d.view(),
                      ws_.xRef.view(),   ws_.uMin.view(),
                      ws_.uMax.view(),   ws_.xMin.view(),
                      ws_.xMax.view(),   ws_.qDiag.view()};
        gem->initResident({&mats[0],  &mats[1],  &mats[2],  &mats[3],
                           &mats[4],  &mats[5],  &mats[6],  &mats[7],
                           &mats[8],  &mats[9],  &mats[10], &mats[11],
                           &mats[12], &mats[13], &mats[14], &mats[15],
                           &mats[16], &mats[17], &mats[18], &mats[19],
                           &mats[20], &mats[21], &mats[22], &mats[23],
                           &mats[24], &mats[25]});
    }
}

void
Solver::forwardPass()
{
    for (int i = 0; i < ws_.N - 1; ++i) {
        Mat xi = ws_.x.row(i);
        Mat xn = ws_.x.row(i + 1);
        Mat ui = ws_.u.row(i);
        Mat di = ws_.d.row(i);

        if (style_ == MappingStyle::Fused)
            backend_.beginFuse();
        {
            KernelScope k(backend_, kid().forwardPass1);
            // u[i] = -Kinf x[i] - d[i]
            backend_.gemvSaxpby(ui, ws_.kinf.view(), xi, -1.0f, 0.0f,
                                1.0f, -1.0f, di);
        }
        {
            KernelScope k(backend_, kid().forwardPass2);
            // x[i+1] = Adyn x[i] + Bdyn u[i] (+ cd off-trim)
            backend_.gemv(xn, ws_.adyn.view(), xi, 1.0f, 0.0f);
            if (ws_.hasAffine) {
                backend_.gemvSaxpby(xn, ws_.bdyn.view(), ui, 1.0f,
                                    1.0f, 1.0f, 1.0f,
                                    ws_.affine.view());
            } else {
                backend_.gemv(xn, ws_.bdyn.view(), ui, 1.0f, 1.0f);
            }
        }
        if (style_ == MappingStyle::Fused)
            backend_.endFuse();
    }
}

void
Solver::updateSlack()
{
    if (style_ == MappingStyle::Library) {
        {
            KernelScope k(backend_, kid().updateSlack1);
            backend_.add(ws_.znew.view(), ws_.u.view(), ws_.y.view());
            backend_.clampVec(ws_.znew.view(), ws_.znew.view(),
                              ws_.uMin.view(), ws_.uMax.view());
        }
        {
            KernelScope k(backend_, kid().updateSlack2);
            backend_.add(ws_.vnew.view(), ws_.x.view(), ws_.g.view());
            backend_.clampVec(ws_.vnew.view(), ws_.vnew.view(),
                              ws_.xMin.view(), ws_.xMax.view());
        }
        return;
    }
    // Fused: per-step rows, temporaries register-resident.
    for (int i = 0; i < ws_.N - 1; ++i) {
        backend_.beginFuse();
        KernelScope k(backend_, kid().updateSlack1);
        Mat zi = ws_.znew.row(i);
        backend_.add(zi, ws_.u.row(i), ws_.y.row(i));
        backend_.clampVec(zi, zi, ws_.uMin.row(i), ws_.uMax.row(i));
        backend_.endFuse();
    }
    for (int i = 0; i < ws_.N; ++i) {
        backend_.beginFuse();
        KernelScope k(backend_, kid().updateSlack2);
        Mat vi = ws_.vnew.row(i);
        backend_.add(vi, ws_.x.row(i), ws_.g.row(i));
        backend_.clampVec(vi, vi, ws_.xMin.row(i), ws_.xMax.row(i));
        backend_.endFuse();
    }
}

void
Solver::updateDual()
{
    if (style_ == MappingStyle::Library) {
        KernelScope k(backend_, kid().updateDual1);
        backend_.accumDiff(ws_.y.view(), ws_.u.view(), ws_.znew.view());
        backend_.accumDiff(ws_.g.view(), ws_.x.view(), ws_.vnew.view());
        return;
    }
    for (int i = 0; i < ws_.N - 1; ++i) {
        backend_.beginFuse();
        KernelScope k(backend_, kid().updateDual1);
        backend_.accumDiff(ws_.y.row(i), ws_.u.row(i), ws_.znew.row(i));
        backend_.endFuse();
    }
    for (int i = 0; i < ws_.N; ++i) {
        backend_.beginFuse();
        KernelScope k(backend_, kid().updateDual1);
        backend_.accumDiff(ws_.g.row(i), ws_.x.row(i), ws_.vnew.row(i));
        backend_.endFuse();
    }
}

void
Solver::updateLinearCost()
{
    float rho = ws_.settings.rho;
    if (style_ == MappingStyle::Library) {
        {
            KernelScope k(backend_, kid().updateLinearCost1);
            // r = -rho (znew - y)
            backend_.saxpby(ws_.r.view(), -rho, ws_.znew.view(), rho,
                            ws_.y.view());
        }
        {
            KernelScope k(backend_, kid().updateLinearCost2);
            // q = -(Xref . Q)
            backend_.rowScaleNeg(ws_.q.view(), ws_.xRef.view(),
                                 ws_.qDiag.view());
        }
        {
            KernelScope k(backend_, kid().updateLinearCost3);
            // q -= rho (vnew - g)
            backend_.axpyDiff(ws_.q.view(), -rho, ws_.vnew.view(),
                              ws_.g.view());
        }
    } else {
        for (int i = 0; i < ws_.N - 1; ++i) {
            backend_.beginFuse();
            KernelScope k(backend_, kid().updateLinearCost1);
            backend_.saxpby(ws_.r.row(i), -rho, ws_.znew.row(i), rho,
                            ws_.y.row(i));
            backend_.endFuse();
        }
        for (int i = 0; i < ws_.N; ++i) {
            backend_.beginFuse();
            {
                KernelScope k(backend_, kid().updateLinearCost2);
                backend_.rowScaleNeg(ws_.q.row(i), ws_.xRef.row(i),
                                     ws_.qDiag.view());
            }
            {
                KernelScope k(backend_, kid().updateLinearCost3);
                backend_.axpyDiff(ws_.q.row(i), -rho, ws_.vnew.row(i),
                                  ws_.g.row(i));
            }
            backend_.endFuse();
        }
    }
    {
        // p[N-1] = -(Xref[N-1]^T Pinf) - rho (vnew[N-1] - g[N-1])
        if (style_ == MappingStyle::Fused)
            backend_.beginFuse();
        KernelScope k(backend_, kid().updateLinearCost4);
        Mat p_last = ws_.p.row(ws_.N - 1);
        backend_.gemvT(p_last, ws_.pinf.view(), ws_.xRef.row(ws_.N - 1),
                       -1.0f, 0.0f);
        backend_.axpyDiff(p_last, -rho, ws_.vnew.row(ws_.N - 1),
                          ws_.g.row(ws_.N - 1));
        if (style_ == MappingStyle::Fused)
            backend_.endFuse();
    }
}

void
Solver::backwardPass()
{
    for (int i = ws_.N - 2; i >= 0; --i) {
        Mat pn = ws_.p.row(i + 1);
        Mat pi = ws_.p.row(i);
        Mat ri = ws_.r.row(i);
        Mat di = ws_.d.row(i);
        Mat tmp = ws_.tmpNu.view();

        if (style_ == MappingStyle::Fused)
            backend_.beginFuse();
        if (ws_.hasAffine) {
            // Affine dynamics shift every cost-to-go gradient by
            // Pinf·cd: use p_eff[i+1] = p[i+1] + Pinf·cd in both the
            // feedforward and the recursion (exact affine-LQR terms).
            KernelScope k(backend_, kid().affineShift);
            backend_.saxpby(ws_.tmpNx.view(), 1.0f, pn, 1.0f,
                            ws_.pAffine.view());
            pn = ws_.tmpNx.view();
        }
        {
            KernelScope k(backend_, kid().backwardPass1);
            // d[i] = Quu_inv (Bdyn^T p[i+1] + r[i])
            backend_.gemvSaxpby(tmp, ws_.bdynT.view(), pn, 1.0f, 0.0f,
                                1.0f, 1.0f, ri);
            backend_.gemv(di, ws_.quuInv.view(), tmp, 1.0f, 0.0f);
        }
        {
            KernelScope k(backend_, kid().backwardPass2);
            // p[i] = q[i] + AmBKt p[i+1] - Kinf^T r[i]
            backend_.gemvSaxpby(pi, ws_.amBKt.view(), pn, 1.0f, 0.0f,
                                1.0f, 1.0f, ws_.q.row(i));
            backend_.gemv(pi, ws_.kinfT.view(), ri, -1.0f, 1.0f);
        }
        if (style_ == MappingStyle::Fused)
            backend_.endFuse();
    }
}

bool
Solver::checkResiduals(SolveResult &res)
{
    float rho = ws_.settings.rho;
    {
        KernelScope k(backend_, kid().primalResidualState);
        res.primalResidualState =
            backend_.absMaxDiff(ws_.x.view(), ws_.vnew.view());
    }
    {
        KernelScope k(backend_, kid().dualResidualState);
        res.dualResidualState =
            rho * backend_.absMaxDiff(ws_.v.view(), ws_.vnew.view());
    }
    {
        KernelScope k(backend_, kid().primalResidualInput);
        res.primalResidualInput =
            backend_.absMaxDiff(ws_.u.view(), ws_.znew.view());
    }
    {
        KernelScope k(backend_, kid().dualResidualInput);
        res.dualResidualInput =
            rho * backend_.absMaxDiff(ws_.z.view(), ws_.znew.view());
    }
    const Settings &s = ws_.settings;
    return res.primalResidualState < s.priTol &&
           res.primalResidualInput < s.priTol &&
           res.dualResidualState < s.duaTol &&
           res.dualResidualInput < s.duaTol;
}

SolveResult
Solver::solve(int max_iters)
{
    checkFusedEmission();
    SolveResult res;
    const Settings &s = ws_.settings;
    // Anytime budget: <=0 means the configured bound (the historical
    // path); a positive budget caps the iteration count.
    const int bound = max_iters > 0 ? std::min(max_iters, s.maxIters)
                                    : s.maxIters;

    if (backend_.program() == nullptr) {
        // Nothing to emit, and values depend only on the format and
        // the scaling: the dispatch-free fixed-shape path (see the
        // file comment).
        backend_.addFxCounters(solveFast(backend_.format(), ws_,
                                         backend_.fixedScaling(), bound,
                                         res));
    } else {
        for (int iter = 1; iter <= bound; ++iter) {
            forwardPass();
            updateSlack();
            updateDual();
            updateLinearCost();
            backwardPass();
            res.iterations = iter;

            bool check = (iter % s.checkTermination) == 0;
            if (check && checkResiduals(res)) {
                res.converged = true;
            }
            {
                // Slack bookkeeping for the next dual residual.
                KernelScope k(backend_, kid().slackCopy);
                backend_.copy(ws_.z.view(), ws_.znew.view());
                backend_.copy(ws_.v.view(), ws_.vnew.view());
            }
            if (res.converged)
                break;
        }
        // Export the solution to the CPU/actuators (Gemmini:
        // mvout+fence).
        backend_.sync();
    }

    // Divergence check: non-finite residuals or command mean the
    // iteration blew up (compounding quantization error on narrow
    // formats). Costs nu + 4 finiteness tests per solve.
    bool finite = std::isfinite(res.primalResidualState) &&
                  std::isfinite(res.dualResidualState) &&
                  std::isfinite(res.primalResidualInput) &&
                  std::isfinite(res.dualResidualInput);
    matlib::Mat u0 = ws_.u.row(0);
    for (int i = 0; finite && i < u0.cols; ++i)
        finite = std::isfinite(u0[i]);
    res.diverged = !finite;
    return res;
}

void
emitModelRefresh(Workspace &ws, matlib::Backend &backend,
                 int riccati_iters)
{
    rtoc_assert(riccati_iters >= 1);
    const int nx = ws.nx;
    const int nu = ws.nu;

    // Scratch results: the sweep computes real float32 values (the
    // flop/traffic proxy of the on-device refresh) without touching
    // the workspace, whose cache stays the authoritative double-
    // precision solution committed by Workspace::refreshModel.
    Buffer btp(nu, nx), quu(nu, nu), quuW(nu, nu), ka(nu, nx);
    Buffer knew(nu, nx), bk(nx, nx), ambk(nx, nx), pa(nx, nx);
    Buffer pnew(nx, nx), pc(1, nx);

    // Gemmini refresh sessions restage the cache matrices (residency
    // and config-elision state reset, so the stream depends only on
    // mapping and shape — never on emission history).
    if (auto *gem = dynamic_cast<matlib::GemminiBackend *>(&backend)) {
        Mat mats[] = {ws.kinf.view(),   ws.kinfT.view(),
                      ws.pinf.view(),   ws.quuInv.view(),
                      ws.amBKt.view(),  ws.adyn.view(),
                      ws.bdyn.view(),   ws.bdynT.view()};
        gem->initResident({&mats[0], &mats[1], &mats[2], &mats[3],
                           &mats[4], &mats[5], &mats[6], &mats[7]});
    }

    for (int it = 0; it < riccati_iters; ++it) {
        // One fixed-point sweep of P <- Q + A'P(A - BK), K = Quu^-1
        // B'PA, in float32 over scratch operands (matching shapes and
        // operation mix; the nu x nu inverse is modelled by one extra
        // nu^3 gemm).
        KernelScope k(backend, kid().riccatiSweep);
        backend.gemm(btp.view(), ws.bdynT.view(), ws.pinf.view());
        backend.gemm(quu.view(), btp.view(), ws.bdyn.view());
        backend.gemm(quuW.view(), quu.view(), ws.quuInv.view());
        backend.gemm(ka.view(), btp.view(), ws.adyn.view());
        backend.gemm(knew.view(), quuW.view(), ka.view());
        backend.gemm(bk.view(), ws.bdyn.view(), knew.view());
        backend.saxpby(ambk.view(), 1.0f, ws.adyn.view(), -1.0f,
                       bk.view());
        backend.gemm(pa.view(), ws.pinf.view(), ambk.view());
        backend.gemm(pnew.view(), ws.amBKt.view(), pa.view());
        backend.saxpby(pnew.view(), 1.0f, pnew.view(), 1.0f,
                       ws.pinf.view());
    }
    {
        // Cache commit: write back the refreshed terms (modelled as
        // one pass over each cache matrix) and precompute the affine
        // shift Pinf·cd into scratch.
        KernelScope k(backend, kid().modelRefreshCommit);
        for (Buffer *b : {&ws.adyn, &ws.bdyn, &ws.bdynT, &ws.kinf,
                          &ws.kinfT, &ws.pinf, &ws.quuInv, &ws.amBKt,
                          &ws.affine}) {
            backend.copy(b->view(), b->view());
        }
        backend.gemvT(pc.view(), ws.pinf.view(), ws.affine.view(),
                      1.0f, 0.0f);
    }
    backend.sync();
}

matlib::fx::Scaling
calibrateFixedScaling(Workspace &ws, matlib::NumericFormat f)
{
    auto mat_max = [](const Mat &m) {
        double r = 0.0;
        for (int i = 0; i < m.size(); ++i) {
            double v = std::fabs(static_cast<double>(
                m.data[static_cast<size_t>(i)]));
            if (std::isfinite(v) && v > r)
                r = v;
        }
        return r;
    };

    // Gain/dynamics ranges: exact — the cached LQR solution is known
    // before the fixed-point datapath ever runs.
    double mat_range = 1.0;
    Buffer *mats[] = {&ws.kinf,   &ws.kinfT, &ws.pinf,
                      &ws.quuInv, &ws.amBKt, &ws.adyn,
                      &ws.bdyn,   &ws.bdynT};
    for (Buffer *b : mats)
        mat_range = std::max(mat_range, mat_max(b->view()));

    // Trajectory ranges: references plus finite bound-box edges
    // (sentinel "unbounded" magnitudes are excluded), with 4x
    // excursion headroom for transients beyond the reference.
    double vec_range = 1.0;
    vec_range = std::max(vec_range, mat_max(ws.xRef.view()));
    Buffer *boxes[] = {&ws.uMin, &ws.uMax, &ws.xMin, &ws.xMax};
    for (Buffer *b : boxes) {
        const Mat m = b->view();
        for (int i = 0; i < m.size(); ++i) {
            double v = std::fabs(static_cast<double>(
                m.data[static_cast<size_t>(i)]));
            if (std::isfinite(v) && v < 1e6 && v > vec_range)
                vec_range = v;
        }
    }
    vec_range *= 4.0;

    // Dot-product / costate magnitudes: one gain row against a
    // trajectory vector, with slack for the ADMM linear-cost terms.
    double acc_range = mat_range * vec_range * 2.0;

    return matlib::fx::Scaling::forRanges(f, mat_range, vec_range,
                                          acc_range);
}

} // namespace rtoc::tinympc
