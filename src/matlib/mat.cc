#include "mat.hh"

namespace rtoc::matlib::ref {

/*
 * These kernels compute the values of every emitting Backend call
 * (the non-emitting f32 solve runs the column-form templates of
 * mat.hh instead), so each has a `__restrict` unit-stride fast path
 * taken when the operand ranges are provably disjoint. The fast
 * paths keep the reference loop structure and accumulation order
 * EXACTLY — sums stay one serial chain, elementwise bodies stay
 * per-index — so results are bit-identical to the reference loops
 * (pinned bitwise in test_matlib and by the golden figure outputs).
 * What `restrict` buys is the compiler's cross-output vectorization
 * (independent output chains of gemv/gemvT packed into SIMD lanes — legal
 * without reassociating any single chain) and the removal of runtime
 * alias-versioning checks in the elementwise kernels. A
 * hand-unrolled 4-wide variant was tried and LOST to this form:
 * manual unrolling of the reduction dimension blocks exactly that
 * cross-output vectorization. Aliased calls (e.g. saxpby(u, 1, u,
 * -1, d)) fall back to the reference loop, whose in-order semantics
 * they rely on.
 *
 * The clamps and the residual reduction use inline selects with
 * glibc's exact results (fmaxSel/fminSel in mat.hh) instead of
 * std::fmax/std::fmin, which compile to libm calls (pinned against
 * the library on adversarial operands in test_matlib). absMaxDiff's
 * maximum is order-free, so it runs on independent lanes.
 */

void
gemv(Mat y, const Mat &a, Mat x, float alpha, float beta)
{
    rtoc_assert(y.isVec() && x.isVec());
    rtoc_assert(a.rows == y.cols && a.cols == x.cols);
    const int m = a.rows;
    const int n = a.cols;
    if (disjoint(y.data, m, a.data, m * n) &&
        disjoint(y.data, m, x.data, n)) {
        const float *__restrict ap = a.data;
        const float *__restrict xp = x.data;
        float *__restrict yp = y.data;
        for (int i = 0; i < m; ++i) {
            float acc = 0.0f;
            for (int j = 0; j < n; ++j)
                acc += ap[static_cast<size_t>(i) * n + j] * xp[j];
            yp[i] = alpha * acc + beta * yp[i];
        }
        return;
    }
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
    rtoc_assert(y.isVec() && x.isVec());
    rtoc_assert(a.cols == y.cols && a.rows == x.cols);
    const int m = a.rows;
    const int n = a.cols;
    if (disjoint(y.data, n, a.data, m * n) &&
        disjoint(y.data, n, x.data, m)) {
        // Column walk of a row-major matrix: the compiler vectorizes
        // across the n output columns (contiguous row loads), each
        // column's chain staying in row order.
        const float *__restrict ap = a.data;
        const float *__restrict xp = x.data;
        float *__restrict yp = y.data;
        for (int j = 0; j < n; ++j) {
            float acc = 0.0f;
            for (int i = 0; i < m; ++i)
                acc += ap[static_cast<size_t>(i) * n + j] * xp[i];
            yp[j] = alpha * acc + beta * yp[j];
        }
        return;
    }
    for (int j = 0; j < a.cols; ++j) {
        float acc = 0.0f;
        for (int i = 0; i < a.rows; ++i)
            acc += a.at(i, j) * x[i];
        y[j] = alpha * acc + beta * y[j];
    }
}

void
gemm(Mat c, const Mat &a, const Mat &b)
{
    rtoc_assert(a.cols == b.rows);
    rtoc_assert(c.rows == a.rows && c.cols == b.cols);
    const int m = a.rows;
    const int k = a.cols;
    const int n = b.cols;
    if (disjoint(c.data, m * n, a.data, m * k) &&
        disjoint(c.data, m * n, b.data, k * n)) {
        const float *__restrict ap = a.data;
        const float *__restrict bp = b.data;
        float *__restrict cp = c.data;
        for (int i = 0; i < m; ++i) {
            for (int j = 0; j < n; ++j) {
                float acc = 0.0f;
                for (int l = 0; l < k; ++l) {
                    acc += ap[static_cast<size_t>(i) * k + l] *
                           bp[static_cast<size_t>(l) * n + j];
                }
                cp[static_cast<size_t>(i) * n + j] = acc;
            }
        }
        return;
    }
    for (int i = 0; i < c.rows; ++i) {
        for (int j = 0; j < c.cols; ++j) {
            float acc = 0.0f;
            for (int l = 0; l < a.cols; ++l)
                acc += a.at(i, l) * b.at(l, j);
            c.at(i, j) = acc;
        }
    }
}

void
saxpby(Mat out, float sa, const Mat &a, float sb, const Mat &b)
{
    rtoc_assert(out.size() == a.size() && out.size() == b.size());
    const int n = out.size();
    if (disjoint(out.data, n, a.data, n) &&
        disjoint(out.data, n, b.data, n)) {
        const float *__restrict ap = a.data;
        const float *__restrict bp = b.data;
        float *__restrict op = out.data;
        for (int i = 0; i < n; ++i)
            op[i] = sa * ap[i] + sb * bp[i];
        return;
    }
    for (int i = 0; i < n; ++i)
        out.data[i] = sa * a.data[i] + sb * b.data[i];
}

void
scale(Mat out, const Mat &a, float s)
{
    rtoc_assert(out.size() == a.size());
    const int n = out.size();
    if (disjoint(out.data, n, a.data, n)) {
        const float *__restrict ap = a.data;
        float *__restrict op = out.data;
        for (int i = 0; i < n; ++i)
            op[i] = ap[i] * s;
        return;
    }
    for (int i = 0; i < n; ++i)
        out.data[i] = a.data[i] * s;
}

void
accumDiff(Mat acc, const Mat &a, const Mat &b)
{
    rtoc_assert(acc.size() == a.size() && acc.size() == b.size());
    const int n = acc.size();
    if (disjoint(acc.data, n, a.data, n) &&
        disjoint(acc.data, n, b.data, n)) {
        const float *__restrict ap = a.data;
        const float *__restrict bp = b.data;
        float *__restrict cp = acc.data;
        for (int i = 0; i < n; ++i)
            cp[i] += ap[i] - bp[i];
        return;
    }
    for (int i = 0; i < n; ++i)
        acc.data[i] += a.data[i] - b.data[i];
}

void
axpyDiff(Mat acc, float s, const Mat &a, const Mat &b)
{
    rtoc_assert(acc.size() == a.size() && acc.size() == b.size());
    const int n = acc.size();
    if (disjoint(acc.data, n, a.data, n) &&
        disjoint(acc.data, n, b.data, n)) {
        const float *__restrict ap = a.data;
        const float *__restrict bp = b.data;
        float *__restrict cp = acc.data;
        for (int i = 0; i < n; ++i)
            cp[i] += s * (ap[i] - bp[i]);
        return;
    }
    for (int i = 0; i < n; ++i)
        acc.data[i] += s * (a.data[i] - b.data[i]);
}

void
rowScaleNeg(Mat out, const Mat &a, const Mat &diag)
{
    rtoc_assert(out.rows == a.rows && out.cols == a.cols);
    rtoc_assert(diag.isVec() && diag.cols == a.cols);
    const int rows = out.rows;
    const int cols = out.cols;
    if (disjoint(out.data, rows * cols, a.data, rows * cols) &&
        disjoint(out.data, rows * cols, diag.data, cols)) {
        const float *__restrict ap = a.data;
        const float *__restrict dp = diag.data;
        float *__restrict op = out.data;
        for (int i = 0; i < rows; ++i)
            for (int j = 0; j < cols; ++j) {
                op[static_cast<size_t>(i) * cols + j] =
                    -ap[static_cast<size_t>(i) * cols + j] * dp[j];
            }
        return;
    }
    for (int i = 0; i < rows; ++i)
        for (int j = 0; j < cols; ++j)
            out.at(i, j) = -a.at(i, j) * diag[j];
}

void
clampVec(Mat out, const Mat &a, const Mat &lo, const Mat &hi)
{
    rtoc_assert(out.size() == a.size());
    rtoc_assert(out.size() == lo.size() && out.size() == hi.size());
    const int n = out.size();
    if (disjoint(out.data, n, lo.data, n) &&
        disjoint(out.data, n, hi.data, n)) {
        // out may alias a (the solver clamps in place): per-index
        // read-then-write keeps that exact.
        const float *__restrict lp = lo.data;
        const float *__restrict hp = hi.data;
        for (int i = 0; i < n; ++i) {
            float v = a.data[i];
            v = fmaxSel(v, lp[i]);
            v = fminSel(v, hp[i]);
            out.data[i] = v;
        }
        return;
    }
    for (int i = 0; i < n; ++i) {
        float v = a.data[i];
        v = fmaxSel(v, lo.data[i]);
        v = fminSel(v, hi.data[i]);
        out.data[i] = v;
    }
}

void
clampConst(Mat out, const Mat &a, float lo, float hi)
{
    rtoc_assert(out.size() == a.size());
    const int n = out.size();
    // Per-index read-then-write: exact under out==a aliasing too.
    for (int i = 0; i < n; ++i) {
        float v = a.data[i];
        v = fmaxSel(v, lo);
        v = fminSel(v, hi);
        out.data[i] = v;
    }
}

float
absMaxDiff(const Mat &a, const Mat &b)
{
    rtoc_assert(a.size() == b.size());
    const int n = a.size();
    const float *__restrict ap = a.data;
    const float *__restrict bp = b.data;
    // The reference is the serial chain m = fmax(m, |a_i - b_i|) from
    // m = +0. It skips NaN differences and every other term is >= +0,
    // so it is the plain maximum of a NaN-free set of non-negative
    // floats (ties are bit-equal: no -0 ever enters): any order gives
    // its bits. Eight independent lanes let the compiler emit maxps.
    constexpr int kLanes = 8;
    float lane[kLanes] = {};
    int i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        for (int k = 0; k < kLanes; ++k) {
            const float d = std::fabs(ap[i + k] - bp[i + k]);
            lane[k] = d > lane[k] ? d : lane[k]; // NaN keeps the lane
        }
    }
    float m = 0.0f;
    for (; i < n; ++i) {
        const float d = std::fabs(ap[i] - bp[i]);
        m = d > m ? d : m;
    }
    for (float l : lane)
        m = l > m ? l : m;
    return m;
}

void
copy(Mat out, const Mat &a)
{
    rtoc_assert(out.size() == a.size());
    const int n = out.size();
    if (disjoint(out.data, n, a.data, n)) {
        const float *__restrict ap = a.data;
        float *__restrict op = out.data;
        for (int i = 0; i < n; ++i)
            op[i] = ap[i];
        return;
    }
    for (int i = 0; i < n; ++i)
        out.data[i] = a.data[i];
}

void
fill(Mat out, float s)
{
    float *__restrict op = out.data;
    const int n = out.size();
    for (int i = 0; i < n; ++i)
        op[i] = s;
}

} // namespace rtoc::matlib::ref
