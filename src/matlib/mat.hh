/**
 * @file
 * Float32 matrix/vector views and functional reference kernels.
 *
 * This reproduces the paper's `matlib`: a lightweight C-style linear
 * algebra interface for embedded optimization (§3.2). A Mat is a
 * non-owning view over row-major float32 storage; TinyMPC's workspace
 * owns the buffers. The `ref` namespace holds the *functional*
 * implementations — every backend computes identical float32 results
 * and differs only in the micro-op stream it emits, so software-
 * mapping optimizations can never change solver semantics (a property
 * the test suite checks bit-exactly).
 *
 * Two paths compute the f32 values of a TinyMPC solve. While a
 * backend emits, each Backend operation calls the out-of-line ref::
 * kernel (gemv, saxpby, clampVec, ...). The non-emitting closed-loop
 * solve (tinympc::Solver::solve) instead runs the column-form
 * templates below, over transposed operands and at compile-time
 * shapes, with no virtual dispatch (its narrow formats run their
 * saturating MACs through the same macColChunks loop). The column
 * form is exact, not an approximation: each output keeps its own
 * accumulator, initialized to 0.0f and advanced by one serial `+=`
 * chain in ascending column order, then combined as alpha·acc +
 * beta·y (and sa·t + sb·b), the very op sequence of ref::gemv. Only
 * the *interleaving* of independent outputs changes, which is what
 * lets the compiler put output rows in SIMD lanes. No chain is
 * reassociated, so the two paths agree bit for bit (pinned in
 * test_matlib and test_tinympc).
 * Contraction into FMAs would break this; the build disables it.
 */

#ifndef RTOC_MATLIB_MAT_HH
#define RTOC_MATLIB_MAT_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/logging.hh"

namespace rtoc::matlib {

/** Non-owning row-major float32 matrix view. */
struct Mat
{
    float *data = nullptr;
    int rows = 0;
    int cols = 0;

    Mat() = default;

    Mat(float *d, int r, int c) : data(d), rows(r), cols(c) {}

    /** Element access. */
    float &
    at(int r, int c) const
    {
        rtoc_assert(r >= 0 && r < rows && c >= 0 && c < cols);
        return data[static_cast<size_t>(r) * cols + c];
    }

    /** Contiguous row view (length == cols). */
    Mat
    row(int r) const
    {
        rtoc_assert(r >= 0 && r < rows);
        return Mat(data + static_cast<size_t>(r) * cols, 1, cols);
    }

    /** Total elements. */
    int size() const { return rows * cols; }

    /** True for 1 x n views used as vectors. */
    bool isVec() const { return rows == 1; }

    /** Vector element access. */
    float &
    operator[](int i) const
    {
        rtoc_assert(rows == 1 && i >= 0 && i < cols);
        return data[i];
    }
};

/** True when the floats [p, p+n) and [q, q+m) do not overlap. */
inline bool
disjoint(const float *p, int n, const float *q, int m)
{
    auto pb = reinterpret_cast<uintptr_t>(p);
    auto qb = reinterpret_cast<uintptr_t>(q);
    return pb + static_cast<uintptr_t>(n) * sizeof(float) <= qb ||
           qb + static_cast<uintptr_t>(m) * sizeof(float) <= pb;
}

/**
 * Column-form accumulation: for each output i < m, acc = Acc{} then
 * acc = mac(acc, at[j·m + i], x[j]) for j ascending, handed to
 * @p out(i, acc). @p at is Aᵀ (n x m, row j = column j of A). A
 * positive M or N fixes that dimension at compile time (the argument
 * must equal it); 0 reads it at run time, with the outputs taken in
 * register-sized chunks. The narrow datapaths (tinympc's non-emitting
 * solve) run their converted operands and saturating MACs through
 * this same loop.
 */
template <int M, int N, typename Acc, typename T, typename Mac,
          typename Out>
inline void
macColChunks(const T *__restrict at, const T *__restrict x, int m, int n,
             Mac &&mac, Out &&out)
{
    rtoc_assert((M == 0 || m == M) && (N == 0 || n == N));
    if constexpr (M > 0)
        m = M;
    if constexpr (N > 0)
        n = N;
    constexpr int kChunk = M > 0 ? M : 16;
    for (int i0 = 0; i0 < m; i0 += kChunk) {
        const int w = M > 0 ? M : std::min(kChunk, m - i0);
        Acc acc[kChunk];
        for (int i = 0; i < w; ++i)
            acc[i] = Acc{};
        for (int j = 0; j < n; ++j) {
            const T xj = x[j];
            const T *__restrict col = at + static_cast<size_t>(j) * m + i0;
            for (int i = 0; i < w; ++i)
                acc[i] = mac(acc[i], col[i], xj);
        }
        for (int i = 0; i < w; ++i)
            out(i0 + i, acc[i]);
    }
}

/** Functional float32 kernels shared by all backends. */
namespace ref {

/** y = alpha * A x + beta * y; A is m x n, x len n, y len m. */
void gemv(Mat y, const Mat &a, Mat x, float alpha, float beta);

/** y = alpha * Aᵀ x + beta * y; A is m x n, x len m, y len n. */
void gemvT(Mat y, const Mat &a, Mat x, float alpha, float beta);

/** C = A B. */
void gemm(Mat c, const Mat &a, const Mat &b);

/** out = sa * a + sb * b (elementwise; covers add/sub/axpy). */
void saxpby(Mat out, float sa, const Mat &a, float sb, const Mat &b);

/** out = a * s. */
void scale(Mat out, const Mat &a, float s);

/** acc += a - b (elementwise; the ADMM dual update shape). */
void accumDiff(Mat acc, const Mat &a, const Mat &b);

/** acc += s * (a - b) (the ADMM linear-cost update shape). */
void axpyDiff(Mat acc, float s, const Mat &a, const Mat &b);

/** out[i][j] = -a[i][j] * diag[j] (reference-cost row scaling). */
void rowScaleNeg(Mat out, const Mat &a, const Mat &diag);

/** out = min(hi, max(lo, a)) with vector bounds. */
void clampVec(Mat out, const Mat &a, const Mat &lo, const Mat &hi);

/** out = min(hi, max(lo, a)) with scalar bounds. */
void clampConst(Mat out, const Mat &a, float lo, float hi);

/** max_i |a_i - b_i| (the ADMM residual reduction). */
float absMaxDiff(const Mat &a, const Mat &b);

/** out = a. */
void copy(Mat out, const Mat &a);

/** out = s everywhere. */
void fill(Mat out, float s);

/**
 * glibc's fmaxf/fminf as inline selects. On x86-64 glibc is
 * maxss/minss plus a NaN fix-up: a NaN operand yields the other
 * operand (the first when both are NaN), and a tie, which includes
 * +0 against -0, yields the second operand. Signalling NaNs, which
 * glibc quiets instead, are not produced by the solver's arithmetic.
 */
inline float
fmaxSel(float x, float y)
{
    return x > y || std::isnan(y) ? x : y;
}

inline float
fminSel(float x, float y)
{
    return x < y || std::isnan(y) ? x : y;
}

/**
 * The float32 instance of macColChunks, shared by gemvCol and
 * gemvSaxpbyCol: acc starts at 0.0f and advances by acc += a·x.
 */
template <int M, int N, typename Out>
inline void
gemvColChunks(const float *__restrict at, const float *__restrict x,
              int m, int n, Out &&out)
{
    macColChunks<M, N, float>(
        at, x, m, n, [](float acc, float a, float xj) { return acc + a * xj; },
        out);
}

/**
 * y = alpha·A x + beta·y from @p at = Aᵀ (n x m); bit-identical to
 * ref::gemv(y, A, x, alpha, beta). Operands must not overlap.
 */
template <int M, int N>
inline void
gemvCol(float *__restrict y, const float *__restrict at,
        const float *__restrict x, float alpha, float beta, int m, int n)
{
    gemvColChunks<M, N>(at, x, m, n, [&](int i, float acc) {
        y[i] = alpha * acc + beta * y[i];
    });
}

/**
 * y = sa·(alpha·A x + beta·y) + sb·b from @p at = Aᵀ (n x m):
 * bit-identical to ref::gemv(y, A, x, alpha, beta) followed by
 * ref::saxpby(y, sa, y, sb, b), without the round trip of the
 * intermediate y. Operands must not overlap.
 */
template <int M, int N>
inline void
gemvSaxpbyCol(float *__restrict y, const float *__restrict at,
              const float *__restrict x, float alpha, float beta,
              float sa, float sb, const float *__restrict b, int m,
              int n)
{
    gemvColChunks<M, N>(at, x, m, n, [&](int i, float acc) {
        const float t = alpha * acc + beta * y[i];
        y[i] = sa * t + sb * b[i];
    });
}

} // namespace ref

} // namespace rtoc::matlib

#endif // RTOC_MATLIB_MAT_HH
