#include "matlib/fixed.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <type_traits>
#include <vector>

#include "common/logging.hh"
#include "matlib/fixed_arith.hh"

namespace rtoc::matlib {

const char *
formatName(NumericFormat f)
{
    switch (f) {
      case NumericFormat::F32: return "f32";
      case NumericFormat::I16: return "i16";
      case NumericFormat::I32: return "i32";
      case NumericFormat::BF16: return "bf16";
    }
    rtoc_panic("formatName: bad format %d", static_cast<int>(f));
}

int
formatSewBits(NumericFormat f)
{
    switch (f) {
      case NumericFormat::F32: return 32;
      case NumericFormat::I16: return 16;
      case NumericFormat::I32: return 32;
      case NumericFormat::BF16: return 16;
    }
    rtoc_panic("formatSewBits: bad format %d", static_cast<int>(f));
}

int
formatElemBytes(NumericFormat f)
{
    return formatSewBits(f) / 8;
}

std::string
formatKeySuffix(NumericFormat f)
{
    if (f == NumericFormat::F32)
        return "";
    return std::string("|fmt:") + formatName(f);
}

NumericFormat
parseFormat(const std::string &name)
{
    if (name == "f32")
        return NumericFormat::F32;
    if (name == "i16")
        return NumericFormat::I16;
    if (name == "i32")
        return NumericFormat::I32;
    if (name == "bf16")
        return NumericFormat::BF16;
    rtoc_fatal("unknown numeric format '%s' (want f32|i16|i32|bf16)",
               name.c_str());
}

NumericFormat
defaultFormat()
{
    static NumericFormat cached = [] {
        const char *env = std::getenv("RTOC_FORMAT");
        if (!env || !*env)
            return NumericFormat::F32;
        return parseFormat(env);
    }();
    return cached;
}

namespace fx {

namespace {

/** Fraction bits that keep |v| <= range representable. */
int
fracBitsFor(NumericFormat f, double range)
{
    // Headroom of 2x over the calibrated range before the quantizer
    // clamps; the saturating datapath absorbs (and counts) the rest.
    double bound = std::max(range, 1e-6) * 2.0;
    int int_bits = std::max(0, static_cast<int>(
        std::ceil(std::log2(bound))));
    return std::max(0, std::min(magnitudeBits(f) - 1 - int_bits,
                                magnitudeBits(f) - 1));
}

/**
 * This thread's operand buffer of at least @p n elements: grown on
 * demand and reused, so steady-state kernel calls never allocate.
 */
template <typename T>
T *
scratch(size_t n)
{
    thread_local std::vector<T> buf;
    if (buf.size() < n)
        buf.resize(n);
    return buf.data();
}

/**
 * y = alpha * op(A) x + beta * y on datapath @p F, op(A) = A or A^T.
 *
 * Row i converts its row of op(A) onto the datapath (bf16 rounding or
 * quantization), then runs one serial dot product in column order: a
 * float32 accumulator for bf16, or a saturating integer accumulator,
 * a round-shift onto the output grid and a scale-and-store. The
 * vector operand is converted once per call; its quantizer clamps
 * are added once per row, exactly the count a per-row conversion
 * gives. When y overlaps x, later rows must see the rows already
 * written, so x is re-converted before every row; A is converted row
 * by row, so y overlapping A stays in order too.
 */
template <NumericFormat F, bool Transposed>
void
gemvRows(const KernelSpec &s, Counters &c, Mat y, const Mat &a, Mat x,
         float alpha, float beta)
{
    if (F != NumericFormat::BF16 && !fracsInRange(F, s))
        rtoc_panic("fx kernel: fraction bits out of range");
    const int m = y.cols;
    const int n = x.cols;
    const size_t row_step = Transposed ? 1 : static_cast<size_t>(a.cols);
    const size_t col_step = Transposed ? static_cast<size_t>(a.cols) : 1;
    const SpecGrids<F> k(s);
    const bool y_writes_x = !disjoint(y.data, m, x.data, n);

    Operand<F> *xv = scratch<Operand<F>>(2 * static_cast<size_t>(n));
    Operand<F> *av = xv + n;
    uint64_t quant_sats = 0, acc_sats = 0, x_sats = 0;
    for (int i = 0; i < m; ++i) {
        if (i == 0 || y_writes_x) {
            x_sats = 0;
            for (int j = 0; j < n; ++j)
                xv[j] = toOperand<F>(x.data[j], k.x, x_sats);
        }
        quant_sats += x_sats;
        const float *ap = a.data + i * row_step;
        for (int j = 0; j < n; ++j)
            av[j] = toOperand<F>(ap[j * col_step], k.a, quant_sats);
        Acc<F> acc = 0;
        for (int j = 0; j < n; ++j)
            acc = mac<F>(acc, av[j], xv[j], acc_sats);
        y.data[i] = gemvStore<F>(acc, alpha, beta, y.data[i], k,
                                 quant_sats, acc_sats);
    }
    c.quantSats += quant_sats;
    c.accSats += acc_sats;
}

/**
 * out = sa * a + sb * b on datapath @p F, element by element (each
 * index is read before it is written, so out may alias a or b).
 */
template <NumericFormat F>
void
saxpbyElems(const KernelSpec &s, Counters &c, Mat out, float sa,
            const Mat &a, float sb, const Mat &b)
{
    if (F != NumericFormat::BF16 && !fracsInRange(F, s))
        rtoc_panic("fx kernel: fraction bits out of range");
    const int n = out.size();
    const SpecGrids<F> k(s);
    uint64_t sats = 0;
    for (int i = 0; i < n; ++i)
        out.data[i] = saxpbyElem<F>(sa, a.data[i], sb, b.data[i], k, sats);
    c.quantSats += sats;
}

/**
 * Call @p fn with the datapath as a compile-time constant: the only
 * format dispatch of a kernel call.
 */
template <typename Fn>
void
withFormat(NumericFormat f, Fn &&fn)
{
    switch (f) {
      case NumericFormat::I16:
        return fn(std::integral_constant<NumericFormat,
                                         NumericFormat::I16>());
      case NumericFormat::I32:
        return fn(std::integral_constant<NumericFormat,
                                         NumericFormat::I32>());
      case NumericFormat::BF16:
        return fn(std::integral_constant<NumericFormat,
                                         NumericFormat::BF16>());
      case NumericFormat::F32:
        break;
    }
    rtoc_panic("fx kernels run narrow formats only (got %s)",
               formatName(f));
}

} // namespace

Scaling
Scaling::forRanges(NumericFormat f, double mat_range, double vec_range,
                   double acc_range)
{
    Scaling sc;
    if (f == NumericFormat::F32 || f == NumericFormat::BF16)
        return sc; // bf16 carries its own exponent; no shift schedule
    int a_frac = fracBitsFor(f, mat_range);
    int x_frac = fracBitsFor(f, vec_range);
    int out_frac = fracBitsFor(f, acc_range);
    sc.gemv = {a_frac, x_frac, out_frac};
    sc.gemvT = {a_frac, x_frac, out_frac};
    // saxpby combines two vector-range operands onto the vector grid.
    sc.saxpby = {x_frac, x_frac, out_frac};
    return sc;
}

void
checkScaling(NumericFormat f, const Scaling &s)
{
    for (const KernelSpec *k : {&s.gemv, &s.gemvT, &s.saxpby}) {
        if (!fracsInRange(f, *k)) {
            rtoc_fatal("fixed-point scaling: fraction bits (%d, %d, %d) "
                       "outside [0, %d] for %s",
                       k->aFrac, k->xFrac, k->outFrac,
                       magnitudeBits(f) - 1, formatName(f));
        }
    }
}

void
gemv(NumericFormat f, const Scaling &s, Counters &c, Mat y, const Mat &a,
     Mat x, float alpha, float beta)
{
    rtoc_assert(y.isVec() && x.isVec());
    rtoc_assert(a.rows == y.cols && a.cols == x.cols);
    withFormat(f, [&](auto fmt) {
        gemvRows<decltype(fmt)::value, false>(s.gemv, c, y, a, x, alpha,
                                              beta);
    });
}

void
gemvT(NumericFormat f, const Scaling &s, Counters &c, Mat y, const Mat &a,
      Mat x, float alpha, float beta)
{
    rtoc_assert(y.isVec() && x.isVec());
    rtoc_assert(a.cols == y.cols && a.rows == x.cols);
    withFormat(f, [&](auto fmt) {
        gemvRows<decltype(fmt)::value, true>(s.gemvT, c, y, a, x, alpha,
                                             beta);
    });
}

void
saxpby(NumericFormat f, const Scaling &s, Counters &c, Mat out, float sa,
       const Mat &a, float sb, const Mat &b)
{
    rtoc_assert(out.size() == a.size() && out.size() == b.size());
    withFormat(f, [&](auto fmt) {
        saxpbyElems<decltype(fmt)::value>(s.saxpby, c, out, sa, a, sb, b);
    });
}

} // namespace fx

} // namespace rtoc::matlib
