/**
 * @file
 * Element arithmetic of the narrow datapaths (bf16, i16, i32): the one
 * definition of quantization, saturating accumulation, the output
 * round-shift and the saxpby element, shared by the fx:: kernels
 * (fixed.cc) and the non-emitting narrow solve (tinympc/solver.cc), so
 * both compute every value and every saturation count alike. The
 * helpers are forced inline: called out of line, each element pays a
 * call and a round trip of its counters through memory, which more
 * than doubles the narrow solve's cost.
 */

#ifndef RTOC_MATLIB_FIXED_ARITH_HH
#define RTOC_MATLIB_FIXED_ARITH_HH

#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "matlib/fixed.hh"

namespace rtoc::matlib::fx {

/** Raw element bits available below the sign bit. */
constexpr int
magnitudeBits(NumericFormat f)
{
    return f == NumericFormat::I16 ? 15 : 31;
}

/** Largest element value of fixed-point format @p f. */
constexpr int64_t
elemMax(NumericFormat f)
{
    return (int64_t{1} << magnitudeBits(f)) - 1;
}

/** Every fraction of @p k lies in [0, magnitudeBits - 1]. */
inline bool
fracsInRange(NumericFormat f, const KernelSpec &k)
{
    for (int frac : {k.aFrac, k.xFrac, k.outFrac}) {
        if (frac < 0 || frac > magnitudeBits(f) - 1)
            return false;
    }
    return true;
}

/**
 * One 2^-frac grid of format @p F, its scales and element bounds
 * hoisted out of the element loops and built without libm (a
 * validated frac lies in [0, 30]). The bounds are members rather than
 * constants so the compiler cannot fold a clamped value and split the
 * rounding into per-bound branches, which would keep the element
 * loops from vectorizing.
 */
template <NumericFormat F>
struct Grid
{
    double scale; ///< 2^frac
    float inv;    ///< 2^-frac, exact
    double lo = -static_cast<double>(elemMax(F)) - 1.0;
    double hi = static_cast<double>(elemMax(F));

    explicit Grid(int frac)
        : scale(static_cast<double>(int64_t{1} << frac)),
          inv(static_cast<float>(1.0 / scale))
    {}
};

/** Element type of a converted operand: bf16 values or grid integers. */
template <NumericFormat F>
using Operand =
    std::conditional_t<F == NumericFormat::BF16, float, int32_t>;

/**
 * Accumulator of a MAC chain: float32 for bf16, int32 for i16 (16 x 16
 * bit products), int64 for i32.
 */
template <NumericFormat F>
using Acc = std::conditional_t<
    F == NumericFormat::BF16, float,
    std::conditional_t<F == NumericFormat::I16, int32_t, int64_t>>;

/**
 * Quantize @p v onto grid @p g, clamping to the element range of @p F
 * (NaN clamps low); a clamp of a value past the range counts. The
 * clamped value differs from the scaled one exactly when the scaled
 * one is out of range or NaN, so that comparison is the count. The
 * bounds come from the Grid (see there), and the selects compile
 * without branches.
 *
 * llround by add-half-and-truncate: |c| <= 2^31, and c is a float
 * value (<= 24 significant bits) or a clamped integer end: for |c| >=
 * 0.5 the sum needs at most 33 bits, so it is exact; below 0.5 it
 * stays under 1 after rounding. Truncation then rounds half away from
 * zero, and the ends land on -lim-1 and lim (int32).
 */
template <NumericFormat F>
[[gnu::always_inline]] inline int32_t
quantizeSat(float v, const Grid<F> &g, uint64_t &sat_count)
{
    // Exact: a float times 2^frac never rounds in double.
    const double scaled = static_cast<double>(v) * g.scale;
    const double above = scaled > g.lo ? scaled : g.lo; // NaN -> lo
    const double c = above < g.hi ? above : g.hi;
    sat_count += c != scaled;
    return static_cast<int32_t>(c + std::copysign(0.5, c));
}

/**
 * Back onto the float storage: q rounded to float, times 2^-frac. That
 * is q * 2^-frac rounded to float, because scaling by a power of two
 * commutes with the rounding (|q| <= 2^31 and frac <= 30 keep the
 * result normal), and it needs no double arithmetic.
 */
template <NumericFormat F>
[[gnu::always_inline]] inline float
dequantize(int64_t q, const Grid<F> &g)
{
    return static_cast<float>(q) * g.inv;
}

/**
 * Saturating accumulator add: i16 datapaths accumulate in int32
 * (products are 16x16 -> 31 bit, sums clamp at int32), i32 datapaths
 * in int64 with overflow clamping.
 */
template <NumericFormat F>
[[gnu::always_inline]] inline Acc<F>
accAddSat(Acc<F> acc, Acc<F> prod, uint64_t &sat_count)
{
    static_assert(F != NumericFormat::BF16, "integer datapaths only");
    Acc<F> sum;
    // A branch, not a select: overflow is rare, and a predicted branch
    // keeps the MAC chain at one add.
    if (__builtin_expect(__builtin_add_overflow(acc, prod, &sum), 0)) {
        ++sat_count;
        // An overflowing sum has the sign of both addends.
        return acc < 0 ? std::numeric_limits<Acc<F>>::min()
                       : std::numeric_limits<Acc<F>>::max();
    }
    return sum;
}

/**
 * One MAC step of a dot-product chain on datapath @p F: a float32
 * multiply-add of two bf16 values, or a saturating integer one.
 */
template <NumericFormat F>
[[gnu::always_inline]] inline Acc<F>
mac(Acc<F> acc, Operand<F> a, Operand<F> x, uint64_t &acc_sats)
{
    if constexpr (F == NumericFormat::BF16)
        return acc + a * x;
    else
        return accAddSat<F>(acc, Acc<F>{a} * x, acc_sats);
}

/**
 * Round-shift a double-width accumulator (at a_frac + x_frac) onto the
 * output grid with saturation, @p shift = aFrac + xFrac - outFrac: the
 * per-kernel shift schedule of the fixed-point MAC. Both directions
 * are exact integer arithmetic without overflow: a right shift rounds
 * the magnitude half away from zero (as the quantizer does), and a
 * left shift whose product leaves int64 saturates, since it is far
 * past the element range anyway. Validated fractions bound @p shift to
 * [-(magnitudeBits - 1), 2 (magnitudeBits - 1)].
 */
template <NumericFormat F>
[[gnu::always_inline]] inline int64_t
shiftRoundSat(int64_t acc, int shift, uint64_t &sat_count)
{
    constexpr int64_t lim = elemMax(F);
    int64_t v = acc;
    if (shift > 0) {
        const uint64_t mag = v < 0 ? 0 - static_cast<uint64_t>(v)
                                   : static_cast<uint64_t>(v);
        const uint64_t r = (mag >> shift) + ((mag >> (shift - 1)) & 1u);
        v = v < 0 ? -static_cast<int64_t>(r) : static_cast<int64_t>(r);
    } else if (shift < 0) {
        int64_t scaled;
        if (__builtin_mul_overflow(v, int64_t{1} << -shift, &scaled))
            scaled = v < 0 ? INT64_MIN : INT64_MAX;
        v = scaled;
    }
    if (v > lim) {
        ++sat_count;
        return lim;
    }
    if (v < -lim - 1) {
        ++sat_count;
        return -lim - 1;
    }
    return v;
}

/** One operand on datapath @p F: bf16-rounded, or quantized onto @p g. */
template <NumericFormat F>
[[gnu::always_inline]] inline Operand<F>
toOperand(float v, const Grid<F> &g, uint64_t &sat_count)
{
    if constexpr (F == NumericFormat::BF16)
        return toBf16(v);
    else
        return quantizeSat<F>(v, g, sat_count);
}

/**
 * The grids and shift of one KernelSpec on datapath @p F, built once
 * per kernel call (or per solve). bf16 carries its own exponent: its
 * grids are unit and unused.
 */
template <NumericFormat F>
struct SpecGrids
{
    Grid<F> a, x, out;
    int shift;

    explicit SpecGrids(const KernelSpec &s)
        : a(frac(s.aFrac)), x(frac(s.xFrac)), out(frac(s.outFrac)),
          shift(frac(s.aFrac) + frac(s.xFrac) - frac(s.outFrac))
    {}

  private:
    static int frac(int f) { return F == NumericFormat::BF16 ? 0 : f; }
};

/**
 * The stored result of one gemv output: y' = alpha * dot + beta * y,
 * from the finished MAC chain @p acc. bf16 rounds the float32 result;
 * integer datapaths round-shift the accumulator onto the output grid
 * and quantize the scaled sum back onto it.
 */
template <NumericFormat F>
[[gnu::always_inline]] inline float
gemvStore(Acc<F> acc, float alpha, float beta, float y,
          const SpecGrids<F> &k, uint64_t &quant_sats, uint64_t &acc_sats)
{
    if constexpr (F == NumericFormat::BF16) {
        return toBf16(alpha * acc + beta * toBf16(y));
    } else {
        const float dot =
            dequantize(shiftRoundSat<F>(acc, k.shift, acc_sats), k.out);
        return dequantize(
            quantizeSat<F>(alpha * dot + beta * y, k.out, quant_sats),
            k.out);
    }
}

/**
 * One saxpby element, out = sa * a + sb * b: bf16-rounded operands and
 * result, or operands quantized onto the a/x grids of @p k and the
 * result onto its output grid.
 */
template <NumericFormat F>
[[gnu::always_inline]] inline float
saxpbyElem(float sa, float a, float sb, float b, const SpecGrids<F> &k,
           uint64_t &quant_sats)
{
    if constexpr (F == NumericFormat::BF16) {
        return toBf16(sa * toBf16(a) + sb * toBf16(b));
    } else {
        const float av = dequantize(quantizeSat<F>(a, k.a, quant_sats), k.a);
        const float bv = dequantize(quantizeSat<F>(b, k.x, quant_sats), k.x);
        return dequantize(
            quantizeSat<F>(sa * av + sb * bv, k.out, quant_sats), k.out);
    }
}

} // namespace rtoc::matlib::fx

#endif // RTOC_MATLIB_FIXED_ARITH_HH
