#include "matlib/fixed.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <type_traits>
#include <vector>

#include "common/logging.hh"

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

float
toBf16(float v)
{
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    // Round to nearest even on the truncated 16 mantissa bits; NaN
    // payloads are forced to a quiet pattern instead of rounding.
    // Branch-free (a select), so loops over it vectorize.
    const uint32_t rounded = (bits + 0x7fffu + ((bits >> 16) & 1u)) &
                             0xffff0000u;
    const uint32_t quiet = (bits & 0xffff0000u) | 0x00400000u;
    bits = (bits & 0x7fffffffu) > 0x7f800000u ? quiet : rounded;
    float out;
    std::memcpy(&out, &bits, sizeof(out));
    return out;
}

namespace {

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

/** Every fraction of @p k lies in [0, magnitudeBits - 1]. */
bool
fracsInRange(NumericFormat f, const KernelSpec &k)
{
    for (int frac : {k.aFrac, k.xFrac, k.outFrac}) {
        if (frac < 0 || frac > magnitudeBits(f) - 1)
            return false;
    }
    return true;
}

/**
 * One 2^-frac grid, its scales hoisted out of the element loops and
 * built without libm (a validated frac lies in [0, 30]).
 */
struct Grid
{
    double scale; ///< 2^frac
    double inv;   ///< 2^-frac, exact

    explicit Grid(int frac)
        : scale(static_cast<double>(int64_t{1} << frac)), inv(1.0 / scale)
    {}
};

/**
 * Quantize @p v onto grid @p g, clamping to the element range of @p F
 * (NaN clamps low); a clamp of a value past the range counts.
 * Branch-free, so row loops over it vectorize.
 */
template <NumericFormat F>
inline int32_t
quantizeSat(float v, const Grid &g, uint64_t &sat_count)
{
    constexpr double hi = static_cast<double>(elemMax(F));
    constexpr double lo = -hi - 1.0;
    // Exact: a float times 2^frac never rounds in double.
    const double scaled = static_cast<double>(v) * g.scale;
    sat_count += !((scaled >= lo) & (scaled <= hi)); // NaN counts
    const double above = scaled > lo ? scaled : lo; // NaN -> lo
    const double c = above < hi ? above : hi;
    // llround by add-half-and-truncate. |c| <= 2^31, and c is a float
    // value (<= 24 significant bits) or a clamped integer end: for
    // |c| >= 0.5 the sum needs at most 33 bits, so it is exact; below
    // 0.5 it stays under 1 after rounding. Truncation then rounds half
    // away from zero, and the ends land on -lim-1 and lim (int32).
    return static_cast<int32_t>(c + std::copysign(0.5, c));
}

/** Back onto the float storage (exact: |q| <= 2^31, power-of-2 scale). */
inline float
dequantize(int64_t q, const Grid &g)
{
    return static_cast<float>(static_cast<double>(q) * g.inv);
}

/**
 * Saturating accumulator add: i16 datapaths accumulate in int32
 * (products are 16x16 -> 32 bit, sums clamp at int32), i32 datapaths
 * in int64 with overflow clamping.
 */
template <NumericFormat F>
inline int64_t
accAddSat(int64_t acc, int64_t prod, uint64_t &sat_count)
{
    if constexpr (F == NumericFormat::I16) {
        // |acc| <= 2^31 and |prod| <= 2^30: the int64 sum is exact.
        const int64_t sum = acc + prod;
        if (sum > INT32_MAX) {
            ++sat_count;
            return INT32_MAX;
        }
        if (sum < INT32_MIN) {
            ++sat_count;
            return INT32_MIN;
        }
        return sum;
    } else {
        int64_t sum;
        if (__builtin_add_overflow(acc, prod, &sum)) {
            ++sat_count;
            return acc > 0 ? INT64_MAX : INT64_MIN;
        }
        return sum;
    }
}

/**
 * Round-shift a double-width accumulator (at a_frac + x_frac) onto the
 * @p out_frac output grid with saturation — the per-kernel shift
 * schedule of the fixed-point MAC. Both directions are exact integer
 * arithmetic without overflow: a right shift rounds the magnitude
 * half away from zero (as the quantizer does), and a left shift whose
 * product leaves int64 saturates, since it is far past the element
 * range anyway. Validated fractions bound @p shift to
 * [-(magnitudeBits - 1), 2 (magnitudeBits - 1)].
 */
template <NumericFormat F>
inline int64_t
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

/** One operand on datapath @p F: bf16-rounded, or quantized onto @p g. */
template <NumericFormat F>
inline auto
toOperand(float v, const Grid &g, uint64_t &sat_count)
{
    if constexpr (F == NumericFormat::BF16)
        return toBf16(v);
    else
        return quantizeSat<F>(v, g, sat_count);
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
    constexpr bool kBf16 = F == NumericFormat::BF16;
    if (!kBf16 && !fracsInRange(F, s))
        rtoc_panic("fx kernel: fraction bits out of range");
    const int m = y.cols;
    const int n = x.cols;
    const size_t row_step = Transposed ? 1 : static_cast<size_t>(a.cols);
    const size_t col_step = Transposed ? static_cast<size_t>(a.cols) : 1;
    const KernelSpec q = kBf16 ? KernelSpec{0, 0, 0} : s; // bf16: no grid
    const Grid ga(q.aFrac), gx(q.xFrac), go(q.outFrac);
    const int shift = q.aFrac + q.xFrac - q.outFrac;
    const bool y_writes_x = !disjoint(y.data, m, x.data, n);

    auto *xv = scratch<std::conditional_t<kBf16, float, int32_t>>(
        2 * static_cast<size_t>(n));
    auto *av = xv + n;
    uint64_t quant_sats = 0, acc_sats = 0, x_sats = 0;
    for (int i = 0; i < m; ++i) {
        if (i == 0 || y_writes_x) {
            x_sats = 0;
            for (int j = 0; j < n; ++j)
                xv[j] = toOperand<F>(x.data[j], gx, x_sats);
        }
        quant_sats += x_sats;
        const float *ap = a.data + i * row_step;
        for (int j = 0; j < n; ++j)
            av[j] = toOperand<F>(ap[j * col_step], ga, quant_sats);
        if constexpr (kBf16) {
            float acc = 0.0f;
            for (int j = 0; j < n; ++j)
                acc += av[j] * xv[j];
            y.data[i] = toBf16(alpha * acc + beta * toBf16(y.data[i]));
        } else {
            int64_t acc = 0;
            for (int j = 0; j < n; ++j)
                acc = accAddSat<F>(acc, int64_t{av[j]} * xv[j], acc_sats);
            const float dot =
                dequantize(shiftRoundSat<F>(acc, shift, acc_sats), go);
            y.data[i] = dequantize(
                quantizeSat<F>(alpha * dot + beta * y.data[i], go,
                               quant_sats),
                go);
        }
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
    const int n = out.size();
    if constexpr (F == NumericFormat::BF16) {
        for (int i = 0; i < n; ++i) {
            out.data[i] = toBf16(sa * toBf16(a.data[i]) +
                                 sb * toBf16(b.data[i]));
        }
    } else {
        if (!fracsInRange(F, s))
            rtoc_panic("fx kernel: fraction bits out of range");
        const Grid ga(s.aFrac), gb(s.xFrac), go(s.outFrac);
        uint64_t sats = 0;
        for (int i = 0; i < n; ++i) {
            const float av =
                dequantize(quantizeSat<F>(a.data[i], ga, sats), ga);
            const float bv =
                dequantize(quantizeSat<F>(b.data[i], gb, sats), gb);
            out.data[i] = dequantize(
                quantizeSat<F>(sa * av + sb * bv, go, sats), go);
        }
        c.quantSats += sats;
    }
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

void
gemvSaxpby(NumericFormat f, const Scaling &s, Counters &c, Mat y,
           const Mat &a, Mat x, float alpha, float beta, float sa,
           float sb, const Mat &b)
{
    rtoc_assert(y.isVec() && x.isVec() && b.size() == y.size());
    rtoc_assert(a.rows == y.cols && a.cols == x.cols);
    withFormat(f, [&](auto fmt) {
        constexpr NumericFormat F = decltype(fmt)::value;
        gemvRows<F, false>(s.gemv, c, y, a, x, alpha, beta);
        saxpbyElems<F>(s.saxpby, c, y, sa, y, sb, b);
    });
}

} // namespace fx

} // namespace rtoc::matlib
