/**
 * @file
 * Numeric-format axis of the matlib backends: float32 (the paper's
 * datapath), int16/int32 fixed-point with per-kernel static scaling
 * (Jerez et al., "Embedded Online Optimization for MPC at Megahertz
 * Rates": certified fixed-point ADMM datapaths), and bfloat16.
 *
 * Storage stays float32 — the workspace, the solver and every backend
 * view are unchanged. A non-float format changes what the MAC kernels
 * *compute*: operands are quantized onto the format's grid, the dot
 * products run as integer MACs with a saturating accumulator (int32
 * accumulator for int16 elements, int64 for int32) and a per-kernel
 * shift schedule, and results are rounded back onto the output grid
 * before being dequantized into the float storage. The emitted uop
 * streams carry the element width (Program::setEmitWidth), so narrow
 * formats are distinct cached programs whose replay prices the
 * narrower datapath (wider effective Saturn lanes, cheaper Gemmini
 * DMA, faster scalar FPU ops).
 *
 * Saturation events are counted per backend (quantizer clamps and
 * accumulator clamps separately) — the telemetry the precision Pareto
 * bench reports next to divergence rates.
 *
 * Kernel structure (fixed.cc, fixed_arith.hh). Each call dispatches
 * on the format once; the loops are instantiated per format with every
 * grid scale hoisted out, and the element arithmetic (quantizer,
 * saturating accumulator, round-shift, saxpby element) has one
 * definition in fixed_arith.hh, shared with the non-emitting narrow
 * solve. Results and counters are bit-identical to quantizing every
 * operand per use, element by element (the oracle in test_precision):
 *  - the vector operand is converted once per call, not once per row,
 *    and its clamp count is added once per row — the same total. When
 *    the output overlaps it, it is re-converted before every row, so
 *    aliased calls keep their in-order semantics;
 *  - llround is add-half-and-truncate: the scaled value is a float
 *    (at most 24 significant bits) or a clamped integer end, with
 *    |v| <= 2^31, so v +- 0.5 is exact whenever |v| >= 0.5 and stays
 *    below 1 otherwise;
 *  - the accumulator round-shift works on the magnitude in unsigned
 *    arithmetic, and a left shift (outFrac > aFrac + xFrac) saturates
 *    when the product leaves int64, so no path overflows.
 * There is no fused gemv->saxpby kernel: the solver's pass shape is
 * the gemv and saxpby pair (Backend::gemvSaxpby).
 *
 * The non-emitting solve (tinympc::Solver::solve with no Program
 * attached) does not call these kernels. It converts each of the
 * eight gain/dynamics matrices once per solve, in column form and
 * under the KernelSpec of the kernel that reads it (gemvT for Pinf,
 * gemv for the rest), and records the matrix's quantizer clamps.
 * Every use of the matrix then adds that count to quantSats — the
 * count a kernel call gets by converting the matrix row by row — so
 * both paths count alike. Nothing is cached across solves: a model
 * refresh may swap the matrices and the scaling between two ticks.
 * Fractions outside [0, magnitude bits - 1] are rejected up front
 * (checkScaling), which bounds the shifts.
 */

#ifndef RTOC_MATLIB_FIXED_HH
#define RTOC_MATLIB_FIXED_HH

#include <cstdint>
#include <cstring>
#include <string>

#include "matlib/mat.hh"

namespace rtoc::matlib {

/** Element format of a backend's datapath. */
enum class NumericFormat : uint8_t {
    F32,  ///< float32 (default; bit-identical historical path)
    I16,  ///< Q-format int16 fixed point (16-bit datapath)
    I32,  ///< Q-format int32 fixed point (32-bit datapath)
    BF16, ///< bfloat16 storage/operands, float32 accumulate
};

/** Short name: "f32", "i16", "i32", "bf16". */
const char *formatName(NumericFormat f);

/** Element width in bits as carried by emitted uops (32 or 16). */
int formatSewBits(NumericFormat f);

/** Element width in bytes (UART payloads, DMA traffic). */
int formatElemBytes(NumericFormat f);

/**
 * Cache-identity suffix: empty for F32 (every historical key is
 * untouched), "|fmt:i16" style otherwise. I32 streams are
 * byte-identical to F32 streams (same element width) but the computed
 * values differ, so I32 is suffixed too — narrow-format calibrations
 * and cells never alias float32 blobs.
 */
std::string formatKeySuffix(NumericFormat f);

/** Parse "f32"/"i16"/"i32"/"bf16" (fatal on anything else). */
NumericFormat parseFormat(const std::string &name);

/** Process default: RTOC_FORMAT when set, else F32 (read once). */
NumericFormat defaultFormat();

namespace fx {

/**
 * Truncate @p v to bfloat16 (round-to-nearest-even). NaN payloads are
 * forced to a quiet pattern instead of rounding. Branch-free (a
 * select), so loops over it vectorize.
 */
inline float
toBf16(float v)
{
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    const uint32_t rounded = (bits + 0x7fffu + ((bits >> 16) & 1u)) &
                             0xffff0000u;
    const uint32_t quiet = (bits & 0xffff0000u) | 0x00400000u;
    bits = (bits & 0x7fffffffu) > 0x7f800000u ? quiet : rounded;
    float out;
    std::memcpy(&out, &bits, sizeof(out));
    return out;
}

/**
 * Per-kernel Q-format schedule: fraction bits of the matrix operand,
 * the vector operand and the stored result. The accumulator runs at
 * aFrac + xFrac and the output shift is (aFrac + xFrac - outFrac).
 */
struct KernelSpec
{
    int aFrac = 10;   ///< matrix / first-operand fraction bits
    int xFrac = 10;   ///< vector / second-operand fraction bits
    int outFrac = 10; ///< result fraction bits
};

/**
 * Static per-kernel scaling derived from calibrated ranges (the gain
 * matrices are known offline; trajectory ranges come from the bound
 * boxes and references with headroom). One schedule per MAC kernel.
 */
struct Scaling
{
    KernelSpec gemv;
    KernelSpec gemvT;
    KernelSpec saxpby;

    /**
     * Derive a schedule from the calibrated operand ranges: fraction
     * bits = (format bits - 1) - integer bits needed for
     * (range * headroom), floored at 0. @p mat_range bounds the gain/
     * dynamics matrix entries, @p vec_range the trajectory/slack
     * vectors, @p acc_range the dot-product magnitudes.
     */
    static Scaling forRanges(NumericFormat f, double mat_range,
                             double vec_range, double acc_range);
};

/**
 * Fatal unless every fraction of @p s lies in [0, magnitude bits - 1]
 * of @p f (14 for i16, 30 for i32 and the unscaled formats): the range
 * Scaling::forRanges produces, and the one that bounds the kernels'
 * shift schedule.
 */
void checkScaling(NumericFormat f, const Scaling &s);

/** Saturation telemetry of one backend's fixed-point datapath. */
struct Counters
{
    uint64_t quantSats = 0; ///< operand/result quantizer clamps
    uint64_t accSats = 0;   ///< saturating-accumulator clamps
};

/** y = alpha * A x + beta * y on the @p f datapath. */
void gemv(NumericFormat f, const Scaling &s, Counters &c, Mat y,
          const Mat &a, Mat x, float alpha, float beta);

/** y = alpha * A^T x + beta * y on the @p f datapath. */
void gemvT(NumericFormat f, const Scaling &s, Counters &c, Mat y,
           const Mat &a, Mat x, float alpha, float beta);

/** out = sa * a + sb * b on the @p f datapath. */
void saxpby(NumericFormat f, const Scaling &s, Counters &c, Mat out,
            float sa, const Mat &a, float sb, const Mat &b);

} // namespace fx

} // namespace rtoc::matlib

#endif // RTOC_MATLIB_FIXED_HH
