/**
 * @file
 * Infinite-horizon discrete LQR via fixed-point iteration of the
 * discrete algebraic Riccati equation. TinyMPC pre-computes exactly
 * this cache (Kinf, Pinf, Quu_inv, AmBKt) offline; see Nguyen et al.,
 * "TinyMPC: Model-Predictive Control on Resource-Constrained
 * Microcontrollers" (ICRA 2024).
 */

#ifndef RTOC_NUMERICS_DARE_HH
#define RTOC_NUMERICS_DARE_HH

#include <cstdint>
#include <optional>

#include "numerics/dmatrix.hh"

namespace rtoc::numerics {

/** Result of the infinite-horizon Riccati recursion. */
struct LqrCache
{
    DMatrix kinf;   ///< Optimal feedback gain (nu x nx).
    DMatrix pinf;   ///< Riccati cost-to-go (nx x nx).
    DMatrix quuInv; ///< (R + rho·I + Bᵀ P B)⁻¹ (nu x nu).
    DMatrix amBKt;  ///< (A - B·Kinf)ᵀ (nx x nx).
    int iterations = 0;   ///< Riccati iterations until convergence.
    double residual = 0.0; ///< Final max-abs P update.
};

/**
 * Iterate P ← Q + Aᵀ P A − Aᵀ P B (R + Bᵀ P B)⁻¹ Bᵀ P A to a fixed
 * point and derive the TinyMPC cache terms.
 *
 * Memoized: every ControlSession construction re-solves its plant's
 * trim DARE, so results are kept in a small process-wide LRU map
 * keyed by the exact bytes of (a, b, q, r, rho, tol, max_iters) and
 * returned as copies, bit-identical to a fresh solve (iterations
 * included). Thread-safe.
 *
 * The ADMM penalty rho is folded into the cost exactly as TinyMPC
 * does: Q ← Q + rho·I, R ← R + rho·I, because the solver's backward
 * pass uses the rho-augmented cost.
 *
 * @param a   discrete state matrix (nx x nx)
 * @param b   discrete input matrix (nx x nu)
 * @param q   state cost diagonal-heavy SPD matrix (nx x nx)
 * @param r   input cost SPD matrix (nu x nu)
 * @param rho ADMM penalty parameter
 * @param tol convergence tolerance on max-abs change of Kinf
 * @param max_iters iteration bound; fatal() if exceeded
 */
LqrCache solveDare(const DMatrix &a, const DMatrix &b, const DMatrix &q,
                   const DMatrix &r, double rho, double tol = 1e-10,
                   int max_iters = 10000);

/** Hit/miss counts of the solveDare memo since process start. */
struct DareMemoStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
};
DareMemoStats dareMemoStats();

/**
 * Non-fatal, unmemoized solveDare with an optional warm start: seed
 * the fixed-point iteration from @p p_warm (the Pinf of a nearby
 * model) instead of the rho-augmented Q. Incremental relinearization
 * refreshes call this with the previous cache's Pinf, converging in a
 * handful of iterations when (A, B) moved a little; a diverging
 * off-trim model returns nullopt instead of aborting the process,
 * letting the caller keep the stale cache.
 */
std::optional<LqrCache>
trySolveDare(const DMatrix &a, const DMatrix &b, const DMatrix &q,
             const DMatrix &r, double rho, const DMatrix *p_warm,
             double tol = 1e-10, int max_iters = 10000);

} // namespace rtoc::numerics

#endif // RTOC_NUMERICS_DARE_HH
