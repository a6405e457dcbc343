#include "dare.hh"

#include <mutex>
#include <string>

#include "common/logging.hh"
#include "common/lru_cache.hh"

namespace rtoc::numerics {

namespace {

/** Distinct trim problems a process solves: plants x weightings. */
constexpr size_t kDareMemoCap = 64;

struct DareMemo
{
    std::mutex mu;
    LruMap<std::string, LqrCache> map{kDareMemoCap}; ///< guarded by mu
    DareMemoStats stats;                             ///< guarded by mu
};

DareMemo &
dareMemo()
{
    static DareMemo memo;
    return memo;
}

/** Exact bytes of every input, shapes included. */
std::string
dareKey(const DMatrix &a, const DMatrix &b, const DMatrix &q,
        const DMatrix &r, double rho, double tol, int max_iters)
{
    std::string key;
    auto put = [&key](const void *p, size_t n) {
        key.append(static_cast<const char *>(p), n);
    };
    for (const DMatrix *m : {&a, &b, &q, &r}) {
        const int dims[2] = {m->rows(), m->cols()};
        put(dims, sizeof(dims));
        put(m->data(), m->size() * sizeof(double));
    }
    put(&rho, sizeof(rho));
    put(&tol, sizeof(tol));
    put(&max_iters, sizeof(max_iters));
    return key;
}

} // namespace

std::optional<LqrCache>
trySolveDare(const DMatrix &a, const DMatrix &b, const DMatrix &q,
             const DMatrix &r, double rho, const DMatrix *p_warm,
             double tol, int max_iters)
{
    int nx = a.rows();
    int nu = b.cols();
    rtoc_assert(a.cols() == nx && b.rows() == nx);
    rtoc_assert(q.rows() == nx && q.cols() == nx);
    rtoc_assert(r.rows() == nu && r.cols() == nu);

    // rho-augmented costs (TinyMPC folds the ADMM penalty in here).
    DMatrix q_rho = q + DMatrix::identity(nx) * rho;
    DMatrix r_rho = r + DMatrix::identity(nu) * rho;

    DMatrix at = a.transpose();
    DMatrix bt = b.transpose();

    DMatrix p = p_warm != nullptr ? *p_warm : q_rho;
    rtoc_assert(p.rows() == nx && p.cols() == nx);
    DMatrix kinf(nu, nx);
    LqrCache cache;

    // Per-iteration scratch hoisted out of the loop: after the first
    // iteration every gemmInto/addInPlace/subInPlace reuses the same
    // storage, so the session-refresh hot path (warm starts converge
    // in a handful of iterations) allocates only inside luSolve. Each
    // expression keeps the operator-chain evaluation order of the
    // historical allocating form (the in-place adds commute bitwise),
    // so Pinf/Kinf are bit-identical (pinned by tests).
    DMatrix btp, quu, ba, bk, abk, atp, p_new;
    for (int it = 0; it < max_iters; ++it) {
        btp.gemmInto(bt, p);   // nu x nx
        quu.gemmInto(btp, b);  // nu x nu
        quu.addInPlace(r_rho); // == r_rho + btp·b
        ba.gemmInto(btp, a);
        DMatrix k_new = luSolve(quu, ba);
        // Joseph-free update p_new = q_rho + at·p·(a - b·k_new).
        bk.gemmInto(b, k_new);
        abk = a;
        abk.subInPlace(bk);
        atp.gemmInto(at, p);
        p_new.gemmInto(atp, abk);
        p_new.addInPlace(q_rho);

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

LqrCache
solveDare(const DMatrix &a, const DMatrix &b, const DMatrix &q,
          const DMatrix &r, double rho, double tol, int max_iters)
{
    const std::string key = dareKey(a, b, q, r, rho, tol, max_iters);
    DareMemo &memo = dareMemo();
    {
        std::lock_guard<std::mutex> lock(memo.mu);
        if (const LqrCache *hit = memo.map.get(key)) {
            ++memo.stats.hits;
            return *hit;
        }
        ++memo.stats.misses;
    }
    // Solved outside the lock: two threads missing on one key both
    // solve it, deterministically, and store equal values.
    std::optional<LqrCache> cache =
        trySolveDare(a, b, q, r, rho, nullptr, tol, max_iters);
    if (!cache) {
        rtoc_fatal("solveDare: no convergence after %d iterations",
                   max_iters);
    }
    std::lock_guard<std::mutex> lock(memo.mu);
    memo.map.put(key, *cache);
    return *cache;
}

DareMemoStats
dareMemoStats()
{
    DareMemo &memo = dareMemo();
    std::lock_guard<std::mutex> lock(memo.mu);
    return memo.stats;
}

} // namespace rtoc::numerics
