/**
 * @file
 * TinyMPC problem workspace: trajectories, ADMM state, cached LQR
 * terms and solver settings, following Nguyen et al. (ICRA 2024) and
 * the paper's Algorithms 1-3.
 *
 * Storage is float32 (the embedded solver precision) laid out row-
 * major with one horizon step per contiguous row, so per-step vectors
 * are unit-stride views; hand-optimized backends additionally use the
 * transposed cache copies (KinfT, BdynT) the paper's mappings rely on.
 */

#ifndef RTOC_TINYMPC_WORKSPACE_HH
#define RTOC_TINYMPC_WORKSPACE_HH

#include <cstdint>
#include <vector>

#include "matlib/mat.hh"
#include "numerics/dare.hh"

namespace rtoc::tinympc {

/** ADMM solver settings. */
struct Settings
{
    int maxIters = 25;          ///< ADMM iteration bound
    int checkTermination = 5;   ///< residual check period
    float priTol = 1e-3f;       ///< primal residual tolerance
    float duaTol = 1e-3f;       ///< dual residual tolerance
    float rho = 1.0f;           ///< ADMM penalty (folded into cache)
};

/** Owned float32 matrix backing a matlib view. */
class Buffer
{
  public:
    Buffer() = default;

    Buffer(int rows, int cols)
        : rows_(rows), cols_(cols),
          data_(static_cast<size_t>(rows) * cols, 0.0f)
    {}

    matlib::Mat view() { return {data_.data(), rows_, cols_}; }
    matlib::Mat row(int r) { return view().row(r); }
    int rows() const { return rows_; }
    int cols() const { return cols_; }
    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }

  private:
    int rows_ = 0;
    int cols_ = 0;
    std::vector<float> data_;
};

/** The TinyMPC workspace (problem + ADMM state + cache). */
struct Workspace
{
    int nx = 0; ///< state dimension
    int nu = 0; ///< input dimension
    int N = 0;  ///< horizon length (states 0..N-1, inputs 0..N-2)

    Settings settings;

    // Trajectories (one step per row).
    Buffer x; ///< states, N x nx
    Buffer u; ///< inputs, (N-1) x nu

    // ADMM slack/dual state.
    Buffer znew, z, y;     ///< input slack (new/old) and dual
    Buffer vnew, v, g;     ///< state slack (new/old) and dual

    // Linear cost terms and Riccati backward-pass state.
    Buffer q, p;  ///< state cost gradient / cost-to-go, N x nx
    Buffer r, d;  ///< input cost gradient / feedforward, (N-1) x nu

    // References and bounds.
    Buffer xRef;          ///< N x nx tracking reference
    Buffer uMin, uMax;    ///< input box bounds, (N-1) x nu
    Buffer xMin, xMax;    ///< state box bounds, N x nx
    Buffer qDiag;         ///< 1 x nx state cost diagonal

    // Cached LQR terms (float32 copies of the offline solution).
    Buffer kinf;   ///< nu x nx
    Buffer kinfT;  ///< nx x nu
    Buffer pinf;   ///< nx x nx
    Buffer quuInv; ///< nu x nu
    Buffer amBKt;  ///< nx x nx
    Buffer adyn;   ///< nx x nx
    Buffer bdyn;   ///< nx x nu
    Buffer bdynT;  ///< nu x nx

    // Affine dynamics residual of an off-trim relinearized model:
    // x+ = Adyn x + Bdyn u + cd. Zero (and hasAffine false) for trim
    // models, so the historical solve streams are untouched.
    Buffer affine;  ///< 1 x nx discrete residual cd
    Buffer pAffine; ///< 1 x nx cached Pinf·cd (backward-pass shift)
    bool hasAffine = false;

    // Scratch.
    Buffer tmpNu;  ///< 1 x nu backward-pass temporary
    Buffer tmpNx;  ///< 1 x nx temporary

    // Column-form operands of the non-emitting f32 solve, rebuilt
    // from the cache at the start of every such solve and read by
    // nothing else, so no model refresh can leave them stale (kinfT,
    // bdyn and bdynT already serve the other three products).
    Buffer adynT;   ///< nx x nx, Adynᵀ
    Buffer amBK;    ///< nx x nx, AmBKtᵀ = Adyn - Bdyn·Kinf
    Buffer quuInvT; ///< nu x nu, Quu_invᵀ

    // Column-form operands of the non-emitting narrow solve: the eight
    // gain/dynamics matrices converted onto the datapath once per
    // solve (bf16-rounded, or quantized onto the grid of the kernel
    // that reads them), followed by three converted-vector slots of
    // max(nx, nu) elements. Read by nothing else.
    std::vector<float> bf16Cols;    ///< bf16 operands
    std::vector<int32_t> fixedCols; ///< i16/i32 grid integers

    /** Allocate all buffers for the given dimensions. */
    static Workspace allocate(int nx, int nu, int horizon);

    /**
     * Load the cache from a double-precision offline solution and the
     * discrete dynamics; sets cost diagonal and bounds to defaults
     * (infinite state bounds, +-inf input bounds).
     */
    void loadCache(const numerics::DMatrix &a, const numerics::DMatrix &b,
                   const numerics::LqrCache &cache,
                   const std::vector<double> &q_diag);

    /**
     * In-place model refresh for warm-start incremental
     * relinearization: swap in a new discrete model (@p a, @p b), its
     * Riccati cache and the affine residual @p cd (empty = none)
     * WITHOUT touching the ADMM duals, slacks or trajectories — the
     * warm-started solver state survives the model change. Cost
     * diagonal, references and bounds are left as loaded.
     */
    void refreshModel(const numerics::DMatrix &a,
                      const numerics::DMatrix &b,
                      const numerics::LqrCache &cache,
                      const std::vector<double> &cd = {});

    /** Set every row of the input bounds to [lo, hi]. */
    void setInputBounds(const std::vector<float> &lo,
                        const std::vector<float> &hi);

    /** Set every row of the tracking reference to @p xr. */
    void setReferenceAll(const std::vector<float> &xr);

    /** Set the measured initial state. */
    void setInitialState(const float *x0);

    /** Reset ADMM state (duals, slacks, trajectories) to zero —
     *  i.e. discard warm-start information. */
    void coldStart();
};

} // namespace rtoc::tinympc

#endif // RTOC_TINYMPC_WORKSPACE_HH
