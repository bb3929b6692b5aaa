/**
 * @file
 * Krylov subspace solvers (Section II-B, VI).
 *
 * The paper evaluates conjugate gradient (CG) for symmetric positive
 * definite systems and BiCG-STAB for the rest; GMRES(m) is provided
 * as the third mainstream method the paper names. Solvers are
 * written against an abstract operator so the same code runs on the
 * plain CSR matrix, the accelerator functional model, or the noisy
 * device model (Figures 12/13).
 *
 * Kernel-call counts are recorded so the timing models can translate
 * one solve into accelerator and GPU execution time (Section VI-A:
 * sparse MVM, dot product, AXPY).
 */

#ifndef MSC_SOLVER_SOLVER_HH
#define MSC_SOLVER_SOLVER_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "runtime/exec_context.hh"
#include "sparse/csr.hh"

namespace msc {

/** Abstract y = A x operator. */
class LinearOperator
{
  public:
    virtual ~LinearOperator() = default;

    virtual std::int32_t rows() const = 0;
    virtual std::int32_t cols() const = 0;

    /** y = A x. */
    virtual void apply(std::span<const double> x,
                       std::span<double> y) = 0;

    /**
     * Batched multi-RHS apply over column-major k-column panels:
     * Y column c = A (X column c). The default loops apply() in
     * column order, so every override is behaviorally pinned to
     * that: implementations may share setup across columns but must
     * stay bitwise identical to the k sequential applies. An
     * operator whose apply() is applyBatch(x, y, 1) (the cluster
     * and fault operators) must override this too.
     */
    virtual void
    applyBatch(std::span<const double> X, std::span<double> Y,
               unsigned k)
    {
        const auto nc = static_cast<std::size_t>(cols());
        const auto nr = static_cast<std::size_t>(rows());
        for (unsigned c = 0; c < k; ++c)
            apply(X.subspan(c * nc, nc), Y.subspan(c * nr, nr));
    }

    /**
     * Adopt an execution context: operators that batch work over
     * blocks (accel/, fault/) poll it per batch so a cancel or
     * deadline lands mid-apply, not only at the next solver
     * iteration. The default is a no-op; @p ctx must outlive the
     * applies it governs (nullptr detaches).
     */
    virtual void setExecContext(const ExecContext *ctx)
    {
        (void)ctx;
    }
};

/**
 * RAII: attach an execution context to an operator for the duration
 * of one solve so block-batched operators (accel/, fault/) poll it
 * mid-apply, and detach on exit -- the context may not outlive the
 * operator. No virtual call for a null context.
 */
class ExecBinding
{
  public:
    ExecBinding(LinearOperator &op, const ExecContext *ctx)
        : a(op), bound(ctx != nullptr)
    {
        if (bound)
            a.setExecContext(ctx);
    }

    ~ExecBinding()
    {
        if (bound)
            a.setExecContext(nullptr);
    }

    ExecBinding(const ExecBinding &) = delete;
    ExecBinding &operator=(const ExecBinding &) = delete;

  private:
    LinearOperator &a;
    bool bound;
};

/** Operator that can also apply its transpose (needed by BiCG). */
class TransposableOperator : public LinearOperator
{
  public:
    /** y = A^T x. */
    virtual void applyTranspose(std::span<const double> x,
                                std::span<double> y) = 0;
};

/** Plain CSR-backed operator (the CPU/GPU reference arithmetic). */
class CsrOperator : public TransposableOperator
{
  public:
    explicit CsrOperator(const Csr &m) : mat(&m) {}

    std::int32_t rows() const override { return mat->rows(); }
    std::int32_t cols() const override { return mat->cols(); }

    void
    apply(std::span<const double> x, std::span<double> y) override
    {
        mat->spmv(x, y);
    }

    void
    applyTranspose(std::span<const double> x,
                   std::span<double> y) override
    {
        mat->spmvTranspose(x, y);
    }

  private:
    const Csr *mat;
};

/**
 * Reusable scratch vectors for the Krylov solvers.
 *
 * Each solver call needs a handful of n-length work vectors. A
 * workspace keeps their capacity alive across calls, so repeated
 * solves on the same system -- the segmented loop in
 * ResilientSolver, parameter sweeps, benches -- stop paying an
 * allocation per segment. vec() hands out a zeroed vector exactly
 * like a freshly constructed one, so results are unchanged.
 */
class SolverWorkspace
{
  public:
    /** Zeroed n-length vector for @p slot (grown on demand). */
    std::vector<double> &
    vec(std::size_t slot, std::size_t n)
    {
        if (const AllocHook hook =
                allocHook.load(std::memory_order_acquire))
            hook(n);
        if (slot >= pool.size())
            pool.resize(slot + 1);
        pool[slot].assign(n, 0.0);
        return pool[slot];
    }

    /**
     * Chaos-harness allocation hook: called with the requested
     * length before every vec() grant and may throw std::bad_alloc
     * to model memory pressure. Process-global; nullptr uninstalls.
     * One relaxed load per grant when unset.
     */
    using AllocHook = void (*)(std::size_t n);
    static void
    setAllocHook(AllocHook hook)
    {
        allocHook.store(hook, std::memory_order_release);
    }

  private:
    /** Deque, not vector: growing it must not move the vectors a
     *  solver already holds references to. */
    std::deque<std::vector<double>> pool;

    static std::atomic<AllocHook> allocHook; //!< defined in solver.cc
};

/** Which Krylov method to run. */
enum class SolverKind
{
    Auto, //!< CG for SPD entries, BiCG-STAB otherwise (the paper)
    Cg,
    BiCgStab,
    Gmres,
};

/**
 * Resumable mid-solve state of one CG recurrence, for cooperative
 * preemption (CG only; every CG solve is a lockstep column, so a
 * checkpoint belongs to one column of a lockstepConjugateGradient
 * panel, and conjugateGradient() is the one-column case).
 *
 * When a column's SolverConfig::checkpoint is attached and its
 * ExecContext's yield flag is up, the column stops at its next
 * iteration boundary, deep-copies its recurrence state (iterate,
 * residual, search direction, scalars, kernel tallies) into the
 * checkpoint, and leaves the panel with SolveStatus::Preempted. A
 * later solve with the same checkpoint (valid == true), in a panel
 * of any width, restores that exact state and continues the
 * recurrence, so the concatenated segments produce bitwise the
 * iterate sequence -- and hence the result -- of an uninterrupted
 * solve. That identity is what lets a scheduler preempt a long solve
 * for a short-deadline one without changing any answer bit.
 */
struct SolverCheckpoint
{
    bool valid = false;    //!< holds a resumable state
    int iterationsDone = 0;
    double rr = 0.0;       //!< r'r of the saved residual
    double bNorm = 0.0;
    std::vector<double> x; //!< iterate at the yield boundary
    std::vector<double> r; //!< residual
    std::vector<double> p; //!< search direction
    /** Kernel tallies of the completed segments, folded into the
     *  final SolverResult so it matches an uninterrupted run. */
    std::uint64_t spmvCalls = 0;
    std::uint64_t dotCalls = 0;
    std::uint64_t axpyCalls = 0;
};

struct SolverConfig
{
    double tolerance = 1e-10;  //!< relative residual target
    int maxIterations = 5000;
    /**
     * Optional execution context (deadline / cancellation), polled
     * once per iteration and forwarded to the operator for
     * per-block-batch polls (except in a lockstep panel of k > 1
     * columns). Not owned; must outlive the solve. nullptr (the
     * default) adds no per-iteration cost.
     */
    const ExecContext *exec = nullptr;
    /**
     * Optional preemption checkpoint sink/source (CG only, per
     * column of a lockstep panel). Non-null enables cooperative
     * yield: exec->yieldRequested() is honored at iteration
     * boundaries, right after the exec poll (see SolverCheckpoint).
     * A valid checkpoint resumes the saved recurrence instead of
     * starting from x, without the entry poll or the initial apply.
     * Not owned; one checkpoint serves one column.
     */
    SolverCheckpoint *checkpoint = nullptr;
};

/**
 * Escalation record of a resilient solve (solver/resilient.hh).
 * Zero-initialized (and meaningless) for plain solver runs.
 */
struct RecoveryStats
{
    // Detection events on the residual stream.
    std::uint64_t nanEvents = 0;        //!< NaN/Inf in residual or x
    std::uint64_t divergenceEvents = 0; //!< residual blowup vs best
    std::uint64_t stagnationEvents = 0; //!< no progress over segments
    // Escalation actions taken.
    std::uint64_t scrubs = 0;             //!< AN-readback scans
    std::uint64_t reprograms = 0;         //!< crossbar rewrites
    std::uint64_t reprogramFailures = 0;  //!< rewrite did not heal
    std::uint64_t checkpointRestarts = 0; //!< x restored to last good
    std::uint64_t fallbacks = 0;          //!< blocks degraded to CSR
    std::uint64_t segments = 0;           //!< solver segments run
    std::uint64_t degradedBlocks = 0;     //!< blocks exact at exit
    // Execution-fault record (retry budget, absorbed failures).
    std::uint64_t retryAttempts = 0; //!< RetryBudget grants consumed
    std::uint64_t backoffNanos = 0;  //!< scheduled backoff, summed
    std::uint64_t allocFailures = 0; //!< bad_alloc absorbed
    std::uint64_t workerFaults = 0;  //!< worker throws absorbed

    std::uint64_t
    events() const
    {
        return nanEvents + divergenceEvents + stagnationEvents;
    }

    std::uint64_t
    actions() const
    {
        return reprograms + checkpointRestarts + fallbacks;
    }
};

struct SolverResult
{
    bool converged = false;
    int iterations = 0;
    /** Why the solve ended. Cancelled/DeadlineExceeded results hold
     *  the last completed iterate in x, never a partial update. */
    SolveStatus status = SolveStatus::MaxIterations;
    double relResidual = 0.0; //!< ||b - Ax|| / ||b|| at exit
    /** Kernel-call counts for the platform timing models. */
    std::uint64_t spmvCalls = 0;
    std::uint64_t dotCalls = 0;
    std::uint64_t axpyCalls = 0;
    std::uint64_t precondApplies = 0;
    std::uint64_t vectorLength = 0;
    /** Fault-recovery record when run under ResilientSolver. */
    RecoveryStats recovery;
};

/** Conjugate gradient; requires a symmetric positive definite A.
 *  Runs lockstepConjugateGradient (solver/block.hh) as a one-column
 *  panel: it binds cfg.exec to the operator and honors
 *  cfg.checkpoint. An optional workspace reuses the solver's scratch
 *  vectors (slots 0-2) across calls (results are identical either
 *  way). */
SolverResult conjugateGradient(LinearOperator &a,
                               std::span<const double> b,
                               std::span<double> x,
                               const SolverConfig &cfg = {},
                               SolverWorkspace *ws = nullptr);

/** Stabilized bi-conjugate gradient (van der Vorst). */
SolverResult biCgStab(LinearOperator &a, std::span<const double> b,
                      std::span<double> x,
                      const SolverConfig &cfg = {},
                      SolverWorkspace *ws = nullptr);

/** Plain bi-conjugate gradient (needs A^T; Section II-B names it
 *  among the mainstream non-SPD methods). */
SolverResult biCg(TransposableOperator &a, std::span<const double> b,
                  std::span<double> x, const SolverConfig &cfg = {},
                  SolverWorkspace *ws = nullptr);

/** Restarted GMRES(m) with modified Gram-Schmidt. */
SolverResult gmres(LinearOperator &a, std::span<const double> b,
                   std::span<double> x, const SolverConfig &cfg = {},
                   int restart = 30, SolverWorkspace *ws = nullptr);

} // namespace msc

#endif // MSC_SOLVER_SOLVER_HH
