/**
 * @file
 * Block-Krylov solvers over column-major multi-RHS panels.
 *
 * Scientific workloads routinely solve one system against many right
 * hand sides (load cases, time steps, probing vectors). On the
 * accelerator a block method is the natural fit for the batched SpMM
 * path (Accelerator::spmm, LinearOperator::applyBatch): every
 * iteration issues ONE panel apply, so the crossbar programming,
 * contribution tables, and schedules are amortized over all k
 * columns instead of being re-driven per RHS.
 *
 * blockConjugateGradient implements the classic block CG of O'Leary
 * (1980): the search directions of all k columns share one Krylov
 * space, the step and orthogonalization coefficients become k x k
 * systems, and -- beyond the SpMM amortization -- the shared space
 * typically converges in fewer iterations than k independent CG
 * runs. Rank deficiency of the RHS block (linearly dependent
 * columns) surfaces as SolveStatus::Breakdown, the standard behavior
 * of an undeflated block method; callers fall back to independent
 * solves (ResilientSolver::solveBatch) for such panels.
 *
 * Determinism contract: all reductions (k x k Gram matrices, the
 * small Gaussian solves, the panel updates) run serially on the
 * solve thread; the only fanned-out work is the operator's own
 * applyBatch, which is bit-deterministic for any lane count. Block
 * trajectories are therefore bit-identical across thread counts.
 */

#ifndef MSC_SOLVER_BLOCK_HH
#define MSC_SOLVER_BLOCK_HH

#include <vector>

#include "solver/solver.hh"

namespace msc {

/** Result of a block (multi-RHS) solve. */
struct BlockSolverResult
{
    bool converged = false; //!< every column met the tolerance
    int iterations = 0;     //!< block iterations (each = one SpMM)
    /** Why the solve ended. Cancelled/DeadlineExceeded results hold
     *  the last completed block iterate in X, never a partial
     *  update. */
    SolveStatus status = SolveStatus::MaxIterations;
    /** ||b_c - A x_c|| / ||b_c|| per column at exit. */
    std::vector<double> relResiduals;
    /** Kernel-call counts for the platform timing models. One
     *  spmmCall covers the whole k-column panel. */
    std::uint64_t spmmCalls = 0;
    std::uint64_t dotCalls = 0;
    std::uint64_t axpyCalls = 0;
    std::uint64_t vectorLength = 0;
    unsigned columns = 0;

    /** Largest per-column relative residual at exit. */
    double
    worstResidual() const
    {
        double worst = 0.0;
        for (double r : relResiduals)
            worst = r > worst ? r : worst;
        return worst;
    }
};

/**
 * Block conjugate gradient for symmetric positive definite A over a
 * column-major k-column panel: solves A X_c = B_c for all c at once.
 *
 * @param B   column-major n x k right-hand-side panel
 * @param X   column-major n x k iterate panel (initial guess in,
 *            solution out)
 * @param ws  optional workspace reusing the panel-sized scratch
 *            across calls (results are identical either way)
 *
 * Exactly-zero columns of B are deflated upfront (their X column is
 * zeroed and reported converged) so they cannot make the block Gram
 * matrices singular; a rank-deficient residual block among the live
 * columns stops with SolveStatus::Breakdown. cfg.exec is polled once
 * per block iteration and forwarded to the operator for
 * per-block-batch polls.
 */
BlockSolverResult blockConjugateGradient(
    LinearOperator &a, std::span<const double> B, std::span<double> X,
    unsigned k, const SolverConfig &cfg = {},
    SolverWorkspace *ws = nullptr);

/** Per-column controls of a lockstep panel solve: each column has
 *  its own SolverConfig. */
using LockstepColumnControl = SolverConfig;

/**
 * Lockstep conjugate gradient: k INDEPENDENT CG recurrences advanced
 * side by side, one operator apply per iteration. This is the
 * library's only CG recurrence; conjugateGradient() runs it as the
 * one-column panel.
 *
 * Unlike blockConjugateGradient (whose columns share one Krylov
 * space and therefore follow different trajectories than one-column
 * CG), every column here runs the scalar CG recurrence -- its own
 * scalars, the same dot/axpy kernels in the same order -- and only
 * the operator applies are batched. Since applyBatch is pinned
 * bitwise to the k sequential applies, each column's iterate
 * sequence, and hence its result, is bit-identical to a
 * conjugateGradient() call on that column alone. This is what lets
 * the service runtime coalesce same-operator requests for the
 * panel-amortization win without changing a single answer bit.
 *
 * Each iteration applies the live columns once: a lone live column
 * through apply(), two or more packed into one applyBatch.
 *
 * Columns terminate individually (convergence, breakdown, their own
 * maxIterations, or their own exec context firing) and simply leave
 * the lockstep set; remaining columns are unaffected -- in
 * particular, cancelling one request of a coalesced batch leaves
 * its siblings' results bitwise unchanged. A column's exec is polled
 * before the initial apply and once per iteration, after the
 * convergence test. A column with a checkpoint whose context asks to
 * yield saves its recurrence right after that poll and leaves with
 * SolveStatus::Preempted; a column with a valid checkpoint resumes
 * it, without the entry poll or the initial apply, in a panel of
 * any width (see SolverCheckpoint). A one-column panel also binds
 * its exec to the operator, and a CancelledError thrown out of an
 * apply stops it with the last completed iterate; wider panels bind
 * no context.
 *
 * Workspace slots 0-2 hold the r/p/ap panels; k > 1 also takes
 * slots 3-4 for the packed panels.
 *
 * @param ctl  per-column controls: one per column, or empty for
 *             defaults everywhere
 * @return one SolverResult per column, exactly what a one-column
 *         solve would have produced (iteration counts, statuses,
 *         kernel tallies; for k > 1, operator-level exec polls
 *         excepted)
 */
std::vector<SolverResult> lockstepConjugateGradient(
    LinearOperator &a, std::span<const double> B, std::span<double> X,
    unsigned k, std::span<const SolverConfig> ctl = {},
    SolverWorkspace *ws = nullptr);

} // namespace msc

#endif // MSC_SOLVER_BLOCK_HH
