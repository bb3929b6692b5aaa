/**
 * @file
 * Cooperative preemption of CG at every iteration boundary
 * (solver/block.hh, SolverCheckpoint).
 *
 * CG has one recurrence, lockstepConjugateGradient, and every column
 * of it can yield into its own checkpoint and resume from it. The
 * contract pinned here: however often and wherever a solve yields,
 * the resumed segments end with the status, iteration count,
 * residual, kernel tallies and x bits of the uninterrupted solve --
 * on the CSR reference and on a bit-exact cluster operator whose own
 * per-block exec polls advance the yield countdown, at 1, 2 and 8
 * lanes, for a one-column solve and for a panel column that resumes
 * beside fresh siblings. The suite name carries Preempt, so the tsan
 * preset runs it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "accel/cluster_operator.hh"
#include "runtime/exec_context.hh"
#include "solver/block.hh"
#include "solver/solver.hh"
#include "sparse/gen.hh"
#include "util/random.hh"
#include "util/threadpool.hh"

namespace msc {
namespace {

/** 16 rows, well conditioned: about 15 iterations keep the
 *  every-boundary sweep (iterations^2 applies per lane count) quick
 *  under TSan. */
Csr
smallSpd()
{
    TiledParams p;
    p.rows = 16;
    p.tile = 8;
    p.tileDensity = 0.5;
    p.spd = true;
    p.symmetricPattern = true;
    p.diagDominance = 1.0;
    p.values.tileExpSigma = 0.5;
    p.values.elemExpSigma = 0.5;
    p.seed = 4242;
    return genTiled(p);
}

std::vector<double>
seededRhs(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> b(n);
    for (double &v : b)
        v = 2.0 * rng.uniform() - 1.0;
    return b;
}

/** CSR, or the bit-exact cluster operator on 8-wide blocks (two
 *  blocks here), which polls a bound context once per block. */
std::unique_ptr<LinearOperator>
makeOperator(const Csr &m, bool cluster)
{
    if (cluster) {
        BlockingConfig blocking;
        blocking.sizes = {8};
        return std::make_unique<ClusterArithmeticOperator>(
            m, blocking, ClusterConfig{});
    }
    return std::make_unique<CsrOperator>(m);
}

/** Status, iteration count, residual, kernel tallies and x bits. */
void
expectSameSolve(const SolverResult &got, const std::vector<double> &xGot,
                const SolverResult &want,
                const std::vector<double> &xWant, const std::string &what)
{
    EXPECT_EQ(got.status, want.status) << what;
    EXPECT_EQ(got.converged, want.converged) << what;
    EXPECT_EQ(got.iterations, want.iterations) << what;
    EXPECT_EQ(got.relResidual, want.relResidual) << what;
    EXPECT_EQ(got.spmvCalls, want.spmvCalls) << what;
    EXPECT_EQ(got.dotCalls, want.dotCalls) << what;
    EXPECT_EQ(got.axpyCalls, want.axpyCalls) << what;
    ASSERT_EQ(xGot.size(), xWant.size()) << what;
    for (std::size_t i = 0; i < xGot.size(); ++i)
        ASSERT_EQ(std::memcmp(&xGot[i], &xWant[i], sizeof(double)), 0)
            << what << ": component " << i;
}

struct Segmented
{
    SolverResult res;
    std::vector<double> x;
    std::vector<int> yieldedAt; //!< iteration boundary of each yield
};

/**
 * One-column solve with a checkpoint attached. The yield countdown
 * starts at @p first polls; after each yield the caller side clears
 * the flag (as the service does), re-arms @p rearm polls when
 * non-zero, poisons x, and resumes from the checkpoint.
 */
Segmented
solveYielding(LinearOperator &op, const std::vector<double> &b,
              std::uint64_t first, std::uint64_t rearm)
{
    ExecContext ctx;
    ctx.yieldAfterChecks(first);
    SolverCheckpoint ckpt;
    SolverConfig cfg;
    cfg.exec = &ctx;
    cfg.checkpoint = &ckpt;
    Segmented run;
    run.x.assign(b.size(), 0.0);
    for (;;) {
        run.res = conjugateGradient(op, b, run.x, cfg);
        if (run.res.status != SolveStatus::Preempted)
            return run;
        EXPECT_TRUE(ckpt.valid);
        EXPECT_FALSE(run.res.converged);
        run.yieldedAt.push_back(run.res.iterations);
        if (run.yieldedAt.size() > 10000) {
            ADD_FAILURE() << "solve never finished";
            return run;
        }
        ctx.clearYield();
        if (rearm != 0)
            ctx.yieldAfterChecks(rearm);
        // The resume must come from the checkpoint, not from x.
        std::fill(run.x.begin(), run.x.end(),
                  std::numeric_limits<double>::quiet_NaN());
    }
}

/** Yield once at every boundary, then at every iteration. */
void
preemptEveryBoundary(bool cluster)
{
    const Csr m = smallSpd();
    const std::size_t n = static_cast<std::size_t>(m.rows());
    const std::vector<double> b = seededRhs(n, 9100);

    for (unsigned lanes : {1u, 2u, 8u}) {
        setGlobalThreads(lanes);
        const auto op = makeOperator(m, cluster);
        const std::string tag = std::string(cluster ? "cluster" : "csr") +
                                " lanes " + std::to_string(lanes);

        std::vector<double> xRef(n, 0.0);
        const SolverResult ref = conjugateGradient(*op, b, xRef);
        ASSERT_EQ(ref.status, SolveStatus::Converged) << tag;
        ASSERT_GT(ref.iterations, 4) << tag;

        // One yield, landing on poll i: i = 1, 2, ... until the
        // countdown outlasts the solve. Every boundary gets hit.
        std::set<int> boundaries;
        std::uint64_t i = 1;
        for (;; ++i) {
            const Segmented run = solveYielding(*op, b, i, 0);
            if (run.yieldedAt.empty())
                break;
            const std::string what = tag + " yield at poll " +
                                     std::to_string(i);
            ASSERT_EQ(run.yieldedAt.size(), 1u) << what;
            boundaries.insert(run.yieldedAt[0]);
            expectSameSolve(run.res, run.x, ref, xRef, what);
        }
        // Polls: one at entry, one per boundary, and (cluster) the
        // operator's per-block polls inside each apply.
        const auto solverPolls =
            static_cast<std::uint64_t>(ref.iterations) + 1;
        if (cluster)
            EXPECT_GT(i - 1, solverPolls) << tag;
        else
            EXPECT_EQ(i - 1, solverPolls) << tag;
        ASSERT_EQ(boundaries.size(),
                  static_cast<std::size_t>(ref.iterations))
            << tag;
        EXPECT_EQ(*boundaries.begin(), 0) << tag;
        EXPECT_EQ(*boundaries.rbegin(), ref.iterations - 1) << tag;

        // Re-armed to 2 after each resume: a yield at every
        // iteration boundary, one iteration per segment.
        const Segmented every = solveYielding(*op, b, 2, 2);
        ASSERT_EQ(every.yieldedAt.size(),
                  static_cast<std::size_t>(ref.iterations))
            << tag;
        for (int it = 0; it < ref.iterations; ++it)
            EXPECT_EQ(every.yieldedAt[static_cast<std::size_t>(it)], it)
                << tag;
        expectSameSolve(every.res, every.x, ref, xRef,
                        tag + " yield every iteration");
    }
    setGlobalThreads(0);
}

TEST(CgPreempt, EveryBoundaryOnCsr)
{
    preemptEveryBoundary(false);
}

TEST(CgPreempt, EveryBoundaryOnBoundClusterOperator)
{
    preemptEveryBoundary(true);
}

/**
 * A panel column yields into its checkpoint while its siblings run
 * on, then resumes in a later panel beside fresh columns: every
 * column of both panels matches its one-column solve.
 */
TEST(CgPreempt, PanelColumnResumesBesideFreshSiblings)
{
    const Csr m = smallSpd();
    const std::size_t n = static_cast<std::size_t>(m.rows());
    constexpr unsigned k = 3;
    std::vector<std::vector<double>> rhs;
    for (unsigned c = 0; c < 5; ++c)
        rhs.push_back(seededRhs(n, 9200 + c));

    for (const bool cluster : {false, true}) {
        for (unsigned lanes : {1u, 2u, 8u}) {
            setGlobalThreads(lanes);
            const auto op = makeOperator(m, cluster);
            const std::string tag =
                std::string(cluster ? "cluster" : "csr") + " lanes " +
                std::to_string(lanes);

            std::vector<SolverResult> solo(rhs.size());
            std::vector<std::vector<double>> xSolo(rhs.size());
            for (std::size_t s = 0; s < rhs.size(); ++s) {
                xSolo[s].assign(n, 0.0);
                solo[s] = conjugateGradient(*op, rhs[s], xSolo[s]);
                ASSERT_EQ(solo[s].status, SolveStatus::Converged);
            }

            // First panel: rhs 0, 1, 2; column 1 yields at its
            // fourth poll (entry, then boundaries 0, 1, 2).
            ExecContext ctx;
            ctx.yieldAfterChecks(4);
            SolverCheckpoint ckpt;
            std::vector<SolverConfig> ctl(k);
            ctl[1].exec = &ctx;
            ctl[1].checkpoint = &ckpt;
            std::vector<double> B(n * k), X(n * k, 0.0);
            for (unsigned c = 0; c < k; ++c)
                std::copy(rhs[c].begin(), rhs[c].end(),
                          B.begin() + c * n);
            auto cols = lockstepConjugateGradient(*op, B, X, k, ctl);
            ASSERT_EQ(cols[1].status, SolveStatus::Preempted) << tag;
            EXPECT_EQ(cols[1].iterations, 2) << tag;
            EXPECT_TRUE(ckpt.valid) << tag;
            for (unsigned c : {0u, 2u})
                expectSameSolve(
                    cols[c],
                    std::vector<double>(X.begin() + c * n,
                                        X.begin() + (c + 1) * n),
                    solo[c], xSolo[c],
                    tag + " first panel column " + std::to_string(c));

            // Second panel: rhs 1 resumes in the last column, after
            // fresh rhs 3 and 4; its x column holds garbage.
            ctx.clearYield();
            const unsigned order[k] = {3, 4, 1};
            std::vector<SolverConfig> ctl2(k);
            ctl2[2].exec = &ctx;
            ctl2[2].checkpoint = &ckpt;
            std::fill(X.begin(), X.end(), 0.0);
            for (unsigned c = 0; c < k; ++c)
                std::copy(rhs[order[c]].begin(), rhs[order[c]].end(),
                          B.begin() + c * n);
            std::fill(X.begin() + 2 * n, X.end(),
                      std::numeric_limits<double>::quiet_NaN());
            cols = lockstepConjugateGradient(*op, B, X, k, ctl2);
            EXPECT_FALSE(ckpt.valid) << tag;
            for (unsigned c = 0; c < k; ++c)
                expectSameSolve(
                    cols[c],
                    std::vector<double>(X.begin() + c * n,
                                        X.begin() + (c + 1) * n),
                    solo[order[c]], xSolo[order[c]],
                    tag + " second panel rhs " +
                        std::to_string(order[c]));
        }
    }
    setGlobalThreads(0);
}

} // namespace
} // namespace msc
