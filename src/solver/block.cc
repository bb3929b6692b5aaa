#include "solver/block.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"
#include "util/telemetry.hh"

namespace msc {

namespace {

// One tick per block iteration (each covers all k columns) + the
// worst per-column residual as a gauge.
constinit telemetry::Counter
    ctrBlockIterations{"solver.block_iterations"};
constinit telemetry::Gauge gBlockResidual{"solver.block_residual"};

/** Breakdown guard on an elimination pivot (see solver.cc). */
bool
breakdownPivot(double pivot)
{
    return !std::isfinite(pivot) || std::fabs(pivot) < 1e-300;
}

/**
 * Solve S A = RHS for the ka x ka coefficient matrix A by Gaussian
 * elimination with partial pivoting. S and rhs (both row-major) are
 * overwritten; the solution lands in rhs. Returns false when a
 * pivot is breakdown-grade (rank-deficient block).
 */
bool
solveSmall(std::vector<double> &s, std::vector<double> &rhs,
           unsigned ka)
{
    for (unsigned col = 0; col < ka; ++col) {
        unsigned piv = col;
        double best = std::fabs(s[col * ka + col]);
        for (unsigned r = col + 1; r < ka; ++r) {
            const double v = std::fabs(s[r * ka + col]);
            if (v > best) {
                best = v;
                piv = r;
            }
        }
        if (breakdownPivot(s[piv * ka + col]))
            return false;
        if (piv != col) {
            for (unsigned j = 0; j < ka; ++j) {
                std::swap(s[col * ka + j], s[piv * ka + j]);
                std::swap(rhs[col * ka + j], rhs[piv * ka + j]);
            }
        }
        const double d = s[col * ka + col];
        for (unsigned r = col + 1; r < ka; ++r) {
            const double f = s[r * ka + col] / d;
            if (f == 0.0)
                continue;
            for (unsigned j = col; j < ka; ++j)
                s[r * ka + j] -= f * s[col * ka + j];
            for (unsigned j = 0; j < ka; ++j)
                rhs[r * ka + j] -= f * rhs[col * ka + j];
        }
    }
    for (unsigned col = ka; col-- > 0;) {
        const double d = s[col * ka + col];
        for (unsigned j = 0; j < ka; ++j) {
            double sum = rhs[col * ka + j];
            for (unsigned r = col + 1; r < ka; ++r)
                sum -= s[col * ka + r] * rhs[r * ka + j];
            rhs[col * ka + j] = sum / d;
        }
    }
    return true;
}

/** M[i][j] = U_i . V_j over n-length panel columns (row-major M). */
void
gramMatrix(const double *u, const double *v, std::size_t n,
           unsigned ka, std::vector<double> &m)
{
    m.resize(static_cast<std::size_t>(ka) * ka);
    for (unsigned i = 0; i < ka; ++i) {
        for (unsigned j = 0; j < ka; ++j) {
            m[static_cast<std::size_t>(i) * ka + j] =
                dot(std::span<const double>(u + i * n, n),
                    std::span<const double>(v + j * n, n));
        }
    }
}

/** Y_c += sign * sum_j Z_j M[j][c] (column-major panels). */
void
panelMulAdd(double *y, const double *z, const double *m,
            std::size_t n, unsigned ka, double sign)
{
    for (unsigned c = 0; c < ka; ++c) {
        double *yc = y + static_cast<std::size_t>(c) * n;
        for (unsigned j = 0; j < ka; ++j) {
            const double f =
                sign * m[static_cast<std::size_t>(j) * ka + c];
            if (f == 0.0)
                continue;
            const double *zj = z + static_cast<std::size_t>(j) * n;
            for (std::size_t i = 0; i < n; ++i)
                yc[i] += f * zj[i];
        }
    }
}

} // namespace

BlockSolverResult
blockConjugateGradient(LinearOperator &a, std::span<const double> B,
                       std::span<double> X, unsigned k,
                       const SolverConfig &cfg, SolverWorkspace *ws)
{
    if (a.rows() != a.cols())
        fatal("blockCG: operator must be square");
    const auto n = static_cast<std::size_t>(a.rows());
    if (k == 0)
        fatal("blockCG: empty batch");
    if (B.size() != n * k || X.size() != n * k)
        fatal("blockCG: panel size mismatch");

    telemetry::Span span("solver.block_cg");
    BlockSolverResult res;
    res.vectorLength = n;
    res.columns = k;
    res.relResiduals.assign(k, 0.0);

    // Deflate exactly-zero RHS columns upfront: their solution is
    // zero, and keeping them in the block would make every R'R Gram
    // matrix singular.
    std::vector<unsigned> live;
    std::vector<double> bNorm(k, 0.0);
    for (unsigned c = 0; c < k; ++c) {
        bNorm[c] = norm2(B.subspan(c * n, n));
        ++res.dotCalls;
        if (bNorm[c] == 0.0) {
            const auto xc = X.subspan(c * n, n);
            std::fill(xc.begin(), xc.end(), 0.0);
        } else {
            live.push_back(c);
        }
    }
    const auto ka = static_cast<unsigned>(live.size());
    if (ka == 0) {
        res.converged = true;
        res.status = SolveStatus::Converged;
        return res;
    }

    // Panel scratch: the live columns of B and X gathered into
    // contiguous column-major panels (the batched operator contract),
    // plus the block-CG recurrence panels.
    const std::size_t pn = static_cast<std::size_t>(ka) * n;
    SolverWorkspace local;
    SolverWorkspace &wsp = ws ? *ws : local;
    std::vector<double> &bw = wsp.vec(0, pn);
    std::vector<double> &xw = wsp.vec(1, pn);
    std::vector<double> &r = wsp.vec(2, pn);
    std::vector<double> &p = wsp.vec(3, pn);
    std::vector<double> &q = wsp.vec(4, pn);
    std::vector<double> &pNew = wsp.vec(5, pn);
    for (unsigned j = 0; j < ka; ++j) {
        const std::size_t c = live[j];
        std::copy_n(B.data() + c * n, n, bw.data() + j * n);
        std::copy_n(X.data() + c * n, n, xw.data() + j * n);
    }

    // Small (ka x ka) factors of the recurrence; sMat is the
    // scratch solveSmall overwrites.
    std::vector<double> rho, rhoNew, sMat, coef;

    ExecBinding bind(a, cfg.exec);
    SolveStatus stop = SolveStatus::MaxIterations;
    bool interrupted = false;

    // Refresh the per-column residual report from diag(R'R); the
    // off-diagonal entries only feed the recurrence.
    const auto reportResiduals = [&]() {
        double worst = 0.0;
        for (unsigned j = 0; j < ka; ++j) {
            const double rr =
                rho[static_cast<std::size_t>(j) * ka + j];
            const double rel =
                std::sqrt(rr < 0.0 ? 0.0 : rr) / bNorm[live[j]];
            res.relResiduals[live[j]] = rel;
            worst = rel > worst ? rel : worst;
        }
        return worst;
    };

    try {
        execCheckpoint(cfg.exec);
        // R = B - A X (one panel apply), P = R.
        a.applyBatch(xw, r, ka);
        ++res.spmmCalls;
        for (std::size_t i = 0; i < pn; ++i)
            r[i] = bw[i] - r[i];
        p = r;

        gramMatrix(r.data(), r.data(), n, ka, rho);
        res.dotCalls += static_cast<std::uint64_t>(ka) * ka;

        for (int it = 0; it < cfg.maxIterations; ++it) {
            const double worst = reportResiduals();
            if (worst <= cfg.tolerance) {
                res.converged = true;
                break;
            }
            execCheckpoint(cfg.exec);

            a.applyBatch(p, q, ka);
            ++res.spmmCalls;
            gramMatrix(p.data(), q.data(), n, ka, sMat);
            res.dotCalls += static_cast<std::uint64_t>(ka) * ka;

            // alpha = (P'Q)^-1 (R'R)
            coef = rho;
            if (!solveSmall(sMat, coef, ka)) {
                warn("blockCG: singular P'AP block at iteration ",
                     it, "; aborting");
                stop = SolveStatus::Breakdown;
                break;
            }
            // X += P alpha ; R -= Q alpha. X moves only here, after
            // the full coefficient solve, so a cancel landing inside
            // an apply leaves the last completed block iterate.
            panelMulAdd(xw.data(), p.data(), coef.data(), n, ka,
                        1.0);
            panelMulAdd(r.data(), q.data(), coef.data(), n, ka,
                        -1.0);
            res.axpyCalls += 2ull * ka * ka;

            gramMatrix(r.data(), r.data(), n, ka, rhoNew);
            res.dotCalls += static_cast<std::uint64_t>(ka) * ka;

            // beta = (R'R)^-1 (R'R)_new
            sMat = rho;
            coef = rhoNew;
            if (!solveSmall(sMat, coef, ka)) {
                warn("blockCG: singular R'R block at iteration ", it,
                     "; aborting");
                rho = rhoNew;
                ++res.iterations;
                ctrBlockIterations.add();
                stop = SolveStatus::Breakdown;
                break;
            }
            // P = R + P beta.
            pNew = r;
            panelMulAdd(pNew.data(), p.data(), coef.data(), n, ka,
                        1.0);
            res.axpyCalls += static_cast<std::uint64_t>(ka) * ka;
            std::swap(p, pNew);

            rho = rhoNew;
            ++res.iterations;
            ctrBlockIterations.add();
            gBlockResidual.set(reportResiduals());
        }
    } catch (const CancelledError &e) {
        // relResiduals already reflect the last completed iteration;
        // xw holds its iterate (X only moves through the serial
        // panel update above).
        stop = e.status();
        interrupted = true;
    }

    // Scatter the live columns back (deflated columns were zeroed
    // upfront and never touched again).
    for (unsigned j = 0; j < ka; ++j) {
        const std::size_t c = live[j];
        std::copy_n(xw.data() + j * n, n, X.data() + c * n);
    }

    if (interrupted) {
        res.status = stop;
        return res;
    }
    res.converged = res.worstResidual() <= cfg.tolerance;
    res.status =
        res.converged ? SolveStatus::Converged : stop;
    return res;
}

namespace {

// Same interned cells as the other Krylov solvers (solver.cc): each
// column ticks "solver.iterations" once per CG iteration, so the
// telemetry totals of a coalesced batch match k one-column solves.
constinit telemetry::Counter ctrIterations{"solver.iterations"};
constinit telemetry::Gauge gResidual{"solver.residual"};

} // namespace

std::vector<SolverResult>
lockstepConjugateGradient(LinearOperator &a,
                          std::span<const double> B,
                          std::span<double> X, unsigned k,
                          std::span<const SolverConfig> ctl,
                          SolverWorkspace *ws)
{
    if (a.rows() != a.cols())
        fatal("lockstepCG: operator must be square");
    const auto n = static_cast<std::size_t>(a.rows());
    if (k == 0)
        fatal("lockstepCG: empty panel");
    if (B.size() != n * k || X.size() != n * k)
        fatal("lockstepCG: panel size mismatch");
    if (!ctl.empty() && ctl.size() != k)
        fatal("lockstepCG: need one control per column");

    telemetry::Span span(k == 1 ? "solver.cg" : "solver.lockstep_cg");

    const SolverConfig defaultCtl;
    const auto colCtl = [&](unsigned c) -> const SolverConfig & {
        return ctl.empty() ? defaultCtl : ctl[c];
    };

    SolverWorkspace local;
    SolverWorkspace &wsp = ws ? *ws : local;
    // Panel-sized scratch: per-column r/p/ap columns, plus the packed
    // panels a narrowed panel's applies run over (k > 1 only: one
    // column never packs).
    std::vector<double> &R = wsp.vec(0, n * k);
    std::vector<double> &P = wsp.vec(1, n * k);
    std::vector<double> &AP = wsp.vec(2, n * k);
    std::vector<double> *pack = nullptr;
    std::vector<double> *packOut = nullptr;
    if (k > 1) {
        pack = &wsp.vec(3, n * k);
        packOut = &wsp.vec(4, n * k);
    }

    // One column binds its context, so block-batched operators poll
    // it mid-apply. A wider panel binds none: one column's stop must
    // not abort its siblings' apply.
    ExecBinding bind(a, k == 1 ? colCtl(0).exec : nullptr);

    std::vector<SolverResult> results(k);
    std::vector<double> rr(k, 0.0), bNorm(k, 0.0);
    std::vector<bool> active(k, false);

    // Normal exit: recompute convergence from the current residual,
    // Converged winning over the provided stop reason.
    const auto finalize = [&](unsigned c, SolveStatus stop) {
        SolverResult &res = results[c];
        res.relResidual = std::sqrt(rr[c]) / bNorm[c];
        res.converged = res.relResidual <= colCtl(c).tolerance;
        res.status =
            res.converged ? SolveStatus::Converged : stop;
        active[c] = false;
    };
    // Stopped by the context: keep the last completed iterate,
    // report the stop status, never claim convergence.
    const auto interrupt = [&](unsigned c, SolveStatus stop) {
        SolverResult &res = results[c];
        res.relResidual = (bNorm[c] > 0.0 && rr[c] > 0.0)
                              ? std::sqrt(rr[c]) / bNorm[c]
                              : 1.0;
        res.status = stop;
        active[c] = false;
    };
    // Yield: save the column's recurrence at this iteration boundary
    // (no arithmetic has run for the next iteration, so the resumed
    // column re-enters the loop exactly here) and step aside.
    const auto preempt = [&](unsigned c, SolverCheckpoint &ck) {
        SolverResult &res = results[c];
        ck.iterationsDone = res.iterations;
        ck.rr = rr[c];
        ck.bNorm = bNorm[c];
        ck.x.assign(X.begin() + c * n, X.begin() + (c + 1) * n);
        ck.r.assign(R.begin() + c * n, R.begin() + (c + 1) * n);
        ck.p.assign(P.begin() + c * n, P.begin() + (c + 1) * n);
        ck.spmvCalls = res.spmvCalls;
        ck.dotCalls = res.dotCalls;
        ck.axpyCalls = res.axpyCalls;
        ck.valid = true;
        res.relResidual = std::sqrt(rr[c]) / bNorm[c];
        res.status = SolveStatus::Preempted;
        active[c] = false;
    };

    // dst column c = A (src column c) for every live column. Copies
    // carry bits unchanged, and applyBatch is pinned bitwise to the
    // sequential applies, so each column sees exactly the apply()
    // result a one-column solve computes. A lone live column takes
    // apply() itself (on the accelerator spmm(x, y, 1) costs about
    // twice spmv); two or more pack into one applyBatch.
    const auto batchApply = [&](std::span<const double> src,
                                std::span<double> dst) {
        unsigned ka = 0, last = 0;
        for (unsigned c = 0; c < k; ++c)
            if (active[c]) {
                ++ka;
                last = c;
            }
        try {
            if (ka == 1) {
                a.apply(src.subspan(last * n, n),
                        dst.subspan(last * n, n));
            } else if (ka > 1) {
                unsigned j = 0;
                for (unsigned c = 0; c < k; ++c)
                    if (active[c])
                        std::copy_n(src.data() + c * n, n,
                                    pack->data() + (j++) * n);
                a.applyBatch(
                    std::span<const double>(pack->data(), ka * n),
                    std::span<double>(packOut->data(), ka * n), ka);
                j = 0;
                for (unsigned c = 0; c < k; ++c)
                    if (active[c])
                        std::copy_n(packOut->data() + (j++) * n, n,
                                    dst.data() + c * n);
            }
        } catch (const CancelledError &e) {
            // Only a bound context (k == 1) throws out of an apply.
            // x moves only after the apply, so the column keeps its
            // last completed iterate.
            for (unsigned c = 0; c < k; ++c)
                if (active[c])
                    interrupt(c, e.status());
            return;
        }
        for (unsigned c = 0; c < k; ++c)
            if (active[c])
                ++results[c].spmvCalls;
    };

    // --- entry: resume a checkpoint, or poll and start fresh ------
    std::vector<unsigned> resumed;
    for (unsigned c = 0; c < k; ++c) {
        results[c].vectorLength = n;
        const SolverConfig &cc = colCtl(c);
        SolverCheckpoint *ck = cc.checkpoint;
        if (ck != nullptr && ck->valid && ck->x.size() == n) {
            std::copy(ck->x.begin(), ck->x.end(), X.begin() + c * n);
            std::copy(ck->r.begin(), ck->r.end(), R.begin() + c * n);
            std::copy(ck->p.begin(), ck->p.end(), P.begin() + c * n);
            rr[c] = ck->rr;
            bNorm[c] = ck->bNorm;
            SolverResult &res = results[c];
            res.iterations = ck->iterationsDone;
            res.spmvCalls = ck->spmvCalls;
            res.dotCalls = ck->dotCalls;
            res.axpyCalls = ck->axpyCalls;
            ck->valid = false;
            resumed.push_back(c);
        } else if (execShouldStop(cc.exec)) {
            interrupt(c, cc.exec->stopStatus());
        } else {
            active[c] = true;
        }
    }

    // --- fresh columns: r = b - A x, p = r ------------------------
    batchApply(X, std::span<double>(R));
    for (unsigned c = 0; c < k; ++c) {
        if (!active[c])
            continue;
        const auto b = B.subspan(c * n, n);
        const auto r = std::span<double>(R).subspan(c * n, n);
        for (std::size_t i = 0; i < n; ++i)
            r[i] = b[i] - r[i];
        std::copy_n(r.data(), n, P.data() + c * n);

        bNorm[c] = norm2(b);
        ++results[c].dotCalls;
        if (bNorm[c] == 0.0) {
            auto x = X.subspan(c * n, n);
            std::fill(x.begin(), x.end(), 0.0);
            results[c].converged = true;
            results[c].status = SolveStatus::Converged;
            active[c] = false;
            continue;
        }
        rr[c] = dot(r, r);
        ++results[c].dotCalls;
    }
    for (unsigned c : resumed)
        active[c] = true;

    // --- lockstep iterations -------------------------------------
    for (;;) {
        // Per-column loop head: iteration budget, convergence, the
        // exec poll, then the yield check.
        for (unsigned c = 0; c < k; ++c) {
            if (!active[c])
                continue;
            const SolverConfig &cc = colCtl(c);
            if (results[c].iterations >= cc.maxIterations)
                finalize(c, SolveStatus::MaxIterations);
            else if (std::sqrt(rr[c]) / bNorm[c] <= cc.tolerance)
                finalize(c, SolveStatus::MaxIterations);
            else if (execShouldStop(cc.exec))
                interrupt(c, cc.exec->stopStatus());
            else if (cc.checkpoint != nullptr && cc.exec != nullptr &&
                     cc.exec->yieldRequested())
                preempt(c, *cc.checkpoint);
        }

        bool any = false;
        for (unsigned c = 0; c < k; ++c)
            any = any || active[c];
        if (!any)
            break;

        // One apply advances every live column: ap = A p.
        batchApply(P, std::span<double>(AP));

        for (unsigned c = 0; c < k; ++c) {
            if (!active[c])
                continue;
            SolverResult &res = results[c];
            const auto p =
                std::span<const double>(P).subspan(c * n, n);
            const auto ap =
                std::span<const double>(AP).subspan(c * n, n);
            const auto r = std::span<double>(R).subspan(c * n, n);
            const auto x = X.subspan(c * n, n);

            const double pap = dot(p, ap);
            ++res.dotCalls;
            if (pap <= 0.0) {
                warn("CG: operator not positive definite (p'Ap = ",
                     pap, ") on column ", c, "; aborting it");
                finalize(c, SolveStatus::Breakdown);
                continue;
            }
            const double alpha = rr[c] / pap;
            axpy(alpha, p, x);
            axpy(-alpha, ap, r);
            res.axpyCalls += 2;
            const double rrNew = dot(r, r);
            ++res.dotCalls;
            const double beta = rrNew / rr[c];
            auto pw = std::span<double>(P).subspan(c * n, n);
            for (std::size_t i = 0; i < n; ++i)
                pw[i] = r[i] + beta * pw[i];
            ++res.axpyCalls;
            rr[c] = rrNew;
            ++res.iterations;
            ctrIterations.add();
            gResidual.set(std::sqrt(rr[c]) / bNorm[c]);
        }
    }
    return results;
}

} // namespace msc
