#include "solver/precond.hh"

#include <cmath>

#include "util/logging.hh"

namespace msc {

namespace {

std::vector<double>
extractDiagonal(const Csr &m)
{
    if (m.rows() != m.cols())
        fatal("preconditioner: matrix must be square");
    std::vector<double> d(static_cast<std::size_t>(m.rows()), 0.0);
    for (std::int32_t r = 0; r < m.rows(); ++r) {
        const auto cols = m.rowCols(r);
        const auto vals = m.rowVals(r);
        for (std::size_t k = 0; k < cols.size(); ++k) {
            if (cols[k] == r)
                d[static_cast<std::size_t>(r)] = vals[k];
        }
        if (d[static_cast<std::size_t>(r)] == 0.0)
            fatal("preconditioner: zero diagonal at row ", r);
    }
    return d;
}

} // namespace

JacobiPreconditioner::JacobiPreconditioner(const Csr &m)
{
    const auto d = extractDiagonal(m);
    invDiag.resize(d.size());
    for (std::size_t i = 0; i < d.size(); ++i)
        invDiag[i] = 1.0 / d[i];
}

void
JacobiPreconditioner::apply(std::span<const double> r,
                            std::span<double> z) const
{
    if (r.size() != invDiag.size() || z.size() != invDiag.size())
        fatal("JacobiPreconditioner: size mismatch");
    for (std::size_t i = 0; i < r.size(); ++i)
        z[i] = r[i] * invDiag[i];
}

SymmetricGaussSeidelPreconditioner::SymmetricGaussSeidelPreconditioner(
    const Csr &m)
    : mat(&m), diag(extractDiagonal(m))
{
}

void
SymmetricGaussSeidelPreconditioner::apply(std::span<const double> r,
                                          std::span<double> z) const
{
    const std::int32_t n = mat->rows();
    if (r.size() != static_cast<std::size_t>(n) ||
        z.size() != static_cast<std::size_t>(n))
        fatal("SymmetricGaussSeidelPreconditioner: size mismatch");

    // Forward sweep: (D + L) y = r.
    for (std::int32_t i = 0; i < n; ++i) {
        double acc = r[static_cast<std::size_t>(i)];
        const auto cols = mat->rowCols(i);
        const auto vals = mat->rowVals(i);
        for (std::size_t k = 0; k < cols.size(); ++k) {
            if (cols[k] < i)
                acc -= vals[k] *
                       z[static_cast<std::size_t>(cols[k])];
        }
        z[static_cast<std::size_t>(i)] =
            acc / diag[static_cast<std::size_t>(i)];
    }
    // Scale by D: w = D y.
    for (std::int32_t i = 0; i < n; ++i)
        z[static_cast<std::size_t>(i)] *=
            diag[static_cast<std::size_t>(i)];
    // Backward sweep: (D + U) z = w.
    for (std::int32_t i = n; i-- > 0;) {
        double acc = z[static_cast<std::size_t>(i)];
        const auto cols = mat->rowCols(i);
        const auto vals = mat->rowVals(i);
        for (std::size_t k = 0; k < cols.size(); ++k) {
            if (cols[k] > i)
                acc -= vals[k] *
                       z[static_cast<std::size_t>(cols[k])];
        }
        z[static_cast<std::size_t>(i)] =
            acc / diag[static_cast<std::size_t>(i)];
    }
}

Ilu0Preconditioner::Ilu0Preconditioner(const Csr &m)
    : factors(m)
{
    if (m.rows() != m.cols())
        fatal("Ilu0Preconditioner: matrix must be square");
    const std::int32_t n = factors.rows();
    const auto rowPtr = factors.rowPtr();
    const auto colIdx = factors.colIndex();
    auto vals = factors.values();

    // Position of (i, i) per row, and a column->position scatter
    // index reused across rows.
    std::vector<std::int32_t> diagPos(static_cast<std::size_t>(n),
                                      -1);
    std::vector<std::int32_t> scatter(static_cast<std::size_t>(n),
                                      -1);
    for (std::int32_t i = 0; i < n; ++i) {
        for (std::int32_t p = rowPtr[i]; p < rowPtr[i + 1]; ++p) {
            if (colIdx[p] == i)
                diagPos[static_cast<std::size_t>(i)] = p;
        }
        if (diagPos[static_cast<std::size_t>(i)] < 0)
            fatal("Ilu0Preconditioner: missing diagonal at row ", i);
    }

    for (std::int32_t i = 0; i < n; ++i) {
        // Scatter row i's positions.
        for (std::int32_t p = rowPtr[i]; p < rowPtr[i + 1]; ++p)
            scatter[static_cast<std::size_t>(colIdx[p])] = p;

        for (std::int32_t p = rowPtr[i]; p < rowPtr[i + 1]; ++p) {
            const std::int32_t k = colIdx[p];
            if (k >= i)
                break; // columns are sorted; strict lower part done
            const double ukk =
                vals[static_cast<std::size_t>(
                    diagPos[static_cast<std::size_t>(k)])];
            if (ukk == 0.0)
                fatal("Ilu0Preconditioner: zero pivot at row ", k);
            const double lik = vals[static_cast<std::size_t>(p)] /
                               ukk;
            vals[static_cast<std::size_t>(p)] = lik;
            // Update the remainder of row i against row k's upper
            // part, restricted to row i's pattern (zero fill-in).
            for (std::int32_t q =
                     diagPos[static_cast<std::size_t>(k)] + 1;
                 q < rowPtr[k + 1]; ++q) {
                const std::int32_t j = colIdx[q];
                const std::int32_t pos =
                    scatter[static_cast<std::size_t>(j)];
                if (pos >= 0) {
                    vals[static_cast<std::size_t>(pos)] -=
                        lik * vals[static_cast<std::size_t>(q)];
                }
            }
        }

        // Clear the scatter index.
        for (std::int32_t p = rowPtr[i]; p < rowPtr[i + 1]; ++p)
            scatter[static_cast<std::size_t>(colIdx[p])] = -1;
    }

    invDiagU.resize(static_cast<std::size_t>(n));
    for (std::int32_t i = 0; i < n; ++i) {
        const double uii = vals[static_cast<std::size_t>(
            diagPos[static_cast<std::size_t>(i)])];
        if (uii == 0.0)
            fatal("Ilu0Preconditioner: singular U at row ", i);
        invDiagU[static_cast<std::size_t>(i)] = 1.0 / uii;
    }
}

void
Ilu0Preconditioner::apply(std::span<const double> r,
                          std::span<double> z) const
{
    const std::int32_t n = factors.rows();
    if (r.size() != static_cast<std::size_t>(n) ||
        z.size() != static_cast<std::size_t>(n))
        fatal("Ilu0Preconditioner: size mismatch");

    // Forward: L y = r (L has implicit unit diagonal).
    for (std::int32_t i = 0; i < n; ++i) {
        double acc = r[static_cast<std::size_t>(i)];
        const auto cols = factors.rowCols(i);
        const auto vals = factors.rowVals(i);
        for (std::size_t p = 0; p < cols.size(); ++p) {
            if (cols[p] >= i)
                break;
            acc -= vals[p] * z[static_cast<std::size_t>(cols[p])];
        }
        z[static_cast<std::size_t>(i)] = acc;
    }
    // Backward: U z = y.
    for (std::int32_t i = n; i-- > 0;) {
        double acc = z[static_cast<std::size_t>(i)];
        const auto cols = factors.rowCols(i);
        const auto vals = factors.rowVals(i);
        for (std::size_t p = cols.size(); p-- > 0;) {
            if (cols[p] <= i)
                break;
            acc -= vals[p] * z[static_cast<std::size_t>(cols[p])];
        }
        z[static_cast<std::size_t>(i)] =
            acc * invDiagU[static_cast<std::size_t>(i)];
    }
}

SolverResult
preconditionedCg(LinearOperator &a, const Preconditioner &m,
                 std::span<const double> b, std::span<double> x,
                 const SolverConfig &cfg)
{
    if (a.rows() != a.cols())
        fatal("preconditionedCg: operator must be square");
    if (b.size() != static_cast<std::size_t>(a.rows()) ||
        x.size() != b.size())
        fatal("preconditionedCg: dimension mismatch");

    const std::size_t n = b.size();
    SolverResult res;
    res.vectorLength = n;

    std::vector<double> r(n), z(n), p(n), ap(n);
    ExecBinding bind(a, cfg.exec);
    SolveStatus stop = SolveStatus::MaxIterations;
    bool interrupted = false;
    double bNorm = 0.0;
    double rNorm = 0.0;
    try {
        execCheckpoint(cfg.exec);
        a.apply(x, r);
        ++res.spmvCalls;
        for (std::size_t i = 0; i < n; ++i)
            r[i] = b[i] - r[i];

        bNorm = norm2(b);
        ++res.dotCalls;
        if (bNorm == 0.0) {
            std::fill(x.begin(), x.end(), 0.0);
            res.converged = true;
            res.status = SolveStatus::Converged;
            return res;
        }

        m.apply(r, z);
        ++res.precondApplies;
        p = z;
        double rz = dot(r, z);
        ++res.dotCalls;

        rNorm = norm2(r);
        ++res.dotCalls;
        for (int it = 0; it < cfg.maxIterations; ++it) {
            if (rNorm / bNorm <= cfg.tolerance) {
                res.converged = true;
                break;
            }
            execCheckpoint(cfg.exec);
            a.apply(p, ap);
            ++res.spmvCalls;
            const double pap = dot(p, ap);
            ++res.dotCalls;
            if (pap <= 0.0) {
                warn("PCG: operator or preconditioner not SPD (p'Ap = ",
                     pap, ")");
                stop = SolveStatus::Breakdown;
                break;
            }
            const double alpha = rz / pap;
            axpy(alpha, p, x);
            axpy(-alpha, ap, r);
            res.axpyCalls += 2;
            m.apply(r, z);
            ++res.precondApplies;
            const double rzNew = dot(r, z);
            ++res.dotCalls;
            const double beta = rzNew / rz;
            for (std::size_t i = 0; i < n; ++i)
                p[i] = z[i] + beta * p[i];
            ++res.axpyCalls;
            rz = rzNew;
            rNorm = norm2(r);
            ++res.dotCalls;
            ++res.iterations;
        }
    } catch (const CancelledError &e) {
        // x moves only through the serial axpy, after the apply, so
        // it holds the last completed iterate.
        stop = e.status();
        interrupted = true;
    }
    if (interrupted) {
        res.relResidual = (bNorm > 0.0 && rNorm > 0.0)
                              ? rNorm / bNorm
                              : 1.0;
        res.status = stop;
        return res;
    }
    res.relResidual = rNorm / bNorm;
    res.converged = res.relResidual <= cfg.tolerance;
    res.status = res.converged ? SolveStatus::Converged : stop;
    return res;
}

} // namespace msc
