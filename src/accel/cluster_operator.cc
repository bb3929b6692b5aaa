#include "accel/cluster_operator.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/telemetry.hh"
#include "util/threadpool.hh"

namespace msc {

namespace {

// Scheduling and early-termination tallies, folded from the
// per-block ClusterStats inside the fixed-order reduction so the
// totals are deterministic across lane counts.
constinit telemetry::Counter
    ctrGroupsExecuted{"cluster.groups_executed"};
constinit telemetry::Counter
    ctrGroupsTotal{"cluster.groups_total"};
constinit telemetry::Counter
    ctrEarlyTerminated{"cluster.columns_early_terminated"};
constinit telemetry::Counter
    ctrConversionsSkipped{"cluster.conversions_skipped"};
constinit telemetry::Counter
    ctrPeeledElements{"cluster.peeled_vector_elements"};
constinit telemetry::Counter ctrApplies{"cluster.applies"};
constinit telemetry::Counter
    ctrXbarActivations{"cluster.xbar_activations"};
constinit telemetry::Counter
    ctrAdcConversions{"cluster.adc_conversions"};

} // namespace

ClusterArithmeticOperator::ClusterArithmeticOperator(
    const Csr &m, const BlockingConfig &blocking,
    const ClusterConfig &base)
    : mat(&m), plan(planBlocks(m, blocking))
{
    programClusters(base);
}

ClusterArithmeticOperator::ClusterArithmeticOperator(
    const Csr &m, BlockPlan precomputed, const ClusterConfig &base)
    : mat(&m), plan(std::move(precomputed))
{
    if (plan.rows != m.rows() || plan.cols != m.cols())
        fatal("ClusterArithmeticOperator: precomputed plan "
              "dimensions disagree with the matrix");
    programClusters(base);
}

void
ClusterArithmeticOperator::programClusters(const ClusterConfig &base)
{
    // Fewer blocks than pool lanes: give each block one cluster per
    // lane the blocks leave idle, so applyBatch can split a panel's
    // columns across them (per-cluster scratch is not re-entrant).
    // The copies are made here, so the footprint is fixed once the
    // operator is built.
    const std::size_t nb = plan.blocks.size();
    const unsigned lanes =
        ThreadPool::inParallelSection() ? 1 : globalThreads();
    replicas = nb == 0 || nb >= lanes
        ? 1
        : lanes / static_cast<unsigned>(nb);
    clusters.resize(nb * replicas);
    for (std::size_t bi = 0; bi < nb; ++bi) {
        ClusterConfig cfg = base;
        cfg.size = plan.blocks[bi].size;
        clusters[bi * replicas] = std::make_unique<Cluster>(cfg);
    }
    // Programming is embarrassingly parallel: one task per block,
    // no shared state.
    parallelFor(nb, [&](std::size_t bi) {
        Cluster &programmed = *clusters[bi * replicas];
        programmed.program(plan.blocks[bi]);
        for (unsigned j = 1; j < replicas; ++j) {
            clusters[bi * replicas + j] =
                std::make_unique<Cluster>(programmed);
        }
    });
}

void
ClusterArithmeticOperator::apply(std::span<const double> x,
                                 std::span<double> y)
{
    applyBatch(x, y, 1);
}

void
ClusterArithmeticOperator::reduceBlock(
    const MatrixBlock &block, const ClusterStats &s,
    const double *yLocal, const std::vector<std::int32_t> &peeled,
    std::vector<std::uint8_t> &peeledMask, std::span<const double> x,
    std::span<double> y)
{
    aggregate.groupsExecuted += s.groupsExecuted;
    aggregate.groupsTotal += s.groupsTotal;
    aggregate.xbarActivations += s.xbarActivations;
    aggregate.adcConversions += s.adcConversions;
    aggregate.conversionsSkipped += s.conversionsSkipped;
    aggregate.columnsEarlyTerminated += s.columnsEarlyTerminated;
    aggregate.peeledVectorElements += s.peeledVectorElements;
    aggregate.energy += s.energy;
    aggregate.latency += s.latency;

    ctrGroupsExecuted.add(s.groupsExecuted);
    ctrGroupsTotal.add(s.groupsTotal);
    ctrXbarActivations.add(s.xbarActivations);
    ctrAdcConversions.add(s.adcConversions);
    ctrEarlyTerminated.add(s.columnsEarlyTerminated);
    ctrConversionsSkipped.add(s.conversionsSkipped);
    ctrPeeledElements.add(s.peeledVectorElements);

    for (unsigned i = 0; i < block.size; ++i) {
        const std::int64_t row = block.rowOrigin + i;
        if (row < mat->rows())
            y[static_cast<std::size_t>(row)] += yLocal[i];
    }
    // Columns whose vector exponents fell outside the alignment
    // window: their contributions were not computed in-situ; the
    // local processor adds them digitally (Section VI-A1). A
    // column bitmap turns the scan into a single pass over the
    // block's elements.
    if (!peeled.empty()) {
        peeledMask.assign(block.size, 0);
        for (std::int32_t pj : peeled)
            peeledMask[static_cast<std::size_t>(pj)] = 1;
        for (const Triplet &el : block.elems) {
            if (!peeledMask[static_cast<std::size_t>(el.col)])
                continue;
            y[static_cast<std::size_t>(block.rowOrigin + el.row)] +=
                el.val *
                x[static_cast<std::size_t>(block.colOrigin +
                                           el.col)];
        }
    }
}

void
ClusterArithmeticOperator::applyBatch(std::span<const double> X,
                                      std::span<double> Y,
                                      unsigned k)
{
    const auto nc = static_cast<std::size_t>(mat->cols());
    const auto nr = static_cast<std::size_t>(mat->rows());
    if (k == 0)
        fatal("ClusterArithmeticOperator: empty batch");
    if (X.size() != nc * k || Y.size() != nr * k)
        fatal("ClusterArithmeticOperator: panel size mismatch");

    telemetry::Span span("cluster.apply");
    ctrApplies.add(k);

    // Local-processor part, per column in column order.
    for (unsigned c = 0; c < k; ++c) {
        plan.unblocked.spmv(X.subspan(c * nc, nc),
                            Y.subspan(c * nr, nr));
    }

    // Fan the panel multiplies across the pool: one task per block
    // and column chunk. A panel over fewer blocks than lanes splits
    // its columns into up to `replicas` contiguous chunks, chunk j of
    // block bi running on clusters[bi * replicas + j]. Columns are
    // independent inside the kernel, so the split moves no bits.
    // Every task writes only its own scratch slot. The execution
    // context is polled per task batch: a cancel mid-apply abandons
    // the remaining tasks before the reduction below ever runs.
    const std::size_t nb = plan.blocks.size();
    const unsigned chunks = std::min(k, replicas);
    const auto chunkBegin = [&](unsigned j) { return j * k / chunks; };
    scratch.resize(nb * chunks);
    parallelFor(
        nb * chunks,
        [&](std::size_t t) {
        telemetry::Span blockSpan("cluster.block");
        const std::size_t bi = t / chunks;
        const auto j = static_cast<unsigned>(t % chunks);
        const unsigned c0 = chunkBegin(j);
        const unsigned kc = chunkBegin(j + 1) - c0;
        const MatrixBlock &block = plan.blocks[bi];
        BlockScratch &sc = scratch[t];
        sc.xLocal.assign(static_cast<std::size_t>(block.size) * kc,
                         0.0);
        for (unsigned c = 0; c < kc; ++c) {
            for (unsigned jj = 0; jj < block.size; ++jj) {
                const std::int64_t col = block.colOrigin + jj;
                if (col < mat->cols()) {
                    sc.xLocal[static_cast<std::size_t>(c) *
                                  block.size + jj] =
                        X[(c0 + c) * nc +
                          static_cast<std::size_t>(col)];
                }
            }
        }
        sc.yLocal.assign(static_cast<std::size_t>(block.size) * kc,
                         0.0);
        clusters[bi * replicas + j]->multiply(
            std::span<const double>(sc.xLocal),
            std::span<double>(sc.yLocal), kc, &sc.peeledCols,
            &sc.colStats);
        },
        1, exec);

    // Deterministic reduction in (column, block) order: y and the
    // aggregate stats (floating-point sums included) are bitwise
    // what k single-vector applies fold, for any lane count. Chunks
    // are contiguous, so walking them in order visits the columns in
    // order.
    for (unsigned j = 0; j < chunks; ++j) {
        for (unsigned c = chunkBegin(j); c < chunkBegin(j + 1); ++c) {
            const unsigned off = c - chunkBegin(j);
            const std::span<const double> xc = X.subspan(c * nc, nc);
            const std::span<double> yc = Y.subspan(c * nr, nr);
            for (std::size_t bi = 0; bi < nb; ++bi) {
                const MatrixBlock &block = plan.blocks[bi];
                BlockScratch &sc = scratch[bi * chunks + j];
                reduceBlock(block, sc.colStats[off],
                            sc.yLocal.data() +
                                static_cast<std::size_t>(off) *
                                    block.size,
                            sc.peeledCols[off], sc.peeledMask, xc, yc);
            }
        }
    }
}

} // namespace msc
