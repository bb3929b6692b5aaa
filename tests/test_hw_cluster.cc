/**
 * @file
 * Tests for the hardware-faithful cluster: equivalence with the
 * functional model and the exact-dot oracle, and fault injection
 * through the AN error-correction path (Section IV-E).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "cluster/hw_cluster.hh"
#include "util/random.hh"

namespace msc {
namespace {

MatrixBlock
randomBlock(Rng &rng, unsigned size, double density, int expSpread)
{
    MatrixBlock b;
    b.size = size;
    for (unsigned r = 0; r < size; ++r) {
        for (unsigned c = 0; c < size; ++c) {
            if (!rng.chance(density))
                continue;
            b.elems.push_back(
                {static_cast<std::int32_t>(r),
                 static_cast<std::int32_t>(c),
                 std::ldexp(rng.uniform(1.0, 2.0),
                            static_cast<int>(rng.range(0,
                                                       expSpread))) *
                     (rng.chance(0.5) ? -1.0 : 1.0)});
        }
    }
    return b;
}

std::vector<double>
randomVector(Rng &rng, unsigned size, int expSpread)
{
    std::vector<double> x(size);
    for (auto &v : x) {
        v = rng.chance(0.1)
            ? 0.0
            : std::ldexp(rng.uniform(1.0, 2.0),
                         static_cast<int>(rng.range(0, expSpread))) *
                  (rng.chance(0.5) ? -1.0 : 1.0);
    }
    return x;
}

void
oracle(const MatrixBlock &b, const std::vector<double> &x,
       RoundingMode mode, std::vector<double> &out)
{
    out.assign(b.size, 0.0);
    for (unsigned i = 0; i < b.size; ++i) {
        std::vector<double> ar, xr;
        for (const auto &el : b.elems) {
            if (el.row == static_cast<std::int32_t>(i)) {
                ar.push_back(el.val);
                xr.push_back(x[static_cast<std::size_t>(el.col)]);
            }
        }
        if (!ar.empty())
            out[i] = exactDot(ar.data(), xr.data(), ar.size(), mode);
    }
}

TEST(HwCluster, MatchesOracleOnCleanHardware)
{
    Rng rng(701);
    HwCluster::Config cfg;
    cfg.size = 16;
    HwCluster hw(cfg);
    for (int trial = 0; trial < 5; ++trial) {
        const MatrixBlock b = randomBlock(rng, 16, 0.4, 16);
        hw.program(b);
        const auto x = randomVector(rng, 16, 16);
        std::vector<double> y(16), ref;
        const HwClusterStats stats = hw.multiply(x, y);
        oracle(b, x, cfg.rounding, ref);
        for (unsigned i = 0; i < 16; ++i)
            EXPECT_EQ(y[i], ref[i]) << "row " << i;
        EXPECT_EQ(stats.correctedWords, 0u);
        EXPECT_EQ(stats.uncorrectableWords, 0u);
        EXPECT_GT(stats.sliceWords, 0u);
    }
}

TEST(HwCluster, MatchesFunctionalClusterModel)
{
    Rng rng(709);
    HwCluster::Config hwCfg;
    hwCfg.size = 16;
    HwCluster hw(hwCfg);
    ClusterConfig fnCfg;
    fnCfg.size = 16;
    Cluster fn(fnCfg);
    for (int trial = 0; trial < 5; ++trial) {
        const MatrixBlock b = randomBlock(rng, 16, 0.5, 24);
        hw.program(b);
        fn.program(b);
        const auto x = randomVector(rng, 16, 24);
        std::vector<double> yHw(16), yFn(16);
        hw.multiply(x, yHw);
        fn.multiply(x, yFn);
        for (unsigned i = 0; i < 16; ++i)
            EXPECT_EQ(yHw[i], yFn[i]) << "row " << i;
    }
}

TEST(HwCluster, AnalogReadsWithIdealCellsStayExact)
{
    Rng rng(719);
    HwCluster::Config cfg;
    cfg.size = 16;
    cfg.analogReads = true; // ideal CellParams: no noise, tiny leak
    HwCluster hw(cfg);
    const MatrixBlock b = randomBlock(rng, 16, 0.4, 10);
    hw.program(b);
    const auto x = randomVector(rng, 16, 10);
    std::vector<double> y(16), ref;
    Rng noise(1);
    hw.multiply(x, y, &noise);
    oracle(b, x, cfg.rounding, ref);
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(y[i], ref[i]);
}

TEST(HwCluster, SingleStuckCellIsCorrected)
{
    Rng rng(727);
    HwCluster::Config cfg;
    cfg.size = 16;
    HwCluster hw(cfg);
    const MatrixBlock b = randomBlock(rng, 16, 0.5, 12);
    const auto x = randomVector(rng, 16, 12);
    std::vector<double> ref;
    oracle(b, x, cfg.rounding, ref);

    for (unsigned slice : {0u, 5u, 33u, 60u}) {
        hw.program(b);
        // Flip one stored bit somewhere in the middle of the array.
        hw.flipCell(slice, 7, 3);
        std::vector<double> y(16);
        const HwClusterStats stats = hw.multiply(x, y);
        // The flip corrupts one conversion per applied vector slice
        // in which row 3 participates; every corrupted word must be
        // corrected and the results stay bit-exact.
        EXPECT_EQ(stats.uncorrectableWords, 0u) << "slice " << slice;
        for (unsigned i = 0; i < 16; ++i)
            EXPECT_EQ(y[i], ref[i])
                << "slice " << slice << " row " << i;
    }
}

TEST(HwCluster, StuckCellChangesResultWithoutAnCode)
{
    Rng rng(733);
    HwCluster::Config cfg;
    cfg.size = 16;
    cfg.anProtect = false;
    HwCluster hw(cfg);
    const MatrixBlock b = randomBlock(rng, 16, 0.6, 12);
    const auto x = randomVector(rng, 16, 12);
    std::vector<double> ref;
    oracle(b, x, cfg.rounding, ref);

    hw.program(b);
    // Flip a HIGH-significance stored bit of row 3.
    hw.flipCell(60, 3, 5);
    std::vector<double> y(16);
    hw.multiply(x, y);
    // Without protection the corrupted row is wrong (x[5] != 0 with
    // overwhelming probability given the generator).
    EXPECT_NE(y[3], ref[3]);
    // Other rows are untouched.
    for (unsigned i = 0; i < 16; ++i) {
        if (i != 3) {
            EXPECT_EQ(y[i], ref[i]) << "row " << i;
        }
    }
}

TEST(HwCluster, TwoFaultsInOneWordAreFlagged)
{
    Rng rng(739);
    HwCluster::Config cfg;
    cfg.size = 16;
    HwCluster hw(cfg);
    const MatrixBlock b = randomBlock(rng, 16, 0.7, 8);
    const auto x = randomVector(rng, 16, 8);

    hw.program(b);
    // Two flips in the same output column (same reduced word).
    hw.flipCell(10, 4, 2);
    hw.flipCell(41, 4, 9);
    std::vector<double> y(16);
    const HwClusterStats stats = hw.multiply(x, y);
    // Whenever both faulty inputs are activated by the same slice,
    // the word has a double error: not silently accepted.
    EXPECT_GT(stats.uncorrectableWords + stats.correctedWords, 0u);
}

TEST(HwCluster, FaultsInDifferentOutputsBothCorrected)
{
    Rng rng(743);
    HwCluster::Config cfg;
    cfg.size = 16;
    HwCluster hw(cfg);
    const MatrixBlock b = randomBlock(rng, 16, 0.5, 10);
    const auto x = randomVector(rng, 16, 10);
    std::vector<double> ref;
    oracle(b, x, cfg.rounding, ref);

    hw.program(b);
    hw.flipCell(12, 2, 6);  // output row 2
    hw.flipCell(30, 11, 6); // output row 11: separate reduced words
    std::vector<double> y(16);
    const HwClusterStats stats = hw.multiply(x, y);
    EXPECT_EQ(stats.uncorrectableWords, 0u);
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(y[i], ref[i]) << "row " << i;
}

TEST(HwCluster, CicReportsInvertedColumns)
{
    // A dense all-positive block drives CIC inversions.
    Rng rng(751);
    HwCluster::Config cfg;
    cfg.size = 16;
    HwCluster hw(cfg);
    MatrixBlock b;
    b.size = 16;
    for (std::int32_t r = 0; r < 16; ++r)
        for (std::int32_t c = 0; c < 16; ++c)
            b.elems.push_back({r, c, rng.uniform(1.0, 2.0)});
    hw.program(b);
    const auto x = randomVector(rng, 16, 4);
    std::vector<double> y(16), ref;
    const HwClusterStats stats = hw.multiply(x, y);
    oracle(b, x, cfg.rounding, ref);
    EXPECT_GT(stats.cicInvertedColumns, 0u);
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(y[i], ref[i]) << "row " << i;
}

TEST(HwCluster, Misuse)
{
    HwCluster::Config cfg;
    cfg.size = 8;
    HwCluster hw(cfg);
    std::vector<double> x(8), y(8);
    EXPECT_THROW(hw.multiply(x, y), FatalError);
    MatrixBlock big;
    big.size = 16;
    EXPECT_THROW(hw.program(big), FatalError);
    MatrixBlock ok;
    ok.size = 8;
    ok.elems = {{0, 0, 1.0}};
    hw.program(ok);
    EXPECT_THROW(hw.flipCell(200, 0, 0), FatalError);
}

} // namespace
} // namespace msc
