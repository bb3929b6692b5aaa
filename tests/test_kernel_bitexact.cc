/**
 * @file
 * Bit-exactness lock for the optimized cluster MVM kernels.
 *
 * The slice-group kernels in Cluster::multiply and the
 * allocation-free dataflow in HwCluster::multiply are rewrites of a
 * straight-line original. That original is retained here, verbatim,
 * as RefCluster / RefHwCluster: element-at-a-time masking, per-row
 * segment mask reconstruction, vector<uint8_t> level buffers -- every
 * constant factor the optimized kernels remove. The suite drives both
 * implementations across the full configuration cross product
 * (schedule x rounding x AN x early termination x CIC x headstart x
 * precision target) and asserts bitwise-equal outputs and identical
 * statistics, including the floating-point energy accumulations,
 * which the optimized kernels must reproduce add-for-add.
 *
 * Each model has one kernel, the panel multiply; a single vector is
 * its k = 1 case. The full sweeps therefore also run a 3-column
 * panel per configuration against sequential reference calls, so
 * k > 1 has an oracle other than the kernel itself.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "ancode/ancode.hh"
#include "cluster/cluster.hh"
#include "cluster/hw_cluster.hh"
#include "cluster/schedule.hh"
#include "device/cell.hh"
#include "fixedpoint/align.hh"
#include "fp/float64.hh"
#include "util/random.hh"
#include "xbar/crossbar.hh"
#include "xbar/model.hh"

namespace msc {
namespace {

unsigned
refBitsFor(unsigned n)
{
    unsigned bits = 0;
    while ((1ull << bits) < n + 1ull)
        ++bits;
    return bits;
}

struct RefSignedAcc
{
    bool neg = false;
    U256 mag;

    void
    add(bool vNeg, const U256 &v)
    {
        if (vNeg == neg) {
            mag += v;
        } else if (mag >= v) {
            mag -= v;
        } else {
            mag = v - mag;
            neg = vNeg;
        }
        if (mag.isZero())
            neg = false;
    }
};

/**
 * Straight-line fork of the pre-optimization Cluster (program +
 * multiply), kept as the reference semantics of the Section IV
 * dataflow. Uses only the public helper layers (align, AN code,
 * schedule, xbar model), so it shares no kernel code with the
 * optimized implementation under test.
 */
class RefCluster
{
  public:
    explicit RefCluster(const ClusterConfig &config)
        : cfg(config), xbarModel(config.size, config.xbar, config.cic),
          an(config.anConstant, fxp::operandBits)
    {}

    struct Element
    {
        std::int32_t col = 0;
        U256 stored;
        U128 mag;
        bool neg = false;
    };

    ClusterProgramInfo
    program(const MatrixBlock &block)
    {
        blockSize = block.size;
        std::vector<double> vals;
        vals.reserve(block.elems.size());
        for (const auto &t : block.elems)
            vals.push_back(t.val);

        const AlignedSet aligned = alignValues(vals);
        const BiasedSet biased = biasEncode(aligned);
        blockScale = aligned.scale;
        storedBits = biased.width();
        storedBias = cfg.anProtect ? an.encode(biased.bias())
                                   : U256::from(biased.bias());

        rowsElems.assign(blockSize, {});
        rowSumF.assign(blockSize, {});
        encodedBits = storedBias.bitLength();
        for (std::size_t e = 0; e < block.elems.size(); ++e) {
            const Triplet &t = block.elems[e];
            Element el;
            el.col = t.col;
            el.mag = aligned.mag[e];
            el.neg = aligned.neg[e] != 0;
            el.stored = cfg.anProtect ? an.encode(biased.stored[e])
                                      : U256::from(biased.stored[e]);
            encodedBits = std::max(encodedBits, el.stored.bitLength());
            rowsElems[static_cast<std::size_t>(t.row)].push_back(el);
            rowSumF[static_cast<std::size_t>(t.row)]
                .add(el.neg, U256::from(el.mag));
        }

        sliceOnes.assign(encodedBits,
                         std::vector<std::uint16_t>(blockSize, 0));
        progInfo = ClusterProgramInfo{};
        std::uint64_t setBits = 0;
        for (unsigned i = 0; i < blockSize; ++i) {
            const auto zeroCells = static_cast<std::uint32_t>(
                blockSize - rowsElems[i].size());
            for (unsigned b = 0; b < encodedBits; ++b) {
                std::uint32_t ones = 0;
                if (storedBias.bit(b))
                    ones += zeroCells;
                for (const Element &el : rowsElems[i])
                    ones += el.stored.bit(b) ? 1 : 0;
                if (2 * ones > blockSize) {
                    ++progInfo.cicInvertedColumns;
                    ones = blockSize - ones;
                } else if (2 * ones == blockSize && ones != 0) {
                    ++progInfo.cicCornerCases;
                }
                sliceOnes[b][i] = static_cast<std::uint16_t>(ones);
                setBits += ones;
            }
        }

        progInfo.matrixSlices = encodedBits;
        progInfo.storedBits = storedBits;
        progInfo.scale = blockScale;
        progInfo.cellsWritten = setBits;
        progInfo.programTime = encodedBits * xbarModel.programTime();
        progInfo.programEnergy = xbarModel.programEnergy(setBits);
        return progInfo;
    }

    static bool
    settled(const U256 &mag, int bound, unsigned prec)
    {
        const int len = static_cast<int>(mag.bitLength());
        const int wb = len - static_cast<int>(prec);
        if (wb <= bound + 1)
            return false;
        bool sawZero = false;
        bool sawOne = false;
        const int lo = std::max(bound + 1, 0);
        for (int p = lo; p < wb; ++p) {
            if (mag.bit(static_cast<unsigned>(p)))
                sawOne = true;
            else
                sawZero = true;
            if (sawZero && sawOne)
                return true;
        }
        return false;
    }

    double
    convert(const RefSignedAcc &acc, int scale, bool exact) const
    {
        U256 mag = acc.mag;
        if (cfg.anProtect)
            mag.divSmall(cfg.anConstant);
        if (exact) {
            return fixedToDouble(acc.neg, mag, scale, cfg.rounding,
                                 cfg.targetMantissaBits);
        }
        const unsigned prec = cfg.targetMantissaBits + 3;
        const unsigned len = mag.bitLength();
        const unsigned wb = len - prec;
        U256 head = mag >> wb;
        U256 synth = head << wb;
        synth.setBit(wb - 1);
        return fixedToDouble(acc.neg, synth, scale, cfg.rounding,
                             cfg.targetMantissaBits);
    }

    ClusterStats
    multiply(std::span<const double> x, std::span<double> y)
    {
        ClusterStats stats;

        std::vector<double> masked(x.begin(), x.end());
        // (The exponent-window peel is omitted: the suite feeds
        // vectors within the 64-exponent window, mirroring the
        // blocking preprocessor's guarantee.)

        const AlignedSet vx = alignValues(masked);
        const BiasedSet ux = biasEncode(vx);
        const unsigned vecBits = ux.width();
        const int outScale = blockScale + vx.scale;

        const ActivationSchedule schedule(encodedBits, vecBits,
                                          cfg.schedule, cfg.hybridSkew);
        stats.matrixSlices = encodedBits;
        stats.vectorSlices = vecBits;
        stats.groupsTotal = schedule.groups().size();

        std::vector<RefSignedAcc> acc(blockSize);
        std::vector<std::uint8_t> done(blockSize, 0);
        std::size_t alive = 0;
        for (unsigned i = 0; i < blockSize; ++i) {
            if (rowsElems[i].empty()) {
                done[i] = 1;
                y[i] = 0.0;
                ++stats.emptyColumns;
                continue;
            }
            ++alive;
            U256 init = rowSumF[i].mag << (ux.biasBits);
            if (cfg.anProtect)
                init.mulSmall(cfg.anConstant);
            acc[i].neg = !rowSumF[i].neg;
            acc[i].mag = init;
            if (init.isZero())
                acc[i].neg = false;
        }

        const unsigned nBits = refBitsFor(blockSize);
        const int anShift = cfg.anProtect
            ? static_cast<int>(an.codeBits() - an.dataBits() - 1) : 0;

        const auto &groups = schedule.groups();
        for (std::size_t g = 0; g < groups.size() && alive > 0; ++g) {
            const ScheduleGroup &group = groups[g];
            ++stats.groupsExecuted;
            stats.xbarActivations += group.activations();

            stats.adcConversions +=
                static_cast<std::uint64_t>(group.activations()) *
                alive;
            stats.conversionsSkipped +=
                static_cast<std::uint64_t>(group.activations()) *
                (blockSize - alive);

            stats.arrayEnergy +=
                group.activations() * xbarModel.arrayOpEnergy();
            for (const auto &seg : group.segments) {
                for (unsigned b = seg.bLo; b <= seg.bHi; ++b) {
                    for (unsigned i = 0; i < blockSize; ++i) {
                        if (done[i])
                            continue;
                        const unsigned start = cfg.adcHeadstart
                            ? refBitsFor(sliceOnes[b][i])
                            : xbarModel.adcResolutionBits();
                        stats.adcEnergy +=
                            xbarModel.conversionEnergy(start);
                    }
                }
            }

            for (unsigned i = 0; i < blockSize; ++i) {
                if (done[i])
                    continue;
                for (const auto &seg : group.segments) {
                    U256 mask;
                    for (unsigned b = seg.bLo; b <= seg.bHi; ++b)
                        mask.setBit(b);
                    const U256 biasPart = storedBias & mask;
                    for (const Element &el : rowsElems[i]) {
                        if (!ux.stored[static_cast<std::size_t>(
                                           el.col)]
                                 .bit(seg.k))
                            continue;
                        const U256 val = el.stored & mask;
                        if (val >= biasPart) {
                            acc[i].add(false,
                                       (val - biasPart) << seg.k);
                        } else {
                            acc[i].add(true,
                                       (biasPart - val) << seg.k);
                        }
                    }
                }
            }

            if (!cfg.earlyTermination)
                continue;
            const int remSig = schedule.maxRemainingSignificance(g);
            if (remSig < 0)
                break;
            const int sigCellBits = static_cast<int>(
                refBitsFor(std::min(encodedBits, vecBits)));
            const int bound = remSig + static_cast<int>(nBits) +
                              sigCellBits + 2;
            for (unsigned i = 0; i < blockSize; ++i) {
                if (done[i])
                    continue;
                U256 decoded = acc[i].mag;
                int boundDec = bound;
                if (cfg.anProtect) {
                    decoded.divSmall(cfg.anConstant);
                    boundDec = bound - anShift + 2;
                }
                if (settled(decoded, boundDec,
                            cfg.targetMantissaBits + 3)) {
                    done[i] = 1;
                    --alive;
                    ++stats.columnsEarlyTerminated;
                    y[i] = convert(acc[i], outScale, false);
                }
            }
        }

        for (unsigned i = 0; i < blockSize; ++i) {
            if (!done[i])
                y[i] = convert(acc[i], outScale, true);
        }

        stats.cycles = stats.groupsExecuted * cfg.size + 12;
        stats.latency = static_cast<double>(stats.cycles) /
                        cfg.xbar.fClkHz;
        stats.energy = stats.arrayEnergy + stats.adcEnergy;
        return stats;
    }

    ClusterConfig cfg;
    XbarModel xbarModel;
    AnCode an;
    unsigned blockSize = 0;
    int blockScale = 0;
    unsigned storedBits = 0;
    unsigned encodedBits = 0;
    U256 storedBias;
    ClusterProgramInfo progInfo;
    std::vector<std::vector<Element>> rowsElems;
    std::vector<RefSignedAcc> rowSumF;
    std::vector<std::vector<std::uint16_t>> sliceOnes;
};

/**
 * Straight-line fork of the pre-optimization HwCluster: per-read
 * level-buffer allocation, per-(row, slice) bias term recomputation,
 * sequential row scan. Noise streams are split exactly like the
 * parallel implementation (one child generator per row, in row
 * order), so noisy runs compare bit-for-bit too.
 */
class RefHwCluster
{
  public:
    explicit RefHwCluster(const HwCluster::Config &config)
        : cfg(config), an(config.anConstant, fxp::operandBits)
    {}

    void
    program(const MatrixBlock &block)
    {
        blockSize = block.size;
        std::vector<double> vals;
        vals.reserve(block.elems.size());
        for (const auto &t : block.elems)
            vals.push_back(t.val);
        const AlignedSet aligned = alignValues(vals);
        const BiasedSet biased = biasEncode(aligned);
        blockScale = aligned.scale;
        storedBias = cfg.anProtect ? an.encode(biased.bias())
                                   : U256::from(biased.bias());

        std::vector<U256> stored(
            static_cast<std::size_t>(blockSize) * blockSize,
            storedBias);
        rowSumF.assign(blockSize, {});
        nSlices = storedBias.bitLength();
        for (std::size_t e = 0; e < block.elems.size(); ++e) {
            const Triplet &t = block.elems[e];
            const U256 word = cfg.anProtect
                ? an.encode(biased.stored[e])
                : U256::from(biased.stored[e]);
            stored[static_cast<std::size_t>(t.row) * blockSize +
                   static_cast<std::size_t>(t.col)] = word;
            nSlices = std::max(nSlices, word.bitLength());
            rowSumF[static_cast<std::size_t>(t.row)].add(
                aligned.neg[e] != 0, U256::from(aligned.mag[e]));
        }

        slices.assign(nSlices, BinaryCrossbar(blockSize, blockSize));
        for (unsigned i = 0; i < blockSize; ++i) {
            for (unsigned j = 0; j < blockSize; ++j) {
                const U256 &word =
                    stored[static_cast<std::size_t>(i) * blockSize +
                           j];
                for (unsigned b = 0; b < nSlices; ++b) {
                    if (word.bit(b))
                        slices[b].set(j, i);
                }
            }
        }
        if (cfg.cic) {
            for (auto &xbar : slices)
                xbar.applyCic();
        }
    }

    HwClusterStats
    multiply(std::span<const double> x, std::span<double> y,
             Rng *rng = nullptr)
    {
        HwClusterStats stats;
        for (const auto &xbar : slices) {
            for (unsigned i = 0; i < blockSize; ++i)
                stats.cicInvertedColumns +=
                    xbar.columnInverted(i) ? 1 : 0;
        }

        const AlignedSet vx = alignValues(
            std::vector<double>(x.begin(), x.end()));
        const BiasedSet ux = biasEncode(vx);
        const unsigned vecSlices = ux.width();
        const int outScale = blockScale + vx.scale;

        const ColumnReadModel readModel(cfg.cell);

        std::vector<RefSignedAcc> acc(blockSize);
        for (unsigned i = 0; i < blockSize; ++i) {
            U256 init = rowSumF[i].mag << ux.biasBits;
            if (cfg.anProtect)
                init.mulSmall(cfg.anConstant);
            acc[i].neg = !rowSumF[i].neg;
            acc[i].mag = init;
            if (init.isZero())
                acc[i].neg = false;
        }

        struct VecSlice
        {
            unsigned k = 0;
            BitVec bits;
            std::uint64_t pc = 0;
        };
        std::vector<VecSlice> active;
        for (unsigned k = vecSlices; k-- > 0;) {
            BitVec slice(blockSize);
            for (unsigned j = 0; j < blockSize; ++j) {
                if (ux.stored[j].bit(k))
                    slice.set(j);
            }
            const auto pc =
                static_cast<std::uint64_t>(slice.popcount());
            if (pc == 0)
                continue;
            active.push_back({k, std::move(slice), pc});
        }

        // Row-ordered noise splits, identical to the parallel scan.
        std::vector<Rng> rowRngs;
        if (cfg.analogReads && rng) {
            rowRngs.reserve(blockSize);
            for (unsigned i = 0; i < blockSize; ++i)
                rowRngs.emplace_back(rng->next());
        }

        for (unsigned i = 0; i < blockSize; ++i) {
            Rng *rowRng = rowRngs.empty() ? nullptr : &rowRngs[i];
            for (const VecSlice &vs : active) {
                U256 reduced;
                for (unsigned b = 0; b < nSlices; ++b) {
                    std::int64_t count;
                    if (cfg.analogReads) {
                        // The original per-read level buffer, heap
                        // allocation and all.
                        std::vector<std::uint8_t> levels(blockSize,
                                                         0);
                        for (unsigned r = 0; r < blockSize; ++r)
                            levels[r] =
                                slices[b].get(r, i) ? 1 : 0;
                        count = readModel.read(levels, vs.bits,
                                               rowRng);
                    } else {
                        count = slices[b].readColumn(i, vs.bits);
                    }
                    if (slices[b].columnInverted(i)) {
                        count = static_cast<std::int64_t>(vs.pc) -
                                count;
                        count = std::max<std::int64_t>(count, 0);
                    }
                    U256 contrib(static_cast<std::uint64_t>(count));
                    reduced.addShifted(contrib, b);
                }
                ++stats.sliceWords;

                U256 biasTerm = storedBias;
                biasTerm.mulSmall(vs.pc);
                RefSignedAcc word;
                if (reduced >= biasTerm) {
                    word.neg = false;
                    word.mag = reduced - biasTerm;
                } else {
                    word.neg = true;
                    word.mag = biasTerm - reduced;
                }

                if (cfg.anProtect) {
                    switch (an.correctSigned(word.mag, word.neg)) {
                      case AnCode::Outcome::Clean:
                        ++stats.cleanWords;
                        break;
                      case AnCode::Outcome::Corrected:
                        ++stats.correctedWords;
                        break;
                      case AnCode::Outcome::Uncorrectable:
                        ++stats.uncorrectableWords;
                        break;
                    }
                } else {
                    ++stats.cleanWords;
                }

                acc[i].add(word.neg, word.mag << vs.k);
            }
        }

        for (unsigned i = 0; i < blockSize; ++i) {
            U256 mag = acc[i].mag;
            if (cfg.anProtect) {
                const std::uint64_t rem =
                    mag.divSmall(cfg.anConstant);
                if (rem != 0)
                    ++stats.uncorrectableWords;
            }
            y[i] = fixedToDouble(acc[i].neg, mag, outScale,
                                 cfg.rounding);
        }
        return stats;
    }

    HwCluster::Config cfg;
    AnCode an;
    unsigned blockSize = 0;
    unsigned nSlices = 0;
    int blockScale = 0;
    U256 storedBias;
    std::vector<RefSignedAcc> rowSumF;
    std::vector<BinaryCrossbar> slices;
};

MatrixBlock
randomBlock(Rng &rng, unsigned size, double density, int expSpread)
{
    MatrixBlock b;
    b.size = size;
    for (unsigned r = 0; r < size; ++r) {
        for (unsigned c = 0; c < size; ++c) {
            if (!rng.chance(density))
                continue;
            const double v =
                std::ldexp(rng.uniform(1.0, 2.0),
                           static_cast<int>(rng.range(0, expSpread))) *
                (rng.chance(0.5) ? -1.0 : 1.0);
            b.elems.push_back({static_cast<std::int32_t>(r),
                               static_cast<std::int32_t>(c), v});
        }
    }
    if (b.elems.empty())
        b.elems.push_back({0, 0, 1.0});
    return b;
}

std::vector<double>
randomVector(Rng &rng, unsigned size, int expSpread)
{
    std::vector<double> x(size);
    for (auto &v : x) {
        if (rng.chance(0.1)) {
            v = 0.0;
            continue;
        }
        v = std::ldexp(rng.uniform(1.0, 2.0),
                       static_cast<int>(rng.range(0, expSpread))) *
            (rng.chance(0.5) ? -1.0 : 1.0);
    }
    return x;
}

void
expectStatsEqual(const ClusterStats &a, const ClusterStats &b)
{
    EXPECT_EQ(a.matrixSlices, b.matrixSlices);
    EXPECT_EQ(a.vectorSlices, b.vectorSlices);
    EXPECT_EQ(a.groupsTotal, b.groupsTotal);
    EXPECT_EQ(a.groupsExecuted, b.groupsExecuted);
    EXPECT_EQ(a.xbarActivations, b.xbarActivations);
    EXPECT_EQ(a.adcConversions, b.adcConversions);
    EXPECT_EQ(a.conversionsSkipped, b.conversionsSkipped);
    EXPECT_EQ(a.columnsEarlyTerminated, b.columnsEarlyTerminated);
    EXPECT_EQ(a.emptyColumns, b.emptyColumns);
    EXPECT_EQ(a.peeledVectorElements, b.peeledVectorElements);
    EXPECT_EQ(a.cycles, b.cycles);
    // Energy sums must match bit for bit: the optimized kernel keeps
    // the floating-point accumulation order of the original.
    EXPECT_EQ(a.latency, b.latency);
    EXPECT_EQ(a.energy, b.energy);
    EXPECT_EQ(a.adcEnergy, b.adcEnergy);
    EXPECT_EQ(a.arrayEnergy, b.arrayEnergy);
}

void
expectHwStatsEqual(const HwClusterStats &a, const HwClusterStats &b)
{
    EXPECT_EQ(a.sliceWords, b.sliceWords);
    EXPECT_EQ(a.cleanWords, b.cleanWords);
    EXPECT_EQ(a.correctedWords, b.correctedWords);
    EXPECT_EQ(a.uncorrectableWords, b.uncorrectableWords);
    EXPECT_EQ(a.cicInvertedColumns, b.cicInvertedColumns);
}

void
expectBitwiseEqual(const std::vector<double> &a,
                   const std::vector<double> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(std::memcmp(&a[i], &b[i], sizeof(double)), 0)
            << "y[" << i << "]: " << a[i] << " vs " << b[i];
    }
}

RoundingMode
roundingOf(unsigned idx)
{
    switch (idx) {
      case 0:
        return RoundingMode::TowardNegInf;
      case 1:
        return RoundingMode::TowardPosInf;
      case 2:
        return RoundingMode::TowardZero;
      default:
        return RoundingMode::NearestEven;
    }
}

/** The swept schedules: the three policies at the default skew,
 *  then larger hybrid skews. At skew 15 the fullest levels of a
 *  127-slice operand span 9 segments and 119 bits, so with 16 or
 *  more elements in a row the headroom rule lands them per segment;
 *  every other level gathers one 128-bit partial. */
struct SweptSchedule
{
    SchedulePolicy policy;
    unsigned skew;
};

constexpr SweptSchedule sweptSchedules[] = {
    {SchedulePolicy::Vertical, 2}, {SchedulePolicy::Diagonal, 2},
    {SchedulePolicy::Hybrid, 2},   {SchedulePolicy::Hybrid, 3},
    {SchedulePolicy::Hybrid, 8},   {SchedulePolicy::Hybrid, 15},
};

/**
 * A k-column panel whose columns' exponent spreads differ but stay
 * inside the 64-exponent window (the references omit peeling), so
 * the columns take different vector widths and join the panel
 * kernel's level walk at different levels. @p base varies the
 * spreads per configuration.
 */
std::vector<double>
spreadPanel(Rng &rng, unsigned size, unsigned k, int base)
{
    std::vector<double> X;
    for (unsigned c = 0; c < k; ++c) {
        const auto xc = randomVector(
            rng, size, static_cast<int>(20 * c) + base % 20);
        X.insert(X.end(), xc.begin(), xc.end());
    }
    return X;
}

/**
 * The 3-column panel through Cluster::multiply(X, Y, k) against
 * three RefCluster calls, column by column: outputs bitwise, and
 * each column's stats field by field. Returns whether the columns
 * took three distinct vector widths.
 */
bool
expectClusterPanelMatchesRef(Cluster &opt, RefCluster &ref,
                             unsigned size, int base,
                             std::uint64_t seed)
{
    const unsigned k = 3;
    Rng rng(seed);
    const std::vector<double> X = spreadPanel(rng, size, k, base);
    std::vector<double> Y(X.size());
    std::vector<ClusterStats> colStats;
    opt.multiply(std::span<const double>(X), std::span<double>(Y), k,
                 nullptr, &colStats);
    EXPECT_EQ(colStats.size(), k);
    for (unsigned c = 0; c < k; ++c) {
        const std::vector<double> xc(X.begin() + c * size,
                                     X.begin() + (c + 1) * size);
        const std::vector<double> yc(Y.begin() + c * size,
                                     Y.begin() + (c + 1) * size);
        std::vector<double> yRef(size);
        const ClusterStats sRef = ref.multiply(xc, yRef);
        expectBitwiseEqual(yc, yRef);
        expectStatsEqual(colStats[c], sRef);
    }
    return colStats[0].vectorSlices != colStats[1].vectorSlices &&
           colStats[1].vectorSlices != colStats[2].vectorSlices &&
           colStats[0].vectorSlices != colStats[2].vectorSlices;
}

TEST(KernelBitExact, ClusterFullConfigSweep)
{
    Rng rng(0xC0FFEE);
    unsigned combo = 0;
    unsigned distinctWidthPanels = 0;
    Cluster::LandingCounts landed;
    for (const SweptSchedule &sched : sweptSchedules) {
        for (unsigned mode = 0; mode < 4; ++mode) {
            for (int an = 0; an < 2; ++an) {
                for (int et = 0; et < 2; ++et) {
                    // With AN coding, the larger skews also run a
                    // 64-wide block (about 19 to 32 elements per row)
                    // whose coefficient exponents fill the 64-bit
                    // window, so operands reach 127 slices.
                    const bool wide =
                        sched.skew > 2 && an != 0 && mode % 2 == 1;
                    const unsigned size = wide ? 64 : 16;
                    ClusterConfig cfg;
                    cfg.size = size;
                    cfg.schedule = sched.policy;
                    cfg.hybridSkew = sched.skew;
                    cfg.rounding = roundingOf(mode);
                    cfg.anProtect = an != 0;
                    cfg.earlyTermination = et != 0;
                    // Sweep the secondary toggles alongside.
                    cfg.cic = combo % 2 == 0;
                    cfg.adcHeadstart = combo % 3 != 0;
                    cfg.targetMantissaBits =
                        combo % 4 == 3 ? 24 : 53;
                    ++combo;

                    const int spread =
                        wide ? 64 : static_cast<int>(rng.below(50));
                    const MatrixBlock b = randomBlock(
                        rng, size,
                        wide ? rng.uniform(0.3, 0.5)
                             : rng.uniform(0.1, 0.7),
                        spread);
                    const auto x = randomVector(rng, size, spread);

                    Cluster opt(cfg);
                    RefCluster ref(cfg);
                    const ClusterProgramInfo pa = opt.program(b);
                    const ClusterProgramInfo pb = ref.program(b);
                    EXPECT_EQ(pa.matrixSlices, pb.matrixSlices);
                    EXPECT_EQ(pa.storedBits, pb.storedBits);
                    EXPECT_EQ(pa.scale, pb.scale);
                    EXPECT_EQ(pa.cellsWritten, pb.cellsWritten);
                    EXPECT_EQ(pa.cicInvertedColumns,
                              pb.cicInvertedColumns);
                    EXPECT_EQ(pa.cicCornerCases, pb.cicCornerCases);
                    EXPECT_EQ(pa.programEnergy, pb.programEnergy);

                    std::vector<double> ya(size), yb(size);
                    const ClusterStats sa = opt.multiply(x, ya);
                    const ClusterStats sb = ref.multiply(x, yb);
                    expectBitwiseEqual(ya, yb);
                    expectStatsEqual(sa, sb);

                    // An independent oracle for k > 1: the panel's
                    // columns against sequential reference calls.
                    if (expectClusterPanelMatchesRef(
                            opt, ref, size, spread, 0xC0FFEE + combo))
                        ++distinctWidthPanels;
                    landed.partialLevels += opt.landings().partialLevels;
                    landed.segmentLevels += opt.landings().segmentLevels;
                }
            }
        }
    }
    // The panels must mix vector widths, not run one width.
    EXPECT_GT(distinctWidthPanels, 0u);
    // Both sides of the landing rule ran: levels gathered into one
    // 128-bit partial, and levels whose partial could overflow.
    EXPECT_GT(landed.partialLevels, 0u);
    EXPECT_GT(landed.segmentLevels, 0u);
}

TEST(KernelBitExact, ClusterRepeatedMultiplies)
{
    // One programming, many vectors: the per-multiply caches must not
    // leak state between calls. The vector widths alternate, so no
    // per-width state can carry from one call to the next.
    Rng rng(0xFACE);
    ClusterConfig cfg;
    cfg.size = 16;
    Cluster opt(cfg);
    RefCluster ref(cfg);
    const MatrixBlock b = randomBlock(rng, 16, 0.4, 30);
    opt.program(b);
    ref.program(b);
    for (int rep = 0; rep < 8; ++rep) {
        const auto x = randomVector(rng, 16, rep % 2 == 0 ? 5 : 45);
        std::vector<double> ya(16), yb(16);
        const ClusterStats sa = opt.multiply(x, ya);
        const ClusterStats sb = ref.multiply(x, yb);
        expectBitwiseEqual(ya, yb);
        expectStatsEqual(sa, sb);
    }
}

TEST(KernelBitExact, HwClusterFullConfigSweep)
{
    Rng rng(0xBEEF);
    unsigned combo = 0;
    for (unsigned mode = 0; mode < 4; ++mode) {
        for (int an = 0; an < 2; ++an) {
            for (int cic = 0; cic < 2; ++cic) {
                for (int analog = 0; analog < 2; ++analog) {
                    HwCluster::Config cfg;
                    cfg.size = 8;
                    cfg.rounding = roundingOf(mode);
                    cfg.anProtect = an != 0;
                    cfg.cic = cic != 0;
                    cfg.analogReads = analog != 0;
                    // Half the analog configs add programming noise,
                    // so their reads draw from the generators and
                    // the panel check below pins the draw order.
                    if (analog != 0 && mode % 2 == 0)
                        cfg.cell.progErrorSigma = 0.25;
                    ++combo;

                    const int spread =
                        static_cast<int>(rng.below(40));
                    const MatrixBlock b = randomBlock(
                        rng, 8, rng.uniform(0.2, 0.8), spread);
                    const auto x = randomVector(rng, 8, spread);

                    HwCluster opt(cfg);
                    RefHwCluster ref(cfg);
                    opt.program(b);
                    ref.program(b);

                    std::vector<double> ya(8), yb(8);
                    Rng ra(42 + combo), rb(42 + combo);
                    const HwClusterStats sa =
                        opt.multiply(x, ya, &ra);
                    const HwClusterStats sb =
                        ref.multiply(x, yb, &rb);
                    expectBitwiseEqual(ya, yb);
                    expectHwStatsEqual(sa, sb);

                    // An independent oracle for k > 1: a 3-column
                    // panel, its noise drawn from one generator,
                    // against three sequential reference calls on a
                    // generator with the same seed.
                    const unsigned k = 3;
                    Rng panelRng(0xBEEF + combo);
                    const std::vector<double> X =
                        spreadPanel(panelRng, 8, k, spread);
                    std::vector<double> Y(X.size());
                    Rng pa(4242 + combo), pb(4242 + combo);
                    const HwClusterStats spa = opt.multiply(
                        std::span<const double>(X),
                        std::span<double>(Y), k, &pa);
                    HwClusterStats spb;
                    for (unsigned c = 0; c < k; ++c) {
                        const std::vector<double> xc(
                            X.begin() + c * 8, X.begin() + (c + 1) * 8);
                        const std::vector<double> yc(
                            Y.begin() + c * 8, Y.begin() + (c + 1) * 8);
                        std::vector<double> yRef(8);
                        spb += ref.multiply(xc, yRef, &pb);
                        expectBitwiseEqual(yc, yRef);
                    }
                    expectHwStatsEqual(spa, spb);
                }
            }
        }
    }
}

TEST(KernelBitExact, HwClusterNoisyReads)
{
    // Programming noise active: the allocation-free read path must
    // consume the per-row generators in exactly the original draw
    // order, or the noise realizations (and thus y) diverge.
    Rng rng(0x5EED);
    HwCluster::Config cfg;
    cfg.size = 8;
    cfg.analogReads = true;
    // Large enough to move conversions, so a wrong draw order or
    // row-to-stream mapping changes the outputs.
    cfg.cell.progErrorSigma = 0.25;
    const MatrixBlock b = randomBlock(rng, 8, 0.5, 20);
    const auto x = randomVector(rng, 8, 20);

    HwCluster opt(cfg);
    RefHwCluster ref(cfg);
    opt.program(b);
    ref.program(b);
    for (int rep = 0; rep < 4; ++rep) {
        std::vector<double> ya(8), yb(8);
        Rng ra(1000 + rep), rb(1000 + rep);
        const HwClusterStats sa = opt.multiply(x, ya, &ra);
        const HwClusterStats sb = ref.multiply(x, yb, &rb);
        expectBitwiseEqual(ya, yb);
        EXPECT_EQ(sa.sliceWords, sb.sliceWords);
    }
}

} // namespace
} // namespace msc
