#include "cluster/cluster.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <type_traits>

#include "util/intlog.hh"
#include "util/logging.hh"

namespace msc {

ClusterStats &
operator+=(ClusterStats &into, const ClusterStats &s)
{
    into.matrixSlices += s.matrixSlices;
    into.vectorSlices += s.vectorSlices;
    into.groupsTotal += s.groupsTotal;
    into.groupsExecuted += s.groupsExecuted;
    into.xbarActivations += s.xbarActivations;
    into.adcConversions += s.adcConversions;
    into.conversionsSkipped += s.conversionsSkipped;
    into.columnsEarlyTerminated += s.columnsEarlyTerminated;
    into.emptyColumns += s.emptyColumns;
    into.peeledVectorElements += s.peeledVectorElements;
    into.cycles += s.cycles;
    into.latency += s.latency;
    into.energy += s.energy;
    into.adcEnergy += s.adcEnergy;
    into.arrayEnergy += s.arrayEnergy;
    return into;
}

Cluster::Cluster(const ClusterConfig &config)
    : cfg(config), xbarModel(config.size, config.xbar, config.cic),
      an(config.anConstant, fxp::operandBits)
{
    if (cfg.targetMantissaBits == 0 || cfg.targetMantissaBits > 53)
        fatal("Cluster: targetMantissaBits must be in [1, 53]");
    if (cfg.anProtect && an.uniqueWindow() < fxp::encodedBits) {
        warn("Cluster: AN constant ", cfg.anConstant,
             " cannot uniquely correct over ", fxp::encodedBits,
             " bits (window ", an.uniqueWindow(), ")");
    }
    // ADC start bits never exceed bitsForCount(size) (a column has at
    // most `size` stored ones); memoize the per-conversion energy so
    // the per-group accounting loop is a table load instead of a
    // model evaluation.
    const unsigned maxStart = bitsForCount(cfg.size);
    convEnergyByStart.resize(maxStart + 1);
    for (unsigned s = 0; s <= maxStart; ++s)
        convEnergyByStart[s] = xbarModel.conversionEnergy(s);
    arrayOpE = xbarModel.arrayOpEnergy();
}

ClusterProgramInfo
Cluster::program(const MatrixBlock &block)
{
    if (block.size == 0 || block.size > cfg.size) {
        fatal("Cluster::program: block size ", block.size,
              " does not fit cluster size ", cfg.size);
    }
    blockSize = block.size;

    std::vector<double> vals;
    vals.reserve(block.elems.size());
    for (const auto &t : block.elems) {
        if (t.row < 0 || t.col < 0 ||
            t.row >= static_cast<std::int32_t>(block.size) ||
            t.col >= static_cast<std::int32_t>(block.size)) {
            fatal("Cluster::program: element outside block");
        }
        vals.push_back(t.val);
    }

    // Exponent-range locality: alignValues is fatal beyond 64; the
    // blocking preprocessor must have evicted out-of-range elements.
    const AlignedSet aligned = alignValues(vals);
    const BiasedSet biased = biasEncode(aligned);
    blockScale = aligned.scale;
    storedBits = biased.width();

    storedBias = cfg.anProtect ? an.encode(biased.bias())
                               : U256::from(biased.bias());

    // Flatten the elements row-major (CSR-like): the multiply hot
    // loop walks each row's columns and contribution-table entries
    // linearly instead of chasing per-row vectors.
    const std::size_t nnz = block.elems.size();
    rowPtr.assign(blockSize + 1, 0);
    for (const Triplet &t : block.elems)
        ++rowPtr[static_cast<std::size_t>(t.row) + 1];
    maxRowNnz = 0;
    for (unsigned i = 0; i < blockSize; ++i) {
        maxRowNnz = std::max(maxRowNnz, rowPtr[i + 1]);
        rowPtr[i + 1] += rowPtr[i];
    }
    elemCol.assign(nnz, 0);
    elemStored.assign(nnz, U256{});
    rowSumF.assign(blockSize, {});
    std::vector<std::uint32_t> cursor(rowPtr.begin(),
                                      rowPtr.end() - 1);
    encodedBits = storedBias.bitLength();
    for (std::size_t e = 0; e < nnz; ++e) {
        const Triplet &t = block.elems[e];
        const U256 stored = cfg.anProtect
            ? an.encode(biased.stored[e])
            : U256::from(biased.stored[e]);
        encodedBits = std::max(encodedBits, stored.bitLength());
        const auto row = static_cast<std::size_t>(t.row);
        const std::uint32_t at = cursor[row]++;
        elemCol[at] = t.col;
        elemStored[at] = stored;
        rowSumF[row].add(aligned.neg[e] != 0,
                         U256::from(aligned.mag[e]));
    }
    if (encodedBits > fxp::encodedBits) {
        panic("Cluster::program: encoded operand width ", encodedBits,
              " exceeds ", fxp::encodedBits);
    }

    // Per (slice, block row) stored-ones census for CIC and ADC
    // headstart. Zero cells store the bias pattern.
    std::vector<std::vector<std::uint16_t>> sliceOnes(
        encodedBits, std::vector<std::uint16_t>(blockSize, 0));
    progInfo = ClusterProgramInfo{};
    std::uint64_t setBits = 0;
    for (unsigned i = 0; i < blockSize; ++i) {
        const auto zeroCells = static_cast<std::uint32_t>(
            blockSize - (rowPtr[i + 1] - rowPtr[i]));
        for (unsigned b = 0; b < encodedBits; ++b) {
            std::uint32_t ones = 0;
            if (storedBias.bit(b))
                ones += zeroCells;
            for (std::uint32_t e = rowPtr[i]; e < rowPtr[i + 1]; ++e)
                ones += elemStored[e].bit(b) ? 1 : 0;
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

    // Resolve the per-conversion ADC energy once per (slice, row):
    // the headstart preset depends only on the stored-ones census,
    // so every multiply -- and every column of a batched multiply --
    // reads the same table instead of re-deriving start bits.
    const unsigned resBits = xbarModel.adcResolutionBits();
    adcConvE.assign(
        static_cast<std::size_t>(encodedBits) * blockSize, 0.0);
    for (unsigned b = 0; b < encodedBits; ++b) {
        for (unsigned i = 0; i < blockSize; ++i) {
            const unsigned start = cfg.adcHeadstart
                ? bitsForCount(sliceOnes[b][i]) : resBits;
            adcConvE[static_cast<std::size_t>(b) * blockSize + i] =
                convEnergyByStart[start];
        }
    }

    // The contribution tables derive from the stored operands:
    // invalidate the cache; multiplies rebuild ranges lazily.
    tables.clear();
    tableIdx.assign(static_cast<std::size_t>(encodedBits + 1) *
                        (encodedBits + 1),
                    -1);

    progInfo.matrixSlices = encodedBits;
    progInfo.storedBits = storedBits;
    progInfo.scale = blockScale;
    // Only SET operations cost write energy; bulk RESET of the bank
    // is amortized. Programming proceeds row-by-row within a
    // crossbar, bit slices sequentially (one write driver set per
    // cluster), clusters in parallel.
    progInfo.cellsWritten = setBits;
    progInfo.programTime = encodedBits * xbarModel.programTime();
    progInfo.programEnergy = xbarModel.programEnergy(setBits);
    isProgrammed = true;
    return progInfo;
}

bool
Cluster::settled(const U256 &mag, int bound, unsigned prec)
{
    const int len = static_cast<int>(mag.bitLength());
    const int wb = len - static_cast<int>(prec);
    if (wb <= bound + 1)
        return false;
    // The gap (bound, wb) must hold a 0 (absorbs the single carry the
    // remaining positive contributions can generate) and a 1 (absorbs
    // the single borrow the remaining negative contributions can
    // generate), so the top prec bits and the leading-one position
    // are final.
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
Cluster::convert(const SignedAcc &acc, int scale, bool exact) const
{
    U256 mag = acc.mag;
    if (cfg.anProtect) {
        const std::uint64_t rem = mag.divSmall(cfg.anConstant);
        if (exact && rem != 0) {
            panic("Cluster::convert: accumulator not a multiple of A "
                  "(residue ", rem, ")");
        }
    }
    if (exact) {
        return fixedToDouble(acc.neg, mag, scale, cfg.rounding,
                             cfg.targetMantissaBits);
    }

    // Early-terminated: the top target+guard bits are settled and
    // the true remainder is strictly between 0 and one guard-ulp.
    // Clear the unsettled tail and synthesize a sticky bit.
    const unsigned prec = cfg.targetMantissaBits + 3;
    const unsigned len = mag.bitLength();
    if (len <= prec)
        panic("Cluster::convert: terminated accumulator too narrow");
    const unsigned wb = len - prec;
    U256 head = mag >> wb;
    U256 synth = head << wb;
    synth.setBit(wb - 1);
    return fixedToDouble(acc.neg, synth, scale, cfg.rounding,
                         cfg.targetMantissaBits);
}

const Cluster::RangeTable &
Cluster::rangeTable(unsigned bLo, unsigned bHi)
{
    // NOTE: building a new range may reallocate `tables`; callers
    // pre-build every range of a schedule (one pass over its groups)
    // before caching RangeTable pointers in kernels.
    const std::size_t dim = encodedBits + 1;
    std::int16_t &idx = tableIdx[bLo * dim + bHi];
    if (idx >= 0)
        return tables[static_cast<std::size_t>(idx)];

    const std::size_t nnz = elemCol.size();
    RangeTable t;
    t.bLo = bLo;
    const unsigned width = bHi - bLo + 1;
    t.small = width <= 15;
    if (t.small) {
        const auto biasPart = static_cast<std::int32_t>(
            storedBias.extractBits(bLo, width));
        t.delta.resize(nnz);
        for (std::size_t e = 0; e < nnz; ++e) {
            t.delta[e] = static_cast<std::int16_t>(
                static_cast<std::int32_t>(
                    elemStored[e].extractBits(bLo, width)) -
                biasPart);
        }
    } else {
        U256 mask;
        for (unsigned b = bLo; b <= bHi; ++b)
            mask.setBit(b);
        const U256 biasPart = storedBias & mask;
        t.negW.resize(nnz);
        t.magW.resize(nnz);
        for (std::size_t e = 0; e < nnz; ++e) {
            const U256 val = elemStored[e] & mask;
            U256 d;
            if (val >= biasPart) {
                d = val - biasPart;
                t.negW[e] = 0;
            } else {
                d = biasPart - val;
                t.negW[e] = 1;
            }
            d >>= bLo;
            t.magW[e] = U128::from(d);
        }
    }
    idx = static_cast<std::int16_t>(tables.size());
    tables.push_back(std::move(t));
    return tables.back();
}

void
Cluster::addPartial(SignedAcc &a, unsigned __int128 p, unsigned shift)
{
    const bool neg = (p >> 127) != 0;
    const unsigned __int128 m = neg ? -p : p;
    const auto lo = static_cast<std::uint64_t>(m);
    const auto hi = static_cast<std::uint64_t>(m >> 64);
    const unsigned wi = shift / 64;
    const unsigned bi = shift % 64;
    U256 v;
    v.setWord(wi, lo << bi);
    if (wi + 1 < U256::numWords)
        v.setWord(wi + 1, bi ? (hi << bi) | (lo >> (64 - bi)) : hi);
    if (bi && wi + 2 < U256::numWords)
        v.setWord(wi + 2, hi >> (64 - bi));
    a.add(neg, v);
}

Cluster::LevelGrid
Cluster::levelGrid(unsigned vectorSlices) const
{
    LevelGrid g;
    g.nB = encodedBits;
    g.nK = vectorSlices;
    g.run = encodedBits;
    if (cfg.schedule == SchedulePolicy::Diagonal) {
        g.run = 1;
    } else if (cfg.schedule == SchedulePolicy::Hybrid) {
        if (cfg.hybridSkew < 2)
            fatal("Cluster::multiply: hybrid skew must be >= 2");
        g.run = cfg.hybridSkew;
    }
    g.maxStagger = (g.nB - 1) / g.run;
    return g;
}

template <unsigned K>
void
Cluster::landSmallLevel(unsigned c0, unsigned base, bool perSegment)
{
    using U128Raw = unsigned __int128;
    const std::size_t kp = colStride;
    const LevelSeg *const segs = levelSegBuf.data();
    const std::size_t nSegs = levelSegBuf.size();
    const std::uint32_t *const rp = rowPtr.data();
    const std::int32_t *const cols = elemCol.data();
    for (unsigned i = 0; i < blockSize; ++i) {
        const std::uint64_t *const live = &liveBatch[i * kp + c0];
        bool anyLive = false;
        for (unsigned c = 0; c < K; ++c)
            anyLive |= live[c] != 0;
        if (!anyLive)
            continue;
        SignedAcc *const acc = &accBatch[i * kp + c0];
        U128Raw p[K] = {};
        for (std::size_t j = 0; j < nSegs; ++j) {
            const LevelSeg &seg = segs[j];
            const std::int16_t *const gates = seg.gates + c0;
            std::int32_t s[K] = {};
            for (std::uint32_t e = rp[i]; e < rp[i + 1]; ++e) {
                const std::int16_t dv = seg.delta[e];
                const std::int16_t *const gr =
                    gates + static_cast<std::size_t>(cols[e]) * kp;
                for (unsigned c = 0; c < K; ++c)
                    s[c] += static_cast<std::int16_t>(dv & gr[c]);
            }
            // Sign-extend on the unsigned type: the shift never sees
            // a negative value, and the sum wraps as two's complement.
            for (unsigned c = 0; c < K; ++c)
                p[c] += static_cast<U128Raw>(
                            static_cast<std::int64_t>(s[c]))
                        << seg.rel;
            if (perSegment) {
                for (unsigned c = 0; c < K; ++c) {
                    if (live[c] && p[c] != 0)
                        addPartial(acc[c], p[c], seg.shift);
                    p[c] = 0;
                }
            }
        }
        if (!perSegment) {
            for (unsigned c = 0; c < K; ++c) {
                if (live[c] && p[c] != 0)
                    addPartial(acc[c], p[c], base);
            }
        }
    }
}

template <unsigned K>
void
Cluster::levelAdcEnergy(unsigned c0, unsigned k,
                        std::span<const ScheduleGroup::Segment> segs)
{
    const std::size_t n = blockSize;
    const std::size_t kp = colStride;
    const unsigned cn = std::min(K, k - c0); // the rest pad the chunk
    double e[K] = {};
    for (unsigned c = 0; c < cn; ++c)
        e[c] = columns[c0 + c].stats.adcEnergy;
    const std::uint64_t *const live = liveBatch.data() + c0;
    for (const auto &seg : segs) {
        // A column converts a segment of its own group: it takes
        // part in the level and the segment's slice is below its
        // width. Where it does not, or a row has terminated, the
        // masks zero the energy's bits and it adds +0.0, exact on its
        // sum of non-negative terms.
        std::uint64_t own[K] = {};
        for (unsigned c = 0; c < cn; ++c) {
            const PanelColumn &col = columns[c0 + c];
            own[c] = col.takesPart && seg.k < col.ux.width() ? ~0ull : 0;
        }
        for (unsigned b = seg.bLo; b <= seg.bHi; ++b) {
            const double *ce = &adcConvE[b * n];
            for (unsigned i = 0; i < blockSize; ++i) {
                const std::uint64_t *lr = live + i * kp;
                const auto bits = std::bit_cast<std::uint64_t>(ce[i]);
#pragma GCC unroll 8
                for (unsigned c = 0; c < K; ++c)
                    e[c] += std::bit_cast<double>(bits & lr[c] & own[c]);
            }
        }
    }
    for (unsigned c = 0; c < cn; ++c)
        columns[c0 + c].stats.adcEnergy = e[c];
}

template <typename Kernel>
void
Cluster::forChunks(Kernel &&kernel)
{
    for (unsigned c0 = 0; c0 < colStride; c0 += chunkWidth) {
        switch (chunkWidth) {
          case 1:
            kernel(std::integral_constant<unsigned, 1>{}, c0);
            break;
          case 2:
            kernel(std::integral_constant<unsigned, 2>{}, c0);
            break;
          case 4:
            kernel(std::integral_constant<unsigned, 4>{}, c0);
            break;
          default:
            kernel(std::integral_constant<unsigned, 8>{}, c0);
            break;
        }
    }
}

void
Cluster::peelVector(std::span<const double> x,
                    std::span<double> masked, ClusterStats &stats,
                    std::vector<std::int32_t> *peeled)
{
    std::copy(x.begin(), x.end(), masked.begin());
    if (peeled)
        peeled->clear();
    // Choose the 64-wide exponent window keeping the most elements;
    // peel the rest for digital handling by the bank.
    auto &exps = expsScratch;
    exps.clear();
    for (std::size_t j = 0; j < masked.size(); ++j) {
        const Fp64Parts p = decompose(masked[j]);
        if (!p.isFinite())
            fatal("Cluster::multiply: non-finite vector element");
        if (p.isZero())
            continue;
        const int lead = p.exp -
            (52 - (63 - std::countl_zero(p.mant)));
        exps.push_back({lead, static_cast<std::int32_t>(j)});
    }
    std::sort(exps.begin(), exps.end());
    if (!exps.empty() &&
        exps.back().first - exps.front().first > fxp::maxExpRange) {
        // Sliding window over sorted exponents.
        std::size_t bestLo = 0, bestCount = 0, lo = 0;
        for (std::size_t hi = 0; hi < exps.size(); ++hi) {
            while (exps[hi].first - exps[lo].first >
                   fxp::maxExpRange)
                ++lo;
            if (hi - lo + 1 > bestCount) {
                bestCount = hi - lo + 1;
                bestLo = lo;
            }
        }
        for (std::size_t idx = 0; idx < exps.size(); ++idx) {
            const bool keep = idx >= bestLo &&
                exps[idx].first - exps[bestLo].first <=
                    fxp::maxExpRange;
            if (!keep) {
                masked[static_cast<std::size_t>(
                    exps[idx].second)] = 0.0;
                ++stats.peeledVectorElements;
                if (peeled)
                    peeled->push_back(exps[idx].second);
            }
        }
    }
}

ClusterStats
Cluster::multiply(std::span<const double> x, std::span<double> y,
                  std::vector<std::int32_t> *peeled)
{
    // The k = 1 panel; column 0's peel list goes back by swap, so
    // both vectors keep their capacity across calls.
    peeledOne.resize(1);
    const ClusterStats stats =
        multiply(x, y, 1, peeled ? &peeledOne : nullptr);
    if (peeled)
        peeled->swap(peeledOne[0]);
    return stats;
}

ClusterStats
Cluster::multiply(std::span<const double> X, std::span<double> Y,
                  unsigned k,
                  std::vector<std::vector<std::int32_t>> *peeled,
                  std::vector<ClusterStats> *colStatsOut)
{
    if (!isProgrammed)
        fatal("Cluster::multiply: no block programmed");
    if (k == 0)
        fatal("Cluster::multiply: batch needs at least one column");
    const std::size_t n = blockSize;
    const std::size_t panel = n * k;
    if (X.size() != panel || Y.size() != panel)
        fatal("Cluster::multiply: panel size mismatch");
    if (peeled)
        peeled->resize(k);

    // --- per-column front end: peel, align, encode, init ----------
    // Alignment is input-dependent, so it stays per column; the
    // programmed-side state (contribution tables, ADC energy table)
    // is shared below. The level kernels run the columns in chunks
    // of a fixed width, k rounded up to a power of two or, past 8, to
    // a multiple of 8; per-(row, column) state and gate rows take the
    // padded stride, and pad columns have no live rows or gates.
    chunkWidth = k == 1 ? 1 : k == 2 ? 2 : k <= 4 ? 4 : 8;
    colStride = (k + chunkWidth - 1) / chunkWidth * chunkWidth;
    const std::size_t kp = colStride;
    maskedBatch.resize(panel);
    accBatch.assign(n * kp, SignedAcc{});
    liveBatch.assign(n * kp, 0);
    columns.resize(k);
    for (unsigned c = 0; c < k; ++c) {
        PanelColumn &col = columns[c];
        col.stats = ClusterStats{};
        const std::span<double> masked(maskedBatch.data() + c * n, n);
        peelVector(X.subspan(c * n, n), masked, col.stats,
                   peeled ? &(*peeled)[c] : nullptr);
        const AlignedSet vx = alignValues(masked);
        col.ux = biasEncode(vx);
        col.outScale = blockScale + vx.scale;
        // Vector bit-slice bitmaps: slice k gates which elements
        // contribute in a segment at weight 2^k. All-zero slices
        // gate everything out and stay null.
        const std::size_t nActive =
            activeBitSlices(col.ux, col.vslices);
        col.sliceByK.assign(col.ux.width(), nullptr);
        for (std::size_t s = 0; s < nActive; ++s)
            col.sliceByK[col.vslices[s].k] = &col.vslices[s].bits;
        col.stats.matrixSlices = encodedBits;
        col.stats.vectorSlices = col.ux.width();

        double *const yc = Y.data() + c * n;
        col.alive = 0;
        for (unsigned i = 0; i < blockSize; ++i) {
            SignedAcc &acc = accBatch[i * kp + c];
            if (rowPtr[i + 1] == rowPtr[i]) {
                // Bias cells cancel exactly; the hardware settles
                // these immediately.
                yc[i] = 0.0;
                ++col.stats.emptyColumns;
                continue;
            }
            liveBatch[i * kp + c] = ~0ull;
            ++col.alive;
            // Fold the vector-bias debias constant -bX * rowSumF
            // into the initial running sum (known at apply time).
            U256 init = rowSumF[i].mag << (col.ux.biasBits);
            if (cfg.anProtect)
                init.mulSmall(cfg.anConstant);
            acc.neg = !rowSumF[i].neg;
            acc.mag = init;
            if (init.isZero())
                acc.neg = false;
        }
    }

    const unsigned nBits = bitsForCount(blockSize);
    const int anShift = cfg.anProtect
        ? static_cast<int>(an.codeBits() - an.dataBits() - 1) : 0;
    // anShift = 8 for A=269: floor(log2(269)).

    // --- schedule ----------------------------------------------------
    // The activation schedule depends on the input only through the
    // biased operand width. Every policy cuts the same grid of
    // (matrix slice b, vector slice k) cells into levels
    // L = k - stagger(b): group g of a width-W schedule is level
    // W - 1 - g, holding that level's cells with k < W -- the leading
    // whole segments of the widest schedule's group at that level --
    // and every width ends on the same level. So one grid, for the
    // panel's widest column, serves all k: a column of width W
    // joins the level walk at group maxBits - W and, at each level,
    // owns the segments with k < W. One walk over the levels shares
    // the inner loop across all k columns whatever their widths.
    unsigned maxBits = 0;
    for (unsigned c = 0; c < k; ++c)
        maxBits = std::max(maxBits, columns[c].ux.width());
    const LevelGrid grid = levelGrid(maxBits);
    const std::size_t nLevels = grid.levels();

    // Per distinct width: each level's crossbar activations and the
    // largest significance left after it (the termination bound's
    // input), restricted to the width's segments.
    widths.clear();
    for (unsigned c = 0; c < k; ++c) {
        PanelColumn &col = columns[c];
        const unsigned w = col.ux.width();
        col.widthIdx = std::find(widths.begin(), widths.end(), w) -
                       widths.begin();
        if (col.widthIdx == widths.size())
            widths.push_back(w);
        col.joinLevel = maxBits - w;
        col.stats.groupsTotal = nLevels - col.joinLevel;
        col.sigCellBits = static_cast<int>(
            bitsForCount(std::min(encodedBits, w)));
    }
    levelActs.resize(widths.size() * nLevels);
    levelRemSig.resize(widths.size() * nLevels);
    for (std::size_t u = 0; u < widths.size(); ++u) {
        int remaining = -1;
        for (std::size_t t = nLevels; t-- > 0;) {
            unsigned acts = 0;
            int sig = -1;
            for (unsigned q = grid.qLo(t); q <= grid.qHi(t); ++q) {
                const ScheduleGroup::Segment seg = grid.segment(t, q);
                if (seg.k >= widths[u])
                    continue;
                acts += seg.width();
                sig = std::max(sig, static_cast<int>(seg.bHi + seg.k));
            }
            levelActs[u * nLevels + t] = acts;
            levelRemSig[u * nLevels + t] = remaining;
            remaining = std::max(remaining, sig);
        }
    }

    // Ensure every range's contribution table exists before the
    // level loop takes references (rangeTable() may reallocate): one
    // range per stagger run, whatever the level.
    for (unsigned q = 0; q <= grid.maxStagger; ++q) {
        const ScheduleGroup::Segment seg = grid.segment(q, q);
        rangeTable(seg.bLo, seg.bHi);
    }

    // Gate transpose: per (vector slice k, element column j) a
    // padded-k-wide row of 0 / -1 masks, so the inner loop reads the
    // gates of all columns in one contiguous stride instead of
    // probing k bitmaps per element, and gates a delta with an AND.
    // Slices past a column's width stay 0.
    const std::size_t gateSlice = n * kp;
    gateTBatch.assign(maxBits * gateSlice, 0);
    for (unsigned c = 0; c < k; ++c) {
        const auto &sliceByK = columns[c].sliceByK;
        for (unsigned kc = 0; kc < sliceByK.size(); ++kc) {
            const BitVec *gate = sliceByK[kc];
            if (!gate)
                continue;
            std::int16_t *gT = &gateTBatch[kc * gateSlice];
            gate->forEachSetBit([&](std::size_t j) {
                gT[j * kp + c] = -1;
            });
        }
    }
    const auto gateOf = [&](unsigned c, unsigned kc) -> const BitVec * {
        const auto &sliceByK = columns[c].sliceByK;
        return kc < sliceByK.size() ? sliceByK[kc] : nullptr;
    };

    std::size_t aliveTotal = 0;
    for (unsigned c = 0; c < k; ++c)
        aliveTotal += columns[c].alive;

    // Headroom of a level partial: a row's gated delta sum over a
    // segment of width w is below maxRowNnz * 2^w in magnitude.
    const unsigned rowSumBits = bitsForCount(maxRowNnz);

    // --- level-granular execution (all columns) ---------------------
    for (std::size_t t = 0; t < nLevels && aliveTotal > 0; ++t) {
        levelSegs.clear();
        for (unsigned q = grid.qLo(t); q <= grid.qHi(t); ++q)
            levelSegs.push_back(grid.segment(t, q));
        const std::span<const ScheduleGroup::Segment> segs(levelSegs);

        // Per-column bookkeeping on the column's own group, this
        // level's segments with slice below the column's width: a
        // column takes part iff it has joined and still has alive
        // rows. ADC conversions: every active crossbar scans the
        // alive rows; terminated rows are skipped (Section III-B).
        // Energy: full-array activation energy per crossbar op (the
        // whole array pulls current regardless of how many rows
        // convert) plus per-conversion ADC energy from the per-(slice,
        // row) table program() resolved.
        for (unsigned c = 0; c < k; ++c) {
            PanelColumn &col = columns[c];
            col.takesPart = col.alive != 0 && t >= col.joinLevel;
            if (!col.takesPart)
                continue;
            const unsigned acts =
                levelActs[col.widthIdx * nLevels + t];
            ClusterStats &cs = col.stats;
            ++cs.groupsExecuted;
            cs.xbarActivations += acts;
            cs.adcConversions +=
                static_cast<std::uint64_t>(acts) * col.alive;
            cs.conversionsSkipped +=
                static_cast<std::uint64_t>(acts) *
                (blockSize - col.alive);
            cs.arrayEnergy += acts * arrayOpE;
        }
        forChunks([&](auto width, unsigned c0) {
            levelAdcEnergy<width()>(c0, k, segs);
        });

        // Functional contribution, k-wide. Between two termination
        // checks every add into the accumulators is exact integer
        // arithmetic, and only the checks and the final conversion
        // read them, so any grouping of a level's adds reaches the
        // same state bit for bit. The small-range segments gather
        // into one signed 128-bit partial per (column, row) at the
        // level's lowest shift -- a row's gated int16 deltas sum per
        // segment into an int32 (below maxRowNnz * 2^15), each sum
        // enters the partial at its offset above that shift -- and
        // the partial lands in one wide add. Where the partial could
        // overflow, each segment's sums land on their own. A segment
        // whose slice no column gates adds nothing and is skipped.
        levelSegBuf.clear();
        unsigned base = ~0u;
        unsigned top = 0; // highest bit a segment's deltas reach
        for (const auto &seg : segs) {
            bool anyGate = false;
            for (unsigned c = 0; c < k && !anyGate; ++c)
                anyGate = gateOf(c, seg.k) != nullptr;
            if (!anyGate)
                continue;
            const RangeTable &tab = rangeTable(seg.bLo, seg.bHi);
            const unsigned shift = seg.bLo + seg.k;
            if (tab.small) {
                levelSegBuf.push_back({tab.delta.data(),
                                       &gateTBatch[seg.k * gateSlice],
                                       shift, 0});
                base = std::min(base, shift);
                top = std::max(top, shift + seg.width());
                continue;
            }
            // Wide range (vertical schedules): element-wise adds per
            // column. A zero delta is an exact no-op on the
            // sign-magnitude accumulator and is skipped.
            for (unsigned c = 0; c < k; ++c) {
                const BitVec *gate = gateOf(c, seg.k);
                if (!gate)
                    continue;
                for (unsigned i = 0; i < blockSize; ++i) {
                    if (!liveBatch[i * kp + c])
                        continue;
                    SignedAcc &acc = accBatch[i * kp + c];
                    for (std::uint32_t e = rowPtr[i];
                         e < rowPtr[i + 1]; ++e) {
                        if (!gate->get(static_cast<std::size_t>(
                                elemCol[e])))
                            continue;
                        if (tab.magW[e].isZero())
                            continue;
                        U256 v = U256::from(tab.magW[e]);
                        v <<= shift;
                        acc.add(tab.negW[e] != 0, v);
                    }
                }
            }
        }
        if (!levelSegBuf.empty()) {
            // A segment's sum enters the partial below
            // maxRowNnz * 2^(top - base), so |partial| <
            // maxRowNnz * nSegs * 2^(top - base): it fits a signed
            // 128-bit word when the three take at most 127 bits.
            const bool perSegment =
                rowSumBits + bitsForCount(levelSegBuf.size()) +
                    (top - base) > 127;
            if (perSegment) {
                ++landingCounts.segmentLevels;
            } else {
                for (LevelSeg &ls : levelSegBuf)
                    ls.rel = ls.shift - base;
                ++landingCounts.partialLevels;
            }
            forChunks([&](auto width, unsigned c0) {
                landSmallLevel<width()>(c0, base, perSegment);
            });
        }

        // Early termination check (between groups), per column.
        if (!cfg.earlyTermination)
            continue;
        for (unsigned c = 0; c < k; ++c) {
            PanelColumn &col = columns[c];
            if (!col.takesPart)
                continue;
            const int remSig =
                levelRemSig[col.widthIdx * nLevels + t];
            if (remSig < 0)
                continue; // grid exhausted; exact completion below
            // Remaining contribution bound: each remaining cell
            // (b, k) contributes at most N * 2^(b+k); at most
            // min(B, K) cells share a significance level, and the
            // geometric sum over levels <= remSig doubles the top
            // one.
            const int bound = remSig + static_cast<int>(nBits) +
                              col.sigCellBits + 2;
            double *const yc = Y.data() + c * n;
            for (unsigned i = 0; i < blockSize; ++i) {
                std::uint64_t &live = liveBatch[i * kp + c];
                if (!live)
                    continue;
                const SignedAcc &acc = accBatch[i * kp + c];
                U256 decoded = acc.mag;
                int boundDec = bound;
                if (cfg.anProtect) {
                    decoded.divSmall(cfg.anConstant);
                    boundDec = bound - anShift + 2;
                }
                if (settled(decoded, boundDec,
                            cfg.targetMantissaBits + 3)) {
                    live = 0;
                    --col.alive;
                    --aliveTotal;
                    ++col.stats.columnsEarlyTerminated;
                    yc[i] = convert(acc, col.outScale, false);
                }
            }
        }
    }

    // Exact completion for rows that never terminated early, then
    // timing.
    for (unsigned c = 0; c < k; ++c) {
        PanelColumn &col = columns[c];
        double *const yc = Y.data() + c * n;
        for (unsigned i = 0; i < blockSize; ++i) {
            if (liveBatch[i * kp + c])
                yc[i] = convert(accBatch[i * kp + c], col.outScale, true);
        }
        ClusterStats &cs = col.stats;
        cs.cycles = cs.groupsExecuted * cfg.size + 12;
        cs.latency = static_cast<double>(cs.cycles) / cfg.xbar.fClkHz;
        cs.energy = cs.arrayEnergy + cs.adcEnergy;
    }

    // Aggregate in column order: bitwise the sum a caller looping
    // single-vector calls and folding their stats would compute.
    ClusterStats agg;
    for (unsigned c = 0; c < k; ++c)
        agg += columns[c].stats;
    if (colStatsOut) {
        colStatsOut->resize(k);
        for (unsigned c = 0; c < k; ++c)
            (*colStatsOut)[c] = columns[c].stats;
    }
    return agg;
}

} // namespace msc
