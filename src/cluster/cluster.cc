#include "cluster/cluster.hh"

#include <algorithm>
#include <cmath>

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
    for (unsigned i = 0; i < blockSize; ++i)
        rowPtr[i + 1] += rowPtr[i];
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
Cluster::addSmall(SignedAcc &a, bool neg, std::uint64_t m,
                  unsigned shift)
{
    U256 v;
    const unsigned wi = shift / 64;
    const unsigned bi = shift % 64;
    v.setWord(wi, m << bi);
    if (bi && wi + 1 < U256::numWords)
        v.setWord(wi + 1, m >> (64 - bi));
    a.add(neg, v);
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
    // is shared below.
    maskedBatch.resize(panel);
    accBatch.assign(panel, SignedAcc{});
    doneBatch.assign(panel, 0);
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

        SignedAcc *const acc = accBatch.data() + c * n;
        std::uint8_t *const done = doneBatch.data() + c * n;
        double *const yc = Y.data() + c * n;
        col.alive = 0;
        for (unsigned i = 0; i < blockSize; ++i) {
            if (rowPtr[i + 1] == rowPtr[i]) {
                // Bias cells cancel exactly; the hardware settles
                // these immediately.
                done[i] = 1;
                yc[i] = 0.0;
                ++col.stats.emptyColumns;
                continue;
            }
            ++col.alive;
            // Fold the vector-bias debias constant -bX * rowSumF
            // into the initial running sum (known at apply time).
            U256 init = rowSumF[i].mag << (col.ux.biasBits);
            if (cfg.anProtect)
                init.mulSmall(cfg.anConstant);
            acc[i].neg = !rowSumF[i].neg;
            acc[i].mag = init;
            if (init.isZero())
                acc[i].neg = false;
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
    // and every width ends on the same level. So one schedule, for
    // the panel's widest column, serves all k: a column of width W
    // joins the level walk at group maxBits - W and, at each level,
    // owns the segments with k < W. One walk over the levels shares
    // the inner loop across all k columns whatever their widths.
    unsigned maxBits = 0;
    for (unsigned c = 0; c < k; ++c)
        maxBits = std::max(maxBits, columns[c].ux.width());
    const ActivationSchedule schedule(encodedBits, maxBits,
                                      cfg.schedule, cfg.hybridSkew);
    const auto &levels = schedule.groups();
    const std::size_t nLevels = levels.size();

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
            for (const auto &seg : levels[t].segments) {
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
    // level loop takes references (rangeTable() may reallocate).
    for (const ScheduleGroup &group : levels) {
        for (const auto &seg : group.segments)
            rangeTable(seg.bLo, seg.bHi);
    }

    // Gate transpose: per (vector slice k, element column j) a
    // k-wide 0/1 row, so the inner loop reads the gates of all
    // columns in one contiguous stride instead of probing k bitmaps
    // per element. Slices past a column's width stay 0.
    gateTBatch.assign(static_cast<std::size_t>(maxBits) * panel, 0);
    for (unsigned c = 0; c < k; ++c) {
        const auto &sliceByK = columns[c].sliceByK;
        for (unsigned kc = 0; kc < sliceByK.size(); ++kc) {
            const BitVec *gate = sliceByK[kc];
            if (!gate)
                continue;
            std::int8_t *gT = &gateTBatch[kc * panel];
            gate->forEachSetBit([&](std::size_t j) {
                gT[j * k + c] = 1;
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

    sumBatch.assign(k, 0);
    actBatch.assign(k, 0);

    // --- level-granular execution (all columns) ---------------------
    for (std::size_t t = 0; t < nLevels && aliveTotal > 0; ++t) {
        const auto &segs = levels[t].segments;

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
            if (col.alive == 0 || t < col.joinLevel)
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
            const unsigned w = col.ux.width();
            const std::uint8_t *done = doneBatch.data() + c * n;
            for (const auto &seg : segs) {
                if (seg.k >= w)
                    continue;
                for (unsigned b = seg.bLo; b <= seg.bHi; ++b) {
                    const double *ce = &adcConvE[b * n];
                    for (unsigned i = 0; i < blockSize; ++i) {
                        if (done[i])
                            continue;
                        cs.adcEnergy += ce[i];
                    }
                }
            }
        }

        // Functional contribution, k-wide. Within a group the
        // sign-magnitude adds are exact integer arithmetic, so the
        // accumulator value after the group is invariant under
        // regrouping: a row's gated int16 deltas collapse into one
        // int32 sum per column (bounded by nnz * 2^15 < 2^31) and
        // land in a single two-word add -- bitwise the state
        // element-order adds reach, and the termination checks that
        // observe it only run between groups. A segment outside a
        // column's group has slice >= its width, so its gates are 0
        // and the column's sum stays 0: no add.
        for (const auto &seg : segs) {
            bool anyGate = false;
            for (unsigned c = 0; c < k && !anyGate; ++c)
                anyGate = gateOf(c, seg.k) != nullptr;
            if (!anyGate)
                continue;
            const RangeTable &tab = rangeTable(seg.bLo, seg.bHi);
            const unsigned shift = seg.bLo + seg.k;
            if (tab.small) {
                const std::int8_t *gT = &gateTBatch[seg.k * panel];
                const std::int16_t *d = tab.delta.data();
                std::int32_t *const s = sumBatch.data();
                std::uint8_t *const act = actBatch.data();
                for (unsigned i = 0; i < blockSize; ++i) {
                    bool anyAlive = false;
                    for (unsigned c = 0; c < k; ++c) {
                        const bool a = !doneBatch[c * n + i];
                        act[c] = a ? 1 : 0;
                        anyAlive |= a;
                    }
                    if (!anyAlive)
                        continue;
                    for (unsigned c = 0; c < k; ++c)
                        s[c] = 0;
                    for (std::uint32_t e = rowPtr[i];
                         e < rowPtr[i + 1]; ++e) {
                        const std::int32_t dv = d[e];
                        if (dv == 0)
                            continue;
                        const std::int8_t *gr = &gT[
                            static_cast<std::size_t>(elemCol[e]) * k];
                        for (unsigned c = 0; c < k; ++c)
                            s[c] += dv * gr[c];
                    }
                    for (unsigned c = 0; c < k; ++c) {
                        if (!act[c])
                            continue;
                        const std::int32_t m = s[c];
                        if (m == 0)
                            continue;
                        addSmall(accBatch[c * n + i], m < 0,
                                 static_cast<std::uint64_t>(
                                     m < 0
                                         ? -static_cast<std::int64_t>(m)
                                         : m),
                                 shift);
                    }
                }
            } else {
                // Wide range (vertical schedules): element-wise adds
                // per column. A zero delta is an exact no-op on the
                // sign-magnitude accumulator and is skipped.
                for (unsigned c = 0; c < k; ++c) {
                    const BitVec *gate = gateOf(c, seg.k);
                    if (!gate)
                        continue;
                    SignedAcc *const acc = accBatch.data() + c * n;
                    const std::uint8_t *done = doneBatch.data() + c * n;
                    for (unsigned i = 0; i < blockSize; ++i) {
                        if (done[i])
                            continue;
                        for (std::uint32_t e = rowPtr[i];
                             e < rowPtr[i + 1]; ++e) {
                            if (!gate->get(static_cast<std::size_t>(
                                    elemCol[e])))
                                continue;
                            if (tab.magW[e].isZero())
                                continue;
                            U256 v = U256::from(tab.magW[e]);
                            v <<= shift;
                            acc[i].add(tab.negW[e] != 0, v);
                        }
                    }
                }
            }
        }

        // Early termination check (between groups), per column.
        if (!cfg.earlyTermination)
            continue;
        for (unsigned c = 0; c < k; ++c) {
            PanelColumn &col = columns[c];
            if (col.alive == 0 || t < col.joinLevel)
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
            SignedAcc *const acc = accBatch.data() + c * n;
            std::uint8_t *const done = doneBatch.data() + c * n;
            double *const yc = Y.data() + c * n;
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
                    --col.alive;
                    --aliveTotal;
                    ++col.stats.columnsEarlyTerminated;
                    yc[i] = convert(acc[i], col.outScale, false);
                }
            }
        }
    }

    // Exact completion for rows that never terminated early, then
    // timing.
    for (unsigned c = 0; c < k; ++c) {
        PanelColumn &col = columns[c];
        const SignedAcc *acc = accBatch.data() + c * n;
        const std::uint8_t *done = doneBatch.data() + c * n;
        double *const yc = Y.data() + c * n;
        for (unsigned i = 0; i < blockSize; ++i) {
            if (!done[i])
                yc[i] = convert(acc[i], col.outScale, true);
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
