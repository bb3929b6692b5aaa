#include "cluster/hw_cluster.hh"

#include <algorithm>
#include <bit>

#include "fault/fault.hh"
#include "util/logging.hh"
#include "util/telemetry.hh"
#include "util/threadpool.hh"

namespace msc {

namespace {

// ADC activity and AN-code outcomes per multiply, recorded from the
// merged stats on the calling thread (deterministic totals).
constinit telemetry::Counter ctrAdc{"hw.adc_conversions"};
constinit telemetry::Counter ctrAnClean{"hw.an_clean"};
constinit telemetry::Counter ctrAnCorrected{"hw.an_corrected"};
constinit telemetry::Counter
    ctrAnUncorrectable{"hw.an_uncorrectable"};
constinit telemetry::Counter
    ctrCicInverted{"hw.cic_inverted_columns"};

/**
 * Exact, unfaulted reduction of one (row, vector-slice) scan: counts
 * are <= blockSize, so the whole shift-and-add reduction fits a raw
 * 4-limb accumulator with explicit carry chains -- the same integer
 * sum addShifted computes, without a U256 temporary per read.
 * Overflow past limb 3 is discarded exactly as addShifted discards
 * bits above 2^256.
 */
inline U256
reduceRowSlice(const std::uint64_t *rowCols,
               const std::uint8_t *rowInv, const std::uint64_t *in,
               std::uint64_t pc, unsigned nSlices, unsigned nw)
{
    std::uint64_t rw[4] = {0, 0, 0, 0};
    const auto spill = [&rw](unsigned wi, std::uint64_t v) {
        while (v && wi < 4) {
            const std::uint64_t old = rw[wi];
            rw[wi] = old + v;
            v = rw[wi] < old ? 1 : 0;
            ++wi;
        }
    };
    if (nw == 1) {
        // Blocks up to 64 wide: a column read is one
        // word-AND-popcount; keep the scan branchless on memory and
        // stride-1 on rowCols.
        const std::uint64_t in0 = in[0];
        for (unsigned b = 0; b < nSlices; ++b) {
            std::uint64_t n = static_cast<std::uint64_t>(
                std::popcount(rowCols[b] & in0));
            // Exact reads never exceed pc, so the CIC correction
            // cannot go negative here.
            if (rowInv[b])
                n = pc - n;
            if (!n)
                continue;
            const unsigned wi = b / 64;
            const unsigned bi = b % 64;
            spill(wi, n << bi);
            if (bi)
                spill(wi + 1, n >> (64 - bi));
        }
    } else {
        for (unsigned b = 0; b < nSlices; ++b) {
            const std::uint64_t *cw =
                rowCols + static_cast<std::size_t>(b) * nw;
            std::uint64_t n = 0;
            for (unsigned w = 0; w < nw; ++w)
                n += static_cast<std::uint64_t>(
                    std::popcount(cw[w] & in[w]));
            if (rowInv[b])
                n = pc - n;
            if (!n)
                continue;
            const unsigned wi = b / 64;
            const unsigned bi = b % 64;
            spill(wi, n << bi);
            if (bi)
                spill(wi + 1, n >> (64 - bi));
        }
    }
    U256 reduced;
    for (unsigned w = 0; w < 4; ++w)
        reduced.setWord(w, rw[w]);
    return reduced;
}

} // namespace

HwClusterStats &
operator+=(HwClusterStats &into, const HwClusterStats &s)
{
    into.sliceWords += s.sliceWords;
    into.cleanWords += s.cleanWords;
    into.correctedWords += s.correctedWords;
    into.uncorrectableWords += s.uncorrectableWords;
    into.cicInvertedColumns += s.cicInvertedColumns;
    return into;
}

HwCluster::HwCluster(const Config &config)
    : cfg(config), an(config.anConstant, fxp::operandBits)
{
    if (cfg.size < 2)
        fatal("HwCluster: size must be >= 2");
}

void
HwCluster::program(const MatrixBlock &block)
{
    if (block.size == 0 || block.size > cfg.size)
        fatal("HwCluster::program: block does not fit");
    blockSize = block.size;

    std::vector<double> vals;
    vals.reserve(block.elems.size());
    for (const auto &t : block.elems) {
        if (t.row < 0 || t.col < 0 ||
            t.row >= static_cast<std::int32_t>(blockSize) ||
            t.col >= static_cast<std::int32_t>(blockSize))
            fatal("HwCluster::program: element outside block");
        vals.push_back(t.val);
    }
    const AlignedSet aligned = alignValues(vals);
    const BiasedSet biased = biasEncode(aligned);
    blockScale = aligned.scale;
    storedBias = cfg.anProtect ? an.encode(biased.bias())
                               : U256::from(biased.bias());

    // Dense stored-word grid: zero cells hold the bias pattern.
    std::vector<U256> stored(
        static_cast<std::size_t>(blockSize) * blockSize, storedBias);
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
        RowSum &rs = rowSumF[static_cast<std::size_t>(t.row)];
        SignedWord tmp{rs.neg, rs.mag};
        tmp.add(aligned.neg[e] != 0, U256::from(aligned.mag[e]));
        rs.neg = tmp.neg;
        rs.mag = tmp.mag;
    }
    if (nSlices > fxp::encodedBits)
        panic("HwCluster::program: operand too wide");

    // Materialize one binary crossbar per bit slice. Crossbar row =
    // block column (vector input); crossbar column = block row.
    slices.assign(nSlices, BinaryCrossbar(blockSize, blockSize));
    for (unsigned i = 0; i < blockSize; ++i) {
        for (unsigned j = 0; j < blockSize; ++j) {
            const U256 &word =
                stored[static_cast<std::size_t>(i) * blockSize + j];
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
    programmed = true;
}

void
HwCluster::injectStuckCell(unsigned slice, unsigned blockRow,
                           unsigned blockCol, bool value)
{
    if (!programmed)
        fatal("HwCluster::injectStuckCell: program() first");
    if (slice >= nSlices)
        fatal("HwCluster::injectStuckCell: no such slice");
    // The physical cell stores the (possibly CIC-inverted) bit.
    const bool stored = slices[slice].columnInverted(blockRow)
        ? !value : value;
    slices[slice].set(blockCol, blockRow, stored);
}

void
HwCluster::flipCell(unsigned slice, unsigned blockRow,
                    unsigned blockCol)
{
    if (!programmed)
        fatal("HwCluster::flipCell: program() first");
    if (slice >= nSlices)
        fatal("HwCluster::flipCell: no such slice");
    const bool cur = slices[slice].get(blockCol, blockRow);
    slices[slice].set(blockCol, blockRow, !cur);
}

void
HwCluster::killSlice(unsigned slice)
{
    if (!programmed)
        fatal("HwCluster::killSlice: program() first");
    if (slice >= nSlices)
        fatal("HwCluster::killSlice: no such slice");
    slices[slice].clear();
}

std::size_t
HwCluster::scrub() const
{
    if (!programmed)
        fatal("HwCluster::scrub: program() first");
    if (!cfg.anProtect)
        return 0;
    std::size_t corrupt = 0;
    for (unsigned i = 0; i < blockSize; ++i) {
        for (unsigned j = 0; j < blockSize; ++j) {
            // Reconstruct the logical stored word at block (i, j):
            // crossbar row j, column i, un-inverting CIC columns.
            U256 word;
            for (unsigned b = 0; b < nSlices; ++b) {
                bool bit = slices[b].get(j, i);
                if (slices[b].columnInverted(i))
                    bit = !bit;
                if (bit)
                    word.setBit(b);
            }
            if (!an.check(word))
                ++corrupt;
        }
    }
    return corrupt;
}

void
HwCluster::flattenColumns(unsigned nw)
{
    colWordsScratch.resize(
        static_cast<std::size_t>(blockSize) * nSlices * nw);
    colInvScratch.resize(
        static_cast<std::size_t>(blockSize) * nSlices);
    for (unsigned b = 0; b < nSlices; ++b) {
        for (unsigned i = 0; i < blockSize; ++i) {
            const auto &words = slices[b].column(i).raw();
            std::uint64_t *dst = &colWordsScratch[
                (static_cast<std::size_t>(i) * nSlices + b) * nw];
            for (unsigned w = 0; w < nw; ++w)
                dst[w] = words[w];
            colInvScratch[static_cast<std::size_t>(i) * nSlices + b] =
                slices[b].columnInverted(i) ? 1 : 0;
        }
    }
}

HwClusterStats
HwCluster::multiply(std::span<const double> x, std::span<double> y,
                    Rng *rng)
{
    return multiply(x, y, 1, rng);
}

HwClusterStats
HwCluster::multiply(std::span<const double> X, std::span<double> Y,
                    unsigned k, Rng *rng)
{
    if (!programmed)
        fatal("HwCluster::multiply: program() first");
    if (k == 0)
        fatal("HwCluster::multiply: batch needs at least one column");
    const std::size_t n = blockSize;
    if (X.size() != n * k || Y.size() != n * k)
        fatal("HwCluster::multiply: panel size mismatch");

    telemetry::Span span("hw.multiply");
    HwClusterStats stats;
    for (const auto &xbar : slices) {
        for (unsigned i = 0; i < blockSize; ++i)
            stats.cicInvertedColumns +=
                xbar.columnInverted(i) ? 1 : 0;
    }
    // Every column reports the same census.
    stats.cicInvertedColumns *= k;

    // 1. Per-column front end. Vector alignment (no peeling here:
    // the verification harness feeds in-range vectors; out-of-range
    // input is a fatal), then the active vector slices (MSB first),
    // shared read-only by every output row. The de-bias term of a
    // reduced word, storedBias * popcount(slice), depends only on
    // the slice, so it is precomputed here instead of per (row,
    // slice) in the scan. Running sums start from the folded
    // vector-bias correction -bX * rowSumF (known at apply time).
    accScratch.assign(n * k, SignedWord{});
    columns.resize(k);
    for (unsigned c = 0; c < k; ++c) {
        PanelColumn &col = columns[c];
        const AlignedSet vx = alignValues(X.subspan(c * n, n));
        const BiasedSet ux = biasEncode(vx);
        col.outScale = blockScale + vx.scale;
        col.nActive = activeBitSlices(ux, col.vslices);
        col.biasTerms.clear();
        for (std::size_t si = 0; si < col.nActive; ++si) {
            U256 term = storedBias;
            term.mulSmall(col.vslices[si].pc);
            col.biasTerms.push_back(term);
        }
        SignedWord *const acc = accScratch.data() + c * n;
        for (unsigned i = 0; i < blockSize; ++i) {
            U256 init = rowSumF[i].mag << ux.biasBits;
            if (cfg.anProtect)
                init.mulSmall(cfg.anConstant);
            acc[i].neg = !rowSumF[i].neg;
            acc[i].mag = init;
            if (init.isZero())
                acc[i].neg = false;
        }
    }

    // Exact reads are popcounts against the stored column bits, so
    // flatten every (row, slice) column into one contiguous word
    // matrix up front -- [row][slice][word], inner scan order -- and
    // hoist the CIC flags next to it. One multiply reads each column
    // once per active slice of every vector; the flatten pays the
    // BitVec indirections once instead of per read. Analog reads
    // keep drawing through the device model, which owns the noise
    // stream order.
    const unsigned nw =
        static_cast<unsigned>((blockSize + 63) / 64);
    if (!cfg.analogReads)
        flattenColumns(nw);
    const ColumnReadModel readModel(cfg.cell);
    const bool fastReads = !cfg.analogReads && !injector;

    // One output row of column c through every active slice: steps
    // 2-6 of the dataflow. Rows and columns are independent of each
    // other.
    auto scanRow = [&](unsigned i, unsigned c, Rng *rowRng,
                       HwClusterStats &st) {
        const PanelColumn &col = columns[c];
        SignedWord &a = accScratch[c * n + i];
        const std::uint64_t *rowCols = cfg.analogReads
            ? nullptr
            : &colWordsScratch[
                  static_cast<std::size_t>(i) * nSlices * nw];
        const std::uint8_t *rowInv = cfg.analogReads
            ? nullptr
            : &colInvScratch[static_cast<std::size_t>(i) * nSlices];
        for (std::size_t si = 0; si < col.nActive; ++si) {
            const VectorSlice &vs = col.vslices[si];
            const std::uint64_t *in = vs.bits.raw().data();
            // 2. + 3. ADC scans and shift-and-add reduction.
            U256 reduced;
            if (fastReads) {
                reduced = reduceRowSlice(rowCols, rowInv, in, vs.pc,
                                         nSlices, nw);
            } else {
                for (unsigned b = 0; b < nSlices; ++b) {
                    std::int64_t count;
                    bool invertedCol;
                    if (cfg.analogReads) {
                        count = slices[b].readColumnNoisy(
                            i, vs.bits, readModel, rowRng);
                        invertedCol = slices[b].columnInverted(i);
                    } else {
                        const std::uint64_t *cw = rowCols +
                            static_cast<std::size_t>(b) * nw;
                        std::uint64_t pop = 0;
                        for (unsigned w = 0; w < nw; ++w)
                            pop += static_cast<std::uint64_t>(
                                std::popcount(cw[w] & in[w]));
                        count = static_cast<std::int64_t>(pop);
                        invertedCol = rowInv[b] != 0;
                    }
                    // Transient upsets and stuck ADC columns strike
                    // the raw conversion, before the digital CIC
                    // correction.
                    if (injector) {
                        count = injector->faultedRead(
                            b, i, count,
                            static_cast<std::int64_t>(blockSize));
                    }
                    if (invertedCol) {
                        count =
                            static_cast<std::int64_t>(vs.pc) - count;
                        // An analog over-read can push the digital
                        // CIC correction negative; clamp like
                        // hardware would.
                        count = std::max<std::int64_t>(count, 0);
                    }
                    U256 contrib(static_cast<std::uint64_t>(count));
                    reduced.addShifted(contrib, b);
                }
            }
            ++st.sliceWords;

            // 4. de-bias: subtract storedBias * popcount.
            const U256 &biasTerm = col.biasTerms[si];
            SignedWord word;
            if (reduced >= biasTerm) {
                word.neg = false;
                word.mag = reduced - biasTerm;
            } else {
                word.neg = true;
                word.mag = biasTerm - reduced;
            }

            // 5. AN correction on the de-biased (signed) word.
            if (cfg.anProtect) {
                switch (an.correctSigned(word.mag, word.neg)) {
                  case AnCode::Outcome::Clean:
                    ++st.cleanWords;
                    break;
                  case AnCode::Outcome::Corrected:
                    ++st.correctedWords;
                    break;
                  case AnCode::Outcome::Uncorrectable:
                    ++st.uncorrectableWords;
                    break;
                }
            } else {
                ++st.cleanWords;
            }

            // 6. update the running sum at weight 2^k.
            a.add(word.neg, word.mag << vs.k);
        }
    };

    // Exact reads with no injector scan all k columns inside one
    // row-parallel pass. Analog reads and an attached injector own
    // the order of their noise draws and fault streams, so they scan
    // one column at a time, each exactly as a single-vector call
    // does. The stats are order-independent integer totals, so the
    // per-row merge equals k sequential merges.
    const unsigned chunk = fastReads ? k : 1;
    std::vector<Rng> rowRngs;
    for (unsigned c0 = 0; c0 < k; c0 += chunk) {
        if (injector) {
            // faultedRead mutates shared injector state (its
            // transient stream and counters), so an attached
            // injector pins the scan to the sequential row order.
            for (unsigned i = 0; i < blockSize; ++i)
                scanRow(i, c0, rng, stats);
            continue;
        }
        // Per-row noise streams are split off the caller's
        // generator just before the column's scan, in row order, so
        // the draws a row sees depend only on its index -- never on
        // the lane count.
        rowRngs.clear();
        if (cfg.analogReads && rng) {
            for (unsigned i = 0; i < blockSize; ++i)
                rowRngs.emplace_back(rng->next());
        }
        partScratch.assign(blockSize, HwClusterStats{});
        parallelFor(blockSize, [&](std::size_t i) {
            Rng *rowRng = rowRngs.empty() ? nullptr : &rowRngs[i];
            for (unsigned c = c0; c < c0 + chunk; ++c) {
                scanRow(static_cast<unsigned>(i), c, rowRng,
                        partScratch[i]);
            }
        });
        for (const HwClusterStats &p : partScratch)
            stats += p;
    }

    // Final conversion, column-major like the sequential calls:
    // decode and round.
    for (unsigned c = 0; c < k; ++c) {
        const SignedWord *acc = accScratch.data() + c * n;
        double *const yc = Y.data() + c * n;
        for (unsigned i = 0; i < blockSize; ++i) {
            U256 mag = acc[i].mag;
            if (cfg.anProtect) {
                const std::uint64_t rem =
                    mag.divSmall(cfg.anConstant);
                if (rem != 0) {
                    // Residual uncorrected damage: fold the
                    // remainder away (truncation) and count it.
                    ++stats.uncorrectableWords;
                }
            }
            yc[i] = fixedToDouble(acc[i].neg, mag, columns[c].outScale,
                                  cfg.rounding);
        }
    }
    // Every reduced word took one ADC conversion per weight slice.
    ctrAdc.add(stats.sliceWords * nSlices);
    ctrAnClean.add(stats.cleanWords);
    ctrAnCorrected.add(stats.correctedWords);
    ctrAnUncorrectable.add(stats.uncorrectableWords);
    ctrCicInverted.add(stats.cicInvertedColumns);
    return stats;
}

} // namespace msc
