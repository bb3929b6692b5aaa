/**
 * @file
 * Functional + timing/energy model of one cluster (Section III-B).
 *
 * A cluster is a group of up to 127 bit-slice crossbars with a
 * shift-and-add reduction tree that multiplies one fixed-size matrix
 * block by a vector, in IEEE-754-compatible double precision. The
 * model implements, bit-exactly:
 *
 *  - block alignment to fixed point (exponent range locality, IV-A/B)
 *  - per-block bias encoding of negative values (IV-C)
 *  - AN-code protection of stored operands (IV-E)
 *  - static activation scheduling (vertical/diagonal/hybrid, IV-B)
 *  - per-output early termination with carry/borrow barriers (IV-B)
 *  - final conversion to IEEE-754 under four rounding modes (IV-D)
 *
 * With no device noise, multiply() returns exactly
 * round(sum_j A_ij x_j) per block row, with the rounding applied once
 * to the infinitely-precise sum -- verified against exactDot() by the
 * property tests.
 *
 * Termination soundness note: the paper describes carry absorption
 * for non-negative partial products (Figure 5). Because the running
 * sum here is de-biased per incoming group, contributions are
 * signed, so the criterion is generalized symmetrically: the mantissa
 * is settled once the gap between the remaining-contribution bound
 * and the mantissa contains both a 0 (absorbs the single potential
 * carry) and a 1 (absorbs the single potential borrow). With AN
 * protection on, the check runs on the decoded (divided-by-A) sum.
 */

#ifndef MSC_CLUSTER_CLUSTER_HH
#define MSC_CLUSTER_CLUSTER_HH

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "ancode/ancode.hh"
#include "cluster/schedule.hh"
#include "fixedpoint/align.hh"
#include "fp/float64.hh"
#include "sparse/csr.hh"
#include "xbar/model.hh"

namespace msc {

/** Static configuration of a cluster. */
struct ClusterConfig
{
    unsigned size = 512;
    SchedulePolicy schedule = SchedulePolicy::Hybrid;
    unsigned hybridSkew = 2;
    RoundingMode rounding = RoundingMode::TowardNegInf;
    /** Target significand width. 53 = IEEE double; smaller targets
     *  ("architected to arbitrary precision requirements", paper
     *  abstract) terminate earlier and save slices/energy. */
    unsigned targetMantissaBits = 53;
    bool earlyTermination = true;
    bool anProtect = true;
    std::uint64_t anConstant = 269;
    bool cic = true;
    bool adcHeadstart = true;
    XbarModelParams xbar;
};

/** A dense sub-block of a sparse matrix, in block-local coordinates. */
struct MatrixBlock
{
    std::int32_t rowOrigin = 0;
    std::int32_t colOrigin = 0;
    unsigned size = 0;
    std::vector<Triplet> elems; //!< local row/col in [0, size)
};

/** Result of programming a block into the cluster. */
struct ClusterProgramInfo
{
    unsigned matrixSlices = 0;  //!< crossbars in use (<= 127)
    unsigned storedBits = 0;    //!< operand width before AN coding
    int scale = 0;              //!< fixed-point scale of the block
    std::uint64_t cellsWritten = 0;
    double programTime = 0.0;   //!< seconds
    double programEnergy = 0.0; //!< joules
    unsigned cicInvertedColumns = 0;
    unsigned cicCornerCases = 0;
};

/** Per-multiply statistics. */
struct ClusterStats
{
    unsigned matrixSlices = 0;
    unsigned vectorSlices = 0;
    std::uint64_t groupsTotal = 0;
    std::uint64_t groupsExecuted = 0;
    std::uint64_t xbarActivations = 0;
    std::uint64_t adcConversions = 0;
    std::uint64_t conversionsSkipped = 0;
    std::uint64_t columnsEarlyTerminated = 0;
    std::uint64_t emptyColumns = 0;
    std::uint64_t peeledVectorElements = 0;
    std::uint64_t cycles = 0;
    double latency = 0.0;     //!< seconds
    double energy = 0.0;      //!< joules
    double adcEnergy = 0.0;   //!< joules (subset of energy)
    double arrayEnergy = 0.0; //!< joules (subset of energy)
};

/** Field-wise sum; the panel multiply reports the per-column stats
 *  folded in column order through this, so the aggregate is bitwise
 *  what summing k single-vector results in the same order yields. */
ClusterStats &operator+=(ClusterStats &into, const ClusterStats &s);

/**
 * Functional cluster. program() maps a block; multiply() performs
 * the block MVM at the (matrix slice x vector slice) group
 * granularity the hardware uses. One kernel serves every call: a
 * single vector is the k = 1 panel.
 *
 * Per-cluster scratch makes multiply() non-re-entrant: concurrent
 * callers each need their own Cluster (the operator adapters give
 * every block its own cluster).
 */
class Cluster
{
  public:
    explicit Cluster(const ClusterConfig &config);

    const ClusterConfig &config() const { return cfg; }
    const XbarModel &model() const { return xbarModel; }
    bool programmed() const { return isProgrammed; }
    const ClusterProgramInfo &programInfo() const { return progInfo; }

    /**
     * Program a matrix block. The block must fit the cluster size
     * and the 64-exponent alignment range (the blocking preprocessor
     * guarantees both); otherwise fatal.
     */
    ClusterProgramInfo program(const MatrixBlock &block);

    /**
     * y[i] = round(sum_j block[i][j] * x[j]) for every block row i:
     * the k = 1 case of the panel multiply below.
     *
     * @param x        local input vector (block size)
     * @param y        output (block size); overwritten
     * @param peeled   optional out: indices of vector elements whose
     *                 exponents fell outside the 64-bit alignment
     *                 window; their column contributions are NOT in y
     *                 and must be handled digitally by the caller.
     */
    ClusterStats multiply(std::span<const double> x,
                          std::span<double> y,
                          std::vector<std::int32_t> *peeled = nullptr);

    /**
     * Panel multiply: Y column c = round(block * X column c) for k
     * right-hand sides. Every column is computed independently, so
     * the result is bitwise what k single-vector calls in column
     * order return.
     *
     * @param X       column-major panel, k columns of block size
     * @param Y       column-major output panel; overwritten
     * @param k       number of right-hand sides (>= 1)
     * @param peeled  optional out: resized to k; entry c receives the
     *                peeled vector-element indices of column c (see
     *                the single-vector overload)
     *
     * All k columns share one walk of the schedule levels and one
     * gate transpose, whatever their vector widths; per-column
     * trajectory state (gates, schedule, termination, stats,
     * peeling) is kept independent. Returns the per-column stats
     * folded in column order (operator+=); @p colStats (optional)
     * receives the k per-column records -- callers that fold stats
     * across blocks AND columns (the operator adapters) need them to
     * reproduce the sequential fold order exactly.
     */
    ClusterStats multiply(
        std::span<const double> X, std::span<double> Y, unsigned k,
        std::vector<std::vector<std::int32_t>> *peeled = nullptr,
        std::vector<ClusterStats> *colStats = nullptr);

    /** How the small-range levels of this cluster's multiplies
     *  landed in the accumulators, counted per (call, level): as one
     *  128-bit partial per (row, column), or per segment where the
     *  level's partial could overflow 128 bits. */
    struct LandingCounts
    {
        std::uint64_t partialLevels = 0;
        std::uint64_t segmentLevels = 0;
    };

    const LandingCounts &landings() const { return landingCounts; }

  private:
    /** Signed accumulator in sign-magnitude form. */
    struct SignedAcc
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
     * Settled test: can the top @p prec bits of |acc| still change,
     * given that the remaining contribution is bounded by 2^bound?
     */
    static bool settled(const U256 &mag, int bound, unsigned prec);

    /** Convert a (possibly early-terminated) accumulator. */
    double convert(const SignedAcc &acc, int scale, bool exact) const;

    /**
     * Precomputed per-(bLo, bHi) contribution table: the signed
     * masked difference ((stored & mask) - (storedBias & mask)) >>
     * bLo per element. It depends only on the programmed data, so
     * program() invalidates the cache and every multiply builds a
     * range lazily on first use and reuses it across columns and
     * across calls. Ranges narrow enough for int16 deltas (width <=
     * 15; every skewed schedule in practice) use a flat int16 table;
     * wider ranges fall back to sign + U128 magnitude.
     */
    struct RangeTable
    {
        unsigned bLo = 0;
        bool small = false;
        std::vector<std::int16_t> delta; //!< small: signed deltas
        std::vector<std::uint8_t> negW;  //!< wide: sign per element
        std::vector<U128> magW;          //!< wide: |delta| >> bLo
    };

    /** Per-column state of a panel multiply: the input-dependent
     *  front end (encoded vector, output scale, active slices and
     *  their lookup by slice index, place in the level walk) and
     *  the column's trajectory (alive rows, stats). Members of the
     *  cluster, so steady-state calls reuse the buffers. */
    struct PanelColumn
    {
        BiasedSet ux;
        int outScale = 0;
        std::vector<VectorSlice> vslices; //!< stale past active count
        std::vector<const BitVec *> sliceByK; //!< null: zero slice
        std::size_t widthIdx = 0;  //!< index into widths
        std::size_t joinLevel = 0; //!< level of its first group
        int sigCellBits = 0;
        std::size_t alive = 0;
        bool takesPart = false; //!< joined, rows alive: this level
        ClusterStats stats;
    };

    /** One small-range segment of the current level as the row
     *  kernel reads it: its delta table, the gate transpose of its
     *  vector slice, its weight 2^shift, and its offset above the
     *  shift its row sums land at (0 when landed per segment). */
    struct LevelSeg
    {
        const std::int16_t *delta = nullptr;
        const std::int16_t *gates = nullptr;
        unsigned shift = 0;
        unsigned rel = 0;
    };

    /** Lazily built table for the range (bLo, bHi) of the current
     *  program; stable reference until the next program(). */
    const RangeTable &rangeTable(unsigned bLo, unsigned bHi);

    /**
     * The levels of the configured schedule over a B x K slice grid,
     * in closed form: the skewed family of schedule.hh, with run =
     * skew (B for vertical, 1 for diagonal). Matrix slice b has
     * stagger q = (B - 1 - b) / run, so stagger q covers the run of
     * slices [B - run (q + 1), B - 1 - run q], clipped at 0, and at
     * level t it processes vector slice K - 1 - t + q, valid for q in
     * [qLo(t), qHi(t)]. Adjacent runs differ in k, so each run is one
     * segment; by increasing q they come top run first, as
     * ActivationSchedule orders a group's segments, and no level is
     * empty. Level t is ActivationSchedule group t.
     */
    struct LevelGrid
    {
        unsigned nB = 0;
        unsigned nK = 0;
        unsigned run = 1;
        unsigned maxStagger = 0;

        std::size_t levels() const { return nK + maxStagger; }
        unsigned
        qLo(std::size_t t) const
        {
            return t >= nK ? static_cast<unsigned>(t + 1 - nK) : 0;
        }
        unsigned
        qHi(std::size_t t) const
        {
            return static_cast<unsigned>(
                std::min<std::size_t>(t, maxStagger));
        }
        ScheduleGroup::Segment
        segment(std::size_t t, unsigned q) const
        {
            const unsigned bHi = nB - 1 - run * q;
            return {static_cast<unsigned>(nK - 1 - t + q),
                    bHi + 1 > run ? bHi + 1 - run : 0, bHi};
        }
    };

    /** The grid of the configured schedule over encodedBits x
     *  @p vectorSlices slices. */
    LevelGrid levelGrid(unsigned vectorSlices) const;

    /** Add the signed 128-bit partial @p p (two's complement) times
     *  2^shift to @p a; at most three words of the addend are
     *  nonzero. */
    static void addPartial(SignedAcc &a, unsigned __int128 p,
                           unsigned shift);

    /** The small-range segments of one level (levelSegBuf) for the
     *  alive rows of the K-column chunk at column @p c0: row sums of
     *  gated deltas, gathered into one partial per (column, row)
     *  landed at 2^base, or, with @p perSegment, landed per
     *  segment. */
    template <unsigned K>
    void landSmallLevel(unsigned c0, unsigned base, bool perSegment);

    /** ADC conversion energy of one level's segments @p segs, summed
     *  into the stats of the K-column chunk at column @p c0 of a
     *  k-column panel: per column the same adds in the same order as
     *  a lone call, interleaved across the chunk's columns. */
    template <unsigned K>
    void levelAdcEnergy(unsigned c0, unsigned k,
                        std::span<const ScheduleGroup::Segment> segs);

    /** Call kernel(width, c0) for each column chunk of the current
     *  panel, width a std::integral_constant of chunkWidth. */
    template <typename Kernel>
    void forChunks(Kernel &&kernel);

    /** Exponent-window peeling of an input vector: copy x into
     *  masked with out-of-window elements zeroed, recording their
     *  indices. */
    void peelVector(std::span<const double> x,
                    std::span<double> masked, ClusterStats &stats,
                    std::vector<std::int32_t> *peeled);

    ClusterConfig cfg;
    XbarModel xbarModel;
    AnCode an;

    /** conversionEnergy memoized over ADC start bits (the model call
     *  rebuilds a reference crossbar and evaluates pow() every time;
     *  the table makes the per-conversion energy loop a load). */
    std::vector<double> convEnergyByStart;
    double arrayOpE = 0.0; //!< cached xbarModel.arrayOpEnergy()

    bool isProgrammed = false;
    ClusterProgramInfo progInfo;
    unsigned blockSize = 0;
    int blockScale = 0;            //!< scale of aligned magnitudes
    unsigned storedBits = 0;       //!< width incl. bias (pre-AN)
    unsigned encodedBits = 0;      //!< width of stored operands
    U256 storedBias;               //!< bias word as stored (AN-coded)
    /** Programmed elements, flattened row-major (CSR-like): row i's
     *  entries are [rowPtr[i], rowPtr[i+1]). The multiply hot loop
     *  walks elemCol/contribution tables linearly. */
    std::vector<std::uint32_t> rowPtr;
    std::uint32_t maxRowNnz = 0; //!< bounds a row sum: maxRowNnz * 2^15
    std::vector<std::int32_t> elemCol;
    std::vector<U256> elemStored; //!< biased (and AN-coded) operands
    /** Signed row sums of aligned coefficients (for vector debias). */
    std::vector<SignedAcc> rowSumF;
    /** Per (slice b, block row i), flattened b * blockSize + i: ADC
     *  conversion energy with the headstart preset resolved. Built by
     *  program(); turns the per-group energy accounting into a gated
     *  table sum shared by all RHS columns. */
    std::vector<double> adcConvE;

    // Contribution-table cache (see RangeTable). tableIdx is a dense
    // (encodedBits+1)^2 map from (bLo, bHi) to an index in tables,
    // -1 = not built yet; program() resets it.
    std::vector<RangeTable> tables;
    std::vector<std::int16_t> tableIdx;

    // Reusable per-call scratch, hoisted out of multiply() so
    // steady-state calls stop allocating (the aligners' vectors are
    // the only per-call allocations left): per-column state, the
    // current level's segments, the per-width level tables, the
    // peeled inputs, per-(row, column) accumulators and live flags
    // (cleared as rows terminate), the per-(slice k, element column,
    // column) gate masks, and the current level's row-kernel
    // segments. Per-(row, column) state and gate rows use the padded
    // column stride of the level kernels' chunks: row i, column c at
    // i * colStride + c.
    std::vector<std::pair<int, std::int32_t>> expsScratch;
    std::vector<PanelColumn> columns;
    std::vector<ScheduleGroup::Segment> levelSegs; //!< current level
    std::vector<unsigned> widths;    //!< the panel's distinct widths
    std::vector<unsigned> levelActs; //!< per (width, level)
    std::vector<int> levelRemSig;    //!< per (width, level)
    std::vector<double> maskedBatch;
    unsigned chunkWidth = 1; //!< columns per level-kernel chunk
    unsigned colStride = 1;  //!< k rounded up to whole chunks
    std::vector<SignedAcc> accBatch;
    std::vector<std::uint64_t> liveBatch; //!< ~0: row still converts
    std::vector<std::int16_t> gateTBatch;
    std::vector<LevelSeg> levelSegBuf;
    LandingCounts landingCounts;
    /** The single-vector overload's one-column peel list. */
    std::vector<std::vector<std::int32_t>> peeledOne;
};

} // namespace msc

#endif // MSC_CLUSTER_CLUSTER_HH
