/**
 * @file
 * The three workloads. NOTES.md says why each exists and which
 * ROADMAP item it guards. The sizes keep each workload's hot data
 * small (per-core L2 is 2 MiB on the reference host) so runs repeat,
 * and no size depends on the seed, so that different seeds measure
 * the same amount of work. For the same reason the operators of the
 * two in-memory workloads are fixed: CG iteration counts differ by
 * up to 30% between matrices of one shape, which two or sixteen
 * operators do not average out. The seed draws their right-hand
 * sides and the whole request stream, and every matrix file of
 * cold_files, where a run averages over hundreds of matrices.
 */

#include <cmath>
#include <filesystem>

#include "bench.hh"
#include "sparse/binio.hh"
#include "sparse/gen.hh"
#include "sparse/matrix_market.hh"
#include "util/logging.hh"

namespace e2e {

using namespace msc;

namespace {

std::uint64_t
mix(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** SPD tiled band matrix of a fixed shape. */
Csr
spdMatrix(std::int32_t rows, std::int32_t tile, std::uint64_t seed,
          double dominance = 0.05, double expSigma = 1.0)
{
    TiledParams p;
    p.values.tileExpSigma = 2.0 * expSigma;
    p.values.elemExpSigma = expSigma;
    p.rows = rows;
    p.tile = tile;
    p.tileDensity = 0.3;
    p.spd = true;
    p.symmetricPattern = true;
    p.diagDominance = dominance;
    p.seed = seed;
    return genTiled(p);
}

System
inMemorySystem(Csr m, unsigned rhsCount, std::uint64_t seed)
{
    System s;
    s.matrix = std::move(m);
    Rng rng(seed);
    const auto n = static_cast<std::size_t>(s.matrix.rows());
    s.rhs.resize(rhsCount);
    for (auto &b : s.rhs) {
        b.resize(n);
        for (double &v : b)
            v = rng.uniform(-1.0, 1.0);
    }
    return s;
}

void
configureQueues(Workload &w, unsigned window, unsigned shards)
{
    w.service.workers = 0;
    w.service.scheduler.queueCapacity = w.outstanding;
    w.service.scheduler.defaultTickets =
        static_cast<int>(w.outstanding);
    w.service.scheduler.batchWindow = window;
    w.service.scheduler.shards = shards;
}

/**
 * Bit-sliced cluster arithmetic on two small operators. Coalesced
 * CG panels take the k-column multiply, BiCGSTAB the single-RHS one.
 */
Workload
bitexactPanels(std::uint64_t seed)
{
    Workload w;
    w.name = "bitexact_panels";
    // One lane, not two: at two lanes the block fan-out waits on
    // whichever vCPU the host has just lent away. Four runs of each
    // ranged 9.7..11.0 solves/s at two lanes, 6.0..6.3 at one.
    w.lanes = 1;
    w.outstanding = 16;
    w.warmupRequests = 8;
    w.tracedRequests = 96;
    configureQueues(w, 8, 1);
    w.op.backend = ServiceBackend::ClusterBitExact;
    // 16-wide blocks, narrow coefficient exponents: CG converges in
    // about twenty iterations of a few milliseconds. A lockstep panel
    // runs until its slowest column converges, so a large RHS pool
    // keeps the seed from moving the mean panel length.
    w.op.blocking.sizes = {16};
    w.op.blocking.densityFactor = 2.0;
    w.tenants = {"t0", "t1", "t2", "t3"};
    w.weights = {1.0, 1.0, 1.0, 1.0};
    for (std::uint32_t i = 0; i < 2; ++i)
        w.systems.push_back(inMemorySystem(
            spdMatrix(64, 16, 6801 + 2 * i, 0.3, 0.25), 64,
            mix(seed, 200 + i)));
    // The mix is a fixed pattern, not a draw: with a few hundred
    // solves per run, a seeded one-in-eight BiCGSTAB share (each costs
    // about four CG solves) would move the work per run by several
    // percent from seed to seed.
    w.draw = [](std::uint64_t n, Rng &rng) {
        RequestSpec s;
        s.system = static_cast<std::uint32_t>(n % 2);
        s.rhs = static_cast<std::uint32_t>(rng.below(64));
        s.tenant = static_cast<std::uint32_t>(n % 4);
        s.kind = n % 8 == 7 ? SolverKind::BiCgStab : SolverKind::Cg;
        s.tolerance = 1e-6;
        s.maxIterations = 200;
        return s;
    };
    return w;
}

/**
 * Many tenants, many small Accel operators, four shards: admission,
 * fair-share/EDF dispatch, coalescing, prepare-cache hits and solver
 * vector work share the time.
 */
Workload
tenantFleet(std::uint64_t seed)
{
    Workload w;
    w.name = "tenant_fleet";
    w.lanes = 1;
    w.outstanding = 32;
    w.warmupRequests = 8000;
    w.tracedRequests = 4000;
    configureQueues(w, 8, 4);
    w.op.backend = ServiceBackend::Accel;
    w.tenants = {"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"};
    w.weights = {1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 4.0, 6.0};
    for (std::uint32_t i = 0; i < 16; ++i)
        w.systems.push_back(inMemorySystem(
            spdMatrix(64 + 4 * static_cast<std::int32_t>(i), 16,
                      7001 + i, 0.3, 0.25),
            8, mix(seed, 400 + i)));
    w.draw = [](std::uint64_t, Rng &rng) {
        RequestSpec s;
        s.system = static_cast<std::uint32_t>(rng.below(16));
        s.rhs = static_cast<std::uint32_t>(rng.below(8));
        s.tenant = static_cast<std::uint32_t>(rng.below(8));
        s.tolerance = 1e-8;
        s.maxIterations = 1000;
        const std::uint64_t k = rng.below(20);
        s.kind = k < 12   ? SolverKind::Cg
                 : k < 17 ? SolverKind::BiCgStab
                          : SolverKind::Gmres;
        // A deadline far beyond any run: it only steers EDF order,
        // so an expiry is a failure.
        if (rng.below(5) == 0)
            s.deadlineNs = static_cast<std::int64_t>(
                (300 + rng.below(300)) * 1000000000ULL);
        // A few long CG solves yield once at a checkpoint (the
        // deterministic stand-in for deadline-driven preemption).
        if (rng.below(32) == 0) {
            s.kind = SolverKind::Cg;
            s.tolerance = 1e-12;
            s.yieldAfterChecks = 8 + rng.below(8);
        }
        return s;
    };
    return w;
}

/**
 * Every request names a file the caches do not hold: parse or map,
 * blocking, prepare, cache insert and evict. Half the files carry a
 * packed sidecar. The set-up and traced passes use each file once;
 * a timed run cycles through the pool, and as both LRU caps hold an
 * eighth of it, a revisit is a miss too. The pool is kept small
 * because set-up writes it to the checkout's disk, where writing
 * tens of megabytes made set-up time drift with the host's
 * write-back load.
 */
Workload
coldFiles(std::uint64_t seed, const std::string &workDir)
{
    Workload w;
    w.name = "cold_files";
    w.lanes = 1;
    w.outstanding = 4;
    w.warmupRequests = 128;
    w.tracedRequests = 128;
    configureQueues(w, 1, 1);
    w.op.backend = ServiceBackend::Accel;
    w.tenants = {"t0", "t1", "t2", "t3"};
    w.weights = {1.0, 1.0, 1.0, 1.0};

    constexpr std::uint32_t kFiles = 256;
    std::filesystem::create_directories(workDir);
    std::size_t preparedBytes = 0;
    std::size_t loadedBytes = 0;
    for (std::uint32_t i = 0; i < kFiles; ++i) {
        System s = inMemorySystem(
            spdMatrix(64 + 64 * static_cast<std::int32_t>(i % 4), 16,
                      mix(seed, 1000 + i), 0.3),
            1, mix(seed, 50000 + i));
        s.file = workDir + "/m" + std::to_string(i) + ".mtx";
        writeMatrixMarket(s.matrix, s.file);
        const bool sidecar = (i / 4) % 2 == 1; // half of each size class
        const std::size_t csrBytes =
            s.matrix.nnz() * 12 +
            (static_cast<std::size_t>(s.matrix.rows()) + 1) * 8;
        if (sidecar) {
            // Written after the text, so it is never stale. No
            // stored plan: every miss runs planBlocks.
            const std::string side = artifactSidecarPath(s.file);
            writeArtifact(side, s.matrix);
            loadedBytes += std::filesystem::file_size(side);
        } else {
            loadedBytes += csrBytes;
        }
        preparedBytes += csrBytes + s.matrix.nnz() * 12;
        w.systems.push_back(std::move(s));
    }
    w.service.cacheBytes = preparedBytes / 8;
    w.service.loadedCapBytes = loadedBytes / 8;
    w.draw = [](std::uint64_t n, Rng &) {
        RequestSpec s;
        s.system = static_cast<std::uint32_t>(n % kFiles);
        s.tenant = static_cast<std::uint32_t>(n % 4);
        s.kind = SolverKind::Cg;
        s.tolerance = 1e-6;
        s.maxIterations = 1000;
        return s;
    };
    return w;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "bitexact_panels", "tenant_fleet", "cold_files"};
    return names;
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed,
             const std::string &workDir)
{
    if (name == "bitexact_panels")
        return bitexactPanels(seed);
    if (name == "tenant_fleet")
        return tenantFleet(seed);
    if (name == "cold_files")
        return coldFiles(seed, workDir);
    fatal("e2ebench: unknown workload ", name);
}

std::unique_ptr<SolverService>
startService(const Workload &w)
{
    auto svc = std::make_unique<SolverService>(w.service);
    for (std::size_t t = 0; t < w.tenants.size(); ++t)
        svc->setTenantWeight(w.tenants[t], w.weights[t]);
    return svc;
}

SolveRequest
toRequest(const Workload &w, const RequestSpec &spec)
{
    const System &s = w.systems[spec.system];
    SolveRequest req;
    req.tenant = w.tenants[spec.tenant];
    if (s.file.empty())
        req.matrix = &s.matrix;
    else
        req.matrixFile = s.file;
    req.op = w.op;
    req.b = s.rhs[spec.rhs];
    req.kind = spec.kind;
    req.tolerance = spec.tolerance;
    req.maxIterations = spec.maxIterations;
    req.deadline = std::chrono::nanoseconds(spec.deadlineNs);
    req.yieldAfterChecks = spec.yieldAfterChecks;
    return req;
}

bool
answerOk(const Workload &w, const RequestSpec &spec,
         const RequestResult &r, double *rel)
{
    if (r.status != SolveStatus::Converged)
        return false;
    const System &s = w.systems[spec.system];
    const std::vector<double> &b = s.rhs[spec.rhs];
    if (r.x.size() != b.size())
        return false;
    std::vector<double> ax(b.size());
    s.matrix.spmv(r.x, ax);
    double rr = 0.0;
    double bb = 0.0;
    for (std::size_t i = 0; i < b.size(); ++i) {
        const double d = b[i] - ax[i];
        rr += d * d;
        bb += b[i] * b[i];
    }
    const double res = std::sqrt(rr) / std::sqrt(bb);
    if (rel)
        *rel = res;
    return std::isfinite(res) && res <= kResidualSlack * spec.tolerance;
}

} // namespace e2e
