/**
 * @file
 * Shared types of the end-to-end service benchmark: workloads and
 * their seeded request streams, the closed loop over
 * SolverService, the in-memory span recorder, and the layer replay.
 *
 * Everything here drives the library through its public entry
 * points only. Spans are taken around those calls from benchmark
 * code; the library's own telemetry stays off.
 */

#ifndef E2EBENCH_BENCH_HH
#define E2EBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "service/service.hh"
#include "util/random.hh"

namespace e2e {

/** Monotonic wall clock in nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** A Converged answer passes when its true relative residual,
 *  recomputed with plain Csr::spmv, is within this multiple of the
 *  request's tolerance. */
constexpr double kResidualSlack = 10.0;

/** One linear system a workload solves against. */
struct System
{
    msc::Csr matrix; //!< generated matrix (also the residual check)
    /** Non-empty: requests name this Matrix Market file instead of
     *  passing the matrix in memory. */
    std::string file;
    std::vector<std::vector<double>> rhs; //!< right-hand-side pool
};

/** One request of a workload's stream. */
struct RequestSpec
{
    std::uint32_t system = 0;
    std::uint32_t rhs = 0;
    std::uint32_t tenant = 0;
    msc::SolverKind kind = msc::SolverKind::Cg;
    double tolerance = 1e-8;
    int maxIterations = 1000;
    std::int64_t deadlineNs = 0;
    std::uint64_t yieldAfterChecks = 0;
};

struct Workload
{
    std::string name;
    unsigned lanes = 1;          //!< thread-pool lanes
    unsigned outstanding = 1;    //!< closed-loop clients
    unsigned warmupRequests = 0; //!< set-up pass through the service
    unsigned tracedRequests = 0; //!< request count of a traced pass
    msc::ServiceConfig service;
    msc::OperatorConfig op;
    std::vector<std::string> tenants;
    std::vector<double> weights;
    std::vector<System> systems;
    /** Request @p n of the stream, drawing only from @p rng. */
    std::function<RequestSpec(std::uint64_t n, msc::Rng &rng)> draw;
};

/** Workload names, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/** Generate workload @p name from @p seed. File-backed workloads
 *  write their matrices under @p workDir. */
Workload makeWorkload(const std::string &name, std::uint64_t seed,
                      const std::string &workDir);

/** The service as a workload configures it (tenant weights set). */
std::unique_ptr<msc::SolverService> startService(const Workload &w);

/** Seeded cursor over a workload's request stream. */
class RequestStream
{
  public:
    RequestStream(const Workload &w, std::uint64_t seed)
        : wl(&w), rng(seed ^ 0x5eed5eed0dd5ULL)
    {}

    RequestSpec next() { return wl->draw(count++, rng); }

  private:
    const Workload *wl;
    msc::Rng rng;
    std::uint64_t count = 0;
};

/** The SolveRequest a tenant would submit for @p spec. */
msc::SolveRequest toRequest(const Workload &w, const RequestSpec &spec);

/** Converged, and the true relative residual (stored in @p rel)
 *  within kResidualSlack x tolerance. */
bool answerOk(const Workload &w, const RequestSpec &spec,
              const msc::RequestResult &r, double *rel = nullptr);

// --- spans -----------------------------------------------------------

struct Span
{
    const char *name = "";
    std::int64_t t0 = 0;
    std::int64_t t1 = 0;
    std::int32_t parent = -1;
    std::uint32_t pass = 0;    //!< 1 service loop, 2 replay, 3 direct
    std::uint64_t request = 0; //!< request id (0 = none)
    std::uint32_t columns = 0; //!< RHS columns of an operator apply
};

/** In-memory span recorder for one thread. Spans nest by open/close
 *  order; nothing is written until writeChrome(). */
class Tracer
{
  public:
    std::int32_t open(const char *name, std::uint64_t request = 0,
                      std::uint32_t columns = 0);
    void close(std::int32_t idx);

    Span &at(std::int32_t idx) { return spans[idx]; }
    const std::vector<Span> &all() const { return spans; }
    std::size_t size() const { return spans.size(); }
    void setPass(std::uint32_t p) { pass = p; }

    /** Duration minus the time covered by direct children. */
    std::vector<std::int64_t> selfTimes() const;

    /** Chrome trace-event JSON (one track per pass), leaving out the
     *  spans in [skipFrom, skipTo). */
    bool writeChrome(const std::string &path, std::size_t skipFrom = 0,
                     std::size_t skipTo = 0) const;

  private:
    std::vector<Span> spans;
    std::int32_t current = -1;
    std::uint32_t pass = 0;
};

/** RAII span; a null tracer records nothing. */
class Scope
{
  public:
    Scope(Tracer *t, const char *name, std::uint64_t request = 0,
          std::uint32_t columns = 0)
        : tr(t), idx(t ? t->open(name, request, columns) : -1)
    {}
    ~Scope()
    {
        if (tr)
            tr->close(idx);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** Rename once the call reveals which case ran (hit or miss,
     *  text or artifact). */
    void
    rename(const char *name)
    {
        if (tr)
            tr->at(idx).name = name;
    }

    void
    setRequest(std::uint64_t id)
    {
        if (tr)
            tr->at(idx).request = id;
    }

  private:
    Tracer *tr;
    std::int32_t idx;
};

// --- closed loop -----------------------------------------------------

/** One submit or pumpShard call, in call order. */
struct Event
{
    enum Kind : std::uint8_t { Submit, Pump } kind = Submit;
    std::uint32_t arg = 0; //!< Submit: submission index; Pump: shard
};

/** A recorded request's outcome. */
struct Completion
{
    std::int64_t submitNs = 0;
    std::int64_t pumpStartNs = 0; //!< start of the completing pump
    unsigned batchWidth = 1;
    msc::SolveStatus status = msc::SolveStatus::Failed;
    msc::SolverResult solve;
    std::vector<double> x;
};

/** Everything a replay needs: the call sequence, each submission's
 *  spec and service id, and each outcome. */
struct Recording
{
    std::vector<Event> events;
    std::vector<RequestSpec> specs;
    std::vector<std::uint64_t> ids;
    std::vector<Completion> completions; //!< by submission index
};

struct LoopConfig
{
    double seconds = 0.0;       //!< > 0: stop submitting after this
    std::uint64_t requests = 0; //!< > 0: submit exactly this many
    Tracer *tracer = nullptr;   //!< spans around submit / pumpShard
    Recording *record = nullptr;
};

struct LoopResult
{
    std::int64_t t0 = 0; //!< first submit
    std::int64_t t1 = 0; //!< window end (seconds) or drain end
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t convergedInWindow = 0;
    /** Submit-to-completion per request completed in the window;
     *  a failed or wrong answer is +inf. */
    std::vector<double> latencyMs;
    std::vector<std::int64_t> doneNs; //!< completion time, same order

    double
    solvesPerSecond() const
    {
        return t1 > t0 ? convergedInWindow * 1e9 / double(t1 - t0)
                       : 0.0;
    }
};

/**
 * Closed loop: each of w.outstanding clients submits its next
 * request only after its previous one is done. The calling thread
 * pumps shards round-robin (the service runs with workers = 0), so
 * every dispatch decision is a function of the call sequence.
 */
LoopResult runClosedLoop(msc::SolverService &svc, const Workload &w,
                         RequestStream &stream,
                         const LoopConfig &cfg);

// --- replay ----------------------------------------------------------

struct ReplayResult
{
    std::size_t firstSpan = 0;    //!< first span of the measured part
    std::uint64_t mismatches = 0; //!< x, status or iterations differ
    bool logMatches = false;      //!< decision log byte-identical
    std::int64_t wallNs = 0;      //!< measured segment
    std::uint64_t clusterColumns = 0;
    std::uint64_t adcConversions = 0;
    std::uint64_t groupsExecuted = 0;
};

/**
 * Re-run @p rec through the layers' public entry points in the order
 * the service composes them (loadMatrixFile, operatorKey[From], a
 * standalone AdmissionScheduler, PrepareCache::acquire, the solver
 * on a forwarding operator), recording a span per call. Events
 * before @p firstEvent (the set-up pass) run untimed-for-metrics but
 * are replayed so scheduler and cache state match. Compares every x
 * bitwise and the decision log with @p serviceLog.
 */
ReplayResult replay(const Workload &w, const Recording &rec,
                    std::size_t firstEvent, Tracer &tracer,
                    const std::string &serviceLog);

} // namespace e2e

#endif // E2EBENCH_BENCH_HH
