/**
 * @file
 * e2ebench: end-to-end and per-layer benchmark of SolverService.
 *
 *   e2ebench --workload NAME --seed N --seconds S --trace 0|1
 *            [--work-dir DIR] [--out-dir DIR]
 *            [--git-commit REV] [--source-digest HEX]
 *
 * --trace 0 is the timed run: set-up (repeated, median reported),
 * then a closed loop for S seconds; it prints the end-to-end
 * metrics. --trace 1 is the traced run: an untraced and a traced
 * pass over a fixed request count, a replay of the traced pass
 * through the layers' entry points, and direct blocking/prepare
 * calls; it prints the per-layer metrics and writes a Chrome trace.
 * Every answer is checked; the last stdout line is one JSON object
 * with correct/attempted/failed/metrics, and any failure exits 1.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "accel/accel.hh"
#include "accel/cluster_operator.hh"
#include "bench.hh"
#include "blocking/blocking.hh"
#include "util/telemetry.hh"
#include "util/threadpool.hh"

namespace {

using namespace msc;
using namespace e2e;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string workDir = ".bench_build/e2ebench-work";
    std::string outDir = ".bench_build/e2ebench-out";
    std::string gitCommit = "unknown";
    std::string sourceDigest = "unknown";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "e2ebench: %s\nusage: e2ebench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR] "
                 "[--out-dir DIR] [--git-commit REV] "
                 "[--source-digest HEX]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const std::string val = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            a.workload = val;
            haveWorkload = true;
        } else if (key == "--seed") {
            a.seed = std::strtoull(val.c_str(), &end, 10);
            if (*end)
                usage("--seed must be an unsigned integer");
        } else if (key == "--seconds") {
            a.seconds = std::strtod(val.c_str(), &end);
            if (*end || !(a.seconds > 0.0) || a.seconds > 600.0)
                usage("--seconds must be in (0, 600]");
        } else if (key == "--trace") {
            if (val != "0" && val != "1")
                usage("--trace must be 0 or 1");
            a.trace = val == "1";
        } else if (key == "--work-dir") {
            a.workDir = val;
        } else if (key == "--out-dir") {
            a.outDir = val;
        } else if (key == "--git-commit") {
            a.gitCommit = val;
        } else if (key == "--source-digest") {
            a.sourceDigest = val;
        } else {
            usage(("unknown option " + key).c_str());
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), a.workload) ==
        names.end())
        usage(("unknown workload " + a.workload).c_str());
    return a;
}

// --- host -------------------------------------------------------------

std::string
readFirstLine(const std::string &path)
{
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    return line;
}

/** Size of the first cache of @p level listed for cpu0, in KiB. */
long
cacheKiB(int level)
{
    for (int i = 0; i < 8; ++i) {
        const std::string dir =
            "/sys/devices/system/cpu/cpu0/cache/index" +
            std::to_string(i) + "/";
        const std::string lv = readFirstLine(dir + "level");
        if (lv.empty())
            break;
        if (std::atoi(lv.c_str()) != level ||
            readFirstLine(dir + "type") == "Instruction")
            continue;
        const std::string size = readFirstLine(dir + "size");
        long v = std::atol(size.c_str());
        if (!size.empty() && size.back() == 'M')
            v *= 1024;
        return v;
    }
    return 0;
}

/** Aggregate CPU jiffies from /proc/stat: total and steal. */
struct CpuTimes
{
    unsigned long long total = 0;
    unsigned long long steal = 0;
};

CpuTimes
readCpuTimes()
{
    std::istringstream in(readFirstLine("/proc/stat"));
    std::string cpu;
    in >> cpu;
    CpuTimes t;
    unsigned long long v = 0;
    for (int field = 0; field < 8 && in >> v; ++field) {
        t.total += v;
        if (field == 7)
            t.steal = v;
    }
    return t;
}

double
stealFrac(const CpuTimes &a, const CpuTimes &b)
{
    const auto total = b.total - a.total;
    return total == 0 ? 0.0 : double(b.steal - a.steal) / double(total);
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/**
 * Peak resident set of this program, in MiB: VmHWM from
 * /proc/self/status. getrusage's ru_maxrss is not used because it
 * survives exec, so it also counts whatever the launching process
 * (a Python launcher, say) had resident when it forked.
 */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0;
    return 0.0;
}

// --- statistics -------------------------------------------------------

/** Nearest-rank percentile (q in (0, 1]); +inf samples sort last. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
median(const std::vector<double> &v)
{
    return percentile(v, 0.5);
}

double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / double(v.size());
}

// --- output -----------------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
    std::string note; //!< how it was measured, for the human lines
    bool inJson = true; //!< listed in BENCHMARK.json
};

/** JSON cannot carry infinity: a latency percentile that lands on a
 *  failed request is reported as this many milliseconds. */
constexpr double kInfinityStandIn = 1e12;

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = kInfinityStandIn;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;

    void
    add(std::string name, double value, std::string unit,
        std::size_t samples, std::string note = "", bool inJson = true)
    {
        metrics.push_back({std::move(name), value, std::move(unit),
                           samples, std::move(note), inJson});
    }

    void
    print() const
    {
        for (const Metric &m : metrics)
            std::printf("metric %-38s %14.6g %-6s n=%zu%s%s\n",
                        m.name.c_str(), m.value, m.unit.c_str(),
                        m.samples, m.note.empty() ? "" : "  ",
                        m.note.c_str());
        std::printf("{\"correct\": %s, \"attempted\": %llu, "
                    "\"failed\": %llu, \"metrics\": {",
                    failed == 0 ? "true" : "false",
                    static_cast<unsigned long long>(attempted),
                    static_cast<unsigned long long>(failed));
        const char *sep = "";
        for (const Metric &m : metrics) {
            if (!m.inJson)
                continue;
            std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                        sep, m.name.c_str(), jsonNumber(m.value).c_str(),
                        m.unit.c_str());
            sep = ", ";
        }
        std::printf("}}\n");
        std::fflush(stdout);
    }
};

void
printHost(const Args &a, const Workload &w, double steal,
          const char *window)
{
    std::printf("host nproc=%ld l2_per_core_kib=%ld l3_shared_kib=%ld "
                "lanes=%u compiler=\"%s\" build=%s git=%s source=%s "
                "steal_frac=%.4f (%s)\n",
                sysconf(_SC_NPROCESSORS_ONLN), cacheKiB(2), cacheKiB(3),
                globalThreads(), E2E_COMPILER, E2E_BUILD_TYPE,
                a.gitCommit.c_str(), a.sourceDigest.c_str(), steal,
                window);
    std::printf("workload %s seed=%llu outstanding=%u shards=%u "
                "window=%u tenants=%zu systems=%zu\n",
                w.name.c_str(), static_cast<unsigned long long>(a.seed),
                w.outstanding, w.service.scheduler.shards,
                w.service.scheduler.batchWindow, w.tenants.size(),
                w.systems.size());
}

/** Workload, service and stream of one set-up. The service is
 *  declared last so it is destroyed first: it may still map files
 *  and point into the workload's matrices. */
struct Setup
{
    std::unique_ptr<Workload> w;
    std::unique_ptr<RequestStream> stream;
    std::unique_ptr<SolverService> svc;
    LoopResult warmup;
};

/** Everything before a timed window: inputs, files, the service, and
 *  a warm-up pass that prepares the operators. */
Setup
setUp(const Args &a, const std::string &dir, Recording *record)
{
    Setup s;
    s.w = std::make_unique<Workload>(makeWorkload(a.workload, a.seed, dir));
    setGlobalThreads(s.w->lanes);
    s.stream = std::make_unique<RequestStream>(*s.w, a.seed);
    s.svc = startService(*s.w);
    LoopConfig cfg;
    cfg.requests = s.w->warmupRequests;
    cfg.record = record;
    s.warmup = runClosedLoop(*s.svc, *s.w, *s.stream, cfg);
    return s;
}

void
tearDown(Setup &s, const std::string &dir)
{
    s.svc.reset();
    s.stream.reset();
    s.w.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}

// --- timed run --------------------------------------------------------

int
timedRun(const Args &a)
{
    Report rep;
    Setup s;
    std::vector<double> setupS;
    std::string dir;
    // Several complete set-ups, median reported: one set-up is a
    // second or less of work and moves with the host.
    const unsigned setups = 3;
    for (unsigned k = 0; k < setups; ++k) {
        if (k > 0)
            tearDown(s, dir);
        dir = a.workDir + "/setup" + std::to_string(k);
        const std::int64_t t0 = nowNs();
        s = setUp(a, dir, nullptr);
        setupS.push_back(double(nowNs() - t0) / 1e9);
        rep.attempted += s.warmup.attempted;
        rep.failed += s.warmup.failed;
    }

    const double setupRssMb = peakRssMb();

    const CpuTimes c0 = readCpuTimes();
    LoopConfig cfg;
    cfg.seconds = a.seconds;
    const LoopResult r = runClosedLoop(*s.svc, *s.w, *s.stream, cfg);
    const CpuTimes c1 = readCpuTimes();
    rep.attempted += r.attempted;
    rep.failed += r.failed;

    printHost(a, *s.w, stealFrac(c0, c1), "timed window");
    // Throughput is the median over five consecutive parts of the
    // window, so a burst of host slowdown shorter than a part moves no
    // reported figure. Parts hold equal numbers of completions and end
    // where the completion time changes: a coalesced panel completes
    // its requests in one burst, and a part's duration must cover
    // exactly the pumps it counts. Latency percentiles are taken over
    // the whole window; per part they would mostly tell which panels
    // fell into it.
    constexpr std::size_t kParts = 5;
    const std::size_t total = r.latencyMs.size();
    std::vector<double> rate;
    std::int64_t partStart = r.t0;
    std::size_t lo = 0;
    for (std::size_t j = 0; j < kParts && lo < total; ++j) {
        std::size_t hi = std::max(lo + 1, total * (j + 1) / kParts);
        while (hi < total && r.doneNs[hi] == r.doneNs[hi - 1])
            ++hi;
        if (j + 1 == kParts)
            hi = total;
        const auto solved =
            std::count_if(r.latencyMs.begin() + lo, r.latencyMs.begin() + hi,
                          [](double v) { return std::isfinite(v); });
        const std::int64_t partEnd = hi == total ? r.t1 : r.doneNs[hi - 1];
        rate.push_back(double(solved) * 1e9 /
                       double(std::max<std::int64_t>(1, partEnd - partStart)));
        partStart = partEnd;
        lo = hi;
    }
    const double windowNs = double(r.t1 - r.t0);
    rep.add("solves_per_s", median(rate), "1/s", r.convergedInWindow,
            "median of " + std::to_string(rate.size()) + " parts of a " +
                jsonNumber(windowNs / 1e9) + " s window; whole window " +
                jsonNumber(r.solvesPerSecond()));
    const std::size_t n = total;
    rep.add("latency_p50_ms", percentile(r.latencyMs, 0.50), "ms", n,
            "submit to end of the completing pumpShard");
    rep.add("latency_p90_ms", percentile(r.latencyMs, 0.90), "ms", n);
    // p99 needs ten samples beyond it to mean anything, which the
    // bit-exact workload never has; it is printed, not gated.
    if (n >= 1000)
        rep.add("latency_p99_ms", percentile(r.latencyMs, 0.99), "ms", n,
                "not gated", false);
    rep.add("setup_s", median(setupS), "s", setupS.size(),
            "median of " + std::to_string(setups) + " set-ups");
    rep.add("setup_rss_mb", setupRssMb, "MB", 1,
            "VmHWM at the end of set-up");
    // The service keeps every scheduling decision, so memory grows with
    // each request served and the vector's doublings make the exit
    // figure jump by up to 2x between runs of one workload: printed,
    // not gated.
    rep.add("peak_rss_mb", peakRssMb(), "MB", 1, "VmHWM at exit; not gated",
            false);
    tearDown(s, dir);
    rep.print();
    return rep.failed == 0 ? 0 : 1;
}

// --- traced run -------------------------------------------------------

/** Durations (ns) of spans named @p name in [from, to). */
std::vector<double>
durations(const Tracer &tr, std::size_t from, std::size_t to,
          const char *name, bool perColumn = false)
{
    std::vector<double> d;
    const auto &spans = tr.all();
    for (std::size_t i = from; i < to; ++i) {
        const Span &s = spans[i];
        if (std::strcmp(s.name, name) != 0)
            continue;
        double v = double(s.t1 - s.t0);
        if (perColumn && s.columns > 0)
            v /= s.columns;
        d.push_back(v);
    }
    return d;
}

/** What one span costs the span that contains it, in ns. */
double
spanCost()
{
    constexpr int kSpans = 20000;
    Tracer cal;
    const std::int32_t outer = cal.open("calibrate");
    for (int i = 0; i < kSpans; ++i)
        Scope s(&cal, "empty");
    cal.close(outer);
    const Span &o = cal.all()[outer];
    return double(o.t1 - o.t0) / kSpans;
}

int
tracedRun(const Args &a)
{
    Report rep;

    // Pass 0: the closed loop without spans, for trace.overhead_frac
    // and the host CPU share.
    const std::string dir0 = a.workDir + "/untraced";
    Setup s0 = setUp(a, dir0, nullptr);
    const unsigned requests = s0.w->tracedRequests;
    rep.attempted += s0.warmup.attempted;
    rep.failed += s0.warmup.failed;
    const CpuTimes c0 = readCpuTimes();
    const double cpu0 = cpuSeconds();
    LoopConfig cfg0;
    cfg0.requests = requests;
    const LoopResult r0 = runClosedLoop(*s0.svc, *s0.w, *s0.stream, cfg0);
    const double cpu1 = cpuSeconds();
    const CpuTimes c1 = readCpuTimes();
    rep.attempted += r0.attempted;
    rep.failed += r0.failed;
    tearDown(s0, dir0);

    // Pass 1: the same loop on a fresh service, recorded, with a
    // span around every submit and pumpShard.
    const std::string dir1 = a.workDir + "/traced";
    Recording rec;
    Setup s1 = setUp(a, dir1, &rec);
    const Workload &w = *s1.w;
    rep.attempted += s1.warmup.attempted;
    rep.failed += s1.warmup.failed;
    const std::size_t firstEvent = rec.events.size();
    const std::size_t firstSubmission = rec.specs.size();
    const ServiceStats st0 = s1.svc->stats();
    const PrepareCache::Stats cs0 = s1.svc->cacheStats();
    Tracer tr;
    tr.setPass(1);
    LoopConfig cfg1;
    cfg1.requests = requests;
    cfg1.tracer = &tr;
    cfg1.record = &rec;
    const LoopResult r1 = runClosedLoop(*s1.svc, w, *s1.stream, cfg1);
    const CpuTimes c3 = readCpuTimes();
    rep.attempted += r1.attempted;
    rep.failed += r1.failed;
    const ServiceStats st1 = s1.svc->stats();
    const PrepareCache::Stats cs1 = s1.svc->cacheStats();
    const std::size_t pass1End = tr.size();

    // Pass 2: replay the recorded call sequence layer by layer.
    const ReplayResult rr =
        replay(w, rec, firstEvent, tr, s1.svc->decisionLogText());
    const std::size_t replayEnd = tr.size();
    if (rr.mismatches > 0 || !rr.logMatches)
        std::fprintf(stderr,
                     "e2ebench: replay differs from the service: %llu "
                     "results, decision log %s\n",
                     static_cast<unsigned long long>(rr.mismatches),
                     rr.logMatches ? "equal" : "differs");
    rep.failed += rr.mismatches + (rr.logMatches ? 0 : 1);

    // Pass 3: blocking and prepare called directly on each system the
    // measured requests used, outside the replay's span tree; the
    // benchmark-side Accelerator also prices each solve.
    tr.setPass(3);
    std::map<std::uint32_t, std::vector<std::size_t>> bySystem;
    for (std::size_t s = firstSubmission; s < rec.specs.size(); ++s)
        bySystem[rec.specs[s].system].push_back(s);
    std::size_t blockedNnz = 0;
    std::size_t totalNnz = 0;
    std::vector<double> modelUs;
    std::vector<double> modelUj;
    const bool bitExact = w.op.backend == ServiceBackend::ClusterBitExact;
    for (const auto &[sysIdx, subs] : bySystem) {
        const Csr &m = w.systems[sysIdx].matrix;
        BlockPlan plan;
        {
            Scope s(&tr, "blocking.plan");
            plan = planBlocks(m, bitExact ? w.op.blocking
                                          : w.op.accel.blocking);
        }
        blockedNnz += plan.stats.blockedNnz;
        totalNnz += plan.stats.totalNnz;
        Accelerator model(w.op.accel);
        std::unique_ptr<ClusterArithmeticOperator> cluster;
        {
            Scope s(&tr, "accel.prepare");
            if (bitExact)
                cluster = std::make_unique<ClusterArithmeticOperator>(
                    m, std::move(plan), w.op.cluster);
            else
                model.prepare(m, {}, &plan);
        }
        if (bitExact)
            model.prepare(m);
        for (std::size_t sub : subs) {
            const AccelCost cost =
                model.solveCost(rec.completions[sub].solve, false);
            modelUs.push_back(cost.time * 1e6);
            modelUj.push_back(cost.energy * 1e6);
        }
    }
    const std::size_t directEnd = tr.size();

    // --- per-layer metrics ---
    printHost(a, w, stealFrac(c0, c1), "untraced pass");
    const std::vector<std::int64_t> self = tr.selfTimes();
    const auto &spans = tr.all();
    const double solves = double(requests);

    const std::size_t from = rr.firstSpan;
    // Median of the spans named in @p names within [lo, hi), scaled.
    const auto addSpans = [&](const char *metric, const char *unit,
                              double scale, std::size_t lo, std::size_t hi,
                              std::initializer_list<const char *> names,
                              const char *note, bool perColumn = false) {
        std::vector<double> v;
        for (const char *name : names)
            for (double ns : durations(tr, lo, hi, name, perColumn))
                v.push_back(ns * scale);
        rep.add(metric, median(v), unit, v.size(), note);
    };

    addSpans("service.submit_us", "us", 1e-3, 0, pass1End, {"service.submit"},
             "SolverService::submit, traced pass");
    std::vector<double> waitMs;
    std::vector<double> width;
    std::uint64_t iterations = 0;
    double vectorBytes = 0.0;
    for (std::size_t sub = firstSubmission; sub < rec.completions.size();
         ++sub) {
        const Completion &c = rec.completions[sub];
        waitMs.push_back(double(c.pumpStartNs - c.submitNs) / 1e6);
        width.push_back(c.batchWidth);
        iterations += static_cast<std::uint64_t>(c.solve.iterations);
        vectorBytes += double(2 * c.solve.dotCalls + 3 * c.solve.axpyCalls) *
                       double(c.solve.vectorLength) * 8.0;
    }
    rep.add("service.queue_wait_ms", median(waitMs), "ms", waitMs.size(),
            "submit to start of the completing pumpShard");
    rep.add("service.queue_wait_p90_ms", percentile(waitMs, 0.9), "ms",
            waitMs.size());
    addSpans("service.pump_ms", "ms", 1e-6, 0, pass1End, {"service.pump"},
             "dispatching pumpShard calls");

    // The service's own cost: each traced submit/pump minus the layer
    // time of its replayed counterpart (the k-th call of pass 1 is the
    // k-th top-level span of the replay), less the cost of the replay's
    // extra spans. Medians per call kind keep one preempted or
    // descheduled call from deciding the line.
    const double spanCostNs = spanCost();
    std::vector<std::size_t> tops;
    double topNs = 0.0;
    std::map<std::string, std::pair<std::size_t, double>> ledger;
    for (std::size_t i = from; i < replayEnd; ++i) {
        if (spans[i].parent < 0) {
            tops.push_back(i);
            topNs += double(spans[i].t1 - spans[i].t0);
        }
        auto &[count, ns] = ledger[spans[i].name];
        ++count;
        ns += double(self[i]);
    }
    if (tops.size() != pass1End) {
        std::fprintf(stderr, "e2ebench: %zu traced calls but %zu replayed\n",
                     pass1End, tops.size());
        ++rep.failed;
    }
    std::map<std::string, std::vector<double>> diffNs;
    double pass1Ns = 0.0;
    double layerNs = 0.0;
    for (std::size_t k = 0; k < std::min(tops.size(), pass1End); ++k) {
        const std::size_t t = tops[k];
        const std::size_t next = k + 1 < tops.size() ? tops[k + 1] : replayEnd;
        const double layer = double(spans[t].t1 - spans[t].t0 - self[t]) -
                             double(next - t - 1) * spanCostNs;
        const double traced = double(spans[k].t1 - spans[k].t0);
        pass1Ns += traced;
        layerNs += layer;
        diffNs[spans[k].name].push_back(traced - layer);
    }
    double serviceNs = 0.0;
    for (const auto &[name, d] : diffNs)
        serviceNs += median(d) * double(d.size());
    rep.add("service.self_ms_per_solve", serviceNs / 1e6 / solves, "ms",
            requests,
            "traced submit/pump minus replayed layer time, per-call medians");
    rep.add("service.batch_width", mean(width), "count", width.size(),
            "mean RequestResult::batchWidth");
    addSpans("service.scheduler.admit_us", "us", 1e-3, from, replayEnd,
             {"service.scheduler.admit"}, "replayed AdmissionScheduler::tryAdmit");
    addSpans("service.scheduler.next_batch_us", "us", 1e-3, from, replayEnd,
             {"service.scheduler.next_batch"},
             "replayed AdmissionScheduler::nextBatch");
    rep.add("service.scheduler.dispatches", double(st1.batches - st0.batches),
            "count", 1, "exact");
    rep.add("service.scheduler.migrated", double(st1.migrated - st0.migrated),
            "count", 1, "exact");
    rep.add("service.scheduler.preempted",
            double(st1.preempted - st0.preempted), "count", 1, "exact");
    const double hits = double(cs1.hits - cs0.hits);
    const double misses = double(cs1.misses - cs0.misses);
    rep.add("service.prepare_cache.hit_ratio",
            hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio",
            static_cast<std::size_t>(hits + misses), "exact");
    rep.add("service.prepare_cache.evictions",
            double(cs1.evictions - cs0.evictions), "count", 1, "exact");
    addSpans("service.prepare_cache.key_us", "us", 1e-3, from, replayEnd,
             {"service.prepare_cache.key"}, "operatorKey / operatorKeyFrom");
    addSpans("service.prepare_cache.miss_ms", "ms", 1e-6, from, replayEnd,
             {"service.prepare_cache.miss"}, "PrepareCache::acquire, miss");
    addSpans("service.prepare_cache.hit_us", "us", 1e-3, from, replayEnd,
             {"service.prepare_cache.hit"}, "PrepareCache::acquire, hit");

    std::vector<double> parseMbPerS;
    for (std::size_t i = from; i < replayEnd; ++i) {
        if (std::strcmp(spans[i].name, "sparse.parse") != 0)
            continue;
        const RequestSpec &spec = rec.specs[spans[i].request - 1];
        const double bytes = double(
            std::filesystem::file_size(w.systems[spec.system].file));
        parseMbPerS.push_back(bytes * 1e3 / double(spans[i].t1 - spans[i].t0));
    }
    addSpans("sparse.parse_ms", "ms", 1e-6, from, replayEnd, {"sparse.parse"},
             "loadMatrixFile on Matrix Market text");
    addSpans("sparse.map_ms", "ms", 1e-6, from, replayEnd, {"sparse.map"},
             "loadMatrixFile on a .mscbin sidecar");
    rep.add("sparse.parse_mb_per_s", median(parseMbPerS), "MB/s",
            parseMbPerS.size());
    addSpans("blocking.plan_ms", "ms", 1e-6, replayEnd, directEnd,
             {"blocking.plan"}, "planBlocks, direct");
    rep.add("blocking.blocked_frac",
            totalNnz ? double(blockedNnz) / double(totalNnz) : 0.0, "ratio",
            bySystem.size(), "exact");
    addSpans("accel.prepare_ms", "ms", 1e-6, replayEnd, directEnd,
             {"accel.prepare"},
             bitExact ? "ClusterArithmeticOperator from a plan, direct"
                      : "Accelerator::prepare given a plan, direct");
    addSpans("accel.apply_us_per_col", "us", 1e-3, from, replayEnd,
             {"accel.apply", "accel.apply_batch"},
             "Accel operator apply/applyBatch per column", true);
    addSpans("accel.cluster_apply_ms", "ms", 1e-6, from, replayEnd,
             {"accel.cluster_apply"}, "ClusterArithmeticOperator::apply");
    addSpans("accel.cluster_panel_ms_per_col", "ms", 1e-6, from, replayEnd,
             {"accel.cluster_panel"}, "ClusterArithmeticOperator::applyBatch",
             true);
    rep.add("accel.model_solve_us", median(modelUs), "us", modelUs.size(),
            "exact; Accelerator::solveCost without set-up");
    rep.add("accel.model_energy_uj", median(modelUj), "uJ", modelUj.size(),
            "exact");
    const double cols = double(rr.clusterColumns);
    rep.add("cluster.adc_conversions_per_apply",
            cols > 0 ? double(rr.adcConversions) / cols : 0.0, "count",
            rr.clusterColumns, "exact; per RHS column");
    rep.add("cluster.groups_executed_per_apply",
            cols > 0 ? double(rr.groupsExecuted) / cols : 0.0, "count",
            rr.clusterColumns, "exact; per RHS column");
    rep.add("solver.iterations_per_solve", double(iterations) / solves,
            "count", requests, "exact");
    double solverSelfNs = 0.0;
    for (std::size_t i = from; i < replayEnd; ++i)
        if (std::strncmp(spans[i].name, "solver.", 7) == 0)
            solverSelfNs += double(self[i]);
    rep.add("solver.vector_us_per_iter",
            iterations ? solverSelfNs / 1e3 / double(iterations) : 0.0, "us",
            iterations, "solver span minus operator spans");
    rep.add("solver.vector_bytes_per_iter",
            iterations ? vectorBytes / double(iterations) : 0.0, "B",
            iterations, "computed: (2 dot + 3 axpy) x n x 8");
    rep.add("host.cpu_s_per_solve", (cpu1 - cpu0) / solves, "s", requests,
            "getrusage user+sys, untraced pass");
    rep.add("host.steal_frac", stealFrac(c0, c3), "ratio", 1,
            "/proc/stat, untraced pass to end of traced pass");
    rep.add("threadpool.lanes", double(globalThreads()), "count", 1);
    rep.add("trace.overhead_frac",
            1.0 - r1.solvesPerSecond() / r0.solvesPerSecond(), "ratio", 2,
            "1 - traced / untraced solves_per_s");
    rep.add("trace.replay_wall_ms", double(rr.wallNs) / 1e6, "ms", 1);
    rep.add("trace.replay_unattributed_frac",
            rr.wallNs ? 1.0 - topNs / double(rr.wallNs) : 0.0, "ratio", 1,
            "replay wall time outside every span");

    std::printf("ledger %-32s %8s %12s %8s\n", "replayed layer (self)",
                "spans", "self ms", "share");
    for (const auto &[name, v] : ledger)
        std::printf("ledger %-32s %8zu %12.3f %7.2f%%\n", name.c_str(),
                    v.first, v.second / 1e6,
                    100.0 * v.second / double(rr.wallNs));
    std::printf("ledger %-32s %8s %12.3f %7.2f%%\n", "(sum of self times)",
                "", topNs / 1e6, 100.0 * topNs / double(rr.wallNs));
    std::printf("service line: traced submit+pump %.3f ms, replayed layers "
                "%.3f ms (span cost %.1f ns removed), service self %.3f ms "
                "= %.4f ms per solve\n",
                pass1Ns / 1e6, layerNs / 1e6, spanCostNs, serviceNs / 1e6,
                serviceNs / 1e6 / solves);

    std::error_code ec;
    std::filesystem::create_directories(a.outDir, ec);
    const std::string tracePath = a.outDir + "/trace-" + a.workload +
                                  "-" + std::to_string(a.seed) + ".json";
    // The replayed set-up pass only restores state; leave it out.
    if (tr.writeChrome(tracePath, pass1End, rr.firstSpan))
        std::printf("trace written to %s (%zu spans)\n", tracePath.c_str(),
                    tr.size());
    tearDown(s1, dir1);
    rep.print();
    return rep.failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    // The library's telemetry stays off whatever MSC_TELEMETRY says;
    // the benchmark times the calls itself.
    telemetry::setEnabled(false);
    try {
        return a.trace ? tracedRun(a) : timedRun(a);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "e2ebench: %s\n", e.what());
        return 1;
    }
}
