#include <cstdio>
#include <limits>

#include "bench.hh"
#include "util/logging.hh"

namespace e2e {

using namespace msc;

LoopResult
runClosedLoop(SolverService &svc, const Workload &w,
              RequestStream &stream, const LoopConfig &cfg)
{
    struct Client
    {
        RequestHandle handle;
        RequestSpec spec;
        std::uint32_t submission = 0;
        std::int64_t submitNs = 0;
        bool busy = false;
    };
    std::vector<Client> clients(w.outstanding);
    const unsigned shards =
        w.service.scheduler.shards == 0 ? 1 : w.service.scheduler.shards;
    Recording *rec = cfg.record;
    LoopResult out;
    bool submitting = true;
    // Closes when a timed window ends; requests still in flight then
    // are drained and checked but not measured.
    bool windowOpen = true;
    std::size_t busy = 0;

    const auto submitOne = [&](Client &c) {
        if (cfg.requests > 0 && out.attempted >= cfg.requests) {
            submitting = false;
            return;
        }
        c.spec = stream.next();
        SolveRequest req = toRequest(w, c.spec);
        c.submitNs = nowNs();
        {
            Scope span(cfg.tracer, "service.submit");
            c.handle = svc.submit(std::move(req));
            span.setRequest(c.handle.id());
        }
        c.busy = true;
        ++busy;
        ++out.attempted;
        if (rec) {
            c.submission = static_cast<std::uint32_t>(rec->specs.size());
            rec->specs.push_back(c.spec);
            rec->ids.push_back(c.handle.id());
            rec->completions.emplace_back();
            rec->events.push_back({Event::Submit, c.submission});
        }
    };

    const auto finish = [&](Client &c, std::int64_t p0,
                            std::int64_t p1) {
        const RequestResult &r = c.handle.wait();
        double rel = 0.0;
        const bool ok = answerOk(w, c.spec, r, &rel);
        if (!ok) {
            ++out.failed;
            if (out.failed <= 5)
                std::fprintf(stderr,
                             "e2ebench: %s request %llu (solver %d, %d "
                             "iterations) failed: status %s, residual "
                             "%.3g (tol %.1g)%s%s\n",
                             w.name.c_str(),
                             static_cast<unsigned long long>(
                                 c.handle.id()),
                             static_cast<int>(c.spec.kind),
                             r.solve.iterations, toString(r.status), rel,
                             c.spec.tolerance,
                             r.error.empty() ? "" : ": ",
                             r.error.c_str());
        }
        if (windowOpen) {
            out.latencyMs.push_back(
                ok ? double(p1 - c.submitNs) / 1e6
                   : std::numeric_limits<double>::infinity());
            out.doneNs.push_back(p1);
            if (ok)
                ++out.convergedInWindow;
        }
        if (rec) {
            Completion &done = rec->completions[c.submission];
            done.submitNs = c.submitNs;
            done.pumpStartNs = p0;
            done.batchWidth = r.batchWidth;
            done.status = r.status;
            done.solve = r.solve;
            done.x = r.x;
        }
        c.handle = RequestHandle();
        c.busy = false;
        --busy;
    };

    out.t0 = nowNs();
    for (Client &c : clients)
        submitOne(c);

    const std::int64_t windowNs =
        static_cast<std::int64_t>(cfg.seconds * 1e9);
    unsigned shard = 0;
    unsigned idlePumps = 0;
    std::int64_t lastPump = out.t0;
    while (busy > 0) {
        const std::int64_t p0 = nowNs();
        bool dispatched = false;
        {
            Scope span(cfg.tracer, "service.pump");
            dispatched = svc.pumpShard(shard);
            if (!dispatched)
                span.rename("service.pump_idle");
        }
        const std::int64_t p1 = nowNs();
        lastPump = p1;
        if (rec)
            rec->events.push_back({Event::Pump, shard});
        shard = (shard + 1) % shards;
        if (!dispatched) {
            // Every shard idle while requests are outstanding would
            // spin forever; the service never leaves work unpumpable.
            if (++idlePumps > 2 * shards)
                fatal("e2ebench: closed loop stalled with ", busy,
                      " requests outstanding");
            continue;
        }
        idlePumps = 0;
        for (Client &c : clients) {
            if (!c.busy || !c.handle.done())
                continue;
            finish(c, p0, p1);
            if (submitting)
                submitOne(c);
        }
        if (windowOpen && windowNs > 0 && p1 - out.t0 >= windowNs) {
            windowOpen = false;
            submitting = false;
            out.t1 = p1;
        }
    }
    if (windowOpen)
        out.t1 = lastPump;
    return out;
}

} // namespace e2e
