#include <cstring>
#include <unordered_map>

#include "accel/cluster_operator.hh"
#include "bench.hh"
#include "solver/block.hh"
#include "sparse/binio.hh"

namespace e2e {

using namespace msc;

namespace {

/**
 * Forwards every call to a prepared entry's operator, with a span
 * around each apply, so the solver's own time (its vector work) is
 * its span minus these. On the bit-exact backend it also reads the
 * cluster counters around each call.
 */
class ForwardingOperator : public LinearOperator
{
  public:
    ForwardingOperator(LinearOperator &inner, Tracer &tracer,
                       std::uint64_t request, ReplayResult *counts)
        : in(inner), tr(tracer), req(request), out(counts),
          cluster(dynamic_cast<ClusterArithmeticOperator *>(&inner))
    {}

    std::int32_t rows() const override { return in.rows(); }
    std::int32_t cols() const override { return in.cols(); }

    void
    apply(std::span<const double> x, std::span<double> y) override
    {
        const ClusterStats before = snapshot();
        {
            Scope s(&tr, cluster ? "accel.cluster_apply" : "accel.apply",
                    req, 1);
            in.apply(x, y);
        }
        account(before, 1);
    }

    void
    applyBatch(std::span<const double> X, std::span<double> Y,
               unsigned k) override
    {
        const ClusterStats before = snapshot();
        {
            Scope s(&tr,
                    cluster ? "accel.cluster_panel" : "accel.apply_batch",
                    req, k);
            in.applyBatch(X, Y, k);
        }
        account(before, k);
    }

    void
    setExecContext(const ExecContext *ctx) override
    {
        in.setExecContext(ctx);
    }

  private:
    ClusterStats
    snapshot() const
    {
        return cluster && out ? cluster->totals() : ClusterStats{};
    }

    void
    account(const ClusterStats &before, unsigned k)
    {
        if (!cluster || !out)
            return;
        const ClusterStats &now = cluster->totals();
        out->clusterColumns += k;
        out->adcConversions += now.adcConversions - before.adcConversions;
        out->groupsExecuted += now.groupsExecuted - before.groupsExecuted;
    }

    LinearOperator &in;
    Tracer &tr;
    std::uint64_t req;
    ReplayResult *out; //!< null outside the measured part
    ClusterArithmeticOperator *cluster;
};

/** A request the replay holds between admission and completion. */
struct Pending
{
    std::uint32_t submission = 0;
    RequestSpec spec;
    std::shared_ptr<const LoadedMatrix> loaded;
    const Csr *matrix = nullptr;
    QueueEntry entry;
    ExecContext ctx;
    SolverCheckpoint ckpt;
};

struct Outcome
{
    bool done = false;
    SolverResult solve;
    std::vector<double> x;
};

class Replayer
{
  public:
    Replayer(const Workload &wl, const Recording &recording,
             Tracer &tracer)
        : w(wl), rec(recording), tr(tracer),
          sched(wl.service.scheduler), cache(wl.service.cacheBytes),
          outcomes(recording.specs.size())
    {
        for (std::size_t t = 0; t < w.tenants.size(); ++t)
            sched.setTenantWeight(w.tenants[t], w.weights[t]);
    }

    ReplayResult
    run(std::size_t firstEvent, const std::string &serviceLog)
    {
        ReplayResult out;
        std::int64_t start = nowNs();
        for (std::size_t e = 0; e < rec.events.size(); ++e) {
            if (e == firstEvent) {
                out.firstSpan = tr.size();
                counts = &out;
                start = nowNs();
            }
            const Event &ev = rec.events[e];
            if (ev.kind == Event::Submit)
                submit(ev.arg, out);
            else
                dispatch(ev.arg);
        }
        out.wallNs = nowNs() - start;

        for (std::size_t s = 0; s < outcomes.size(); ++s) {
            const Outcome &o = outcomes[s];
            const Completion &c = rec.completions[s];
            const bool same =
                o.done && o.solve.status == c.status &&
                o.solve.iterations == c.solve.iterations &&
                o.x.size() == c.x.size() &&
                std::memcmp(o.x.data(), c.x.data(),
                            o.x.size() * sizeof(double)) == 0;
            if (!same)
                ++out.mismatches;
        }
        out.logMatches = sched.dumpDecisions() == serviceLog;
        return out;
    }

  private:
    const std::vector<double> &
    rhsOf(const Pending &p) const
    {
        return w.systems[p.spec.system].rhs[p.spec.rhs];
    }

    /** What SolverService::submit does, layer by layer. */
    void
    submit(std::uint32_t submission, ReplayResult &out)
    {
        auto p = std::make_unique<Pending>();
        p->submission = submission;
        p->spec = rec.specs[submission];
        const std::uint64_t id = nextId++;
        const System &sys = w.systems[p->spec.system];
        Scope top(&tr, "service.replay_submit", id);
        if (!sys.file.empty()) {
            Scope s(&tr, "sparse.parse", id);
            p->loaded = std::make_shared<const LoadedMatrix>(
                loadMatrixFile(sys.file));
            if (p->loaded->artifact)
                s.rename("sparse.map");
            p->matrix = &p->loaded->csr;
        } else {
            p->matrix = &sys.matrix;
        }
        if (p->spec.deadlineNs > 0)
            p->ctx.setDeadline(ExecContext::Clock::now() +
                               std::chrono::nanoseconds(
                                   p->spec.deadlineNs));
        if (p->spec.yieldAfterChecks > 0)
            p->ctx.yieldAfterChecks(p->spec.yieldAfterChecks);

        QueueEntry &entry = p->entry;
        {
            Scope s(&tr, "service.prepare_cache.key", id);
            entry.key =
                (p->loaded && p->loaded->artifact)
                    ? operatorKeyFrom(p->loaded->artifact->matrixKey(),
                                      w.op)
                    : operatorKey(*p->matrix, w.op);
        }
        entry.id = id;
        entry.tenant = w.tenants[p->spec.tenant];
        entry.coalescable = p->spec.kind == SolverKind::Cg;
        entry.deadlineNs = static_cast<std::uint64_t>(p->spec.deadlineNs);
        bool admitted = false;
        {
            Scope s(&tr, "service.scheduler.admit", id);
            admitted = sched.tryAdmit(entry);
        }
        if (!admitted || id != rec.ids[submission])
            ++out.mismatches;
        pending.emplace(id, std::move(p));
    }

    void
    finish(Pending &p, SolverResult solve, std::vector<double> x)
    {
        {
            Scope s(&tr, "service.scheduler.complete", p.entry.id);
            sched.complete(p.entry.tenant);
        }
        Outcome &o = outcomes[p.submission];
        o.done = true;
        o.solve = solve;
        o.x = std::move(x);
        pending.erase(p.entry.id);
    }

    /** What one dispatching pumpShard does, layer by layer. */
    void
    dispatch(unsigned shard)
    {
        Scope top(&tr, "service.replay_dispatch");
        std::vector<QueueEntry> batch;
        {
            Scope s(&tr, "service.scheduler.next_batch");
            batch = sched.nextBatch(shard);
        }
        if (batch.empty())
            return;
        Pending &head = *pending.at(batch.front().id);
        const std::uint64_t id = head.entry.id;
        top.setRequest(id);
        const auto k = static_cast<unsigned>(batch.size());

        std::shared_ptr<PreparedOperator> prepared;
        {
            Scope s(&tr, "service.prepare_cache.miss", id);
            bool hit = false;
            prepared = (head.loaded && head.loaded->artifact)
                           ? cache.acquire(head.loaded->artifact, w.op,
                                           &hit, shard)
                           : cache.acquire(*head.matrix, w.op, &hit,
                                           shard);
            if (hit)
                s.rename("service.prepare_cache.hit");
        }
        ForwardingOperator op(prepared->op(), tr, id, counts);
        const auto n = static_cast<std::size_t>(prepared->matrix().rows());

        if (k == 1) {
            std::vector<double> x(n, 0.0);
            SolverConfig scfg;
            scfg.tolerance = head.spec.tolerance;
            scfg.maxIterations = head.spec.maxIterations;
            scfg.exec = &head.ctx;
            SolverResult res;
            switch (head.spec.kind) {
              case SolverKind::Cg: {
                scfg.checkpoint = &head.ckpt;
                head.ctx.clearYield();
                Scope s(&tr, "solver.cg", id);
                res = conjugateGradient(op, rhsOf(head), x, scfg);
                break;
              }
              case SolverKind::Gmres: {
                Scope s(&tr, "solver.gmres", id);
                res = gmres(op, rhsOf(head), x, scfg);
                break;
              }
              default: {
                Scope s(&tr, "solver.bicgstab", id);
                res = biCgStab(op, rhsOf(head), x, scfg);
                break;
              }
            }
            if (res.status == SolveStatus::Preempted) {
                QueueEntry again = head.entry;
                again.coalescable = false;
                Scope s(&tr, "service.scheduler.requeue", id);
                sched.requeuePreempted(again);
                return;
            }
            finish(head, res, std::move(x));
            return;
        }

        std::vector<Pending *> members;
        std::vector<double> B(n * k);
        std::vector<double> X(n * k, 0.0);
        std::vector<LockstepColumnControl> ctl(k);
        for (unsigned c = 0; c < k; ++c) {
            Pending &p = *pending.at(batch[c].id);
            members.push_back(&p);
            std::copy_n(rhsOf(p).data(), n, B.data() + c * n);
            ctl[c].tolerance = p.spec.tolerance;
            ctl[c].maxIterations = p.spec.maxIterations;
            ctl[c].exec = &p.ctx;
        }
        std::vector<SolverResult> cols;
        {
            Scope s(&tr, "solver.lockstep_cg", id, k);
            cols = lockstepConjugateGradient(op, B, X, k, ctl);
        }
        for (unsigned c = 0; c < k; ++c)
            finish(*members[c], cols[c],
                   std::vector<double>(X.data() + c * n,
                                       X.data() + (c + 1) * n));
    }

    const Workload &w;
    const Recording &rec;
    Tracer &tr;
    AdmissionScheduler sched;
    PrepareCache cache;
    std::unordered_map<std::uint64_t, std::unique_ptr<Pending>> pending;
    std::vector<Outcome> outcomes;
    std::uint64_t nextId = 1;
    ReplayResult *counts = nullptr; //!< set from the measured part on
};

} // namespace

ReplayResult
replay(const Workload &w, const Recording &rec, std::size_t firstEvent,
       Tracer &tracer, const std::string &serviceLog)
{
    tracer.setPass(2);
    Replayer r(w, rec, tracer);
    return r.run(firstEvent, serviceLog);
}

} // namespace e2e
