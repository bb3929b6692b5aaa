#include <cstdio>

#include "bench.hh"

namespace e2e {

std::int32_t
Tracer::open(const char *name, std::uint64_t request,
             std::uint32_t columns)
{
    Span s;
    s.name = name;
    s.parent = current;
    s.pass = pass;
    s.request = request;
    s.columns = columns;
    spans.push_back(s);
    current = static_cast<std::int32_t>(spans.size() - 1);
    // Stamp last so the bookkeeping above is outside the span.
    spans.back().t0 = nowNs();
    return current;
}

void
Tracer::close(std::int32_t idx)
{
    const std::int64_t t = nowNs();
    spans[idx].t1 = t;
    current = spans[idx].parent;
}

std::vector<std::int64_t>
Tracer::selfTimes() const
{
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].t1 - spans[i].t0;
    // Children never overlap on one thread, so subtracting each
    // child's duration from its parent leaves the uncovered part.
    for (const Span &s : spans)
        if (s.parent >= 0)
            self[s.parent] -= s.t1 - s.t0;
    return self;
}

bool
Tracer::writeChrome(const std::string &path, std::size_t skipFrom,
                    std::size_t skipTo) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::int64_t base = spans.empty() ? 0 : spans.front().t0;
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
    bool first = true;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (i >= skipFrom && i < skipTo)
            continue;
        const Span &s = spans[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"span\":%zu,\"parent\":%d,"
                     "\"request\":%llu,\"columns\":%u}}",
                     first ? "" : ",\n", s.name, s.pass,
                     double(s.t0 - base) / 1e3,
                     double(s.t1 - s.t0) / 1e3, i, s.parent,
                     static_cast<unsigned long long>(s.request),
                     s.columns);
        first = false;
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

} // namespace e2e
