#include "trace.hh"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "service/wire.hh"

namespace e2e
{

double
nowUs()
{
    static const Clock::time_point epoch = Clock::now();
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch)
        .count();
}

void
spinUs(double us)
{
    const double until = nowUs() + us;
    while (nowUs() < until) {
    }
}

Recorder::Scope::Scope(Recorder &r, const char *name, long op, int depth)
    : r_(r), name_(name), op_(op), depth_(depth)
{
    if (!r_.on && r_.injectLayer.empty())
        return;
    start_ = nowUs();
    if (!r_.injectLayer.empty() && r_.injectLayer == name_)
        spinUs(r_.injectUs);
}

Recorder::Scope::~Scope()
{
    if (r_.on)
        r_.add(name_, op_, depth_, start_, nowUs() - start_, r_.lane);
}

void
Recorder::add(const std::string &name, long op, int depth, double start_us,
              double dur_us, int tid)
{
    if (on)
        spans_.push_back({name, op, depth, tid, start_us, dur_us});
}

bool
Recorder::writeChrome(const std::string &path, long max_op) const
{
    triq::JsonWriter w;
    w.beginObject().key("displayTimeUnit").value("ms");
    w.key("traceEvents").beginArray();
    for (const Span &s : spans_) {
        if (s.op >= max_op)
            continue;
        w.beginObject();
        w.key("name").value(s.name);
        w.key("cat").value(s.name.substr(0, s.name.find('.')));
        w.key("ph").value("X");
        w.key("ts").value(s.startUs).key("dur").value(s.durUs);
        w.key("pid").value(1).key("tid").value(s.tid);
        w.key("args").beginObject().key("op").value(s.op);
        w.key("depth").value(s.depth).endObject();
        w.endObject();
    }
    w.endArray().endObject();
    std::ofstream out(path);
    out << w.str() << '\n';
    return static_cast<bool>(out);
}

namespace
{

/** Spans grouped by op, each group sorted by (start, depth). */
std::map<long, std::vector<const Span *>>
byOp(const std::vector<Span> &spans)
{
    std::map<long, std::vector<const Span *>> ops;
    for (const Span &s : spans)
        ops[s.op].push_back(&s);
    for (auto &[op, v] : ops)
        std::stable_sort(v.begin(), v.end(),
                         [](const Span *a, const Span *b) {
                             if (a->startUs != b->startUs)
                                 return a->startUs < b->startUs;
                             return a->depth < b->depth;
                         });
    return ops;
}

bool
inside(const Span &child, const Span &parent)
{
    return child.tid == parent.tid && child.depth == parent.depth + 1 &&
           child.startUs >= parent.startUs &&
           child.startUs < parent.startUs + parent.durUs;
}

/** Self time of every span of one op (same order as `v`). */
std::vector<double>
selfTimes(const std::vector<const Span *> &v)
{
    std::vector<double> self(v.size());
    for (size_t i = 0; i < v.size(); ++i) {
        double covered = 0.0;
        for (size_t j = i + 1; j < v.size(); ++j) {
            if (v[j]->startUs >= v[i]->startUs + v[i]->durUs)
                break;
            if (inside(*v[j], *v[i]))
                covered += v[j]->durUs;
        }
        self[i] = std::max(0.0, v[i]->durUs - covered);
    }
    return self;
}

} // namespace

std::map<std::string, double>
Recorder::selfTimeUs(int lane) const
{
    std::map<std::string, double> out;
    for (const auto &[op, v] : byOp(spans_)) {
        std::vector<double> self = selfTimes(v);
        for (size_t i = 0; i < v.size(); ++i)
            if (v[i]->tid == lane)
                out[v[i]->name] += self[i];
    }
    return out;
}

std::map<long, Recorder::OpCoverage>
Recorder::coverage() const
{
    std::map<long, OpCoverage> out;
    for (const auto &[op, v] : byOp(spans_)) {
        std::vector<double> self = selfTimes(v);
        for (size_t i = 0; i < v.size(); ++i) {
            if (v[i]->depth != 0)
                continue;
            OpCoverage c;
            c.wallUs = v[i]->durUs;
            const double end = v[i]->startUs + v[i]->durUs;
            for (size_t j = 0; j < v.size(); ++j)
                if (v[j]->depth > 0 && v[j]->tid == v[i]->tid &&
                    v[j]->startUs >= v[i]->startUs && v[j]->startUs < end)
                    c.selfSumUs += self[j];
            out[op] = c;
        }
    }
    return out;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

} // namespace e2e
