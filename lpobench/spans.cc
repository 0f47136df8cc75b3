#include "spans.h"

#include <cstdio>
#include <fstream>

namespace lpobench {

int64_t
SpanLog::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

int
SpanLog::begin(const std::string &name, uint64_t id)
{
    if (!enabled_)
        return -1;
    Span span;
    span.name = name;
    span.id = id;
    span.parent = open_.empty() ? -1 : open_.back();
    span.start_ns = nowNs();
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
}

int
SpanLog::beginDetached(const std::string &name, uint64_t id)
{
    if (!enabled_)
        return -1;
    int index = begin(name, id);
    open_.pop_back();
    return index;
}

void
SpanLog::setEnd(int index)
{
    if (index >= 0)
        spans_[index].end_ns = nowNs();
}

void
SpanLog::end(int index)
{
    // Scopes close innermost first, so @p index is the top of the stack.
    spans_[index].end_ns = nowNs();
    open_.pop_back();
}

std::vector<double>
SpanLog::selfMs() const
{
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].durationMs();
    for (const Span &span : spans_)
        if (span.parent >= 0)
            self[span.parent] -= span.durationMs();
    return self;
}

std::map<std::string, double>
SpanLog::selfMsByName() const
{
    std::vector<double> self = selfMs();
    std::map<std::string, double> by_name;
    for (size_t i = 0; i < spans_.size(); ++i)
        by_name[spans_[i].name] += self[i];
    return by_name;
}

std::map<std::string, double>
SpanLog::totalMsByName() const
{
    std::map<std::string, double> by_name;
    for (const Span &span : spans_)
        by_name[span.name] += span.durationMs();
    return by_name;
}

std::vector<double>
SpanLog::durationsMs(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &span : spans_)
        if (span.name == name)
            out.push_back(span.durationMs());
    return out;
}

bool
SpanLog::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return false;
    out << "{\"traceEvents\":[\n";
    char buf[512];
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                      "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                      "\"parent\":%d,\"id\":%llu}}%s\n",
                      span.name.c_str(), span.start_ns / 1e3,
                      (span.end_ns - span.start_ns) / 1e3, i, span.parent,
                      static_cast<unsigned long long>(span.id),
                      i + 1 < spans_.size() ? "," : "");
        out << buf;
    }
    out << "],\"displayTimeUnit\":\"ms\"}\n";
    return static_cast<bool>(out);
}

} // namespace lpobench
