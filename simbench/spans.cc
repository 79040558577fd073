#include "spans.h"

#include <algorithm>
#include <cstdio>

namespace simbench {

uint64_t
SpanRecorder::begin(const char *name, uint64_t parent, uint64_t request)
{
    if (!enabled_)
        return 0;
    Span s;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.request = request;
    s.name = name;
    s.start_ns = nowNs();
    s.end_ns = s.start_ns;
    spans_.push_back(s);
    return s.id;
}

void
SpanRecorder::end(uint64_t id)
{
    if (id == 0 || id > spans_.size())
        return;
    spans_[id - 1].end_ns = nowNs();
}

std::map<std::string, SpanTotals>
SpanRecorder::totals() const
{
    // Children grouped under their parent, as [start, end) intervals.
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
        spans_.size());
    for (const Span &s : spans_) {
        if (s.parent != 0 && s.parent <= spans_.size())
            children[s.parent - 1].push_back({s.start_ns, s.end_ns});
    }
    std::map<std::string, SpanTotals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        // Union of the child intervals, clipped to the parent.
        int64_t covered = 0;
        int64_t cur_start = 0;
        int64_t cur_end = 0;
        bool open = false;
        for (auto [a, b] : kids) {
            a = std::max(a, s.start_ns);
            b = std::min(b, s.end_ns);
            if (b <= a)
                continue;
            if (open && a <= cur_end) {
                cur_end = std::max(cur_end, b);
                continue;
            }
            if (open)
                covered += cur_end - cur_start;
            cur_start = a;
            cur_end = b;
            open = true;
        }
        if (open)
            covered += cur_end - cur_start;
        SpanTotals &t = out[s.name];
        ++t.count;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += s.end_ns - s.start_ns - covered;
    }
    return out;
}

bool
SpanRecorder::writeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fputs("[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                     "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}"
                     "%s\n",
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.request), s.name,
                     static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns),
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]\n", f);
    return std::fclose(f) == 0;
}

} // namespace simbench
