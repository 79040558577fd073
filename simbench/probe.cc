#include "probe.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "spans.h"

namespace simbench {

namespace {

constexpr uint64_t kTableEntries = 1u << 18;
constexpr uint64_t kKeyMul = 0x9e3779b97f4a7c15ull;

} // namespace

HostProbe::HostProbe()
{
    table_.reserve(kTableEntries);
    for (uint64_t i = 0; i < kTableEntries; ++i)
        table_[i * kKeyMul] = i;
}

uint64_t
HostProbe::next()
{
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
}

int64_t
HostProbe::run()
{
    int64_t t0 = nowNs();
    uint64_t acc = 0;
    for (int i = 0; i < 1500; ++i)
        acc += table_.find((next() % kTableEntries) * kKeyMul)->second;
    for (int i = 0; i < 300; ++i) {
        tree_[next() % 4096] = acc;
        tree_.erase(next() % 4096);
    }
    std::string text;
    for (int i = 0; i < 150; ++i) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%llu|",
                      static_cast<unsigned long long>(next()));
        text += buf;
    }
    std::vector<double> values(1000);
    for (double &v : values)
        v = static_cast<double>(next() % 100000);
    std::sort(values.begin(), values.end());
    uint64_t x = acc + text.size() + static_cast<uint64_t>(values[500]);
    for (int i = 0; i < 10000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x += x >> 29;
        // Keep every iteration: the result is otherwise unused.
        asm volatile("" : "+r"(x) : : "memory");
    }
    state_ ^= x;
    return nowNs() - t0;
}

} // namespace simbench
