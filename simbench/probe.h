/**
 * @file
 * Host-speed probe.
 *
 * The benchmark runs on shared hosts whose speed drifts by tens of
 * percent over seconds to minutes as other tenants load the machine.
 * The probe is a fixed unit of work that does not depend on the
 * simulator but has the same kind of host cost: hash-map lookups over
 * a table larger than the caches, ordered-map insert/erase churn
 * (allocator and pointer chasing), string formatting, a sort, and an
 * integer mixing loop. simbench_driver runs it once after every simulated
 * slice, outside the slice's timer, so its mean time tracks how fast
 * the host was while the simulation ran.
 */

#ifndef SIMBENCH_PROBE_H
#define SIMBENCH_PROBE_H

#include <cstdint>
#include <map>
#include <unordered_map>

namespace simbench {

class HostProbe
{
  public:
    HostProbe();

    /** Run one fixed unit of work; returns its host nanoseconds. */
    int64_t run();

  private:
    uint64_t next();

    std::unordered_map<uint64_t, uint64_t> table_;
    std::map<uint64_t, uint64_t> tree_;
    uint64_t state_ = 0x9e3779b97f4a7c15ull;
};

} // namespace simbench

#endif // SIMBENCH_PROBE_H
