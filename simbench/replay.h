/**
 * @file
 * Layer replays for the traced benchmark run.
 *
 * After the traced simulation has finished (and its digest is
 * taken), these functions call one layer at a time through its
 * public API, outside the event loop, and time each call with
 * spans: the interpreter on a recorded request mix, the record
 * store on the database request stream that mix issued, the
 * processor-sharing CPU at the depth the run observed, the offload
 * mapping tables at the sizes the run left behind, and the server
 * collector.
 */

#ifndef SIMBENCH_REPLAY_H
#define SIMBENCH_REPLAY_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/testbed.h"
#include "spans.h"

namespace simbench {

/** Interpreter replay of whole requests (as LocalInvocation runs them). */
struct VmReplay
{
    uint64_t requests = 0;
    int64_t exec_ns = 0; //!< inside Interpreter::run only
    uint64_t instructions = 0;
    uint64_t ic_hits = 0;
    uint64_t ic_misses = 0;
    uint64_t materializations = 0;
    int64_t materialize_ns = 0;
    uint64_t gc_during_replay = 0;
    /** Every database request the replayed handlers issued, in order. */
    std::vector<beehive::db::Request> db_stream;
};

/**
 * Run @p n requests (ids @p first_id ...) through a fresh
 * Interpreter on the testbed's server. Database suspends are answered
 * with ConnectionProxy::request and tryMaterializeDbResponse, monitor
 * and volatile suspends through the server's SyncManager, heap-full
 * suspends with the server collector. Panics on any other suspend.
 */
VmReplay replayRequests(beehive::harness::Testbed &bed, int n,
                        int64_t first_id, SpanRecorder &spans);

/** Record-store replay of a request stream, by operation kind. */
struct DbReplay
{
    std::map<std::string, uint64_t> ops;      //!< kind -> count
    std::map<std::string, int64_t> exec_ns;   //!< kind -> total ns
    uint64_t rows_returned = 0;
};

/** Execute @p stream against a freshly seeded RecordStore. */
DbReplay replayDb(const beehive::apps::WebApp &app,
                  const std::vector<beehive::db::Request> &stream,
                  SpanRecorder &spans);

/**
 * Host ns for @p ops ProcessorSharingCpu submit + completion pairs
 * with @p depth long-running jobs kept in service.
 */
double replayCpuOps(int cores, double speed, int depth, int ops,
                    SpanRecorder &spans);

/** Mapping-table lookups replayed on the run's own tables. */
struct MappingReplay
{
    uint64_t tables = 0;
    uint64_t entries = 0;
    uint64_t lookups = 0;
    int64_t lookup_ns = 0;
    /** Entries whose toServer(toRemote(ref)) was not ref. */
    uint64_t mismatches = 0;
};

MappingReplay replayMapping(beehive::core::BeeHiveServer &server,
                            uint64_t min_lookups, SpanRecorder &spans);

/** Host ms of each of @p cycles timed BeeHiveServer::runGc() calls. */
std::vector<double> timedGc(beehive::core::BeeHiveServer &server,
                            int cycles, SpanRecorder &spans);

} // namespace simbench

#endif // SIMBENCH_REPLAY_H
