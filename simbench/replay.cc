#include "replay.h"

#include <any>
#include <memory>

#include "core/external.h"
#include "sim/cpu.h"
#include "support/logging.h"

namespace simbench {

using namespace beehive;

namespace {

const char *
kindName(db::OpKind kind)
{
    switch (kind) {
      case db::OpKind::Get: return "get";
      case db::OpKind::Put: return "put";
      case db::OpKind::Scan: return "scan";
      case db::OpKind::Count: return "count";
      case db::OpKind::Delete: return "delete";
    }
    return "?";
}

} // namespace

VmReplay
replayRequests(harness::Testbed &bed, int n, int64_t first_id,
               SpanRecorder &spans)
{
    core::BeeHiveServer &server = bed.server();
    // The server collector only knows the server's own invocations:
    // expose the replayed interpreter's frames as extra roots. The
    // provider outlives this call (the collector keeps it), so it
    // shares ownership of the slot and finds it empty afterwards.
    auto current = std::make_shared<vm::Interpreter *>(nullptr);
    server.collector().addValueRoots([current](const auto &visit) {
        if (*current)
            (*current)->forEachRoot(visit);
    });
    vm::MethodId entry = bed.app().entry();
    VmReplay out;
    for (int i = 0; i < n; ++i) {
        uint64_t req = static_cast<uint64_t>(i) + 1;
        ScopedSpan request(spans, "replay.request", 0, req);
        vm::Interpreter interp(server.context());
        *current = &interp;
        interp.setSuppressOffload(true);
        if (server.profiling()) {
            // LocalInvocation profiles candidates while the server is
            // in profiling mode; replay the same interpreter work.
            interp.enableCandidateProfiling(true);
            interp.enableRecording(server.profiler().isCandidate(entry));
        }
        interp.start(entry, {vm::Value::ofInt(first_id + i)});
        bool done = false;
        while (!done) {
            vm::Suspend s;
            {
                ScopedSpan run(spans, "vm.run", request.id(), req);
                int64_t t0 = nowNs();
                s = interp.run();
                out.exec_ns += nowNs() - t0;
            }
            interp.consumeCost();
            switch (s.kind) {
              case vm::Suspend::Kind::Done:
                done = true;
                break;
              case vm::Suspend::Kind::Quantum:
                break;
              case vm::Suspend::Kind::External: {
                auto payload = std::any_cast<core::DbCallPayload>(
                    s.external);
                out.db_stream.push_back(payload.request);
                db::Response resp;
                {
                    ScopedSpan p(spans, "proxy.request", request.id(),
                                 req);
                    resp = server.proxy().request(
                        static_cast<proxy::ConnId>(payload.conn_token),
                        payload.request);
                }
                ScopedSpan m(spans, "core.materialize", request.id(),
                             req);
                int64_t t0 = nowNs();
                auto v = core::tryMaterializeDbResponse(
                    server.context(), payload.request, resp);
                if (!v) {
                    ScopedSpan g(spans, "gc.collect", m.id(), req);
                    server.runGc();
                    ++out.gc_during_replay;
                    v = core::tryMaterializeDbResponse(
                        server.context(), payload.request, resp);
                }
                out.materialize_ns += nowNs() - t0;
                ++out.materializations;
                bh_assert(v.has_value(), "replay: server heap exhausted");
                interp.resumeExternal(*v);
                break;
              }
              case vm::Suspend::Kind::MonitorAcquire: {
                bool granted = false;
                server.sync().acquireMonitor(
                    0, &interp, s.monitor_obj,
                    [&granted](const core::SyncManager::SyncResult &) {
                        granted = true;
                    });
                bh_assert(granted, "replay: monitor contended");
                interp.grantMonitor(s.monitor_obj);
                break;
              }
              case vm::Suspend::Kind::MonitorRelease:
                server.sync().releaseMonitor(0, &interp, s.monitor_obj);
                interp.grantRelease();
                break;
              case vm::Suspend::Kind::VolatileSync:
                server.sync().acquire(0, s.monitor_obj);
                interp.grantVolatile(s.monitor_obj);
                break;
              case vm::Suspend::Kind::HeapFull: {
                ScopedSpan g(spans, "gc.collect", request.id(), req);
                server.runGc();
                ++out.gc_during_replay;
                break;
              }
              default:
                panic("replay: unexpected suspend kind %d",
                      static_cast<int>(s.kind));
            }
        }
        server.sync().abandonHolder(&interp);
        *current = nullptr;
        const vm::InterpStats &st = interp.stats();
        out.instructions += st.instructions;
        out.ic_hits += st.ic_hits;
        out.ic_misses += st.ic_misses;
        ++out.requests;
    }
    return out;
}

DbReplay
replayDb(const apps::WebApp &app,
         const std::vector<db::Request> &stream, SpanRecorder &spans)
{
    db::RecordStore store;
    app.seedDatabase(store);
    DbReplay out;
    uint64_t root = spans.begin("db.replay", 0, 0);
    for (const db::Request &r : stream) {
        const char *kind = kindName(r.kind);
        int64_t t0 = nowNs();
        db::Response resp;
        {
            ScopedSpan s(spans, "db.execute", root, 0);
            resp = store.execute(r);
        }
        out.exec_ns[kind] += nowNs() - t0;
        ++out.ops[kind];
        out.rows_returned += resp.rows.size();
    }
    spans.end(root);
    return out;
}

double
replayCpuOps(int cores, double speed, int depth, int ops,
             SpanRecorder &spans)
{
    sim::Simulation sim(1);
    sim::ProcessorSharingCpu cpu(sim, cores, speed);
    // Background jobs long enough never to finish during the replay.
    for (int d = 0; d < depth; ++d)
        cpu.submit(1e18, [] {});
    int completed = 0;
    ScopedSpan span(spans, "sim.cpu.replay", 0, 0);
    int64_t t0 = nowNs();
    for (int i = 0; i < ops; ++i) {
        cpu.submit(1000.0, [&completed] { ++completed; });
        sim.runUntil(sim.queue().nextTime());
    }
    int64_t elapsed = nowNs() - t0;
    bh_assert(completed == ops, "cpu replay: %d of %d jobs completed",
              completed, ops);
    return static_cast<double>(elapsed);
}

MappingReplay
replayMapping(core::BeeHiveServer &server, uint64_t min_lookups,
              SpanRecorder &spans)
{
    MappingReplay out;
    std::vector<std::pair<core::MappingTable *, std::vector<vm::Ref>>>
        tables;
    // Function endpoints are numbered from 1 and only dropped when an
    // instance dies; the caller checks none did.
    for (std::size_t id = 1; id <= server.functionCount(); ++id) {
        core::MappingTable &t =
            server.mappingFor(static_cast<uint16_t>(id));
        std::vector<vm::Ref> refs;
        t.forEachServerRef([&refs](vm::Ref &r) { refs.push_back(r); });
        out.entries += refs.size();
        tables.push_back({&t, std::move(refs)});
    }
    out.tables = tables.size();
    if (out.entries == 0)
        return out;
    ScopedSpan span(spans, "core.mapping.replay", 0, 0);
    int64_t t0 = nowNs();
    while (out.lookups < min_lookups) {
        for (auto &[table, refs] : tables) {
            for (vm::Ref r : refs) {
                if (table->toServer(table->toRemote(r)) != r)
                    ++out.mismatches;
                out.lookups += 2;
            }
        }
    }
    out.lookup_ns = nowNs() - t0;
    return out;
}

std::vector<double>
timedGc(core::BeeHiveServer &server, int cycles, SpanRecorder &spans)
{
    std::vector<double> ms;
    for (int i = 0; i < cycles; ++i) {
        ScopedSpan span(spans, "gc.collect", 0, 0);
        int64_t t0 = nowNs();
        server.runGc();
        ms.push_back(static_cast<double>(nowNs() - t0) / 1e6);
    }
    return ms;
}

} // namespace simbench
