/**
 * @file
 * simbench_driver: one benchmark repetition in one process.
 *
 * Runs a single single-threaded simulation of one named workload and
 * prints one JSON object on stdout: set-up and wall host time, the
 * host time of every 100 ms simulated slice, the mean time of the
 * host-speed probe run after each slice (probe.h), request accounting,
 * peak RSS and a digest of the simulated outputs.
 * With --mode trace it then replays each layer through its public
 * API (see replay.h) and adds the per-layer numbers; with
 * --mode crosscheck it runs harness::runBurstExperiment on the same
 * seed and span instead, so the caller can compare the two drivers.
 *
 * Usage:
 *   simbench_driver --workload NAME --seed N [--mode run|trace|crosscheck]
 *                   [--spans-out FILE]
 *
 * simbench/run.py runs this binary; it is not meant to be run alone.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "harness/burst.h"
#include "harness/testbed.h"
#include "probe.h"
#include "replay.h"
#include "spans.h"
#include "workload/clients.h"

using namespace beehive;
using sim::SimTime;

namespace simbench {
namespace {

/** One benchmark workload: everything but the seed is fixed here. */
struct WorkloadSpec
{
    const char *name;
    harness::AppKind app;
    /** Closed-loop BeeHive-O burst (Fig. 7) instead of an open loop. */
    bool burst;
    /** Open loop: Poisson arrival rate. */
    double rps;
    /** Simulated span of the load (burst: the experiment duration). */
    SimTime span;
    /** Burst only: when the clients double and offloading starts. */
    SimTime burst_at;
    /** Simulated drain window after the load stops. */
    SimTime drain;
    /** Burst only: closed-loop clients before the burst. */
    int base_clients;
};

constexpr double kOffloadRatio = 0.5;
constexpr int kNativeScale = 400;
const SimTime kSlice = SimTime::msec(100);

const WorkloadSpec kWorkloads[] = {
    // 75% of the calibrated 80 rps vanilla pybbs saturation.
    {"pybbs-steady", harness::AppKind::Pybbs, false, 60.0,
     SimTime::sec(60), SimTime(), SimTime::sec(3), 0},
    // 80% of the calibrated 100 rps vanilla blog saturation.
    {"blog-scan", harness::AppKind::Blog, false, 80.0, SimTime::sec(40),
     SimTime(), SimTime::sec(3), 0},
    // Fig. 7 BeeHive-O on pybbs, timeline shortened.
    {"pybbs-burst", harness::AppKind::Pybbs, true, 0.0, SimTime::sec(30),
     SimTime::sec(10), SimTime::sec(2), 8},
};

/** FNV-1a over 64-bit words. */
class Digest
{
  public:
    void
    add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }
    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

/**
 * Request accounting wrapped around the testbed's sink: counts issued
 * and completed requests, flags a request completed twice, and folds
 * every completion (id, simulated latency) into the digest.
 */
struct Accounting
{
    explicit Accounting(sim::Simulation &s) : sim(s) {}

    workload::RequestSink
    wrap(workload::RequestSink inner)
    {
        return [this, inner = std::move(inner)](
                   int64_t id, std::function<void()> done) {
            ++issued;
            in_flight.insert(id);
            SimTime start = sim.now();
            inner(id, [this, id, start, done = std::move(done)] {
                if (in_flight.erase(id) == 0)
                    ++double_completions;
                ++completed;
                digest.add(static_cast<uint64_t>(id));
                digest.add(static_cast<uint64_t>((sim.now() - start).ns()));
                done();
            });
        };
    }

    sim::Simulation &sim;
    uint64_t issued = 0;
    uint64_t completed = 0;
    uint64_t double_completions = 0;
    std::unordered_set<int64_t> in_flight;
    Digest digest;
};

/** Minimal JSON object writer (numbers and strings only). */
class Json
{
  public:
    Json &
    num(const std::string &key, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return raw(key, buf);
    }
    Json &
    num(const std::string &key, uint64_t v)
    {
        return raw(key, std::to_string(v));
    }
    Json &
    str(const std::string &key, const std::string &v)
    {
        std::string esc;
        for (char c : v) {
            if (c == '"' || c == '\\')
                esc += '\\';
            if (static_cast<unsigned char>(c) >= 0x20)
                esc += c;
        }
        return raw(key, "\"" + esc + "\"");
    }
    Json &
    raw(const std::string &key, const std::string &v)
    {
        if (!body_.empty())
            body_ += ',';
        body_ += '"';
        body_ += key;
        body_ += "\":";
        body_ += v;
        return *this;
    }
    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

/** Per-layer values, each ratio recorded with its numerator and base. */
struct Layers
{
    Json values;
    Json bases;

    void num(const std::string &key, double v) { values.num(key, v); }
    void num(const std::string &key, uint64_t v) { values.num(key, v); }

    void
    ratio(const std::string &key, double num, double den,
          const std::string &num_label, const std::string &den_label)
    {
        values.num(key, den != 0.0 ? num / den : 0.0);
        char buf[96];
        std::snprintf(buf, sizeof buf, "[%.17g,%.17g,", num, den);
        bases.raw(key, buf + ("\"" + num_label + "\",\"" + den_label +
                              "\"]"));
    }
};

double
secondsSince(int64_t t0)
{
    return static_cast<double>(nowNs() - t0) / 1e9;
}

double
residentMb()
{
    std::ifstream f("/proc/self/statm");
    uint64_t pages = 0;
    uint64_t resident = 0;
    f >> pages >> resident;
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
buildInfo()
{
    Json j;
    j.str("compiler", std::string("gcc ") + __VERSION__);
    j.str("build_type", SIMBENCH_BUILD_TYPE);
    j.num("nproc", static_cast<uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
    return j.text();
}

/** Refuse numbers from a build that does not measure the simulator. */
const char *
buildProblem()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "sanitized build";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
    return "sanitized build";
#endif
#endif
#ifndef NDEBUG
    return "NDEBUG not defined (not an optimized build)";
#endif
    if (std::strcmp(SIMBENCH_BUILD_TYPE, "Release") != 0)
        return "build type is not Release";
    return nullptr;
}

harness::TestbedOptions
testbedOptions(const WorkloadSpec &spec, uint64_t seed)
{
    harness::TestbedOptions o;
    o.app = spec.app;
    o.faas = harness::FaasFlavor::OpenWhisk;
    o.seed = seed;
    o.vanilla = !spec.burst;
    o.framework.native_scale = kNativeScale;
    return o;
}

int
crossCheck(const WorkloadSpec &spec, uint64_t seed)
{
    if (!spec.burst) {
        std::fprintf(stderr, "crosscheck needs a burst workload\n");
        return 2;
    }
    harness::BurstOptions o;
    o.app = spec.app;
    o.solution = harness::Solution::BeeHiveO;
    o.seed = seed;
    o.duration = spec.span;
    o.burst_at = spec.burst_at;
    o.base_clients = spec.base_clients;
    o.offload_ratio = kOffloadRatio;
    o.framework.native_scale = kNativeScale;
    harness::BurstResult r = harness::runBurstExperiment(o);
    Json j;
    j.num("completed", r.completed_requests)
        .num("cold_boots", r.cold_boots)
        .num("warm_boots", r.warm_boots)
        .num("restore_boots", r.restore_boots);
    std::printf("%s\n", j.text().c_str());
    return 0;
}

int
runRep(const WorkloadSpec &spec, uint64_t seed, bool traced,
       const std::string &spans_out)
{
    SpanRecorder spans(traced);
    double rss_before_probe = residentMb();
    HostProbe probe;
    double probe_rss_mb = residentMb() - rss_before_probe;

    // --- Set-up: testbed construction plus the profiling phase.
    int64_t t_setup = nowNs();
    uint64_t setup_span = spans.begin("setup.testbed", 0, 0);
    harness::Testbed bed(testbedOptions(spec, seed));
    spans.end(setup_span);
    double testbed_s = secondsSince(t_setup);
    int64_t t_prof = nowNs();
    if (spec.burst) {
        ScopedSpan s(spans, "setup.profiling", 0, 0);
        if (!bed.runProfilingPhase()) {
            std::fprintf(stderr, "profiler did not select the handler\n");
            return 3;
        }
    }
    double profiling_s = spec.burst ? secondsSince(t_prof) : 0.0;

    // --- Load, exactly as the paper harness schedules it.
    sim::Simulation &sim = bed.sim();
    const sim::EventQueue &q = sim.queue();
    SimTime t0 = sim.now();
    uint64_t dispatched0 = q.dispatched();
    uint64_t cancelled0 = q.cancelled();
    Accounting acct(sim);
    workload::Recorder recorder;
    std::unique_ptr<workload::OpenLoopArrivals> arrivals;
    std::unique_ptr<workload::ClosedLoopClients> clients;
    SimTime load_end = t0 + spec.span;
    SimTime end = load_end + spec.drain;
    SimTime burst_time = SimTime::max();
    if (spec.burst) {
        // Same schedule as harness::runBurstExperiment for BeeHiveO.
        recorder.setWarmupCutoff(t0 + SimTime::sec(5));
        clients = std::make_unique<workload::ClosedLoopClients>(
            sim, acct.wrap(bed.sink()), recorder);
        clients->start(spec.base_clients, t0);
        clients->startWindow(spec.base_clients, t0 + spec.burst_at,
                             load_end);
        burst_time = t0 + spec.burst_at;
        core::OffloadManager *mgr = bed.manager();
        sim.at(burst_time, [mgr] { mgr->setOffloadRatio(kOffloadRatio); });
    } else {
        arrivals = std::make_unique<workload::OpenLoopArrivals>(
            sim, acct.wrap(bed.sink()), recorder);
        arrivals->run(spec.rps, t0, load_end);
    }

    // --- Timed simulation in 100 ms slices.
    std::vector<double> slice_ms;
    std::vector<bool> slice_in_burst;
    std::vector<double> cpu_active;
    double rss_at_burst = -1.0;
    cloud::Instance &server_machine = bed.serverMachine();
    int64_t probe_ns = 0;
    for (SimTime t = t0; t < end;) {
        SimTime next = std::min(t + kSlice, end);
        if (t == load_end && clients)
            clients->stopAll();
        uint64_t span = spans.begin("harness.slice", 0, 0);
        int64_t s0 = nowNs();
        sim.runUntil(next);
        slice_ms.push_back(static_cast<double>(nowNs() - s0) / 1e6);
        spans.end(span);
        probe_ns += probe.run();
        slice_in_burst.push_back(t >= burst_time);
        if (traced) {
            cpu_active.push_back(server_machine.cpu().active());
            if (rss_at_burst < 0.0 && next >= burst_time)
                rss_at_burst = residentMb();
        }
        t = next;
    }
    double wall_s = 0.0;
    for (double ms : slice_ms)
        wall_s += ms / 1e3;
    // The probe's table is allocated before the testbed and stays
    // resident; the simulator's own peak is the rest.
    double peak_rss = peakRssMb() - probe_rss_mb;
    double rss_end_of_run = traced ? residentMb() : 0.0;

    // --- Output checks and digest.
    std::vector<std::string> problems;
    uint64_t failed = acct.in_flight.size();
    if (acct.issued != acct.completed + failed)
        problems.push_back("issued != completed + failed");
    if (acct.double_completions != 0)
        problems.push_back("a request completed twice");
    if (!spec.burst && recorder.completed() != acct.completed)
        problems.push_back("recorder and sink disagree on completions");
    if (q.scheduled() != q.dispatched() + q.cancelled() + q.pending())
        problems.push_back("event counts: scheduled != dispatched + "
                           "cancelled + pending");
    Digest digest = acct.digest;
    digest.add(acct.issued);
    digest.add(acct.completed);
    digest.add(recorder.completed());
    digest.add(q.scheduled());
    digest.add(q.dispatched());
    digest.add(q.cancelled());
    digest.add(static_cast<uint64_t>(sim.now().ns()));
    digest.add(bed.proxy().stats().requests_routed);
    digest.add(bed.server().stats().local_requests);
    digest.add(bed.server().collector().totals().collections);
    digest.add(bed.server().collector().totals().bytes_copied);
    uint64_t cold = 0, warm = 0, restore = 0, instances = 0;
    if (cloud::FaasPlatform *p = bed.platform()) {
        cold = p->coldBoots();
        warm = p->warmBoots();
        restore = p->restoreBoots();
        instances = p->totalInstances();
    }
    core::OffloadStats ostats;
    if (core::OffloadManager *m = bed.manager())
        ostats = m->stats();
    for (uint64_t v : {cold, warm, restore, instances, ostats.local,
                       ostats.offloaded, ostats.shadows})
        digest.add(v);

    char digest_hex[32];
    std::snprintf(digest_hex, sizeof digest_hex, "%016" PRIx64,
                  digest.value());

    Json out;
    out.str("workload", spec.name)
        .num("seed", seed)
        .str("mode", traced ? "trace" : "run")
        .raw("build", buildInfo())
        .str("sim_digest", digest_hex)
        .num("issued", acct.issued)
        .num("completed", acct.completed)
        .num("failed", failed)
        .num("recorder_completed", recorder.completed())
        .num("cold_boots", cold)
        .num("warm_boots", warm)
        .num("restore_boots", restore)
        .num("setup_testbed_s", testbed_s)
        .num("setup_profiling_s", profiling_s)
        .num("wall_s", wall_s)
        .num("probe_ns", static_cast<double>(probe_ns) /
                             static_cast<double>(slice_ms.size()))
        .num("peak_rss_mb", peak_rss)
        .num("sim_span_s", (end - t0).toSeconds());
    std::string slices = "[";
    for (std::size_t i = 0; i < slice_ms.size(); ++i) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%s%.6f", i ? "," : "", slice_ms[i]);
        slices += buf;
    }
    out.raw("slice_ms", slices + "]");

    if (traced) {
        // --- Per-layer numbers: counters of the run itself first,
        // then replays (after the digest, so they cannot change it).
        Layers L;
        uint64_t events = q.dispatched() - dispatched0;
        L.num("sim.events", events);
        L.num("sim.events_cancelled", q.cancelled() - cancelled0);
        L.ratio("sim.host_ns_per_event", wall_s * 1e9, events,
                "host ns of the timed span", "events dispatched");
        double depth_p50 = median(cpu_active);
        L.num("sim.cpu.active_p50", depth_p50);
        L.num("sim.cpu.active_max",
              cpu_active.empty()
                  ? 0.0
                  : *std::max_element(cpu_active.begin(), cpu_active.end()));
        const int cpu_ops = 20000;
        L.ratio("sim.cpu.op_ns",
                replayCpuOps(server_machine.cpu().cores(),
                             server_machine.cpu().speed(),
                             static_cast<int>(depth_p50), cpu_ops, spans),
                cpu_ops, "host ns", "submit+complete ops");

        std::vector<double> pre, post;
        for (std::size_t i = 0; i < slice_ms.size(); ++i)
            (slice_in_burst[i] ? post : pre).push_back(slice_ms[i]);
        L.num("phase.pre_burst_slice_ms", spec.burst ? median(pre) : 0.0);
        L.num("phase.burst_slice_ms", spec.burst ? median(post) : 0.0);
        L.num("setup.testbed_s", testbed_s);
        L.num("setup.profiling_s", profiling_s);
        L.num("harness.slices", static_cast<double>(slice_ms.size()));
        L.num("harness.issued", acct.issued);
        L.ratio("harness.failed_frac", failed, acct.issued, "failed",
                "issued");

        core::BeeHiveServer &server = bed.server();
        L.num("proxy.requests_routed", bed.proxy().stats().requests_routed);
        const gc::GcTotals &gct = server.collector().totals();
        L.num("gc.collections", gct.collections);
        L.num("gc.bytes_copied", gct.bytes_copied);

        uint64_t code_fetches = 0, data_fetches = 0, synced = 0;
        if (core::OffloadManager *m = bed.manager()) {
            for (const auto &[root, tr] : m->traces()) {
                code_fetches += tr.code_fetches;
                data_fetches += tr.data_fetches;
                synced += tr.synchronized_objects;
            }
        }
        L.num("core.offload.offloaded", ostats.offloaded);
        L.num("core.offload.local", ostats.local);
        L.num("core.offload.code_fetches", code_fetches);
        L.num("core.offload.data_fetches", data_fetches);
        L.num("core.sync.syncs", server.sync().syncCount());
        L.num("core.sync.synchronized_objects", synced);

        // Mapping tables: function endpoints are only dropped when an
        // instance expires or dies, which these runs never do.
        MappingReplay mr;
        cloud::FaasPlatform *platform = bed.platform();
        if (platform && platform->expired() == 0 &&
            server.functionCount() == platform->totalInstances()) {
            mr = replayMapping(server, 400000, spans);
            if (mr.mismatches != 0)
                problems.push_back("mapping round trip mismatch");
        } else if (platform) {
            problems.push_back("function endpoints were dropped");
        }
        L.num("core.mapping.entries", mr.entries);
        L.num("core.mapping.tables", mr.tables);
        L.ratio("core.mapping.lookup_ns", mr.lookup_ns, mr.lookups,
                "host ns", "lookups");

        L.num("cloud.faas.cold_boots", cold);
        L.num("cloud.faas.warm_boots", warm);
        L.num("cloud.faas.instances", instances);
        L.ratio("cloud.rss_mb_per_instance",
                rss_at_burst >= 0.0 ? rss_end_of_run - rss_at_burst : 0.0,
                instances, "RSS MB grown from the burst to the end",
                "FaaS instances");

        VmReplay vr = replayRequests(bed, spec.burst ? 40 : 60,
                                     int64_t{1} << 40, spans);
        L.num("vm.replayed_requests", vr.requests);
        L.ratio("vm.exec_ns_per_req", vr.exec_ns, vr.requests,
                "host ns in Interpreter::run", "replayed requests");
        L.ratio("vm.instr_per_req", vr.instructions, vr.requests,
                "instructions", "replayed requests");
        L.ratio("vm.ns_per_instr", vr.exec_ns, vr.instructions,
                "host ns in Interpreter::run", "instructions");
        L.num("vm.ic_lookups", vr.ic_hits + vr.ic_misses);
        L.ratio("vm.ic_hit_rate", vr.ic_hits, vr.ic_hits + vr.ic_misses,
                "inline-cache hits", "inline-cache lookups");
        L.num("core.materializations", vr.materializations);
        L.ratio("core.materialize_ns", vr.materialize_ns,
                vr.materializations, "host ns", "materializations");

        DbReplay dr = replayDb(bed.app(), vr.db_stream, spans);
        for (const char *kind : {"get", "put", "scan", "count"}) {
            L.num(std::string("db.") + kind, dr.ops[kind]);
            L.ratio(std::string("db.exec_ns.") + kind, dr.exec_ns[kind],
                    dr.ops[kind], "host ns in RecordStore::execute",
                    "operations");
        }
        L.num("db.rows_returned", dr.rows_returned);

        L.num("gc.host_ms_per_collection",
              median(timedGc(server, 5, spans)));

        // Self time per span name (replay spans and event-loop slices).
        for (const auto &[name, t] : spans.totals())
            L.num("self_ms." + name, static_cast<double>(t.self_ns) / 1e6);
        out.raw("layers", L.values.text()).raw("bases", L.bases.text());
        if (!spans_out.empty() && !spans.writeJson(spans_out))
            problems.push_back("could not write spans to " + spans_out);
    }

    std::string problem_list;
    for (const std::string &p : problems)
        problem_list += (problem_list.empty() ? "" : "; ") + p;
    out.str("problems", problem_list);
    std::printf("%s\n", out.text().c_str());
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: simbench_driver --workload NAME --seed N "
                 "[--mode run|trace|crosscheck] [--spans-out FILE]\n");
    return 2;
}

} // namespace
} // namespace simbench

int
main(int argc, char **argv)
{
    using namespace simbench;
    std::string workload;
    std::string mode = "run";
    std::string spans_out;
    uint64_t seed = 0;
    bool have_seed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        if (std::strcmp(argv[i], "--workload") == 0)
            workload = argv[i + 1];
        else if (std::strcmp(argv[i], "--seed") == 0) {
            seed = std::strtoull(argv[i + 1], nullptr, 10);
            have_seed = true;
        } else if (std::strcmp(argv[i], "--mode") == 0)
            mode = argv[i + 1];
        else if (std::strcmp(argv[i], "--spans-out") == 0)
            spans_out = argv[i + 1];
        else
            return usage();
    }
    if (argc % 2 != 1 || !have_seed)
        return usage();
    if (const char *why = buildProblem()) {
        std::fprintf(stderr, "simbench_driver: refusing to measure: %s\n",
                     why);
        return 4;
    }
    for (const WorkloadSpec &spec : kWorkloads) {
        if (workload != spec.name)
            continue;
        if (mode == "crosscheck")
            return crossCheck(spec, seed);
        if (mode == "run" || mode == "trace")
            return runRep(spec, seed, mode == "trace", spans_out);
        return usage();
    }
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return usage();
}
