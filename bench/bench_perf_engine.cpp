/**
 * @file
 * Engine performance harness: event-driven fast-forward vs the
 * per-cycle reference (sim/engine.hh), timed on canonical scenarios
 * and recorded machine-readably.
 *
 * Three scenarios run under both engines on one host thread:
 *
 *  - fleet_4board   the canonical 4-board x 4-core fleet
 *                   (scenarios/perf_fleet_4board.scn: 16 cores, 24
 *                   mixed tenants, Poisson, 4 elastic epochs) — the
 *                   acceptance scenario: the fast-forward engine
 *                   must simulate cycles >= 5x faster than the
 *                   per-cycle reference here.
 *  - open_loop_core one core, one open-loop tenant from each of the
 *                   perf fleet's four groups at moderate load — long
 *                   idle/stall spans, the fast-forward sweet spot.
 *  - closed_loop    one core, two closed-loop tenants (§V-A style) —
 *                   event-dense, the fast-forward worst case.
 *
 * Every row cross-checks that both engines produced bit-identical
 * summaries (the exhaustive check lives in tests/test_perf_engine).
 * Results go to stdout and to BENCH_PERF.json (schema documented in
 * docs/BENCHMARKS.md; override the path with --json=FILE or
 * NEU10_BENCH_JSON). tools/bench_compare.py diffs two such files,
 * and CI uploads the smoke-mode JSON as the per-commit perf record.
 *
 * Usage: bench_perf_engine [--json=FILE]
 * NEU10_SEED=<n> reseeds the traffic; NEU10_SMOKE=1 shrinks horizons
 * (the fleet's via scenario applyEnvOverrides).
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "cluster/fleet.hh"
#include "common/threadpool.hh"
#include "scenario/runner.hh"
#include "sim/engine.hh"
#include "vnpu/allocator.hh"

using namespace neu10;

// Provenance fields for the schema-v2 JSON record. The build defines
// both (bench/CMakeLists.txt); the fallbacks keep stray builds
// honest rather than broken.
#ifndef NEU10_GIT_SHA
#define NEU10_GIT_SHA "unknown"
#endif
#ifndef NEU10_BUILD_TYPE
#define NEU10_BUILD_TYPE "unknown"
#endif

namespace
{

const char *
compilerString()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

/** Traced-on A/B on the canonical fleet: wall cost and the proof
 * that tracing changed no simulation result. */
struct TracedAb
{
    double wallSeconds = 0.0;
    std::uint64_t events = 0;
    bool sameResults = false;
};

/** One engine's measurement on one scenario. */
struct EngineRun
{
    double wallSeconds = 0.0;
    double cyclesSimulated = 0.0; ///< sum of per-core windows
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    double p99 = 0.0;
    double makespan = 0.0;
    double latencySum = 0.0;
    std::uint64_t latencyCount = 0;

    double
    cyclesPerSecond() const
    {
        return wallSeconds > 0.0 ? cyclesSimulated / wallSeconds
                                 : 0.0;
    }
};

/** One scenario's A/B outcome. */
struct ScenarioResult
{
    std::string name;
    EngineRun fast; ///< SimEngine::EventDriven
    EngineRun ref;  ///< SimEngine::PerCycle
    bool bitIdentical = false;

    double
    speedup() const
    {
        return fast.wallSeconds > 0.0
                   ? ref.wallSeconds / fast.wallSeconds
                   : 0.0;
    }
};

/** Fold a fleet outcome into the comparable summary fields of an
 * EngineRun (everything but the wall clock). */
void
summarizeFleet(const FleetResult &r, EngineRun &run)
{
    run.cyclesSimulated = 0.0;
    for (const FleetCoreReport &c : r.cores)
        run.cyclesSimulated += c.makespan;
    run.completed = r.completed;
    run.rejected = r.rejected;
    run.p99 = r.p99();
    run.makespan = r.makespan;
    run.latencySum = r.latencyCycles.sum();
    run.latencyCount = r.latencyCycles.count();
}

EngineRun
measureFleet(FleetConfig cfg, SimEngine engine, unsigned reps)
{
    cfg.engine = engine;
    EngineRun run;
    run.wallSeconds = 1e300;
    FleetResult r;
    for (unsigned i = 0; i < reps; ++i)
        run.wallSeconds = std::min(
            run.wallSeconds,
            bench::wallSeconds([&] { r = runFleet(cfg); }));
    summarizeFleet(r, run);
    return run;
}

EngineRun
measureServing(ServingConfig cfg, SimEngine engine, unsigned reps)
{
    cfg.engine = engine;
    EngineRun run;
    run.wallSeconds = 1e300;
    ServingResult r;
    for (unsigned i = 0; i < reps; ++i)
        run.wallSeconds = std::min(
            run.wallSeconds,
            bench::wallSeconds([&] { r = runServing(cfg); }));
    run.cyclesSimulated = r.makespan;
    for (const TenantResult &t : r.tenants) {
        run.completed += t.completed;
        run.rejected += t.rejected;
        run.latencySum += t.latencyCycles.sum();
        run.latencyCount += t.latencyCycles.count();
        run.p99 = std::max(run.p99, t.p99());
    }
    run.makespan = r.makespan;
    return run;
}

bool
sameResults(const EngineRun &a, const EngineRun &b)
{
    return a.completed == b.completed && a.rejected == b.rejected &&
           a.p99 == b.p99 && a.makespan == b.makespan &&
           a.latencySum == b.latencySum &&
           a.latencyCount == b.latencyCount &&
           a.cyclesSimulated == b.cyclesSimulated;
}

/** One core, one open-loop tenant per group of the perf fleet
 * @p fleet at rho 0.2, each given half of its allocator-sized engine
 * split. */
ServingConfig
openLoopCore(const Scenario &fleet, Cycles horizon)
{
    ServingConfig cfg;
    cfg.mode = ServingMode::OpenLoop;
    cfg.policy = PolicyKind::Neu10;
    for (unsigned i = 0; i < fleet.groups.size(); ++i) {
        const ScenarioTenantGroup &g = fleet.groups[i];
        const VnpuSizing sizing =
            sizeVnpuForModel(g.model, g.batch, g.eus, cfg.core);
        TrafficSpec traffic;
        traffic.ratePerSec =
            0.2 * cfg.core.freqHz / sizing.serviceEstimate();
        traffic.seed = fleet.seed + 100 + i;
        TenantSpec ts;
        ts.model = g.model;
        ts.batch = g.batch;
        ts.nMes = std::max(1u, sizing.config.numMesPerCore / 2);
        ts.nVes = std::max(1u, sizing.config.numVesPerCore / 2);
        ts.arrivals =
            generateArrivals(traffic, horizon, cfg.core.freqHz);
        ts.maxQueueDepth = g.maxQueueDepth;
        ts.sloCycles = g.sloFactor * sizing.serviceEstimate();
        cfg.tenants.push_back(ts);
    }
    return cfg;
}

ServingConfig
closedLoopCore(unsigned min_requests)
{
    ServingConfig cfg;
    cfg.policy = PolicyKind::Neu10;
    cfg.minRequests = min_requests;
    cfg.tenants = {TenantSpec{ModelId::Bert, 32, 2, 2},
                   TenantSpec{ModelId::EfficientNet, 32, 2, 2}};
    return cfg;
}

void
writeJson(const std::string &path,
          const std::vector<ScenarioResult> &rows, std::uint64_t seed,
          bool smoke, double min_speedup, const TracedAb &traced)
{
    std::string out;
    json::Writer j(out);
    j.open();
    j.str("bench", "bench_perf_engine");
    j.num("schema_version", 2);
    j.str("git_sha", NEU10_GIT_SHA);
    j.str("compiler", compilerString());
    j.str("build_type", NEU10_BUILD_TYPE);
    j.num("seed", seed);
    j.boolean("smoke", smoke);
    j.num("host_threads", ThreadPool::defaultThreads());
    j.fixed("min_speedup_required", min_speedup, 1);
    j.open("tracing");
    j.fixed("wall_seconds", traced.wallSeconds, 6);
    j.num("events", traced.events);
    j.boolean("same_results", traced.sameResults);
    j.close();
    const auto engine = [&](const char *name, const EngineRun &e) {
        j.open(name);
        j.fixed("wall_seconds", e.wallSeconds, 6);
        j.fixed("cycles_simulated", e.cyclesSimulated, 0);
        j.fixed("cycles_per_second", e.cyclesPerSecond(), 0);
        j.num("completed", e.completed);
        j.close();
    };
    j.openList("scenarios");
    for (const ScenarioResult &s : rows) {
        j.open();
        j.str("name", s.name);
        j.open("engines");
        engine("event_driven", s.fast);
        engine("per_cycle", s.ref);
        j.close();
        j.fixed("speedup", s.speedup(), 3);
        j.boolean("bit_identical", s.bitIdentical);
        j.close();
    }
    j.closeList();
    j.close();
    out += '\n';
    bench::writeOrExit(path, out);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string json_path = "BENCH_PERF.json";
    if (const char *env = std::getenv("NEU10_BENCH_JSON");
        env != nullptr && env[0] != '\0') {
        json_path = env;
    }
    for (int a = 1; a < argc; ++a) {
        if (std::strncmp(argv[a], "--json=", 7) == 0) {
            json_path = argv[a] + 7;
        } else {
            std::fprintf(stderr,
                         "usage: bench_perf_engine [--json=FILE]\n");
            return 2;
        }
    }

    const Scenario fleet = bench::loadScenario("perf_fleet_4board");
    const bool smoke = fleet.smoke;
    const std::uint64_t seed = fleet.seed;
    const double min_speedup = 5.0;
    // The per-cycle reference walks every simulated cycle, so the
    // horizons here (and the scenario's) bound its wall time, not
    // the fast engine's.
    const Cycles core_horizon = smoke ? 4e6 : 3.2e7;
    const unsigned fast_reps = smoke ? 2 : 3;

    bench::header(
        "Engine perf",
        csprintf("event-driven fast-forward vs per-cycle reference "
                 "(seed %llu)",
                 static_cast<unsigned long long>(seed)));

    std::vector<ScenarioResult> rows;
    TracedAb traced;
    {
        ScenarioResult s;
        s.name = "fleet_4board";
        FleetConfig cfg = toFleetConfig(fleet);
        cfg.trace = TraceConfig{}; // timed untraced; A/B'd below
        s.fast = measureFleet(cfg, SimEngine::EventDriven, fast_reps);
        s.ref = measureFleet(cfg, SimEngine::PerCycle, 1);
        s.bitIdentical = sameResults(s.fast, s.ref);
        rows.push_back(s);

        // Tracing-on A/B on the same scenario: the simulation
        // results must not move, and the JSON records what enabling
        // the recorder costs (the ≤2% overhead contract is about
        // tracing *off* — bench_compare.py gates that against the
        // baseline record; this documents the *on* price).
        FleetConfig tcfg = cfg;
        tcfg.trace.enabled = true;
        tcfg.trace.metrics = true;
        tcfg.engine = SimEngine::EventDriven;
        EngineRun trun;
        trun.wallSeconds = 1e300;
        FleetResult tr;
        for (unsigned i = 0; i < fast_reps; ++i)
            trun.wallSeconds =
                std::min(trun.wallSeconds,
                         bench::wallSeconds([&] { tr = runFleet(tcfg); }));
        summarizeFleet(tr, trun);
        traced.wallSeconds = trun.wallSeconds;
        traced.events = tr.trace.totalEvents();
        traced.sameResults = sameResults(trun, s.fast);
    }
    {
        ScenarioResult s;
        s.name = "open_loop_core";
        const ServingConfig cfg = openLoopCore(fleet, core_horizon);
        s.fast =
            measureServing(cfg, SimEngine::EventDriven, fast_reps);
        s.ref = measureServing(cfg, SimEngine::PerCycle, 1);
        s.bitIdentical = sameResults(s.fast, s.ref);
        rows.push_back(s);
    }
    {
        ScenarioResult s;
        s.name = "closed_loop";
        const ServingConfig cfg = closedLoopCore(smoke ? 8 : 20);
        s.fast =
            measureServing(cfg, SimEngine::EventDriven, fast_reps);
        s.ref = measureServing(cfg, SimEngine::PerCycle, 1);
        s.bitIdentical = sameResults(s.fast, s.ref);
        rows.push_back(s);
    }

    std::printf("%-16s %12s %12s %14s %14s %8s %8s\n", "scenario",
                "ff wall (s)", "ref wall (s)", "ff Mcyc/s",
                "ref Mcyc/s", "speedup", "match");
    bench::rule();
    for (const ScenarioResult &s : rows)
        std::printf("%-16s %12.4f %12.4f %14.1f %14.1f %7.1fx %8s\n",
                    s.name.c_str(), s.fast.wallSeconds,
                    s.ref.wallSeconds,
                    s.fast.cyclesPerSecond() / 1e6,
                    s.ref.cyclesPerSecond() / 1e6, s.speedup(),
                    s.bitIdentical ? "bit-eq" : "MISMATCH");

    std::printf("\ntracing on (fleet_4board, event-driven): %.4f s "
                "wall, %llu events, results %s\n",
                traced.wallSeconds,
                static_cast<unsigned long long>(traced.events),
                traced.sameResults ? "unchanged" : "CHANGED");

    writeJson(json_path, rows, seed, smoke, min_speedup, traced);
    std::printf("\nwrote %s\n", json_path.c_str());

    const ScenarioResult &canon = rows.front();
    const bool pass = canon.speedup() >= min_speedup &&
                      canon.bitIdentical && traced.sameResults;
    std::printf("\nShape check: the event-driven engine simulates "
                "%.1f Mcycles/s vs the per-cycle reference's %.1f "
                "Mcycles/s on the canonical 4-board fleet — %.1fx "
                "speedup (>= %.0fx required), results %s: %s.\n",
                canon.fast.cyclesPerSecond() / 1e6,
                canon.ref.cyclesPerSecond() / 1e6, canon.speedup(),
                min_speedup,
                canon.bitIdentical ? "bit-identical" : "DIVERGED",
                pass ? "PASS" : "FAIL");
    return pass ? 0 : 1;
}
