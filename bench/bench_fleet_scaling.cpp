/**
 * @file
 * Parallel elastic fleet engine: host-thread scaling and the
 * static-vs-elastic rebalancing comparison.
 *
 * Part 1 — thread scaling: the canonical perf fleet
 * (scenarios/perf_fleet_4board.scn: 4 boards x 4 cores = 16 cores,
 * 24 mixed tenants, 4 elastic epochs) is simulated at every requested
 * host-thread width. Per-core simulations are independent, so
 * results must be bit-identical at every width (checked: any
 * MISMATCH fails the run with exit status 1) while wall-clock time
 * drops; the speedup column is the payoff of the common/threadpool
 * runner. Wall-clock numbers are host-dependent — on a single-CPU
 * machine the speedup is ~1x by construction (hardware threads are
 * printed).
 *
 * Part 2 — elastic rebalancing: scenarios/fleet_static.scn and
 * scenarios/fleet_elastic.scn land 8 tenants on a 2-board fleet by
 * first-fit, which piles them onto the first cores while the tail of
 * the fleet idles; the traffic is bursty (MMPP-2). The static run
 * (epochs=1) keeps that placement for the whole horizon; the elastic
 * run splits the horizon into epochs and migrates vNPUs off the hot
 * cores between epochs (charging every move a migration cost through
 * the hypervisor's destroy/create hypercalls). The table shows the
 * tail-latency and goodput effect; the per-epoch log shows the
 * rebalancer converging.
 *
 * Usage: bench_fleet_scaling [threads...]
 *   threads   thread widths for part 1 (default: 1 2 4 8)
 * NEU10_SEED=<n> reseeds the traffic; NEU10_SMOKE=1 shrinks the
 * horizons and the sweep for CI (both via scenario
 * applyEnvOverrides).
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "cluster/fleet.hh"
#include "common/threadpool.hh"
#include "scenario/runner.hh"

using namespace neu10;

namespace
{

/** Returns false when any width's results differ from the first. */
bool
partThreadScaling(const std::vector<unsigned> &widths)
{
    FleetConfig cfg = toFleetConfig(
        bench::loadScenario("perf_fleet_4board"));

    std::printf("Part 1: thread scaling — %u cores, %zu tenants, "
                "%u hardware threads on this host\n",
                cfg.totalCores(), cfg.tenants.size(),
                ThreadPool::defaultThreads());
    std::printf("%-8s %10s %8s %10s %12s %8s\n", "threads",
                "wall (s)", "speedup", "served", "p99 (ms)",
                "match");
    bench::rule();

    double t_serial = 0.0;
    FleetResult ref;
    bool all_match = true;
    for (unsigned w : widths) {
        cfg.threads = w;
        FleetResult r;
        const double secs =
            bench::wallSeconds([&] { r = runFleet(cfg); });
        if (w == widths.front()) {
            t_serial = secs;
            ref = r;
        }
        const bool match = r.completed == ref.completed &&
                           r.rejected == ref.rejected &&
                           r.p99() == ref.p99() &&
                           r.makespan == ref.makespan;
        all_match = all_match && match;
        std::printf("%-8u %10.3f %7.2fx %10llu %12.3f %8s\n", w,
                    secs, t_serial / secs,
                    static_cast<unsigned long long>(r.completed),
                    bench::toMs(r.p99()),
                    match ? "bit-eq" : "MISMATCH");
    }
    return all_match;
}

void
partElastic(const Scenario &static_scn, const Scenario &elastic_scn)
{
    // 8 small (2-EU) tenants, each offered 1.2x its own vNPU's
    // capacity: first-fit stacks four per core on the first two
    // cores while the other six idle, so the realized load is
    // maximally lopsided and the hot cores are saturated. Only
    // migrating vNPUs out — and growing them into the idle cores'
    // EUs — adds real capacity.
    const FleetResult stat = runFleet(toFleetConfig(static_scn));
    const FleetResult elas = runFleet(toFleetConfig(elastic_scn));

    std::printf("\nPart 2: static vs elastic under an imbalanced "
                "bursty (MMPP-2) trace — first-fit, 8 cores\n");
    std::printf("%-10s %8s %8s %8s %10s %10s %10s %6s\n", "engine",
                "served", "reject", "SLO-met", "goodput",
                "p99 (ms)", "EU-sd", "moves");
    bench::rule();
    auto row = [](const char *name, const FleetResult &r) {
        std::printf("%-10s %8llu %7.1f%% %8llu %10.0f %10.3f "
                    "%10.3f %6u\n",
                    name,
                    static_cast<unsigned long long>(r.completed),
                    100.0 * r.rejectionRate(),
                    static_cast<unsigned long long>(r.sloMet),
                    r.goodput, bench::toMs(r.p99()),
                    r.coreEuUtil.stddev(), r.migrations);
    };
    row("static", stat);
    row("elastic", elas);

    std::printf("\nElastic epoch log (completions, carried backlog, "
                "migrations, cross-core pressure stddev):\n");
    for (const FleetEpochReport &er : elas.epochReports)
        std::printf("  epoch %u: %7llu done %6llu carried  %u "
                    "moves  imbalance %.3f\n",
                    er.epoch,
                    static_cast<unsigned long long>(er.completed),
                    static_cast<unsigned long long>(er.backlog),
                    er.migrations, er.pressureStddev);

    const double p99_gain =
        elas.p99() > 0 ? stat.p99() / elas.p99() : 0.0;
    const double goodput_gain =
        stat.goodput > 0 ? elas.goodput / stat.goodput : 0.0;
    const bool improved = p99_gain > 1.0 || goodput_gain > 1.0;
    std::printf("\nShape check: elastic rebalancing moved %u vNPUs "
                "off the first-fit hot cores and %s the static "
                "fleet — goodput %.2fx (%.0f -> %.0f req/s), p99 "
                "%.2fx (%.3f -> %.3f ms), rejections %.1f%% -> "
                "%.1f%%.\n",
                elas.migrations,
                improved ? "beats" : "DOES NOT BEAT",
                goodput_gain, stat.goodput, elas.goodput, p99_gain,
                bench::toMs(stat.p99()), bench::toMs(elas.p99()),
                100.0 * stat.rejectionRate(),
                100.0 * elas.rejectionRate());
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::vector<unsigned> widths = {1, 2, 4, 8};
    if (argc > 1) {
        widths.clear();
        for (int a = 1; a < argc; ++a)
            widths.push_back(bench::countArg(argv[a], "threads"));
    }
    if (bench::smokeMode() && argc <= 1)
        widths = {1, 2};

    const Scenario static_scn = bench::loadScenario("fleet_static");
    const Scenario elastic_scn = bench::loadScenario("fleet_elastic");

    bench::header(
        "Fleet scaling",
        csprintf("parallel elastic fleet engine (seed %llu)",
                 static_cast<unsigned long long>(static_scn.seed)));

    const bool bit_eq = partThreadScaling(widths);
    partElastic(static_scn, elastic_scn);
    return bit_eq ? 0 : 1;
}
