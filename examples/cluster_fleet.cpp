/**
 * @file
 * Cluster scenario: a provider runs a 4-board fleet (16 cores)
 * serving sixteen tenants of four services with different models and
 * EU budgets — 2-EU MNIST, 4-EU NCF and DLRM, 6-EU ResNet — all under
 * diurnal day-curve traffic. Each service's day is shifted a quarter
 * period from the last, so collocated services peak at different
 * times. The fleet places every vNPU with the load-balanced policy,
 * then prints where each tenant landed and whether its latency SLO
 * held.
 *
 * The fleet is the committed scenario scenarios/cluster_diurnal.scn;
 * NEU10_SMOKE=1 and NEU10_SEED=<n> apply as in tools/neu10_run.
 *
 * Run: ./build/examples/cluster_fleet
 */

#include <cstdio>

#include "cluster/fleet.hh"
#include "common/logging.hh"
#include "scenario/runner.hh"
#include "sim/clock.hh"

using namespace neu10;

int
main()
{
    const Clock clock;
    Scenario scn;
    try {
        scn = loadScenarioFile(NEU10_SCENARIO_DIR "/cluster_diurnal.scn");
        applyEnvOverrides(scn);
    } catch (const FatalError &) {
        return 2; // fatal() already printed the reason
    }

    const FleetConfig cfg = toFleetConfig(scn);
    const FleetResult fleet = runFleet(cfg);

    std::printf("Fleet: %u boards x %u cores, %s placement, %s "
                "on-core scheduling\n\n",
                cfg.numBoards, cfg.board.totalCores(),
                fleet.placement.c_str(), fleet.policy.c_str());

    std::printf("%-6s %-6s %5s %5s %10s %7s %7s %10s %10s %6s\n",
                "tenant", "model", "phase", "vNPU", "core", "served",
                "reject", "p95 (ms)", "p99 (ms)", "SLO?");
    std::printf("--------------------------------------------------"
                "-------------------------------\n");
    unsigned misses = 0;
    for (size_t i = 0; i < cfg.tenants.size(); ++i) {
        const TenantPlacement &pl = fleet.placements[i];
        const TenantResult &tr = fleet.tenants[i];
        const double slo_ms =
            clock.toSeconds(cfg.tenants[i].sloCycles) * 1e3;
        const double p95_ms = clock.toSeconds(tr.p95()) * 1e3;
        misses += p95_ms > slo_ms;
        std::printf("%-6zu %-6s %5.2f %2uM%uV %6s %2u %7llu %6.1f%% "
                    "%10.3f %10.3f %6s\n",
                    i, tr.model.c_str(),
                    cfg.tenants[i].traffic.diurnalPhase, pl.nMes,
                    pl.nVes,
                    "core", pl.core,
                    static_cast<unsigned long long>(tr.completed),
                    tr.submitted > 0
                        ? 100.0 * tr.rejected / tr.submitted
                        : 0.0,
                    p95_ms, clock.toSeconds(tr.p99()) * 1e3,
                    p95_ms <= slo_ms ? "ok" : "MISS");
    }

    std::printf("\nFleet totals: %llu served / %llu arrived "
                "(%.1f%% rejected), goodput %.0f req/s, p99 %.3f "
                "ms\n",
                static_cast<unsigned long long>(fleet.completed),
                static_cast<unsigned long long>(fleet.submitted),
                100.0 * fleet.rejectionRate(), fleet.goodput,
                clock.toSeconds(fleet.p99()) * 1e3);
    std::printf("Core EU utilization: mean %.1f%%, stddev %.3f "
                "across %zu cores\n",
                100.0 * fleet.coreEuUtil.mean(),
                fleet.coreEuUtil.stddev(), fleet.cores.size());
    unsigned occupied = 0;
    for (const FleetCoreReport &c : fleet.cores)
        occupied += c.tenants > 0;
    std::printf("\nReading: the load-balanced placer spreads the %zu "
                "vNPUs over %u of %zu cores. The four services peak a "
                "quarter period apart, so the fleet never carries all "
                "four peaks at once; the %u SLO misses (p95 above "
                "the SLO) are tenants whose own peak queues past "
                "that budget — rates are set for the mean, not the "
                "peak.\n",
                cfg.tenants.size(), occupied, fleet.cores.size(),
                misses);
    return 0;
}
