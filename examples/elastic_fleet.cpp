/**
 * @file
 * Elastic scenario: a provider's capacity planner made a bad bet.
 * Eight small MNIST (OCR-style) tenants were first-fit-packed onto
 * the first two cores of an 8-core fleet; their traffic turns out
 * bursty and ~20% above each vNPU's solo capacity, so the two hot
 * cores drown in backlog while six cores idle. The elastic engine
 * notices at the first epoch boundary: it migrates vNPUs to the idle
 * cores through the hypervisor's destroy/create hypercalls (each
 * move pays a migration stall), re-runs the §III-B split against the
 * destination residency so the migrants grow into the idle EUs, and
 * the serving loop resumes with the carried backlogs. The printout
 * follows the rebalancer epoch by epoch and compares the final SLO
 * report with the static run.
 *
 * Both runs are committed scenarios: scenarios/fleet_static.scn
 * (epochs = 1) and scenarios/fleet_elastic.scn (epochs = 8), which
 * differ only in the epoch count. NEU10_SMOKE=1 and NEU10_SEED=<n>
 * apply as in tools/neu10_run.
 *
 * Run: ./build/examples/elastic_fleet
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
    Scenario static_scn;
    Scenario elastic_scn;
    try {
        static_scn =
            loadScenarioFile(NEU10_SCENARIO_DIR "/fleet_static.scn");
        elastic_scn =
            loadScenarioFile(NEU10_SCENARIO_DIR "/fleet_elastic.scn");
        applyEnvOverrides(static_scn);
        applyEnvOverrides(elastic_scn);
    } catch (const FatalError &) {
        return 2; // fatal() already printed the reason
    }

    const FleetResult stat = runScenario(static_scn).fleet;
    const FleetResult elas = runScenario(elastic_scn).fleet;

    std::printf("Elastic fleet: 8 overloaded 2-EU tenants, first-fit "
                "onto 2 of 8 cores, bursty traffic\n\n");

    std::printf("The rebalancer, epoch by epoch:\n");
    for (const FleetEpochReport &er : elas.epochReports)
        std::printf("  epoch %u: %4llu served, %3llu carried over, "
                    "%u migrations, imbalance %.2f\n",
                    er.epoch,
                    static_cast<unsigned long long>(er.completed),
                    static_cast<unsigned long long>(er.backlog),
                    er.migrations, er.pressureStddev);

    std::printf("\nWhere everyone ended up (vs. cores 0-1 at the "
                "start):\n");
    for (size_t i = 0; i < elas.placements.size(); ++i) {
        const TenantPlacement &pl = elas.placements[i];
        std::printf("  tenant %zu: core %u, %uM%uV%s\n", i, pl.core,
                    pl.nMes, pl.nVes,
                    pl.migrations > 0 ? "  (migrated, grew into "
                                        "idle EUs)"
                                      : "");
    }

    auto report = [&](const char *name, const FleetResult &r) {
        std::printf("  %-8s %5llu served  %5.1f%% rejected  goodput "
                    "%6.0f req/s  p99 %.3f ms\n",
                    name,
                    static_cast<unsigned long long>(r.completed),
                    100.0 * r.rejectionRate(), r.goodput,
                    clock.toSeconds(r.p99()) * 1e3);
    };
    std::printf("\nFinal score:\n");
    report("static", stat);
    report("elastic", elas);

    std::printf("\nReading: the static fleet keeps shedding load on "
                "two saturated cores all run long. The elastic "
                "engine pays %u migration stalls once, spreads the "
                "vNPUs across the idle cores, and the re-run "
                "allocator split grows each migrant's engine grant — "
                "so the same hardware serves %.2fx the requests and "
                "rejects %.1f%% of arrivals instead of %.1f%%.\n",
                elas.migrations,
                stat.completed > 0
                    ? static_cast<double>(elas.completed) /
                          static_cast<double>(stat.completed)
                    : 0.0,
                100.0 * elas.rejectionRate(),
                100.0 * stat.rejectionRate());
    return 0;
}
