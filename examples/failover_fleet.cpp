/**
 * @file
 * Failover scenario: a provider's fleet loses a whole board mid-day.
 *
 * Sixteen tenants are load-balanced across a 4-board x 4-core fleet.
 * At 30% of the horizon, board 1 trips off the fabric — four cores
 * gone, and the device state of every vNPU on them with them. The
 * failover controller notices at the next epoch boundary: it
 * quarantines the dead cores in the placer, revokes their vNPUs
 * through the hypervisor's bulk host-side teardown (MMIO windows and
 * IOMMU attachments recycled), checkpoints each tenant's
 * admitted-but-unserved backlog, and restores the vNPUs on the
 * surviving boards — re-running the §III-B split against each
 * destination's residency and charging a recovery stall. Requests
 * that arrived during the outage are delivered late and priced
 * against the SLO instead of being dropped. The printout follows the
 * controller epoch by epoch and compares the outcome with the same
 * fleet running without failover.
 *
 * Both runs are committed scenarios:
 * scenarios/resilience_board_loss.scn (failover on) and
 * scenarios/resilience_no_failover.scn (the fail-and-forget
 * baseline), with the same traffic and the same fault line.
 * NEU10_SMOKE=1 and NEU10_SEED=<n> apply as in tools/neu10_run.
 *
 * Run: ./build/examples/failover_fleet
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
    Scenario off_scn;
    Scenario on_scn;
    try {
        off_scn = loadScenarioFile(NEU10_SCENARIO_DIR
                                   "/resilience_no_failover.scn");
        on_scn = loadScenarioFile(NEU10_SCENARIO_DIR
                                  "/resilience_board_loss.scn");
        applyEnvOverrides(off_scn);
        applyEnvOverrides(on_scn);
    } catch (const FatalError &) {
        return 2; // fatal() already printed the reason
    }

    const FleetResult off = runScenario(off_scn).fleet;
    const FleetResult on = runScenario(on_scn).fleet;

    const ScenarioFault &loss = on_scn.faults.front();
    std::printf("Failover fleet: %u tenants on %u boards; board %u "
                "dies at %.0f%% of the run\n\n",
                on_scn.totalTenants(), on_scn.boards, loss.board,
                100.0 * loss.atFrac);

    std::printf("The failover controller, epoch by epoch:\n");
    for (const FleetEpochReport &er : on.epochReports)
        std::printf("  epoch %u: %5llu served  %3llu queued  %u "
                    "core failures, %u vNPUs restored\n",
                    er.epoch,
                    static_cast<unsigned long long>(er.completed),
                    static_cast<unsigned long long>(er.backlog),
                    er.failures, er.restores);

    std::printf("\nWhere the evicted tenants landed:\n");
    unsigned evicted = 0;
    for (size_t i = 0; i < on.tenants.size(); ++i) {
        const TenantResult &tr = on.tenants[i];
        if (tr.failovers == 0)
            continue;
        ++evicted;
        std::printf("  tenant %zu: restored on core %u as %uM%uV, "
                    "%llu requests carried through, %.2f ms down\n",
                    i, on.placements[i].core, on.placements[i].nMes,
                    on.placements[i].nVes,
                    static_cast<unsigned long long>(
                        tr.recoveredRequests),
                    clock.toSeconds(tr.downtimeCycles) * 1e3);
    }

    auto report = [&](const char *name, const FleetResult &r) {
        std::printf("  %-12s %6llu served  %5llu lost  goodput "
                    "%6.0f req/s  p99 %7.3f ms  availability "
                    "%.1f%%\n",
                    name,
                    static_cast<unsigned long long>(r.completed),
                    static_cast<unsigned long long>(r.lostRequests),
                    r.goodput, clock.toSeconds(r.p99()) * 1e3,
                    100.0 * r.availability);
    };
    std::printf("\nFinal score (same traffic, same fault):\n");
    report("no-failover", off);
    report("failover", on);

    std::printf("\nReading: a quarter of the fleet's hardware is "
                "gone either way — availability is %.1f%% with "
                "failover and %.1f%% without. Without failover that "
                "costs every post-fault request of %u tenants (%llu "
                "lost). With it, the controller pays %u recovery "
                "stalls (MTTR %.2f ms), packs the survivors' spare "
                "engines with the restored vNPUs, and the same "
                "hardware loses %llu — the outage shows up as tail "
                "latency instead of dropped traffic.\n",
                100.0 * on.availability, 100.0 * off.availability,
                evicted,
                static_cast<unsigned long long>(off.lostRequests),
                on.failovers, clock.toSeconds(on.mttrCycles) * 1e3,
                static_cast<unsigned long long>(on.lostRequests));
    return 0;
}
