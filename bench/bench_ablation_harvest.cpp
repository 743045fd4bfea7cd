/**
 * @file
 * Ablation (DESIGN.md): which half of harvesting matters where, and
 * how sensitive reclaim is to the ME context-switch cost.
 *
 *  (a) ME-only vs VE-only vs full harvesting, per pair class.
 *  (b) Reclaim-penalty sweep: 0 / 256 (paper) / 1024 / 4096 cycles.
 */

#include <cstdio>

#include "bench_util.hh"
#include "runtime/serving.hh"
#include "sched/neu10_policy.hh"

using namespace neu10;

namespace
{

ServingResult
runWith(const WorkloadPair &pair, bool harvest_me, bool harvest_ve,
        Cycles preempt_cycles)
{
    // Build the experiment by hand so we can toggle the policy knobs.
    ServingConfig cfg;
    cfg.policy = PolicyKind::Neu10;
    cfg.core.mePreemptCycles = preempt_cycles;
    cfg.tenants = {
        {pair.w1, pair.batch1, 2, 2, 1.0, 1},
        {pair.w2, pair.batch2, 2, 2, 1.0, 1},
    };
    cfg.minRequests = 6;
    cfg.maxCycles = 2.5e9;

    // runServing instantiates the stock policy; reproduce its loop
    // with a customized one.
    std::vector<CompiledModel> programs;
    for (const auto &spec : cfg.tenants)
        programs.push_back(compileFor(spec, cfg.policy, cfg.core));
    std::vector<VnpuSlot> slots(2);
    for (int i = 0; i < 2; ++i) {
        slots[i].nMes = cfg.tenants[i].nMes;
        slots[i].nVes = cfg.tenants[i].nVes;
    }
    EventQueue queue;
    auto policy = std::make_unique<Neu10Policy>(/*harvest=*/true);
    policy->setHarvestMes(harvest_me);
    policy->setHarvestVes(harvest_ve);
    NpuCoreSim core(queue, cfg.core, std::move(policy), slots);

    ServingResult result;
    result.tenants.resize(2);
    bool stopped = false;
    std::function<void(std::uint32_t)> pump = [&](std::uint32_t s) {
        core.submit(s, &programs[s], [&, s](const RequestResult &r) {
            if (stopped)
                return;
            ++result.tenants[s].completed;
            result.tenants[s].latencyCycles.add(r.latency());
            if (result.tenants[0].completed >= cfg.minRequests &&
                result.tenants[1].completed >= cfg.minRequests) {
                stopped = true;
                return;
            }
            pump(s);
        });
    };
    pump(0);
    pump(1);
    while (!stopped && !queue.empty() && queue.now() < cfg.maxCycles)
        queue.step();
    const Cycles window = std::max(1.0, queue.now());
    const Clock clock(cfg.core.freqHz);
    for (int i = 0; i < 2; ++i)
        result.tenants[i].throughput =
            result.tenants[i].completed / clock.toSeconds(window);
    result.meUsefulUtil = core.meUseful().utilization(window);
    return result;
}

} // anonymous namespace

int
main()
{
    bench::header("Ablation A", "ME-only vs VE-only vs full "
                                "harvesting (total throughput "
                                "normalized to no-harvest)");
    std::printf("%-12s %10s %10s %10s\n", "Pair", "ME-only",
                "VE-only", "full");
    bench::rule();
    for (const auto &pair : bench::smokeTrim(evaluationPairs())) {
        const double none =
            runWith(pair, false, false, 256.0).totalThroughput();
        const double me =
            runWith(pair, true, false, 256.0).totalThroughput();
        const double ve =
            runWith(pair, false, true, 256.0).totalThroughput();
        const double full =
            runWith(pair, true, true, 256.0).totalThroughput();
        std::printf("%-12s %10.2f %10.2f %10.2f\n", pair.label,
                    me / none, ve / none, full / none);
    }

    std::printf("\n");
    bench::header("Ablation B", "reclaim context-switch cost sweep "
                                "(total throughput normalized to the "
                                "paper's 256 cycles)");
    std::printf("%-12s %10s %10s %10s %10s\n", "Pair", "0cy",
                "256cy", "1024cy", "4096cy");
    bench::rule();
    const std::vector<WorkloadPair> sweep_pairs = {
        evaluationPairs()[0], evaluationPairs()[4],
        evaluationPairs()[8]};
    for (const auto &pair : bench::smokeTrim(sweep_pairs, 1)) {
        const double base =
            runWith(pair, true, true, 256.0).totalThroughput();
        std::printf("%-12s", pair.label);
        for (double pen : {0.0, 256.0, 1024.0, 4096.0}) {
            const double thr =
                runWith(pair, true, true, pen).totalThroughput();
            std::printf(" %10.3f", thr / base);
        }
        std::printf("\n");
    }
    std::printf("\nShape check: ME harvesting dominates for ME-"
                "contended pairs, VE harvesting for recommender "
                "pairs; throughput is nearly insensitive to the "
                "reclaim cost at the paper's 256 cycles (SIII-G's "
                "'negligible overhead' claim).\n");
    return 0;
}
