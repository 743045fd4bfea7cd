/**
 * @file
 * Differential parity suite (CTest label `scenario`): every committed
 * scenario file that mirrors a hand-wired bench config must expand to
 * the same experiment — same config, field by field, and then the
 * same results, bit for bit (tests/result_eq.hh, no tolerances).
 *
 * The hand-wired recipes below are copied verbatim from the benches
 * as they stood before the scenario conversion. Every fleet bench
 * (bench_cluster_serving, bench_resilience, bench_fleet_scaling,
 * bench_perf_engine) and fleet example now loads the scenario files
 * instead, so these frozen recipes are the only hand-built copies
 * left and serve as the oracle: a scenario file that drifts from the
 * numbers its bench used to produce fails here. Only
 * bench_fig19_21_serving still carries its own (closed-loop) recipe.
 *
 * Runs use the scenarios' smoke horizons — parity at the short
 * horizon implies parity at the full one (identical configs modulo
 * the horizon value, which the config comparison pins separately).
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "cluster/fleet.hh"
#include "resilience/faults.hh"
#include "result_eq.hh"
#include "runtime/serving.hh"
#include "scenario/runner.hh"
#include "scenario/scenario.hh"
#include "vnpu/allocator.hh"

namespace neu10
{
namespace
{

/** Load a committed scenario in smoke mode (deliberately without
 * applyEnvOverrides: parity is between file and bench recipe; the
 * env plumbing has its own tests in test_scenario.cpp). */
Scenario
loadSmoke(const std::string &name)
{
    Scenario s = loadScenarioFile(std::string(NEU10_SCENARIO_DIR) +
                                  "/" + name + ".scn");
    s.smoke = true;
    return s;
}

void
expectTrafficEq(const TrafficSpec &a, const TrafficSpec &b)
{
    EXPECT_EQ(a.shape, b.shape);
    EXPECT_EQ(a.ratePerSec, b.ratePerSec);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.burstMultiplier, b.burstMultiplier);
    EXPECT_EQ(a.burstFraction, b.burstFraction);
    EXPECT_EQ(a.burstDwellSec, b.burstDwellSec);
    EXPECT_EQ(a.diurnalDepth, b.diurnalDepth);
    EXPECT_EQ(a.diurnalPeriodSec, b.diurnalPeriodSec);
    EXPECT_EQ(a.diurnalPhase, b.diurnalPhase);
}

/** Field-by-field FleetConfig comparison — run before the actual
 * simulations so a drift names the exact knob, not just "results
 * differ". */
void
expectFleetConfigEq(const FleetConfig &bench, const FleetConfig &scn)
{
    EXPECT_EQ(bench.numBoards, scn.numBoards);
    EXPECT_EQ(bench.board.numChips, scn.board.numChips);
    EXPECT_EQ(bench.board.coresPerChip, scn.board.coresPerChip);
    EXPECT_EQ(bench.board.core.freqHz, scn.board.core.freqHz);
    EXPECT_EQ(bench.placement, scn.placement);
    EXPECT_EQ(bench.corePolicy, scn.corePolicy);
    EXPECT_EQ(bench.engine, scn.engine);
    EXPECT_EQ(bench.threads, scn.threads);
    EXPECT_EQ(bench.horizon, scn.horizon);
    EXPECT_EQ(bench.maxCycles, scn.maxCycles);
    EXPECT_EQ(bench.elastic.epochs, scn.elastic.epochs);
    EXPECT_EQ(bench.elastic.imbalanceThreshold,
              scn.elastic.imbalanceThreshold);
    EXPECT_EQ(bench.elastic.maxMigrationsPerEpoch,
              scn.elastic.maxMigrationsPerEpoch);
    EXPECT_EQ(bench.elastic.migrationCostCycles,
              scn.elastic.migrationCostCycles);
    EXPECT_EQ(bench.elastic.resizeOnMigrate,
              scn.elastic.resizeOnMigrate);
    EXPECT_EQ(bench.elastic.growFactor, scn.elastic.growFactor);
    EXPECT_EQ(bench.resilience.failover, scn.resilience.failover);
    EXPECT_EQ(bench.resilience.recoveryStallCycles,
              scn.resilience.recoveryStallCycles);
    ASSERT_EQ(bench.resilience.faults.size(),
              scn.resilience.faults.size());
    for (size_t i = 0; i < bench.resilience.faults.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "fault " << i);
        EXPECT_EQ(bench.resilience.faults[i].at,
                  scn.resilience.faults[i].at);
        EXPECT_EQ(bench.resilience.faults[i].kind,
                  scn.resilience.faults[i].kind);
        EXPECT_EQ(bench.resilience.faults[i].board,
                  scn.resilience.faults[i].board);
        EXPECT_EQ(bench.resilience.faults[i].durationCycles,
                  scn.resilience.faults[i].durationCycles);
    }
    ASSERT_EQ(bench.tenants.size(), scn.tenants.size());
    for (size_t i = 0; i < bench.tenants.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "tenant " << i);
        EXPECT_EQ(bench.tenants[i].model, scn.tenants[i].model);
        EXPECT_EQ(bench.tenants[i].batch, scn.tenants[i].batch);
        EXPECT_EQ(bench.tenants[i].eus, scn.tenants[i].eus);
        EXPECT_EQ(bench.tenants[i].sloCycles,
                  scn.tenants[i].sloCycles);
        EXPECT_EQ(bench.tenants[i].maxQueueDepth,
                  scn.tenants[i].maxQueueDepth);
        EXPECT_EQ(bench.tenants[i].priority,
                  scn.tenants[i].priority);
        expectTrafficEq(bench.tenants[i].traffic,
                        scn.tenants[i].traffic);
    }
}

/** Config parity first (sharp diagnostics), then result parity (the
 * actual acceptance criterion). */
void
expectFleetParity(const FleetConfig &bench, const FleetConfig &scn)
{
    expectFleetConfigEq(bench, scn);
    if (::testing::Test::HasFailure())
        return; // configs differ; running them adds only noise
    expectFleetEq(runFleet(bench), runFleet(scn));
}

// ------------------------------------------- bench recipes (frozen)

/** bench_cluster_serving's makeFleet, pre-conversion, verbatim. */
FleetConfig
clusterFleet(PlacementPolicy placement, TrafficShape shape,
             Cycles horizon, std::uint64_t seed)
{
    const ModelId kModels[4] = {ModelId::Mnist, ModelId::Ncf,
                                ModelId::Dlrm, ModelId::ResNet};
    const unsigned kBatches[4] = {32, 32, 32, 8};
    const unsigned kEus[4] = {2, 4, 4, 6};
    const double kRhos[4] = {0.35, 0.55, 0.45, 0.6};

    FleetConfig cfg;
    cfg.numBoards = 4;
    cfg.placement = placement;
    cfg.corePolicy = PolicyKind::Neu10;
    cfg.horizon = horizon;
    cfg.maxCycles = 50.0 * horizon;

    Cycles service[4];
    for (unsigned k = 0; k < 4; ++k)
        service[k] = sizeVnpuForModel(kModels[k], kBatches[k],
                                      kEus[k], cfg.board.core)
                         .serviceEstimate();
    for (unsigned i = 0; i < 16; ++i) {
        const unsigned k = i % 4;
        ClusterTenantSpec t;
        t.model = kModels[k];
        t.batch = kBatches[k];
        t.eus = kEus[k];
        t.traffic.shape = shape;
        t.traffic.ratePerSec =
            kRhos[k] * cfg.board.core.freqHz / service[k];
        t.traffic.seed = seed + i;
        t.sloCycles = 5.0 * service[k];
        t.maxQueueDepth = 32;
        cfg.tenants.push_back(t);
    }
    return cfg;
}

/** bench_resilience's baseFleet + board-loss fault, verbatim. */
FleetConfig
resilienceFleet(bool failover, Cycles horizon, std::uint64_t seed)
{
    FleetConfig cfg;
    cfg.numBoards = 4;
    cfg.placement = PlacementPolicy::LoadBalanced;
    cfg.horizon = horizon;
    cfg.maxCycles = 50.0 * horizon;
    cfg.elastic.epochs = 10;
    cfg.resilience.recoveryStallCycles = 2e5;
    cfg.threads = 0;

    const ModelId models[4] = {ModelId::Mnist, ModelId::Ncf,
                               ModelId::Dlrm, ModelId::ResNet};
    const unsigned batches[4] = {32, 32, 32, 8};
    const unsigned eus[4] = {2, 4, 4, 6};
    for (unsigned i = 0; i < 16; ++i) {
        const unsigned k = i % 4;
        const Cycles service =
            sizeVnpuForModel(models[k], batches[k], eus[k],
                             cfg.board.core)
                .serviceEstimate();
        ClusterTenantSpec t;
        t.model = models[k];
        t.batch = batches[k];
        t.eus = eus[k];
        t.traffic.ratePerSec =
            0.4 * cfg.board.core.freqHz / service;
        t.traffic.seed = seed + i;
        t.sloCycles = 8.0 * service;
        t.maxQueueDepth = 64;
        cfg.tenants.push_back(t);
    }

    FaultEvent loss;
    loss.at = 0.3 * horizon;
    loss.kind = FaultKind::BoardLoss;
    loss.board = 1;
    loss.durationCycles = kCyclesInf;
    cfg.resilience.faults = {loss};
    cfg.resilience.failover = failover;
    return cfg;
}

/** bench_fleet_scaling's partElastic base(), verbatim. */
FleetConfig
scalingFleet(unsigned epochs, Cycles horizon, std::uint64_t seed)
{
    FleetConfig cfg;
    cfg.numBoards = 2;
    cfg.placement = PlacementPolicy::FirstFit;
    cfg.horizon = horizon;
    cfg.maxCycles = 50.0 * horizon;
    cfg.threads = 1;
    cfg.elastic.epochs = epochs;
    cfg.elastic.imbalanceThreshold = 0.05;
    cfg.elastic.maxMigrationsPerEpoch = 4;

    const Cycles service =
        sizeVnpuForModel(ModelId::Mnist, 32, 2, cfg.board.core)
            .serviceEstimate();
    for (unsigned i = 0; i < 8; ++i) {
        ClusterTenantSpec t;
        t.model = ModelId::Mnist;
        t.batch = 32;
        t.eus = 2;
        t.traffic.shape = TrafficShape::Bursty;
        t.traffic.ratePerSec =
            1.2 * cfg.board.core.freqHz / service;
        t.traffic.seed = seed + i;
        t.sloCycles = 5.0 * service;
        t.maxQueueDepth = 32;
        cfg.tenants.push_back(t);
    }
    return cfg;
}

/** bench_perf_engine's canonicalFleet, verbatim. */
FleetConfig
perfFleet(Cycles horizon, std::uint64_t seed)
{
    static const ModelId kModels[4] = {ModelId::Mnist, ModelId::Ncf,
                                       ModelId::Dlrm,
                                       ModelId::ResNet};
    static const unsigned kBatches[4] = {32, 32, 32, 8};
    static const unsigned kEus[4] = {2, 4, 4, 6};

    FleetConfig cfg;
    cfg.numBoards = 4;
    cfg.placement = PlacementPolicy::LoadBalanced;
    cfg.horizon = horizon;
    cfg.maxCycles = 50.0 * horizon;
    cfg.threads = 1;
    cfg.elastic.epochs = 4;
    for (unsigned i = 0; i < 24; ++i) {
        const unsigned m = i % 4;
        const Cycles service =
            sizeVnpuForModel(kModels[m], kBatches[m], kEus[m],
                             cfg.board.core)
                .serviceEstimate();
        ClusterTenantSpec t;
        t.model = kModels[m];
        t.batch = kBatches[m];
        t.eus = kEus[m];
        t.traffic.ratePerSec =
            0.35 * cfg.board.core.freqHz / service;
        t.traffic.seed = seed + i;
        t.sloCycles = 5.0 * service;
        t.maxQueueDepth = 32;
        cfg.tenants.push_back(t);
    }
    return cfg;
}

// ---------------------------------------------------------- parity

TEST(ScenarioParity, ClusterFirstFit)
{
    expectFleetParity(clusterFleet(PlacementPolicy::FirstFit,
                                   TrafficShape::Poisson, 1e7, 42),
                      toFleetConfig(loadSmoke("cluster_first_fit")));
}

TEST(ScenarioParity, ClusterBestFit)
{
    expectFleetParity(clusterFleet(PlacementPolicy::BestFit,
                                   TrafficShape::Poisson, 1e7, 42),
                      toFleetConfig(loadSmoke("cluster_best_fit")));
}

TEST(ScenarioParity, ClusterLoadBalanced)
{
    expectFleetParity(
        clusterFleet(PlacementPolicy::LoadBalanced,
                     TrafficShape::Poisson, 1e7, 42),
        toFleetConfig(loadSmoke("cluster_load_balanced")));
}

TEST(ScenarioParity, ClusterBursty)
{
    expectFleetParity(clusterFleet(PlacementPolicy::FirstFit,
                                   TrafficShape::Bursty, 1e7, 42),
                      toFleetConfig(loadSmoke("cluster_bursty")));
}

TEST(ScenarioParity, ResilienceBoardLossFailover)
{
    expectFleetParity(
        resilienceFleet(true, 8e6, 42),
        toFleetConfig(loadSmoke("resilience_board_loss")));
}

TEST(ScenarioParity, ResilienceBoardLossNoFailover)
{
    expectFleetParity(
        resilienceFleet(false, 8e6, 42),
        toFleetConfig(loadSmoke("resilience_no_failover")));
}

TEST(ScenarioParity, FleetStatic)
{
    expectFleetParity(scalingFleet(1, 6e6, 42),
                      toFleetConfig(loadSmoke("fleet_static")));
}

TEST(ScenarioParity, FleetElastic)
{
    expectFleetParity(scalingFleet(8, 6e6, 42),
                      toFleetConfig(loadSmoke("fleet_elastic")));
}

TEST(ScenarioParity, PerfFleet4Board)
{
    expectFleetParity(perfFleet(4e6, 42),
                      toFleetConfig(loadSmoke("perf_fleet_4board")));
}

TEST(ScenarioParity, PaperClosedLoopBertEnet)
{
    // bench_fig19_21_serving's runPair, Neu10 cell, BERT+ENet pair.
    ServingConfig bench;
    bench.policy = PolicyKind::Neu10;
    bench.tenants = {
        TenantSpec{ModelId::Bert, 32, 2, 2, 1.0, 1},
        TenantSpec{ModelId::EfficientNet, 32, 2, 2, 1.0, 1},
    };
    bench.minRequests = 10;
    bench.maxCycles = 3e9;

    const ServingConfig scn =
        toServingConfig(loadSmoke("paper_closed_loop_bert_enet"));
    EXPECT_EQ(bench.policy, scn.policy);
    EXPECT_EQ(bench.minRequests, scn.minRequests);
    EXPECT_EQ(bench.maxCycles, scn.maxCycles);
    ASSERT_EQ(bench.tenants.size(), scn.tenants.size());
    for (size_t i = 0; i < bench.tenants.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "tenant " << i);
        EXPECT_EQ(bench.tenants[i].model, scn.tenants[i].model);
        EXPECT_EQ(bench.tenants[i].batch, scn.tenants[i].batch);
        EXPECT_EQ(bench.tenants[i].nMes, scn.tenants[i].nMes);
        EXPECT_EQ(bench.tenants[i].nVes, scn.tenants[i].nVes);
        EXPECT_EQ(bench.tenants[i].priority,
                  scn.tenants[i].priority);
        EXPECT_EQ(bench.tenants[i].outstanding,
                  scn.tenants[i].outstanding);
    }
    if (::testing::Test::HasFailure())
        return;
    expectServingEq(runServing(bench), runServing(scn));
}

} // anonymous namespace
} // namespace neu10
