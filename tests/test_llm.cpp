/**
 * @file
 * LLM-subsystem tests (src/llm/): the paged KV pool (allocation,
 * all-or-nothing grow, conservation under preemption-style churn,
 * snapshot/restore, audit), the §III-B pool sizing math, the
 * buildLlama parity digest (the zoo graph must stay digit-identical
 * to the pre-phase-model generation), and end-to-end token-level
 * serving through the fleet: continuous batching must beat the
 * static-batch baseline at equal HBM, preemption and fault-injected
 * board loss must conserve both requests and pages, and everything
 * must be bit-identical across engines and host thread widths. A
 * seeded corpus of small endpoints pins every result bit and trace
 * event to the one-iteration-at-a-time decode loop the windowed loop
 * replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/fleet.hh"
#include "common/logging.hh"
#include "llm/kv_pool.hh"
#include "llm/llm_serving.hh"
#include "llm/phase_model.hh"
#include "models/zoo.hh"
#include "obs/trace.hh"
#include "resilience/faults.hh"
#include "vnpu/allocator.hh"

#include "result_eq.hh"

namespace neu10
{
namespace
{

using llm::KvPool;

// ------------------------------------------------------ KV pool

TEST(KvPool, AllocGrowReleaseRoundTrip)
{
    KvPool pool(8, 16);
    EXPECT_EQ(pool.totalPages(), 8u);
    EXPECT_EQ(pool.freePages(), 8u);
    EXPECT_EQ(pool.pagesFor(0), 0u);
    EXPECT_EQ(pool.pagesFor(1), 1u);
    EXPECT_EQ(pool.pagesFor(16), 1u);
    EXPECT_EQ(pool.pagesFor(17), 2u);

    EXPECT_EQ(pool.ensureTokens(7, 16), 1u);
    EXPECT_FALSE(pool.lastGrowFailed());
    EXPECT_EQ(pool.pagesHeld(7), 1u);
    EXPECT_EQ(pool.tokensHeld(7), 16u);
    // Growing within the last page allocates nothing.
    EXPECT_EQ(pool.ensureTokens(7, 16), 0u);
    EXPECT_EQ(pool.ensureTokens(7, 17), 1u);
    EXPECT_EQ(pool.pagesHeld(7), 2u);
    EXPECT_EQ(pool.usedPages(), 2u);
    pool.audit();

    EXPECT_EQ(pool.release(7), 2u);
    EXPECT_EQ(pool.usedPages(), 0u);
    EXPECT_EQ(pool.pagesHeld(7), 0u);
    EXPECT_EQ(pool.stats().allocOps, 2u);
    EXPECT_EQ(pool.stats().freeOps, 2u);
    pool.audit();
}

TEST(KvPool, FirstAllocTakesPageZero)
{
    // The free list is stacked so allocation order is 0, 1, 2, ... —
    // page identity is deterministic, not an artifact of stack setup.
    KvPool pool(4, 16);
    pool.ensureTokens(1, 16);
    pool.ensureTokens(2, 32);
    const auto *p1 = pool.pages(1);
    const auto *p2 = pool.pages(2);
    ASSERT_NE(p1, nullptr);
    ASSERT_NE(p2, nullptr);
    ASSERT_EQ(p1->size(), 1u);
    ASSERT_EQ(p2->size(), 2u);
    EXPECT_EQ((*p1)[0], 0u);
    EXPECT_EQ((*p2)[0], 1u);
    EXPECT_EQ((*p2)[1], 2u);
    EXPECT_EQ(pool.pages(99), nullptr);
}

TEST(KvPool, LifoReuse)
{
    KvPool pool(4, 16);
    pool.ensureTokens(1, 16); // page 0
    pool.ensureTokens(2, 16); // page 1
    pool.release(1);          // page 0 back on top of the stack
    pool.ensureTokens(3, 16);
    const auto *p3 = pool.pages(3);
    ASSERT_NE(p3, nullptr);
    EXPECT_EQ((*p3)[0], 0u); // most recently freed page reused first
}

TEST(KvPool, AllOrNothingGrow)
{
    KvPool pool(4, 16);
    EXPECT_EQ(pool.ensureTokens(1, 48), 3u);
    // Needs 2 pages with only 1 free: nothing must change.
    EXPECT_EQ(pool.ensureTokens(2, 32), 0u);
    EXPECT_TRUE(pool.lastGrowFailed());
    EXPECT_EQ(pool.pagesHeld(2), 0u);
    EXPECT_EQ(pool.tokensHeld(2), 0u);
    EXPECT_EQ(pool.usedPages(), 3u);
    EXPECT_EQ(pool.stats().failedAllocs, 1u);
    pool.audit();
    // A fitting request still succeeds afterwards.
    EXPECT_EQ(pool.ensureTokens(2, 16), 1u);
    EXPECT_FALSE(pool.lastGrowFailed());
    pool.audit();
}

TEST(KvPool, HighWaterAndFragmentation)
{
    KvPool pool(8, 16);
    pool.ensureTokens(1, 33); // 3 pages for 33 tokens
    EXPECT_EQ(pool.stats().highWaterPages, 3u);
    // 48 tokens of page capacity hold 33 live tokens.
    EXPECT_DOUBLE_EQ(pool.stats().fragmentationFrac(16),
                     1.0 - 33.0 / 48.0);
    pool.release(1);
    EXPECT_EQ(pool.stats().highWaterPages, 3u); // sticky
    EXPECT_DOUBLE_EQ(pool.stats().fragmentationFrac(16), 0.0);
    EXPECT_EQ(pool.release(1), 0u); // unknown/empty release is a no-op
}

TEST(KvPool, ConservationUnderPreemptionChurn)
{
    // Deterministic admit/grow/preempt churn: pages must be conserved
    // at every step and fully recovered at the end.
    KvPool pool(13, 16);
    llm::SeqId next = 0;
    std::vector<llm::SeqId> live;
    for (unsigned step = 0; step < 200; ++step) {
        const llm::SeqId s = next++;
        if (pool.ensureTokens(s, 16 + (step % 5) * 16) > 0)
            live.push_back(s);
        // Grow everything by a token; preempt the youngest on refusal
        // exactly like the scheduler does.
        for (std::size_t i = 0; i < live.size();) {
            pool.ensureTokens(live[i],
                              pool.tokensHeld(live[i]) + 1);
            if (pool.lastGrowFailed()) {
                pool.release(live.back());
                live.pop_back();
            } else {
                ++i;
            }
        }
        pool.audit();
        EXPECT_EQ(pool.usedPages() + pool.freePages(),
                  pool.totalPages());
        EXPECT_EQ(pool.stats().allocOps - pool.stats().freeOps,
                  pool.usedPages());
    }
    EXPECT_GT(pool.stats().failedAllocs, 0u);
    for (llm::SeqId s : pool.holders())
        pool.release(s);
    EXPECT_EQ(pool.usedPages(), 0u);
    EXPECT_EQ(pool.stats().allocOps, pool.stats().freeOps);
    pool.audit();
}

TEST(KvPool, SnapshotRestoreConservesPages)
{
    KvPool a(16, 16);
    a.ensureTokens(3, 40);
    a.ensureTokens(1, 16);
    a.ensureTokens(9, 100);
    const KvPool::Snapshot snap = a.snapshot();
    ASSERT_EQ(snap.seqTokens.size(), 3u);
    EXPECT_EQ(snap.seqTokens[0].first, 1u); // ascending SeqId
    EXPECT_EQ(snap.seqTokens[1].first, 3u);
    EXPECT_EQ(snap.seqTokens[2].first, 9u);

    KvPool b(16, 16);
    b.restore(snap);
    b.audit();
    EXPECT_EQ(b.usedPages(), a.usedPages());
    EXPECT_EQ(b.tokensHeld(3), 40u);
    EXPECT_EQ(b.tokensHeld(9), 100u);
    EXPECT_EQ(b.pagesHeld(9), 7u);
    // No double-free: releasing every holder empties the pool exactly.
    for (llm::SeqId s : b.holders())
        b.release(s);
    EXPECT_EQ(b.usedPages(), 0u);
    b.audit();
}

TEST(KvPool, RestoreRefusalsAreFatal)
{
    KvPool a(16, 16);
    a.ensureTokens(1, 64);
    const KvPool::Snapshot snap = a.snapshot();

    KvPool occupied(16, 16);
    occupied.ensureTokens(2, 16);
    EXPECT_THROW(occupied.restore(snap), FatalError);

    KvPool small(2, 16); // 4 pages short
    EXPECT_THROW(small.restore(snap), FatalError);

    KvPool wrong_page(16, 32);
    EXPECT_THROW(wrong_page.restore(snap), FatalError);
}

TEST(KvPool, GrowAllMovesEveryHolderAtOnce)
{
    KvPool pool(8, 16);
    pool.ensureTokens(0, 15); // 1 page, 1 token of room
    pool.ensureTokens(2, 20); // 2 pages, 12 tokens of room
    pool.growAll(1);
    EXPECT_EQ(pool.tokensHeld(0), 16u);
    EXPECT_EQ(pool.tokensHeld(1), 0u); // not a holder
    EXPECT_EQ(pool.tokensHeld(2), 21u);
    EXPECT_EQ(pool.stats().usedTokens, 37u);
    pool.audit();
    // Seq 0 crosses its page boundary: ensureTokens then only
    // allocates, the token count growAll recorded stays.
    pool.growAll(1);
    EXPECT_EQ(pool.ensureTokens(0, 17), 1u);
    EXPECT_EQ(pool.tokensHeld(0), 17u);
    EXPECT_EQ(pool.stats().usedTokens, 39u);
    pool.audit();
    // A holder that joins later starts from its own count.
    pool.ensureTokens(1, 5);
    pool.growAll(2);
    EXPECT_EQ(pool.tokensHeld(1), 7u);
    const KvPool::Snapshot snap = pool.snapshot();
    ASSERT_EQ(snap.seqTokens.size(), 3u);
    EXPECT_EQ(snap.seqTokens[2].second, 24u);
    EXPECT_EQ(pool.stats().usedTokens, 19u + 7u + 24u);
    pool.release(2);
    EXPECT_EQ(pool.stats().usedTokens, 26u);
    pool.audit();
}

// ------------------------------------------------- §III-B sizing

TEST(KvSizing, PoolPagesMatchResidencyMath)
{
    const llm::LlmModelSpec &spec = llm::llamaSpec();
    const NpuCoreConfig core;
    // Batch-32 sizing reserves 40 GiB; weights + 32 activation sets
    // leave 1072 pages of 16 tokens.
    const Bytes hbm32 =
        sizeVnpuForModel(ModelId::Llama, 32, 8, core)
            .config.memSizePerCore;
    EXPECT_EQ(llm::kvPoolPages(spec, hbm32, 32, 16), 1072u);
    // Batch-8 sizing reserves 30 GiB -> 307 pages (the preemption
    // scenario's starved pool).
    const Bytes hbm8 =
        sizeVnpuForModel(ModelId::Llama, 8, 8, core)
            .config.memSizePerCore;
    EXPECT_EQ(llm::kvPoolPages(spec, hbm8, 8, 16), 307u);
    // Exact formula, not just the two constants.
    const Bytes reserve =
        spec.weightBytes + 32 * spec.actPerSample;
    const Bytes page_bytes = 16 * spec.kvBytesPerToken();
    EXPECT_EQ(llm::kvPoolPages(spec, hbm32, 32, 16),
              (hbm32 - reserve) / page_bytes);
    // An HBM budget the weights alone exceed cannot host a pool.
    EXPECT_THROW(llm::kvPoolPages(spec, spec.weightBytes, 1, 16),
                 FatalError);
}

// ------------------------------------- buildLlama parity digest

struct GraphDigest
{
    std::size_t ops = 0;
    double macs = 0.0;
    double ve = 0.0;
    Bytes bytes = 0;
};

GraphDigest
digestOf(const DnnGraph &g)
{
    GraphDigest d;
    d.ops = g.ops.size();
    for (const TensorOp &op : g.ops) {
        d.macs += op.macs;
        d.ve += op.veElems;
        d.bytes += op.bytes;
    }
    return d;
}

// The digests below were captured from the hand-rolled generator
// before models/llm.cc was rebuilt on llm/phase_model.hh. They pin
// digit-identical emission: any drift in the shared constants or the
// emission order is a parity break, not a tolerance question.
TEST(LlamaParity, AggregateDigestsPinned)
{
    const struct
    {
        unsigned batch;
        double macs, ve;
        Bytes bytes, footprint;
    } pins[] = {
        {1, 7158838067200.0, 1146634240.0, 1264937074688u,
         28366077952u},
        {8, 57270704537600.0, 9173073920.0, 1415539851264u,
         31507611648u},
        {32, 229082818150400.0, 36692295680.0, 1931892228096u,
         42278584320u},
    };
    for (const auto &pin : pins) {
        SCOPED_TRACE(::testing::Message() << "batch " << pin.batch);
        const DnnGraph g = buildModel(ModelId::Llama, pin.batch);
        g.validate();
        const GraphDigest d = digestOf(g);
        EXPECT_EQ(d.ops, 217u);
        EXPECT_EQ(d.macs, pin.macs);
        EXPECT_EQ(d.ve, pin.ve);
        EXPECT_EQ(d.bytes, pin.bytes);
        EXPECT_EQ(g.hbmFootprint, pin.footprint);
        EXPECT_EQ(g.hbmFootprint,
                  llm::llamaSpec().footprint(pin.batch));
    }
}

TEST(LlamaParity, SpotOpsPinned)
{
    const DnnGraph g = buildModel(ModelId::Llama, 8);
    ASSERT_EQ(g.ops.size(), 217u);

    EXPECT_EQ(g.ops[0].name, "embed");
    EXPECT_EQ(g.ops[0].kind, OpKind::Embedding);
    EXPECT_EQ(g.ops[0].veElems, 41943040.0);
    EXPECT_EQ(g.ops[0].bytes, 83886080u);

    EXPECT_EQ(g.ops[1].name, "prefill0.proj");
    EXPECT_EQ(g.ops[1].kind, OpKind::MatMul);
    EXPECT_EQ(g.ops[1].macs, 6496138035200.0);
    EXPECT_EQ(g.ops[1].bytes, 3429892096u);
    EXPECT_EQ(g.ops[1].parallelTiles, 1280u);

    EXPECT_EQ(g.ops[2].name, "prefill0.attn");
    EXPECT_EQ(g.ops[2].macs, 53687091200.0);
    EXPECT_EQ(g.ops[2].bytes, 109576192u);
    EXPECT_EQ(g.ops[2].parallelTiles, 128u);

    EXPECT_EQ(g.ops[3].name, "prefill0.softmax_norm");
    EXPECT_EQ(g.ops[3].veElems, 838860800.0);

    EXPECT_EQ(g.ops[25].name, "dec0.gemv_a");
    EXPECT_EQ(g.ops[25].kind, OpKind::Gemv);
    EXPECT_EQ(g.ops[25].macs, 50751078400.0);
    EXPECT_EQ(g.ops[25].bytes, 12687769600u);
    EXPECT_EQ(g.ops[25].meEfficiency, 0.0625);
    EXPECT_EQ(g.ops[25].parallelTiles, 40u);

    EXPECT_EQ(g.ops[27].name, "dec0.kv_attn");
    EXPECT_EQ(g.ops[27].kind, OpKind::Vector);
    EXPECT_EQ(g.ops[27].veElems, 41943040.0);
    EXPECT_EQ(g.ops[27].bytes, 3523215360u);

    EXPECT_EQ(g.ops[28].name, "dec0.norm_sample");
    EXPECT_EQ(g.ops[28].veElems, 6553600.0);

    // The KV read grows linearly with decode position: step 47 reads
    // 47 more tokens of context than step 0.
    EXPECT_EQ(g.ops[215].name, "dec47.kv_attn");
    EXPECT_EQ(g.ops[215].veElems, 45793280.0);
    EXPECT_EQ(g.ops[215].veElems - g.ops[27].veElems, 47 * 81920.0);
}

// ------------------------------------------------- phase model

TEST(PhaseModel, RooflineShape)
{
    const llm::LlmModelSpec &spec = llm::llamaSpec();
    const NpuCoreConfig core;
    EXPECT_EQ(llm::prefillBytes(spec, 512),
              spec.weightBytes + 512 * spec.kvBytesPerToken());
    EXPECT_EQ(llm::decodeStepBytes(spec, 1000),
              spec.weightBytes + 1000 * spec.kvBytesPerToken());

    // Decode is bandwidth-bound at small batch: the full-bandwidth
    // step cost is the weight stream plus overhead.
    const Cycles step =
        llm::decodeStepCycles(spec, 4, 4 * 512, core, 4, 1.0);
    const double stream =
        static_cast<double>(llm::decodeStepBytes(spec, 4 * 512)) /
        core.hbmBytesPerCycle();
    EXPECT_EQ(step, stream + 4096.0);

    // Costs are monotone in context and prompt length.
    EXPECT_GT(llm::decodeStepCycles(spec, 4, 8192, core, 4, 1.0),
              llm::decodeStepCycles(spec, 4, 2048, core, 4, 1.0));
    EXPECT_GT(llm::prefillCycles(spec, 1024, core, 4, 1.0),
              llm::prefillCycles(spec, 256, core, 4, 1.0));
    // Prefill is compute-bound at full bandwidth — shrinking the
    // share to half changes nothing — but a starved share pushes it
    // past the roofline knee onto the weight-stream floor.
    EXPECT_EQ(llm::prefillCycles(spec, 512, core, 4, 0.5),
              llm::prefillCycles(spec, 512, core, 4, 1.0));
    EXPECT_GT(llm::prefillCycles(spec, 512, core, 4, 0.1),
              llm::prefillCycles(spec, 512, core, 4, 1.0));
}

// ------------------------------------------- fleet integration

FleetConfig
llmFleet(LlmScheduler sched, unsigned tenants = 4,
         unsigned batch = 32, unsigned max_batch = 32,
         double rate = 12.0, std::uint64_t seed = 42)
{
    FleetConfig cfg;
    cfg.numBoards = 1;
    cfg.servingMode = ServingMode::LlmContinuous;
    cfg.llm.scheduler = sched;
    cfg.llm.pageTokens = 16;
    cfg.llm.maxBatch = max_batch;
    cfg.llm.promptTokens = 384;
    cfg.llm.promptTokensMax = 640;
    cfg.llm.outputTokens = 32;
    cfg.llm.outputTokensMax = 96;
    cfg.horizon = 2e9;
    cfg.maxCycles = 50.0 * cfg.horizon;
    for (unsigned i = 0; i < tenants; ++i) {
        ClusterTenantSpec t;
        t.model = ModelId::Llama;
        t.batch = batch;
        t.eus = 8;
        t.traffic.ratePerSec = rate;
        t.traffic.seed = seed + i;
        t.sloCycles = 3e9;
        t.maxQueueDepth = 64;
        cfg.tenants.push_back(t);
    }
    return cfg;
}

TEST(LlmServing, ContinuousBeatsStaticBatch)
{
    const auto cont = runFleet(llmFleet(LlmScheduler::Continuous));
    const auto stat = runFleet(llmFleet(LlmScheduler::StaticBatch));

    std::uint64_t cont_tokens = 0, stat_tokens = 0;
    Distribution cont_ttft, stat_ttft;
    for (const TenantResult &tr : cont.tenants) {
        cont_tokens += tr.llm.tokensGenerated;
        cont_ttft.merge(tr.llm.ttftCycles);
    }
    for (const TenantResult &tr : stat.tenants) {
        stat_tokens += tr.llm.tokensGenerated;
        stat_ttft.merge(tr.llm.ttftCycles);
    }
    // Same traffic and seeds: every admitted sequence decodes to its
    // drawn length under both schedulers.
    EXPECT_EQ(cont_tokens, stat_tokens);
    EXPECT_EQ(cont.completed, stat.completed);
    // Continuous batching drains the same tokens sooner (higher
    // tokens/s) and starts sequences sooner (lower p99 TTFT) — the
    // ISSUE acceptance shape, gated for real in bench_llm_serving.
    EXPECT_LT(cont.makespan, stat.makespan);
    EXPECT_LT(cont_ttft.percentile(0.99), stat_ttft.percentile(0.99));
    for (const TenantResult &tr : cont.tenants)
        EXPECT_GT(tr.llm.tokensPerSecond, 0.0);
}

TEST(LlmServing, EngineAndThreadInvariance)
{
    auto cfg = llmFleet(LlmScheduler::Continuous);
    const auto a = runFleet(cfg);
    cfg.engine = SimEngine::PerCycle;
    const auto b = runFleet(cfg);
    cfg.engine = SimEngine::EventDriven;
    cfg.threads = 4;
    const auto c = runFleet(cfg);
    cfg.threads = 3;
    const auto d = runFleet(cfg);
    expectFleetEq(a, b);
    expectFleetEq(a, c);
    expectFleetEq(a, d);
}

TEST(LlmServing, PreemptionConservesPagesAndRequests)
{
    // Batch-8 sizing (307 pages) under 16-deep continuous batching:
    // page pressure must trigger evictions, and every evicted page
    // must come back.
    auto cfg = llmFleet(LlmScheduler::Continuous, /*tenants=*/2,
                        /*batch=*/8, /*max_batch=*/16,
                        /*rate=*/20.0, /*seed=*/7);
    cfg.llm.outputTokens = 64;
    cfg.llm.outputTokensMax = 128;
    cfg.horizon = 1.5e9;
    cfg.maxCycles = 50.0 * cfg.horizon;
    for (auto &t : cfg.tenants)
        t.sloCycles = 6e9;
    const auto r = runFleet(cfg);

    std::uint64_t preempt = 0;
    for (const TenantResult &tr : r.tenants) {
        preempt += tr.llm.preemptions;
        EXPECT_GT(tr.llm.kvFailedAllocs, 0u);
        // Page conservation: the drained endpoint returned every
        // page it ever allocated (the in-run audit() enforces the
        // stronger per-step invariant).
        EXPECT_EQ(tr.llm.kvAllocOps, tr.llm.kvFreeOps);
        EXPECT_EQ(tr.llm.kvPages, 307u);
        EXPECT_LE(tr.llm.kvPageHighWater, tr.llm.kvPages);
    }
    EXPECT_GT(preempt, 0u);
    // Preempted sequences are re-prefilled, so prefills exceed
    // admitted sequences.
    EXPECT_EQ(r.completed + r.rejected, r.submitted);
    EXPECT_EQ(r.rejected, 0u);
}

TEST(LlmServing, BoardLossConservesPagesAndRequests)
{
    auto cfg = llmFleet(LlmScheduler::Continuous);
    FaultEvent loss;
    loss.at = 8e8;
    loss.kind = FaultKind::BoardLoss;
    loss.board = 0;
    loss.durationCycles = kCyclesInf;
    cfg.resilience.faults = {loss};
    const auto r = runFleet(cfg);

    EXPECT_EQ(r.faultsInjected, 1u);
    EXPECT_EQ(r.coreFailures, 4u);
    // Single-epoch LLM serving cannot restore (no later epoch to run
    // the checkpoint), so the half-decoded backlog is abandoned —
    // but request conservation must survive the loss.
    EXPECT_GT(r.lostRequests, 0u);
    EXPECT_EQ(r.completed + r.rejected, r.submitted);
    EXPECT_GE(r.rejected, r.lostRequests);
    for (const TenantResult &tr : r.tenants) {
        // The fault-stopped endpoint still released every page: a
        // leak would have tripped the teardown audit (FatalError).
        EXPECT_EQ(tr.llm.kvAllocOps, tr.llm.kvFreeOps);
        EXPECT_GT(tr.llm.kvAllocOps, 0u);
    }
    // Fault runs are as deterministic as clean ones.
    const auto again = runFleet(cfg);
    expectFleetEq(r, again);
}

/** FNV-1a over 64-bit words (doubles by bit pattern). */
struct Digest
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    }

    void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }

    void
    add(const char *s)
    {
        for (; *s != '\0'; ++s) {
            h ^= static_cast<unsigned char>(*s);
            h *= 0x100000001b3ull;
        }
        add(std::uint64_t{0});
    }

    void
    add(const Distribution &d)
    {
        add(static_cast<std::uint64_t>(d.count()));
        for (double v : d.samples())
            add(v);
        add(d.sum());
    }
};

/** splitmix64: the corpus's own stream, independent of common/random. */
struct SplitMix
{
    std::uint64_t s;

    std::uint64_t
    next()
    {
        std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [lo, hi]. */
    std::uint64_t
    in(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + next() % (hi - lo + 1);
    }

    /** Uniform in [0, 1). */
    double unit() { return static_cast<double>(next() >> 11) * 0x1p-53; }
};

/**
 * One seeded small LLM serving config: 1-3 endpoints, either
 * scheduler, 1-32-token pages, batch caps of 1-12, short prompts and
 * outputs, pools from one sequence's worth of pages up, queue depths
 * that reject, carried backlog, a start offset, and a run that
 * drains, stops at an epoch boundary or hits the time cap.
 */
ServingConfig
corpusConfig(unsigned run)
{
    SplitMix rng{0x6c6c6d636f727075ull + run};
    ServingConfig cfg;
    cfg.mode = ServingMode::LlmContinuous;
    cfg.llm.scheduler = rng.in(0, 3) == 0 ? LlmScheduler::StaticBatch
                                           : LlmScheduler::Continuous;
    static constexpr unsigned kPageTokens[] = {1, 2, 4, 7, 16, 32};
    cfg.llm.pageTokens = kPageTokens[rng.in(0, 5)];
    cfg.llm.maxBatch = static_cast<unsigned>(rng.in(0, 12));
    cfg.llm.promptTokens = static_cast<unsigned>(rng.in(1, 48));
    cfg.llm.promptTokensMax =
        rng.in(0, 1) == 0 ? 0 : cfg.llm.promptTokens +
                                    static_cast<unsigned>(rng.in(0, 64));
    cfg.llm.outputTokens = static_cast<unsigned>(rng.in(1, 24));
    cfg.llm.outputTokensMax =
        rng.in(0, 1) == 0 ? 0 : cfg.llm.outputTokens +
                                    static_cast<unsigned>(rng.in(0, 40));
    cfg.trace.enabled = rng.in(0, 2) == 0;

    // Decode steps cost ~2.4e7-1e8 cycles here, so 2e9 cycles of
    // arrivals keep every endpoint busy for tens of iterations.
    const double span = 2e9;
    switch (rng.in(0, 2)) {
      case 0: // drain
        cfg.maxCycles = 1e12;
        break;
      case 1: // epoch boundary
        cfg.stopAtCycles = rng.unit() * span;
        cfg.maxCycles = 1e12;
        break;
      default: // time cap
        cfg.maxCycles = 1e8 + rng.unit() * span;
        break;
    }

    const llm::LlmModelSpec &spec = llm::llamaSpec();
    const unsigned maxTokens =
        std::max(cfg.llm.promptTokens, cfg.llm.promptTokensMax) +
        std::max(cfg.llm.outputTokens, cfg.llm.outputTokensMax);
    const std::uint64_t seqPages =
        (maxTokens + cfg.llm.pageTokens - 1) / cfg.llm.pageTokens;
    const auto tenants = static_cast<unsigned>(rng.in(1, 3));
    for (unsigned i = 0; i < tenants; ++i) {
        TenantSpec ts;
        ts.model = ModelId::Llama;
        ts.batch = static_cast<unsigned>(rng.in(1, 8));
        ts.nMes = static_cast<unsigned>(rng.in(1, 2));
        ts.nVes = static_cast<unsigned>(rng.in(1, 2));
        ts.llmSeed = rng.next();
        ts.maxQueueDepth = static_cast<unsigned>(rng.in(1, 24));
        ts.sloCycles = 1e8 + rng.unit() * 2e9;
        if (rng.in(0, 3) == 0)
            ts.startOffsetCycles = rng.unit() * 3e8;
        // One sequence's worth of pages up to a few batches' worth:
        // the small pools gate heads and preempt.
        const std::uint64_t pages = seqPages + rng.in(0, 4 * seqPages);
        const Bytes pageBytes = cfg.llm.pageTokens * spec.kvBytesPerToken();
        ts.hbmBytes = spec.weightBytes +
                      static_cast<Bytes>(ts.batch) * spec.actPerSample +
                      pages * pageBytes + rng.in(0, pageBytes - 1);
        const auto carried = rng.in(0, 3) == 0 ? rng.in(1, 6) : 0;
        for (std::uint64_t k = 0; k < carried; ++k)
            ts.backlog.push_back(-rng.unit() * 5e8);
        std::sort(ts.backlog.begin(), ts.backlog.end());
        const auto arrivals = rng.in(0, 30);
        for (std::uint64_t k = 0; k < arrivals; ++k) {
            // Quantized stamps make simultaneous arrivals common.
            const double at =
                rng.in(0, 1) == 0 ? rng.unit() * span
                                  : static_cast<double>(rng.in(0, 20)) * 1e8;
            // An epoch-boundary run only sees arrivals before it.
            if (at < cfg.stopAtCycles)
                ts.arrivals.push_back(at);
        }
        std::sort(ts.arrivals.begin(), ts.arrivals.end());
        cfg.tenants.push_back(ts);
    }
    return cfg;
}

void
digestResult(const ServingResult &r, Digest &d)
{
    d.add(r.makespan);
    d.add(r.meUsefulUtil);
    d.add(r.meHeldUtil);
    d.add(r.veUtil);
    d.add(r.avgHbmBytesPerCycle);
    for (const TenantResult &tr : r.tenants) {
        d.add(tr.model.c_str());
        d.add(tr.completed);
        d.add(tr.latencyCycles);
        d.add(tr.throughput);
        d.add(tr.blockedFrac);
        d.add(static_cast<std::uint64_t>(tr.reclaims));
        d.add(tr.submitted);
        d.add(tr.rejected);
        d.add(tr.sloMet);
        d.add(tr.goodput);
        d.add(static_cast<std::uint64_t>(tr.backlog.size()));
        for (Cycles c : tr.backlog)
            d.add(c);
        d.add(tr.lostRequests);
        d.add(tr.recoveredRequests);
        d.add(static_cast<std::uint64_t>(tr.failovers));
        d.add(tr.downtimeCycles);
        const LlmEndpointStats &ls = tr.llm;
        d.add(ls.tokensGenerated);
        d.add(ls.prefills);
        d.add(ls.decodeIterations);
        d.add(ls.preemptions);
        d.add(static_cast<std::uint64_t>(ls.kvPages));
        d.add(static_cast<std::uint64_t>(ls.kvPageHighWater));
        d.add(ls.kvAllocOps);
        d.add(ls.kvFreeOps);
        d.add(ls.kvFailedAllocs);
        d.add(ls.kvOccupancyMean);
        d.add(ls.kvFragMean);
        d.add(ls.ttftCycles);
        d.add(ls.tokensPerSecond);
    }
    d.add(static_cast<std::uint64_t>(r.trace.size()));
    for (const TraceEvent &ev : r.trace.events()) {
        d.add(ev.at);
        d.add(ev.dur);
        d.add(ev.id);
        d.add(static_cast<std::uint64_t>(ev.phase));
        d.add(ev.cat);
        d.add(ev.name);
        for (int a = 0; a < ev.nargs; ++a) {
            d.add(ev.args[a].key);
            d.add(ev.args[a].value);
        }
    }
}

TEST(LlmServing, SeededCorpusMatchesPinnedDigest)
{
    // Several hundred seeded small endpoints over both schedulers,
    // page sizes, batch caps, pools tight enough to gate heads and
    // preempt, carried backlog, and drain / epoch-boundary / time-cap
    // stops. The pinned digest comes from a decode loop that grew
    // every running sequence through the pool on every iteration, so
    // it holds any faster loop to the same bits: every counter,
    // latency and TTFT sample, occupancy integral and trace event.
    Digest digest;
    std::uint64_t iterations = 0, preemptions = 0, gated = 0;
    std::uint64_t stopped = 0;
    for (unsigned run = 0; run < 400; ++run) {
        const ServingConfig cfg = corpusConfig(run);
        const ServingResult r = llm::runLlmServing(cfg);
        digestResult(r, digest);
        for (const TenantResult &tr : r.tenants) {
            iterations += tr.llm.decodeIterations;
            preemptions += tr.llm.preemptions;
            gated += tr.llm.kvFailedAllocs;
            stopped += tr.backlog.size();
        }
    }
    // The corpus reaches every window-ending case.
    EXPECT_GT(iterations, 10000u);
    EXPECT_GT(preemptions, 100u);
    EXPECT_GT(gated, preemptions);
    EXPECT_GT(stopped, 100u);
    EXPECT_EQ(digest.h, 0x67f8a301bd1c9ec5ull) << std::hex << digest.h;
}

TEST(LlmServing, ArrivalAtIterationEndJoinsNextIteration)
{
    // A sequence arriving exactly when a decode iteration ends is
    // delivered, and prefilled into the batch, before the next
    // iteration: a multi-iteration window must stop there too.
    ServingConfig cfg;
    cfg.mode = ServingMode::LlmContinuous;
    cfg.llm.pageTokens = 16;
    cfg.llm.maxBatch = 4;
    cfg.llm.promptTokens = 64;
    cfg.llm.outputTokens = 8;
    cfg.maxCycles = 1e12;
    cfg.trace.enabled = true;
    TenantSpec ts;
    ts.model = ModelId::Llama;
    ts.batch = 8;
    ts.nMes = 4;
    ts.nVes = 4; // the whole core: bandwidth share 1
    const llm::LlmModelSpec &spec = llm::llamaSpec();
    const Cycles prefill =
        llm::prefillCycles(spec, 64, cfg.core, ts.nMes, 1.0);
    const Cycles decode =
        llm::decodeStepCycles(spec, 1, 64, cfg.core, ts.nMes, 1.0);
    ts.arrivals = {0.0, prefill + decode};
    cfg.tenants.push_back(ts);

    const ServingResult r = llm::runLlmServing(cfg);
    std::vector<Cycles> prefills;
    for (const TraceEvent &ev : r.trace.events())
        if (std::string(ev.name) == "prefill")
            prefills.push_back(ev.at);
    ASSERT_EQ(prefills.size(), 2u);
    EXPECT_EQ(prefills[0], 0.0);
    EXPECT_EQ(prefills[1], prefill + decode);
    EXPECT_EQ(r.tenants[0].completed, 2u);
}

TEST(LlmServing, NonLlamaTenantIsFatal)
{
    auto cfg = llmFleet(LlmScheduler::Continuous, /*tenants=*/1);
    cfg.tenants[0].model = ModelId::Bert;
    EXPECT_THROW(runFleet(cfg), FatalError);
}

} // namespace
} // namespace neu10
