/**
 * @file
 * google-benchmark microbenchmarks of the framework's hot components:
 * NeuISA encode/decode, the interpreter, max-min allocation (value and
 * in-place forms), segment translation, IOMMU lookup, event-queue
 * operations, the allocator's EU sweep, and a full scheduler round on
 * a loaded core.
 */

#include <benchmark/benchmark.h>

#include "isa/builders.hh"
#include "isa/encoding.hh"
#include "isa/interpreter.hh"
#include "npu/bandwidth.hh"
#include "npu/core_sim.hh"
#include "sched/policy.hh"
#include "sim/event_queue.hh"
#include "virt/iommu.hh"
#include "virt/memory.hh"
#include "vnpu/allocator.hh"

namespace neu10
{
namespace
{

void
BM_NeuIsaEncode(benchmark::State &state)
{
    const NeuIsaProgram prog = makeNeuIsaMatmulRelu(
        4, 4, static_cast<unsigned>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(encode(prog));
}
BENCHMARK(BM_NeuIsaEncode)->Arg(8)->Arg(64)->Arg(512);

void
BM_NeuIsaDecode(benchmark::State &state)
{
    const auto image = encode(makeNeuIsaMatmulRelu(
        4, 4, static_cast<unsigned>(state.range(0))));
    for (auto _ : state)
        benchmark::DoNotOptimize(decode(image));
}
BENCHMARK(BM_NeuIsaDecode)->Arg(8)->Arg(64)->Arg(512);

void
BM_InterpreterLoop(benchmark::State &state)
{
    const NeuIsaProgram prog = makeNeuIsaLoop(
        static_cast<unsigned>(state.range(0)), 4);
    for (auto _ : state) {
        Interpreter interp;
        benchmark::DoNotOptimize(interp.runProgram(prog));
    }
}
BENCHMARK(BM_InterpreterLoop)->Arg(4)->Arg(64);

void
BM_MaxMinAllocate(benchmark::State &state)
{
    std::vector<double> demands;
    for (int i = 0; i < state.range(0); ++i)
        demands.push_back(1.0 + (i % 7));
    for (auto _ : state)
        benchmark::DoNotOptimize(maxMinAllocate(demands, 10.0));
}
// A core water-fills over its vNPU slots or one slot's running units:
// n <= 8 in practice. 64 keeps the large-n path measured.
BENCHMARK(BM_MaxMinAllocate)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(64);

void
BM_MaxMinFill(benchmark::State &state)
{
    // The in-place form the core and its policies call, over reused
    // scratch: the same fill without the returned vector.
    std::vector<double> demands;
    for (int i = 0; i < state.range(0); ++i)
        demands.push_back(1.0 + (i % 7));
    std::vector<double> grants(demands.size());
    std::vector<MaxMinKey> scratch;
    for (auto _ : state) {
        maxMinFill(demands, 10.0, grants, scratch);
        benchmark::DoNotOptimize(grants.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_MaxMinFill)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(64);

void
BM_SegmentTranslate(benchmark::State &state)
{
    SegmentPool pool(64_GiB, 1_GiB);
    AddressSpace as(1_GiB, pool.allocate(16_GiB));
    std::uint64_t addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            as.translate(addr % as.size()));
        addr += 4097;
    }
}
BENCHMARK(BM_SegmentTranslate);

void
BM_IommuTranslate(benchmark::State &state)
{
    Iommu iommu;
    iommu.attach(1);
    for (int i = 0; i < 16; ++i)
        iommu.map(1, i * 0x10000ull, i * 0x100000ull, 0x10000);
    std::uint64_t addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            iommu.translate(1, addr % (16 * 0x10000ull)));
        addr += 4099;
    }
}
BENCHMARK(BM_IommuTranslate);

void
BM_EventQueueChurn(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue q;
        for (int i = 0; i < state.range(0); ++i)
            q.schedule(static_cast<Cycles>((i * 7919) % 100000),
                       [](Cycles) {});
        q.runUntil();
        benchmark::DoNotOptimize(q.executed());
    }
}
BENCHMARK(BM_EventQueueChurn)->Arg(1000)->Arg(10000);

void
BM_AllocatorSweep(benchmark::State &state)
{
    for (auto _ : state)
        benchmark::DoNotOptimize(allocSweep(0.93, 0.2, 16));
}
BENCHMARK(BM_AllocatorSweep);

void
BM_SchedulerRound(benchmark::State &state)
{
    // One full simulated inference per slot of a synthetic 64-group
    // model on a core whose 4 MEs and 4 VEs are split evenly over
    // range(0) slots (fleet cores average 1.73 slots). The cost is
    // dominated by the per-event core step; the "events" counter is
    // events per iteration, so ns per event is Time / events.
    CompiledModel m;
    m.model = "synthetic";
    m.batch = 1;
    m.nx = 4;
    m.ny = 4;
    m.neuIsa = true;
    CompiledOp op;
    op.name = "op";
    op.kind = OpKind::MatMul;
    for (int g = 0; g < 64; ++g) {
        WorkGroup grp;
        for (int t = 0; t < 4; ++t) {
            WorkUnit u;
            u.kind = UTopKind::Me;
            u.meTime = 4096.0;
            u.veTime = 1024.0;
            u.bytes = 1 << 20;
            grp.units.push_back(u);
        }
        op.groups.push_back(grp);
    }
    m.ops.push_back(op);
    m.validate();

    const auto nslots = static_cast<unsigned>(state.range(0));
    std::uint64_t events = 0;
    for (auto _ : state) {
        EventQueue queue;
        std::vector<VnpuSlot> slots(nslots);
        for (auto &s : slots) {
            s.nMes = 4 / nslots;
            s.nVes = 4 / nslots;
        }
        NpuCoreSim core(queue, NpuCoreConfig{},
                        makePolicy(PolicyKind::Neu10), slots);
        for (std::uint32_t s = 0; s < nslots; ++s)
            core.submit(s, &m, nullptr);
        queue.runUntil();
        events = queue.executed();
        benchmark::DoNotOptimize(events);
    }
    state.counters["events"] = static_cast<double>(events);
}
BENCHMARK(BM_SchedulerRound)->Arg(1)->Arg(2)->Arg(4);

} // anonymous namespace
} // namespace neu10

BENCHMARK_MAIN();
