/**
 * @file
 * Event-driven simulator of one physical NPU core shared by multiple
 * vNPUs (§III-E, §III-G).
 *
 * The core executes *work units* — NeuISA uTOps or gang-coupled VLIW
 * operators (see compiler/lower.hh) — under a pluggable scheduling
 * policy. Execution follows a fluid model: a running unit progresses at
 *
 *     rate = min( ME supply / meTime,
 *                 VE share  / veTime,
 *                 HBM share / dmaTime )
 *
 * and rates only change at scheduling events (dispatch, completion,
 * preemption, policy quantum), so completion times between events are
 * computed exactly — the same trace-replay-on-an-event-driven-backend
 * strategy as the paper's production simulator.
 *
 * The scheduling policy decides ME bindings (including harvesting and
 * reclaim preemption), per-unit VE shares, and may request wake-ups for
 * time-quantum decisions. HBM bandwidth is split max-min fairly between
 * vNPUs and then between units (§III-B).
 *
 * Two execution engines drive the same schedule (sim/engine.hh): the
 * default fast-forward engine jumps the clock straight to the next
 * computed state change, while the per-cycle reference walks every
 * intervening cycle re-probing the running set. Results are
 * bit-identical either way; bench_perf_engine records the speed gap.
 */

#ifndef NEU10_NPU_CORE_SIM_HH
#define NEU10_NPU_CORE_SIM_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "compiler/lower.hh"
#include "npu/bandwidth.hh"
#include "npu/config.hh"
#include "obs/trace.hh"
#include "sim/engine.hh"
#include "sim/event_queue.hh"
#include "stats/timeseries.hh"
#include "stats/utilization.hh"

namespace neu10
{

class SchedulerPolicy;

/** Sentinel slot index. */
inline constexpr std::uint32_t kNoSlot = 0xffffffffu;

/** Start/end of one operator within one request (Fig. 23 breakdown). */
struct OpTiming
{
    std::uint32_t opIndex = 0;
    Cycles start = kCyclesInf;
    Cycles end = 0.0;
};

/** Completion record for one inference request. */
struct RequestResult
{
    std::uint64_t id = 0;
    std::uint32_t slot = 0;
    Cycles submitTime = 0.0;
    Cycles finishTime = 0.0;
    std::vector<OpTiming> opTimings; ///< filled if timing capture is on

    Cycles
    latency() const
    {
        return finishTime - submitTime;
    }
};

using RequestCallback = std::function<void(const RequestResult &)>;

/** Execution state of one in-flight request (core_sim.cc). */
struct RequestExec;

/** One schedulable work unit in flight (a uTOp / VLIW operator). */
struct UnitRun
{
    std::uint64_t id = 0;
    std::uint32_t slot = kNoSlot;     ///< owning vNPU slot
    UTopKind kind = UTopKind::Me;
    unsigned gang = 1;                ///< MEs held simultaneously
    Cycles meTime = 0.0;
    double meEff = 1.0;
    Cycles veTime = 0.0;
    Bytes bytes = 0;

    double x = 0.0;                   ///< progress in [0, 1]
    bool running = false;
    std::uint32_t budgetSlot = kNoSlot; ///< whose ME budget it consumes
    Cycles penalty = 0.0;             ///< context-switch cycles left
    double veShare = 0.0;             ///< VE-cycles/cycle granted
    double hbmShare = 0.0;            ///< bytes/cycle granted
    double baseRate = 0.0;            ///< rate before the HBM cap
    double rate = 0.0;                ///< progress per cycle
    Cycles readyAt = 0.0;             ///< for FIFO ordering
    unsigned preemptions = 0;

    // Constants cached at enqueue, so the per-event passes divide by
    // nothing that cannot change.
    double meRate = 1e18;             ///< min(1e18, 1 / meTime); 1e18: none
    double veDemand = 0.0;            ///< veDemandRate()

    // Identity for op/request bookkeeping. The unit lives inside its
    // request's storage, so the pointer is valid while the unit is.
    RequestExec *request = nullptr;
    std::uint32_t opIdx = 0;

    /** True when this unit still needs ME binding to progress. */
    bool
    needsMe() const
    {
        return kind == UTopKind::Me;
    }

    /** VE-cycles per cycle needed to avoid stalling the ME stream. */
    double
    veDemandRate() const
    {
        if (kind == UTopKind::Ve)
            return 1e18; // consumes whatever it is given
        return meTime > 0.0 ? veTime / meTime : 0.0;
    }
};

/** Per-vNPU context on the core (§III-E "vNPU contexts"). */
struct VnpuSlot
{
    unsigned nMes = 0;            ///< allocated matrix engines
    unsigned nVes = 0;            ///< allocated vector engines
    double priority = 1.0;        ///< temporal-sharing weight

    std::deque<UnitRun *> readyMe;
    std::deque<UnitRun *> readyVe;

    // --- statistics -----------------------------------------------
    Cycles meServiceCycles = 0.0;     ///< attained ME occupancy
    Cycles meUsefulCycles = 0.0;      ///< attained *useful* ME busy
    Cycles blockedByHarvest = 0.0;    ///< Table III numerator
    unsigned reclaimPreemptions = 0;
    std::uint64_t requestsCompleted = 0;
    TimeSeries assignedMes;           ///< Fig. 24 (optional capture)
    TimeSeries assignedVes;

    /** Ready ME uTOps waiting for an engine. */
    bool
    hasMeBacklog() const
    {
        return !readyMe.empty();
    }
};

/**
 * The core simulator. Drive it by submitting requests; it schedules
 * itself on the shared EventQueue.
 */
class NpuCoreSim
{
  public:
    /**
     * @param queue   shared event queue (owned by the caller).
     * @param cfg     physical core configuration.
     * @param policy  scheduling policy (ownership transferred).
     * @param slots   per-vNPU engine allocations.
     */
    NpuCoreSim(EventQueue &queue, const NpuCoreConfig &cfg,
               std::unique_ptr<SchedulerPolicy> policy,
               std::vector<VnpuSlot> slots);
    ~NpuCoreSim();

    NpuCoreSim(const NpuCoreSim &) = delete;
    NpuCoreSim &operator=(const NpuCoreSim &) = delete;

    /**
     * Submit one inference request for @p slot. Ops execute in
     * dependency order; @p cb fires on completion.
     * @return the request id.
     */
    std::uint64_t submit(std::uint32_t slot, const CompiledModel *model,
                         RequestCallback cb = nullptr);

    /** Abort all in-flight work of a slot (vNPU teardown). */
    void drainSlot(std::uint32_t slot);

    /** Record per-operator timings in RequestResult (Fig. 23). */
    void setCaptureOpTimings(bool on) { captureOpTimings_ = on; }

    /** Record per-slot assigned-engine time series (Fig. 24). */
    void setCaptureAssignment(bool on) { captureAssignment_ = on; }

    /**
     * Select the execution engine (sim/engine.hh). The default
     * fast-forward engine jumps the clock between state changes; the
     * per-cycle reference walks every intervening cycle, probing the
     * running set at each one. Results are bit-identical either way
     * (the walk only reads state) — the engines differ in host cost,
     * which bench_perf_engine measures.
     */
    void setEngine(SimEngine e) { engine_ = e; }
    SimEngine engine() const { return engine_; }

    /**
     * Attach a sim-time trace buffer (obs/trace.hh). When
     * @p engine_events is set, every fast-forward jump of the clock is
     * recorded as an "engine"/"advance" span — useful for seeing how
     * the engine batches work, but high-volume. The buffer is not
     * owned; pass nullptr to detach. Hot paths guard on the cached
     * pointer, so a detached core pays one predicted branch per site.
     */
    void
    setTrace(TraceBuffer *trace, bool engine_events)
    {
        trace_ = trace;
        traceEngineEvents_ = engine_events && trace != nullptr;
    }

    /** Integer cycle boundaries the per-cycle reference visited
     * (0 under the fast-forward engine). */
    std::uint64_t cyclesStepped() const { return cyclesStepped_; }

    // --- accessors used by policies and stats consumers ------------
    const NpuCoreConfig &config() const { return cfg_; }
    EventQueue &queue() { return queue_; }
    const EventQueue &queue() const { return queue_; }
    std::vector<VnpuSlot> &slots() { return slots_; }
    const std::vector<VnpuSlot> &slots() const { return slots_; }
    std::vector<UnitRun *> &running() { return running_; }
    const std::vector<UnitRun *> &running() const { return running_; }

    /** Useful ME busy integral (engines x cycles doing real work). */
    const UtilizationTracker &meUseful() const { return meUseful_; }
    /** ME occupancy integral (engines held, incl. stalls/penalty). */
    const UtilizationTracker &meHeld() const { return meHeld_; }
    /** VE busy integral. */
    const UtilizationTracker &veBusy() const { return veBusy_; }
    /** Total HBM bytes transferred. */
    double hbmBytesTransferred() const { return hbmBytes_; }
    /** In-flight + queued requests across all slots. */
    size_t outstandingRequests() const { return requests_.size(); }

    // --- policy-facing mutators ------------------------------------
    /**
     * Bind an ME unit to an engine charged to @p budget_slot's budget.
     * @param with_penalty  charge the reclaim context-switch cost.
     */
    void bindMe(UnitRun *u, std::uint32_t budget_slot, bool with_penalty);

    /** Preempt a running ME unit back to the front of its ready queue
     * (progress retained; it pays the penalty when re-bound). */
    void preemptMe(UnitRun *u);

    /** Start a ready VE unit. */
    void startVe(UnitRun *u);

    /** Preempt a running VE unit (whole-core switches, e.g. PMT). */
    void preemptVe(UnitRun *u);

    /** MEs of @p slot's budget currently consumed. */
    unsigned budgetUsed(std::uint32_t slot) const;

    /** The most recently bound running harvester charged to @p slot's
     * budget but owned by another slot (the reclaim victim), or
     * nullptr if there is none. */
    UnitRun *lastHarvesterOn(std::uint32_t slot);

    /** Number of running VE units (capped at ny queues). */
    unsigned runningVeUnits() const { return runningVe_; }

  private:
    /** What the share pass sums on its way over the running set. */
    struct StepTotals
    {
        double useful = 0.0;       ///< useful ME busy (meUseful_)
        double held = 0.0;         ///< ME engines held (meHeld_)
        double ve = 0.0;           ///< VE busy (veBusy_)
        Cycles next = kCyclesInf;  ///< earliest unit state change
    };

    void onEvent(Cycles now);
    void advanceTo(Cycles now);
    void stepCycles(Cycles from, Cycles to);
    StepTotals computeShares(Cycles now);
    void scheduleNext(Cycles next);
    void completeUnit(UnitRun *u, Cycles now);
    void opFinished(RequestExec &req, std::uint32_t op_idx, Cycles now);
    void enqueueReadyUnits(RequestExec &req, std::uint32_t op_idx,
                           Cycles now);
    void updateStats(Cycles now, const StepTotals &totals);
    void removeFromReady(UnitRun *u);

    EventQueue &queue_;
    NpuCoreConfig cfg_;
    std::unique_ptr<SchedulerPolicy> policy_;
    std::vector<VnpuSlot> slots_;

    std::vector<UnitRun *> running_;
    std::unordered_map<std::uint64_t, std::unique_ptr<RequestExec>>
        requests_;

    UtilizationTracker meUseful_;
    UtilizationTracker meHeld_;
    UtilizationTracker veBusy_;

    // Running ME gangs charged to each slot's budget, maintained
    // incrementally by bindMe/preemptMe/completeUnit/drainSlot so the
    // policies' per-decision budgetUsed() probes are O(1) instead of
    // a scan over the running set (a hot path: Neu10's fill/reclaim
    // loops probe once per candidate binding).
    std::vector<unsigned> budgetUsed_;
    /** Running VE units, maintained like budgetUsed_: every policy
     * probes runningVeUnits() inside its VE start loop. */
    unsigned runningVe_ = 0;

    double hbmBytes_ = 0.0;
    Cycles lastAdvance_ = 0.0;

    // Scratch buffers reused across events so the per-event
    // advance/share/stat passes allocate nothing in steady state.
    std::vector<double> scratchOccupancy_;
    std::vector<double> scratchUseful_;
    std::vector<double> scratchDemand_;
    std::vector<double> scratchSlotGrant_;
    std::vector<double> scratchUnitDemand_;
    std::vector<double> scratchUnitGrant_;
    std::vector<MaxMinKey> scratchFill_;
    std::vector<std::vector<UnitRun *>> scratchSlotUnits_;
    std::vector<std::uint32_t> scratchActiveSlots_;
    std::vector<UnitRun *> scratchDone_;

    TraceBuffer *trace_ = nullptr;
    bool traceEngineEvents_ = false;

    SimEngine engine_ = SimEngine::EventDriven;
    std::uint64_t cyclesStepped_ = 0;
    /** Sink for the per-cycle probe results; volatile so the walk
     * cannot be collapsed into a single analytic step — that is the
     * fast-forward engine's job, not the reference's. */
    volatile bool probeSink_ = false;

    EventId pendingEvent_ = kInvalidEvent;
    std::uint64_t nextRequestId_ = 1;
    std::uint64_t nextUnitId_ = 1;
    bool inEvent_ = false;
    bool captureOpTimings_ = false;
    bool captureAssignment_ = false;
};

} // namespace neu10

#endif // NEU10_NPU_CORE_SIM_HH
