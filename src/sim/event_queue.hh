/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The NPU simulator is event-driven in the paper's sense: simulated state
 * changes only at discrete points (uTOp completion, request arrival,
 * scheduler quantum expiry, preemption). The EventQueue totally orders
 * events by (time, priority, insertion sequence) so that simulations are
 * deterministic even when events coincide in time.
 *
 * Callbacks live in a slot table recycled through a free list; the
 * binary heap holds (time, priority, sequence, slot) records. A heap
 * record is live iff its slot still carries its sequence number, so
 * cancellation is O(1) and lazy, and once the table and heap have grown
 * to the working set, scheduling and firing allocate nothing beyond
 * what a callback's own captures need.
 */

#ifndef NEU10_SIM_EVENT_QUEUE_HH
#define NEU10_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/types.hh"

namespace neu10
{

/**
 * Priorities break ties between simultaneous events; lower runs first.
 * Completions must precede scheduling decisions at the same instant so
 * the scheduler sees freshly freed resources.
 */
enum class EventPriority : int
{
    Completion = 0,  ///< uTOp / DMA / request completions
    Arrival = 1,     ///< new work entering the system
    Schedule = 2,    ///< scheduler invocations
    Stat = 3,        ///< statistics sampling
    Default = 4,
};

/**
 * Opaque handle used to cancel a scheduled event: the event's slot in
 * the low 32 bits, that slot's reuse generation in the high 32 bits.
 */
using EventId = std::uint64_t;

/** Sentinel returned when no event is pending. */
inline constexpr EventId kInvalidEvent = 0;

/** A deterministic discrete-event queue. */
class EventQueue
{
  public:
    using Callback = std::function<void(Cycles now)>;

    /**
     * Schedule @p cb at absolute time @p when.
     * @return a handle usable with deschedule().
     */
    EventId schedule(Cycles when, Callback cb,
                     EventPriority prio = EventPriority::Default);

    /** Cancel a pending event; no-op if already fired or cancelled. */
    void deschedule(EventId id);

    /** True if no runnable events remain. */
    bool empty() const;

    /** Number of pending (non-cancelled) events. */
    size_t pending() const { return pendingCount_; }

    /** Current simulated time in cycles. */
    Cycles now() const { return now_; }

    /** Time of the earliest pending event, or kCyclesInf. Discards
     * cancelled records at the head of the queue on the way. */
    Cycles nextEventTime();

    /**
     * Run events until the queue is empty or @p limit is reached.
     * Events scheduled exactly at @p limit still run.
     * @return the final simulated time.
     */
    Cycles runUntil(Cycles limit = kCyclesInf);

    /** Run exactly one event if any is pending; @return true if run. */
    bool step();

    /** Total number of events executed (for stats / debug). */
    std::uint64_t executed() const { return executed_; }

  private:
    struct Entry
    {
        Cycles when;
        std::uint64_t seq;  ///< insertion order; 0 never used
        int prio;
        std::uint32_t slot;
        // Ordering for a min-queue via std::greater semantics.
        bool
        operator>(const Entry &o) const
        {
            if (when != o.when)
                return when > o.when;
            if (prio != o.prio)
                return prio > o.prio;
            return seq > o.seq;
        }
    };

    /** One callback slot. A slot stays bound to its heap record until
     * that record is popped, then returns to the free list. */
    struct Slot
    {
        std::uint64_t seq = 0;   ///< sequence of the pending event; 0: none
        std::uint32_t gen = 0;   ///< bumped on every reuse (EventId check)
        Callback cb;
    };

    /** Discard stale (cancelled) records at the top of the heap. */
    void popCancelled();
    /** Return a popped record's slot to the free list. */
    void release(std::uint32_t slot);

    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>>
        heap_;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> free_;

    Cycles now_ = 0.0;
    std::uint64_t nextSeq_ = 1;
    size_t pendingCount_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace neu10

#endif // NEU10_SIM_EVENT_QUEUE_HH
