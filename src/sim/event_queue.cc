#include "sim/event_queue.hh"

#include <limits>

#include "common/logging.hh"

namespace neu10
{

EventId
EventQueue::schedule(Cycles when, Callback cb, EventPriority prio)
{
    NEU10_ASSERT(when >= now_,
                 "cannot schedule into the past (when=%g now=%g)",
                 when, now_);
    NEU10_ASSERT(cb != nullptr, "event needs a callback");
    std::uint32_t slot;
    if (free_.empty()) {
        NEU10_ASSERT(slots_.size() <
                         std::numeric_limits<std::uint32_t>::max(),
                     "event slot table full");
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    } else {
        slot = free_.back();
        free_.pop_back();
    }
    Slot &s = slots_[slot];
    const std::uint64_t seq = nextSeq_++;
    s.seq = seq;
    ++s.gen;
    s.cb = std::move(cb);
    heap_.push(Entry{when, seq, static_cast<int>(prio), slot});
    ++pendingCount_;
    return (static_cast<EventId>(s.gen) << 32) | slot;
}

void
EventQueue::deschedule(EventId id)
{
    const auto slot = static_cast<std::uint32_t>(id);
    const auto gen = static_cast<std::uint32_t>(id >> 32);
    if (slot >= slots_.size())
        return;
    Slot &s = slots_[slot];
    // A fired or cancelled event's slot either still carries seq 0 or
    // has been reused under a newer generation: both are no-ops.
    if (s.gen != gen || s.seq == 0)
        return;
    s.seq = 0;
    s.cb = nullptr;
    --pendingCount_;
}

void
EventQueue::release(std::uint32_t slot)
{
    // A slot whose generation would wrap is retired rather than
    // reused, so an old EventId can never match a later event.
    if (slots_[slot].gen != std::numeric_limits<std::uint32_t>::max())
        free_.push_back(slot);
}

void
EventQueue::popCancelled()
{
    while (!heap_.empty()) {
        const Entry &top = heap_.top();
        if (slots_[top.slot].seq == top.seq)
            break;
        release(top.slot);
        heap_.pop();
    }
}

bool
EventQueue::empty() const
{
    return pendingCount_ == 0;
}

Cycles
EventQueue::nextEventTime()
{
    popCancelled();
    return heap_.empty() ? kCyclesInf : heap_.top().when;
}

bool
EventQueue::step()
{
    popCancelled();
    if (heap_.empty())
        return false;
    const Entry e = heap_.top();
    heap_.pop();
    Slot &s = slots_[e.slot];
    Callback cb = std::move(s.cb);
    s.cb = nullptr;
    s.seq = 0;
    release(e.slot);
    --pendingCount_;
    NEU10_ASSERT(e.when >= now_, "event time went backwards");
    now_ = e.when;
    ++executed_;
    cb(now_);
    return true;
}

Cycles
EventQueue::runUntil(Cycles limit)
{
    while (true) {
        popCancelled();
        if (heap_.empty())
            break;
        if (heap_.top().when > limit) {
            now_ = limit;
            break;
        }
        step();
    }
    if (now_ < limit && limit < kCyclesInf)
        now_ = limit;
    return now_;
}

} // namespace neu10
