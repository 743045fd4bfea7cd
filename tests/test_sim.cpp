/**
 * @file
 * Unit tests for the discrete-event kernel: ordering, determinism,
 * cancellation, time limits, clock conversions.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "sim/clock.hh"
#include "sim/event_queue.hh"

namespace neu10
{
namespace
{

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30.0, [&](Cycles) { order.push_back(3); });
    q.schedule(10.0, [&](Cycles) { order.push_back(1); });
    q.schedule(20.0, [&](Cycles) { order.push_back(2); });
    q.runUntil();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(q.now(), 30.0);
}

TEST(EventQueue, TieBrokenByPriorityThenFifo)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5.0, [&](Cycles) { order.push_back(2); },
               EventPriority::Schedule);
    q.schedule(5.0, [&](Cycles) { order.push_back(0); },
               EventPriority::Completion);
    q.schedule(5.0, [&](Cycles) { order.push_back(3); },
               EventPriority::Schedule);
    q.schedule(5.0, [&](Cycles) { order.push_back(1); },
               EventPriority::Arrival);
    q.runUntil();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, DescheduleCancels)
{
    EventQueue q;
    bool ran = false;
    EventId id = q.schedule(10.0, [&](Cycles) { ran = true; });
    q.deschedule(id);
    q.runUntil();
    EXPECT_FALSE(ran);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DescheduleTwiceIsNoop)
{
    EventQueue q;
    EventId id = q.schedule(1.0, [](Cycles) {});
    q.deschedule(id);
    EXPECT_NO_THROW(q.deschedule(id));
    q.runUntil();
}

TEST(EventQueue, EventsScheduleEvents)
{
    EventQueue q;
    std::vector<Cycles> times;
    q.schedule(1.0, [&](Cycles now) {
        times.push_back(now);
        q.schedule(now + 4.0, [&](Cycles t2) { times.push_back(t2); });
    });
    q.runUntil();
    ASSERT_EQ(times.size(), 2u);
    EXPECT_DOUBLE_EQ(times[0], 1.0);
    EXPECT_DOUBLE_EQ(times[1], 5.0);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10.0, [&](Cycles) { ++fired; });
    q.schedule(20.0, [&](Cycles) { ++fired; });
    q.runUntil(15.0);
    EXPECT_EQ(fired, 1);
    EXPECT_DOUBLE_EQ(q.now(), 15.0);
    q.runUntil(20.0); // inclusive limit: event at exactly 20 runs
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, SchedulingInPastPanics)
{
    setLogLevel(LogLevel::Silent);
    EventQueue q;
    q.schedule(10.0, [](Cycles) {});
    q.runUntil();
    EXPECT_THROW(q.schedule(5.0, [](Cycles) {}), PanicError);
    setLogLevel(LogLevel::Warn);
}

TEST(EventQueue, NextEventTimeSkipsCancelled)
{
    EventQueue q;
    EventId a = q.schedule(5.0, [](Cycles) {});
    q.schedule(9.0, [](Cycles) {});
    q.deschedule(a);
    EXPECT_DOUBLE_EQ(q.nextEventTime(), 9.0);
}

TEST(EventQueue, NextEventTimeEmptyIsInf)
{
    EventQueue q;
    EXPECT_EQ(q.nextEventTime(), kCyclesInf);
}

TEST(EventQueue, StepRunsExactlyOne)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1.0, [&](Cycles) { ++fired; });
    q.schedule(2.0, [&](Cycles) { ++fired; });
    EXPECT_TRUE(q.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(q.step());
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(q.step());
}

TEST(EventQueue, PendingAndExecutedCounts)
{
    EventQueue q;
    q.schedule(1.0, [](Cycles) {});
    q.schedule(2.0, [](Cycles) {});
    EXPECT_EQ(q.pending(), 2u);
    q.runUntil();
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_EQ(q.executed(), 2u);
}

TEST(EventQueue, ZeroDelaySelfEventAdvances)
{
    EventQueue q;
    int count = 0;
    std::function<void(Cycles)> chain = [&](Cycles now) {
        if (++count < 5)
            q.schedule(now, chain);
    };
    q.schedule(0.0, chain);
    q.runUntil(100.0);
    EXPECT_EQ(count, 5);
}

TEST(EventQueue, FiredIdStaysStaleAfterSlotReuse)
{
    EventQueue q;
    int first = 0, second = 0;
    const EventId a = q.schedule(1.0, [&](Cycles) { ++first; });
    ASSERT_TRUE(q.step());
    // The fired event's slot is free again; the next event takes it.
    const EventId b = q.schedule(2.0, [&](Cycles) { ++second; });
    EXPECT_NE(a, b);
    q.deschedule(a);
    EXPECT_EQ(q.pending(), 1u);
    q.runUntil();
    EXPECT_EQ(first, 1);
    EXPECT_EQ(second, 1);
}

TEST(EventQueue, CancelledIdStaysStaleAfterSlotReuse)
{
    EventQueue q;
    bool ran_a = false, ran_b = false;
    const EventId a = q.schedule(5.0, [&](Cycles) { ran_a = true; });
    q.deschedule(a);
    // Peeking discards the cancelled record and frees its slot.
    EXPECT_EQ(q.nextEventTime(), kCyclesInf);
    const EventId b = q.schedule(6.0, [&](Cycles) { ran_b = true; });
    EXPECT_NE(a, b);
    q.deschedule(a);
    EXPECT_EQ(q.pending(), 1u);
    q.runUntil();
    EXPECT_FALSE(ran_a);
    EXPECT_TRUE(ran_b);
}

TEST(EventQueue, FifoTieBreakHoldsAcrossSlotReuse)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(1.0, [](Cycles) {});
    q.schedule(1.0, [](Cycles) {});
    q.schedule(10.0, [&](Cycles) { order.push_back(0); });
    ASSERT_TRUE(q.step());
    ASSERT_TRUE(q.step());
    // Later insertions land in the two lower, recycled slots but must
    // still run after the older event at the same (time, priority).
    q.schedule(10.0, [&](Cycles) { order.push_back(1); });
    q.schedule(10.0, [&](Cycles now) {
        order.push_back(2);
        q.schedule(now, [&](Cycles) { order.push_back(4); });
    });
    q.schedule(10.0, [&](Cycles) { order.push_back(3); });
    q.runUntil();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, ChurnMatchesOrderedSetModel)
{
    // Seeded random schedule / deschedule / step churn against a
    // reference model: a std::set ordered by (when, priority, seq).
    // Deschedule targets any id ever issued — pending, fired or
    // cancelled — so stale ids meet recycled slots constantly.
    using Key = std::tuple<Cycles, int, int>;
    EventQueue q;
    std::set<Key> model;
    std::map<EventId, Key> issued;
    std::vector<EventId> ids;
    std::vector<int> fired;
    Rng rng(0x6576656e7471ull);
    int next_label = 0;
    for (int op = 0; op < 20000; ++op) {
        const auto dice = rng.below(10);
        if (dice < 5) {
            // Coarse times and priorities make ties common.
            const Cycles when =
                q.now() + static_cast<double>(rng.below(4));
            const auto prio = static_cast<EventPriority>(rng.below(5));
            const int label = next_label++;
            const EventId id = q.schedule(
                when, [&fired, label](Cycles) { fired.push_back(label); },
                prio);
            ASSERT_EQ(issued.count(id), 0u) << "id reissued";
            const Key k{when, static_cast<int>(prio), label};
            issued.emplace(id, k);
            ids.push_back(id);
            model.insert(k);
        } else if (dice < 7 && !ids.empty()) {
            const EventId id = ids[rng.below(ids.size())];
            q.deschedule(id);
            model.erase(issued.at(id));
        } else {
            const bool ran = q.step();
            ASSERT_EQ(ran, !model.empty());
            if (ran) {
                ASSERT_FALSE(fired.empty());
                EXPECT_EQ(fired.back(), std::get<2>(*model.begin()));
                EXPECT_EQ(q.now(), std::get<0>(*model.begin()));
                model.erase(model.begin());
            }
        }
        ASSERT_EQ(q.pending(), model.size()) << "op " << op;
        ASSERT_EQ(q.empty(), model.empty());
    }
    while (q.step()) {
        EXPECT_EQ(fired.back(), std::get<2>(*model.begin()));
        model.erase(model.begin());
        ASSERT_EQ(q.pending(), model.size());
    }
    EXPECT_TRUE(model.empty());
}

TEST(Clock, DefaultMatchesTableII)
{
    Clock c;
    EXPECT_DOUBLE_EQ(c.freqHz(), 1.05e9);
}

TEST(Clock, RoundTripConversions)
{
    Clock c(1.0e9);
    EXPECT_DOUBLE_EQ(c.toSeconds(1e9), 1.0);
    EXPECT_DOUBLE_EQ(c.toCycles(2.0), 2e9);
    EXPECT_DOUBLE_EQ(c.toCycles(c.toSeconds(12345.0)), 12345.0);
}

TEST(Clock, BandwidthConversions)
{
    Clock c(1.2e9);
    // 1 byte/cycle at 1.2 GHz = 1.2 GB/s.
    EXPECT_DOUBLE_EQ(c.toBytesPerSec(1.0), 1.2e9);
    EXPECT_DOUBLE_EQ(c.toBytesPerCycle(1.2e9), 1.0);
}

} // anonymous namespace
} // namespace neu10
