/**
 * @file
 * Unit tests for the DES kernel, coroutine tasks, and compute resources.
 */

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <vector>

#include "sim/kernel.hh"
#include "sim/resource.hh"
#include "sim/task.hh"

namespace hades::sim
{
namespace
{

TEST(Kernel, EventsFireInTimeOrder)
{
    Kernel k;
    std::vector<int> order;
    k.schedule(30, [&] { order.push_back(3); });
    k.schedule(10, [&] { order.push_back(1); });
    k.schedule(20, [&] { order.push_back(2); });
    EXPECT_TRUE(k.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(k.now(), 30);
    EXPECT_EQ(k.eventsRun(), 3u);
}

TEST(Kernel, SameTickEventsFifo)
{
    Kernel k;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        k.schedule(5, [&, i] { order.push_back(i); });
    k.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(Kernel, HorizonStopsExecution)
{
    Kernel k;
    int fired = 0;
    k.schedule(10, [&] { ++fired; });
    k.schedule(100, [&] { ++fired; });
    EXPECT_FALSE(k.run(50));
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(k.now(), 50);
    EXPECT_TRUE(k.run());
    EXPECT_EQ(fired, 2);
}

TEST(Kernel, NestedScheduling)
{
    Kernel k;
    Tick second_fire = 0;
    k.schedule(10, [&] {
        k.schedule(15, [&] { second_fire = k.now(); });
    });
    k.run();
    EXPECT_EQ(second_fire, 25);
}

TEST(Kernel, StopRequest)
{
    Kernel k;
    int fired = 0;
    k.schedule(1, [&] {
        ++fired;
        k.stop();
    });
    k.schedule(2, [&] { ++fired; });
    EXPECT_FALSE(k.run());
    EXPECT_EQ(fired, 1);
    k.run();
    EXPECT_EQ(fired, 2);
}

// --- queue-rewrite semantic pins -------------------------------------------
// These lock in the (time, insertion-sequence) contract the protocol
// engines rely on, so the event-queue implementation can change freely.

TEST(Kernel, ZeroDelaySelfReschedulingRunsAfterSameTickEvents)
{
    // An event that reschedules itself with delay 0 gets a fresh
    // sequence number, so every event already pending at that tick runs
    // first; the rescheduled event does not starve or jump the queue.
    Kernel k;
    std::vector<int> order;
    int hops = 0;
    std::function<void()> hop = [&] {
        order.push_back(100 + hops);
        if (++hops < 3)
            k.schedule(0, hop);
    };
    k.schedule(5, hop);
    k.schedule(5, [&] { order.push_back(1); });
    k.schedule(5, [&] { order.push_back(2); });
    EXPECT_TRUE(k.run());
    EXPECT_EQ(order, (std::vector<int>{100, 1, 2, 101, 102}));
    EXPECT_EQ(k.now(), 5);
}

TEST(Kernel, StopInsideEventPreservesSameTickRemainder)
{
    // stop() from inside an event must return after that event, leaving
    // later same-tick events queued; a subsequent run() resumes them in
    // the original insertion order at the same timestamp.
    Kernel k;
    std::vector<int> order;
    k.schedule(7, [&] {
        order.push_back(0);
        k.stop();
    });
    k.schedule(7, [&] { order.push_back(1); });
    k.schedule(7, [&] { order.push_back(2); });
    EXPECT_FALSE(k.run());
    EXPECT_EQ(order, (std::vector<int>{0}));
    EXPECT_EQ(k.now(), 7);
    EXPECT_FALSE(k.empty());
    EXPECT_TRUE(k.run());
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(k.now(), 7);
}

TEST(Kernel, HorizonExactlyOnEventTickRunsTheEvent)
{
    // maxTime is inclusive: an event AT the horizon still fires; only
    // events strictly beyond it are deferred, and now() parks exactly at
    // the horizon.
    Kernel k;
    std::vector<Tick> fired;
    k.schedule(50, [&] { fired.push_back(k.now()); });
    k.schedule(51, [&] { fired.push_back(k.now()); });
    EXPECT_FALSE(k.run(50));
    EXPECT_EQ(fired, (std::vector<Tick>{50}));
    EXPECT_EQ(k.now(), 50);
    EXPECT_TRUE(k.run(51));
    EXPECT_EQ(fired, (std::vector<Tick>{50, 51}));
}

TEST(Kernel, HorizonOnDrainedQueueReportsDrained)
{
    Kernel k;
    int fired = 0;
    k.schedule(10, [&] { ++fired; });
    EXPECT_TRUE(k.run(10));
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(k.now(), 10);
}

TEST(Kernel, ScheduleAndScheduleAtShareOneSequenceSpace)
{
    // Ties between schedule(delay) and scheduleAt(when) resolve by
    // global insertion order, regardless of which entry point was used.
    Kernel k;
    std::vector<int> order;
    k.schedule(9, [&] { order.push_back(0); });
    k.scheduleAt(9, [&] { order.push_back(1); });
    k.schedule(9, [&] { order.push_back(2); });
    k.scheduleAt(9, [&] { order.push_back(3); });
    EXPECT_TRUE(k.run());
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Kernel, InterleavedNestedTieBreaking)
{
    // Events scheduled from inside an event at the current tick queue
    // behind everything already pending at that tick, in issue order.
    Kernel k;
    std::vector<int> order;
    k.schedule(3, [&] {
        order.push_back(0);
        k.scheduleAt(3, [&] { order.push_back(10); });
        k.schedule(0, [&] { order.push_back(11); });
    });
    k.scheduleAt(3, [&] { order.push_back(1); });
    EXPECT_TRUE(k.run());
    EXPECT_EQ(order, (std::vector<int>{0, 1, 10, 11}));
}

TEST(Kernel, EventCountersAdvance)
{
    Kernel k;
    for (int i = 0; i < 5; ++i)
        k.schedule(i, [] {});
    EXPECT_TRUE(k.run());
    EXPECT_EQ(k.eventsRun(), 5u);
}

// --- coroutine machinery ---------------------------------------------------

Task
childAdds(Kernel &k, int &counter, Tick d)
{
    co_await Delay{k, d};
    counter += 1;
}

DetachedTask
rootSequence(Kernel &k, std::vector<Tick> &times)
{
    co_await Delay{k, 10};
    times.push_back(k.now());
    int dummy = 0;
    co_await childAdds(k, dummy, 20);
    times.push_back(k.now());
    EXPECT_EQ(dummy, 1);
}

TEST(Task, DelayAndChildTaskAdvanceTime)
{
    Kernel k;
    std::vector<Tick> times;
    rootSequence(k, times);
    k.run();
    ASSERT_EQ(times.size(), 2u);
    EXPECT_EQ(times[0], 10);
    EXPECT_EQ(times[1], 30);
}

struct TestError : std::runtime_error
{
    TestError() : std::runtime_error("boom") {}
};

Task
throwingChild(Kernel &k)
{
    co_await Delay{k, 5};
    throw TestError{};
}

DetachedTask
rootCatches(Kernel &k, bool &caught)
{
    try {
        co_await throwingChild(k);
    } catch (const TestError &) {
        caught = true;
    }
}

TEST(Task, ExceptionsPropagateThroughCoAwait)
{
    Kernel k;
    bool caught = false;
    rootCatches(k, caught);
    k.run();
    EXPECT_TRUE(caught);
}

DetachedTask
waitCompletion(Kernel &k, Completion &c, Tick &resumed_at)
{
    co_await c.wait();
    resumed_at = k.now();
}

TEST(Task, CompletionWakesWaiter)
{
    Kernel k;
    Completion c;
    Tick resumed_at = -1;
    waitCompletion(k, c, resumed_at);
    k.schedule(42, [&] { c.fire(k); });
    k.run();
    EXPECT_EQ(resumed_at, 42);
    EXPECT_TRUE(c.done());
}

TEST(Task, CompletionAlreadyDoneDoesNotSuspend)
{
    Kernel k;
    Completion c;
    c.fire(k);
    Tick resumed_at = -1;
    waitCompletion(k, c, resumed_at);
    k.run();
    EXPECT_EQ(resumed_at, 0);
}

// --- compute resource -------------------------------------------------------

DetachedTask
occupyFor(Kernel &k, ComputeResource &core, Tick d, Tick &done_at)
{
    co_await core.occupy(d);
    done_at = k.now();
}

TEST(Resource, SerializesOccupants)
{
    Kernel k;
    ComputeResource core{k};
    Tick a = 0, b = 0;
    occupyFor(k, core, 100, a);
    occupyFor(k, core, 50, b);
    k.run();
    EXPECT_EQ(a, 100);
    EXPECT_EQ(b, 150); // queued behind the first occupant
    EXPECT_EQ(core.busyTime(), 150);
}

DetachedTask
occupyAfterDelay(Kernel &k, ComputeResource &core, Tick start, Tick d,
                 Tick &done_at)
{
    co_await Delay{k, start};
    co_await core.occupy(d);
    done_at = k.now();
}

TEST(Resource, IdleGapsDoNotAccumulate)
{
    Kernel k;
    ComputeResource core{k};
    Tick a = 0, b = 0;
    occupyAfterDelay(k, core, 0, 10, a);
    occupyAfterDelay(k, core, 1000, 10, b);
    k.run();
    EXPECT_EQ(a, 10);
    EXPECT_EQ(b, 1010); // starts fresh at t=1000, not queued at t=10
}

TEST(Resource, ModelsMultiplexingOverlap)
{
    // Two contexts on one core: context A computes 100 then "waits on the
    // network" (a plain Delay) for 1000; context B can use the core during
    // A's network wait. Total completion should reflect the overlap.
    Kernel k;
    ComputeResource core{k};
    Tick a_done = 0, b_done = 0;

    auto ctx_a = [](Kernel &k, ComputeResource &core,
                    Tick &done) -> DetachedTask {
        co_await core.occupy(100);
        co_await Delay{k, 1000}; // network wait: core is free
        co_await core.occupy(100);
        done = k.now();
    };
    auto ctx_b = [](Kernel &k, ComputeResource &core,
                    Tick &done) -> DetachedTask {
        co_await core.occupy(500);
        done = k.now();
    };
    ctx_a(k, core, a_done);
    ctx_b(k, core, b_done);
    k.run();
    EXPECT_EQ(b_done, 600);  // B runs during A's network wait
    EXPECT_EQ(a_done, 1200); // A resumes after its wait + compute
}

} // namespace
} // namespace hades::sim
