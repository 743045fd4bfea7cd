/**
 * @file
 * Unit tests for src/stats: distributions and exact percentiles,
 * piecewise-constant time series, utilization integrators.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "stats/distribution.hh"
#include "stats/timeseries.hh"
#include "stats/utilization.hh"

namespace neu10
{
namespace
{

TEST(Distribution, EmptyIsSafe)
{
    Distribution d;
    EXPECT_TRUE(d.empty());
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.mean(), 0.0);
    EXPECT_EQ(d.percentile(0.95), 0.0);
    EXPECT_EQ(d.stddev(), 0.0);
}

TEST(Distribution, BasicMoments)
{
    Distribution d;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        d.add(v);
    EXPECT_DOUBLE_EQ(d.mean(), 2.5);
    EXPECT_DOUBLE_EQ(d.min(), 1.0);
    EXPECT_DOUBLE_EQ(d.max(), 4.0);
    EXPECT_DOUBLE_EQ(d.sum(), 10.0);
}

TEST(Distribution, PercentilesInterpolate)
{
    Distribution d;
    for (int i = 1; i <= 100; ++i)
        d.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(d.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(d.percentile(1.0), 100.0);
    // p50 over 1..100 with linear interpolation: 50.5.
    EXPECT_NEAR(d.percentile(0.5), 50.5, 1e-9);
    EXPECT_NEAR(d.percentile(0.95), 95.05, 1e-9);
}

TEST(Distribution, PercentileSingleSample)
{
    Distribution d;
    d.add(7.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.5), 7.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.99), 7.0);
}

TEST(Distribution, PercentileRejectsBadQuantile)
{
    setLogLevel(LogLevel::Silent);
    Distribution d;
    d.add(1.0);
    EXPECT_THROW(d.percentile(-0.1), PanicError);
    EXPECT_THROW(d.percentile(1.1), PanicError);
    setLogLevel(LogLevel::Warn);
}

TEST(Distribution, AddAfterQueryResorts)
{
    Distribution d;
    d.add(10.0);
    EXPECT_DOUBLE_EQ(d.max(), 10.0);
    d.add(20.0);
    EXPECT_DOUBLE_EQ(d.max(), 20.0);
    d.add(5.0);
    EXPECT_DOUBLE_EQ(d.min(), 5.0);
}

TEST(Distribution, StddevKnownValue)
{
    Distribution d;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        d.add(v);
    EXPECT_NEAR(d.stddev(), 2.0, 1e-12);
}

TEST(Distribution, ResetClearsEverything)
{
    Distribution d;
    d.add(1.0);
    d.reset();
    EXPECT_TRUE(d.empty());
    EXPECT_EQ(d.sum(), 0.0);
}

TEST(Distribution, MergeAbsorbsOtherSamples)
{
    Distribution a, b;
    for (double v : {1.0, 3.0})
        a.add(v);
    for (double v : {2.0, 4.0, 6.0})
        b.add(v);
    a.merge(b);
    EXPECT_EQ(a.count(), 5u);
    EXPECT_DOUBLE_EQ(a.sum(), 16.0);
    EXPECT_DOUBLE_EQ(a.min(), 1.0);
    EXPECT_DOUBLE_EQ(a.max(), 6.0);
    EXPECT_DOUBLE_EQ(a.percentile(0.5), 3.0);
    // The source is untouched; merging an empty set is a no-op.
    EXPECT_EQ(b.count(), 3u);
    a.merge(Distribution{});
    EXPECT_EQ(a.count(), 5u);
}

TEST(Distribution, MergeEmptyIntoEmpty)
{
    Distribution a, b;
    a.merge(b);
    EXPECT_TRUE(a.empty());
    EXPECT_EQ(a.sum(), 0.0);
    EXPECT_EQ(a.percentile(0.99), 0.0);
    EXPECT_EQ(a.stddev(), 0.0);
}

TEST(Distribution, MergeSingleSampleEdges)
{
    // empty <- single: the merged set IS the single sample.
    Distribution single;
    single.add(7.0);
    Distribution into;
    into.merge(single);
    EXPECT_EQ(into.count(), 1u);
    EXPECT_DOUBLE_EQ(into.mean(), 7.0);
    EXPECT_DOUBLE_EQ(into.percentile(0.0), 7.0);
    EXPECT_DOUBLE_EQ(into.percentile(0.5), 7.0);
    EXPECT_DOUBLE_EQ(into.percentile(1.0), 7.0);
    EXPECT_DOUBLE_EQ(into.stddev(), 0.0);

    // single <- empty leaves it alone.
    into.merge(Distribution{});
    EXPECT_EQ(into.count(), 1u);

    // single <- single interpolates percentiles over both.
    Distribution other;
    other.add(9.0);
    into.merge(other);
    EXPECT_EQ(into.count(), 2u);
    EXPECT_DOUBLE_EQ(into.min(), 7.0);
    EXPECT_DOUBLE_EQ(into.max(), 9.0);
    EXPECT_DOUBLE_EQ(into.percentile(0.5), 8.0);
}

TEST(Distribution, MergeSelfDoublesSamples)
{
    // d.merge(d) used to append a range aliasing the reallocating
    // destination (undefined behavior / out-of-range reads). It must
    // simply double every sample.
    Distribution d;
    for (double v : {1.0, 2.0, 3.0})
        d.add(v);
    d.merge(d);
    EXPECT_EQ(d.count(), 6u);
    EXPECT_DOUBLE_EQ(d.sum(), 12.0);
    EXPECT_DOUBLE_EQ(d.min(), 1.0);
    EXPECT_DOUBLE_EQ(d.max(), 3.0);
    EXPECT_DOUBLE_EQ(d.mean(), 2.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.5), 2.0);
}

TEST(Distribution, MergeEmptyRhsKeepsEverything)
{
    // Merging an empty distribution is a complete no-op: count, sum
    // and every order statistic are untouched (fleet aggregation
    // merges hundreds of empty per-epoch distributions).
    Distribution d;
    for (double v : {4.0, 1.0, 9.0})
        d.add(v);
    const double p50_before = d.percentile(0.5);
    Distribution empty;
    d.merge(empty);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_DOUBLE_EQ(d.sum(), 14.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.5), p50_before);
    EXPECT_DOUBLE_EQ(d.min(), 1.0);
    EXPECT_DOUBLE_EQ(d.max(), 9.0);
}

TEST(Distribution, MergeInvalidatesSortedCache)
{
    // Query first (populating the lazy sorted cache), then merge:
    // order statistics must reflect the merged samples.
    Distribution a;
    a.add(5.0);
    EXPECT_DOUBLE_EQ(a.percentile(0.5), 5.0);
    Distribution b;
    b.add(1.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.min(), 1.0);
    EXPECT_DOUBLE_EQ(a.percentile(0.5), 3.0);
}

TEST(TimeSeries, AverageOfPiecewiseConstant)
{
    TimeSeries ts;
    ts.record(0.0, 2.0);   // 2 on [0, 10)
    ts.record(10.0, 4.0);  // 4 on [10, 20)
    EXPECT_DOUBLE_EQ(ts.average(0.0, 20.0), 3.0);
    EXPECT_DOUBLE_EQ(ts.average(0.0, 10.0), 2.0);
    EXPECT_DOUBLE_EQ(ts.average(5.0, 15.0), 3.0);
}

TEST(TimeSeries, ValueBeforeFirstPointIsZero)
{
    TimeSeries ts;
    ts.record(10.0, 6.0);
    EXPECT_DOUBLE_EQ(ts.average(0.0, 20.0), 3.0);
}

TEST(TimeSeries, LastValueExtendsToQueryEnd)
{
    TimeSeries ts;
    ts.record(0.0, 5.0);
    EXPECT_DOUBLE_EQ(ts.average(0.0, 100.0), 5.0);
}

TEST(TimeSeries, DuplicateValueCollapsed)
{
    TimeSeries ts;
    ts.record(0.0, 1.0);
    ts.record(5.0, 1.0);
    ts.record(10.0, 2.0);
    EXPECT_EQ(ts.size(), 2u);
}

TEST(TimeSeries, OutOfOrderRecordPanics)
{
    setLogLevel(LogLevel::Silent);
    TimeSeries ts;
    ts.record(10.0, 1.0);
    EXPECT_THROW(ts.record(5.0, 2.0), PanicError);
    setLogLevel(LogLevel::Warn);
}

TEST(TimeSeries, RebinAverages)
{
    TimeSeries ts;
    ts.record(0.0, 0.0);
    ts.record(10.0, 10.0);
    auto bins = ts.rebin(0.0, 20.0, 2);
    ASSERT_EQ(bins.size(), 2u);
    EXPECT_DOUBLE_EQ(bins[0], 0.0);
    EXPECT_DOUBLE_EQ(bins[1], 10.0);
}

TEST(TimeSeries, PeakTracksMax)
{
    TimeSeries ts;
    ts.record(0.0, 1.0);
    ts.record(1.0, 9.0);
    ts.record(2.0, 3.0);
    EXPECT_DOUBLE_EQ(ts.peak(), 9.0);
}

TEST(Utilization, FullBusyIsOne)
{
    UtilizationTracker u(4.0);
    u.setBusy(0.0, 4.0);
    u.setBusy(100.0, 0.0);
    EXPECT_DOUBLE_EQ(u.utilization(100.0), 1.0);
}

TEST(Utilization, HalfBusyIsHalf)
{
    UtilizationTracker u(4.0);
    u.setBusy(0.0, 2.0);
    u.setBusy(50.0, 2.0);
    EXPECT_DOUBLE_EQ(u.utilization(100.0), 0.5);
}

TEST(Utilization, WindowedQuery)
{
    UtilizationTracker u(2.0);
    u.setBusy(0.0, 0.0);
    u.setBusy(10.0, 2.0);
    u.setBusy(20.0, 0.0);
    EXPECT_DOUBLE_EQ(u.utilization(40.0), 0.25);
}

TEST(Utilization, WindowEndBeforeLastUpdatePanics)
{
    setLogLevel(LogLevel::Silent);
    UtilizationTracker u(1.0);
    u.setBusy(0.0, 1.0);
    u.setBusy(20.0, 0.0);
    EXPECT_THROW(u.utilization(10.0), PanicError);
    EXPECT_DOUBLE_EQ(u.utilization(20.0), 1.0);
    setLogLevel(LogLevel::Warn);
}

TEST(Utilization, BusyIntegralExtendsOpenInterval)
{
    UtilizationTracker u(1.0);
    u.setBusy(0.0, 1.0);
    EXPECT_DOUBLE_EQ(u.busyIntegral(10.0), 10.0);
}

TEST(Utilization, CapacityMustBePositive)
{
    setLogLevel(LogLevel::Silent);
    EXPECT_THROW(UtilizationTracker(-1.0), PanicError);
    EXPECT_THROW(UtilizationTracker(0.0), PanicError);
    setLogLevel(LogLevel::Warn);
}

TEST(Utilization, OutOfOrderUpdatePanics)
{
    setLogLevel(LogLevel::Silent);
    UtilizationTracker u(1.0);
    u.setBusy(10.0, 1.0);
    EXPECT_THROW(u.setBusy(5.0, 0.0), PanicError);
    setLogLevel(LogLevel::Warn);
}

} // anonymous namespace
} // namespace neu10
