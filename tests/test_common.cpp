/**
 * @file
 * Unit tests for src/common: logging, RNG determinism and statistics,
 * string/unit formatting, hardened env parsing, the host thread pool,
 * and the JSON writer.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/env.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/strings.hh"
#include "common/threadpool.hh"
#include "common/types.hh"

namespace neu10
{
namespace
{

TEST(Logging, PanicThrowsPanicError)
{
    setLogLevel(LogLevel::Silent);
    EXPECT_THROW(panic("boom %d", 42), PanicError);
    setLogLevel(LogLevel::Warn);
}

TEST(Logging, FatalThrowsFatalError)
{
    setLogLevel(LogLevel::Silent);
    EXPECT_THROW(fatal("user error %s", "bad config"), FatalError);
    setLogLevel(LogLevel::Warn);
}

TEST(Logging, PanicMessageFormatted)
{
    setLogLevel(LogLevel::Silent);
    try {
        panic("value=%d name=%s", 7, "me0");
        FAIL() << "expected PanicError";
    } catch (const PanicError &e) {
        EXPECT_STREQ(e.what(), "value=7 name=me0");
    }
    setLogLevel(LogLevel::Warn);
}

TEST(Logging, AssertMacroPassesAndFails)
{
    setLogLevel(LogLevel::Silent);
    EXPECT_NO_THROW(NEU10_ASSERT(1 + 1 == 2, "math works"));
    EXPECT_THROW(NEU10_ASSERT(false, "always fails"), PanicError);
    setLogLevel(LogLevel::Warn);
}

TEST(Logging, WarnInformDoNotThrow)
{
    setLogLevel(LogLevel::Silent);
    EXPECT_NO_THROW(warn("w"));
    EXPECT_NO_THROW(inform("i"));
    setLogLevel(LogLevel::Warn);
}

TEST(Rng, SameSeedSameStream)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformBoundsRespected)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        double u = rng.uniform(3.0, 5.0);
        EXPECT_GE(u, 3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, BelowCoversAllResidues)
{
    Rng rng(99);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.below(7));
    EXPECT_EQ(seen.size(), 7u);
    for (auto v : seen)
        EXPECT_LT(v, 7u);
}

TEST(Rng, BelowRejectsZeroBound)
{
    setLogLevel(LogLevel::Silent);
    Rng rng(1);
    EXPECT_THROW(rng.below(0), PanicError);
    setLogLevel(LogLevel::Warn);
}

TEST(Rng, ExponentialMeanConverges)
{
    Rng rng(42);
    double acc = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        acc += rng.exponential(3.0);
    EXPECT_NEAR(acc / n, 3.0, 0.05);
}

TEST(Rng, GaussianMomentsConverge)
{
    Rng rng(42);
    double sum = 0.0, sq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        double g = rng.gaussian(10.0, 2.0);
        sum += g;
        sq += g * g;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 10.0, 0.05);
    EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Strings, Csprintf)
{
    EXPECT_EQ(csprintf("%d-%s", 3, "x"), "3-x");
    EXPECT_EQ(csprintf("empty"), "empty");
}

TEST(Strings, FormatBytes)
{
    EXPECT_EQ(formatBytes(512), "512B");
    EXPECT_EQ(formatBytes(10590000), "10.59MB");
    EXPECT_EQ(formatBytes(1270000000), "1.27GB");
}

TEST(Strings, FormatBandwidth)
{
    EXPECT_EQ(formatBandwidth(1.2e12), "1.20 TB/s");
    EXPECT_EQ(formatBandwidth(347.59e9), "347.59 GB/s");
}

TEST(Strings, FormatSeconds)
{
    EXPECT_EQ(formatSeconds(2.5), "2.500s");
    EXPECT_EQ(formatSeconds(0.0035), "3.500ms");
    EXPECT_EQ(formatSeconds(42e-6), "42.0us");
}

TEST(Strings, Join)
{
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({}, ","), "");
    EXPECT_EQ(join({"only"}, ","), "only");
}

TEST(Types, ByteLiterals)
{
    EXPECT_EQ(1_KiB, 1024ull);
    EXPECT_EQ(2_MiB, 2ull << 20);
    EXPECT_EQ(64_GiB, 64ull << 30);
}

// ----------------------------------------------------- thread pool

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(hits.size(),
                     [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, SingleThreadRunsInline)
{
    ThreadPool pool(1);
    const std::thread::id caller = std::this_thread::get_id();
    bool all_inline = true;
    pool.parallelFor(64, [&](size_t) {
        if (std::this_thread::get_id() != caller)
            all_inline = false;
    });
    EXPECT_TRUE(all_inline);
}

TEST(ThreadPoolTest, ZeroTasksIsANoOp)
{
    ThreadPool pool(4);
    bool ran = false;
    pool.parallelFor(0, [&](size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, MoreTasksThanThreads)
{
    // Indices far beyond the worker count drain correctly and the
    // pool is reusable across calls.
    ThreadPool pool(3);
    for (int round = 0; round < 3; ++round) {
        std::atomic<std::uint64_t> sum{0};
        pool.parallelFor(257, [&](size_t i) { sum += i; });
        EXPECT_EQ(sum.load(), 257ull * 256ull / 2ull);
    }
}

TEST(ThreadPoolTest, PropagatesFirstException)
{
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    EXPECT_THROW(
        pool.parallelFor(100,
                         [&](size_t i) {
                             ++ran;
                             if (i == 37)
                                 throw FatalError("boom");
                         }),
        FatalError);
    // The remaining indices were still drained (nothing deadlocks
    // and the pool stays usable).
    EXPECT_EQ(ran.load(), 100);
    std::atomic<int> again{0};
    pool.parallelFor(10, [&](size_t) { ++again; });
    EXPECT_EQ(again.load(), 10);
}

TEST(ThreadPoolTest, DefaultThreadsIsPositive)
{
    EXPECT_GE(ThreadPool::defaultThreads(), 1u);
    ThreadPool pool(0); // 0 = hardware concurrency
    EXPECT_GE(pool.size(), 1u);
}

// ------------------------------------------------------------- env

TEST(Env, ParseUint64AcceptsDecimalAndHex)
{
    EXPECT_EQ(parseUint64("0", "X"), 0u);
    EXPECT_EQ(parseUint64("42", "X"), 42u);
    EXPECT_EQ(parseUint64("0x2a", "X"), 42u);
    EXPECT_EQ(parseUint64("0X2A", "X"), 42u);
    EXPECT_EQ(parseUint64("18446744073709551615", "X"),
              ~std::uint64_t{0});
    // Leading zeros are decimal, never octal: an operator writing
    // 010 means ten.
    EXPECT_EQ(parseUint64("010", "X"), 10u);
    EXPECT_EQ(parseUint64("0777", "X"), 777u);
}

TEST(Env, ParseUint64RejectsGarbage)
{
    setLogLevel(LogLevel::Silent);
    // A bad seed must fail loudly, never silently seed something
    // else (the old bench parser fell back to a default, and
    // accepted overflow/negatives as wrapped huge values).
    EXPECT_THROW(parseUint64("", "X"), FatalError);
    EXPECT_THROW(parseUint64("banana", "X"), FatalError);
    EXPECT_THROW(parseUint64("12abc", "X"), FatalError);
    EXPECT_THROW(parseUint64("-5", "X"), FatalError);
    EXPECT_THROW(parseUint64("+5", "X"), FatalError);
    EXPECT_THROW(parseUint64(" 5", "X"), FatalError);
    EXPECT_THROW(parseUint64("18446744073709551616", "X"),
                 FatalError); // 2^64 overflows
    EXPECT_THROW(parseUint64("0x10000000000000000", "X"),
                 FatalError);
    setLogLevel(LogLevel::Warn);
}

TEST(Env, ParseFlagGrammar)
{
    setLogLevel(LogLevel::Silent);
    for (const char *t : {"1", "true", "TRUE", "on", "yes"})
        EXPECT_TRUE(parseFlag(t, "X")) << t;
    for (const char *f : {"0", "false", "False", "off", "no"})
        EXPECT_FALSE(parseFlag(f, "X")) << f;
    EXPECT_THROW(parseFlag("2", "X"), FatalError);
    EXPECT_THROW(parseFlag("smoke", "X"), FatalError);
    setLogLevel(LogLevel::Warn);
}

TEST(Env, EnvWrappersUseFallbackWhenUnset)
{
    ::unsetenv("NEU10_TEST_ENV");
    EXPECT_EQ(envUint64("NEU10_TEST_ENV", 7), 7u);
    EXPECT_TRUE(envFlag("NEU10_TEST_ENV", true));
    ::setenv("NEU10_TEST_ENV", "", 1); // empty = unset
    EXPECT_EQ(envUint64("NEU10_TEST_ENV", 7), 7u);
    ::setenv("NEU10_TEST_ENV", "0x10", 1);
    EXPECT_EQ(envUint64("NEU10_TEST_ENV", 7), 16u);
    setLogLevel(LogLevel::Silent);
    ::setenv("NEU10_TEST_ENV", "nope", 1);
    EXPECT_THROW(envUint64("NEU10_TEST_ENV", 7), FatalError);
    EXPECT_THROW(envFlag("NEU10_TEST_ENV", false), FatalError);
    setLogLevel(LogLevel::Warn);
    ::unsetenv("NEU10_TEST_ENV");
}

// ------------------------------------------------------------ json

/** printf-rendered @p v, the reference the writer must match. */
std::string
printfDouble(const char *fmt, double v)
{
    char buf[512];
    const int n = std::snprintf(buf, sizeof(buf), fmt, v);
    return std::string(buf, static_cast<size_t>(n));
}

TEST(Json, FixedAndGeneralMatchPrintf)
{
    // The trace and metrics files were printf-rendered (%.6f, %.9g,
    // %.0f); the writer must reproduce those bytes on any value.
    // Half the corpus is timestamp- and rate-like magnitudes, half
    // raw finite bit patterns (subnormals, huge exponents).
    Rng rng(0x6a736f6e);
    for (int i = 0; i < 200000; ++i) {
        double v = 0.0;
        if (i % 2 == 0) {
            v = rng.uniform(0.0, 1.0) *
                std::pow(10.0, static_cast<double>(rng.below(25)) - 8.0);
            // Exact halves probe the round-half-even ties.
            if (i % 10 == 0)
                v = static_cast<double>(rng.below(2000)) * 0.5;
        } else {
            do {
                v = std::bit_cast<double>(rng.next());
            } while (!std::isfinite(v));
        }
        if (rng.below(2) == 0)
            v = -v;
        std::string fixed6, general9, fixed0;
        json::appendFixed(fixed6, v, 6);
        json::appendGeneral(general9, v, 9);
        json::appendFixed(fixed0, v, 0);
        ASSERT_EQ(fixed6, printfDouble("%.6f", v)) << i;
        ASSERT_EQ(general9, printfDouble("%.9g", v)) << i;
        ASSERT_EQ(fixed0, printfDouble("%.0f", v)) << i;
    }
}

TEST(Json, ShortestRoundTrips)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.exponential(1e6);
        std::string s;
        json::appendShortest(s, v);
        EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
    }
    std::string s;
    json::appendShortest(s, 0.1);
    EXPECT_EQ(s, "0.1");
}

TEST(Json, EscapesEveryControlByteQuoteAndBackslash)
{
    const char *const expected[0x20] = {
        "\\u0000", "\\u0001", "\\u0002", "\\u0003", "\\u0004",
        "\\u0005", "\\u0006", "\\u0007", "\\b",     "\\t",
        "\\n",     "\\u000b", "\\f",     "\\r",     "\\u000e",
        "\\u000f", "\\u0010", "\\u0011", "\\u0012", "\\u0013",
        "\\u0014", "\\u0015", "\\u0016", "\\u0017", "\\u0018",
        "\\u0019", "\\u001a", "\\u001b", "\\u001c", "\\u001d",
        "\\u001e", "\\u001f"};
    for (int b = 0; b < 0x20; ++b) {
        std::string out;
        json::appendString(out, std::string("a") + static_cast<char>(b) +
                                    "z");
        EXPECT_EQ(out, std::string("\"a") + expected[b] + "z\"") << b;
    }
    std::string out;
    json::appendString(out, "say \"hi\" \\ \x7f\xc3\xa9");
    EXPECT_EQ(out, "\"say \\\"hi\\\" \\\\ \x7f\xc3\xa9\"");
}

TEST(Json, IntegerEdgeValues)
{
    std::string out;
    json::Writer w(out, json::Layout::Compact);
    w.openList();
    w.num(nullptr, 0u);
    w.num(nullptr, -1);
    w.num(nullptr, std::numeric_limits<std::uint64_t>::max());
    w.num(nullptr, std::numeric_limits<std::int64_t>::min());
    w.num(nullptr, std::numeric_limits<std::int64_t>::max());
    w.num(nullptr, std::numeric_limits<std::uint32_t>::max());
    w.closeList();
    EXPECT_EQ(out, "[0,-1,18446744073709551615,-9223372036854775808,"
                   "9223372036854775807,4294967295]");
}

TEST(Json, WriterLayouts)
{
    const auto build = [](json::Layout layout) {
        std::string out;
        json::Writer w(out, layout);
        w.open();
        w.str("name", "x");
        w.fixed("wall", 0.5, 3);
        w.open("inner");
        w.boolean("ok", true);
        w.hex("id", 0xabcu);
        w.close();
        w.openList("points");
        w.openList();
        w.general(nullptr, 1.0 / 3.0, 9);
        w.num(nullptr, 2.5);
        w.closeList();
        w.closeList();
        w.close();
        return out;
    };
    EXPECT_EQ(build(json::Layout::Compact),
              "{\"name\":\"x\",\"wall\":0.500,\"inner\":{\"ok\":true,"
              "\"id\":\"0xabc\"},\"points\":[[0.333333333,2.5]]}");
    EXPECT_EQ(build(json::Layout::Pretty),
              "{\n"
              "  \"name\": \"x\",\n"
              "  \"wall\": 0.500,\n"
              "  \"inner\": {\n"
              "    \"ok\": true,\n"
              "    \"id\": \"0xabc\"\n"
              "  },\n"
              "  \"points\": [\n"
              "    [\n"
              "      0.333333333,\n"
              "      2.5\n"
              "    ]\n"
              "  ]\n"
              "}");
}

TEST(Json, EscapedRendersAsWriterStr)
{
    // A pre-escaped key or value must render exactly as the Writer
    // escapes the same text itself, in both layouts.
    const char *const texts[] = {"plain", "say \"hi\"", "back\\slash",
                                 "bell\x07tab\tnl\n", "\x1f\x01", ""};
    for (const json::Layout layout :
         {json::Layout::Compact, json::Layout::Pretty}) {
        json::EscapeCache esc;
        for (const char *key : texts) {
            for (const char *value : texts) {
                std::string direct, cached;
                json::Writer d(direct, layout);
                d.open();
                d.str(key, value);
                d.open(key);
                d.general(key, 0.5, 9);
                d.close();
                d.close();
                json::Writer c(cached, layout);
                c.open();
                c.str(esc(key), esc(value));
                c.open(esc(key));
                c.general(esc(key), 0.5, 9);
                c.close();
                c.close();
                EXPECT_EQ(cached, direct) << key << " / " << value;
            }
        }
        // A repeat lookup is served from the cache.
        EXPECT_EQ(esc(texts[1]).text().data(), esc(texts[1]).text().data());
    }
}

TEST(Json, InObjectContinuesARowPrefix)
{
    std::string out;
    json::Writer p(out, json::Layout::Compact);
    p.open();
    p.str("ph", "X");
    json::Writer w = json::Writer::inObject(out);
    w.num("pid", 3u);
    w.close();
    EXPECT_EQ(out, "{\"ph\":\"X\",\"pid\":3}");
}

TEST(Json, NonFiniteValuesPanic)
{
    setLogLevel(LogLevel::Silent);
    std::string out;
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(json::appendShortest(out, nan), PanicError);
    EXPECT_THROW(json::appendFixed(out, inf, 6), PanicError);
    EXPECT_THROW(json::appendGeneral(out, -inf, 9), PanicError);
    EXPECT_TRUE(out.empty());
    setLogLevel(LogLevel::Warn);
}

TEST(Json, WriteTextFileReportsFailure)
{
    const std::string path = ::testing::TempDir() + "neu10_json_test.txt";
    ASSERT_TRUE(json::writeTextFile(path, "{}\n"));
    std::ifstream in(path);
    std::stringstream body;
    body << in.rdbuf();
    EXPECT_EQ(body.str(), "{}\n");
    std::remove(path.c_str());
    EXPECT_FALSE(json::writeTextFile("/nonexistent/dir/x.json", "{}"));
    // The open succeeds but the write cannot reach the device.
    if (std::FILE *full = std::fopen("/dev/full", "w")) {
        std::fclose(full);
        EXPECT_FALSE(json::writeTextFile("/dev/full", "{}"));
    }
}

TEST(Json, TextFileWritesPiecesAndReportsFailure)
{
    const std::string path = ::testing::TempDir() + "neu10_json_pieces.txt";
    {
        json::TextFile f(path);
        ASSERT_TRUE(f.isOpen());
        EXPECT_TRUE(f.write("{\"a\":"));
        EXPECT_TRUE(f.write("1}\n"));
        EXPECT_TRUE(f.close());
    }
    std::ifstream in(path);
    std::stringstream body;
    body << in.rdbuf();
    EXPECT_EQ(body.str(), "{\"a\":1}\n");
    std::remove(path.c_str());

    json::TextFile missing("/nonexistent/dir/x.json");
    EXPECT_FALSE(missing.isOpen());
    EXPECT_FALSE(missing.write("{}"));
    EXPECT_FALSE(missing.close());
}

} // anonymous namespace
} // namespace neu10
