/**
 * @file
 * Shared helpers for the bench binaries: env/CLI parsing, loading
 * the committed scenario library, wall-clock timing and formatting.
 *
 * Every bench prints: a header naming the paper artifact it
 * regenerates, the fixed-width data table(s), and a short "shape"
 * summary line the EXPERIMENTS.md comparison quotes.
 */

#ifndef NEU10_BENCH_BENCH_UTIL_HH
#define NEU10_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/fleet.hh"
#include "common/env.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/strings.hh"
#include "scenario/scenario.hh"
#include "sim/clock.hh"

namespace neu10
{
namespace bench
{

/** Exit(2) on a user-level env/CLI error — bench binaries have no
 * one above them to catch FatalError usefully. fatal() already
 * printed the message at the default log level; repeat it only when
 * logging was silenced so the reason is never lost. */
[[noreturn]] inline void
usageError(const FatalError &err)
{
    if (logLevel() < LogLevel::Warn)
        std::fprintf(stderr, "error: %s\n", err.what());
    std::exit(2);
}

/** exit(2) naming @p path, which could not be opened, fully
 * written or closed. */
[[noreturn]] inline void
cannotWrite(const std::string &path)
{
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(2);
}

/** Write @p body to @p path; cannotWrite() on failure. */
inline void
writeOrExit(const std::string &path, std::string_view body)
{
    if (!json::writeTextFile(path, body))
        cannotWrite(path);
}

/** Export a traced fleet run: the Chrome trace to @p path, streamed,
 * and the epoch metrics to @p path.metrics.json
 * (docs/OBSERVABILITY.md). */
inline void
exportTrace(const FleetResult &r, const std::string &path,
            double freqHz)
{
    if (!r.trace.writeChromeJson(path))
        cannotWrite(path);
    writeOrExit(path + ".metrics.json", r.metrics.json(freqHz));
    std::printf("[trace: %llu events -> %s]\n",
                static_cast<unsigned long long>(r.trace.totalEvents()),
                path.c_str());
}

/** Parse positional argument @p text as a count named @p what
 * (common/env grammar, at most UINT_MAX); exit(2) on anything else
 * instead of letting strtoul wrap "-1" into a huge value. */
inline unsigned
countArg(const char *text, const char *what)
{
    try {
        const std::uint64_t v = parseUint64(text, what);
        if (v > std::numeric_limits<unsigned>::max())
            fatal("%s='%s' overflows a 32-bit count", what, text);
        return static_cast<unsigned>(v);
    } catch (const FatalError &err) {
        usageError(err);
    }
}

/** Load scenarios/<name>.scn from the committed library and apply
 * the NEU10_* harness overrides (applyEnvOverrides); exit(2) on a
 * malformed file or env value. */
inline Scenario
loadScenario(const std::string &name)
{
    try {
        Scenario s = loadScenarioFile(
            std::string(NEU10_SCENARIO_DIR) + "/" + name + ".scn");
        applyEnvOverrides(s);
        return s;
    } catch (const FatalError &err) {
        usageError(err);
    }
}

/**
 * True when NEU10_SMOKE is set truthy (common/env grammar): CI smoke
 * runs (the `smoke` CTest label) shrink the sweeps so every bench
 * binary finishes in a couple of seconds while still exercising the
 * full code path at least once. A malformed value exits with a clear
 * error instead of silently running the multi-minute full sweep.
 */
inline bool
smokeMode()
{
    try {
        return envFlag("NEU10_SMOKE", false);
    } catch (const FatalError &err) {
        usageError(err);
    }
}

/** In smoke mode keep only the first @p keep entries of a sweep. */
template <typename T>
inline std::vector<T>
smokeTrim(std::vector<T> v, std::size_t keep = 2)
{
    if (smokeMode() && v.size() > keep)
        v.resize(keep);
    return v;
}

/**
 * Rng seed for stochastic benches: NEU10_SEED=<n> overrides the
 * compiled-in default so bench and smoke runs are reproducible (or
 * deliberately varied) without recompiling. Parsed as base-10/0x...
 * by common/env; a non-numeric, signed, or overflowing value exits
 * with a clear error — a silently defaulted seed would record an
 * irreproducible experiment.
 */
inline std::uint64_t
benchSeed(std::uint64_t fallback = 42)
{
    try {
        return envUint64("NEU10_SEED", fallback);
    } catch (const FatalError &err) {
        usageError(err);
    }
}

/** Host wall-clock seconds spent running @p fn. */
template <typename Fn>
inline double
wallSeconds(Fn &&fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Print the bench banner. */
inline void
header(const std::string &artifact, const std::string &what)
{
    std::printf("================================================"
                "====================\n");
    std::printf("%s — %s\n", artifact.c_str(), what.c_str());
    std::printf("================================================"
                "====================\n");
}

/** Print a rule between table sections. */
inline void
rule()
{
    std::printf("----------------------------------------------------"
                "----------------\n");
}

/** Render a series of bin values as a compact sparkline row. */
inline std::string
sparkline(const std::vector<double> &bins, double max_value)
{
    static const char *marks[] = {" ", ".", ":", "-", "=", "+",
                                  "*", "#", "@"};
    std::string out;
    for (double b : bins) {
        const double frac = max_value > 0 ? b / max_value : 0.0;
        const int idx =
            std::min(8, static_cast<int>(frac * 8.0 + 0.5));
        out += marks[idx];
    }
    return out;
}

/** Cycles -> milliseconds on the Table II clock. */
inline double
toMs(double cycles)
{
    return Clock().toSeconds(cycles) * 1e3;
}

/** Cycles -> microseconds on the Table II clock. */
inline double
toUs(double cycles)
{
    return Clock().toSeconds(cycles) * 1e6;
}

} // namespace bench
} // namespace neu10

#endif // NEU10_BENCH_BENCH_UTIL_HH
