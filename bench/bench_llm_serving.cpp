/**
 * @file
 * Token-level LLM serving: continuous batching vs the naive
 * static-batch baseline at equal HBM.
 *
 * Loads the committed scenario pair (scenarios/llm_continuous.scn
 * and scenarios/llm_static_batch.scn — identical fleet, traffic,
 * seed and KV budget; only the scheduler differs) and reports the
 * headline pair the ISSUE acceptance gates: the tokens/s speedup and
 * the p99 time-to-first-token ratio continuous batching buys. Each
 * scenario also runs on both simulation engines and the key results
 * are compared exactly — LLM serving must stay bit-identical across
 * engines like every other subsystem.
 *
 * Usage: bench_llm_serving [--json=FILE]
 *   --json=FILE  write the bench_llm_serving schema-1 record
 *                (default: no record). tools/bench_compare.py
 *                self-checks the record and gates the speedup; the
 *                committed BENCH_PERF.json carries the full-run
 *                numbers in its "llm_serving" block.
 * NEU10_SEED / NEU10_SMOKE apply via scenario applyEnvOverrides.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "cluster/fleet.hh"
#include "scenario/runner.hh"
#include "scenario/scenario.hh"
#include "stats/distribution.hh"

using namespace neu10;

namespace
{

/** Fleet-level LLM summary of one run. */
struct LlmSummary
{
    std::string name;
    std::string scheduler;
    std::uint64_t tokens = 0;
    std::uint64_t prefills = 0;
    std::uint64_t decodeIterations = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t completed = 0;
    std::uint32_t kvPages = 0;
    std::uint32_t kvHighWater = 0;
    Cycles makespan = 0.0;
    double tokensPerSec = 0.0;
    Cycles ttftP50 = 0.0;
    Cycles ttftP99 = 0.0;
    double wallSeconds = 0.0;
    bool bitIdentical = false;
};

LlmSummary
summarize(const Scenario &s, const FleetResult &r)
{
    LlmSummary out;
    out.name = s.name;
    out.scheduler = s.llm.scheduler == LlmScheduler::Continuous
                        ? "continuous"
                        : "static-batch";
    Distribution ttft;
    for (const TenantResult &t : r.tenants) {
        out.tokens += t.llm.tokensGenerated;
        out.prefills += t.llm.prefills;
        out.decodeIterations += t.llm.decodeIterations;
        out.preemptions += t.llm.preemptions;
        out.kvPages += t.llm.kvPages;
        out.kvHighWater += t.llm.kvPageHighWater;
        ttft.merge(t.llm.ttftCycles);
    }
    out.completed = r.completed;
    out.makespan = r.makespan;
    const double secs =
        Clock(s.board.core.freqHz).toSeconds(
            std::max(1.0, r.makespan));
    out.tokensPerSec = static_cast<double>(out.tokens) / secs;
    out.ttftP50 = ttft.percentile(0.50);
    out.ttftP99 = ttft.percentile(0.99);
    return out;
}

/** Exact equality of everything the LLM serving path computes —
 * engines that drift in any counter or sample fail the record. */
bool
sameResults(const FleetResult &a, const FleetResult &b)
{
    if (a.submitted != b.submitted || a.completed != b.completed ||
        a.rejected != b.rejected || a.makespan != b.makespan ||
        a.latencyCycles.count() != b.latencyCycles.count() ||
        a.latencyCycles.sum() != b.latencyCycles.sum())
        return false;
    if (a.tenants.size() != b.tenants.size())
        return false;
    for (size_t i = 0; i < a.tenants.size(); ++i) {
        const LlmEndpointStats &x = a.tenants[i].llm;
        const LlmEndpointStats &y = b.tenants[i].llm;
        if (x.tokensGenerated != y.tokensGenerated ||
            x.prefills != y.prefills ||
            x.decodeIterations != y.decodeIterations ||
            x.preemptions != y.preemptions ||
            x.kvPageHighWater != y.kvPageHighWater ||
            x.kvAllocOps != y.kvAllocOps ||
            x.kvFreeOps != y.kvFreeOps ||
            x.kvFailedAllocs != y.kvFailedAllocs ||
            x.kvOccupancyMean != y.kvOccupancyMean ||
            x.ttftCycles.count() != y.ttftCycles.count() ||
            x.ttftCycles.sum() != y.ttftCycles.sum())
            return false;
    }
    return true;
}

LlmSummary
runScenarioBothEngines(const char *path)
{
    Scenario s = loadScenarioFile(path);
    applyEnvOverrides(s);
    FleetConfig cfg = toFleetConfig(s);

    FleetResult fast;
    const double wall =
        bench::wallSeconds([&] { fast = runFleet(cfg); });
    cfg.engine = SimEngine::PerCycle;
    const FleetResult ref = runFleet(cfg);

    LlmSummary out = summarize(s, fast);
    out.wallSeconds = wall;
    out.bitIdentical = sameResults(fast, ref);
    return out;
}

void
printRow(const LlmSummary &s)
{
    std::printf("%-16s %-13s %8llu %8.0f %9.3f %9.3f %6llu %6u "
                "%10.3f %5s\n",
                s.name.c_str(), s.scheduler.c_str(),
                static_cast<unsigned long long>(s.tokens),
                s.tokensPerSec, bench::toMs(s.ttftP50),
                bench::toMs(s.ttftP99),
                static_cast<unsigned long long>(s.preemptions),
                s.kvHighWater, bench::toMs(s.makespan),
                s.bitIdentical ? "yes" : "NO");
}

void
writeJson(const std::string &path, const std::vector<LlmSummary> &rows,
          double tokens_speedup, double ttft_ratio,
          double min_speedup, std::uint64_t seed, bool smoke)
{
    bool identical = true;
    for (const LlmSummary &s : rows)
        identical = identical && s.bitIdentical;
    std::string out;
    json::Writer j(out);
    j.open();
    j.str("bench", "bench_llm_serving");
    j.num("schema_version", 1);
    j.num("seed", seed);
    j.boolean("smoke", smoke);
    j.fixed("min_tokens_speedup_required", min_speedup, 2);
    j.fixed("tokens_speedup", tokens_speedup, 3);
    j.fixed("ttft_p99_ratio", ttft_ratio, 3);
    j.boolean("bit_identical_engines", identical);
    j.openList("scenarios");
    for (const LlmSummary &s : rows) {
        j.open();
        j.str("name", s.name);
        j.str("scheduler", s.scheduler);
        j.num("tokens", s.tokens);
        j.fixed("tokens_per_sec", s.tokensPerSec, 3);
        j.fixed("ttft_p50_ms", bench::toMs(s.ttftP50), 3);
        j.fixed("ttft_p99_ms", bench::toMs(s.ttftP99), 3);
        j.num("prefills", s.prefills);
        j.num("decode_iterations", s.decodeIterations);
        j.num("preemptions", s.preemptions);
        j.num("completed", s.completed);
        j.num("kv_pages", s.kvPages);
        j.num("kv_page_high_water", s.kvHighWater);
        j.fixed("makespan_ms", bench::toMs(s.makespan), 3);
        j.fixed("wall_seconds", s.wallSeconds, 6);
        j.boolean("bit_identical", s.bitIdentical);
        j.close();
    }
    j.closeList();
    j.close();
    out += '\n';
    bench::writeOrExit(path, out);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    for (int a = 1; a < argc; ++a) {
        if (std::strncmp(argv[a], "--json=", 7) == 0) {
            json_path = argv[a] + 7;
        } else {
            std::fprintf(stderr,
                         "usage: bench_llm_serving [--json=FILE]\n");
            return 2;
        }
    }

    const bool smoke = bench::smokeMode();
    const std::uint64_t seed = bench::benchSeed();

    bench::header(
        "LLM continuous batching",
        csprintf("paged KV pool, 4 LLaMA2-13B endpoints, continuous "
                 "vs static-batch at equal HBM (seed %llu%s)",
                 static_cast<unsigned long long>(seed),
                 smoke ? ", smoke" : ""));

    std::vector<LlmSummary> rows;
    try {
        rows.push_back(runScenarioBothEngines(
            NEU10_SCENARIO_DIR "/llm_continuous.scn"));
        rows.push_back(runScenarioBothEngines(
            NEU10_SCENARIO_DIR "/llm_static_batch.scn"));
    } catch (const FatalError &err) {
        bench::usageError(err);
    }

    std::printf("%-16s %-13s %8s %8s %9s %9s %6s %6s %10s %5s\n",
                "scenario", "scheduler", "tokens", "tok/s",
                "ttft-p50", "ttft-p99", "evict", "hiwat",
                "makespan", "same");
    bench::rule();
    for (const LlmSummary &s : rows)
        printRow(s);
    bench::rule();

    const LlmSummary &cont = rows[0];
    const LlmSummary &stat = rows[1];
    const double tokens_speedup =
        stat.tokensPerSec > 0.0 ? cont.tokensPerSec / stat.tokensPerSec
                                : 0.0;
    const double ttft_ratio =
        stat.ttftP99 > 0.0 ? cont.ttftP99 / stat.ttftP99 : 0.0;
    // The acceptance gate: continuous batching must both raise
    // tokens/s and cut the p99 TTFT at equal HBM. 1.05x leaves smoke
    // runs headroom; the full run clears it by much more.
    const double min_speedup = 1.05;

    std::printf("continuous vs static-batch: %.2fx tokens/s, "
                "%.2fx p99 TTFT, engines %s\n",
                tokens_speedup, ttft_ratio,
                cont.bitIdentical && stat.bitIdentical
                    ? "bit-identical"
                    : "DIVERGED");

    if (!json_path.empty()) {
        writeJson(json_path, rows, tokens_speedup,
                  ttft_ratio, min_speedup, seed, smoke);
        std::printf("wrote %s\n", json_path.c_str());
    }

    const bool ok = cont.bitIdentical && stat.bitIdentical &&
                    tokens_speedup >= min_speedup &&
                    ttft_ratio <= 1.0;
    return ok ? 0 : 1;
}
