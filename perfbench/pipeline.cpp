/**
 * @file
 * perfbench_pipeline — one iteration of the neu10 public pipeline,
 * timed from outside, plus optional per-layer probes.
 *
 * Usage:
 *   perfbench_pipeline run    SCENARIO.scn OUTDIR
 *   perfbench_pipeline traced SCENARIO.scn OUTDIR [--probes]
 *
 * Both modes run loadScenarioFile -> toFleetConfig -> runFleet ->
 * obs export (when the scenario traces) -> outcomeJson, write
 * OUTDIR/result.json (plus OUTDIR/trace.json and
 * OUTDIR/trace.json.metrics.json when tracing), and print one JSON
 * line of CLOCK_MONOTONIC stage stamps (ns, the same clock as
 * Python's time.monotonic_ns, so the caller can time from its spawn)
 * and process counters. `run` takes the stamps only.
 *
 * `traced` also keeps named spans (name, start, end, parent) in
 * memory and writes them to OUTDIR/spans.json at exit. With
 * --probes it then re-runs each lower layer's public entry point on
 * the workload's own inputs (sizing, placement, traffic, compiled
 * programs, the run's result) and reports their timings under
 * "probes". Probes never feed back into the pipeline's result.
 *
 * Exit status: 0 on success, 2 on any error (diagnostic on stderr).
 */

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <exception>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "cluster/fleet.hh"
#include "cluster/placement.hh"
#include "cluster/traffic.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "llm/kv_pool.hh"
#include "llm/llm_serving.hh"
#include "npu/bandwidth.hh"
#include "runtime/serving.hh"
#include "scenario/runner.hh"
#include "scenario/scenario.hh"
#include "sim/event_queue.hh"
#include "stats/distribution.hh"
#include "vnpu/allocator.hh"

using namespace neu10;

namespace
{

std::int64_t
nowNs()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 +
           ts.tv_nsec;
}

/** CPU seconds of the whole process (every thread) so far. */
double
processCpu()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/** Minimal JSON object writer: keys in insertion order, doubles with
 * 17 significant digits. */
class JsonObject
{
  public:
    JsonObject &
    num(const char *key, double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        return raw(key, buf);
    }

    JsonObject &
    integer(const char *key, std::int64_t v)
    {
        return raw(key, std::to_string(v));
    }

    JsonObject &
    raw(const char *key, const std::string &rendered)
    {
        text_ += text_.empty() ? "{" : ",";
        text_ += "\"";
        text_ += key;
        text_ += "\":";
        text_ += rendered;
        return *this;
    }

    std::string
    str() const
    {
        return text_.empty() ? "{}" : text_ + "}";
    }

  private:
    std::string text_;
};

/** Benchmark-side spans: kept in memory, written once at exit. */
class SpanLog
{
  public:
    int
    open(const std::string &name)
    {
        spans_.push_back({name, nowNs(), 0, current_});
        current_ = static_cast<int>(spans_.size()) - 1;
        return current_;
    }

    void
    close(int id)
    {
        spans_[id].end = nowNs();
        current_ = spans_[id].parent;
    }

    std::string
    json() const
    {
        std::string out = "{\"schema\":\"neu10-perfbench-spans-v1\","
                          "\"clock\":\"CLOCK_MONOTONIC ns\",\"spans\":[";
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out += i ? ",\n" : "\n";
            out += JsonObject()
                       .integer("id", static_cast<std::int64_t>(i))
                       .raw("name", "\"" + s.name + "\"")
                       .integer("start", s.start)
                       .integer("end", s.end)
                       .integer("parent", s.parent)
                       .str();
        }
        return out + "\n]}\n";
    }

  private:
    struct Span
    {
        std::string name;
        std::int64_t start;
        std::int64_t end;
        int parent;
    };

    std::vector<Span> spans_;
    int current_ = -1;
};

/** Opens a span on construction and closes it on destruction; a
 * no-op without a log (the untraced mode). */
class SpanScope
{
  public:
    SpanScope(SpanLog *log, const std::string &name)
        : log_(log), id_(log ? log->open(name) : -1)
    {}
    ~SpanScope()
    {
        if (log_)
            log_->close(id_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanLog *log_;
    int id_;
};

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        throw FatalError("cannot write " + path + ": " +
                         std::strerror(errno));
    const bool ok =
        std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    if (std::fclose(f) != 0 || !ok)
        throw FatalError("short write to " + path);
}

std::int64_t
fileBytes(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return 0;
    std::fseek(f, 0, SEEK_END);
    const long n = std::ftell(f);
    std::fclose(f);
    return n;
}

/** Stage stamps of one pipeline pass (CLOCK_MONOTONIC ns). Stages
 * that do not run (obs export without tracing) have zero length. */
struct Stamps
{
    std::int64_t parse0 = 0, parse1 = 0, expand1 = 0;
    std::int64_t fleet0 = 0, fleet1 = 0;
    std::int64_t trace1 = 0, metrics1 = 0, json1 = 0;
};

struct Pipeline
{
    Scenario scenario;
    FleetConfig config;
    ScenarioOutcome outcome;
    Stamps t;
    double fleetCpu = 0.0;
    std::int64_t traceBytes = 0;
    std::int64_t metricsBytes = 0;
    std::int64_t resultBytes = 0;
};

void
runPipeline(Pipeline &p, const std::string &scn,
            const std::string &outdir, SpanLog *spans)
{
    SpanScope root(spans, "bench.pipeline");
    p.t.parse0 = nowNs();
    {
        SpanScope s(spans, "scenario.parse");
        p.scenario = loadScenarioFile(scn);
    }
    p.t.parse1 = nowNs();
    if (p.scenario.mode != ScenarioMode::OpenLoop)
        throw FatalError(scn + ": the benchmark runs open-loop "
                               "fleet scenarios only");
    {
        SpanScope s(spans, "scenario.expand");
        p.config = toFleetConfig(p.scenario);
    }
    p.t.expand1 = nowNs();

    p.outcome.mode = p.scenario.mode;
    p.outcome.tenants = p.scenario.totalTenants();
    p.outcome.horizon = p.config.horizon;
    p.t.fleet0 = nowNs();
    const double cpu0 = processCpu();
    {
        SpanScope s(spans, "cluster.fleet.run");
        p.outcome.fleet = runFleet(p.config);
    }
    p.fleetCpu = processCpu() - cpu0;
    p.t.fleet1 = nowNs();

    const FleetResult &r = p.outcome.fleet;
    const std::string trace_path = outdir + "/trace.json";
    if (p.scenario.trace.enabled) {
        SpanScope s(spans, "obs.trace_export");
        if (!r.trace.writeChromeJson(trace_path))
            throw FatalError("cannot write " + trace_path);
    }
    p.t.trace1 = nowNs();
    if (p.scenario.trace.enabled && p.scenario.trace.metrics) {
        SpanScope s(spans, "obs.metrics_export");
        if (!r.metrics.writeJson(trace_path + ".metrics.json",
                                 p.config.board.core.freqHz))
            throw FatalError("cannot write " + trace_path +
                             ".metrics.json");
    }
    p.t.metrics1 = nowNs();
    {
        SpanScope s(spans, "scenario.export");
        writeFile(outdir + "/result.json",
                  outcomeJson(p.scenario, p.outcome));
    }
    p.t.json1 = nowNs();
    if (p.scenario.trace.enabled) {
        p.traceBytes = fileBytes(trace_path);
        p.metricsBytes = fileBytes(trace_path + ".metrics.json");
    }
    p.resultBytes = fileBytes(outdir + "/result.json");
}

/**
 * Median seconds per call of @p fn: call it until @p min_seconds
 * have passed and at least three times. @p setup, when given, runs
 * untimed before every call.
 */
double
medianSeconds(const std::function<void()> &fn, double min_seconds,
              const std::function<void()> &setup = {})
{
    std::vector<double> reps;
    const std::int64_t start = nowNs();
    while (reps.size() < 3 || (nowNs() - start) * 1e-9 < min_seconds) {
        if (setup)
            setup();
        const std::int64_t t0 = nowNs();
        fn();
        reps.push_back((nowNs() - t0) * 1e-9);
    }
    std::sort(reps.begin(), reps.end());
    return reps[reps.size() / 2];
}

/** Per-layer probes: each lower layer's public entry point re-run on
 * the workload's own inputs. Returns the "probes" JSON object. The
 * "checksum" and "fired" fields consume the timed calls' results so
 * the compiler cannot discard the work. */
class Probes
{
  public:
    Probes(const Pipeline &p, SpanLog &spans)
        : p_(p), cfg_(p.config), core_(p.config.board.core),
          spans_(spans),
          llm_(p.config.servingMode == ServingMode::LlmContinuous)
    {}

    std::string
    run()
    {
        SpanScope root(&spans_, "bench.probes");
        sizeTenants();
        JsonObject out;
        if (!llm_)
            out.raw("compile", compile());
        out.raw("placement", placement());
        out.raw("traffic", traffic());
        out.raw("stats", stats());
        if (llm_) {
            out.raw("llm_endpoint", llmEndpoint());
            out.raw("kv_pool", kvPool());
        } else {
            out.raw("core_replay", coreReplay());
            out.raw("event_queue", eventQueue());
            out.raw("maxmin", maxMin());
        }
        out.raw("engine_replay", engineReplay());
        return out.str();
    }

  private:
    /** Per-tenant sizing and placement requests, as runFleet builds
     * them (sizing is expansion work, not timed here). */
    void
    sizeTenants()
    {
        std::map<std::tuple<int, unsigned, unsigned>, VnpuSizing> memo;
        for (const ClusterTenantSpec &t : cfg_.tenants) {
            const auto key = std::make_tuple(static_cast<int>(t.model),
                                             t.batch, t.eus);
            auto it = memo.find(key);
            if (it == memo.end())
                it = memo.emplace(key, sizeVnpuForModel(t.model, t.batch,
                                                        t.eus, core_))
                         .first;
            const VnpuSizing &s = it->second;
            PlacementRequest req;
            req.nMes = s.config.numMesPerCore;
            req.nVes = s.config.numVesPerCore;
            req.hbmBytes = s.config.memSizePerCore;
            req.sramBytes = s.config.sramSizePerCore;
            req.load = t.traffic.ratePerSec *
                       (s.profile.meBusy + s.profile.veBusy) /
                       core_.freqHz;
            requests_.push_back(req);
        }
    }

    /** Σ compileFor over the distinct tenant models. */
    std::string
    compile()
    {
        SpanScope s(&spans_, "compiler.compile");
        std::map<std::pair<int, unsigned>, size_t> index;
        for (const ClusterTenantSpec &t : cfg_.tenants)
            index.emplace(std::make_pair(static_cast<int>(t.model), t.batch),
                          0);
        std::vector<TenantSpec> models;
        for (auto &[key, idx] : index) {
            idx = models.size();
            TenantSpec ts;
            ts.model = static_cast<ModelId>(key.first);
            ts.batch = key.second;
            models.push_back(ts);
        }
        // The replays below run these programs, as runFleet does.
        for (const TenantSpec &ts : models)
            programs_.push_back(compileFor(ts, cfg_.corePolicy, core_));
        for (const ClusterTenantSpec &t : cfg_.tenants)
            programOf_.push_back(&programs_[index.at(
                std::make_pair(static_cast<int>(t.model), t.batch))]);
        const double secs = medianSeconds(
            [&] {
                for (const TenantSpec &ts : models)
                    compileFor(ts, cfg_.corePolicy, core_);
            },
            0.2);
        return JsonObject()
            .integer("models", static_cast<std::int64_t>(models.size()))
            .num("s", secs)
            .str();
    }

    std::string
    placement()
    {
        SpanScope s(&spans_, "cluster.placement");
        const unsigned cores = cfg_.totalCores();
        const size_t n = requests_.size();
        FleetPlacer placed(cores, core_);
        const double place_s = medianSeconds(
            [&] {
                for (size_t i = 0; i < n; ++i)
                    where_[i] = placed.place(requests_[i], cfg_.placement);
            },
            0.2,
            [&] {
                placed = FleetPlacer(cores, core_);
                where_.assign(n, kInvalidCore);
            });
        residents_.assign(cores, {});
        std::vector<double> pressure(cores, 0.0);
        for (size_t i = 0; i < n; ++i) {
            if (where_[i] == kInvalidCore)
                continue;
            residents_[where_[i]].push_back(i);
            pressure[where_[i]] += requests_[i].load;
        }
        RebalanceOptions opts;
        opts.imbalanceThreshold = cfg_.elastic.imbalanceThreshold;
        opts.maxMigrations = cfg_.elastic.maxMigrationsPerEpoch;
        // rebalance() applies its moves to the placer: give every
        // call a fresh copy of the initial placement.
        constexpr unsigned kCalls = 64;
        std::vector<FleetPlacer> copies;
        const double rebalance_s = medianSeconds(
            [&] {
                for (FleetPlacer &pl : copies)
                    pl.rebalance(pressure, where_, requests_, opts);
            },
            0.2, [&] { copies.assign(kCalls, placed); });
        return JsonObject()
            .integer("place_calls", static_cast<std::int64_t>(n))
            .num("place_s", place_s)
            .integer("rebalance_calls", kCalls)
            .num("rebalance_s", rebalance_s)
            .str();
    }

    std::string
    traffic()
    {
        SpanScope s(&spans_, "cluster.traffic");
        const size_t n = cfg_.tenants.size();
        std::int64_t total = 0;
        const double secs = medianSeconds(
            [&] {
                arrivals_.assign(n, {});
                total = 0;
                for (size_t i = 0; i < n; ++i) {
                    arrivals_[i] = generateArrivals(
                        cfg_.tenants[i].traffic, cfg_.horizon,
                        core_.freqHz);
                    total += static_cast<std::int64_t>(
                        arrivals_[i].size());
                }
            },
            0.2);
        return JsonObject().integer("arrivals", total).num("s", secs).str();
    }

    /** Distribution merge + p50/p95/p99 over the run's samples. */
    std::string
    stats()
    {
        SpanScope s(&spans_, "stats.percentile");
        const FleetResult &r = p_.outcome.fleet;
        std::int64_t samples = 0;
        double sink = 0.0;
        const double secs = medianSeconds(
            [&] {
                Distribution d;
                for (const TenantResult &t : r.tenants)
                    d.merge(t.latencyCycles);
                sink += d.percentile(0.50) + d.percentile(0.95) +
                        d.percentile(0.99);
                samples = static_cast<std::int64_t>(d.count());
            },
            0.2);
        return JsonObject()
            .integer("samples", samples)
            .num("s", secs)
            .num("checksum", sink)
            .str();
    }

    /** A core-level serving config for tenants @p ids, with arrivals
     * in [0, @p until), as runFleet hands one core to runServing. */
    ServingConfig
    coreConfig(const std::vector<size_t> &ids, Cycles until) const
    {
        ServingConfig sc;
        sc.core = core_;
        sc.policy = cfg_.corePolicy;
        sc.mode = cfg_.servingMode;
        sc.llm = cfg_.llm;
        sc.engine = cfg_.engine;
        sc.maxCycles = cfg_.maxCycles;
        for (size_t i : ids) {
            const ClusterTenantSpec &spec = cfg_.tenants[i];
            TenantSpec ts;
            ts.model = spec.model;
            ts.batch = spec.batch;
            ts.nMes = requests_[i].nMes;
            ts.nVes = requests_[i].nVes;
            ts.priority = spec.priority;
            ts.maxQueueDepth = spec.maxQueueDepth;
            ts.sloCycles = spec.sloCycles;
            ts.program = llm_ ? nullptr : programOf_[i];
            ts.hbmBytes = requests_[i].hbmBytes;
            ts.llmSeed = spec.traffic.seed ^ 0x6c6c6d5f6e657531ull;
            for (Cycles a : arrivals_[i])
                if (a < until)
                    ts.arrivals.push_back(a);
            sc.tenants.push_back(std::move(ts));
        }
        return sc;
    }

    /** Occupied core with the most arrivals before @p until. */
    CoreId
    busiestCore(Cycles until) const
    {
        CoreId best = kInvalidCore;
        size_t most = 0;
        for (CoreId c = 0; c < residents_.size(); ++c) {
            size_t n = 0;
            for (size_t i : residents_[c])
                n += std::lower_bound(arrivals_[i].begin(),
                                      arrivals_[i].end(), until) -
                     arrivals_[i].begin();
            if (!residents_[c].empty() &&
                (best == kInvalidCore || n > most)) {
                best = c;
                most = n;
            }
        }
        if (best == kInvalidCore)
            throw FatalError("no tenant was placed");
        return best;
    }

    /** runServing on the busiest core's tenants for one epoch. */
    std::string
    coreReplay()
    {
        SpanScope s(&spans_, "runtime.serving.core_replay");
        const Cycles window = cfg_.horizon / cfg_.elastic.epochs;
        const CoreId c = busiestCore(window);
        ServingConfig sc = coreConfig(residents_[c], window);
        if (cfg_.elastic.epochs > 1)
            sc.stopAtCycles = window;
        std::int64_t completed = 0;
        double sim_cycles = 0.0;
        const double secs = medianSeconds(
            [&] {
                const ServingResult r = runServing(sc);
                completed = 0;
                for (const TenantResult &t : r.tenants)
                    completed += static_cast<std::int64_t>(t.completed);
                sim_cycles = r.makespan;
            },
            0.3);
        busiestResidents_ = residents_[c].size();
        return JsonObject()
            .integer("core", c)
            .integer("tenants",
                     static_cast<std::int64_t>(residents_[c].size()))
            .integer("completed", completed)
            .num("sim_cycles", sim_cycles)
            .num("s", secs)
            .str();
    }

    /**
     * EventQueue schedule/step/deschedule churn at the busiest core's
     * pending depth, estimated as three events per resident tenant
     * (its next arrival and a completion for each of the two requests
     * the serving loop keeps in the core) plus a scheduler event.
     */
    std::string
    eventQueue()
    {
        SpanScope s(&spans_, "sim.event_queue");
        const size_t depth = 3 * std::max<size_t>(1, busiestResidents_) + 1;
        constexpr std::int64_t kSteps = 200000;
        std::uint64_t fired = 0;
        const double secs = medianSeconds(
            [&] {
                Rng rng(0x6576656e74ull);
                EventQueue q;
                auto cb = [&fired](Cycles) { ++fired; };
                for (size_t i = 0; i < depth; ++i)
                    q.schedule(rng.uniform(0.0, 1e6), cb,
                               EventPriority::Completion);
                for (std::int64_t k = 0; k < kSteps; ++k) {
                    q.step();
                    q.schedule(q.now() + rng.uniform(1.0, 1e6), cb,
                               EventPriority::Completion);
                    if (k % 4 == 0)
                        q.deschedule(q.schedule(
                            q.now() + rng.uniform(1.0, 1e6), cb,
                            EventPriority::Schedule));
                }
            },
            0.2);
        return JsonObject()
            .integer("depth", static_cast<std::int64_t>(depth))
            .integer("events", kSteps)
            .num("s", secs)
            .integer("fired", static_cast<std::int64_t>(fired))
            .str();
    }

    /** maxMinAllocate over seeded demand vectors of n = 1..8. */
    std::string
    maxMin()
    {
        SpanScope s(&spans_, "npu.bandwidth.maxmin");
        Rng rng(0x6d61786d696eull);
        std::vector<std::vector<double>> demands;
        std::vector<double> capacity;
        for (unsigned n = 1; n <= 8; ++n) {
            for (unsigned k = 0; k < 64; ++k) {
                std::vector<double> d(n);
                double sum = 0.0;
                for (double &x : d) {
                    x = rng.uniform(0.0, 1.0);
                    sum += x;
                }
                demands.push_back(std::move(d));
                capacity.push_back(sum * rng.uniform(0.3, 1.2));
            }
        }
        double sink = 0.0;
        const double secs = medianSeconds(
            [&] {
                for (size_t k = 0; k < demands.size(); ++k)
                    sink += maxMinAllocate(demands[k], capacity[k])[0];
            },
            0.2);
        return JsonObject()
            .integer("calls", static_cast<std::int64_t>(demands.size()))
            .num("s", secs)
            .num("checksum", sink)
            .str();
    }

    /** runLlmServing for the busiest endpoint over the horizon. */
    std::string
    llmEndpoint()
    {
        SpanScope s(&spans_, "llm.endpoint_replay");
        const CoreId c = busiestCore(cfg_.horizon);
        busiestTenant_ = residents_[c].front();
        const ServingConfig sc =
            coreConfig({busiestTenant_}, kCyclesInf);
        std::int64_t tokens = 0;
        const double secs = medianSeconds(
            [&] {
                const ServingResult r = llm::runLlmServing(sc);
                tokens = static_cast<std::int64_t>(
                    r.tenants.front().llm.tokensGenerated);
            },
            0.3);
        return JsonObject()
            .integer("tenant", static_cast<std::int64_t>(busiestTenant_))
            .integer("tokens", tokens)
            .num("s", secs)
            .str();
    }

    /**
     * KvPool ensureTokens/release churn at the busiest endpoint's page
     * count: up to max-batch sequences of the workload's prompt and
     * output lengths grow one token per step, release at completion,
     * and the youngest is released when a grow is refused.
     */
    std::string
    kvPool()
    {
        SpanScope s(&spans_, "llm.kv_pool");
        const std::uint32_t pages =
            p_.outcome.fleet.tenants[busiestTenant_].llm.kvPages;
        const LlmParams &lp = cfg_.llm;
        const unsigned batch = lp.maxBatch > 0
                                   ? lp.maxBatch
                                   : cfg_.tenants[busiestTenant_].batch;
        const auto draw = [](Rng &rng, unsigned lo, unsigned hi) {
            return hi > lo ? lo + rng.below(hi - lo + 1) : lo;
        };
        constexpr std::int64_t kOps = 400000;
        const double secs = medianSeconds(
            [&] {
                Rng rng(0x6b76706f6f6cull);
                llm::KvPool pool(pages, lp.pageTokens);
                struct Seq
                {
                    llm::SeqId id;
                    std::uint64_t tokens, target;
                };
                std::vector<Seq> live;
                llm::SeqId next = 0;
                std::int64_t ops = 0;
                size_t cursor = 0;
                while (ops < kOps) {
                    if (live.size() < batch) {
                        const std::uint64_t prompt = draw(
                            rng, lp.promptTokens,
                            std::max(lp.promptTokens, lp.promptTokensMax));
                        const std::uint64_t out = draw(
                            rng, lp.outputTokens,
                            std::max(lp.outputTokens, lp.outputTokensMax));
                        live.push_back({next++, prompt, prompt + out});
                        pool.ensureTokens(live.back().id, prompt);
                        ++ops;
                        if (pool.lastGrowFailed()) {
                            pool.release(live.back().id);
                            live.pop_back();
                            ++ops;
                            cursor = 0;
                        }
                        continue;
                    }
                    Seq &q = live[cursor % live.size()];
                    pool.ensureTokens(q.id, ++q.tokens);
                    ++ops;
                    if (pool.lastGrowFailed() || q.tokens >= q.target) {
                        // Refused grow: preempt the youngest sequence;
                        // otherwise the sequence completed.
                        const size_t victim = pool.lastGrowFailed()
                                                  ? live.size() - 1
                                                  : cursor % live.size();
                        pool.release(live[victim].id);
                        live.erase(live.begin() +
                                   static_cast<std::ptrdiff_t>(victim));
                        ++ops;
                    }
                    ++cursor;
                }
                for (const Seq &q : live)
                    pool.release(q.id);
                pool.audit();
            },
            0.2);
        return JsonObject()
            .integer("pages", pages)
            .integer("ops", kOps)
            .num("s", secs)
            .str();
    }

    /**
     * Σ per-core serving CPU when every occupied core of the initial
     * placement replays its tenants' whole arrival streams as one
     * unsliced run: the engine's share of runFleet's CPU.
     */
    std::string
    engineReplay()
    {
        SpanScope s(&spans_, "bench.engine_replay");
        double cpu = 0.0;
        std::int64_t cores = 0;
        for (CoreId c = 0; c < residents_.size(); ++c) {
            if (residents_[c].empty())
                continue;
            const ServingConfig sc = coreConfig(residents_[c], kCyclesInf);
            const double t0 = processCpu();
            runServing(sc);
            cpu += processCpu() - t0;
            ++cores;
        }
        return JsonObject()
            .integer("cores", cores)
            .num("cpu_s", cpu)
            .str();
    }

    const Pipeline &p_;
    const FleetConfig &cfg_;
    const NpuCoreConfig &core_;
    SpanLog &spans_;
    const bool llm_;

    std::vector<PlacementRequest> requests_;
    std::vector<CompiledModel> programs_;
    std::vector<const CompiledModel *> programOf_;
    std::vector<CoreId> where_;
    std::vector<std::vector<size_t>> residents_;
    std::vector<std::vector<Cycles>> arrivals_;
    size_t busiestResidents_ = 0;
    size_t busiestTenant_ = 0;
};

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_pipeline run|traced SCENARIO.scn "
                 "OUTDIR [--probes]\n");
}

int
run(int argc, char **argv)
{
    if (argc < 4 || argc > 5) {
        usage();
        return 2;
    }
    const std::string mode = argv[1];
    const bool traced = mode == "traced";
    const bool probes = argc == 5 && std::strcmp(argv[4], "--probes") == 0;
    if ((mode != "run" && !traced) || (argc == 5 && !(probes && traced))) {
        usage();
        return 2;
    }
    const std::string scn = argv[2];
    const std::string outdir = argv[3];

    SpanLog spans;
    Pipeline p;
    runPipeline(p, scn, outdir, traced ? &spans : nullptr);

    std::string probe_json;
    if (probes)
        probe_json = Probes(p, spans).run();
    if (traced)
        writeFile(outdir + "/spans.json", spans.json());

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double cpu =
        static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
        (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
    const unsigned threads =
        p.config.threads > 0
            ? p.config.threads
            : std::max(1u, std::thread::hardware_concurrency());

    const Stamps &t = p.t;
    JsonObject stamps;
    stamps.integer("parse0", t.parse0)
        .integer("parse1", t.parse1)
        .integer("expand1", t.expand1)
        .integer("fleet0", t.fleet0)
        .integer("fleet1", t.fleet1)
        .integer("trace1", t.trace1)
        .integer("metrics1", t.metrics1)
        .integer("json1", t.json1);
    JsonObject line;
    line.raw("mode", "\"" + mode + "\"")
        .raw("t", stamps.str())
        .num("fleet_cpu_s", p.fleetCpu)
        .num("cpu_s", cpu)
        .integer("maxrss_kb", ru.ru_maxrss)
        .integer("threads", threads)
        .num("freq_hz", p.config.board.core.freqHz)
        .integer("trace_events",
                 static_cast<std::int64_t>(
                     p.outcome.fleet.trace.totalEvents()))
        .integer("trace_bytes", p.traceBytes)
        .integer("metrics_bytes", p.metricsBytes)
        .integer("result_bytes", p.resultBytes);
    if (probes)
        line.raw("probes", probe_json);
    std::printf("%s\n", line.str().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &err) {
        std::fprintf(stderr, "perfbench_pipeline: %s\n", err.what());
        return 2;
    }
}
