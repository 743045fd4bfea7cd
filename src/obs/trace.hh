/**
 * @file
 * Sim-time event tracing with Chrome trace-event export.
 *
 * The fleet's determinism contract (bit-identical results at any
 * FleetConfig::threads width and across engines) extends to traces:
 * every event carries *simulated* time, recording happens in the
 * deterministic event order of the owning per-core simulation, and
 * per-core buffers merge at epoch boundaries keyed by core index —
 * the same scheme EpochRunCollector uses for results. Two identical
 * configs therefore yield byte-identical trace files regardless of
 * host threading (enforced by tests/test_obs.cpp).
 *
 * Recording is lock-free in the hot path by construction, not by
 * atomics: a TraceBuffer has exactly one writer (the thread driving
 * its core's simulation), and ownership is handed to the aggregation
 * thread with the ServingResult it rides in. Disabled tracing costs
 * one branch on a cached pointer/flag at every instrumentation site —
 * bench_perf_engine's traced-off A/B against BENCH_PERF.json holds
 * the overhead under 2% (tools/bench_compare.py gates it).
 *
 * Export is the Chrome trace-event JSON array format understood by
 * chrome://tracing and https://ui.perfetto.dev: one process per
 * board (pid = board index), one thread per core (tid = fleet-wide
 * core index), plus a synthetic "controller" process for fleet-level
 * events (epochs, placement, rebalance, failover). Request lifecycle
 * spans use async nestable 'b'/'e' pairs — a core serves overlapping
 * requests, which duration ('X') events cannot represent — while
 * engine fast-forward jumps and epoch windows, which never overlap
 * on their track, are plain 'X' spans. tools/check_trace.py
 * validates schema, per-track monotonicity and span nesting.
 *
 * Event taxonomy and schema details: docs/OBSERVABILITY.md.
 */

#ifndef NEU10_OBS_TRACE_HH
#define NEU10_OBS_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hh"

namespace neu10
{

/** Tracing knobs, threaded through ServingConfig / FleetConfig. */
struct TraceConfig
{
    /** Master switch. Off (the default) must cost nothing beyond a
     * predictable branch at each instrumentation site. */
    bool enabled = false;

    /** Also record one span per engine fast-forward jump
     * (NpuCoreSim::advanceTo). High volume — one event per
     * scheduling event — so benches keep it off unless asked;
     * the invariance tests turn it on to pin down engine parity. */
    bool engineEvents = false;

    /** Sample fleet metrics (obs/metrics.hh) at epoch boundaries
     * into FleetResult::metrics. */
    bool metrics = false;
};

/** One typed event argument (numeric: counts, ids, cycles). */
struct TraceArg
{
    const char *key = "";
    double value = 0.0;
};

/** Maximum args per event (fixed so recording never allocates). */
inline constexpr int kTraceMaxArgs = 3;

/**
 * One recorded event. `name`/`cat` must be string literals (the
 * taxonomy in docs/OBSERVABILITY.md): events store the pointers and
 * outlive every recording scope.
 */
struct TraceEvent
{
    Cycles at = 0.0;        ///< start, cycles (buffer-relative)
    Cycles dur = 0.0;       ///< span length; 0 for instants
    std::uint64_t id = 0;   ///< async-span id ('b' phase only)
    char phase = 'i';       ///< 'X' span, 'i' instant, 'b' async span
    const char *name = "";
    const char *cat = "";
    int nargs = 0;
    TraceArg args[kTraceMaxArgs] = {};
};

/**
 * Per-core event recorder: single writer, no locks, append-only.
 * A disabled buffer drops everything; callers on hot paths should
 * still branch on enabled() (or a cached pointer) themselves so the
 * argument evaluation is skipped too.
 */
class TraceBuffer
{
  public:
    TraceBuffer() = default;
    explicit TraceBuffer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }
    void enable(bool on) { enabled_ = on; }

    // Every recorder takes up to kTraceMaxArgs trailing (key, value)
    // pairs after the name: instant(at, "request", "admit", "tenant",
    // 3, "depth", 2).

    /** Point event at @p at. */
    template <typename... KV>
    void
    instant(Cycles at, const char *cat, const char *name, KV... kv)
    {
        if (enabled_)
            record(at, 0.0, 'i', 0, cat, name, kv...);
    }

    /** Duration ('X') span [from, to). Spans of one (cat, name) on a
     * track must not partially overlap (Chrome requires nesting). */
    template <typename... KV>
    void
    span(Cycles from, Cycles to, const char *cat, const char *name,
         KV... kv)
    {
        if (enabled_)
            record(from, to - from, 'X', 0, cat, name, kv...);
    }

    /** Async nestable span [from, to) under @p id — the request-
     * lifecycle shape: spans of distinct ids may overlap freely. */
    template <typename... KV>
    void
    asyncSpan(std::uint64_t id, Cycles from, Cycles to, const char *cat,
              const char *name, KV... kv)
    {
        if (enabled_)
            record(from, to - from, 'b', id, cat, name, kv...);
    }

    const std::vector<TraceEvent> &events() const { return events_; }
    size_t size() const { return events_.size(); }
    bool empty() const { return events_.empty(); }
    void clear() { events_.clear(); }

  private:
    template <typename... KV>
    void
    record(Cycles at, Cycles dur, char phase, std::uint64_t id,
           const char *cat, const char *name, KV... kv)
    {
        static_assert(sizeof...(KV) % 2 == 0 &&
                          sizeof...(KV) / 2 <= kTraceMaxArgs,
                      "up to kTraceMaxArgs (key, value) pairs");
        TraceEvent &ev = events_.emplace_back();
        ev.at = at;
        ev.dur = dur;
        ev.id = id;
        ev.phase = phase;
        ev.cat = cat;
        ev.name = name;
        addArgs(ev, kv...);
    }

    static void addArgs(TraceEvent &) {}

    template <typename V, typename... KV>
    static void
    addArgs(TraceEvent &ev, const char *key, V value, KV... rest)
    {
        ev.args[ev.nargs++] = {key, static_cast<double>(value)};
        addArgs(ev, rest...);
    }

    bool enabled_ = false;
    std::vector<TraceEvent> events_;
};

/**
 * A merged fleet trace: per-track (core) event lists assembled in
 * deterministic order by the aggregation thread. Track index is the
 * fleet-wide core index; kControllerTrack holds fleet-level events.
 */
class Trace
{
  public:
    /** Synthetic track for fleet-controller events (epoch windows,
     * placement, rebalance, failover bookkeeping). */
    static constexpr int kControllerTrack = -1;

    /** Board/core shape for pid/tid assignment in the export:
     * pid = track / cores_per_board, tid = track. The controller
     * track exports as its own pseudo-process (pid = num_boards). */
    void setTopology(unsigned coresPerBoard, unsigned numBoards);

    /** Core clock for the cycles -> microseconds conversion. */
    void setFreqHz(double freqHz) { freqHz_ = freqHz; }

    /** Append one event directly (controller-side serial use). */
    void add(int track, const TraceEvent &ev);

    /**
     * Merge a per-core buffer: every event time is shifted by
     * @p offset (the epoch's absolute start) and every nonzero async
     * id by @p idSalt (disambiguates per-epoch id spaces; pass
     * (epoch + 1) << 56). Call in core-index order on the
     * aggregation thread — the append order is the tie-break for
     * same-timestamp events in the export.
     */
    void append(int track, const TraceBuffer &buf, Cycles offset,
                std::uint64_t idSalt);

    bool empty() const { return tracks_.empty(); }
    std::uint64_t totalEvents() const;

    /** Tracks in ascending order (controller first). */
    const std::map<int, std::vector<TraceEvent>> &tracks() const
    {
        return tracks_;
    }

    /** Export chunk size: rows render into one buffer of about this
     * many bytes, handed to the sink each time it fills. */
    static constexpr std::size_t kExportChunkBytes = std::size_t{1} << 20;

    /** Receives one export chunk; returns false to stop the export. */
    using ChunkSink = std::function<bool(std::string_view)>;

    /**
     * Render the trace as Chrome trace-event JSON, track by track,
     * handing @p sink each chunk of at least kExportChunkBytes (the
     * last may be shorter) that ends on a row boundary, so no chunk
     * exceeds kExportChunkBytes plus one row. The bytes are a pure
     * function of the recorded events — the stream the determinism
     * tests compare. @return false as soon as @p sink does.
     */
    bool exportChromeJson(const ChunkSink &sink) const;

    /** The whole export as one string (tests and pinned digests). */
    std::string chromeJson() const;

    /** Stream the export into @p path, opened before rendering
     * starts. @return false when the file cannot be opened, any
     * chunk cannot be written or the close fails. */
    bool writeChromeJson(const std::string &path) const;

  private:
    // Ordered map: export order (and thus the byte stream) must not
    // depend on insertion order or hashing.
    std::map<int, std::vector<TraceEvent>> tracks_;
    unsigned coresPerBoard_ = 0;
    unsigned numBoards_ = 0;
    double freqHz_ = 1e9;
};

} // namespace neu10

#endif // NEU10_OBS_TRACE_HH
