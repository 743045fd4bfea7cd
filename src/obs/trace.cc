#include "obs/trace.hh"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "common/json.hh"

namespace neu10
{

// ------------------------------------------------------------ Trace

void
Trace::setTopology(unsigned coresPerBoard, unsigned numBoards)
{
    coresPerBoard_ = coresPerBoard;
    numBoards_ = numBoards;
}

void
Trace::add(int track, const TraceEvent &ev)
{
    tracks_[track].push_back(ev);
}

void
Trace::append(int track, const TraceBuffer &buf, Cycles offset,
              std::uint64_t idSalt)
{
    if (buf.empty())
        return;
    std::vector<TraceEvent> &dst = tracks_[track];
    for (TraceEvent ev : buf.events()) {
        ev.at += offset;
        if (ev.id != 0)
            ev.id += idSalt;
        dst.push_back(ev);
    }
}

std::uint64_t
Trace::totalEvents() const
{
    std::uint64_t n = 0;
    for (const auto &[track, evs] : tracks_)
        n += evs.size();
    return n;
}

namespace
{

/** One export row: 'b' records expand into a begin and an end row. */
struct Row
{
    Cycles ts = 0.0;
    std::uint32_t ev = 0; ///< index into the track's events
    bool end = false;     ///< the 'e' half of a 'b' record
};

} // anonymous namespace

bool
Trace::exportChromeJson(const ChunkSink &sink) const
{
    // Cycles -> microseconds (the trace-event time unit), clamped at
    // zero: a standalone serving trace can hold carried-backlog
    // stamps from before its own t = 0 (fleet merges re-anchor them
    // to absolute time before export).
    const auto us = [&](Cycles at) {
        const double v = at / freqHz_ * 1e6;
        return v < 0.0 ? 0.0 : v;
    };
    const auto pid_of = [&](int track) -> unsigned {
        if (track < 0)
            return numBoards_;
        return coresPerBoard_ > 0
                   ? static_cast<unsigned>(track) / coresPerBoard_
                   : 0u;
    };
    const auto tid_of = [&](int track) -> unsigned {
        return track < 0 ? 0u : static_cast<unsigned>(track);
    };

    // Rows render into one chunk buffer, handed to the sink whenever
    // a row leaves it full: the export holds one chunk (plus room for
    // the row that fills it), not the file.
    std::string out;
    out.reserve(kExportChunkBytes + 4096);
    const auto flush_if_full = [&] {
        if (out.size() < kExportChunkBytes)
            return true;
        const bool ok = sink(out);
        out.clear();
        return ok;
    };
    out += "{\n\"displayTimeUnit\": \"ms\",\n\"otherData\": "
           "{\"clock_hz\": ";
    json::appendFixed(out, freqHz_, 0);
    out += "},\n\"traceEvents\": [\n";

    // One compact object per row, rows separated by ",\n".
    bool first = true;
    const auto separate = [&] {
        if (!first)
            out += ",\n";
        first = false;
    };
    const auto meta = [&](unsigned pid, unsigned tid, const char *what,
                          const char *label, int index) {
        std::string name = label;
        if (index >= 0)
            json::appendInt(name, index);
        separate();
        json::Writer w(out, json::Layout::Compact);
        w.open();
        w.str("ph", "M");
        w.num("pid", pid);
        w.num("tid", tid);
        w.str("name", what);
        w.open("args");
        w.str("name", name);
        w.close();
        w.close();
    };

    // Metadata: name every process (board) once and every thread
    // (core). Map order makes this deterministic.
    std::vector<unsigned> named_pids;
    for (const auto &[track, evs] : tracks_) {
        (void)evs;
        const unsigned pid = pid_of(track);
        const unsigned tid = tid_of(track);
        if (std::find(named_pids.begin(), named_pids.end(), pid) ==
            named_pids.end()) {
            named_pids.push_back(pid);
            meta(pid, tid, "process_name",
                 track < 0 ? "controller" : "board ",
                 track < 0 ? -1 : static_cast<int>(pid));
        }
        meta(pid, tid, "thread_name", track < 0 ? "fleet" : "core ",
             track < 0 ? -1 : static_cast<int>(tid));
        if (!flush_if_full())
            return false;
    }

    // Constant text is escaped once per export, not once per row:
    // the member keys here, each distinct cat/name/arg key on first
    // use, and each track's `{"ph":..,"pid":..,"tid":..` row prefix
    // once per phase.
    json::EscapeCache esc;
    const json::Escaped k_ts = esc("ts"), k_dur = esc("dur"),
                        k_s = esc("s"), v_t = esc("t"),
                        k_cat = esc("cat"), k_name = esc("name"),
                        k_id = esc("id"), k_args = esc("args");
    static constexpr const char *kPhases[] = {"X", "i", "b", "e"};
    std::string prefix[std::size(kPhases)];

    std::vector<Row> rows;
    for (const auto &[track, evs] : tracks_) {
        for (std::size_t p = 0; p < std::size(kPhases); ++p) {
            prefix[p].clear();
            json::Writer w(prefix[p], json::Layout::Compact);
            w.open();
            w.str("ph", kPhases[p]);
            w.num("pid", pid_of(track));
            w.num("tid", tid_of(track));
        }
        rows.clear();
        for (std::uint32_t i = 0; i < evs.size(); ++i) {
            rows.push_back({evs[i].at, i, false});
            if (evs[i].phase == 'b')
                rows.push_back({evs[i].at + evs[i].dur, i, true});
        }
        // Per-track monotonic timestamps; stable so same-time events
        // keep their deterministic recording order.
        std::stable_sort(rows.begin(), rows.end(),
                         [](const Row &a, const Row &b) {
                             return a.ts < b.ts;
                         });
        for (const Row &r : rows) {
            const TraceEvent &ev = evs[r.ev];
            const bool async = ev.phase == 'b';
            const std::size_t phase = ev.phase == 'X' ? 0
                                      : !async        ? 1
                                      : r.end         ? 3
                                                      : 2;
            separate();
            out += prefix[phase];
            json::Writer w = json::Writer::inObject(out);
            w.fixed(k_ts, us(r.ts), 6);
            if (ev.phase == 'X')
                w.fixed(k_dur, us(ev.at + ev.dur) - us(ev.at), 6);
            else if (!async)
                w.str(k_s, v_t);
            w.str(k_cat, esc(ev.cat));
            w.str(k_name, esc(ev.name));
            if (async)
                w.hex(k_id, ev.id);
            if (ev.nargs > 0 && !r.end) {
                w.open(k_args);
                for (int a = 0; a < ev.nargs; ++a) {
                    // JSON has no infinity/NaN literal; kCyclesInf
                    // sentinels (e.g. a board lost for good) export
                    // as -1.
                    const double v = ev.args[a].value;
                    w.general(esc(ev.args[a].key),
                              std::isfinite(v) ? v : -1.0, 9);
                }
                w.close();
            }
            w.close();
            if (!flush_if_full())
                return false;
        }
    }

    out += "\n]}\n";
    return sink(out);
}

std::string
Trace::chromeJson() const
{
    std::string whole;
    exportChromeJson([&](std::string_view chunk) {
        whole += chunk;
        return true;
    });
    return whole;
}

bool
Trace::writeChromeJson(const std::string &path) const
{
    json::TextFile file(path);
    if (!file.isOpen())
        return false;
    const bool streamed = exportChromeJson(
        [&](std::string_view chunk) { return file.write(chunk); });
    return file.close() && streamed;
}

} // namespace neu10
