#include "obs/trace.hh"

#include <algorithm>
#include <cmath>

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

std::string
Trace::chromeJson() const
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

    // Reserve well past the longest row (~140 bytes; a 'b' record is
    // two) so a large trace is written once instead of doubling into
    // a fresh buffer: reserved pages that are never written are not
    // resident, while the final doubling copy would briefly hold two
    // buffers of the trace's size.
    std::string out;
    out.reserve(256 * (totalEvents() + 2 * tracks_.size() + 1));
    out += "{\n\"displayTimeUnit\": \"ms\",\n\"otherData\": "
           "{\"clock_hz\": ";
    json::appendFixed(out, freqHz_, 0);
    out += "},\n\"traceEvents\": [\n";

    // One compact object per row, rows separated by ",\n".
    bool first = true;
    const auto row = [&](const char *phase, unsigned pid,
                         unsigned tid) {
        if (!first)
            out += ",\n";
        first = false;
        json::Writer w(out, json::Layout::Compact);
        w.open();
        w.str("ph", phase);
        w.num("pid", pid);
        w.num("tid", tid);
        return w;
    };
    const auto meta = [&](unsigned pid, unsigned tid, const char *what,
                          const char *label, int index) {
        std::string name = label;
        if (index >= 0)
            json::appendInt(name, index);
        json::Writer w = row("M", pid, tid);
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
    }

    std::vector<Row> rows;
    for (const auto &[track, evs] : tracks_) {
        const unsigned pid = pid_of(track);
        const unsigned tid = tid_of(track);
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
            const char *ph = ev.phase == 'X' ? "X"
                             : !async        ? "i"
                             : r.end         ? "e"
                                             : "b";
            json::Writer w = row(ph, pid, tid);
            w.fixed("ts", us(r.ts), 6);
            if (ev.phase == 'X')
                w.fixed("dur", us(ev.at + ev.dur) - us(ev.at), 6);
            else if (!async)
                w.str("s", "t");
            w.str("cat", ev.cat);
            w.str("name", ev.name);
            if (async)
                w.hex("id", ev.id);
            if (ev.nargs > 0 && !r.end) {
                w.open("args");
                for (int a = 0; a < ev.nargs; ++a) {
                    // JSON has no infinity/NaN literal; kCyclesInf
                    // sentinels (e.g. a board lost for good) export
                    // as -1.
                    const double v = ev.args[a].value;
                    w.general(ev.args[a].key,
                              std::isfinite(v) ? v : -1.0, 9);
                }
                w.close();
            }
            w.close();
        }
    }

    out += "\n]}\n";
    return out;
}

bool
Trace::writeChromeJson(const std::string &path) const
{
    return json::writeTextFile(path, chromeJson());
}

} // namespace neu10
