#include "scenario/scenario.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <span>
#include <sstream>
#include <utility>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/strings.hh"

namespace neu10
{

std::string
scenarioModeName(ScenarioMode mode)
{
    switch (mode) {
      case ScenarioMode::OpenLoop: return "open-loop";
      case ScenarioMode::ClosedLoop: return "closed-loop";
    }
    panic("unknown scenario mode %d", static_cast<int>(mode));
}

unsigned
Scenario::totalTenants() const
{
    unsigned n = 0;
    for (const ScenarioTenantGroup &g : groups)
        n += g.count;
    return n;
}

namespace
{

/** One `key = value` line, with its source line for diagnostics. */
struct Entry
{
    std::string key;
    std::string value;
    unsigned line = 0;
};

/** One `[name]` block in file order. */
struct Section
{
    std::string name;
    unsigned line = 0;
    std::vector<Entry> entries;
};

[[noreturn]] void
failAt(const std::string &file, unsigned line, const std::string &msg)
{
    fatal("%s:%u: %s", file.c_str(), line, msg.c_str());
}

/** Run a vocabulary parser (policyFromName, ...) and re-raise its
 * diagnostic with the file:line prefix every scenario error carries. */
template <typename Fn>
auto
withContext(const std::string &file, unsigned line, Fn &&fn)
    -> decltype(fn())
{
    try {
        return fn();
    } catch (const FatalError &e) {
        failAt(file, line, e.what());
    }
}

std::string
trim(const std::string &s)
{
    size_t b = 0;
    size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

/** Strict finite-double parse (rejects junk, signs by caller range
 * checks, inf/nan). The env.cc uint64 parser's hardening, for reals. */
double
parseDouble(const std::string &text, const std::string &what)
{
    if (text.empty())
        fatal("%s is empty; want a number", what.c_str());
    const unsigned char first = static_cast<unsigned char>(text[0]);
    if (std::isspace(first) || text[0] == '+')
        fatal("%s='%s' must be a bare number; no sign prefix or "
              "whitespace", what.c_str(), text.c_str());
    errno = 0;
    char *end = nullptr;
    const double parsed = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0')
        fatal("%s='%s' is not a number", what.c_str(), text.c_str());
    if (!std::isfinite(parsed))
        fatal("%s='%s' must be a finite number", what.c_str(),
              text.c_str());
    return parsed;
}


/** Shared per-scenario interpretation state: the file name every
 * diagnostic carries plus typed value-parsing helpers. */
class Interp
{
  public:
    explicit Interp(std::string file) : file_(std::move(file)) {}

    const std::string &file() const { return file_; }

    [[noreturn]] void
    fail(unsigned line, const std::string &msg) const
    {
        failAt(file_, line, msg);
    }

    std::uint64_t
    u64(const Entry &e) const
    {
        return withContext(file_, e.line, [&] {
            return parseUint64(e.value, e.key.c_str());
        });
    }

    unsigned
    u32(const Entry &e) const
    {
        const std::uint64_t v = u64(e);
        if (v > std::numeric_limits<std::uint32_t>::max())
            fail(e.line, csprintf("%s=%s overflows a 32-bit count",
                                  e.key.c_str(), e.value.c_str()));
        return static_cast<unsigned>(v);
    }

    unsigned
    positive(const Entry &e) const
    {
        const unsigned v = u32(e);
        if (v == 0)
            fail(e.line, csprintf("%s must be >= 1", e.key.c_str()));
        return v;
    }

    bool
    flag(const Entry &e) const
    {
        return withContext(file_, e.line, [&] {
            return parseFlag(e.value, e.key.c_str());
        });
    }

    double
    real(const Entry &e) const
    {
        return withContext(file_, e.line, [&] {
            return parseDouble(e.value, e.key);
        });
    }

    double
    positiveReal(const Entry &e) const
    {
        const double v = real(e);
        if (v <= 0.0)
            fail(e.line, csprintf("%s=%s must be > 0", e.key.c_str(),
                                  e.value.c_str()));
        return v;
    }

    /** Non-negative cycle count; "inf" = kCyclesInf. */
    Cycles
    cycles(const Entry &e) const
    {
        if (toLower(e.value) == "inf")
            return kCyclesInf;
        const double v = real(e);
        if (v < 0.0)
            fail(e.line, csprintf("%s=%s must be >= 0 cycles (or "
                                  "'inf')", e.key.c_str(),
                                  e.value.c_str()));
        return v;
    }

  private:
    std::string file_;
};


/** `fault = <kind> at=<cycles>|at-frac=<0..1> [board=N] [core=N]
 *  [duration=<cycles>|inf]` */
ScenarioFault
parseFaultLine(const Interp &in, const Entry &e)
{
    std::istringstream toks(e.value);
    std::string kind_name;
    toks >> kind_name;
    ScenarioFault f;
    f.line = e.line;
    f.kind = withContext(in.file(), e.line, [&] {
        return faultKindFromName(kind_name);
    });

    bool has_at = false;
    bool has_at_frac = false;
    bool has_core = false;
    bool has_duration = false;
    std::string tok;
    while (toks >> tok) {
        const size_t eq = tok.find('=');
        if (eq == std::string::npos || eq == 0 ||
            eq + 1 >= tok.size())
            in.fail(e.line,
                    csprintf("malformed fault attribute '%s'; want "
                             "'at=', 'at-frac=', 'board=', 'core=' "
                             "or 'duration='", tok.c_str()));
        const std::string key = tok.substr(0, eq);
        const std::string value = tok.substr(eq + 1);
        const Entry attr{ "fault " + key, value, e.line };
        if (key == "at") {
            f.at = in.cycles(attr);
            has_at = true;
        } else if (key == "at-frac") {
            f.atFrac = in.real(attr);
            if (f.atFrac < 0.0 || f.atFrac > 1.0)
                in.fail(e.line,
                        csprintf("fault at-frac=%s must be within "
                                 "[0, 1] of the horizon",
                                 value.c_str()));
            has_at_frac = true;
        } else if (key == "board") {
            f.board = in.u32(attr);
            f.hasBoard = true;
        } else if (key == "core") {
            f.core = in.u32(attr);
            has_core = true;
        } else if (key == "duration") {
            f.durationCycles = in.cycles(attr);
            has_duration = true;
        } else {
            in.fail(e.line,
                    csprintf("unknown fault attribute '%s='; valid "
                             "attributes: at, at-frac, board, core, "
                             "duration", key.c_str()));
        }
    }

    if (has_at == has_at_frac)
        in.fail(e.line, "fault needs exactly one of 'at=<cycles>' "
                        "and 'at-frac=<0..1>'");
    const bool board_scoped = f.kind == FaultKind::BoardLoss ||
                              f.kind == FaultKind::Repair;
    if (board_scoped) {
        if (!f.hasBoard || has_core)
            in.fail(e.line,
                    csprintf("%s faults are board-scoped; give "
                             "'board=' and no 'core='",
                             faultKindName(f.kind).c_str()));
    } else {
        if (!has_core || f.hasBoard)
            in.fail(e.line,
                    csprintf("%s faults are core-scoped; give "
                             "'core=' and no 'board='",
                             faultKindName(f.kind).c_str()));
    }
    if (f.kind == FaultKind::Repair && has_duration)
        in.fail(e.line, "repair faults take no 'duration='");
    return f;
}

/** Engines per core (`mes`, `ves`) above this are rejected at parse
 * time: the largest committed core has 8 of each, and the core
 * simulator's per-event work grows with the engine count, so a typo
 * like 100000 would turn a smoke run into an apparent hang. */
constexpr unsigned kMaxEngines = 256;

/** A setter's view of one `key = value` line: the Interp parsers
 * applied to it, and the scenario it writes. */
struct Field
{
    const Interp &in;
    const Entry &e;
    Scenario &s;

    std::uint64_t u64() const { return in.u64(e); }
    unsigned u32() const { return in.u32(e); }
    unsigned positive() const { return in.positive(e); }
    bool flag() const { return in.flag(e); }
    double real() const { return in.real(e); }
    double positiveReal() const { return in.positiveReal(e); }
    Cycles cycles() const { return in.cycles(e); }

    [[noreturn]] void fail(const std::string &m) const { in.fail(e.line, m); }

    /** An engine count: 1 to kMaxEngines. */
    unsigned
    engines() const
    {
        const unsigned v = positive();
        if (v > kMaxEngines)
            fail(csprintf("%s=%u exceeds %u engines per core",
                          e.key.c_str(), v, kMaxEngines));
        return v;
    }

    /** A memory size of at least one @p segment-byte segment (the
     * vNPU allocator carves memory in whole segments). */
    std::uint64_t
    segments(std::uint64_t segment, const char *what) const
    {
        const std::uint64_t v = u64();
        if (v < segment)
            fail(csprintf("%s=%llu is below one %llu-byte %s segment",
                          e.key.c_str(),
                          static_cast<unsigned long long>(v),
                          static_cast<unsigned long long>(segment),
                          what));
        return v;
    }

    /** The group of the key's [tenant.<name>] section. */
    ScenarioTenantGroup &g() const { return s.groups.back(); }

    /** Run a vocabulary parser (placementFromName, ...). */
    template <typename Fn>
    auto
    named(Fn &&fromName) const
    {
        return withContext(in.file(), e.line,
                           [&] { return fromName(e.value); });
    }

    /** A value that is one of two words, e.g. `mode`. */
    template <typename T>
    T
    oneOf(const char *plural, const char *a, T va, const char *b,
          T vb) const
    {
        const std::string low = toLower(e.value);
        if (low == a)
            return va;
        if (low == b)
            return vb;
        fail(csprintf("unknown %s '%s'; valid %s are '%s' and '%s'",
                      e.key.c_str(), e.value.c_str(), plural, a, b));
    }

    /** A real in @p interval: "(0, 1)", "[0, 1]" or "[0, 1)". */
    double
    fraction(const std::string &interval) const
    {
        const double v = real();
        if ((interval.front() == '(' ? v <= 0.0 : v < 0.0) ||
            (interval.back() == ')' ? v >= 1.0 : v > 1.0))
            fail(csprintf("%s=%s must be within %s", e.key.c_str(),
                          e.value.c_str(), interval.c_str()));
        return v;
    }
};

/** Larger fleets and tenant totals are rejected at parse time: far
 * above any committed workload (at most 256 cores, 384 tenants) and
 * far below what wraps the `unsigned` totals. */
constexpr unsigned long long kMaxCores = 65536, kMaxTenants = 65536;

void
finishFleet(const Interp &in, const Section &sec, Scenario &s)
{
    if (s.horizon != 0.0 && std::isinf(s.horizon))
        in.fail(sec.line, "horizon must be finite");
    if (std::isinf(s.smokeHorizon))
        in.fail(sec.line, "smoke-horizon must be finite");
    // Each factor is below 2^32: no 64-bit product here can wrap.
    const unsigned long long chips = 1ULL * s.boards * s.board.numChips;
    if (chips > kMaxCores || chips * s.board.coresPerChip > kMaxCores)
        in.fail(sec.line, csprintf("boards x chips-per-board x "
                                   "cores-per-chip exceeds %llu cores",
                                   kMaxCores));
}

void
finishLlm(const Interp &in, const Section &sec, Scenario &s)
{
    s.hasLlm = true;
    s.llmLine = sec.line;
    if (s.llm.promptTokensMax != 0 &&
        s.llm.promptTokensMax < s.llm.promptTokens)
        in.fail(sec.line,
                csprintf("prompt-tokens-max=%u is below "
                         "prompt-tokens=%u", s.llm.promptTokensMax,
                         s.llm.promptTokens));
    if (s.llm.outputTokensMax != 0 &&
        s.llm.outputTokensMax < s.llm.outputTokens)
        in.fail(sec.line,
                csprintf("output-tokens-max=%u is below "
                         "output-tokens=%u", s.llm.outputTokensMax,
                         s.llm.outputTokens));
}

void
finishTenant(const Interp &in, const Section &sec, Scenario &s)
{
    const ScenarioTenantGroup &g = s.groups.back();
    if (g.batch > maxBatch(g.model))
        in.fail(sec.line,
                csprintf("[%s]: batch %u exceeds %s's maximum "
                         "supported batch %u", sec.name.c_str(),
                         g.batch, modelName(g.model).c_str(),
                         maxBatch(g.model)));
    if (g.sloFactor > 0.0 && g.hasSloCycles)
        in.fail(sec.line,
                csprintf("[%s] sets both slo-factor and slo-cycles; "
                         "give at most one", sec.name.c_str()));
    if (g.rho > 0.0 && g.ratePerSec > 0.0)
        in.fail(sec.line,
                csprintf("[%s] sets both rho and rate-per-sec; give "
                         "exactly one", sec.name.c_str()));
}

/** The modes a section or key is valid in. A key's scope narrows its
 * section's. */
enum class Scope { Both, OpenLoop, ClosedLoop };
using enum Scope;

/** How often a key may appear in its section; a repeatable key is a
 * list, e.g. a fault trace. */
enum class Occurs { Optional, Required, Repeatable };
using enum Occurs;

/** One key of the grammar. The setter parses, range-checks and
 * stores the value. */
struct KeySpec
{
    const char *key;
    Scope scope;
    void (*set)(const Field &f);
    Occurs occurs = Optional;
};

// Each section's keys, in the order its "valid keys" list gives. A
// new key is one row here.

constexpr KeySpec kScenarioKeys[] = {
    {"name", Both, [](auto &f) { f.s.name = f.e.value; }},
    {"description", Both, [](auto &f) { f.s.description = f.e.value; }},
};

constexpr KeySpec kFleetKeys[] = {
    {"mode", Both,
     [](auto &f) {
         f.s.mode = f.oneOf("modes", "open-loop", ScenarioMode::OpenLoop,
                            "closed-loop", ScenarioMode::ClosedLoop);
     }},
    {"boards", OpenLoop, [](auto &f) { f.s.boards = f.positive(); }},
    {"chips-per-board", OpenLoop,
     [](auto &f) { f.s.board.numChips = f.positive(); }},
    {"cores-per-chip", OpenLoop,
     [](auto &f) { f.s.board.coresPerChip = f.positive(); }},
    {"mes", Both, [](auto &f) { f.s.board.core.numMes = f.engines(); }},
    {"ves", Both, [](auto &f) { f.s.board.core.numVes = f.engines(); }},
    {"freq-hz", Both,
     [](auto &f) { f.s.board.core.freqHz = f.positiveReal(); }},
    {"sram-bytes", Both,
     [](auto &f) {
         f.s.board.core.sramBytes =
             f.segments(f.s.board.core.sramSegment, "SRAM");
     }},
    {"hbm-bytes", Both,
     [](auto &f) {
         f.s.board.core.hbmBytes =
             f.segments(f.s.board.core.hbmSegment, "HBM");
     }},
    {"hbm-bytes-per-sec", Both,
     [](auto &f) { f.s.board.core.hbmBytesPerSec = f.positiveReal(); }},
    {"placement", OpenLoop,
     [](auto &f) { f.s.placement = f.named(placementFromName); }},
    {"core-policy", Both,
     [](auto &f) { f.s.corePolicy = f.named(policyFromName); }},
    {"engine", Both, [](auto &f) { f.s.engine = f.named(engineFromName); }},
    {"threads", OpenLoop, [](auto &f) { f.s.threads = f.u32(); }},
    {"horizon", OpenLoop, [](auto &f) { f.s.horizon = f.cycles(); }},
    {"smoke-horizon", OpenLoop,
     [](auto &f) { f.s.smokeHorizon = f.cycles(); }},
    {"max-cycles", Both, [](auto &f) { f.s.maxCycles = f.cycles(); }},
    {"max-cycles-factor", OpenLoop,
     [](auto &f) { f.s.maxCyclesFactor = f.positiveReal(); }},
    {"seed", OpenLoop, [](auto &f) { f.s.seed = f.u64(); }},
    {"tenant-order", Both,
     [](auto &f) {
         f.s.roundRobin =
             f.oneOf("orders", "round-robin", true, "grouped", false);
     }},
    {"min-requests", ClosedLoop,
     [](auto &f) { f.s.minRequests = f.positive(); }},
    {"smoke-min-requests", ClosedLoop,
     [](auto &f) { f.s.smokeMinRequests = f.positive(); }},
};

constexpr KeySpec kElasticKeys[] = {
    {"epochs", Both, [](auto &f) { f.s.elastic.epochs = f.positive(); }},
    {"imbalance-threshold", Both,
     [](auto &f) {
         f.s.elastic.imbalanceThreshold = f.real();
         if (f.s.elastic.imbalanceThreshold < 0.0)
             f.fail("imbalance-threshold must be >= 0");
     }},
    {"max-migrations-per-epoch", Both,
     [](auto &f) { f.s.elastic.maxMigrationsPerEpoch = f.u32(); }},
    {"migration-cost", Both,
     [](auto &f) { f.s.elastic.migrationCostCycles = f.cycles(); }},
    {"resize-on-migrate", Both,
     [](auto &f) { f.s.elastic.resizeOnMigrate = f.flag(); }},
    {"grow-factor", Both,
     [](auto &f) {
         f.s.elastic.growFactor = f.real();
         if (f.s.elastic.growFactor < 1.0)
             f.fail(csprintf("grow-factor=%s must be >= 1.0 (1.0 = "
                             "never grow)", f.e.value.c_str()));
     }},
};

constexpr KeySpec kResilienceKeys[] = {
    {"failover", Both, [](auto &f) { f.s.failover = f.flag(); }},
    {"recovery-stall", Both,
     [](auto &f) { f.s.recoveryStallCycles = f.cycles(); }},
};

constexpr KeySpec kFaultsKeys[] = {
    {"fault", Both,
     [](auto &f) { f.s.faults.push_back(parseFaultLine(f.in, f.e)); },
     Repeatable},
};

constexpr KeySpec kLlmKeys[] = {
    {"scheduler", Both,
     [](auto &f) {
         f.s.llm.scheduler = f.oneOf(
             "schedulers", "continuous", LlmScheduler::Continuous,
             "static-batch", LlmScheduler::StaticBatch);
     }},
    {"page-tokens", Both, [](auto &f) { f.s.llm.pageTokens = f.positive(); }},
    {"max-batch", Both, [](auto &f) { f.s.llm.maxBatch = f.positive(); }},
    {"prompt-tokens", Both,
     [](auto &f) { f.s.llm.promptTokens = f.positive(); }},
    {"prompt-tokens-max", Both,
     [](auto &f) { f.s.llm.promptTokensMax = f.positive(); }},
    {"output-tokens", Both,
     [](auto &f) { f.s.llm.outputTokens = f.positive(); }},
    {"output-tokens-max", Both,
     [](auto &f) { f.s.llm.outputTokensMax = f.positive(); }},
};

constexpr KeySpec kTraceKeys[] = {
    {"enabled", Both, [](auto &f) { f.s.trace.enabled = f.flag(); }},
    {"engine-events", Both,
     [](auto &f) { f.s.trace.engineEvents = f.flag(); }},
    {"metrics", Both, [](auto &f) { f.s.trace.metrics = f.flag(); }},
    {"out", Both, [](auto &f) { f.s.traceOut = f.e.value; }},
};

constexpr KeySpec kTenantKeys[] = {
    {"model", Both,
     [](auto &f) { f.g().model = f.named(modelFromAbbrev); },
     Required},
    {"batch", Both, [](auto &f) { f.g().batch = f.positive(); }},
    {"count", Both, [](auto &f) { f.g().count = f.positive(); }},
    {"eus", OpenLoop, [](auto &f) { f.g().eus = f.positive(); }},
    {"mes", ClosedLoop, [](auto &f) { f.g().nMes = f.engines(); }},
    {"ves", ClosedLoop, [](auto &f) { f.g().nVes = f.engines(); }},
    {"outstanding", ClosedLoop,
     [](auto &f) { f.g().outstanding = f.positive(); }},
    {"rho", OpenLoop, [](auto &f) { f.g().rho = f.positiveReal(); }},
    {"rate-per-sec", OpenLoop,
     [](auto &f) { f.g().ratePerSec = f.positiveReal(); }},
    {"shape", OpenLoop,
     [](auto &f) {
         f.g().traffic.shape = f.named(trafficShapeFromName);
         if (f.g().traffic.shape == TrafficShape::Trace)
             f.fail("shape=trace needs an explicit arrival vector, "
                    "which a scenario file cannot carry; use poisson, "
                    "bursty or diurnal");
     }},
    {"burst-multiplier", OpenLoop,
     [](auto &f) {
         f.g().traffic.burstMultiplier = f.real();
         if (f.g().traffic.burstMultiplier <= 1.0)
             f.fail("burst-multiplier must be > 1");
     }},
    {"burst-fraction", OpenLoop,
     [](auto &f) { f.g().traffic.burstFraction = f.fraction("(0, 1)"); }},
    {"burst-dwell-sec", OpenLoop,
     [](auto &f) { f.g().traffic.burstDwellSec = f.positiveReal(); }},
    {"diurnal-depth", OpenLoop,
     [](auto &f) { f.g().traffic.diurnalDepth = f.fraction("[0, 1]"); }},
    {"diurnal-period-sec", OpenLoop,
     [](auto &f) { f.g().traffic.diurnalPeriodSec = f.positiveReal(); }},
    {"diurnal-phase", OpenLoop,
     [](auto &f) { f.g().traffic.diurnalPhase = f.fraction("[0, 1)"); }},
    {"slo-factor", OpenLoop,
     [](auto &f) { f.g().sloFactor = f.positiveReal(); }},
    {"slo-cycles", OpenLoop,
     [](auto &f) {
         f.g().sloCycles = f.cycles();
         if (f.g().sloCycles <= 0.0)
             f.fail("slo-cycles must be > 0 (or 'inf')");
         f.g().hasSloCycles = true;
     }},
    {"max-queue-depth", OpenLoop,
     [](auto &f) { f.g().maxQueueDepth = f.positive(); }},
    {"priority", Both, [](auto &f) { f.g().priority = f.positiveReal(); }},
    {"seed", OpenLoop,
     [](auto &f) {
         f.g().seed = f.u64();
         f.g().hasSeed = true;
     }},
};

struct SectionSpec
{
    /** A name ending in '.' is a prefix: "tenant." matches every
     * [tenant.<name>] group. */
    const char *name;
    Scope scope;
    std::span<const KeySpec> keys;
    /** Format, given the section name, of the out-of-mode error. */
    const char *scopeError = nullptr;
    /** Why this section's mode-scoped keys belong to one mode. */
    const char *keyNote = nullptr;
    /** Checks across the section's keys, run once all are set. */
    void (*finish)(const Interp &in, const Section &sec,
                   Scenario &s) = nullptr;

    bool isGroup() const { return name[std::strlen(name) - 1] == '.'; }
};

constexpr const char *kNoEpochsOrFaults =
    "section [%s] is open-loop only; closed-loop scenarios drive one "
    "core with no epochs or faults";

/** Every section, in the order the "valid sections" list gives. */
constexpr SectionSpec kSections[] = {
    {"scenario", Both, kScenarioKeys},
    {"fleet", Both, kFleetKeys, nullptr,
     "closed-loop runs drive one core until min-requests; open-loop "
     "runs drive a fleet for a horizon", finishFleet},
    {"elastic", OpenLoop, kElasticKeys, kNoEpochsOrFaults},
    {"resilience", OpenLoop, kResilienceKeys, kNoEpochsOrFaults},
    {"faults", OpenLoop, kFaultsKeys, kNoEpochsOrFaults},
    {"llm", OpenLoop, kLlmKeys,
     "[%s] is open-loop only; token-level serving runs on the fleet "
     "engine", nullptr, finishLlm},
    {"trace", OpenLoop, kTraceKeys,
     "section [%s] is open-loop only; closed-loop runs have no fleet "
     "trace pipeline"},
    {"tenant.", Both, kTenantKeys, nullptr,
     "open-loop tenants size their vNPU from 'eus' and take arrivals; "
     "closed-loop tenants pin 'mes' and 'ves' and resubmit",
     finishTenant},
};

const SectionSpec *
findSection(const std::string &name)
{
    for (const SectionSpec &spec : kSections)
        if (spec.isGroup() ? name.rfind(spec.name, 0) == 0
                           : name == spec.name)
            return &spec;
    return nullptr;
}

/** The spec of @p sec; an unknown one fails, listing the valid. */
const SectionSpec &
sectionSpec(const Interp &in, const Section &sec)
{
    if (const SectionSpec *spec = findSection(sec.name))
        return *spec;
    std::string valid;
    for (const SectionSpec &spec : kSections)
        valid += csprintf("%s[%s%s]", valid.empty() ? "" : ", ",
                          spec.name, spec.isGroup() ? "<name>" : "");
    in.fail(sec.line, csprintf("unknown section [%s]; valid sections: "
                               "%s", sec.name.c_str(), valid.c_str()));
}

/** The row of @p e; an unknown key fails, listing the section's. */
const KeySpec &
keySpec(const Interp &in, const SectionSpec &spec, const Section &sec,
        const Entry &e)
{
    const auto k = std::ranges::find(spec.keys, e.key, &KeySpec::key);
    if (k != spec.keys.end())
        return *k;
    std::string valid;
    for (const KeySpec &k : spec.keys)
        valid += csprintf("%s%s%s", valid.empty() ? "" : ", ", k.key,
                          k.occurs == Repeatable
                              ? " (repeatable)" : "");
    in.fail(e.line, csprintf("unknown key '%s' in section [%s]; valid "
                             "keys: %s", e.key.c_str(), sec.name.c_str(),
                             valid.c_str()));
}

/** Lex the file into sections; all purely syntactic errors (missing
 * '=', keys outside a section, duplicate sections/keys) fire here. */
std::vector<Section>
lexScenario(const std::string &text, const std::string &file)
{
    std::vector<Section> sections;
    std::set<std::string> seen_sections;
    std::set<std::string> seen_keys; // "section\nkey"

    std::istringstream in(text);
    std::string raw;
    unsigned line = 0;
    while (std::getline(in, raw)) {
        ++line;
        const size_t hash = raw.find('#');
        if (hash != std::string::npos)
            raw.erase(hash);
        const std::string stripped = trim(raw);
        if (stripped.empty())
            continue;

        if (stripped.front() == '[') {
            if (stripped.back() != ']')
                failAt(file, line,
                       csprintf("malformed section header '%s'; want "
                                "'[name]'", stripped.c_str()));
            const std::string name =
                trim(stripped.substr(1, stripped.size() - 2));
            if (name.empty())
                failAt(file, line, "empty section name '[]'");
            if (!seen_sections.insert(name).second)
                failAt(file, line,
                       csprintf("duplicate section [%s]",
                                name.c_str()));
            sections.push_back(Section{name, line, {}});
            continue;
        }

        const size_t eq = stripped.find('=');
        if (eq == std::string::npos)
            failAt(file, line,
                   csprintf("expected 'key = value' or '[section]', "
                            "got '%s'", stripped.c_str()));
        const std::string key = trim(stripped.substr(0, eq));
        const std::string value = trim(stripped.substr(eq + 1));
        if (key.empty())
            failAt(file, line, "missing key before '='");
        if (value.empty())
            failAt(file, line,
                   csprintf("key '%s' has an empty value",
                            key.c_str()));
        if (sections.empty())
            failAt(file, line,
                   csprintf("key '%s' appears before any [section] "
                            "header", key.c_str()));
        // Only a repeatable key (a fault trace is a list) may appear
        // twice; anything else set twice is a silent-override bug.
        const SectionSpec *spec = findSection(sections.back().name);
        const auto repeats = [&](const KeySpec &k) {
            return k.key == key && k.occurs == Repeatable;
        };
        if (!spec || std::ranges::none_of(spec->keys, repeats)) {
            const std::string id = sections.back().name + '\n' + key;
            if (!seen_keys.insert(id).second)
                failAt(file, line,
                       csprintf("duplicate key '%s' in section [%s]",
                                key.c_str(),
                                sections.back().name.c_str()));
        }
        sections.back().entries.push_back(Entry{key, value, line});
    }
    return sections;
}


/** Everything that depends on the file's mode: every section's and
 * key's scope, each mode's required keys, and fault references. */
void
validateMode(const Interp &in, const Scenario &s,
             const std::vector<Section> &sections)
{
    const bool open = s.mode == ScenarioMode::OpenLoop;
    const auto allowed = [open](Scope scope) {
        return scope == Both || (scope == OpenLoop) == open;
    };
    for (const Section &sec : sections) {
        const SectionSpec &spec = sectionSpec(in, sec);
        if (!allowed(spec.scope))
            in.fail(sec.line, csprintf(spec.scopeError,
                                       sec.name.c_str()));
        for (const Entry &e : sec.entries) {
            const KeySpec &k = keySpec(in, spec, sec, e);
            if (allowed(k.scope))
                continue;
            const std::string msg = csprintf(
                "key '%s' is %s only; %s", e.key.c_str(),
                k.scope == OpenLoop ? "open-loop" : "closed-loop",
                spec.keyNote);
            // A closed-loop file names the tenant group at its header.
            if (spec.isGroup() && !open)
                in.fail(sec.line, csprintf("[%s]: %s", sec.name.c_str(),
                                           msg.c_str()));
            in.fail(e.line, msg);
        }
    }

    if (open && s.horizon <= 0.0)
        in.fail(1, "open-loop scenarios require a positive [fleet] horizon");
    for (const ScenarioTenantGroup &g : s.groups) {
        if (open && g.eus == 0)
            in.fail(g.line,
                    csprintf("[tenant.%s] is missing the required 'eus' "
                             "key (open-loop tenants buy an EU budget)",
                             g.name.c_str()));
        if (open && g.rho <= 0.0 && g.ratePerSec <= 0.0)
            in.fail(g.line,
                    csprintf("[tenant.%s] needs exactly one of 'rho' and "
                             "'rate-per-sec'", g.name.c_str()));
        if (!open && (g.nMes == 0 || g.nVes == 0))
            in.fail(g.line,
                    csprintf("[tenant.%s] needs explicit 'mes' and 'ves' "
                             "(closed-loop tenants pin their engine "
                             "split)", g.name.c_str()));
    }

    // Only an open-loop file gets this far with [faults] lines.
    const unsigned total_cores = s.totalCores();
    for (const ScenarioFault &f : s.faults) {
        const bool board_scoped = f.kind == FaultKind::BoardLoss ||
                                  f.kind == FaultKind::Repair;
        if (board_scoped && f.board >= s.boards)
            in.fail(f.line,
                    csprintf("fault board %u is out of range; the "
                             "fleet has boards 0..%u", f.board,
                             s.boards - 1));
        if (!board_scoped && f.core >= total_cores)
            in.fail(f.line,
                    csprintf("fault core %u is out of range; the "
                             "fleet has cores 0..%u", f.core,
                             total_cores - 1));
        if (f.at >= 0.0 && s.horizon > 0.0 && f.at >= s.horizon &&
            !std::isinf(f.at))
            in.fail(f.line,
                    csprintf("fault onset at=%g is past the horizon "
                             "%g", f.at, s.horizon));
    }
}

} // namespace

Scenario
parseScenario(const std::string &text, const std::string &filename)
{
    const Interp in(filename);
    const std::vector<Section> sections = lexScenario(text, filename);

    Scenario out;
    out.file = filename;
    for (const Section &sec : sections) {
        const SectionSpec &spec = sectionSpec(in, sec);
        if (spec.isGroup()) {
            ScenarioTenantGroup &g = out.groups.emplace_back();
            g.name = sec.name.substr(std::strlen(spec.name));
            g.line = sec.line;
            if (g.name.empty())
                in.fail(sec.line, "empty tenant name; want [tenant.<name>]");
        }
        for (const Entry &e : sec.entries)
            keySpec(in, spec, sec, e).set(Field{in, e, out});
        for (const KeySpec &k : spec.keys)
            if (k.occurs == Required &&
                std::ranges::find(sec.entries, k.key, &Entry::key) ==
                    sec.entries.end())
                in.fail(sec.line,
                        csprintf("[%s] is missing the required '%s' "
                                 "key", sec.name.c_str(), k.key));
        if (spec.finish)
            spec.finish(in, sec, out);
    }

    if (out.name.empty())
        in.fail(1, "missing [scenario] section with a 'name' key");
    if (out.groups.empty())
        in.fail(1, "scenario declares no [tenant.<name>] sections");
    unsigned long long tenants = 0; // counts reach 2^32 - 1 each
    for (const ScenarioTenantGroup &g : out.groups) {
        tenants += g.count;
        if (tenants > kMaxTenants)
            in.fail(g.line, csprintf("[tenant.%s] brings the total to "
                                     "%llu tenants; at most %llu are "
                                     "supported", g.name.c_str(),
                                     tenants, kMaxTenants));
    }

    validateMode(in, out, sections);

    if (out.hasLlm) {
        // Token-level LLM serving rides the fleet engine and the
        // LLaMA phase model; anything else has no token semantics.
        if (out.elastic.epochs != 1)
            in.fail(out.llmLine,
                    csprintf("[llm] requires [elastic] epochs = 1 "
                             "(got %u): half-decoded sequences cannot "
                             "carry across epoch boundaries",
                             out.elastic.epochs));
        for (const ScenarioTenantGroup &g : out.groups)
            if (g.model != ModelId::Llama)
                in.fail(g.line,
                        csprintf("[tenant.%s]: LLM serving requires "
                                 "model = LLaMA (got %s)",
                                 g.name.c_str(),
                                 modelAbbrev(g.model).c_str()));
    }
    return out;
}

Scenario
loadScenarioFile(const std::string &path)
{
    std::ifstream file(path);
    if (!file)
        fatal("cannot open scenario file '%s'", path.c_str());
    std::ostringstream text;
    text << file.rdbuf();
    if (!file.good() && !file.eof())
        fatal("error reading scenario file '%s'", path.c_str());
    return parseScenario(text.str(), path);
}

void
applyEnvOverrides(Scenario &scenario)
{
    scenario.seed = envUint64("NEU10_SEED", scenario.seed);
    scenario.smoke = envFlag("NEU10_SMOKE", scenario.smoke);
    if (envFlag("NEU10_TRACE", false) &&
        scenario.mode == ScenarioMode::OpenLoop) {
        scenario.trace.enabled = true;
        scenario.trace.metrics = true;
    }
    scenario.traceOut = envString("NEU10_TRACE_OUT",
                                  scenario.traceOut);
}

} // namespace neu10
