#include "obs/metrics.hh"

#include "common/json.hh"
#include "common/logging.hh"

namespace neu10
{

MetricId
MetricsRegistry::registerMetric(const std::string &name,
                                MetricKind kind)
{
    for (MetricId i = 0; i < metrics_.size(); ++i) {
        if (metrics_[i].name == name) {
            NEU10_ASSERT(metrics_[i].kind == kind,
                         "metric '%s' re-registered with a different "
                         "kind", name.c_str());
            return i;
        }
    }
    Metric m;
    m.name = name;
    m.kind = kind;
    metrics_.push_back(std::move(m));
    return static_cast<MetricId>(metrics_.size() - 1);
}

MetricId
MetricsRegistry::counter(const std::string &name)
{
    return registerMetric(name, MetricKind::Counter);
}

MetricId
MetricsRegistry::gauge(const std::string &name)
{
    return registerMetric(name, MetricKind::Gauge);
}

MetricId
MetricsRegistry::histogram(const std::string &name)
{
    return registerMetric(name, MetricKind::Histogram);
}

void
MetricsRegistry::add(MetricId id, double delta)
{
    if (!enabled_)
        return;
    metrics_[id].value += delta;
}

void
MetricsRegistry::set(MetricId id, double value)
{
    if (!enabled_)
        return;
    metrics_[id].value = value;
}

void
MetricsRegistry::observe(MetricId id, double value)
{
    if (!enabled_)
        return;
    metrics_[id].dist.add(value);
}

void
MetricsRegistry::sample(Cycles now)
{
    if (!enabled_)
        return;
    for (Metric &m : metrics_) {
        const double v = m.kind == MetricKind::Histogram
                             ? static_cast<double>(m.dist.count())
                             : m.value;
        m.series.record(now, v);
    }
}

double
MetricsRegistry::value(MetricId id) const
{
    const Metric &m = metrics_[id];
    return m.kind == MetricKind::Histogram
               ? static_cast<double>(m.dist.count())
               : m.value;
}

const Metric *
MetricsRegistry::find(const std::string &name) const
{
    for (const Metric &m : metrics_)
        if (m.name == name)
            return &m;
    return nullptr;
}

std::string
MetricsRegistry::json(double freqHz) const
{
    std::string out = "{\n\"schema\": \"neu10-metrics-v1\",\n"
                      "\"freq_hz\": ";
    json::appendFixed(out, freqHz, 0);
    out += ",\n\"metrics\": [\n";
    // Registration order: deterministic (registration happens on the
    // serial fleet path) and meaningful to a reader, unlike any
    // hash order.
    for (size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        json::Writer w(out, json::Layout::Compact);
        w.open();
        w.str("name", m.name);
        static constexpr const char *kKindNames[] = {
            "counter", "gauge", "histogram"};
        w.str("kind", kKindNames[static_cast<int>(m.kind)]);
        if (m.kind == MetricKind::Histogram) {
            w.num("count", m.dist.count());
            w.general("mean", m.dist.mean(), 9);
            w.general("p50", m.dist.percentile(0.50), 9);
            w.general("p95", m.dist.percentile(0.95), 9);
            w.general("p99", m.dist.percentile(0.99), 9);
        }
        w.openList("points");
        for (const TimePoint &p : m.series.points()) {
            w.openList();
            w.general(nullptr, p.time, 9);
            w.general(nullptr, p.value, 9);
            w.closeList();
        }
        w.closeList();
        w.close();
        out += i + 1 < metrics_.size() ? ",\n" : "\n";
    }
    out += "]}\n";
    return out;
}

bool
MetricsRegistry::writeJson(const std::string &path,
                           double freqHz) const
{
    return json::writeTextFile(path, json(freqHz));
}

} // namespace neu10
