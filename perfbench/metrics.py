"""Metric arithmetic and per-iteration correctness checks.

An *iteration* is one `perfbench_pipeline` process run, recorded as
a dict:

  spawn_ns  CLOCK_MONOTONIC ns taken just before the process started
  line      the JSON line it printed (stage stamps, counters, probes)
  result    its parsed neu10-scenario-result-v1 record
  spans     its spans.json span list (traced iterations only)

Host metrics are medians over iterations. Sim metrics come from the
result record and are identical in every iteration of one seed.
Everything here is a pure function so the tests can check it against
a fixed recorded run.
"""

import statistics

# (name, unit). Every workload reports every one of these.
END_TO_END = (
    ("requests_per_wall_s", "req/s"),
    ("requests_per_cpu_s", "req/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_latency_ms", "sim-ms"),
    ("p99_latency_ms", "sim-ms"),
    ("goodput_rps", "req/sim-s"),
    ("rejected_frac", "ratio"),
)

# (name, unit), grouped by src/ module.
PER_LAYER = (
    ("sim.event_queue.ns_per_event", "ns"),
    ("npu.bandwidth.maxmin_ns", "ns"),
    ("runtime.serving.core_replay_s", "s"),
    ("runtime.serving.requests_per_s", "req/s"),
    ("runtime.serving.sim_cycles_per_s", "cycles/s"),
    ("cluster.fleet.run_s", "s"),
    ("cluster.fleet.run_cpu_s", "s"),
    ("cluster.fleet.overhead_frac", "ratio"),
    ("cluster.fleet.parallel_efficiency", "ratio"),
    ("cluster.fleet.carried_per_completed", "ratio"),
    ("cluster.fleet.epochs", "count"),
    ("cluster.fleet.migrations", "count"),
    ("resilience.failovers", "count"),
    ("cluster.placement.place_ns", "ns"),
    ("cluster.placement.rebalance_ns", "ns"),
    ("cluster.placement.eu_util_stddev", "ratio"),
    ("cluster.traffic.ns_per_arrival", "ns"),
    ("llm.endpoint_replay_s", "s"),
    ("llm.kv_pool.ns_per_op", "ns"),
    ("llm.kv_pool.failed_alloc_frac", "ratio"),
    ("llm.preemptions_per_1k_seqs", "count"),
    ("llm.tokens_per_wall_s", "tok/s"),
    ("llm.sim_tokens_per_s", "tok/sim-s"),
    ("llm.ttft_p99_ms", "sim-ms"),
    ("scenario.parse_s", "s"),
    ("scenario.expand_s", "s"),
    ("scenario.export_s", "s"),
    ("scenario.result_bytes", "bytes"),
    ("stats.percentile_s", "s"),
    ("stats.latency_samples", "count"),
    ("obs.trace_events", "count"),
    ("obs.trace_export_s", "s"),
    ("obs.metrics_export_s", "s"),
    ("obs.trace_bytes", "bytes"),
    ("compiler.compile_s", "s"),
    ("bench.tracing_overhead_frac", "ratio"),
)

UNITS = dict(END_TO_END + PER_LAYER)


def median(values):
    return statistics.median(list(values))


def pipeline_wall_s(it):
    """Host seconds from the start of the parse to the result JSON
    written (obs export included)."""
    t = it["line"]["t"]
    return (t["json1"] - t["parse0"]) / 1e9


def check(it, workload):
    """Correctness errors of one iteration's result (empty = pass)."""
    errors = []
    res = it["result"]
    if res.get("schema") != "neu10-scenario-result-v1":
        errors.append(f"unexpected result schema {res.get('schema')!r}")
        return errors
    if res.get("scenario") != workload:
        errors.append(f"result is for scenario {res.get('scenario')!r}")
    fleet = res["fleet"]
    if fleet["completed"] <= 0:
        errors.append("no request completed")
    if fleet["completed"] + fleet["rejected"] != fleet["submitted"]:
        errors.append(
            f"fleet: completed {fleet['completed']} + rejected "
            f"{fleet['rejected']} != submitted {fleet['submitted']}")
    for i, t in enumerate(fleet["per_tenant"]):
        if t["completed"] + t["rejected"] != t["submitted"]:
            errors.append(
                f"tenant {i}: completed {t['completed']} + rejected "
                f"{t['rejected']} != submitted {t['submitted']}")
        kv = t.get("llm")
        if kv is None:
            continue
        if kv["kv_alloc_ops"] != kv["kv_free_ops"]:
            errors.append(
                f"tenant {i}: {kv['kv_alloc_ops']} KV pages allocated "
                f"but {kv['kv_free_ops']} freed after drain")
        if kv["kv_page_high_water"] > kv["kv_pages"]:
            errors.append(
                f"tenant {i}: KV high water {kv['kv_page_high_water']} "
                f"exceeds the pool's {kv['kv_pages']} pages")
    return errors


def iteration_end_to_end(it):
    """Every end-to-end metric of one iteration."""
    line, fleet = it["line"], it["result"]["fleet"]
    t = line["t"]
    completed = fleet["completed"]
    ms_per_cycle = 1e3 / line["freq_hz"]
    return {
        "requests_per_wall_s": completed / pipeline_wall_s(it),
        "requests_per_cpu_s": completed / line["cpu_s"],
        "setup_s": (t["fleet0"] - it["spawn_ns"]) / 1e9,
        "peak_rss_mb": line["maxrss_kb"] / 1024.0,
        "p50_latency_ms": fleet["p50_cycles"] * ms_per_cycle,
        "p99_latency_ms": fleet["p99_cycles"] * ms_per_cycle,
        "goodput_rps": fleet["goodput"],
        "rejected_frac": fleet["rejected"] / fleet["submitted"],
    }


def end_to_end(iterations):
    """Median of each end-to-end metric over @p iterations."""
    per_it = [iteration_end_to_end(it) for it in iterations]
    return {name: median(m[name] for m in per_it)
            for name, _ in END_TO_END}


def span_seconds(spans, name):
    """Duration of the first span called @p name (None if absent)."""
    for s in spans:
        if s["name"] == name:
            return (s["end"] - s["start"]) / 1e9
    return None


def per_layer(untraced, traced):
    """Per-layer metrics of a traced run.

    @p untraced and @p traced are the run's iterations of each kind;
    exactly one traced iteration carries the layer probes. Returns
    (metrics, absent): metrics maps every measured PER_LAYER name to
    its value; absent lists the names whose layer does not run in
    this workload.
    """
    probe_it = next(it for it in traced if "probes" in it["line"])
    probes = probe_it["line"]["probes"]
    line = probe_it["line"]
    fleet = probe_it["result"]["fleet"]
    llm = "llm" in fleet
    epochs = len(fleet["epochs"])
    tracing = line["trace_events"] > 0

    def span(name):
        return median(span_seconds(it["spans"], name) for it in traced)

    m = {
        "cluster.fleet.run_s": span("cluster.fleet.run"),
        "cluster.fleet.run_cpu_s":
            median(it["line"]["fleet_cpu_s"] for it in traced),
        "cluster.fleet.overhead_frac":
            1.0 - probes["engine_replay"]["cpu_s"] / line["fleet_cpu_s"],
        "cluster.fleet.parallel_efficiency": median(
            it["line"]["fleet_cpu_s"] /
            (span_seconds(it["spans"], "cluster.fleet.run") *
             it["line"]["threads"]) for it in traced),
        "cluster.fleet.epochs": epochs,
        "cluster.placement.place_ns":
            probes["placement"]["place_s"] /
            probes["placement"]["place_calls"] * 1e9,
        "cluster.placement.eu_util_stddev": fleet["core_eu_util_stddev"],
        "cluster.traffic.ns_per_arrival":
            probes["traffic"]["s"] / probes["traffic"]["arrivals"] * 1e9,
        "scenario.parse_s": span("scenario.parse"),
        "scenario.expand_s": span("scenario.expand"),
        "scenario.export_s": span("scenario.export"),
        "scenario.result_bytes": line["result_bytes"],
        "stats.percentile_s": probes["stats"]["s"],
        "stats.latency_samples": fleet["completed"],
        "bench.tracing_overhead_frac":
            median(pipeline_wall_s(it) for it in traced) /
            median(pipeline_wall_s(it) for it in untraced) - 1.0,
    }
    if epochs > 1:
        m["cluster.fleet.carried_per_completed"] = (
            sum(e["backlog"] for e in fleet["epochs"]) / fleet["completed"])
        m["cluster.fleet.migrations"] = fleet["migrations"]
        m["cluster.placement.rebalance_ns"] = (
            probes["placement"]["rebalance_s"] /
            probes["placement"]["rebalance_calls"] * 1e9)
    if fleet["faults"]["injected"] > 0:
        m["resilience.failovers"] = fleet["faults"]["failovers"]
    if tracing:
        m["obs.trace_events"] = line["trace_events"]
        m["obs.trace_export_s"] = span("obs.trace_export")
        m["obs.trace_bytes"] = line["trace_bytes"]
        if line["metrics_bytes"] > 0:
            m["obs.metrics_export_s"] = span("obs.metrics_export")
    if llm:
        kv = [t["llm"] for t in fleet["per_tenant"]]
        failed = sum(k["kv_failed_allocs"] for k in kv)
        allocs = sum(k["kv_alloc_ops"] for k in kv)
        ms_per_cycle = 1e3 / line["freq_hz"]
        m.update({
            "llm.endpoint_replay_s": probes["llm_endpoint"]["s"],
            "llm.kv_pool.ns_per_op":
                probes["kv_pool"]["s"] / probes["kv_pool"]["ops"] * 1e9,
            "llm.kv_pool.failed_alloc_frac": failed / (allocs + failed),
            "llm.preemptions_per_1k_seqs":
                1e3 * fleet["llm"]["preemptions"] / fleet["completed"],
            "llm.tokens_per_wall_s": median(
                it["result"]["fleet"]["llm"]["tokens"] / pipeline_wall_s(it)
                for it in untraced),
            "llm.sim_tokens_per_s": fleet["llm"]["tokens_per_sec"],
            "llm.ttft_p99_ms": fleet["llm"]["ttft_p99_cycles"] * ms_per_cycle,
        })
    else:
        replay = probes["core_replay"]
        m.update({
            "sim.event_queue.ns_per_event":
                probes["event_queue"]["s"] /
                probes["event_queue"]["events"] * 1e9,
            "npu.bandwidth.maxmin_ns":
                probes["maxmin"]["s"] / probes["maxmin"]["calls"] * 1e9,
            "runtime.serving.core_replay_s": replay["s"],
            "runtime.serving.requests_per_s":
                replay["completed"] / replay["s"],
            "runtime.serving.sim_cycles_per_s":
                replay["sim_cycles"] / replay["s"],
            "compiler.compile_s": probes["compile"]["s"],
        })
    absent = sorted(name for name, _ in PER_LAYER if name not in m)
    return m, absent
