"""Seeded scenario generators for the fleet-scale benchmark.

Each workload is a function of (seed, scale) returning the text of a
`.scn` file (format: docs/SCENARIOS.md). The same arguments give the
same bytes on every host and Python version: the only randomness is a
local splitmix64 stream, and every number is formatted explicitly.

`scale` is "full" for the measured benchmark and "tiny" for the
benchmark's own tests (same sections and shapes, far smaller fleets
and horizons).
"""

MASK64 = (1 << 64) - 1

# The four request-serving tenant groups every fleet workload mixes:
# (section name, zoo model, batch, EU budget).
FLEET_MIX = (
    ("mnist", "MNIST", 32, 2),
    ("ncf", "NCF", 32, 4),
    ("dlrm", "DLRM", 32, 4),
    ("resnet", "RsNt", 8, 6),
)


class SplitMix64:
    """Tiny deterministic PRNG, independent of Python's `random`."""

    def __init__(self, seed):
        self.state = seed & MASK64

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def uniform(self, lo, hi):
        return lo + (hi - lo) * (self.next_u64() >> 11) / float(1 << 53)

    def below(self, n):
        return self.next_u64() % n


def fleet_seed(seed, workload):
    """Base stream seed of the scenario. Tenant i draws from base + i,
    so bases of different benchmark seeds must lie far apart or two
    seeds would share most of their tenant streams."""
    salt = sum(ord(c) << (8 * (i % 7)) for i, c in enumerate(workload))
    return SplitMix64(seed ^ salt).next_u64() >> 16


def _header(name, description):
    return ("[scenario]\n"
            f"name = {name}\n"
            f"description = {description}\n\n")


def _fleet(boards, placement, horizon, threads, seed):
    return ("[fleet]\n"
            "mode = open-loop\n"
            f"boards = {boards}\n"
            f"placement = {placement}\n"
            "core-policy = neu10\n"
            f"horizon = {horizon}\n"
            f"threads = {threads}\n"
            f"seed = {seed}\n\n")


def _tenant(name, model, batch, count, eus, *lines):
    return (f"[tenant.{name}]\n"
            f"model = {model}\n"
            f"batch = {batch}\n"
            f"count = {count}\n"
            f"eus = {eus}\n" +
            "".join(f"{line}\n" for line in lines) + "\n")


# fleet_steady tenants per group (384 in all). Service times are
# deterministic, so latency percentiles can sit on plateaus of
# identical values. With these counts every tenant is placed and the
# fleet p50 falls among queued MNIST requests, whose latencies vary
# with the seed.
STEADY_COUNTS = {"mnist": 192, "ncf": 64, "dlrm": 96, "resnet": 32}


def fleet_steady(seed, scale="full"):
    """64 boards x 4 cores, 384 mixed tenants at Poisson rho 0.35 with
    three-deep admission queues, load-balanced, 4 epochs, no faults,
    tracing off, one thread: the per-core engine does almost all of
    the work."""
    boards, scale_down, horizon = {
        "full": (64, 1, "1e8"),
        "tiny": (2, 32, "4e6"),
    }[scale]
    text = _header("fleet_steady",
                   "steady fleet: per-core engine dominated")
    text += _fleet(boards, "load-balanced", horizon, 1,
                   fleet_seed(seed, "fleet_steady"))
    text += "[elastic]\nepochs = 4\n\n"
    for name, model, batch, eus in FLEET_MIX:
        count = STEADY_COUNTS[name] // scale_down
        text += _tenant(name, model, batch, count, eus, "rho = 0.35",
                        "shape = poisson", "slo-factor = 5",
                        "max-queue-depth = 3")
    return text


# fleet_churn traffic per tenant group: (rho, burst multiplier,
# admission depth). Sharp bursts against two-deep admission queues
# shed a steady ~6 % of the requests. MNIST's light load keeps its
# short, identical service times from holding the fleet p50, which
# then falls among the queued NCF and DLRM requests and varies with
# the seed.
CHURN_TRAFFIC = {
    "mnist": (0.02, 8, 2),
    "ncf": (0.1, 8, 2),
    "dlrm": (0.1, 8, 2),
    "resnet": (0.1, 8, 2),
}


def fleet_churn(seed, scale="full"):
    """8 boards x 4 cores, 32 mixed tenants at low bursty load,
    first-fit (the tenants fill three quarters of the fleet), 1024
    elastic epochs, failover, seeded board losses with repair and core
    stalls, sim tracing and metrics on, two threads: per-slice set-up,
    carry, aggregation, failover and obs export carry the cost."""
    boards, per_group, horizon, epochs = {
        "full": (8, 8, 4e9, 1024),
        "tiny": (2, 2, 4e8, 64),
    }[scale]
    rng = SplitMix64(fleet_seed(seed, "fleet_churn"))
    # First-fit packs the tenants onto the first three quarters of the
    # fleet; faults are drawn there, where they hit resident vNPUs.
    hot_boards = max(1, boards * 3 // 4)
    hot_cores = hot_boards * 4
    faults = []
    for k in range(3 if scale == "full" else 1):
        # Board losses spread over the run, each repaired explicitly
        # after 1-3 % of the horizon.
        at = rng.uniform(0.1 + 0.27 * k, 0.3 + 0.27 * k)
        board = rng.below(hot_boards)
        repair = at + rng.uniform(0.01, 0.03)
        faults.append(f"fault = board-loss at-frac={at:.6f} "
                      f"board={board} duration=inf")
        faults.append(f"fault = repair at-frac={repair:.6f} "
                      f"board={board}")
    for _ in range(8 if scale == "full" else 2):
        at = rng.uniform(0.05, 0.95)
        core = rng.below(hot_cores)
        duration = horizon * rng.uniform(0.002, 0.006)
        faults.append(f"fault = core-stall at-frac={at:.6f} "
                      f"core={core} duration={duration:.0f}")
    text = _header("fleet_churn",
                   "churning fleet: epoch slicing, failover, obs export")
    text += _fleet(boards, "first-fit", f"{horizon:g}", 2,
                   fleet_seed(seed, "fleet_churn"))
    text += (f"[elastic]\nepochs = {epochs}\nimbalance-threshold = 0.05\n"
             "max-migrations-per-epoch = 4\n\n")
    text += "[resilience]\nfailover = on\nrecovery-stall = 2e5\n\n"
    text += "[faults]\n" + "\n".join(faults) + "\n\n"
    text += "[trace]\nenabled = on\nmetrics = on\n\n"
    for name, model, batch, eus in FLEET_MIX:
        rho, burst, depth = CHURN_TRAFFIC[name]
        text += _tenant(name, model, batch, per_group, eus, f"rho = {rho}",
                        "shape = bursty", f"burst-multiplier = {burst}",
                        "slo-factor = 5", f"max-queue-depth = {depth}")
    return text


def llm_decode(seed, scale="full"):
    """64 LLaMA2-13B endpoints on 16 boards, continuous batching with
    16-token KV pages and max batch 32, Poisson 4-5 req/s per endpoint:
    the token path, which never touches the event queue or the
    water-fill. The horizon keeps every endpoint's request count
    between 4096 and 8192, so the result vectors' capacities, and with
    them peak RSS, do not step between seeds."""
    boards, per_group, horizon = {
        "full": (16, 16, "1.5e12"),
        "tiny": (1, 1, "2e10"),
    }[scale]
    text = _header("llm_decode", "LLM endpoints: continuous batching")
    text += _fleet(boards, "first-fit", horizon, 1,
                   fleet_seed(seed, "llm_decode"))
    text += ("[llm]\n"
             "scheduler = continuous\n"
             "page-tokens = 16\n"
             "max-batch = 32\n"
             "prompt-tokens = 384\n"
             "prompt-tokens-max = 640\n"
             "output-tokens = 32\n"
             "output-tokens-max = 96\n\n")
    for k, rate in enumerate(("4.0", "4.33", "4.67", "5.0")):
        text += _tenant(f"llama{k}", "LLaMA", 32, per_group, 8,
                        f"rate-per-sec = {rate}", "shape = poisson",
                        "slo-cycles = 6e9", "max-queue-depth = 34")
    return text


WORKLOADS = {
    "fleet_steady": fleet_steady,
    "fleet_churn": fleet_churn,
    "llm_decode": llm_decode,
}


def generate(workload, seed, scale="full"):
    """The `.scn` text of @p workload for benchmark seed @p seed."""
    return WORKLOADS[workload](seed, scale)
