#include "npu/core_sim.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "npu/bandwidth.hh"
#include "sched/policy.hh"

namespace neu10
{

namespace
{

/** Progress this close to 1 counts as complete (fp guard). */
constexpr double kDoneEps = 1e-7;

} // anonymous namespace

/** Execution state of one inference request. */
struct RequestExec
{
    std::uint64_t id = 0;
    std::uint32_t slot = 0;
    const CompiledModel *model = nullptr;
    RequestCallback cb;
    Cycles submit = 0.0;

    std::vector<unsigned> depsLeft;    // per op
    std::vector<std::uint32_t> groupPos;
    std::vector<unsigned> unitsLeft;   // in the current group
    std::vector<OpTiming> timings;
    size_t opsDone = 0;
    /** Every unit the request will ever run, reserved up front so the
     * UnitRun pointers held by ready queues and the running set stay
     * valid without a heap object per unit. */
    std::vector<UnitRun> units;
};

NpuCoreSim::NpuCoreSim(EventQueue &queue, const NpuCoreConfig &cfg,
                       std::unique_ptr<SchedulerPolicy> policy,
                       std::vector<VnpuSlot> slots)
    : queue_(queue), cfg_(cfg), policy_(std::move(policy)),
      slots_(std::move(slots)),
      meUseful_(std::max(1u, cfg.numMes)),
      meHeld_(std::max(1u, cfg.numMes)),
      veBusy_(std::max(1u, cfg.numVes)),
      budgetUsed_(slots_.size(), 0),
      lastAdvance_(queue.now())
{
    NEU10_ASSERT(policy_ != nullptr, "core needs a scheduling policy");
    NEU10_ASSERT(!slots_.empty(), "core needs at least one vNPU slot");
    for (const auto &s : slots_) {
        NEU10_ASSERT(s.nVes > 0, "every vNPU needs at least one VE");
        NEU10_ASSERT(s.nMes > 0, "every vNPU needs at least one ME");
    }
}

NpuCoreSim::~NpuCoreSim()
{
    if (pendingEvent_ != kInvalidEvent)
        queue_.deschedule(pendingEvent_);
}

std::uint64_t
NpuCoreSim::submit(std::uint32_t slot, const CompiledModel *model,
                   RequestCallback cb)
{
    NEU10_ASSERT(slot < slots_.size(), "bad slot %u", slot);
    NEU10_ASSERT(model != nullptr, "null model");

    auto req = std::make_unique<RequestExec>();
    req->id = nextRequestId_++;
    req->slot = slot;
    req->model = model;
    req->cb = std::move(cb);
    req->submit = queue_.now();

    const size_t nops = model->ops.size();
    req->depsLeft.resize(nops);
    req->groupPos.assign(nops, 0);
    req->unitsLeft.assign(nops, 0);
    size_t total_units = 0;
    for (const CompiledOp &op : model->ops)
        for (const WorkGroup &grp : op.groups)
            total_units += grp.units.size();
    req->units.reserve(total_units);
    if (captureOpTimings_) {
        req->timings.resize(nops);
        for (size_t i = 0; i < nops; ++i)
            req->timings[i].opIndex = static_cast<std::uint32_t>(i);
    }

    RequestExec &r = *req;
    const std::uint64_t id = r.id;
    requests_.emplace(id, std::move(req));

    for (size_t i = 0; i < nops; ++i)
        r.depsLeft[i] =
            static_cast<unsigned>(model->ops[i].deps.size());
    for (size_t i = 0; i < nops; ++i) {
        if (r.depsLeft[i] == 0)
            enqueueReadyUnits(r, static_cast<std::uint32_t>(i),
                              queue_.now());
    }

    if (!inEvent_) {
        // Kick a scheduling round right away.
        if (pendingEvent_ != kInvalidEvent)
            queue_.deschedule(pendingEvent_);
        pendingEvent_ = queue_.schedule(
            queue_.now(), [this](Cycles t) { onEvent(t); },
            EventPriority::Schedule);
    }
    return id;
}

void
NpuCoreSim::enqueueReadyUnits(RequestExec &req, std::uint32_t op_idx,
                              Cycles now)
{
    const CompiledOp &op = req.model->ops[op_idx];
    const WorkGroup &grp = op.groups[req.groupPos[op_idx]];
    req.unitsLeft[op_idx] = static_cast<unsigned>(grp.units.size());

    for (const WorkUnit &w : grp.units) {
        NEU10_ASSERT(req.units.size() < req.units.capacity(),
                     "unit storage would move running units");
        UnitRun *raw = &req.units.emplace_back();
        raw->id = nextUnitId_++;
        raw->slot = req.slot;
        raw->kind = w.kind;
        raw->gang = w.gang;
        raw->meTime = w.meTime;
        raw->meEff = w.meEff;
        raw->veTime = w.veTime;
        raw->bytes = w.bytes;
        raw->request = &req;
        raw->opIdx = op_idx;
        raw->readyAt = now;
        if (raw->kind == UTopKind::Me && raw->meTime > 0.0)
            raw->meRate = std::min(1e18, 1.0 / raw->meTime);
        raw->veDemand = raw->veDemandRate();

        if (raw->kind == UTopKind::Me)
            slots_[req.slot].readyMe.push_back(raw);
        else
            slots_[req.slot].readyVe.push_back(raw);
    }
}

void
NpuCoreSim::stepCycles(Cycles from, Cycles to)
{
    // Per-cycle reference engine (SimEngine::PerCycle): visit every
    // integer cycle boundary in (from, to) and re-derive from the
    // running set whether any unit completes or unstalls there. None
    // ever does — the event at `to` is the first state change, which
    // is exactly what the fast-forward engine computed once in
    // scheduleNext() — but the reference pays the per-cycle scan to
    // find that out. The walk only reads simulator state, so results
    // stay bit-identical across engines; the volatile sink keeps the
    // optimizer from fast-forwarding the reference for us.
    bool change = false;
    for (Cycles c = std::floor(from) + 1.0; c < to; c += 1.0) {
        for (const UnitRun *u : running_) {
            if (u->penalty > 0.0) {
                change = change || (from + u->penalty < c);
            } else if (u->rate > 0.0) {
                change = change || (u->x + u->rate * (c - from) >=
                                    1.0 - kDoneEps);
            }
        }
        probeSink_ = probeSink_ || change;
        ++cyclesStepped_;
    }
}

void
NpuCoreSim::advanceTo(Cycles now)
{
    const Cycles dt = now - lastAdvance_;
    if (dt <= 0.0) {
        lastAdvance_ = now;
        return;
    }
    if (trace_ != nullptr && traceEngineEvents_) {
        // The advance sequence is identical under both engines (the
        // per-cycle walk only reads state), so these spans are too.
        trace_->span(lastAdvance_, now, "engine", "advance", "units",
                     static_cast<double>(running_.size()));
    }
    if (engine_ == SimEngine::PerCycle)
        stepCycles(lastAdvance_, now);

    double hbm_rate = 0.0;
    scratchOccupancy_.assign(slots_.size(), 0.0);
    scratchUseful_.assign(slots_.size(), 0.0);
    std::vector<double> &me_occ = scratchOccupancy_;
    std::vector<double> &me_useful = scratchUseful_;

    for (UnitRun *u : running_) {
        const bool stalled = u->penalty > 0.0;
        if (stalled) {
            u->penalty = std::max(0.0, u->penalty - dt);
        } else {
            u->x = std::min(1.0, u->x + u->rate * dt);
        }
        hbm_rate += u->rate * static_cast<double>(u->bytes);
        if (u->kind == UTopKind::Me) {
            me_occ[u->slot] += u->gang;
            if (!stalled && u->meTime > 0.0) {
                // Useful service: what a performance counter sees —
                // occupancy discounted by array fill and stalls.
                me_useful[u->slot] +=
                    u->gang * u->meEff *
                    std::min(1.0, u->rate * u->meTime);
            }
        }
    }
    hbmBytes_ += hbm_rate * dt;

    for (std::uint32_t s = 0; s < slots_.size(); ++s) {
        slots_[s].meServiceCycles += me_occ[s] * dt;
        slots_[s].meUsefulCycles += me_useful[s] * dt;
        // Blocked-by-harvest (Table III): ready backlog while the own
        // budget is (partly) consumed by other vNPUs' harvesters.
        if (slots_[s].hasMeBacklog() && budgetUsed(s) >= slots_[s].nMes) {
            for (UnitRun *u : running_) {
                if (u->kind == UTopKind::Me && u->budgetSlot == s &&
                    u->slot != s) {
                    slots_[s].blockedByHarvest += dt;
                    break;
                }
            }
        }
    }
    lastAdvance_ = now;
}

void
NpuCoreSim::removeFromReady(UnitRun *u)
{
    auto &q = u->kind == UTopKind::Me ? slots_[u->slot].readyMe
                                      : slots_[u->slot].readyVe;
    // Policies start units from the head of the queue.
    if (!q.empty() && q.front() == u) {
        q.pop_front();
        return;
    }
    auto it = std::find(q.begin(), q.end(), u);
    NEU10_ASSERT(it != q.end(), "unit %llu not in ready queue",
                 static_cast<unsigned long long>(u->id));
    q.erase(it);
}

void
NpuCoreSim::bindMe(UnitRun *u, std::uint32_t budget_slot,
                   bool with_penalty)
{
    NEU10_ASSERT(u->kind == UTopKind::Me, "bindMe on a VE unit");
    NEU10_ASSERT(!u->running, "unit already running");
    NEU10_ASSERT(budget_slot < slots_.size(), "bad budget slot");
    removeFromReady(u);
    u->running = true;
    u->budgetSlot = budget_slot;
    u->penalty = with_penalty ? cfg_.mePreemptCycles : 0.0;
    budgetUsed_[budget_slot] += u->gang;
    running_.push_back(u);

    if (captureOpTimings_) {
        OpTiming &t = u->request->timings[u->opIdx];
        t.start = std::min(t.start, queue_.now());
    }
}

void
NpuCoreSim::preemptMe(UnitRun *u)
{
    NEU10_ASSERT(u->running && u->kind == UTopKind::Me,
                 "preempting a non-running ME unit");
    NEU10_ASSERT(budgetUsed_[u->budgetSlot] >= u->gang,
                 "budget accounting underflow on preempt");
    budgetUsed_[u->budgetSlot] -= u->gang;
    u->running = false;
    u->budgetSlot = kNoSlot;
    u->penalty = 0.0;
    u->rate = 0.0;
    u->readyAt = queue_.now(); // its wait clock restarts on requeue
    ++u->preemptions;
    running_.erase(std::find(running_.begin(), running_.end(), u));
    slots_[u->slot].readyMe.push_front(u);
}

void
NpuCoreSim::startVe(UnitRun *u)
{
    NEU10_ASSERT(u->kind == UTopKind::Ve, "startVe on an ME unit");
    NEU10_ASSERT(!u->running, "unit already running");
    NEU10_ASSERT(runningVeUnits() < cfg_.numVes,
                 "VE instruction queues exhausted");
    removeFromReady(u);
    u->running = true;
    ++runningVe_;
    running_.push_back(u);

    if (captureOpTimings_) {
        OpTiming &t = u->request->timings[u->opIdx];
        t.start = std::min(t.start, queue_.now());
    }
}

void
NpuCoreSim::preemptVe(UnitRun *u)
{
    NEU10_ASSERT(u->running && u->kind == UTopKind::Ve,
                 "preempting a non-running VE unit");
    u->running = false;
    u->rate = 0.0;
    u->veShare = 0.0;
    ++u->preemptions;
    --runningVe_;
    running_.erase(std::find(running_.begin(), running_.end(), u));
    slots_[u->slot].readyVe.push_front(u);
}

unsigned
NpuCoreSim::budgetUsed(std::uint32_t slot) const
{
    // Maintained incrementally (bindMe / preemptMe / completeUnit /
    // drainSlot): the policies probe this once per candidate binding,
    // which made the former running-set scan an O(n^2) hot spot.
    return budgetUsed_[slot];
}

UnitRun *
NpuCoreSim::lastHarvesterOn(std::uint32_t slot)
{
    for (auto it = running_.rbegin(); it != running_.rend(); ++it) {
        UnitRun *u = *it;
        if (u->kind == UTopKind::Me && u->budgetSlot == slot &&
            u->slot != slot) {
            return u;
        }
    }
    return nullptr;
}

NpuCoreSim::StepTotals
NpuCoreSim::computeShares(Cycles now)
{
    // HBM: two-level max-min — equal split between vNPUs with traffic,
    // then between each vNPU's units (§III-B fair sharing by default).
    const double bpc = cfg_.hbmBytesPerCycle();

    // One pass computes each unit's unconstrained rate (ME + VE
    // constraints only) and buckets the traffic-bearing units by slot,
    // preserving running-set order within each slot, which the
    // per-unit max-min split below depends on.
    if (scratchSlotUnits_.size() != slots_.size())
        scratchSlotUnits_.resize(slots_.size());
    for (auto &bucket : scratchSlotUnits_)
        bucket.clear();
    for (UnitRun *u : running_) {
        double r = 0.0;
        if (u->penalty <= 0.0) {
            r = u->meRate;
            if (u->veTime > 0.0)
                r = std::min(r, u->veShare / u->veTime);
            if (r >= 1e18)
                r = 1.0; // degenerate unit: all streams empty
        }
        u->baseRate = r;
        if (u->bytes != 0)
            scratchSlotUnits_[u->slot].push_back(u);
    }

    // The vNPU-level fill sees only slots with traffic-bearing units,
    // in slot order. A slot without one demands exactly 0, and a zero
    // demand neither receives capacity nor counts towards the split,
    // so leaving it out changes no grant.
    scratchActiveSlots_.clear();
    scratchDemand_.clear();
    for (std::uint32_t s = 0; s < slots_.size(); ++s) {
        if (scratchSlotUnits_[s].empty())
            continue;
        double d = 0.0;
        for (const UnitRun *u : scratchSlotUnits_[s])
            d += u->baseRate * static_cast<double>(u->bytes);
        scratchActiveSlots_.push_back(s);
        scratchDemand_.push_back(d);
    }
    scratchSlotGrant_.resize(scratchDemand_.size());
    maxMinFill(scratchDemand_, bpc, scratchSlotGrant_, scratchFill_);

    std::vector<double> &demands = scratchUnitDemand_;
    std::vector<double> &grants = scratchUnitGrant_;
    for (size_t k = 0; k < scratchActiveSlots_.size(); ++k) {
        const auto &mine = scratchSlotUnits_[scratchActiveSlots_[k]];
        demands.clear();
        for (const UnitRun *u : mine)
            demands.push_back(u->baseRate *
                              static_cast<double>(u->bytes));
        grants.resize(mine.size());
        maxMinFill(demands, scratchSlotGrant_[k], grants, scratchFill_);
        for (size_t i = 0; i < mine.size(); ++i)
            mine[i]->hbmShare = grants[i];
    }

    // Final per-unit rates, with the busy sums for updateStats() and
    // the earliest completion or unstall for scheduleNext() taken on
    // the way, in running-set order.
    StepTotals t;
    for (UnitRun *u : running_) {
        const bool stalled = u->penalty > 0.0;
        if (stalled) {
            u->rate = 0.0;
        } else {
            double r = u->baseRate;
            if (u->bytes > 0)
                r = std::min(r, u->hbmShare /
                                    static_cast<double>(u->bytes));
            u->rate = r;
        }

        if (u->kind == UTopKind::Me) {
            t.held += u->gang;
            if (!stalled && u->meTime > 0.0) {
                t.useful += u->gang * u->meEff *
                            std::min(1.0, u->rate * u->meTime);
            }
        }
        t.ve += stalled ? 0.0 : u->rate * u->veTime;

        if (stalled) {
            t.next = std::min(t.next, now + u->penalty);
        } else if (u->rate > 0.0) {
            t.next = std::min(t.next, now + (1.0 - u->x) / u->rate);
        }
        // rate == 0 without penalty is a legal transient stall (e.g. a
        // VE operator starved while a gang operator consumes the VE
        // pool); some other unit's completion must eventually unstall
        // it, which scheduleNext's deadlock check enforces.
    }
    return t;
}

void
NpuCoreSim::updateStats(Cycles now, const StepTotals &totals)
{
    meUseful_.setBusy(now, totals.useful);
    meHeld_.setBusy(now, totals.held);
    veBusy_.setBusy(now, totals.ve);

    if (captureAssignment_) {
        scratchOccupancy_.assign(slots_.size(), 0.0);
        scratchUseful_.assign(slots_.size(), 0.0);
        std::vector<double> &slot_mes = scratchOccupancy_;
        std::vector<double> &slot_ves = scratchUseful_;
        for (const UnitRun *u : running_) {
            if (u->kind == UTopKind::Me)
                slot_mes[u->slot] += u->gang;
            slot_ves[u->slot] +=
                u->penalty > 0.0 ? 0.0 : u->rate * u->veTime;
        }
        for (std::uint32_t s = 0; s < slots_.size(); ++s) {
            slots_[s].assignedMes.record(now, slot_mes[s]);
            slots_[s].assignedVes.record(now, slot_ves[s]);
        }
    }
}

void
NpuCoreSim::completeUnit(UnitRun *u, Cycles now)
{
    if (u->kind == UTopKind::Me && u->budgetSlot != kNoSlot) {
        NEU10_ASSERT(budgetUsed_[u->budgetSlot] >= u->gang,
                     "budget accounting underflow on completion");
        budgetUsed_[u->budgetSlot] -= u->gang;
        u->budgetSlot = kNoSlot;
    }
    if (u->kind == UTopKind::Ve)
        --runningVe_;
    u->running = false;
    u->rate = 0.0;

    RequestExec &req = *u->request;

    NEU10_ASSERT(req.unitsLeft[u->opIdx] > 0, "unit count underflow");
    if (--req.unitsLeft[u->opIdx] == 0) {
        const CompiledOp &op = req.model->ops[u->opIdx];
        if (++req.groupPos[u->opIdx] <
            static_cast<std::uint32_t>(op.groups.size())) {
            enqueueReadyUnits(req, u->opIdx, now);
        } else {
            opFinished(req, u->opIdx, now);
        }
    }
}

void
NpuCoreSim::opFinished(RequestExec &req, std::uint32_t op_idx,
                       Cycles now)
{
    if (captureOpTimings_)
        req.timings[op_idx].end = now;
    ++req.opsDone;

    // Wake dependents.
    const auto nops = static_cast<std::uint32_t>(req.model->ops.size());
    for (std::uint32_t j = op_idx + 1; j < nops; ++j) {
        const auto &deps = req.model->ops[j].deps;
        if (std::find(deps.begin(), deps.end(), op_idx) != deps.end()) {
            NEU10_ASSERT(req.depsLeft[j] > 0, "dep count underflow");
            if (--req.depsLeft[j] == 0)
                enqueueReadyUnits(req, j, now);
        }
    }

    if (req.opsDone == req.model->ops.size()) {
        RequestResult res;
        res.id = req.id;
        res.slot = req.slot;
        res.submitTime = req.submit;
        res.finishTime = now;
        res.opTimings = std::move(req.timings);
        ++slots_[req.slot].requestsCompleted;
        RequestCallback cb = std::move(req.cb);
        requests_.erase(req.id);
        if (cb)
            cb(res);
    }
}

void
NpuCoreSim::onEvent(Cycles now)
{
    pendingEvent_ = kInvalidEvent;
    inEvent_ = true;

    advanceTo(now);

    // Drain completions: one order-preserving pass takes the done
    // units out of the running set, then they complete in running
    // order. Completions cascade only into the ready queues (an op's
    // last unit enqueues the next group; a request callback may submit
    // more), never into the running set, so one pass finds them all.
    scratchDone_.clear();
    size_t kept = 0;
    for (size_t i = 0; i < running_.size(); ++i) {
        UnitRun *u = running_[i];
        if (u->penalty <= 0.0 && u->x >= 1.0 - kDoneEps)
            scratchDone_.push_back(u);
        else
            running_[kept++] = u;
    }
    running_.resize(kept);
    for (UnitRun *u : scratchDone_)
        completeUnit(u, now);

    policy_->scheduleMes(*this, now);
    policy_->scheduleVes(*this, now);
    const StepTotals totals = computeShares(now);
    updateStats(now, totals);

    inEvent_ = false;
    scheduleNext(totals.next);
}

void
NpuCoreSim::scheduleNext(Cycles next)
{
    const Cycles now = queue_.now();
    next = std::min(next, policy_->nextWakeup(*this, now));

    if (next >= kCyclesInf) {
        // Going idle is legal only when no work is left anywhere.
        bool backlog = !running_.empty();
        for (const auto &s : slots_)
            if (!s.readyMe.empty() || !s.readyVe.empty())
                backlog = true;
        if (backlog)
            panic("scheduler deadlock: work exists but no event pending");
        return;
    }

    // Clamp to strictly-future: a wakeup computed a rounding-error past
    // `now` must not re-fire at the same instant forever. Past ~1.7e10
    // cycles now + 1e-6 rounds back to now; the next representable
    // time is the floor there.
    Cycles earliest = now + 1e-6;
    if (!(earliest > now))
        earliest = std::nextafter(now, kCyclesInf);
    next = std::max(next, earliest);
    pendingEvent_ = queue_.schedule(
        next, [this](Cycles t) { onEvent(t); }, EventPriority::Schedule);
}

void
NpuCoreSim::drainSlot(std::uint32_t slot)
{
    NEU10_ASSERT(slot < slots_.size(), "bad slot");
    NEU10_ASSERT(!inEvent_, "drainSlot from inside a core event");
    for (auto it = requests_.begin(); it != requests_.end();) {
        if (it->second->slot != slot) {
            ++it;
            continue;
        }
        for (UnitRun &u : it->second->units) {
            if (u.running) {
                if (u.kind == UTopKind::Me && u.budgetSlot != kNoSlot) {
                    // A drained unit may be a harvester charged to a
                    // *different* slot's budget: release that budget,
                    // not the drained slot's.
                    NEU10_ASSERT(budgetUsed_[u.budgetSlot] >= u.gang,
                                 "budget accounting underflow on "
                                 "drain");
                    budgetUsed_[u.budgetSlot] -= u.gang;
                }
                if (u.kind == UTopKind::Ve)
                    --runningVe_;
                running_.erase(
                    std::find(running_.begin(), running_.end(), &u));
            }
        }
        it = requests_.erase(it);
    }
    slots_[slot].readyMe.clear();
    slots_[slot].readyVe.clear();
}

} // namespace neu10
