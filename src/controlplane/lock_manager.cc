#include "controlplane/lock_manager.hh"

#include <algorithm>
#include <memory>

#include "sim/logging.hh"
#include "telemetry/telemetry.hh"
#include "trace/tracer.hh"

namespace vcp {

LockManager::LockManager(Simulator &sim_)
    : sim(sim_)
{}

void
LockManager::setTracer(SpanTracer *t)
{
    tracer = t;
    if (tracer)
        wait_name = tracer->intern("lock.wait");
}

void
LockManager::setTelemetry(TelemetryRegistry *reg)
{
    t_wait = nullptr;
    if (!reg)
        return;
    reg->addCounterProbe("locks.grant", [this] { return grant_count; });
    reg->addCounterProbe("locks.contended",
                         [this] { return contended_count; });
    t_wait = reg->histogram("locks.wait_us");
}

bool
LockManager::compatible(const Entry &e, LockMode mode)
{
    if (e.exclusive_held)
        return false;
    if (mode == LockMode::Exclusive)
        return e.shared_holders == 0;
    return true;
}

void
LockManager::acquireOne(const LockKey &key, LockMode mode,
                        InlineAction granted)
{
    Entry &e = table[key];
    // FIFO fairness: even a compatible request waits behind queued
    // waiters, preventing writer starvation.
    if (e.queue.empty() && compatible(e, mode)) {
        if (mode == LockMode::Exclusive)
            e.exclusive_held = true;
        else
            e.shared_holders += 1;
        granted();
        return;
    }
    e.queue.push_back({mode, std::move(granted)});
}

void
LockManager::releaseOne(const LockKey &key, LockMode mode)
{
    auto it = table.find(key);
    if (it == table.end())
        panic("LockManager: release of unheld key (kind %d, id %lld)",
              static_cast<int>(key.kind),
              static_cast<long long>(key.id));
    Entry &e = it->second;
    if (mode == LockMode::Exclusive) {
        if (!e.exclusive_held)
            panic("LockManager: exclusive release without hold");
        e.exclusive_held = false;
    } else {
        if (e.shared_holders <= 0)
            panic("LockManager: shared release without hold");
        e.shared_holders -= 1;
    }
    // Wake queued waiters in FIFO order while they remain
    // compatible.  Hold state is updated immediately, but the
    // callbacks are deferred through zero-delay events: a woken
    // waiter may synchronously release locks (a fast-failing task),
    // and re-entering this function mid-iteration would invalidate
    // the entry we are walking.
    std::vector<InlineAction> to_fire;
    while (!e.queue.empty() && compatible(e, e.queue.front().mode)) {
        Waiter w = std::move(e.queue.front());
        e.queue.pop_front();
        if (w.mode == LockMode::Exclusive)
            e.exclusive_held = true;
        else
            e.shared_holders += 1;
        to_fire.push_back(std::move(w.granted));
        // An exclusive grant blocks everything behind it.
        if (w.mode == LockMode::Exclusive)
            break;
    }
    if (e.queue.empty() && !e.exclusive_held && e.shared_holders == 0)
        table.erase(it);
    for (auto &cb : to_fire)
        sim.schedule(0, std::move(cb));
}

struct LockManager::AcquireCtx
{
    std::vector<LockRequest> reqs;
    std::size_t next = 0;
    SimTime started = 0;
    InlineAction granted;
};

void
LockManager::acquireStep(const std::shared_ptr<AcquireCtx> &ctx)
{
    if (ctx->next >= ctx->reqs.size()) {
        SimDuration waited = sim.now() - ctx->started;
        // Only contended acquisitions make a span: uncontended grants
        // are the overwhelming majority and carry no information.
        if (waited > 0 && VCP_TRACER_ON(tracer))
            tracer->recordSpan(wait_name, 0, ctx->started, waited);
        // Likewise only contended waits feed the wait histogram:
        // zeros would drown it.
        if (waited > 0) {
            ++contended_count;
            if (VCP_TELEM_ON(t_wait))
                t_wait->add(waited);
        }
        ++grant_count;
        InlineAction done = std::move(ctx->granted);
        done();
        return;
    }
    const LockRequest &r = ctx->reqs[ctx->next];
    ctx->next += 1;
    acquireOne(r.key, r.mode,
               [this, ctx]() { acquireStep(ctx); });
}

void
LockManager::acquireAll(std::vector<LockRequest> requests,
                        InlineAction granted)
{
    // Canonical order prevents deadlock between concurrent
    // multi-lock acquisitions.
    std::sort(requests.begin(), requests.end(),
              [](const LockRequest &a, const LockRequest &b) {
                  return a.key < b.key;
              });

    auto ctx = std::make_shared<AcquireCtx>();
    ctx->reqs = std::move(requests);
    ctx->started = sim.now();
    ctx->granted = std::move(granted);
    acquireStep(ctx);
}

void
LockManager::releaseAll(const std::vector<LockRequest> &requests)
{
    // Release in reverse canonical order (order is not semantically
    // required, but determinism aids debugging).
    std::vector<LockRequest> sorted = requests;
    std::sort(sorted.begin(), sorted.end(),
              [](const LockRequest &a, const LockRequest &b) {
                  return b.key < a.key;
              });
    for (const auto &r : sorted)
        releaseOne(r.key, r.mode);
}

int
LockManager::holders(const LockKey &key) const
{
    auto it = table.find(key);
    if (it == table.end())
        return 0;
    return it->second.exclusive_held ? 1 : it->second.shared_holders;
}

std::size_t
LockManager::waiters(const LockKey &key) const
{
    auto it = table.find(key);
    return it == table.end() ? 0 : it->second.queue.size();
}

} // namespace vcp
