#include "cloud/pool_manager.hh"

#include <algorithm>
#include <limits>

#include "cloud/placement.hh"
#include "sim/logging.hh"

namespace vcp {

BaseDiskPoolManager::BaseDiskPoolManager(ManagementServer &server,
                                         const PoolConfig &cfg_,
                                         PlacementEngine &placement_)
    : srv(server), inv(server.inventory()), placement(placement_),
      cfg(cfg_)
{
    if (cfg.max_clones_per_base < 1)
        fatal("BaseDiskPoolManager: max_clones_per_base must be >= 1");
    if (cfg.replication_factor < 1)
        fatal("BaseDiskPoolManager: replication_factor must be >= 1");
}

void
BaseDiskPoolManager::registerTemplate(TemplateId tmpl, DiskId seed_disk)
{
    if (!inv.hasDisk(seed_disk))
        panic("BaseDiskPoolManager: seed disk does not exist");
    const VirtualDisk &d = inv.disk(seed_disk);
    pools[tmpl].push_back({seed_disk, d.datastore});
}

bool
BaseDiskPoolManager::usable(const BaseReplica &r, HostId host,
                            Bytes delta_need) const
{
    if (!inv.hasDisk(r.disk))
        return false;
    const VirtualDisk &d = inv.disk(r.disk);
    if (d.ref_count >= cfg.max_clones_per_base)
        return false;
    if (host.valid() && !inv.host(host).hasDatastore(r.datastore))
        return false;
    if (inv.datastore(r.datastore).free() < delta_need)
        return false;
    return true;
}

std::optional<BaseReplica>
BaseDiskPoolManager::findReplica(TemplateId tmpl, HostId host,
                                 Bytes delta_need) const
{
    auto it = pools.find(tmpl);
    if (it == pools.end())
        return std::nullopt;
    const BaseReplica *best = nullptr;
    int best_refs = std::numeric_limits<int>::max();
    for (const BaseReplica &r : it->second) {
        if (!usable(r, host, delta_need))
            continue;
        int refs = inv.disk(r.disk).ref_count;
        if (refs < best_refs) {
            best_refs = refs;
            best = &r;
        }
    }
    if (!best)
        return std::nullopt;
    return *best;
}

std::optional<BaseReplica>
BaseDiskPoolManager::pickSource(TemplateId tmpl) const
{
    auto it = pools.find(tmpl);
    if (it == pools.end())
        return std::nullopt;
    const BaseReplica *best = nullptr;
    int best_refs = std::numeric_limits<int>::max();
    for (const BaseReplica &r : it->second) {
        if (!inv.hasDisk(r.disk))
            continue;
        int refs = inv.disk(r.disk).ref_count;
        if (refs < best_refs) {
            best_refs = refs;
            best = &r;
        }
    }
    if (!best)
        return std::nullopt;
    return *best;
}

DatastoreId
BaseDiskPoolManager::pickTargetDatastore(TemplateId tmpl,
                                         HostId host) const
{
    auto src = pickSource(tmpl);
    if (!src)
        return DatastoreId();
    Bytes need = inv.disk(src->disk).capacity;

    // Datastores already at their per-DS replica limit (counting
    // the one possibly in flight).
    auto at_replica_limit = [&](DatastoreId ds) {
        int count = 0;
        auto it = pools.find(tmpl);
        if (it != pools.end()) {
            for (const BaseReplica &r : it->second) {
                if (r.datastore == ds && inv.hasDisk(r.disk))
                    ++count;
            }
        }
        if (inflight.count({tmpl, ds}) > 0)
            ++count;
        return count >= cfg.max_replicas_per_datastore;
    };

    std::vector<DatastoreId> candidates;
    if (host.valid()) {
        candidates = inv.host(host).datastores();
    } else {
        candidates = inv.datastoreIds();
    }

    DatastoreId best;
    Bytes best_free = -1;
    for (DatastoreId ds : candidates) {
        if (at_replica_limit(ds))
            continue;
        const Datastore &d = inv.datastore(ds);
        if (d.free() < need)
            continue;
        if (d.free() > best_free) {
            best_free = d.free();
            best = ds;
        }
    }
    return best;
}

HostId
BaseDiskPoolManager::pickWorkerHost(DatastoreId ds)
{
    return placement.leastCommitted([ds](const Host &h) {
        return h.connected() && !h.inMaintenance() && h.hasDatastore(ds);
    });
}

void
BaseDiskPoolManager::requestReplica(TemplateId tmpl, DatastoreId dst)
{
    auto src = pickSource(tmpl);
    if (!src) {
        panic("BaseDiskPoolManager: replication with no source");
    }
    HostId worker = pickWorkerHost(dst);
    auto key = std::make_pair(tmpl, dst);
    if (!worker.valid()) {
        // Nobody can reach the target; fail all waiters.
        ++repl_failed;
        auto node = inflight.extract(key);
        if (!node.empty()) {
            for (auto &cb : node.mapped())
                cb(std::nullopt);
        }
        return;
    }

    ++repl_issued;
    OpRequest req;
    req.type = OpType::ReplicateBaseDisk;
    req.base_disk = src->disk;
    req.datastore = dst;
    req.host = worker;
    srv.submit(req, [this, tmpl, dst, key](const Task &t) {
        std::optional<BaseReplica> result;
        if (t.succeeded()) {
            ++repl_ok;
            BaseReplica r{t.resultDisk(), dst};
            pools[tmpl].push_back(r);
            result = r;
        } else {
            ++repl_failed;
        }
        auto node = inflight.extract(key);
        if (!node.empty()) {
            for (auto &cb : node.mapped())
                cb(result);
        }
    });
}

void
BaseDiskPoolManager::ensureReplica(TemplateId tmpl, HostId host,
                                   Bytes delta_need, EnsureCb done)
{
    if (auto r = findReplica(tmpl, host, delta_need)) {
        done(r);
        return;
    }
    // Join an in-flight replication reachable from this host.
    for (auto &kv : inflight) {
        if (kv.first.first != tmpl)
            continue;
        DatastoreId ds = kv.first.second;
        if (!host.valid() || inv.host(host).hasDatastore(ds)) {
            kv.second.push_back(std::move(done));
            return;
        }
    }
    DatastoreId target = pickTargetDatastore(tmpl, host);
    if (!target.valid()) {
        done(std::nullopt);
        return;
    }
    auto key = std::make_pair(tmpl, target);
    inflight[key].push_back(std::move(done));
    requestReplica(tmpl, target);
}

double
BaseDiskPoolManager::poolUtilization(TemplateId tmpl) const
{
    auto it = pools.find(tmpl);
    if (it == pools.end())
        return 0.0;
    int used = 0;
    int total = 0;
    for (const BaseReplica &r : it->second) {
        if (!inv.hasDisk(r.disk))
            continue;
        used += inv.disk(r.disk).ref_count;
        total += cfg.max_clones_per_base;
    }
    return total > 0 ? static_cast<double>(used) / total : 0.0;
}

const std::vector<BaseReplica> &
BaseDiskPoolManager::replicas(TemplateId tmpl) const
{
    static const std::vector<BaseReplica> empty;
    auto it = pools.find(tmpl);
    return it == pools.end() ? empty : it->second;
}

void
BaseDiskPoolManager::runMaintenanceOnce()
{
    for (auto &kv : pools) {
        TemplateId tmpl = kv.first;
        // Prune replicas whose disk was destroyed.
        auto &vec = kv.second;
        vec.erase(std::remove_if(vec.begin(), vec.end(),
                                 [this](const BaseReplica &r) {
                                     return !inv.hasDisk(r.disk);
                                 }),
                  vec.end());

        bool needs_more =
            static_cast<int>(vec.size()) < cfg.replication_factor ||
            poolUtilization(tmpl) > cfg.preplicate_threshold;
        if (!needs_more)
            continue;
        DatastoreId target = pickTargetDatastore(tmpl, HostId());
        if (!target.valid())
            continue;
        auto key = std::make_pair(tmpl, target);
        if (inflight.count(key))
            continue;
        inflight[key]; // mark in flight (no waiters)
        requestReplica(tmpl, target);
    }
}

void
BaseDiskPoolManager::scheduleNextScan()
{
    srv.simulator().schedule(cfg.check_period, [this]() {
        if (!maintenance_running)
            return;
        runMaintenanceOnce();
        scheduleNextScan();
    });
}

void
BaseDiskPoolManager::startMaintenance()
{
    if (maintenance_running)
        return;
    maintenance_running = true;
    scheduleNextScan();
}

} // namespace vcp
