#include "cloud/placement.hh"

#include <limits>

#include "sim/logging.hh"

namespace vcp {

const char *
dsPolicyName(DsPolicy p)
{
    switch (p) {
      case DsPolicy::MostFree:
        return "most-free";
      case DsPolicy::Pack:
        return "pack";
      case DsPolicy::RoundRobin:
        return "round-robin";
    }
    return "unknown";
}

PlacementEngine::PlacementEngine(Inventory &inventory,
                                 BaseDiskPoolManager *pool_,
                                 DsPolicy policy)
    : inv(inventory), pool(pool_), ds_policy(policy)
{}

DatastoreId
PlacementEngine::pickDatastore(const Host &host, Bytes need)
{
    const auto &candidates = host.datastores();
    if (candidates.empty())
        return DatastoreId();

    switch (ds_policy) {
      case DsPolicy::MostFree: {
        DatastoreId best;
        Bytes best_free = -1;
        for (DatastoreId ds : candidates) {
            Bytes f = inv.datastore(ds).free();
            if (f >= need && f > best_free) {
                best_free = f;
                best = ds;
            }
        }
        return best;
      }
      case DsPolicy::Pack: {
        DatastoreId best;
        Bytes best_free = std::numeric_limits<Bytes>::max();
        for (DatastoreId ds : candidates) {
            Bytes f = inv.datastore(ds).free();
            if (f >= need && f < best_free) {
                best_free = f;
                best = ds;
            }
        }
        return best;
      }
      case DsPolicy::RoundRobin: {
        for (std::size_t i = 0; i < candidates.size(); ++i) {
            DatastoreId ds =
                candidates[(rr_cursor + i) % candidates.size()];
            if (inv.datastore(ds).free() >= need) {
                rr_cursor = (rr_cursor + i + 1) % candidates.size();
                return ds;
            }
        }
        return DatastoreId();
      }
    }
    return DatastoreId();
}

bool
PlacementEngine::admits(const Host &host, const PlacementQuery &q) const
{
    if (!host.connected() || host.inMaintenance())
        return false;
    PendingLoad p;
    auto it = pending.find(host.id());
    if (it != pending.end())
        p = it->second;
    if (host.committedVcpus() + p.vcpus + q.vcpus >
        host.vcpuCapacity()) {
        return false;
    }
    if (host.committedMemory() + p.memory + q.memory >
        host.memoryCapacity()) {
        return false;
    }
    return true;
}

void
PlacementEngine::resolve(HostId host, int vcpus, Bytes memory)
{
    auto it = pending.find(host);
    if (it == pending.end())
        panic("PlacementEngine::resolve with no pending load");
    it->second.vcpus -= vcpus;
    it->second.memory -= memory;
    if (it->second.vcpus < 0 || it->second.memory < 0)
        panic("PlacementEngine: pending ledger underflow");
    if (it->second.vcpus == 0 && it->second.memory == 0)
        pending.erase(it);
    inv.host(host).markLoadChanged();
}

int
PlacementEngine::pendingVcpus(HostId host) const
{
    auto it = pending.find(host);
    return it == pending.end() ? 0 : it->second.vcpus;
}

Bytes
PlacementEngine::pendingMemory(HostId host) const
{
    auto it = pending.find(host);
    return it == pending.end() ? 0 : it->second.memory;
}

double
PlacementEngine::effectiveLoad(const Host &host) const
{
    double pend = static_cast<double>(pendingVcpus(host.id()));
    return (host.committedVcpus() + pend) / host.vcpuCapacity();
}

PlacementEngine::LoadIndex::iterator
PlacementEngine::rekey(LoadIndex &index, LoadIndex::iterator node,
                       double load)
{
    if (node->first == load)
        return node;
    auto nh = index.extract(node);
    nh.value().first = load;
    return index.insert(std::move(nh)).position;
}

void
PlacementEngine::syncIndex()
{
    const std::vector<HostId> &ids = inv.hostIds();
    for (std::size_t i = by_load.size(); i < ids.size(); ++i) {
        HostId h = ids[i];
        const Host &host = inv.host(h);
        if (h.slot >= nodes.size())
            nodes.resize(h.slot + 1);
        nodes[h.slot] = {by_load.emplace(effectiveLoad(host), h).first,
                         by_committed.emplace(host.cpuLoad(), h).first};
    }
    inv.drainLoadChanges([this](HostId h) {
        const Host &host = inv.host(h);
        Nodes &n = nodes[h.slot];
        n.effective = rekey(by_load, n.effective, effectiveLoad(host));
        n.committed = rekey(by_committed, n.committed, host.cpuLoad());
    });
}

Placement
PlacementEngine::place(const PlacementQuery &q)
{
    // Visit hosts in ascending (effective load, id) order; the first
    // host usually takes the VM.
    syncIndex();

    Placement result;
    auto accept = [&](LoadIndex::iterator node, DatastoreId ds) {
        HostId h = node->second;
        result.ok = true;
        result.host = h;
        result.datastore = ds;
        PendingLoad &p = pending[h];
        p.vcpus += q.vcpus;
        p.memory += q.memory;
        nodes[h.slot].effective =
            rekey(by_load, node, effectiveLoad(inv.host(h)));
    };
    for (auto node = by_load.begin(); node != by_load.end(); ++node) {
        HostId h = node->second;
        const Host &host = inv.host(h);
        if (!admits(host, q))
            continue;

        if (q.linked && pool) {
            if (auto r = pool->findReplica(q.tmpl, h, q.disk_need)) {
                accept(node, r->datastore);
                result.base_found = true;
                result.base = *r;
                return result;
            }
        }
        DatastoreId ds = pickDatastore(host, q.disk_need);
        if (!ds.valid())
            continue;
        accept(node, ds);
        result.base_found = false;
        return result;
    }
    return result;
}

HostId
PlacementEngine::migrationTarget(const Vm &vm, HostId from)
{
    return leastCommitted([&](const Host &cand) {
        if (cand.id() == from || !cand.canAdmit(vm.vcpus, vm.memory))
            return false;
        for (DiskId d : vm.disks)
            if (!cand.hasDatastore(inv.disk(d).datastore))
                return false;
        return true;
    });
}

} // namespace vcp
