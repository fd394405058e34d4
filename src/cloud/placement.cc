#include "cloud/placement.hh"

#include <algorithm>
#include <functional>
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

Placement
PlacementEngine::place(const PlacementQuery &q)
{
    // Visit hosts in ascending (effective load, id) order.  Each load
    // is computed once; hosts pop off a min-heap only as the walk
    // needs them, and the first host usually takes the VM.
    by_load.clear();
    for (HostId h : inv.hostIds()) {
        const Host &host = inv.host(h);
        double pend = static_cast<double>(pendingVcpus(h));
        by_load.emplace_back(
            (host.committedVcpus() + pend) / host.vcpuCapacity(), h);
    }
    std::make_heap(by_load.begin(), by_load.end(), std::greater<>());

    Placement result;
    auto accept = [&](HostId h, DatastoreId ds) {
        result.ok = true;
        result.host = h;
        result.datastore = ds;
        PendingLoad &p = pending[h];
        p.vcpus += q.vcpus;
        p.memory += q.memory;
    };
    for (auto end = by_load.end(); end != by_load.begin(); --end) {
        std::pop_heap(by_load.begin(), end, std::greater<>());
        HostId h = end[-1].second;
        const Host &host = inv.host(h);
        if (!admits(host, q))
            continue;

        if (q.linked && pool) {
            if (auto r = pool->findReplica(q.tmpl, h, q.disk_need)) {
                accept(h, r->datastore);
                result.base_found = true;
                result.base = *r;
                return result;
            }
        }
        DatastoreId ds = pickDatastore(host, q.disk_need);
        if (!ds.valid())
            continue;
        accept(h, ds);
        result.base_found = false;
        return result;
    }
    return result;
}

} // namespace vcp
