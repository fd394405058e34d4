#include "infra/host.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "sim/logging.hh"

namespace vcp {

Host::Host(HostId id, const HostConfig &cfg_)
    : host_id(id), cfg(cfg_)
{
    if (cfg.cores <= 0 || cfg.memory <= 0)
        fatal("Host %s: cores and memory must be positive",
              cfg.name.c_str());
    if (cfg.cpu_overcommit <= 0.0 || cfg.mem_overcommit <= 0.0)
        fatal("Host %s: overcommit factors must be positive",
              cfg.name.c_str());
}

void
Host::attachDatastore(DatastoreId d)
{
    if (!hasDatastore(d))
        stores.push_back(d);
}

bool
Host::hasDatastore(DatastoreId d) const
{
    return std::find(stores.begin(), stores.end(), d) != stores.end();
}

double
Host::vcpuCapacity() const
{
    return cfg.cores * cfg.cpu_overcommit;
}

Bytes
Host::memoryCapacity() const
{
    return static_cast<Bytes>(static_cast<double>(cfg.memory) *
                              cfg.mem_overcommit);
}

bool
Host::canAdmit(int vcpus, Bytes memory) const
{
    if (!is_connected || maintenance)
        return false;
    if (committed_vcpus + vcpus > vcpuCapacity())
        return false;
    if (committed_memory + memory > memoryCapacity())
        return false;
    return true;
}

bool
Host::commit(int vcpus, Bytes memory)
{
    if (!canAdmit(vcpus, memory))
        return false;
    committed_vcpus += vcpus;
    committed_memory += memory;
    markLoadChanged();
    return true;
}

void
Host::release(int vcpus, Bytes memory)
{
    committed_vcpus -= vcpus;
    committed_memory -= memory;
    if (committed_vcpus < 0 || committed_memory < 0)
        panic("Host %s: released more than committed", cfg.name.c_str());
    markLoadChanged();
}

void
Host::markLoadChanged()
{
    if (load_changes && !load_marked) {
        load_marked = true;
        load_changes->push_back(host_id);
    }
}

double
Host::cpuLoad() const
{
    return static_cast<double>(committed_vcpus) / vcpuCapacity();
}

} // namespace vcp
