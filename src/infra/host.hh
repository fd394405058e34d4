/**
 * @file
 * Physical host (hypervisor) model: capacity, admission accounting,
 * and connection state.  Op execution on the host is modeled by the
 * control plane's HostAgent; the Host itself tracks what is placed
 * where and whether new placements fit.
 */

#ifndef VCP_INFRA_HOST_HH
#define VCP_INFRA_HOST_HH

#include <string>
#include <unordered_set>
#include <vector>

#include "infra/ids.hh"
#include "sim/types.hh"

namespace vcp {

/** Static sizing of a host. */
struct HostConfig
{
    std::string name;
    int cores = 16;
    double mhz_per_core = 2400.0;
    Bytes memory = 0;

    /** CPU overcommit: vCPUs admitted per physical core. */
    double cpu_overcommit = 4.0;

    /** Memory overcommit factor (>1 admits more than physical). */
    double mem_overcommit = 1.2;
};

/** One hypervisor host. */
class Host
{
  public:
    Host(HostId id, const HostConfig &cfg);

    HostId id() const { return host_id; }
    const std::string &name() const { return cfg.name; }
    const HostConfig &config() const { return cfg; }
    ClusterId cluster() const { return cluster_id; }
    void setCluster(ClusterId c) { cluster_id = c; }

    /** Datastores this host can reach. */
    const std::vector<DatastoreId> &datastores() const { return stores; }
    void attachDatastore(DatastoreId d);
    bool hasDatastore(DatastoreId d) const;

    /** Connection to the management server. */
    bool connected() const { return is_connected; }
    void setConnected(bool c) { is_connected = c; }

    /** Maintenance mode rejects new placements. */
    bool inMaintenance() const { return maintenance; }
    void setMaintenance(bool m) { maintenance = m; }

    /** @return true if a VM of this shape can be admitted now. */
    bool canAdmit(int vcpus, Bytes memory) const;

    /**
     * Account a powered-on VM's resources.
     * @return false if it does not fit (nothing is committed).
     */
    bool commit(int vcpus, Bytes memory);

    /** Release a powered-on VM's resources. */
    void release(int vcpus, Bytes memory);

    /**
     * Put this host on its inventory's load-change list unless it is
     * already there (Inventory::drainLoadChanges()).  commit() and
     * release() call it, and so does the placement engine when a
     * pending footprint on the host goes.  A host built outside an
     * inventory has no list.
     */
    void markLoadChanged();

    /** Register / unregister a VM on this host. */
    void registerVm(VmId vm) { vm_ids.insert(vm); }
    void unregisterVm(VmId vm) { vm_ids.erase(vm); }
    bool hasVm(VmId vm) const { return vm_ids.count(vm) > 0; }

    /** All VMs registered here (powered on or not). */
    const std::unordered_set<VmId> &vms() const { return vm_ids; }
    std::size_t numVms() const { return vm_ids.size(); }

    /** Admission capacity in vCPUs. */
    double vcpuCapacity() const;

    /** Admission capacity in bytes of memory. */
    Bytes memoryCapacity() const;

    int committedVcpus() const { return committed_vcpus; }
    Bytes committedMemory() const { return committed_memory; }

    /** Fraction of vCPU admission capacity in use, in [0, 1+]. */
    double cpuLoad() const;

  private:
    friend class Inventory;

    HostId host_id;
    HostConfig cfg;
    ClusterId cluster_id;
    std::vector<DatastoreId> stores;
    std::unordered_set<VmId> vm_ids;
    bool is_connected = true;
    bool maintenance = false;
    int committed_vcpus = 0;
    Bytes committed_memory = 0;

    /** The owning inventory's load-change list, and whether this
     *  host is on it. */
    std::vector<HostId> *load_changes = nullptr;
    bool load_marked = false;
};

} // namespace vcp

#endif // VCP_INFRA_HOST_HH
