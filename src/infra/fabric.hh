/**
 * @file
 * The routed network fabric: topology, link-state routing, and
 * multi-hop transfers with failure rerouting.
 *
 * The flat single-pipe network model (network.hh) cannot localize
 * congestion: every cross-datastore copy shares one PS pipe, so an
 * oversubscribed spine and a rack-local copy look identical.  The
 * fabric replaces that with an adjacency-list topology of nodes
 * (hosts, datastores, ToR/spine switches) and links, each link its
 * own SharedBandwidthResource with its own latency and bandwidth.
 *
 * Routing is link-state shortest path: Dijkstra over the live
 * topology weighted by link latency with a hop-count tiebreak,
 * cached per source node and invalidated by a topology version
 * counter that every link/node up/down event bumps.  A transfer
 * charges *every* leg of its path concurrently (full remaining
 * bytes on each link's PS share) and completes when the slowest leg
 * drains — the fluid-model equivalent of being bottlenecked by the
 * most congested link — plus the path's total propagation latency.
 *
 * When a link or node dies mid-transfer, in-flight transfers
 * crossing it are rerouted: outstanding legs are cancelled, the
 * maximum remaining bytes across legs are re-charged on the freshly
 * computed path, or the transfer fails with its error callback if
 * the destination became unreachable.
 *
 * The default topology is the single-link degenerate fabric: one
 * pipe ("net:core", the old flat model), zero latency, every
 * endpoint pair routed across it.  A degenerate transfer is charged
 * exactly like the old Network::fabric() call — one PS job, no
 * extra events, no RNG touches — so existing outputs stay
 * byte-identical.
 */

#ifndef VCP_INFRA_FABRIC_HH
#define VCP_INFRA_FABRIC_HH

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "infra/bandwidth.hh"
#include "infra/ids.hh"
#include "sim/level_integral.hh"
#include "sim/simulator.hh"
#include "sim/types.hh"

namespace vcp {

class SpanTracer;

/** Dense node index in the fabric topology (never recycled). */
using FabricNodeId = std::int32_t;

/** Dense link index in the fabric topology (never recycled). */
using FabricLinkId = std::int32_t;

/** Handle to an in-flight multi-hop transfer. */
using FabricTransferId = std::uint64_t;

constexpr FabricNodeId kInvalidFabricNode = -1;
constexpr FabricLinkId kInvalidFabricLink = -1;

/** What a fabric node models (diagnostics and placement only). */
enum class FabricNodeKind : std::uint8_t
{
    Host,
    Datastore,
    Switch,
};

/** Topology presets the Network can build at construction. */
enum class FabricPreset
{
    /** One shared pipe, the classic flat model (the default). */
    SingleLink,
    /** Racks of hosts/datastores under ToR switches joined by a
     *  spine layer (attachHost/attachDatastore bind endpoints). */
    LeafSpine,
};

/** Stable name for a preset ("single-link", "leaf-spine"). */
const char *fabricPresetName(FabricPreset p);

/** Parse a preset name; false if unknown. */
bool fabricPresetFromName(const std::string &name, FabricPreset &out);

/** Static sizing of the fabric topology. */
struct FabricConfig
{
    FabricPreset preset = FabricPreset::SingleLink;

    /** @{ Leaf-spine shape (ignored for SingleLink). */
    int racks = 4;
    int spines = 2;

    /** Host/datastore <-> ToR link capacity. */
    double edge_bandwidth = 1.25e9;

    /** ToR <-> spine uplink capacity.  Sizing this below
     *  racks * edge_bandwidth oversubscribes the spine. */
    double uplink_bandwidth = 1.25e9;

    SimDuration edge_latency = 0;
    SimDuration uplink_latency = 0;
    /** @} */
};

/** The routed data-movement fabric. */
class Fabric
{
  public:
    /**
     * @param sim event kernel every link pipe schedules on.
     * @param core_bandwidth capacity of the degenerate single link
     *        (ignored once buildLeafSpine() replaces the topology).
     */
    Fabric(Simulator &sim, double core_bandwidth);
    ~Fabric();

    Fabric(const Fabric &) = delete;
    Fabric &operator=(const Fabric &) = delete;

    /** @{ Topology building. */

    /**
     * Drop the whole topology — including the degenerate core link —
     * so a custom graph can be hand-built with addNode()/addLink().
     * Must be called before any transfer starts.
     */
    void clearTopology();

    /** Add a node; @return its dense id. */
    FabricNodeId addNode(FabricNodeKind kind, std::string name);

    /**
     * Add a bidirectional link between @p a and @p b.
     * @param bandwidth capacity in bytes/s (> 0).
     * @param latency one-way propagation latency (>= 0).
     */
    FabricLinkId addLink(FabricNodeId a, FabricNodeId b,
                         double bandwidth, SimDuration latency,
                         std::string name);

    /**
     * Replace the degenerate single link with a leaf-spine switch
     * skeleton: @p cfg.racks ToR switches each connected to
     * @p cfg.spines spine switches.  Endpoints attach afterwards
     * with attachHost()/attachDatastore().  Must be called before
     * any transfer starts.
     */
    void buildLeafSpine(const FabricConfig &cfg);

    /** Create a node for @p h, link it to rack @p rack's ToR, and
     *  bind the id.  @pre buildLeafSpine() ran. */
    FabricNodeId attachHost(HostId h, int rack);

    /** Create a node for @p d under rack @p rack's ToR and bind. */
    FabricNodeId attachDatastore(DatastoreId d, int rack);

    /** ToR switch node of @p rack.  @pre buildLeafSpine() ran. */
    FabricNodeId torNode(int rack) const;
    /** @} */

    /** @{ Endpoint binding and lookup. */
    void bindHost(HostId h, FabricNodeId n);
    void bindDatastore(DatastoreId d, FabricNodeId n);

    /** Bound node of @p h; kInvalidFabricNode when unbound. */
    FabricNodeId hostNode(HostId h) const;
    /** Bound node of @p d; kInvalidFabricNode when unbound. */
    FabricNodeId datastoreNode(DatastoreId d) const;
    /** @} */

    /** @{ Link-state events.  Both bump the topology version
     *  (invalidating every cached route) and reroute or fail the
     *  in-flight transfers crossing the dead element. */
    void setLinkUp(FabricLinkId l, bool up);
    void setNodeUp(FabricNodeId n, bool up);

    bool linkUp(FabricLinkId l) const;
    bool nodeUp(FabricNodeId n) const;
    /** @} */

    /**
     * Shortest live path from @p src to @p dst (latency-weighted,
     * hop-count tiebreak), as the link ids crossed in order.
     * Served from the per-source cache when the topology has not
     * changed.  @return false when unreachable.
     */
    bool route(FabricNodeId src, FabricNodeId dst,
               std::vector<FabricLinkId> &out);

    /**
     * Start a routed transfer of @p bytes from @p src to @p dst.
     *
     * Every path leg is charged concurrently on its link's PS pipe;
     * the transfer completes when the last leg drains, after which
     * the path's summed latency elapses (zero latency fires
     * @p on_done inline from the completing leg — the degenerate
     * fabric therefore reproduces the flat model's event stream
     * exactly).  If the destination is unreachable — now, or after
     * a mid-flight failure exhausts rerouting — @p on_error fires
     * instead (on the next event cycle when unreachable at start).
     *
     * @param trace_task owning task id for per-hop spans (0 = no
     *        hop tracing); @p trace_op the op-type axis value.
     * @return handle usable with cancelTransfer().
     */
    FabricTransferId startTransfer(FabricNodeId src, FabricNodeId dst,
                                   Bytes bytes, InlineAction on_done,
                                   InlineAction on_error = {},
                                   std::int64_t trace_task = 0,
                                   std::uint8_t trace_op = 0);

    /** Abort an in-flight transfer; neither callback fires.
     *  @return true if the transfer existed. */
    bool cancelTransfer(FabricTransferId id);

    /** @{ Introspection. */
    bool degenerate() const { return degenerate_; }
    std::size_t numNodes() const { return nodes_.size(); }
    std::size_t numLinks() const { return links_.size(); }
    std::size_t activeTransfers() const { return transfers_.size(); }
    /** activeTransfers() with its time integral (a telemetry gauge). */
    const LevelIntegral &activeTransfersLevel() const { return active_; }

    /** A link's PS pipe (utilization probes, direct charging). */
    SharedBandwidthResource &link(FabricLinkId l);
    const SharedBandwidthResource &link(FabricLinkId l) const;

    const std::string &linkName(FabricLinkId l) const;

    /** Find a link by name; kInvalidFabricLink when absent. */
    FabricLinkId findLink(const std::string &name) const;

    /** @{ Leaf-spine switch skeleton (empty on other topologies) —
     *  fault injection picks partition victims from these. */
    const std::vector<FabricNodeId> &torNodes() const { return tors_; }
    const std::vector<FabricNodeId> &spineNodes() const
    {
        return spines_;
    }
    /** @} */

    /** Busiest-link busy time (the degenerate fabric's single link
     *  makes this the old flat-pipe busy time exactly). */
    SimDuration maxLinkBusyTime() const;

    /** In-flight transfers successfully moved to a new path. */
    std::uint64_t reroutes() const { return reroutes_; }

    /** Transfers failed by an unreachable destination. */
    std::uint64_t failedTransfers() const { return failed_; }
    /** @} */

    /** Attach the span tracer for per-hop data-copy spans (hop
     *  names are interned lazily).  Pass nullptr to detach. */
    void setTracer(SpanTracer *t) { tracer_ = t; }

  private:
    struct Node
    {
        FabricNodeKind kind;
        std::string name;
        bool up = true;
        /** Incident link ids (adjacency list). */
        std::vector<FabricLinkId> links;
    };

    struct Link
    {
        FabricNodeId a;
        FabricNodeId b;
        SimDuration latency;
        bool up = true;
        std::unique_ptr<SharedBandwidthResource> pipe;
    };

    /** One charged path leg of an in-flight transfer. */
    struct Leg
    {
        FabricLinkId link;
        TransferId pipe_job;
        bool done = false;
    };

    struct Transfer
    {
        FabricNodeId src;
        FabricNodeId dst;
        double total = 0.0;
        std::vector<Leg> legs;
        int legs_pending = 0;
        SimDuration tail_latency = 0;
        SimTime leg_start = 0;
        InlineAction on_done;
        InlineAction on_error;
        std::int64_t trace_task = 0;
        std::uint8_t trace_op = 0;
    };

    /** Per-source cached shortest-path tree. */
    struct RouteTable
    {
        std::uint64_t version = 0;
        std::vector<FabricLinkId> via;   ///< link into each node
        std::vector<FabricNodeId> prev;  ///< predecessor node
        std::vector<std::uint8_t> reach; ///< reachable flag
    };

    /** Recompute @p rt as the shortest-path tree rooted at @p src. */
    void computeRoutes(FabricNodeId src, RouteTable &rt) const;

    /** Charge every leg of @p path for @p t (remaining bytes). */
    void chargeLegs(FabricTransferId id, Transfer &t,
                    const std::vector<FabricLinkId> &path,
                    Bytes bytes);

    /** One leg finished; completes the transfer on the last one. */
    void legDone(FabricTransferId id, std::uint32_t leg);

    /** All legs drained: propagation tail, then the callback. */
    void completeTransfer(FabricTransferId id);

    /** Reroute or fail every transfer with a leg on @p l. */
    void repairTransfersOn(FabricLinkId l);

    /** Record the per-hop Sub span for a finished leg. */
    void traceHop(const Transfer &t, const Leg &leg);

    /** Largest remaining byte count across @p t's live legs. */
    Bytes remainingBytes(const Transfer &t);

    Simulator &sim;
    std::vector<Node> nodes_;
    std::vector<Link> links_;
    bool degenerate_ = true;

    /** Leaf-spine skeleton (empty otherwise). */
    std::vector<FabricNodeId> tors_;
    std::vector<FabricNodeId> spines_;
    FabricConfig leaf_cfg_;

    /** HostId/DatastoreId slot -> node. */
    std::vector<FabricNodeId> host_nodes_;
    std::vector<FabricNodeId> ds_nodes_;

    std::uint64_t topo_version_ = 1;
    mutable std::vector<RouteTable> route_cache_;

    std::unordered_map<FabricTransferId, Transfer> transfers_;
    /** transfers_.size(), with its integral: every insert and erase
     *  of transfers_ moves it. */
    LevelIntegral active_;
    FabricTransferId next_transfer_ = 1;
    std::vector<FabricLinkId> path_scratch_;

    std::uint64_t reroutes_ = 0;
    std::uint64_t failed_ = 0;

    /** @{ Lazily interned per-link hop names ("hop:<link>"). */
    SpanTracer *tracer_ = nullptr;
    SpanTracer *bound_tracer_ = nullptr;
    std::vector<std::uint16_t> hop_names_;
    /** @} */
};

} // namespace vcp

#endif // VCP_INFRA_FABRIC_HH
