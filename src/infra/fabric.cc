#include "infra/fabric.hh"

#include <algorithm>
#include <limits>
#include <queue>
#include <tuple>

#include "sim/logging.hh"
#include "trace/tracer.hh"

namespace vcp {

const char *
fabricPresetName(FabricPreset p)
{
    switch (p) {
    case FabricPreset::SingleLink:
        return "single-link";
    case FabricPreset::LeafSpine:
        return "leaf-spine";
    }
    return "?";
}

bool
fabricPresetFromName(const std::string &name, FabricPreset &out)
{
    if (name == "single-link") {
        out = FabricPreset::SingleLink;
        return true;
    }
    if (name == "leaf-spine") {
        out = FabricPreset::LeafSpine;
        return true;
    }
    return false;
}

Fabric::Fabric(Simulator &sim_, double core_bandwidth)
    : sim(sim_), active_(sim_.now())
{
    if (core_bandwidth <= 0.0)
        fatal("Fabric: core bandwidth must be positive");
    // The degenerate topology: one pipe between two stub switches.
    // Every transfer, whatever its endpoints, crosses this link, so
    // the fabric behaves exactly like the old flat Network pipe.
    FabricNodeId a = addNode(FabricNodeKind::Switch, "edge-a");
    FabricNodeId b = addNode(FabricNodeKind::Switch, "edge-b");
    addLink(a, b, core_bandwidth, 0, "net:core");
    degenerate_ = true;
}

Fabric::~Fabric() = default;

FabricNodeId
Fabric::addNode(FabricNodeKind kind, std::string name)
{
    Node n;
    n.kind = kind;
    n.name = std::move(name);
    nodes_.push_back(std::move(n));
    ++topo_version_;
    return static_cast<FabricNodeId>(nodes_.size() - 1);
}

FabricLinkId
Fabric::addLink(FabricNodeId a, FabricNodeId b, double bandwidth,
                SimDuration latency, std::string name)
{
    if (a < 0 || b < 0 ||
        a >= static_cast<FabricNodeId>(nodes_.size()) ||
        b >= static_cast<FabricNodeId>(nodes_.size()) || a == b)
        fatal("Fabric::addLink: bad endpoints %d-%d", a, b);
    if (bandwidth <= 0.0)
        fatal("Fabric::addLink %s: bandwidth must be positive",
              name.c_str());
    if (latency < 0)
        fatal("Fabric::addLink %s: negative latency", name.c_str());
    Link l;
    l.a = a;
    l.b = b;
    l.latency = latency;
    l.pipe = std::make_unique<SharedBandwidthResource>(sim, name,
                                                       bandwidth);
    links_.push_back(std::move(l));
    FabricLinkId id = static_cast<FabricLinkId>(links_.size() - 1);
    nodes_[a].links.push_back(id);
    nodes_[b].links.push_back(id);
    ++topo_version_;
    return id;
}

void
Fabric::clearTopology()
{
    if (!transfers_.empty())
        panic("Fabric::clearTopology with transfers in flight");
    // Replace the topology wholesale (link pipes carry no pending
    // events before the first transfer).
    nodes_.clear();
    links_.clear();
    route_cache_.clear();
    tors_.clear();
    spines_.clear();
    host_nodes_.clear();
    ds_nodes_.clear();
    hop_names_.clear();
    bound_tracer_ = nullptr;
    ++topo_version_;
    degenerate_ = false;
}

void
Fabric::buildLeafSpine(const FabricConfig &cfg)
{
    if (cfg.racks < 1 || cfg.spines < 1)
        fatal("Fabric: leaf-spine needs >= 1 rack and spine");
    clearTopology();
    leaf_cfg_ = cfg;
    for (int s = 0; s < cfg.spines; ++s)
        spines_.push_back(addNode(FabricNodeKind::Switch,
                                  "spine" + std::to_string(s)));
    for (int r = 0; r < cfg.racks; ++r) {
        FabricNodeId tor = addNode(FabricNodeKind::Switch,
                                   "tor" + std::to_string(r));
        tors_.push_back(tor);
        for (int s = 0; s < cfg.spines; ++s) {
            addLink(tor, spines_[static_cast<std::size_t>(s)],
                    cfg.uplink_bandwidth, cfg.uplink_latency,
                    "up:tor" + std::to_string(r) + "-spine" +
                        std::to_string(s));
        }
    }
}

FabricNodeId
Fabric::attachHost(HostId h, int rack)
{
    if (tors_.empty())
        panic("Fabric::attachHost before buildLeafSpine");
    FabricNodeId n =
        addNode(FabricNodeKind::Host,
                "host" + std::to_string(h.value));
    addLink(n, torNode(rack), leaf_cfg_.edge_bandwidth,
            leaf_cfg_.edge_latency,
            "edge:host" + std::to_string(h.value));
    bindHost(h, n);
    return n;
}

FabricNodeId
Fabric::attachDatastore(DatastoreId d, int rack)
{
    if (tors_.empty())
        panic("Fabric::attachDatastore before buildLeafSpine");
    FabricNodeId n =
        addNode(FabricNodeKind::Datastore,
                "ds" + std::to_string(d.value));
    addLink(n, torNode(rack), leaf_cfg_.edge_bandwidth,
            leaf_cfg_.edge_latency,
            "edge:ds" + std::to_string(d.value));
    bindDatastore(d, n);
    return n;
}

FabricNodeId
Fabric::torNode(int rack) const
{
    if (rack < 0 || static_cast<std::size_t>(rack) >= tors_.size())
        panic("Fabric::torNode: rack %d of %zu", rack, tors_.size());
    return tors_[static_cast<std::size_t>(rack)];
}

void
Fabric::bindHost(HostId h, FabricNodeId n)
{
    if (!h.hasSlot())
        panic("Fabric::bindHost: id %lld carries no arena slot",
              static_cast<long long>(h.value));
    if (h.slot >= host_nodes_.size())
        host_nodes_.resize(h.slot + 1, kInvalidFabricNode);
    host_nodes_[h.slot] = n;
}

void
Fabric::bindDatastore(DatastoreId d, FabricNodeId n)
{
    if (!d.hasSlot())
        panic("Fabric::bindDatastore: id %lld carries no arena slot",
              static_cast<long long>(d.value));
    if (d.slot >= ds_nodes_.size())
        ds_nodes_.resize(d.slot + 1, kInvalidFabricNode);
    ds_nodes_[d.slot] = n;
}

FabricNodeId
Fabric::hostNode(HostId h) const
{
    if (h.slot >= host_nodes_.size())
        return kInvalidFabricNode;
    return host_nodes_[h.slot];
}

FabricNodeId
Fabric::datastoreNode(DatastoreId d) const
{
    if (d.slot >= ds_nodes_.size())
        return kInvalidFabricNode;
    return ds_nodes_[d.slot];
}

bool
Fabric::linkUp(FabricLinkId l) const
{
    return links_.at(static_cast<std::size_t>(l)).up;
}

bool
Fabric::nodeUp(FabricNodeId n) const
{
    return nodes_.at(static_cast<std::size_t>(n)).up;
}

SharedBandwidthResource &
Fabric::link(FabricLinkId l)
{
    return *links_.at(static_cast<std::size_t>(l)).pipe;
}

const SharedBandwidthResource &
Fabric::link(FabricLinkId l) const
{
    return *links_.at(static_cast<std::size_t>(l)).pipe;
}

const std::string &
Fabric::linkName(FabricLinkId l) const
{
    return links_.at(static_cast<std::size_t>(l)).pipe->name();
}

FabricLinkId
Fabric::findLink(const std::string &name) const
{
    for (std::size_t i = 0; i < links_.size(); ++i)
        if (links_[i].pipe->name() == name)
            return static_cast<FabricLinkId>(i);
    return kInvalidFabricLink;
}

SimDuration
Fabric::maxLinkBusyTime() const
{
    SimDuration t = 0;
    for (const Link &l : links_)
        t = std::max(t, l.pipe->busyTime());
    return t;
}

void
Fabric::computeRoutes(FabricNodeId src, RouteTable &rt) const
{
    const std::size_t n = nodes_.size();
    rt.via.assign(n, kInvalidFabricLink);
    rt.prev.assign(n, kInvalidFabricNode);
    rt.reach.assign(n, 0);
    if (!nodes_[static_cast<std::size_t>(src)].up)
        return;

    constexpr SimDuration kInf =
        std::numeric_limits<SimDuration>::max();
    std::vector<SimDuration> dist(n, kInf);
    std::vector<int> hops(n, std::numeric_limits<int>::max());

    // (distance, hop count, node): the hop count in the key makes
    // the tiebreak part of the order Dijkstra settles, so an
    // equal-latency path with fewer hops always wins.
    using Entry = std::tuple<SimDuration, int, FabricNodeId>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
    dist[static_cast<std::size_t>(src)] = 0;
    hops[static_cast<std::size_t>(src)] = 0;
    rt.reach[static_cast<std::size_t>(src)] = 1;
    pq.emplace(0, 0, src);
    while (!pq.empty()) {
        auto [d, h, u] = pq.top();
        pq.pop();
        std::size_t ui = static_cast<std::size_t>(u);
        if (d != dist[ui] || h != hops[ui])
            continue; // stale entry
        for (FabricLinkId li : nodes_[ui].links) {
            const Link &l = links_[static_cast<std::size_t>(li)];
            if (!l.up)
                continue;
            FabricNodeId v = (l.a == u) ? l.b : l.a;
            std::size_t vi = static_cast<std::size_t>(v);
            if (!nodes_[vi].up)
                continue;
            SimDuration nd = d + l.latency;
            int nh = h + 1;
            if (nd < dist[vi] ||
                (nd == dist[vi] && nh < hops[vi])) {
                dist[vi] = nd;
                hops[vi] = nh;
                rt.prev[vi] = u;
                rt.via[vi] = li;
                rt.reach[vi] = 1;
                pq.emplace(nd, nh, v);
            }
        }
    }
}

bool
Fabric::route(FabricNodeId src, FabricNodeId dst,
              std::vector<FabricLinkId> &out)
{
    out.clear();
    if (src < 0 || dst < 0 ||
        src >= static_cast<FabricNodeId>(nodes_.size()) ||
        dst >= static_cast<FabricNodeId>(nodes_.size()))
        return false;
    if (!nodes_[static_cast<std::size_t>(src)].up ||
        !nodes_[static_cast<std::size_t>(dst)].up)
        return false;
    if (src == dst)
        return true;
    if (route_cache_.size() < nodes_.size())
        route_cache_.resize(nodes_.size());
    RouteTable &rt = route_cache_[static_cast<std::size_t>(src)];
    if (rt.version != topo_version_) {
        computeRoutes(src, rt);
        rt.version = topo_version_;
    }
    if (!rt.reach[static_cast<std::size_t>(dst)])
        return false;
    for (FabricNodeId v = dst; v != src;
         v = rt.prev[static_cast<std::size_t>(v)])
        out.push_back(rt.via[static_cast<std::size_t>(v)]);
    std::reverse(out.begin(), out.end());
    return true;
}

void
Fabric::traceHop(const Transfer &t, const Leg &leg)
{
    if (!VCP_TRACER_ON(tracer_) || !t.trace_task)
        return;
    if (bound_tracer_ != tracer_) {
        hop_names_.clear();
        bound_tracer_ = tracer_;
    }
    // Links added after the last binding intern lazily too.
    while (hop_names_.size() < links_.size()) {
        hop_names_.push_back(tracer_->intern(
            "hop:" + links_[hop_names_.size()].pipe->name()));
    }
    tracer_->ring().push(
        {t.leg_start, sim.now() - t.leg_start, t.trace_task,
         hop_names_[static_cast<std::size_t>(leg.link)],
         SpanKind::Sub, t.trace_op, {}});
}

void
Fabric::chargeLegs(FabricTransferId id, Transfer &t,
                   const std::vector<FabricLinkId> &path, Bytes bytes)
{
    t.legs.clear();
    t.legs.reserve(path.size());
    t.tail_latency = 0;
    t.leg_start = sim.now();
    for (FabricLinkId li : path) {
        Leg leg;
        leg.link = li;
        t.legs.push_back(leg);
        t.tail_latency += links_[static_cast<std::size_t>(li)].latency;
    }
    t.legs_pending = static_cast<int>(t.legs.size());
    // Two passes: the pipe jobs only start once the leg vector is
    // complete, so a same-event completion cannot see a partial leg
    // list.
    for (std::uint32_t i = 0; i < t.legs.size(); ++i) {
        Leg &leg = t.legs[i];
        leg.pipe_job =
            links_[static_cast<std::size_t>(leg.link)].pipe
                ->startTransfer(bytes, [this, id, i]() {
                    legDone(id, i);
                });
    }
}

void
Fabric::legDone(FabricTransferId id, std::uint32_t leg)
{
    auto it = transfers_.find(id);
    if (it == transfers_.end())
        panic("Fabric::legDone: unknown transfer %llu",
              static_cast<unsigned long long>(id));
    Transfer &t = it->second;
    Leg &l = t.legs[leg];
    l.done = true;
    traceHop(t, l);
    if (--t.legs_pending == 0)
        completeTransfer(id);
}

void
Fabric::completeTransfer(FabricTransferId id)
{
    auto it = transfers_.find(id);
    Transfer &t = it->second;
    InlineAction done = std::move(t.on_done);
    SimDuration tail = t.tail_latency;
    transfers_.erase(it);
    active_.add(sim.now(), -1);
    // Zero-latency paths (the degenerate fabric) complete inline
    // from the final leg's pipe event — no extra event, so the flat
    // model's event stream is reproduced exactly.
    if (tail > 0) {
        sim.schedule(tail, std::move(done));
        return;
    }
    if (done)
        done();
}

FabricTransferId
Fabric::startTransfer(FabricNodeId src, FabricNodeId dst, Bytes bytes,
                      InlineAction on_done, InlineAction on_error,
                      std::int64_t trace_task, std::uint8_t trace_op)
{
    if (bytes < 0)
        panic("Fabric::startTransfer: negative transfer size");
    bool ok;
    if (degenerate_) {
        // Endpoints are irrelevant: everything crosses the one link.
        path_scratch_.assign(1, 0);
        ok = true;
    } else {
        ok = route(src, dst, path_scratch_);
    }
    if (!ok) {
        ++failed_;
        if (on_error)
            sim.schedule(0, std::move(on_error));
        return 0;
    }
    if (path_scratch_.empty()) {
        // src == dst: nothing to move across the fabric.
        sim.schedule(0, std::move(on_done));
        return 0;
    }
    FabricTransferId id = next_transfer_++;
    Transfer t;
    t.src = src;
    t.dst = dst;
    t.total = static_cast<double>(bytes);
    t.on_done = std::move(on_done);
    t.on_error = std::move(on_error);
    t.trace_task = trace_task;
    t.trace_op = trace_op;
    auto [it, inserted] = transfers_.emplace(id, std::move(t));
    active_.add(sim.now(), 1);
    chargeLegs(id, it->second, path_scratch_, bytes);
    return id;
}

bool
Fabric::cancelTransfer(FabricTransferId id)
{
    auto it = transfers_.find(id);
    if (it == transfers_.end())
        return false;
    for (const Leg &leg : it->second.legs) {
        if (!leg.done)
            links_[static_cast<std::size_t>(leg.link)]
                .pipe->cancelTransfer(leg.pipe_job);
    }
    transfers_.erase(it);
    active_.add(sim.now(), -1);
    return true;
}

Bytes
Fabric::remainingBytes(const Transfer &t)
{
    Bytes most = 0;
    for (const Leg &leg : t.legs) {
        if (leg.done)
            continue;
        most = std::max(
            most, links_[static_cast<std::size_t>(leg.link)]
                      .pipe->remainingBytes(leg.pipe_job));
    }
    return most;
}

void
Fabric::setLinkUp(FabricLinkId l, bool up)
{
    Link &link = links_.at(static_cast<std::size_t>(l));
    if (link.up == up)
        return;
    link.up = up;
    ++topo_version_;
    if (!up)
        repairTransfersOn(l);
}

void
Fabric::setNodeUp(FabricNodeId n, bool up)
{
    Node &node = nodes_.at(static_cast<std::size_t>(n));
    if (node.up == up)
        return;
    node.up = up;
    ++topo_version_;
    if (!up)
        repairTransfersOn(kInvalidFabricLink);
}

void
Fabric::repairTransfersOn(FabricLinkId dead)
{
    // Collect first: rerouting restarts pipe jobs and failing
    // invokes callbacks, either of which may mutate transfers_.
    std::vector<FabricTransferId> affected;
    for (const auto &kv : transfers_) {
        for (const Leg &leg : kv.second.legs) {
            if (leg.done)
                continue;
            const Link &l =
                links_[static_cast<std::size_t>(leg.link)];
            bool broken = leg.link == dead || !l.up ||
                          !nodes_[static_cast<std::size_t>(l.a)].up ||
                          !nodes_[static_cast<std::size_t>(l.b)].up;
            if (broken) {
                affected.push_back(kv.first);
                break;
            }
        }
    }
    for (FabricTransferId id : affected) {
        auto it = transfers_.find(id);
        if (it == transfers_.end())
            continue; // cancelled by an earlier callback
        Transfer &t = it->second;
        // The slowest live leg's backlog is what still has to move;
        // completed legs are sunk cost (their bytes made it over).
        Bytes left = remainingBytes(t);
        for (const Leg &leg : t.legs) {
            if (!leg.done)
                links_[static_cast<std::size_t>(leg.link)]
                    .pipe->cancelTransfer(leg.pipe_job);
        }
        if (route(t.src, t.dst, path_scratch_) &&
            !path_scratch_.empty()) {
            chargeLegs(id, t, path_scratch_, left);
            ++reroutes_;
            continue;
        }
        ++failed_;
        InlineAction err = std::move(t.on_error);
        transfers_.erase(it);
        active_.add(sim.now(), -1);
        if (err)
            err();
    }
}

} // namespace vcp
