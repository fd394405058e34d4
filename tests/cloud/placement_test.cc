/**
 * @file
 * Tests for the placement engine: host load balancing, datastore
 * policies, pool-aware linked-clone placement.
 */

#include "cloud_fixture.hh"

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace vcp {
namespace {

class PlacementTest : public CloudFixture
{
  protected:
    PlacementQuery
    query(Bytes disk_need = gib(1), bool linked = false)
    {
        PlacementQuery q;
        q.vcpus = 1;
        q.memory = gib(2);
        q.disk_need = disk_need;
        q.tmpl = tmpl();
        q.linked = linked;
        return q;
    }
};

TEST_F(PlacementTest, PicksLeastLoadedHost)
{
    // Load host 0 heavily.
    HostId h0 = cs->hostIds()[0];
    inv().host(h0).commit(30, gib(30));
    Placement p = cloud().placement().place(query());
    ASSERT_TRUE(p.ok);
    EXPECT_NE(p.host, h0);
}

TEST_F(PlacementTest, FailsWhenNoHostAdmits)
{
    for (HostId h : cs->hostIds())
        inv().host(h).setMaintenance(true);
    Placement p = cloud().placement().place(query());
    EXPECT_FALSE(p.ok);
}

TEST_F(PlacementTest, FailsWhenNoDatastoreFits)
{
    Placement p = cloud().placement().place(query(gib(100000)));
    EXPECT_FALSE(p.ok);
}

TEST_F(PlacementTest, MostFreePolicyPicksEmptierDatastore)
{
    DatastoreId ds0 = cs->datastoreIds()[0];
    DatastoreId ds1 = cs->datastoreIds()[1];
    inv().datastore(ds0).reserve(gib(100));
    Placement p = cloud().placement().place(query());
    ASSERT_TRUE(p.ok);
    EXPECT_EQ(p.datastore, ds1);
}

TEST_F(PlacementTest, LinkedPrefersDatastoreWithBase)
{
    // The template seed base lives on one datastore; a linked query
    // must find it.
    Placement p = cloud().placement().place(query(mib(100), true));
    ASSERT_TRUE(p.ok);
    ASSERT_TRUE(p.base_found);
    EXPECT_EQ(inv().disk(p.base.disk).datastore, p.datastore);
}

TEST_F(PlacementTest, LinkedFallsBackWhenBaseSaturated)
{
    // Saturate the seed base's clone slots.
    const auto &reps = cloud().pool().replicas(tmpl());
    ASSERT_EQ(reps.size(), 1u);
    inv().disk(reps[0].disk).ref_count =
        cloud().pool().config().max_clones_per_base;
    Placement p = cloud().placement().place(query(mib(100), true));
    ASSERT_TRUE(p.ok);
    EXPECT_FALSE(p.base_found);
}

TEST_F(PlacementTest, PendingLedgerSpreadsSimultaneousPlacements)
{
    // Without resolution between calls, repeated placements must not
    // pile onto one host: the pending footprint counts as load.
    PlacementEngine &pe = cloud().placement();
    std::map<HostId, int> per_host;
    for (int i = 0; i < 8; ++i) {
        Placement p = pe.place(query());
        ASSERT_TRUE(p.ok);
        per_host[p.host] += 1;
    }
    // 4 hosts, 8 placements: perfectly balanced is 2 each.
    for (const auto &kv : per_host)
        EXPECT_EQ(kv.second, 2) << "host " << kv.first.value;
    EXPECT_EQ(pe.pendingVcpus(cs->hostIds()[0]), 2);
}

TEST_F(PlacementTest, ResolveReleasesPendingFootprint)
{
    PlacementEngine &pe = cloud().placement();
    PlacementQuery q = query();
    Placement p = pe.place(q);
    ASSERT_TRUE(p.ok);
    EXPECT_EQ(pe.pendingVcpus(p.host), q.vcpus);
    EXPECT_EQ(pe.pendingMemory(p.host), q.memory);
    pe.resolve(p.host, q.vcpus, q.memory);
    EXPECT_EQ(pe.pendingVcpus(p.host), 0);
    EXPECT_EQ(pe.pendingMemory(p.host), 0);
}

TEST_F(PlacementTest, ResolveWithoutPlacementPanics)
{
    EXPECT_THROW(cloud().placement().resolve(cs->hostIds()[0], 1,
                                             gib(1)),
                 PanicError);
}

TEST_F(PlacementTest, PendingLoadBlocksAdmission)
{
    // Fill a host's admission capacity purely with pending
    // placements; further queries must go elsewhere or fail.
    PlacementEngine &pe = cloud().placement();
    PlacementQuery big = query();
    big.vcpus = 64; // host capacity: 16 cores x 4.0 = 64 vCPUs
    std::set<HostId> used;
    for (int i = 0; i < 4; ++i) {
        Placement p = pe.place(big);
        ASSERT_TRUE(p.ok);
        EXPECT_TRUE(used.insert(p.host).second)
            << "host reused while pending-full";
    }
    Placement overflow = pe.place(big);
    EXPECT_FALSE(overflow.ok);
}

/**
 * place() against a brute-force reference on a 72-host plant with
 * random commitments, pending footprints, hosts in maintenance or
 * disconnected, uneven datastore reach and forced load ties.  Between
 * queries the walk also commits and releases on random hosts and adds
 * a host, so an engine whose host order goes stale fails it.
 */
class PlacementOrderTest : public CloudFixture
{
  protected:
    PlacementOrderTest()
    {
        CloudSetupSpec spec = makeSpec();
        spec.infra.hosts = 72; // 64 vCPUs, 76.8 GiB admissible each
        build(spec);
    }

    /** What the reference found for one query. */
    struct Expected
    {
        HostId host;
        bool tied = false;    ///< another host has the same load
        bool skipped = false; ///< a lower-ordered host was passed over
    };

    /**
     * The reference: sort every host by (effective load, id), then
     * take the first that admits @p q and has a usable base replica
     * or a datastore that fits.
     */
    Expected
    reference(const PlacementQuery &q)
    {
        PlacementEngine &pe = cloud().placement();
        std::vector<std::pair<double, HostId>> order;
        for (HostId h : inv().hostIds()) {
            const Host &host = inv().host(h);
            double pend = static_cast<double>(pe.pendingVcpus(h));
            order.emplace_back(
                (host.committedVcpus() + pend) / host.vcpuCapacity(), h);
        }
        std::sort(order.begin(), order.end());

        Expected e;
        for (std::size_t i = 0; i < order.size(); ++i) {
            HostId h = order[i].second;
            const Host &host = inv().host(h);
            bool fits = host.connected() && !host.inMaintenance() &&
                        host.committedVcpus() + pe.pendingVcpus(h) +
                                q.vcpus <=
                            host.vcpuCapacity() &&
                        host.committedMemory() + pe.pendingMemory(h) +
                                q.memory <=
                            host.memoryCapacity();
            bool storage =
                q.linked &&
                cloud().pool().findReplica(q.tmpl, h, q.disk_need);
            for (DatastoreId ds : host.datastores())
                storage |= inv().datastore(ds).free() >= q.disk_need;
            if (!fits || !storage)
                continue;
            e.host = h;
            e.skipped = i > 0;
            e.tied = (i > 0 && order[i - 1].first == order[i].first) ||
                     (i + 1 < order.size() &&
                      order[i + 1].first == order[i].first);
            break;
        }
        return e;
    }
};

TEST_F(PlacementOrderTest, MatchesBruteForceSortOrder)
{
    Rng rng(2024);
    auto pick = [&](const auto &options) {
        return options[static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(options.size()) - 1))];
    };
    std::vector<HostId> hosts = cs->hostIds();

    // Shared datastores nearly full: only small disks fit there.
    DatastoreId ds0 = cs->datastoreIds()[0];
    DatastoreId ds1 = cs->datastoreIds()[1];
    inv().datastore(ds0).reserve(inv().datastore(ds0).free() - gib(3));
    inv().datastore(ds1).reserve(inv().datastore(ds1).free() - mib(500));

    // Private datastores reached by random subsets of hosts; the
    // first holds a second template, so its replica is only usable
    // from hosts that reach it.
    std::vector<DatastoreId> priv;
    for (Bytes cap : {gib(64), gib(40), gib(400), gib(4)}) {
        DatastoreConfig dc;
        dc.name = "priv" + std::to_string(priv.size());
        dc.capacity = cap;
        priv.push_back(inv().addDatastore(dc));
    }
    for (HostId h : hosts) {
        for (DatastoreId ds : priv) {
            if (rng.bernoulli(0.3))
                inv().connectHostToDatastore(h, ds);
        }
    }
    TemplateId private_tmpl = cloud().createTemplate(
        "private", priv[0], gib(8), 0.5, 1, gib(2), 1, hours(8));

    // A few commitment levels, so many hosts tie on load (and all
    // the zero-load hosts tie until the id decides).
    for (HostId h : hosts) {
        Host &host = inv().host(h);
        host.commit(pick(std::vector<int>{0, 0, 0, 16, 32, 48, 60, 64}),
                    pick(std::vector<Bytes>{0, gib(16), gib(60)}));
        host.setMaintenance(rng.bernoulli(0.1));
        host.setConnected(!rng.bernoulli(0.1));
    }

    PlacementEngine &pe = cloud().placement();
    struct Held
    {
        HostId host;
        int vcpus;
        Bytes memory;
    };
    std::vector<Held> held;
    std::vector<Held> committed;
    int placed = 0, failed = 0, tied = 0, skipped = 0;
    int commits = 0, releases = 0, on_added = 0;
    HostId added;
    for (int i = 0; i < 400; ++i) {
        PlacementQuery q;
        q.vcpus = pick(std::vector<int>{1, 2, 4, 8, 16});
        q.memory = pick(std::vector<Bytes>{gib(1), gib(4), gib(16)});
        q.disk_need = pick(
            std::vector<Bytes>{mib(100), gib(2), gib(20), gib(200)});
        q.linked = rng.bernoulli(0.5);
        q.tmpl = rng.bernoulli(0.5) ? tmpl() : private_tmpl;

        Expected want = reference(q);
        Placement p = pe.place(q);
        ASSERT_EQ(p.ok, want.host.valid()) << "query " << i;
        if (!p.ok) {
            ++failed;
        } else {
            ASSERT_EQ(p.host, want.host) << "query " << i;
            EXPECT_TRUE(inv().host(p.host).hasDatastore(p.datastore));
            EXPECT_GE(inv().datastore(p.datastore).free(), q.disk_need);
            held.push_back({p.host, q.vcpus, q.memory});
            ++placed;
            on_added += p.host == added;
            tied += want.tied;
            skipped += want.skipped;
        }

        // Churn the state between queries.
        if (!held.empty() && rng.bernoulli(0.4)) {
            std::size_t k = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(held.size()) - 1));
            pe.resolve(held[k].host, held[k].vcpus, held[k].memory);
            held.erase(held.begin() + static_cast<std::ptrdiff_t>(k));
        }
        if (rng.bernoulli(0.05))
            inv().host(pick(hosts)).setMaintenance(rng.bernoulli(0.5));
        if (rng.bernoulli(0.05))
            inv().host(pick(hosts)).setConnected(rng.bernoulli(0.5));

        // Commitments move outside the engine (power-ons, power-offs,
        // crashes).
        if (rng.bernoulli(0.3)) {
            Held c{pick(hosts), pick(std::vector<int>{1, 4, 8, 16}),
                   pick(std::vector<Bytes>{gib(1), gib(8)})};
            if (inv().host(c.host).commit(c.vcpus, c.memory)) {
                committed.push_back(c);
                ++commits;
            }
        }
        if (!committed.empty() && rng.bernoulli(0.3)) {
            std::size_t k = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(committed.size()) - 1));
            inv().host(committed[k].host)
                .release(committed[k].vcpus, committed[k].memory);
            committed.erase(committed.begin() +
                            static_cast<std::ptrdiff_t>(k));
            ++releases;
        }
        if (i == 200) {
            HostConfig hc = inv().host(hosts[0]).config();
            hc.name = "added";
            added = inv().addHost(hc);
            inv().connectHostToDatastore(added, ds0);
            inv().connectHostToDatastore(added, priv[2]);
            hosts.push_back(added);
        }
    }
    // The walk saw every kind of decision.
    EXPECT_GT(placed, 100);
    EXPECT_GT(failed, 0);
    EXPECT_GT(tied, 0);
    EXPECT_GT(skipped, 0);
    EXPECT_GT(commits, 50);
    EXPECT_GT(releases, 50);
    EXPECT_GT(on_added, 0);
}

} // namespace
} // namespace vcp
