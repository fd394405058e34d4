/**
 * @file
 * Tests for the operation cost model: defaults, sampling, and the
 * three database scaling laws.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "controlplane/cost_model.hh"
#include "sim/logging.hh"
#include "sim/summary.hh"

namespace vcp {
namespace {

OpCostModel
makeModel(CostModelConfig cfg = {})
{
    return OpCostModel(cfg, Rng(9));
}

TEST(CostModelTest, DefaultsCoverEveryOp)
{
    CostModelConfig cfg;
    for (std::size_t i = 0; i < kNumOpTypes; ++i) {
        const OpCost &c = cfg.ops[i];
        EXPECT_GT(c.api_mean, 0) << opTypeName(static_cast<OpType>(i));
        EXPECT_GT(c.host_mean, 0);
        EXPECT_GE(c.db_txns, 1);
        EXPECT_GE(c.finalize_txns, 1);
    }
}

TEST(CostModelTest, SamplesArePositiveAndNearMean)
{
    OpCostModel m = makeModel();
    SummaryStats api, host;
    for (int i = 0; i < 20000; ++i) {
        api.add(static_cast<double>(m.sampleApi(OpType::CloneLinked)));
        host.add(
            static_cast<double>(m.sampleHost(OpType::CloneLinked)));
    }
    EXPECT_GT(api.min(), 0.0);
    EXPECT_GT(host.min(), 0.0);
    CostModelConfig cfg;
    const OpCost &c =
        cfg.ops[static_cast<std::size_t>(OpType::CloneLinked)];
    EXPECT_NEAR(api.mean(), static_cast<double>(c.api_mean),
                0.05 * static_cast<double>(c.api_mean));
    EXPECT_NEAR(host.mean(), static_cast<double>(c.host_mean),
                0.05 * static_cast<double>(c.host_mean));
}

TEST(CostModelTest, ConstantScalingIsFlat)
{
    CostModelConfig cfg;
    cfg.db_scaling = DbScaling::Constant;
    OpCostModel m = makeModel(cfg);
    EXPECT_DOUBLE_EQ(m.dbScaleFactor(10), 1.0);
    EXPECT_DOUBLE_EQ(m.dbScaleFactor(1000000), 1.0);
}

TEST(CostModelTest, LogScalingGrowsPerDecade)
{
    CostModelConfig cfg;
    cfg.db_scaling = DbScaling::Logarithmic;
    cfg.db_scale_coeff = 0.5;
    cfg.db_scale_base = 1000;
    OpCostModel m = makeModel(cfg);
    EXPECT_DOUBLE_EQ(m.dbScaleFactor(1000), 1.0);
    EXPECT_DOUBLE_EQ(m.dbScaleFactor(100), 1.0); // below base: flat
    EXPECT_NEAR(m.dbScaleFactor(10000), 1.5, 1e-9);
    EXPECT_NEAR(m.dbScaleFactor(100000), 2.0, 1e-9);
}

TEST(CostModelTest, LinearScalingGrowsProportionally)
{
    CostModelConfig cfg;
    cfg.db_scaling = DbScaling::Linear;
    cfg.db_scale_coeff = 1.0;
    cfg.db_scale_base = 1000;
    OpCostModel m = makeModel(cfg);
    EXPECT_DOUBLE_EQ(m.dbScaleFactor(1000), 1.0);
    EXPECT_NEAR(m.dbScaleFactor(2000), 2.0, 1e-9);
    EXPECT_NEAR(m.dbScaleFactor(4000), 4.0, 1e-9);
}

TEST(CostModelTest, DbTxnSamplingScalesWithInventory)
{
    CostModelConfig cfg;
    cfg.db_scaling = DbScaling::Linear;
    cfg.db_scale_coeff = 1.0;
    cfg.db_scale_base = 1000;
    OpCostModel m = makeModel(cfg);
    SummaryStats small, large;
    for (int i = 0; i < 20000; ++i) {
        small.add(static_cast<double>(m.sampleDbTxn(1000)));
        large.add(static_cast<double>(m.sampleDbTxn(3000)));
    }
    EXPECT_NEAR(large.mean() / small.mean(), 3.0, 0.15);
}

TEST(CostModelTest, LinkedDeltaAllocationFraction)
{
    CostModelConfig cfg;
    cfg.linked_delta_fraction = 0.02;
    OpCostModel m = makeModel(cfg);
    EXPECT_EQ(m.linkedDeltaAllocation(gib(10)),
              static_cast<Bytes>(gib(10) * 0.02));
}

TEST(CostModelTest, InvalidConfigFatal)
{
    CostModelConfig cfg;
    cfg.db_txn_mean = 0;
    EXPECT_THROW(makeModel(cfg), FatalError);

    cfg = CostModelConfig();
    cfg.linked_delta_fraction = 1.5;
    EXPECT_THROW(makeModel(cfg), FatalError);
}

TEST(OpTypesTest, NamesAreDistinct)
{
    std::set<std::string> names;
    for (std::size_t i = 0; i < kNumOpTypes; ++i) {
        std::string name = opTypeName(static_cast<OpType>(i));
        EXPECT_NE(name, "unknown");
        EXPECT_TRUE(names.insert(name).second) << name;
    }
}

TEST(OpTypesTest, EveryOpHasACategory)
{
    for (std::size_t i = 0; i < kNumOpTypes; ++i) {
        OpType t = static_cast<OpType>(i);
        OpCategory c = opCategory(t);
        EXPECT_LT(static_cast<std::size_t>(c), kNumOpCategories);
        EXPECT_STRNE(opCategoryName(c), "unknown");
    }
}

TEST(OpTypesTest, CloneOpsAreProvisioning)
{
    EXPECT_EQ(opCategory(OpType::CloneFull),
              OpCategory::Provisioning);
    EXPECT_EQ(opCategory(OpType::CloneLinked),
              OpCategory::Provisioning);
    EXPECT_EQ(opCategory(OpType::PowerOn), OpCategory::Power);
    EXPECT_EQ(opCategory(OpType::Migrate), OpCategory::Mobility);
    EXPECT_EQ(opCategory(OpType::ReplicateBaseDisk),
              OpCategory::Infrastructure);
}

} // namespace
} // namespace vcp
