/**
 * @file
 * Tests for the core PIM framework: compute models, execution contexts,
 * coherence, area model, PIM-target criteria, offload runtime, vaults.
 */

#include <gtest/gtest.h>

#include "common/buffer.h"
#include "core/area_model.h"
#include "core/coherence.h"
#include "core/compute_model.h"
#include "core/execution_context.h"
#include "core/offload_runtime.h"
#include "core/pim_target.h"

namespace pim::core {
namespace {

TEST(ComputeModel, TargetNames)
{
    EXPECT_STREQ(TargetName(ExecutionTarget::kCpuOnly), "CPU-Only");
    EXPECT_STREQ(TargetName(ExecutionTarget::kPimCore), "PIM-Core");
    EXPECT_STREQ(TargetName(ExecutionTarget::kPimAccel), "PIM-Acc");
}

TEST(ComputeModel, IssueTimeScalarVsSimd)
{
    ComputeModel m;
    m.freq_ghz = 1.0;
    m.sustained_ipc = 1.0;
    m.simd_width = 4;

    sim::OpCounts scalar;
    scalar.alu = 1000;
    EXPECT_DOUBLE_EQ(m.IssueTime(scalar), 1000.0);

    sim::OpCounts vec;
    vec.alu = 1000;
    vec.simd_eligible = 1000;
    EXPECT_DOUBLE_EQ(m.IssueTime(vec), 250.0);
}

TEST(ComputeModel, PimCoreSlowerIssueThanCpuPerLane)
{
    // Per core, the 1-wide PIM core issues 4x slower than the OoO CPU;
    // across the 4 cooperating vault cores the totals even out.
    sim::OpCounts ops;
    ops.alu = 10000;
    ops.load = 2000;
    ComputeModel cpu = CpuComputeModel();
    ComputeModel pim = PimCoreComputeModel();
    ComputeModel pim_single = pim;
    pim_single.parallel_lanes = 1.0;
    EXPECT_LT(cpu.IssueTime(ops), pim_single.IssueTime(ops));
    EXPECT_NEAR(pim.IssueTime(ops) * pim.parallel_lanes,
                pim_single.IssueTime(ops), 1e-9);
}

TEST(ComputeModel, EnergyOrdering)
{
    // Data-parallel work (the PIM targets' dominant mix).
    sim::OpCounts ops;
    ops.alu = 1000;
    ops.simd_eligible = 1000;
    const PicoJoules cpu = CpuComputeModel().ComputeEnergy(ops);
    const PicoJoules pim = PimCoreComputeModel().ComputeEnergy(ops);
    const PicoJoules acc = PimAccelComputeModel().ComputeEnergy(ops);
    EXPECT_GT(cpu, pim);
    EXPECT_GT(pim, acc);
    // The paper assumes the accelerator is 20x the CPU's efficiency.
    EXPECT_NEAR(cpu / acc, 20.0, 1e-9);
}

TEST(ComputeModel, AcceleratorThroughputScalesWithUnits)
{
    sim::OpCounts ops;
    ops.alu = 16000;
    const auto one = PimAccelComputeModel(1, 4.0).IssueTime(ops);
    const auto four = PimAccelComputeModel(4, 4.0).IssueTime(ops);
    EXPECT_DOUBLE_EQ(one, 4.0 * four);
}

TEST(ExecutionContext, ReportsOpsAndTraffic)
{
    ExecutionContext ctx(ExecutionTarget::kCpuOnly);
    pim::SimBuffer<std::uint8_t> buf(4096);
    ctx.mem().Read(buf.SimAddr(0), 4096);
    ctx.ops().Alu(100);
    ctx.ops().Load(64);

    const RunReport r = ctx.Report("probe");
    EXPECT_EQ(r.kernel, "probe");
    EXPECT_EQ(r.ops.Total(), 164u);
    EXPECT_EQ(r.counters.l1.Misses(), 64u);
    EXPECT_EQ(r.counters.OffChipBytes(), 4096u);
    EXPECT_GT(r.energy.Total(), 0.0);
    EXPECT_GT(r.TotalTimeNs(), 0.0);
}

TEST(ExecutionContext, ResetClearsMeasurement)
{
    ExecutionContext ctx(ExecutionTarget::kPimCore);
    pim::SimBuffer<std::uint8_t> buf(1024);
    ctx.mem().Read(buf.SimAddr(0), 1024);
    ctx.ops().Alu(10);
    ctx.Reset();
    const RunReport r = ctx.Report("empty");
    EXPECT_EQ(r.ops.Total(), 0u);
    EXPECT_EQ(r.counters.OffChipBytes(), 0u);
}

TEST(ExecutionContext, PimHierarchyHasNoLlc)
{
    ExecutionContext ctx(ExecutionTarget::kPimAccel);
    pim::SimBuffer<std::uint8_t> buf(1024);
    ctx.mem().Read(buf.SimAddr(0), 1024);
    const RunReport r = ctx.Report("x");
    EXPECT_FALSE(r.counters.has_llc);
    EXPECT_DOUBLE_EQ(r.energy.llc, 0.0);
}

TEST(Coherence, ScalesWithFootprint)
{
    const CoherenceCost small = EstimateOffloadCoherence(64_KiB, 64_KiB);
    const CoherenceCost large = EstimateOffloadCoherence(1_MiB, 1_MiB);
    EXPECT_GT(large.messages, small.messages);
    EXPECT_GT(large.energy_pj, small.energy_pj);
    EXPECT_GE(large.time_ns, small.time_ns);
}

TEST(Coherence, ZeroFootprintStillPaysLaunch)
{
    const CoherenceCost c = EstimateOffloadCoherence(0, 0);
    EXPECT_GE(c.messages, 2u); // launch + complete
    EXPECT_GT(c.time_ns, 0.0);
}

TEST(Coherence, DirtyFractionDrivesWritebacks)
{
    CoherenceParams params;
    params.host_dirty_fraction = 0.5;
    params.host_resident_fraction = 0.5;
    const CoherenceCost c =
        EstimateOffloadCoherence(1_MiB, 0, params);
    EXPECT_EQ(c.dirty_writebacks, 1_MiB / 64 / 2);
}

TEST(AreaModel, PaperPublishedNumbers)
{
    // Section 3.3: the PIM core needs <= 9.4% of the per-vault budget.
    EXPECT_NEAR(FractionOfVaultBudget(PimCoreArea()), 0.094, 0.001);
    // Section 4.2.2: texture tiling accelerator <= 7.1%.
    EXPECT_LE(FractionOfVaultBudget(TextureTilingAccelArea()), 0.072);
    // Section 6.2.2: sub-pixel interpolation 6.0%, deblocking 3.4%.
    EXPECT_NEAR(FractionOfVaultBudget(SubPixelInterpAccelArea()), 0.060,
                0.001);
    EXPECT_NEAR(FractionOfVaultBudget(DeblockingAccelArea()), 0.034,
                0.001);
    // Section 7.2.2: motion estimation 35.4%.
    EXPECT_NEAR(FractionOfVaultBudget(MotionEstimationAccelArea()), 0.354,
                0.001);
}

TEST(AreaModel, EverythingFitsTheVaultBudget)
{
    for (const PimLogicArea &logic : AllPimLogicAreas()) {
        EXPECT_TRUE(FitsVaultBudget(logic)) << logic.name;
    }
}

TEST(AreaModel, OversizedLogicRejected)
{
    EXPECT_FALSE(FitsVaultBudget({"huge", 5.0}));
}

TEST(PimTarget, TextureTilingStyleKernelQualifies)
{
    // A function dominating workload energy, memory-bound, faster on PIM.
    std::vector<FunctionEnergyShare> shares = {
        {"tiling", 500.0, 400.0},
        {"other", 300.0, 100.0},
    };
    RunReport cpu;
    cpu.ops.alu = 1000;
    cpu.counters.has_llc = true;
    cpu.counters.llc.read_misses = 50; // MPKI 50
    cpu.timing.issue_ns = 1000;
    RunReport pim;
    pim.timing.issue_ns = 400;

    const PimTargetVerdict v = EvaluatePimTarget(
        shares, 0, cpu, pim, TextureTilingAccelArea());
    EXPECT_TRUE(v.top_energy_function);
    EXPECT_TRUE(v.significant_movement);
    EXPECT_TRUE(v.memory_intensive);
    EXPECT_TRUE(v.movement_dominates);
    EXPECT_TRUE(v.no_perf_loss_on_pim);
    EXPECT_TRUE(v.area_fits);
    EXPECT_TRUE(v.IsPimTarget());
}

TEST(PimTarget, ComputeBoundKernelRejected)
{
    // Conv2D/MatMul-style: most energy is compute, low MPKI.
    std::vector<FunctionEnergyShare> shares = {
        {"gemm", 800.0, 250.0}, // movement only 31% of its energy
        {"other", 100.0, 50.0},
    };
    RunReport cpu;
    cpu.ops.alu = 1'000'000;
    cpu.counters.has_llc = true;
    cpu.counters.llc.read_misses = 2000; // MPKI 2
    cpu.timing.issue_ns = 1000;
    RunReport pim;
    pim.timing.issue_ns = 4000; // slower on the 1-wide PIM core

    const PimTargetVerdict v =
        EvaluatePimTarget(shares, 0, cpu, pim, PimCoreArea());
    EXPECT_FALSE(v.memory_intensive);
    EXPECT_FALSE(v.movement_dominates);
    EXPECT_FALSE(v.no_perf_loss_on_pim);
    EXPECT_FALSE(v.IsPimTarget());
}

TEST(OffloadRuntime, CpuRunHasNoOverhead)
{
    OffloadRuntime rt;
    const std::vector<RunReport> r =
        rt.RunAll("k", {1_MiB, 1_MiB}, [](ExecutionContext &ctx) {
            ctx.ops().Alu(100);
        });
    ASSERT_EQ(r.size(), 3u);
    EXPECT_EQ(r[0].target, ExecutionTarget::kCpuOnly);
    EXPECT_DOUBLE_EQ(r[0].overhead_ns, 0.0);
    EXPECT_DOUBLE_EQ(r[0].energy.interconnect, 0.0);
}

TEST(OffloadRuntime, PimRunPaysCoherence)
{
    OffloadRuntime rt;
    const std::vector<RunReport> r =
        rt.RunAll("k", {1_MiB, 1_MiB}, [](ExecutionContext &ctx) {
            ctx.ops().Alu(100);
        });
    ASSERT_EQ(r.size(), 3u);
    // Both PIM runs pay launch and coherence.
    for (const RunReport &pim : {r[1], r[2]}) {
        EXPECT_GT(pim.overhead_ns, 0.0);
        EXPECT_GT(pim.energy.interconnect, 0.0);
    }
}

} // namespace
} // namespace pim::core
