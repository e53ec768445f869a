/**
 * @file
 * API-contract and failure-injection tests: invariant violations must
 * be caught loudly (PIM_ASSERT aborts), and cross-cutting API promises
 * (report ordering, determinism, profile sanity) must hold.
 */

#include <gtest/gtest.h>

#include "common/buffer.h"
#include "common/logging.h"
#include "common/table.h"
#include "core/execution_context.h"
#include "core/offload_runtime.h"
#include "sim/stack_profiler.h"
#include "workloads/browser/bitmap.h"
#include "workloads/browser/lzo.h"
#include "workloads/browser/page_data.h"
#include "workloads/browser/scroll_sim.h"
#include "workloads/browser/webpage.h"
#include "workloads/ml/tensor.h"
#include "workloads/video/hw_model.h"
#include "workloads/video/video_gen.h"

namespace pim {
namespace {

using core::ExecutionContext;
using core::ExecutionTarget;

TEST(Contracts, AssertMacroAborts)
{
    EXPECT_DEATH(PIM_PANIC("deliberate %d", 42), "deliberate 42");
    const int x = 1;
    EXPECT_DEATH(PIM_ASSERT(x == 2, "x was %d", x), "x was 1");
}

TEST(Contracts, TableRejectsMismatchedRow)
{
    Table t("t");
    t.SetHeader({"a", "b"});
    EXPECT_DEATH(t.AddRow({"only-one"}), "row width");
}

TEST(Contracts, MatrixBoundsChecked)
{
    ml::Matrix<std::uint8_t> m(4, 4);
    EXPECT_DEATH((void)m.At(4, 0), "out of");
    EXPECT_DEATH((void)m.At(0, -1), "out of");
}

TEST(Contracts, BitmapBoundsChecked)
{
    browser::Bitmap bmp(8, 8);
    EXPECT_DEATH((void)bmp.At(8, 0), "out of");
}

TEST(Contracts, LzoRejectsUndersizedDestination)
{
    pim::SimBuffer<std::uint8_t> src(4096);
    pim::SimBuffer<std::uint8_t> tiny(16);
    ExecutionContext ctx(ExecutionTarget::kCpuOnly);
    EXPECT_DEATH((void)browser::LzoCompress(src, 4096, tiny, ctx),
                 "below bound");
}

TEST(Contracts, CompressBoundIsMonotone)
{
    std::size_t prev = 0;
    for (const std::size_t n : {0u, 1u, 100u, 4096u, 1000000u}) {
        const std::size_t bound = browser::LzoCompressBound(n);
        EXPECT_GE(bound, n);
        EXPECT_GE(bound, prev);
        prev = bound;
    }
}

TEST(Contracts, RunAllReportOrderIsStable)
{
    const auto reports = core::OffloadRuntime().RunAll(
        "k", {}, [](ExecutionContext &ctx) { ctx.ops().Alu(10); });
    ASSERT_EQ(reports.size(), 3u);
    EXPECT_EQ(reports[0].target_name, "CPU-Only");
    EXPECT_EQ(reports[1].target_name, "PIM-Core");
    EXPECT_EQ(reports[2].target_name, "PIM-Acc");
    for (const auto &r : reports) {
        EXPECT_EQ(r.kernel, "k");
    }
}

TEST(Contracts, MeasurementsAreDeterministic)
{
    // Two identical runs must report identical energy and timing.
    const auto run = [] {
        Rng rng(12345);
        browser::Bitmap bmp(64, 64);
        bmp.Randomize(rng);
        ExecutionContext ctx(ExecutionTarget::kCpuOnly);
        ctx.mem().Read(bmp.pixels().SimAddr(0), bmp.size_bytes());
        ctx.ops().VectorAlu(1000);
        const auto r = ctx.Report("probe");
        return std::make_pair(r.TotalEnergyPj(), r.TotalTimeNs());
    };
    const auto a = run();
    const auto b = run();
    EXPECT_DOUBLE_EQ(a.first, b.first);
    EXPECT_DOUBLE_EQ(a.second, b.second);
}

TEST(Contracts, VideoGenIsSeedSensitive)
{
    video::VideoGenConfig a;
    a.width = 64;
    a.height = 32;
    video::VideoGenConfig b = a;
    b.seed = a.seed + 1;
    const auto fa = video::GenerateClip(a, 1);
    const auto fb = video::GenerateClip(b, 1);
    EXPECT_GT(video::MeanAbsDiff(fa[0].y, fb[0].y), 0.5);
}

/** Every page profile must yield a sane, nonzero scroll breakdown. */
class ScrollProfileTest
    : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(ScrollProfileTest, BreakdownSane)
{
    const auto profiles = browser::AllPageProfiles();
    const auto &profile = profiles.at(GetParam());
    const auto r = browser::SimulateScroll(profile);
    EXPECT_GT(r.TotalEnergy(), 0.0) << profile.name;
    EXPECT_GT(r.TilingFraction(), 0.02) << profile.name;
    EXPECT_GT(r.BlittingFraction(), 0.02) << profile.name;
    EXPECT_LT(r.TilingFraction() + r.BlittingFraction(), 0.9)
        << profile.name;
    EXPECT_GT(r.Mpki(), 1.0) << profile.name;
}

INSTANTIATE_TEST_SUITE_P(AllPages, ScrollProfileTest,
                         ::testing::Range(std::size_t{0},
                                          std::size_t{6}));

/** HW-codec model sanity across the full configuration grid. */
class HwGridTest
    : public ::testing::TestWithParam<
          std::tuple<video::HwResolution, bool, video::HwPimMode>>
{
};

TEST_P(HwGridTest, EnergyComponentsNonNegativeAndFinite)
{
    const auto [res, comp, pim] = GetParam();
    for (const bool encoder : {false, true}) {
        const auto e = encoder ? video::HwEncoderEnergy(res, comp, pim)
                               : video::HwDecoderEnergy(res, comp, pim);
        EXPECT_GE(e.dram_mj, 0.0);
        EXPECT_GE(e.memctrl_mj, 0.0);
        EXPECT_GE(e.interconnect_mj, 0.0);
        EXPECT_GT(e.computation_mj, 0.0);
        EXPECT_LT(e.Total(), 1000.0); // sane mJ scale
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, HwGridTest,
    ::testing::Combine(
        ::testing::Values(video::HwResolution::kHd,
                          video::HwResolution::k4k),
        ::testing::Bool(),
        ::testing::Values(video::HwPimMode::kNone,
                          video::HwPimMode::kPimCore,
                          video::HwPimMode::kPimAccel)));

TEST(Contracts, PimAlwaysCutsOffchipTrafficForStreamingKernel)
{
    // Invariant behind every figure: a PIM run of a streaming kernel
    // must never move more bytes over the off-chip channel than the
    // host run moved (the PIM side's "off-chip" is the in-stack path).
    Rng rng(9);
    pim::SimBuffer<std::uint8_t> data(512 * 1024);
    browser::FillPageLikeData(data, rng, 0.5);

    const auto reports = core::OffloadRuntime().RunAll(
        "stream", {data.size_bytes(), 0}, [&](ExecutionContext &ctx) {
            ctx.mem().Read(data.SimAddr(0), data.size_bytes());
            ctx.ops().VectorAlu(data.size());
        });
    const Bytes host = reports[0].counters.OffChipBytes();
    EXPECT_LE(reports[1].counters.OffChipBytes(), host);
    EXPECT_LE(reports[2].counters.OffChipBytes(), host);
}

/** A depth-bounded pass over a short stream that reaches the cap. */
sim::StackProfile
BoundedProfile(std::uint32_t max_assoc)
{
    sim::StackProfilerConfig cfg;
    cfg.num_sets = 4;
    cfg.tracked_assocs = {2};
    cfg.max_assoc = max_assoc;
    cfg.model_prefetcher = true;
    sim::StackDistanceProfiler prof(cfg);
    for (Address a = 0; a < 64 * 64; a += 64) {
        prof.Access(a, 64, sim::AccessType::kWrite);
    }
    return prof.profile();
}

TEST(Contracts, StackProfileRefusesReadoutsAboveItsDepthBound)
{
    // A bounded pass cannot tell hits beyond its cap from far probes;
    // it must fail loudly rather than report them as misses.
    const sim::StackProfile prof = BoundedProfile(4);
    EXPECT_DEATH((void)prof.StatsForAssociativity(5), "depth bound");
    EXPECT_DEATH((void)prof.DramTrafficForAssociativity(
                     5, sim::WritePolicy::kWriteThroughAllocate),
                 "depth bound");
    EXPECT_DEATH((void)prof.PrefetchForAssociativity(5), "depth bound");
}

TEST(Contracts, StackProfileMergeRefusesDifferentDepthBounds)
{
    sim::StackProfile a = BoundedProfile(4);
    const sim::StackProfile b = BoundedProfile(8);
    EXPECT_DEATH(a.Merge(b), "different depth bounds");
}

TEST(Contracts, StackProfilerRefusesTrackedAssocAboveDepthBound)
{
    sim::StackProfilerConfig cfg;
    cfg.tracked_assocs = {2, 8};
    cfg.max_assoc = 4;
    EXPECT_DEATH({ sim::StackDistanceProfiler prof(cfg); },
                 "above the depth bound");
}

} // namespace
} // namespace pim
