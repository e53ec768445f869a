/**
 * @file
 * Cross-module integration tests: the paper's end-to-end claims, run
 * through the offload runtime over the real kernels.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/offload_runtime.h"
#include "core/pim_target.h"
#include "workloads/browser/lzo.h"
#include "workloads/browser/page_data.h"
#include "workloads/browser/texture_tiler.h"
#include "workloads/ml/gemm.h"
#include "workloads/ml/pack.h"
#include "workloads/ml/quantize.h"
#include "workloads/video/motion.h"
#include "workloads/video/subpel.h"
#include "workloads/video/video_gen.h"

namespace pim {
namespace {

using core::ExecutionContext;
using core::ExecutionTarget;
using core::OffloadFootprint;
using core::OffloadRuntime;
using core::RunReport;

/** Figure 18 shape for a kernel: report triple (CPU, PIM-Core, PIM-Acc). */
struct KernelReports
{
    RunReport cpu;
    RunReport pim_core;
    RunReport pim_acc;
};

KernelReports
RunKernel(const std::string &name, const OffloadFootprint &footprint,
          const std::function<void(ExecutionContext &)> &kernel)
{
    OffloadRuntime rt;
    const auto reports = rt.RunAll(name, footprint, kernel);
    return {reports[0], reports[1], reports[2]};
}

TEST(Integration, TextureTilingMatchesPaperShape)
{
    browser::Bitmap linear(512, 512);
    Rng rng(1);
    linear.Randomize(rng);

    const auto r = RunKernel(
        "texture-tiling",
        {linear.size_bytes(), linear.size_bytes()},
        [&](ExecutionContext &ctx) {
            browser::TiledTexture tiled(512, 512);
            browser::TileTexture(linear, tiled, ctx);
        });

    // Energy: PIM beats CPU; accelerator is at least as good as core.
    EXPECT_LT(r.pim_core.TotalEnergyPj(), r.cpu.TotalEnergyPj());
    EXPECT_LE(r.pim_acc.TotalEnergyPj(),
              r.pim_core.TotalEnergyPj() * 1.02);
    // Performance: PIM at least matches the host on this kernel.
    EXPECT_LE(r.pim_core.TotalTimeNs(), r.cpu.TotalTimeNs());
    EXPECT_LE(r.pim_acc.TotalTimeNs(), r.cpu.TotalTimeNs());
    // CPU run is memory-bound: movement dominates, MPKI > 10.
    EXPECT_GT(r.cpu.energy.DataMovementFraction(), 0.6);
    EXPECT_GT(r.cpu.Mpki(), 10.0);
}

TEST(Integration, TextureTilingPassesPimTargetCriteria)
{
    browser::Bitmap linear(512, 512);
    Rng rng(2);
    linear.Randomize(rng);
    const auto r = RunKernel(
        "texture-tiling",
        {linear.size_bytes(), linear.size_bytes()},
        [&](ExecutionContext &ctx) {
            browser::TiledTexture tiled(512, 512);
            browser::TileTexture(linear, tiled, ctx);
        });

    // Treat tiling as the top function of a scroll whose remaining
    // energy is "other" (as Figure 2 attributes it).
    std::vector<core::FunctionEnergyShare> shares = {
        {"texture-tiling", r.cpu.TotalEnergyPj(),
         r.cpu.energy.DataMovement()},
        {"other", r.cpu.TotalEnergyPj() * 0.9,
         r.cpu.TotalEnergyPj() * 0.3},
    };
    const auto verdict = core::EvaluatePimTarget(
        shares, 0, r.cpu, r.pim_acc, core::TextureTilingAccelArea());
    EXPECT_TRUE(verdict.IsCandidate());
    EXPECT_TRUE(verdict.IsPimTarget());
}

TEST(Integration, CompressionKernelShape)
{
    Rng rng(3);
    pim::SimBuffer<std::uint8_t> page(64 * 1024);
    browser::FillPageLikeData(page, rng, 0.4);

    const auto r = RunKernel(
        "compression", {page.size_bytes(), page.size_bytes() / 2},
        [&](ExecutionContext &ctx) {
            pim::SimBuffer<std::uint8_t> dst(
                browser::LzoCompressBound(page.size()));
            browser::LzoCompress(page, page.size(), dst, ctx);
        });
    EXPECT_LT(r.pim_core.TotalEnergyPj(), r.cpu.TotalEnergyPj());
    // Compression is more compute-intensive than tiling: the
    // accelerator's gain over the PIM core shows up in runtime
    // (Section 10.1's fifth observation).
    EXPECT_LT(r.pim_acc.timing.issue_ns, r.pim_core.timing.issue_ns);
}

TEST(Integration, PackingKernelShape)
{
    Rng rng(4);
    ml::Matrix<std::uint8_t> src(256, 256);
    src.Randomize(rng);

    const auto r = RunKernel(
        "packing", {src.size_bytes(), src.size_bytes()},
        [&](ExecutionContext &ctx) {
            ml::PackedMatrix packed(256, 256);
            ml::PackLhs(src, packed, ctx);
        });
    EXPECT_LT(r.pim_core.TotalEnergyPj(), r.cpu.TotalEnergyPj());
    EXPECT_LT(r.pim_acc.TotalEnergyPj(), r.cpu.TotalEnergyPj());
    EXPECT_GT(r.cpu.energy.DataMovementFraction(), 0.5);
}

TEST(Integration, QuantizationKernelShape)
{
    Rng rng(5);
    // Larger than the LLC so both quantization scans reach DRAM.
    ml::Matrix<std::int32_t> result(1024, 768);
    for (int i = 0; i < result.rows(); ++i) {
        for (int j = 0; j < result.cols(); ++j) {
            result.At(i, j) =
                static_cast<std::int32_t>(rng.Range(-100000, 100000));
        }
    }

    const auto r = RunKernel(
        "quantization",
        {result.size_bytes(), result.size_bytes() / 4},
        [&](ExecutionContext &ctx) {
            ml::Matrix<std::uint8_t> out(1024, 768);
            ml::RequantizeResult(result, out, ctx);
        });
    EXPECT_LT(r.pim_core.TotalEnergyPj(), r.cpu.TotalEnergyPj());
    EXPECT_GT(r.cpu.Mpki(), 10.0);
}

TEST(Integration, SubPixelInterpolationKernelShape)
{
    video::VideoGenConfig cfg;
    cfg.width = 320;
    cfg.height = 192;
    const auto frames = video::GenerateClip(cfg, 2);

    const auto interpolate_frame = [&](ExecutionContext &ctx) {
        video::PredBlock block(16, 16);
        for (int y = 0; y < cfg.height; y += 16) {
            for (int x = 0; x < cfg.width; x += 16) {
                video::InterpolateBlock(frames[0].y, x, y,
                                        video::MotionVector{3, 5},
                                        block, ctx);
            }
        }
    };
    const auto r =
        RunKernel("subpel", {frames[0].y.size_bytes(), 0},
                  interpolate_frame);
    EXPECT_LT(r.pim_core.TotalEnergyPj(), r.cpu.TotalEnergyPj());
    EXPECT_LT(r.pim_acc.TotalEnergyPj(), r.cpu.TotalEnergyPj());
}

TEST(Integration, MotionEstimationFavorsAccelerator)
{
    // Paper Section 10.3.1: ME is compute-heavy; the PIM core's gain is
    // modest but the accelerator's is large (2x class).
    video::VideoGenConfig cfg;
    cfg.width = 192;
    cfg.height = 128;
    const auto frames = video::GenerateClip(cfg, 4);

    const auto search_frame = [&](ExecutionContext &ctx) {
        const std::vector<const video::Plane *> refs = {
            &frames[0].y, &frames[1].y, &frames[2].y};
        for (int y = 0; y < cfg.height; y += 16) {
            for (int x = 0; x < cfg.width; x += 16) {
                video::DiamondSearch(frames[3].y, refs, x, y,
                                     video::MotionSearchParams{}, ctx);
            }
        }
    };
    const auto r = RunKernel(
        "motion-estimation",
        {3 * frames[0].y.size_bytes(), 0}, search_frame);

    EXPECT_LT(r.pim_acc.TotalTimeNs(), r.cpu.TotalTimeNs());
    EXPECT_LT(r.pim_acc.TotalEnergyPj(), r.cpu.TotalEnergyPj());
    // Accelerator clearly outperforms the 1-wide PIM core here.
    EXPECT_LT(r.pim_acc.TotalTimeNs(), r.pim_core.TotalTimeNs());
}

TEST(Integration, AverageEnergySavingsInPaperBand)
{
    // Aggregate the PIM-Acc savings across representative kernels; the
    // paper reports 55.4% average energy reduction (PIM-Acc) and 49.1%
    // (PIM-Core).  Allow a generous band around those.
    Rng rng(6);

    std::vector<KernelReports> reports;

    browser::Bitmap linear(512, 512);
    linear.Randomize(rng);
    reports.push_back(RunKernel(
        "tiling", {linear.size_bytes(), linear.size_bytes()},
        [&](ExecutionContext &ctx) {
            browser::TiledTexture tiled(512, 512);
            browser::TileTexture(linear, tiled, ctx);
        }));

    ml::Matrix<std::uint8_t> mat(256, 512);
    mat.Randomize(rng);
    reports.push_back(RunKernel(
        "packing", {mat.size_bytes(), mat.size_bytes()},
        [&](ExecutionContext &ctx) {
            ml::PackedMatrix packed(256, 512);
            ml::PackLhs(mat, packed, ctx);
        }));

    pim::SimBuffer<std::uint8_t> page(128 * 1024);
    browser::FillPageLikeData(page, rng, 0.4);
    reports.push_back(RunKernel(
        "compression", {page.size_bytes(), page.size_bytes() / 2},
        [&](ExecutionContext &ctx) {
            pim::SimBuffer<std::uint8_t> dst(
                browser::LzoCompressBound(page.size()));
            browser::LzoCompress(page, page.size(), dst, ctx);
        }));

    double core_saving = 0.0;
    double acc_saving = 0.0;
    for (const auto &r : reports) {
        core_saving +=
            1.0 - r.pim_core.TotalEnergyPj() / r.cpu.TotalEnergyPj();
        acc_saving +=
            1.0 - r.pim_acc.TotalEnergyPj() / r.cpu.TotalEnergyPj();
    }
    core_saving /= static_cast<double>(reports.size());
    acc_saving /= static_cast<double>(reports.size());

    EXPECT_GT(core_saving, 0.30);
    EXPECT_LT(core_saving, 0.75);
    EXPECT_GT(acc_saving, 0.35);
    EXPECT_LT(acc_saving, 0.80);
    EXPECT_GE(acc_saving, core_saving);
}

/** Every counter, energy component and timing field, compared exactly. */
void
ExpectSameReport(const RunReport &want, const RunReport &got)
{
    SCOPED_TRACE(want.kernel + " on " + want.target_name);
    EXPECT_EQ(got.kernel, want.kernel);
    EXPECT_EQ(got.target, want.target);
    EXPECT_EQ(got.target_name, want.target_name);

    EXPECT_EQ(got.ops.alu, want.ops.alu);
    EXPECT_EQ(got.ops.mul, want.ops.mul);
    EXPECT_EQ(got.ops.branch, want.ops.branch);
    EXPECT_EQ(got.ops.load, want.ops.load);
    EXPECT_EQ(got.ops.store, want.ops.store);
    EXPECT_EQ(got.ops.simd_eligible, want.ops.simd_eligible);

    const auto expect_same_cache = [](const sim::CacheStats &w,
                                      const sim::CacheStats &g) {
        EXPECT_EQ(g.read_hits, w.read_hits);
        EXPECT_EQ(g.read_misses, w.read_misses);
        EXPECT_EQ(g.write_hits, w.write_hits);
        EXPECT_EQ(g.write_misses, w.write_misses);
        EXPECT_EQ(g.writebacks, w.writebacks);
    };
    expect_same_cache(want.counters.l1, got.counters.l1);
    expect_same_cache(want.counters.llc, got.counters.llc);
    EXPECT_EQ(got.counters.has_llc, want.counters.has_llc);
    EXPECT_EQ(got.counters.dram.read_requests,
              want.counters.dram.read_requests);
    EXPECT_EQ(got.counters.dram.write_requests,
              want.counters.dram.write_requests);
    EXPECT_EQ(got.counters.dram.read_bytes, want.counters.dram.read_bytes);
    EXPECT_EQ(got.counters.dram.write_bytes,
              want.counters.dram.write_bytes);

    EXPECT_EQ(got.energy.compute, want.energy.compute);
    EXPECT_EQ(got.energy.l1, want.energy.l1);
    EXPECT_EQ(got.energy.llc, want.energy.llc);
    EXPECT_EQ(got.energy.interconnect, want.energy.interconnect);
    EXPECT_EQ(got.energy.memctrl, want.energy.memctrl);
    EXPECT_EQ(got.energy.dram, want.energy.dram);

    EXPECT_EQ(got.timing.issue_ns, want.timing.issue_ns);
    EXPECT_EQ(got.timing.memory_ns, want.timing.memory_ns);
    EXPECT_EQ(got.timing.bandwidth_ns, want.timing.bandwidth_ns);
    EXPECT_EQ(got.overhead_ns, want.overhead_ns);
}

/**
 * RunAll records the kernel once on the host and replays the stream
 * into both PIM hierarchies.  It must report exactly what one native
 * run per target reports, with the PIM runs charged the coherence
 * estimate for their footprint.  Every buffer lives outside the kernel,
 * so each native run sees the same simulated addresses.
 */
void
ExpectRunAllEqualsNativeRuns(
    const std::string &name, const OffloadFootprint &footprint,
    const std::function<void(ExecutionContext &)> &kernel)
{
    const OffloadRuntime rt;
    const std::vector<RunReport> replayed =
        rt.RunAll(name, footprint, kernel);
    ASSERT_EQ(replayed.size(), 3u);

    const core::CoherenceCost cost = core::EstimateOffloadCoherence(
        footprint.input_bytes, footprint.output_bytes,
        rt.coherence_params());
    const ExecutionTarget targets[] = {ExecutionTarget::kCpuOnly,
                                       ExecutionTarget::kPimCore,
                                       ExecutionTarget::kPimAccel};
    for (std::size_t i = 0; i < 3; ++i) {
        ExecutionContext ctx(targets[i]);
        kernel(ctx);
        RunReport native = ctx.Report(name);
        if (targets[i] != ExecutionTarget::kCpuOnly) {
            native.overhead_ns = cost.time_ns;
            native.energy.interconnect += cost.energy_pj;
        }
        ExpectSameReport(native, replayed[i]);
    }
}

TEST(OffloadRuntime, RunAllEqualsNativeRunOnEveryTarget)
{
    Rng rng(7);

    browser::Bitmap linear(256, 256);
    linear.Randomize(rng);
    browser::TiledTexture tiled(256, 256);
    ExpectRunAllEqualsNativeRuns(
        "texture-tiling", {linear.size_bytes(), tiled.size_bytes()},
        [&](ExecutionContext &ctx) {
            browser::TileTexture(linear, tiled, ctx);
        });

    pim::SimBuffer<std::uint8_t> page(64 * 1024);
    browser::FillPageLikeData(page, rng, 0.4);
    pim::SimBuffer<std::uint8_t> packed(
        browser::LzoCompressBound(page.size()));
    pim::SimBuffer<std::uint8_t> unpacked(page.size());
    ExpectRunAllEqualsNativeRuns(
        "lzo", {page.size_bytes(), page.size_bytes()},
        [&](ExecutionContext &ctx) {
            const std::size_t n =
                browser::LzoCompress(page, page.size(), packed, ctx);
            browser::LzoDecompress(packed, n, unpacked, ctx);
        });

    ml::Matrix<std::uint8_t> a(96, 128);
    ml::Matrix<std::uint8_t> b(128, 64);
    a.Randomize(rng);
    b.Randomize(rng);
    ml::PackedMatrix pa(96, 128);
    ml::PackedMatrix pb(64, 128);
    ml::PackedResult pr(96, 64);
    ExpectRunAllEqualsNativeRuns(
        "gemm",
        {a.size_bytes() + b.size_bytes(), pr.storage().size_bytes()},
        [&](ExecutionContext &ctx) {
            ml::PackLhs(a, pa, ctx);
            ml::PackRhs(b, pb, ctx);
            ml::QuantizedGemm(pa, 3, pb, 128, pr, ctx);
        });
}

} // namespace
} // namespace pim
