/**
 * @file
 * Ablation study of the PIM design choices (DESIGN.md Section 7):
 *
 *   1. PIM-core SIMD width (the paper picks 4 "empirically")
 *   2. internal (in-stack) bandwidth available to PIM logic
 *   3. number of cooperating vault PIM cores
 *   4. accelerator in-memory logic unit count (the paper picks 4)
 *
 * Each sweep evaluates the texture-tiling kernel (memory-bound) and the
 * motion-estimation kernel (compute-lean but SIMD-heavy).  The kernels
 * execute once each, recording their access stream and op mix; every
 * sweep point is then a cheap trace replay / report synthesis.  The
 * replays into distinct hierarchy shapes run concurrently on the
 * SweepRunner — compute-model parameters (SIMD width, lanes, bandwidth)
 * do not change cache counters, so design points sharing a hierarchy
 * share one replay.
 */

#include "bench_common.h"

#include "common/rng.h"
#include "sim/hierarchy.h"
#include "sim/sweep.h"
#include "sim/trace.h"
#include "workloads/browser/texture_tiler.h"
#include "workloads/video/motion.h"
#include "workloads/video/video_gen.h"

namespace {

using namespace pim;
using core::ComputeModel;
using core::ExecutionContext;
using core::ExecutionTarget;

/** A kernel's target-independent profile: access stream + op mix. */
struct RecordedKernel
{
    sim::AccessTrace trace;
    sim::OpCounts ops;
};

/** Execute the tiling kernel once, recording its profile. */
RecordedKernel
RecordTiling()
{
    Rng rng(1);
    browser::Bitmap linear(512, 512);
    linear.Randomize(rng);
    browser::TiledTexture tiled(512, 512);
    RecordedKernel rec;
    ExecutionContext ctx(ExecutionTarget::kPimCore,
                         core::PimCoreComputeModel(),
                         sim::PimCoreHierarchyConfig());
    ctx.AttachTrace(rec.trace);
    browser::TileTexture(linear, tiled, ctx);
    rec.ops = ctx.ops().counts();
    return rec;
}

/** Execute the one-frame ME sweep once, recording its profile. */
RecordedKernel
RecordMotionEstimation()
{
    video::VideoGenConfig cfg;
    cfg.width = 320;
    cfg.height = 192;
    const auto frames = video::GenerateClip(cfg, 4);
    RecordedKernel rec;
    ExecutionContext ctx(ExecutionTarget::kPimCore,
                         core::PimCoreComputeModel(),
                         sim::PimCoreHierarchyConfig());
    ctx.AttachTrace(rec.trace);
    const std::vector<const video::Plane *> refs = {
        &frames[0].y, &frames[1].y, &frames[2].y};
    for (int y = 0; y < cfg.height; y += 16) {
        for (int x = 0; x < cfg.width; x += 16) {
            video::DiamondSearch(frames[3].y, refs, x, y,
                                 video::MotionSearchParams{}, ctx);
        }
    }
    rec.ops = ctx.ops().counts();
    return rec;
}

/** Synthesize the report a native run on (model, hier) would produce. */
core::RunReport
PointReport(const char *name, const ComputeModel &model,
            const sim::HierarchyConfig &hier, const RecordedKernel &rec,
            const sim::PerfCounters &counters)
{
    return core::SynthesizeReport(name, ExecutionTarget::kPimCore, model,
                                  hier, rec.ops, counters);
}

void
PrintAblations(bench::BenchOutput &out)
{
    const RecordedKernel me = RecordMotionEstimation();
    const RecordedKernel tiling = RecordTiling();

    // One replay per distinct (stream, hierarchy) pair, concurrently.
    sim::PerfCounters me_on_core, me_on_acc, tiling_on_core;
    const sim::SweepRunner runner;
    runner.ForEach(3, [&](std::size_t i) {
        const RecordedKernel &rec = (i == 2) ? tiling : me;
        const sim::HierarchyConfig hier =
            (i == 1) ? sim::PimAccelHierarchyConfig()
                     : sim::PimCoreHierarchyConfig();
        sim::MemoryHierarchy mh(hier);
        rec.trace.ReplayInto(mh.Top());
        (i == 0 ? me_on_core : i == 1 ? me_on_acc : tiling_on_core) =
            mh.Snapshot();
    });

    // --- 1. SIMD width of the PIM core.
    out.Section("simd_width", [&] {
        Table table("Ablation 1 — PIM core SIMD width (ME kernel)");
        table.SetHeader({"simd width", "runtime (us)", "energy (uJ)",
                         "binding bound"});
        for (const std::uint32_t width : {1u, 2u, 4u, 8u, 16u}) {
            ComputeModel model = core::PimCoreComputeModel();
            model.simd_width = width;
            const auto r =
                PointReport("motion-estimation", model,
                            sim::PimCoreHierarchyConfig(), me, me_on_core);
            table.AddRow({
                std::to_string(width),
                Table::Num(r.TotalTimeNs() / 1e3, 1),
                Table::Num(r.TotalEnergyPj() / 1e6, 1),
                r.timing.Bound(),
            });
        }
        out.Emit(table);
    });

    // --- 2. Internal bandwidth available to the PIM logic.
    out.Section("bandwidth", [&] {
        Table table(
            "Ablation 2 — in-stack bandwidth (texture tiling kernel)");
        table.SetHeader(
            {"bandwidth (GB/s)", "runtime (us)", "binding bound"});
        for (const double gbps : {32.0, 64.0, 128.0, 256.0, 512.0}) {
            sim::HierarchyConfig hier = sim::PimCoreHierarchyConfig();
            hier.dram.bandwidth_gbps = gbps;
            const auto r = PointReport("tiling",
                                       core::PimCoreComputeModel(), hier,
                                       tiling, tiling_on_core);
            table.AddRow({
                Table::Num(gbps, 0),
                Table::Num(r.TotalTimeNs() / 1e3, 1),
                r.timing.Bound(),
            });
        }
        out.Emit(table);
    });

    // --- 3. Cooperating vault PIM cores.
    out.Section("vault_cores", [&] {
        Table table("Ablation 3 — cooperating vault cores (ME kernel)");
        table.SetHeader({"PIM cores", "runtime (us)", "speedup vs 1"});
        double base = 0.0;
        for (const double lanes : {1.0, 2.0, 4.0, 8.0, 16.0}) {
            ComputeModel model = core::PimCoreComputeModel();
            model.parallel_lanes = lanes;
            const auto r =
                PointReport("motion-estimation", model,
                            sim::PimCoreHierarchyConfig(), me, me_on_core);
            if (base == 0.0) {
                base = r.TotalTimeNs();
            }
            table.AddRow({
                Table::Num(lanes, 0),
                Table::Num(r.TotalTimeNs() / 1e3, 1),
                Table::Num(base / r.TotalTimeNs(), 2) + "x",
            });
        }
        out.Emit(table);
    });

    // --- 4. Accelerator in-memory logic unit count.
    out.Section("accel_units", [&] {
        Table table(
            "Ablation 4 — accelerator logic units (ME kernel)");
        table.SetHeader({"units", "runtime (us)", "binding bound"});
        for (const std::uint32_t units : {1u, 2u, 4u, 8u}) {
            const ComputeModel model =
                core::PimAccelComputeModel(units, 16.0);
            const auto r =
                PointReport("motion-estimation", model,
                            sim::PimAccelHierarchyConfig(), me, me_on_acc);
            table.AddRow({
                std::to_string(units),
                Table::Num(r.TotalTimeNs() / 1e3, 1),
                r.timing.Bound(),
            });
        }
        out.Emit(table);
    });
}

} // namespace

PIM_BENCH_MAIN(PrintAblations)
