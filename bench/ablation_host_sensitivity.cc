/**
 * @file
 * Ablation study of the host baseline (DESIGN.md Section 7):
 *
 *   1. LLC capacity sweep for texture tiling — the locality cliff:
 *      once the rasterized bitmap fits in the LLC, the kernel stops
 *      being a PIM target (its movement evaporates).
 *   2. Coherence dirty-fraction sweep — how offload cost scales with
 *      how much of the kernel footprint the host recently wrote.
 *   3. Texture size sweep — the paper's observation that the PIM
 *      speedup grows with working-set size (Section 10.1).
 */

#include "bench_common.h"

#include "common/rng.h"
#include "core/coherence.h"
#include "sim/hierarchy.h"
#include "sim/sweep.h"
#include "sim/trace.h"
#include "workloads/browser/texture_tiler.h"

namespace {

using namespace pim;
using core::ExecutionContext;
using core::ExecutionTarget;

void
PrintAblations(bench::BenchOutput &out)
{
    // --- 1. LLC capacity vs. texture tiling movement.  The kernel
    // runs once; the LLC sweep replays its recorded stream into every
    // capacity point concurrently.
    out.Section("llc_capacity", [&] {
        Table table(
            "Ablation 5 — LLC capacity vs tiling movement (512x512)");
        table.SetHeader({"LLC", "off-chip MB", "movement share",
                         "MPKI"});

        sim::AccessTrace trace;
        sim::OpCounts ops;
        {
            Rng rng(9);
            browser::Bitmap linear(512, 512);
            linear.Randomize(rng);
            browser::TiledTexture tiled(512, 512);
            ExecutionContext ctx(ExecutionTarget::kCpuOnly,
                                 core::CpuComputeModel(),
                                 sim::HostHierarchyConfig());
            ctx.AttachTrace(trace);
            browser::TileTexture(linear, tiled, ctx);
            ops = ctx.ops().counts();
        }

        const std::vector<Bytes> llc_sizes = {512_KiB, 1_MiB, 2_MiB,
                                              4_MiB, 8_MiB};
        std::vector<sim::HierarchyConfig> configs;
        sim::StudySpec spec;
        const sim::HierarchyConfig host = sim::HostHierarchyConfig();
        spec.l1_points = {host.l1};
        spec.dram = host.dram;
        for (const Bytes llc : llc_sizes) {
            sim::HierarchyConfig hier = sim::HostHierarchyConfig();
            hier.llc->size = llc;
            spec.llc_points.push_back(*hier.llc);
            configs.push_back(std::move(hier));
        }
        // The swept hierarchies differ only in LLC capacity, so the
        // whole ablation is a pure profiler query: one L1 pass, one
        // stack-distance pass over its miss stream, every capacity an
        // analytic readout (bit-identical to per-config replay; see
        // DESIGN.md Sections 5d and 5i).
        const sim::SweepRunner runner;
        const sim::StudyResult study = runner.ProfileStudy(
            sim::AccessTraceSource(trace), spec);

        for (std::size_t i = 0; i < configs.size(); ++i) {
            const auto r = core::SynthesizeReport(
                "tiling", ExecutionTarget::kCpuOnly,
                core::CpuComputeModel(), configs[i], ops,
                study.host[0][i].counters);
            table.AddRow({
                Table::Num(static_cast<double>(llc_sizes[i]) / (1 << 20),
                           1) +
                    " MiB",
                Table::Num(r.counters.OffChipBytes() / 1.0e6, 2),
                Table::Pct(r.energy.DataMovementFraction()),
                Table::Num(r.Mpki(), 1),
            });
        }
        out.Emit(table);
    });

    // --- 2. Coherence dirty fraction.
    out.Section("coherence_dirty", [&] {
        Table table("Ablation 6 — offload coherence vs dirty fraction "
                    "(4 MiB footprint)");
        table.SetHeader({"dirty fraction", "messages", "writebacks",
                         "energy (uJ)", "latency (us)"});
        for (const double dirty : {0.0, 0.05, 0.1, 0.25, 0.5}) {
            core::CoherenceParams params;
            params.host_dirty_fraction = dirty;
            params.host_resident_fraction = std::max(dirty, 0.2);
            const auto cost = core::EstimateOffloadCoherence(
                4_MiB, 4_MiB, params);
            table.AddRow({
                Table::Pct(dirty),
                std::to_string(cost.messages),
                std::to_string(cost.dirty_writebacks),
                Table::Num(cost.energy_pj / 1e6, 1),
                Table::Num(cost.time_ns / 1e3, 1),
            });
        }
        out.Emit(table);
    });

    // --- 3. Texture size sweep (paper: speedup grows with size).
    out.Section("texture_size", [&] {
        Table table("Ablation 7 — PIM-Acc speedup vs texture size");
        table.SetHeader(
            {"texture", "CPU (us)", "PIM-Acc (us)", "speedup"});
        for (const int px : {128, 256, 512, 1024}) {
            Rng rng(10);
            browser::Bitmap linear(px, px);
            linear.Randomize(rng);
            core::OffloadRuntime rt;
            const auto reports = rt.RunAll(
                "tiling", {linear.size_bytes(), linear.size_bytes()},
                [&](ExecutionContext &ctx) {
                    browser::TiledTexture tiled(px, px);
                    browser::TileTexture(linear, tiled, ctx);
                });
            table.AddRow({
                std::to_string(px) + "x" + std::to_string(px),
                Table::Num(reports[0].TotalTimeNs() / 1e3, 1),
                Table::Num(reports[2].TotalTimeNs() / 1e3, 1),
                Table::Num(reports[0].TotalTimeNs() /
                               reports[2].TotalTimeNs(),
                           2) +
                    "x",
            });
        }
        out.Emit(table);
    });
}

} // namespace

PIM_BENCH_MAIN(PrintAblations)
