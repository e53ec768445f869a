/**
 * @file
 * Trace-driven what-if study: record a kernel's memory access stream
 * once, then replay it through different memory organizations — the
 * paper's trace-based methodology, and the cheap way to sweep design
 * points without re-running kernels.
 */

#include "bench_common.h"

#include "common/rng.h"
#include "sim/hierarchy.h"
#include "sim/sweep.h"
#include "sim/trace.h"
#include "workloads/browser/texture_tiler.h"

namespace {

using namespace pim;

/** Record the texture-tiling access stream once. */
sim::AccessTrace
RecordTilingTrace()
{
    Rng rng(21);
    browser::Bitmap linear(512, 512);
    linear.Randomize(rng);
    browser::TiledTexture tiled(512, 512);

    sim::AccessTrace trace;
    core::ExecutionContext ctx(core::ExecutionTarget::kCpuOnly);
    ctx.AttachTrace(trace);
    browser::TileTexture(linear, tiled, ctx);
    return trace;
}

void
PrintTraceStudy(bench::BenchOutput &out)
{
    out.Section("replay", [&] {
    const sim::AccessTrace trace = RecordTilingTrace();

    Table table("Trace replay — tiling stream vs memory organization");
    table.SetHeader({"organization", "L1 miss rate", "off-chip MB",
                     "movement energy (uJ)"});

    // Record once, replay every design point concurrently.
    sim::HierarchyConfig big_llc = sim::HostHierarchyConfig();
    big_llc.llc->size = 8_MiB;
    const std::vector<const char *> names = {
        "host (64K L1 + 2M LLC, LPDDR3)",
        "host with 8M LLC",
        "host on 3D-stacked channel",
        "PIM core (32K L1, in-stack)",
        "PIM accelerator buffer",
    };
    const std::vector<sim::HierarchyConfig> configs = {
        sim::HostHierarchyConfig(),
        big_llc,
        sim::HostStackedHierarchyConfig(),
        sim::PimCoreHierarchyConfig(),
        sim::PimAccelHierarchyConfig(),
    };

    const sim::SweepRunner runner;
    const auto counters =
        runner.ReplayTrace(sim::AccessTraceSource(trace), configs);
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const auto &pc = counters[i];
        sim::EnergyModel energy;
        table.AddRow({
            names[i],
            Table::Pct(pc.l1.MissRate()),
            Table::Num(pc.dram.TotalBytes() / 1.0e6, 2),
            Table::Num(energy.MemoryEnergy(pc, configs[i].dram).Total() /
                           1e6,
                       1),
        });
    }
    out.Emit(table);

    std::printf("trace: %zu accesses, %.1f MB touched\n\n", trace.size(),
                trace.TotalBytes() / 1.0e6);
    });
}

} // namespace

PIM_BENCH_MAIN(PrintTraceStudy)
