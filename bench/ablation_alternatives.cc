/**
 * @file
 * The paper's "alternatives considered" studies:
 *
 *   1. GPU rasterization (Section 4.2.2): instead of tiling CPU-
 *      rasterized bitmaps, rasterize directly on the GPU.  This removes
 *      the texture-upload path but the GPU's wide SIMT units rasterize
 *      fonts and small shapes poorly — the paper measured up to +24.9%
 *      page load time on text-heavy pages, which is why Chrome ships
 *      with CPU rasterization and why PIM (which keeps CPU raster and
 *      absorbs only the tiling) is attractive.
 *
 *   2. Killing tabs and reloading from disk instead of ZRAM
 *      (Section 4.3): reloading invokes page faults, eMMC reads, and a
 *      full page rebuild; ZRAM trades a little CPU compression work for
 *      DRAM-speed restores.
 */

#include "bench_common.h"

#include "common/rng.h"
#include "workloads/browser/page_data.h"
#include "workloads/browser/webpage.h"
#include "workloads/browser/zram.h"

namespace {

using namespace pim;

/**
 * First-order GPU rasterization model: throughput per pixel class,
 * relative to the CPU raster path.  Fills and image blits map well to
 * SIMT hardware; glyph rasterization (tiny triangles, heavy overdraw,
 * divergent control flow) does not.
 */
struct GpuRasterModel
{
    double fill_speedup = 4.0;
    double image_speedup = 3.0;
    double text_speedup = 0.4; // 2.5x slower on glyphs
};

void
PrintGpuRasterStudy(bench::BenchOutput &out)
{
    const GpuRasterModel gpu;
    Table table("Alternative 1 — GPU rasterization vs CPU raster + PIM "
                "tiling");
    table.SetHeader({"page", "text share of raster", "GPU raster time",
                     "page load delta"});
    for (const auto &profile : browser::AllPageProfiles()) {
        // Raster time split by content class (CPU raster = 1.0).
        const double text = profile.text_fraction;
        const double image = profile.image_fraction;
        const double fill = profile.fill_fraction;
        const double gpu_time = text / gpu.text_speedup +
                                image / gpu.image_speedup +
                                fill / gpu.fill_speedup;
        // Rasterization is roughly a third of page-load work; the
        // rest (layout, script, network) is raster-path independent.
        const double load_delta = (gpu_time - 1.0) * 0.35;
        table.AddRow({
            profile.name,
            Table::Pct(text),
            Table::Num(gpu_time, 2) + "x",
            (load_delta >= 0 ? "+" : "") + Table::Pct(load_delta),
        });
    }
    out.Emit(table);
}

void
PrintZramVsDiskStudy(bench::BenchOutput &out)
{
    // Restore one 2 MiB tab either from ZRAM or from disk.
    constexpr Bytes kTabBytes = 2_MiB;
    constexpr double kDiskBandwidthMBps = 140.0; // eMMC sequential read
    constexpr double kDiskEnergyPjPerByte = 1200.0; // flash + controller
    constexpr double kPageFaultNs = 3000.0; // per 4 KiB page
    constexpr double kRebuildFactor = 2.0;  // parse + relayout overhead

    // Measure the ZRAM path for real.
    Rng rng(0xD15C);
    browser::ZramPool pool;
    core::ExecutionContext ctx(core::ExecutionTarget::kCpuOnly);
    pim::SimBuffer<std::uint8_t> page(browser::ZramPool::kPageBytes);
    pim::SimBuffer<std::uint8_t> restore(browser::ZramPool::kPageBytes);

    std::vector<std::uint64_t> handles;
    const std::size_t pages = kTabBytes / browser::ZramPool::kPageBytes;
    for (std::size_t i = 0; i < pages; ++i) {
        browser::FillPageLikeData(page, rng, 0.4);
        handles.push_back(pool.SwapOut(page, ctx).handle);
    }
    ctx.Reset(false);
    for (const auto handle : handles) {
        pool.SwapIn(handle, restore, ctx);
    }
    const auto zram = ctx.Report("zram-restore");

    // Model the disk path.
    const double disk_ns =
        static_cast<double>(kTabBytes) / kDiskBandwidthMBps * 1e3 +
        static_cast<double>(pages) * kPageFaultNs;
    const double disk_energy_pj =
        static_cast<double>(kTabBytes) * kDiskEnergyPjPerByte;

    Table table("Alternative 2 — restoring a 2 MiB tab: ZRAM vs disk");
    table.SetHeader({"path", "latency (us)", "energy (uJ)", "notes"});
    table.AddRow({
        "ZRAM decompress (CPU)",
        Table::Num(zram.TotalTimeNs() / 1e3, 1),
        Table::Num(zram.TotalEnergyPj() / 1e6, 1),
        "measured (LZO decompress)",
    });
    table.AddRow({
        "disk reload",
        Table::Num(disk_ns * kRebuildFactor / 1e3, 1),
        Table::Num(disk_energy_pj * kRebuildFactor / 1e6, 1),
        "eMMC read + faults + rebuild",
    });
    out.Emit(table);
}

void
PrintAlternatives(bench::BenchOutput &out)
{
    out.Section("gpu_raster", [&] { PrintGpuRasterStudy(out); });
    out.Section("zram_vs_disk", [&] { PrintZramVsDiskStudy(out); });
}

} // namespace

PIM_BENCH_MAIN(PrintAlternatives)
