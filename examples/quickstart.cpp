/**
 * @file
 * Quickstart: measure one kernel on CPU vs. PIM.
 *
 * This is the smallest end-to-end use of the framework:
 *   1. build a workload kernel (Chrome's texture tiling),
 *   2. run it on the three execution targets through the offload
 *      runtime (the kernel runs once on the host; its recorded access
 *      stream is replayed into both PIM targets, which also pay the
 *      offload's launch/coherence costs),
 *   3. print energy and runtime, the paper's Figure 18 view.
 */

#include <cstdio>

#include "common/rng.h"
#include "common/table.h"
#include "core/offload_runtime.h"
#include "workloads/browser/texture_tiler.h"

int
main()
{
    using namespace pim;

    // A 512x512 RGBA texture, the paper's microbenchmark input.
    Rng rng(42);
    browser::Bitmap linear(512, 512);
    linear.Randomize(rng);

    // The kernel: convert the linear bitmap into 4 KiB GPU tiles.
    // It runs for real — the tiled output is bit-identical to the
    // input — while every memory access streams into the simulator.
    core::OffloadRuntime runtime;
    const auto reports = runtime.RunAll(
        "texture-tiling",
        {linear.size_bytes(), linear.size_bytes()},
        [&](core::ExecutionContext &ctx) {
            browser::TiledTexture tiled(512, 512);
            browser::TileTexture(linear, tiled, ctx);
        });

    Table table("Texture tiling, 512x512 RGBA (one scroll frame's tile)");
    table.SetHeader({"target", "energy (uJ)", "runtime (us)",
                     "data movement", "MPKI"});
    for (const auto &r : reports) {
        table.AddRow({
            r.target_name,
            Table::Num(r.TotalEnergyPj() / 1e6, 2),
            Table::Num(r.TotalTimeNs() / 1e3, 2),
            Table::Pct(r.energy.DataMovementFraction()),
            Table::Num(r.Mpki(), 1),
        });
    }
    table.Print();

    const double saving =
        1.0 - reports[2].TotalEnergyPj() / reports[0].TotalEnergyPj();
    std::printf("PIM accelerator saves %.1f%% energy and runs %.2fx "
                "faster than the host CPU.\n",
                saving * 100.0,
                reports[0].TotalTimeNs() / reports[2].TotalTimeNs());
    return 0;
}
