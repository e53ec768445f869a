/**
 * @file
 * Figure 18: energy and runtime of the browser kernels (texture
 * tiling, color blitting, compression, decompression) on CPU-Only,
 * PIM-Core, and PIM-Acc, normalized to CPU-Only.
 */

#include "bench_common.h"

namespace {

using namespace pim;

void
PrintFigure18(bench::BenchOutput &out)
{
    out.Section("kernels", [&] {
        const auto results = bench::RunBrowserKernels();
        out.KernelGroup("browser", "Figure 18", results);

        Table summary(
            "Figure 18 — average savings across browser kernels");
        summary.SetHeader({"target", "energy reduction", "speedup"});
        double core_e = 0, acc_e = 0, core_s = 0, acc_s = 0;
        for (const auto &r : results) {
            core_e += r.EnergySaving(r.pim_core);
            acc_e += r.EnergySaving(r.pim_acc);
            core_s += r.Speedup(r.pim_core);
            acc_s += r.Speedup(r.pim_acc);
        }
        const double n = static_cast<double>(results.size());
        summary.AddRow({"PIM-Core", Table::Pct(core_e / n),
                        Table::Num(core_s / n, 2) + "x"});
        summary.AddRow({"PIM-Acc", Table::Pct(acc_e / n),
                        Table::Num(acc_s / n, 2) + "x"});
        out.Emit(summary);
    });
}

} // namespace

PIM_BENCH_MAIN(PrintFigure18)
