/**
 * @file
 * Figure 4: bytes per second swapped out to ZRAM (left series) and in
 * from ZRAM (right series) while a user cycles through tabs, plus the
 * Section 4.3.1 totals and energy/time shares of compression.
 */

#include "bench_common.h"

#include "workloads/browser/tab_switch.h"

namespace {

using namespace pim;

void
PrintFigure4(bench::BenchOutput &out)
{
    browser::TabSwitchConfig cfg; // 50 tabs, 2 passes (scaled footprints)
    out.Section("tab_switch", [&] {
        const auto r = browser::SimulateTabSwitching(cfg);
        Table series("Figure 4 — ZRAM swap traffic over time (MB/s)");
        series.SetHeader({"t (s)", "swapped out", "swapped in"});
        // Print only seconds with activity plus every 20th second, to
        // keep the series readable while preserving its spiky shape.
        for (std::size_t t = 0; t < r.swap_out_mb_per_s.size(); ++t) {
            const double swapped_out = r.swap_out_mb_per_s[t];
            const double swapped_in = r.swap_in_mb_per_s[t];
            if (swapped_out > 0.0 || swapped_in > 0.0 || t % 20 == 0) {
                series.AddRow({std::to_string(t),
                               Table::Num(swapped_out, 2),
                               Table::Num(swapped_in, 2)});
            }
        }
        out.Emit(series);

        Table summary("Figure 4 / Section 4.3.1 — totals");
        summary.SetHeader({"metric", "value"});
        summary.AddRow({"total swapped out (MB)",
                        Table::Num(r.total_swapped_out / 1.0e6, 2)});
        summary.AddRow({"total swapped in (MB)",
                        Table::Num(r.total_swapped_in / 1.0e6, 2)});
        summary.AddRow(
            {"compression ratio", Table::Num(r.compression_ratio, 2)});
        summary.AddRow({"compression share of energy",
                        Table::Pct(r.CompressionEnergyFraction())});
        summary.AddRow({"compression share of time",
                        Table::Pct(r.CompressionTimeFraction())});
        out.Emit(summary);
        out.Metric("fig04.compression_energy_share",
                   r.CompressionEnergyFraction());
        out.Metric("fig04.compression_ratio", r.compression_ratio);
    });
}

} // namespace

PIM_BENCH_MAIN(PrintFigure4)
