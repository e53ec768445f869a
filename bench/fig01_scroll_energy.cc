/**
 * @file
 * Figure 1: energy breakdown for page scrolling — the fraction of total
 * energy spent in texture tiling, color blitting, and everything else,
 * across the six web-page profiles.
 */

#include "bench_common.h"

#include "workloads/browser/scroll_sim.h"
#include "workloads/browser/webpage.h"

namespace {

using namespace pim;

void
PrintFigure1(bench::BenchOutput &out)
{
    out.Section("scroll", [&] {
        Table table("Figure 1 — scroll energy breakdown by function");
        table.SetHeader({"page", "texture tiling", "color blitting",
                         "other", "MPKI"});
        double tiling_sum = 0.0;
        double blitting_sum = 0.0;
        const auto profiles = browser::AllPageProfiles();
        for (const auto &profile : profiles) {
            const auto r = browser::SimulateScroll(profile);
            table.AddRow({
                r.page_name,
                Table::Pct(r.TilingFraction()),
                Table::Pct(r.BlittingFraction()),
                Table::Pct(1.0 - r.TilingFraction() -
                           r.BlittingFraction()),
                Table::Num(r.Mpki(), 1),
            });
            tiling_sum += r.TilingFraction();
            blitting_sum += r.BlittingFraction();
        }
        const double n = static_cast<double>(profiles.size());
        table.AddRow({"AVG", Table::Pct(tiling_sum / n),
                      Table::Pct(blitting_sum / n),
                      Table::Pct(1.0 - (tiling_sum + blitting_sum) / n),
                      ""});
        out.Emit(table);
        out.Metric("fig01.tiling_blitting_share",
                   (tiling_sum + blitting_sum) / n);
    });
}

} // namespace

PIM_BENCH_MAIN(PrintFigure1)
