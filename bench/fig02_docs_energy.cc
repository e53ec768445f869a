/**
 * @file
 * Figure 2: where energy goes when scrolling a Google Docs page —
 * per-hardware-component energy, split by function (texture tiling,
 * color blitting, other), plus the data-movement shares.
 */

#include "bench_common.h"

#include "workloads/browser/scroll_sim.h"
#include "workloads/browser/webpage.h"

namespace {

using namespace pim;

void
AddComponentRow(Table &table, const char *name,
                const sim::EnergyBreakdown &e, double total)
{
    table.AddRow({
        name,
        Table::Num(PicoToMilliJoules(e.compute), 3),
        Table::Num(PicoToMilliJoules(e.l1), 3),
        Table::Num(PicoToMilliJoules(e.llc), 3),
        Table::Num(PicoToMilliJoules(e.interconnect), 3),
        Table::Num(PicoToMilliJoules(e.memctrl), 3),
        Table::Num(PicoToMilliJoules(e.dram), 3),
        Table::Pct(e.Total() / total),
    });
}

void
PrintFigure2(bench::BenchOutput &out)
{
    out.Section("docs", [&] {
        const auto r =
            browser::SimulateScroll(browser::GoogleDocsProfile());
        const double total = r.TotalEnergy();

        Table table(
            "Figure 2 — Google Docs scroll energy by component (mJ)");
        table.SetHeader({"function", "CPU", "L1", "LLC", "interconnect",
                         "memctrl", "DRAM", "share"});
        AddComponentRow(table, "Texture Tiling", r.tiling_energy, total);
        AddComponentRow(table, "Color Blitting", r.blitting_energy,
                        total);
        AddComponentRow(table, "Other", r.other_energy, total);
        out.Emit(table);

        const sim::EnergyBreakdown whole =
            r.tiling_energy + r.blitting_energy + r.other_energy;
        Table shares("Figure 2 — data movement shares");
        shares.SetHeader({"metric", "value"});
        shares.AddRow({"total data movement / total energy",
                       Table::Pct(whole.DataMovementFraction())});
        shares.AddRow(
            {"tiling+blitting movement / total energy",
             Table::Pct((r.tiling_energy.DataMovement() +
                         r.blitting_energy.DataMovement()) /
                        total)});
        shares.AddRow(
            {"tiling movement / tiling energy",
             Table::Pct(r.tiling_energy.DataMovementFraction())});
        shares.AddRow(
            {"blitting movement / blitting energy",
             Table::Pct(r.blitting_energy.DataMovementFraction())});
        shares.AddRow(
            {"tiling+blitting share of cycles",
             Table::Pct((r.tiling_time_ns + r.blitting_time_ns) /
                        r.TotalTime())});
        out.Emit(shares);
        out.Metric("fig02.movement_share",
                   whole.DataMovementFraction());
    });
}

} // namespace

PIM_BENCH_MAIN(PrintFigure2)
