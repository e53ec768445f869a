/**
 * @file
 * Figure 11: energy breakdown of the VP9 software decoder by hardware
 * component (CPU, L1, LLC, interconnect, memory controller, DRAM),
 * split by decoder function.
 */

#include "bench_common.h"
#include "codec_runners.h"

namespace {

using namespace pim;

void
AddRow(Table &table, const char *name, const core::PhaseTotals &phase)
{
    const auto &e = phase.energy;
    table.AddRow({
        name,
        Table::Num(PicoToMilliJoules(e.compute), 3),
        Table::Num(PicoToMilliJoules(e.l1), 3),
        Table::Num(PicoToMilliJoules(e.llc), 3),
        Table::Num(PicoToMilliJoules(e.interconnect), 3),
        Table::Num(PicoToMilliJoules(e.memctrl), 3),
        Table::Num(PicoToMilliJoules(e.dram), 3),
    });
}

void
PrintFigure11(bench::BenchOutput &out)
{
    out.Section("decoder", [&] {
    video::CodecPhases ph;
    bench::RunSwDecoder(1920, 1088, 3, ph);

    Table table(
        "Figure 11 — VP9 software decoder energy by component (mJ)");
    table.SetHeader({"function", "CPU", "L1", "LLC", "interconnect",
                     "memctrl", "DRAM"});
    AddRow(table, "MC: Sub-Pixel Interpolation", ph.subpel);
    AddRow(table, "Other MC Functions", ph.mc_other);
    AddRow(table, "Deblocking Filter", ph.deblock);
    AddRow(table, "Entropy Decoder", ph.entropy);
    core::PhaseTotals inverse = ph.transform;
    inverse += ph.quant;
    AddRow(table, "Inverse Transform", inverse);
    core::PhaseTotals other = ph.other;
    other += ph.intra;
    AddRow(table, "Other", other);
    out.Emit(table);

    const core::PhaseTotals total = ph.Total();
    Table note("Figure 11 — paper checkpoints");
    note.SetHeader({"claim", "paper", "measured"});
    note.AddRow({"data movement share of decoder energy", "63.5%",
                 Table::Pct(total.energy.DataMovementFraction())});
    const double mc_df_movement = ph.subpel.energy.DataMovement() +
                                  ph.mc_other.energy.DataMovement() +
                                  ph.deblock.energy.DataMovement();
    note.AddRow({"MC + deblock share of movement", "80.4%",
                 Table::Pct(mc_df_movement /
                            total.energy.DataMovement())});
    out.Emit(note);
    out.Metric("fig11.decoder_movement_share",
               total.energy.DataMovementFraction());
    });
}

} // namespace

PIM_BENCH_MAIN(PrintFigure11)
