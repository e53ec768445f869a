/**
 * @file
 * Figure 15: energy breakdown of the VP9 *software* encoder by
 * function — motion estimation, intra prediction, transform,
 * quantization, deblocking filter, other.
 */

#include "bench_common.h"
#include "codec_runners.h"

namespace {

using namespace pim;

void
PrintFigure15(bench::BenchOutput &out)
{
    out.Section("encoder", [&] {
    video::CodecPhases ph;
    // True HD, as the paper's encoder study uses.
    bench::RunSwEncoder(1280, 720, 3, ph);

    const double total = ph.Total().energy.Total();
    Table table("Figure 15 — VP9 software encoder energy by function");
    table.SetHeader({"function", "share"});
    table.AddRow({"Motion Estimation",
                  Table::Pct(ph.me.energy.Total() / total)});
    table.AddRow({"Intra-Prediction",
                  Table::Pct(ph.intra.energy.Total() / total)});
    table.AddRow({"Transform",
                  Table::Pct(ph.transform.energy.Total() / total)});
    table.AddRow({"Quantization",
                  Table::Pct(ph.quant.energy.Total() / total)});
    table.AddRow({"Deblocking Filter",
                  Table::Pct(ph.deblock.energy.Total() / total)});
    table.AddRow({"Other (incl. MC / entropy / recon)",
                  Table::Pct((ph.other.energy.Total() +
                              ph.subpel.energy.Total() +
                              ph.mc_other.energy.Total() +
                              ph.entropy.energy.Total()) /
                             total)});
    out.Emit(table);

    Table note("Figure 15 — paper checkpoints");
    note.SetHeader({"claim", "paper", "measured"});
    note.AddRow({"motion estimation share", "39.6%",
                 Table::Pct(ph.me.energy.Total() / total)});
    note.AddRow(
        {"encoder data movement share", "59.1%",
         Table::Pct(ph.Total().energy.DataMovementFraction())});
    note.AddRow(
        {"ME share of encoding cycles", "43.1%",
         Table::Pct(ph.me.time_ns / ph.Total().time_ns)});
    out.Emit(note);
    out.Metric("fig15.me_energy_share", ph.me.energy.Total() / total);
    });
}

} // namespace

PIM_BENCH_MAIN(PrintFigure15)
