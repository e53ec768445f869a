/**
 * @file
 * Figure 10: energy breakdown of the VP9 *software* decoder by
 * function — sub-pixel interpolation, other MC, deblocking filter,
 * entropy decoder, inverse transform, other.
 */

#include "bench_common.h"
#include "codec_runners.h"

namespace {

using namespace pim;

void
PrintFigure10(bench::BenchOutput &out)
{
    out.Section("decoder", [&] {
    video::CodecPhases ph;
    // Full-HD+ stand-in for the paper's 4K clip (DESIGN.md): large
    // enough that frames stream through (not live in) the 2 MiB LLC.
    bench::RunSwDecoder(1920, 1088, 3, ph);

    const double total = ph.Total().energy.Total();
    Table table("Figure 10 — VP9 software decoder energy by function");
    table.SetHeader({"function", "share"});
    table.AddRow({"MC: Sub-Pixel Interpolation",
                  Table::Pct(ph.subpel.energy.Total() / total)});
    table.AddRow({"Other MC Functions",
                  Table::Pct(ph.mc_other.energy.Total() / total)});
    table.AddRow({"Deblocking Filter",
                  Table::Pct(ph.deblock.energy.Total() / total)});
    table.AddRow({"Entropy Decoder",
                  Table::Pct(ph.entropy.energy.Total() / total)});
    table.AddRow({"Inverse Transform",
                  Table::Pct((ph.transform.energy.Total() +
                              ph.quant.energy.Total()) /
                             total)});
    table.AddRow({"Other",
                  Table::Pct((ph.other.energy.Total() +
                              ph.intra.energy.Total()) /
                             total)});
    out.Emit(table);

    const double mc_total =
        ph.subpel.energy.Total() + ph.mc_other.energy.Total();
    Table note("Figure 10 — paper checkpoints");
    note.SetHeader({"claim", "paper", "measured"});
    note.AddRow({"MC dominates decoder energy", "53.4%",
                 Table::Pct(mc_total / total)});
    note.AddRow({"sub-pixel interpolation share", "37.5%",
                 Table::Pct(ph.subpel.energy.Total() / total)});
    note.AddRow({"deblocking filter share", "29.7%",
                 Table::Pct(ph.deblock.energy.Total() / total)});
    out.Emit(note);
    out.Metric("fig10.mc_energy_share", mc_total / total);
    out.Metric("fig10.subpel_share", ph.subpel.energy.Total() / total);
    out.Metric("fig10.deblock_share",
               ph.deblock.energy.Total() / total);
    });
}

} // namespace

PIM_BENCH_MAIN(PrintFigure10)
