/**
 * @file
 * Figure 21: total energy of the VP9 hardware decoder (left) and
 * encoder (right) under three configurations — the on-SoC VP9
 * accelerator, VP9 with in-memory PIM-Core logic, and VP9 with
 * in-memory PIM-Acc logic — each with and without lossless frame
 * compression.
 */

#include "bench_common.h"

#include "workloads/video/hw_model.h"

namespace {

using namespace pim;
using video::HwDecoderEnergy;
using video::HwEncoderEnergy;
using video::HwPimMode;
using video::HwResolution;

const char *
ModeName(HwPimMode mode)
{
    switch (mode) {
      case HwPimMode::kNone:
        return "VP9";
      case HwPimMode::kPimCore:
        return "VP9 + PIM-Core";
      case HwPimMode::kPimAccel:
        return "VP9 + PIM-Acc";
    }
    return "?";
}

void
PrintSide(bench::BenchOutput &out, const char *title, bool encoder,
          HwResolution res)
{
    Table table(title);
    table.SetHeader({"config", "compression", "DRAM", "memctrl",
                     "interconnect", "computation", "total (mJ)"});
    for (const bool comp : {false, true}) {
        for (const auto mode :
             {HwPimMode::kNone, HwPimMode::kPimCore,
              HwPimMode::kPimAccel}) {
            const auto e = encoder ? HwEncoderEnergy(res, comp, mode)
                                   : HwDecoderEnergy(res, comp, mode);
            table.AddRow({
                ModeName(mode),
                comp ? "yes" : "no",
                Table::Num(e.dram_mj, 2),
                Table::Num(e.memctrl_mj, 2),
                Table::Num(e.interconnect_mj, 2),
                Table::Num(e.computation_mj, 2),
                Table::Num(e.Total(), 2),
            });
        }
    }
    out.Emit(table);
}

void
PrintFigure21(bench::BenchOutput &out)
{
    out.Section("decoder", [&] {
        PrintSide(out, "Figure 21 (left) — HW decoder energy, 4K frame",
                  false, HwResolution::k4k);
    });
    out.Section("encoder", [&] {
        PrintSide(out, "Figure 21 (right) — HW encoder energy, HD frame",
                  true, HwResolution::kHd);
    });

    out.Section("checkpoints", [&] {
        Table note("Figure 21 — paper checkpoints");
        note.SetHeader({"claim", "paper", "measured"});
        const double base =
            HwDecoderEnergy(HwResolution::k4k, false, HwPimMode::kNone)
                .Total();
        const double acc = HwDecoderEnergy(HwResolution::k4k, false,
                                           HwPimMode::kPimAccel)
                               .Total();
        note.AddRow({"PIM-Acc decoder energy reduction", "75.1%",
                     Table::Pct(1.0 - acc / base)});
        const double enc_base =
            HwEncoderEnergy(HwResolution::kHd, false, HwPimMode::kNone)
                .Total();
        const double enc_acc =
            HwEncoderEnergy(HwResolution::kHd, false,
                            HwPimMode::kPimAccel)
                .Total();
        note.AddRow({"PIM-Acc encoder energy reduction", "69.8%",
                     Table::Pct(1.0 - enc_acc / enc_base)});
        const double base_c =
            HwDecoderEnergy(HwResolution::k4k, true, HwPimMode::kNone)
                .Total();
        const double core_c =
            HwDecoderEnergy(HwResolution::k4k, true,
                            HwPimMode::kPimCore)
                .Total();
        note.AddRow({"PIM-Core vs VP9 (with compression)", "+63.4%",
                     Table::Pct(core_c / base_c - 1.0)});
        out.Emit(note);
        out.Metric("fig21.decoder.pim_acc.energy_reduction",
                   1.0 - acc / base);
        out.Metric("fig21.encoder.pim_acc.energy_reduction",
                   1.0 - enc_acc / enc_base);
        out.Metric("fig21.decoder.pim_core_vs_vp9_compressed",
                   core_c / base_c - 1.0);
    });
}

} // namespace

PIM_BENCH_MAIN(PrintFigure21)
