/**
 * @file
 * Figure 16: off-chip traffic breakdown of the VP9 *hardware* encoder
 * for one HD and one 4K frame, with and without lossless frame
 * compression.
 */

#include "bench_common.h"

#include "workloads/video/hw_model.h"

namespace {

using namespace pim;
using video::HwEncoderTraffic;
using video::HwResolution;

void
AddRow(Table &table, const char *config,
       const video::HwTrafficBreakdown &t)
{
    table.AddRow({
        config,
        Table::Num(t.current_frame, 2),
        Table::Num(t.reference_frame, 2),
        Table::Num(t.deblocking, 2),
        Table::Num(t.compression_info, 2),
        Table::Num(t.reconstructed_frame, 2),
        Table::Num(t.encoded_bitstream, 2),
        Table::Num(t.other, 2),
        Table::Num(t.Total(), 2),
    });
}

void
PrintFigure16(bench::BenchOutput &out)
{
    out.Section("traffic", [&] {
    Table table("Figure 16 — HW encoder off-chip traffic per frame (MB)");
    table.SetHeader({"config", "current", "reference", "deblocking",
                     "compr.info", "recon frame", "bitstream", "other",
                     "total"});
    AddRow(table, "HD, no compression",
           HwEncoderTraffic(HwResolution::kHd, false));
    AddRow(table, "HD, with compression",
           HwEncoderTraffic(HwResolution::kHd, true));
    AddRow(table, "4K, no compression",
           HwEncoderTraffic(HwResolution::k4k, false));
    AddRow(table, "4K, with compression",
           HwEncoderTraffic(HwResolution::k4k, true));
    out.Emit(table);

    const auto hd_plain = HwEncoderTraffic(HwResolution::kHd, false);
    const auto hd_comp = HwEncoderTraffic(HwResolution::kHd, true);
    Table note("Figure 16 — paper checkpoints");
    note.SetHeader({"claim", "paper", "measured"});
    note.AddRow({"HD reference share, no compression", "65.1%",
                 Table::Pct(hd_plain.ReferenceShare())});
    note.AddRow({"current-frame share, no compression", "14.2%",
                 Table::Pct(hd_plain.current_frame / hd_plain.Total())});
    note.AddRow({"current-frame share, with compression", "up to 31.9%",
                 Table::Pct(hd_comp.current_frame / hd_comp.Total())});
    note.AddRow(
        {"compression cuts reference traffic by", "59.7%",
         Table::Pct(1.0 -
                    hd_comp.reference_frame / hd_plain.reference_frame)});
    out.Emit(note);
    out.Metric("fig16.hd.reference_share.plain",
               hd_plain.ReferenceShare());
    out.Metric("fig16.hd.current_share.plain",
               hd_plain.current_frame / hd_plain.Total());
    out.Metric("fig16.reference_cut_by_compression",
               1.0 - hd_comp.reference_frame / hd_plain.reference_frame);
    });
}

} // namespace

PIM_BENCH_MAIN(PrintFigure16)
