/**
 * @file
 * Figure 12: off-chip traffic breakdown of the VP9 *hardware* decoder
 * for one HD and one 4K frame, with and without lossless frame
 * compression.
 */

#include "bench_common.h"

#include "workloads/video/hw_model.h"

namespace {

using namespace pim;
using video::HwDecoderTraffic;
using video::HwResolution;

void
AddRow(Table &table, const char *config,
       const video::HwTrafficBreakdown &t)
{
    table.AddRow({
        config,
        Table::Num(t.reference_frame, 2),
        Table::Num(t.compression_info, 2),
        Table::Num(t.decoder_data, 2),
        Table::Num(t.recon_metadata, 2),
        Table::Num(t.deblocking, 2),
        Table::Num(t.reconstructed_frame, 2),
        Table::Num(t.Total(), 2),
        Table::Pct(t.ReferenceShare()),
    });
}

void
PrintFigure12(bench::BenchOutput &out)
{
    out.Section("traffic", [&] {
    Table table("Figure 12 — HW decoder off-chip traffic per frame (MB)");
    table.SetHeader({"config", "reference", "compr.info", "decoder data",
                     "recon metadata", "deblocking", "recon frame",
                     "total", "ref share"});
    AddRow(table, "HD, no compression",
           HwDecoderTraffic(HwResolution::kHd, false));
    AddRow(table, "HD, with compression",
           HwDecoderTraffic(HwResolution::kHd, true));
    AddRow(table, "4K, no compression",
           HwDecoderTraffic(HwResolution::k4k, false));
    AddRow(table, "4K, with compression",
           HwDecoderTraffic(HwResolution::k4k, true));
    out.Emit(table);

    const auto hd_plain = HwDecoderTraffic(HwResolution::kHd, false);
    const auto uhd_plain = HwDecoderTraffic(HwResolution::k4k, false);
    Table note("Figure 12 — paper checkpoints");
    note.SetHeader({"claim", "paper", "measured"});
    note.AddRow({"4K reference share, no compression", "59.6%",
                 Table::Pct(uhd_plain.ReferenceShare())});
    note.AddRow({"HD reference share, no compression", "75.5%",
                 Table::Pct(hd_plain.ReferenceShare())});
    note.AddRow(
        {"4K / HD traffic ratio", "4.6x (their clips); per-pixel "
                                  "scaling gives ~5-9x here",
         Table::Num(uhd_plain.Total() / hd_plain.Total(), 1) + "x"});
    out.Emit(note);
    out.Metric("fig12.4k.reference_share.plain",
               uhd_plain.ReferenceShare());
    out.Metric("fig12.hd.reference_share.plain",
               hd_plain.ReferenceShare());
    out.Metric("fig12.traffic_ratio_4k_hd",
               uhd_plain.Total() / hd_plain.Total());
    });
}

} // namespace

PIM_BENCH_MAIN(PrintFigure12)
