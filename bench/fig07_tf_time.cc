/**
 * @file
 * Figure 7: execution-time breakdown of TensorFlow Mobile inference —
 * packing, quantization, Conv2D/MatMul, and other — for the four
 * input networks.
 */

#include "bench_common.h"

#include "workloads/ml/inference.h"
#include "workloads/ml/network.h"

namespace {

using namespace pim;

void
PrintFigure7(bench::BenchOutput &out)
{
    out.Section("inference", [&] {
    Table table("Figure 7 — inference time breakdown by function");
    table.SetHeader({"network", "packing", "quantization",
                     "Conv2D+MatMul", "other"});
    double pq_sum = 0.0;
    const auto networks = ml::AllNetworks();
    for (const auto &net : networks) {
        const auto r = ml::RunInference(net, ml::EvalScale{});
        const double total = r.TotalTime();
        table.AddRow({
            r.network,
            Table::Pct(r.packing.time_ns / total),
            Table::Pct(r.quantization.time_ns / total),
            Table::Pct(r.gemm.time_ns / total),
            Table::Pct(r.other.time_ns / total),
        });
        pq_sum += (r.packing.time_ns + r.quantization.time_ns) / total;
    }
    out.Emit(table);

    Table note("Figure 7 — paper checkpoints");
    note.SetHeader({"claim", "paper", "measured"});
    note.AddRow({"packing+quantization share of time (avg)", "27.4%",
                 Table::Pct(pq_sum /
                            static_cast<double>(networks.size()))});
    out.Emit(note);
    out.Metric("fig07.pack_quant_time_share",
               pq_sum / static_cast<double>(networks.size()));
    });
}

} // namespace

PIM_BENCH_MAIN(PrintFigure7)
