/**
 * @file
 * Figure 6: energy breakdown of TensorFlow Mobile inference — the
 * fraction of system energy spent in packing, quantization,
 * Conv2D/MatMul, and everything else, for the four input networks.
 */

#include "bench_common.h"

#include "workloads/ml/inference.h"
#include "workloads/ml/network.h"

namespace {

using namespace pim;

void
PrintFigure6(bench::BenchOutput &out)
{
    out.Section("inference", [&] {
    Table table("Figure 6 — inference energy breakdown by function");
    table.SetHeader({"network", "packing", "quantization",
                     "Conv2D+MatMul", "other"});
    double pack_sum = 0.0;
    double quant_sum = 0.0;
    const auto networks = ml::AllNetworks();
    for (const auto &net : networks) {
        const auto r = ml::RunInference(net, ml::EvalScale{});
        const double total = r.TotalEnergy();
        table.AddRow({
            r.network,
            Table::Pct(r.packing.energy.Total() / total),
            Table::Pct(r.quantization.energy.Total() / total),
            Table::Pct(r.gemm.energy.Total() / total),
            Table::Pct(r.other.energy.Total() / total),
        });
        pack_sum += r.packing.energy.Total() / total;
        quant_sum += r.quantization.energy.Total() / total;
    }
    const double n = static_cast<double>(networks.size());
    table.AddRow({"AVG", Table::Pct(pack_sum / n),
                  Table::Pct(quant_sum / n), "", ""});
    out.Emit(table);

    Table note("Figure 6 — paper checkpoints");
    note.SetHeader({"claim", "paper", "measured"});
    note.AddRow({"packing+quantization share (avg)", "39.3%",
                 Table::Pct((pack_sum + quant_sum) / n)});
    out.Emit(note);
    out.Metric("fig06.pack_quant_energy_share",
               (pack_sum + quant_sum) / n);
    });
}

} // namespace

PIM_BENCH_MAIN(PrintFigure6)
