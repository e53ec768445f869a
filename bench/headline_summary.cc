/**
 * @file
 * Headline summary: the paper's Section 1 aggregate claims, measured
 * across this framework's kernels and workload drivers —
 *
 *   - data movement is 62.7% of total system energy on average
 *   - PIM-Core: 49.1% avg energy reduction, 44.6% avg speedup
 *   - PIM-Acc:  55.4% avg energy reduction, 54.2% avg speedup
 */

#include "bench_common.h"

#include "workloads/browser/scroll_sim.h"
#include "workloads/browser/webpage.h"
#include "workloads/ml/inference.h"
#include "workloads/ml/network.h"

namespace {

using namespace pim;

void
PrintHeadline(bench::BenchOutput &out)
{
    // Gather every evaluated kernel; each family is also recorded as a
    // JSON group ("browser"/"tf"/"video") with per-kernel metrics.
    std::vector<bench::KernelResult> kernels;
    auto gather = [&](const char *group, const char *figure,
                      std::vector<bench::KernelResult> results) {
        out.KernelGroup(group, figure, results);
        for (auto &r : results) {
            kernels.push_back(std::move(r));
        }
    };
    out.Section("kernels.browser", [&] {
        gather("browser", "Browser kernels (Fig. 18)",
               bench::RunBrowserKernels());
    });
    out.Section("kernels.tf", [&] {
        gather("tf", "TensorFlow kernels (Fig. 19)",
               bench::RunTfKernels());
    });
    out.Section("kernels.video", [&] {
        gather("video", "Video kernels (Fig. 20)",
               bench::RunVideoKernels());
    });

    // Whole-workload data movement shares (driver level).
    double workload_movement = 0.0;
    int workload_count = 0;
    out.Section("drivers", [&] {
        for (const auto &profile : browser::AllPageProfiles()) {
            const auto r = browser::SimulateScroll(profile);
            const auto whole =
                r.tiling_energy + r.blitting_energy + r.other_energy;
            workload_movement += whole.DataMovementFraction();
            ++workload_count;
        }
        for (const auto &net : ml::AllNetworks()) {
            const auto r = ml::RunInference(net, ml::EvalScale{});
            const auto whole = r.packing.energy + r.quantization.energy +
                               r.gemm.energy + r.other.energy;
            workload_movement += whole.DataMovementFraction();
            ++workload_count;
        }
        if (workload_count > 0) {
            out.Metric("headline.movement_share_workloads",
                       workload_movement / workload_count);
        }
    });

    out.Section("summary", [&] {
        if (kernels.empty()) {
            return;
        }
        Table per_kernel("Per-kernel PIM benefit");
        per_kernel.SetHeader({"kernel", "movement share (CPU)",
                              "PIM-Core dE", "PIM-Acc dE",
                              "PIM-Core speedup", "PIM-Acc speedup"});
        double core_e = 0, acc_e = 0, core_s = 0, acc_s = 0,
               movement = 0;
        for (const auto &k : kernels) {
            per_kernel.AddRow({
                k.name,
                Table::Pct(k.cpu.energy.DataMovementFraction()),
                Table::Pct(k.EnergySaving(k.pim_core)),
                Table::Pct(k.EnergySaving(k.pim_acc)),
                Table::Num(k.Speedup(k.pim_core), 2) + "x",
                Table::Num(k.Speedup(k.pim_acc), 2) + "x",
            });
            core_e += k.EnergySaving(k.pim_core);
            acc_e += k.EnergySaving(k.pim_acc);
            core_s += k.Speedup(k.pim_core);
            acc_s += k.Speedup(k.pim_acc);
            movement += k.cpu.energy.DataMovementFraction();
        }
        out.Emit(per_kernel);

        const double n = static_cast<double>(kernels.size());
        out.Metric("headline.movement_share_kernels", movement / n);
        out.Metric("headline.pim_core.energy_reduction", core_e / n);
        out.Metric("headline.pim_acc.energy_reduction", acc_e / n);
        out.Metric("headline.pim_core.speedup", core_s / n);
        out.Metric("headline.pim_acc.speedup", acc_s / n);

        Table summary("Headline summary — paper vs. measured");
        summary.SetHeader({"claim", "paper", "measured"});
        summary.AddRow(
            {"avg data movement share (workload drivers)", "62.7%",
             workload_count > 0
                 ? Table::Pct(workload_movement / workload_count)
                 : "n/a (drivers filtered)"});
        summary.AddRow({"avg data movement share (PIM-target kernels)",
                        "n/a (kernel-level)", Table::Pct(movement / n)});
        summary.AddRow({"PIM-Core avg energy reduction", "49.1%",
                        Table::Pct(core_e / n)});
        summary.AddRow({"PIM-Acc avg energy reduction", "55.4%",
                        Table::Pct(acc_e / n)});
        summary.AddRow({"PIM-Core avg speedup", "1.45x",
                        Table::Num(core_s / n, 2) + "x"});
        summary.AddRow({"PIM-Acc avg speedup", "1.54x (up to 2.5x)",
                        Table::Num(acc_s / n, 2) + "x"});
        out.Emit(summary);
    });
}

} // namespace

PIM_BENCH_MAIN(PrintHeadline)
