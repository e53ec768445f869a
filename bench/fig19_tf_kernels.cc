/**
 * @file
 * Figure 19: (left) energy of the TensorFlow Mobile kernels — packing
 * and quantization — per target; (right) total inference speedup as
 * the number of GEMM operations grows (1, 4, 16), with packing and
 * quantization either on the CPU (serial) or on PIM logic (overlapped
 * with the CPU's GEMM execution).
 */

#include "bench_common.h"

#include <algorithm>

#include "common/rng.h"
#include "workloads/ml/gemm.h"
#include "workloads/ml/pack.h"
#include "workloads/ml/quantize.h"

namespace {

using namespace pim;
using core::ExecutionContext;
using core::ExecutionTarget;

/** One GEMM's worth of work, reported as per-phase times. */
struct GemmPhaseTimes
{
    Nanoseconds pack_quant_cpu;
    Nanoseconds pack_quant_pim_core;
    Nanoseconds pack_quant_pim_acc;
    Nanoseconds gemm_cpu;
};

GemmPhaseTimes
MeasurePhases()
{
    Rng rng(3);
    const int m = 512, k = 1024, n = 128;
    ml::Matrix<float> activations(m, k);
    ml::Matrix<std::uint8_t> lhs(m, k);
    ml::Matrix<std::uint8_t> rhs(k, n);
    activations.Randomize(rng);
    lhs.Randomize(rng);
    rhs.Randomize(rng);
    ml::Matrix<std::int32_t> result32(m, n);

    GemmPhaseTimes times{};
    // The full per-GEMM Figure 8 flow that PIM takes over: quantize the
    // float input, pack both operands, re-quantize the 32-bit result.
    const auto pack_quant = [&](ExecutionContext &ctx) {
        ml::Matrix<std::uint8_t> q8(m, k);
        ml::QuantizeFloat(activations, q8, ctx);
        ml::PackedMatrix pa(m, k);
        ml::PackedMatrix pb(n, k);
        ml::PackLhs(lhs, pa, ctx);
        ml::PackRhs(rhs, pb, ctx);
        ml::Matrix<std::uint8_t> out8(m, n);
        ml::RequantizeResult(result32, out8, ctx);
    };

    for (const auto target :
         {ExecutionTarget::kCpuOnly, ExecutionTarget::kPimCore,
          ExecutionTarget::kPimAccel}) {
        ExecutionContext ctx(target);
        pack_quant(ctx);
        const auto t = ctx.Report("pack+quant").TotalTimeNs();
        switch (target) {
          case ExecutionTarget::kCpuOnly:
            times.pack_quant_cpu = t;
            break;
          case ExecutionTarget::kPimCore:
            times.pack_quant_pim_core = t;
            break;
          case ExecutionTarget::kPimAccel:
            times.pack_quant_pim_acc = t;
            break;
        }
    }

    ExecutionContext gemm_ctx(ExecutionTarget::kCpuOnly);
    ml::PackedMatrix pa(m, k);
    ml::PackedMatrix pb(n, k);
    ml::PackLhs(lhs, pa, gemm_ctx);
    ml::PackRhs(rhs, pb, gemm_ctx);
    gemm_ctx.Reset(false);
    ml::PackedResult pr(m, n);
    ml::QuantizedGemm(pa, 0, pb, 128, pr, gemm_ctx);
    times.gemm_cpu = gemm_ctx.Report("gemm").TotalTimeNs();
    return times;
}

void
PrintFigure19(bench::BenchOutput &out)
{
    // Left panel: kernel energies.
    out.Section("kernels", [&] {
        out.KernelGroup("tf", "Figure 19 (left)", bench::RunTfKernels());
    });

    // Right panel: speedup vs number of GEMM operations.  CPU-Only
    // serializes pack/quant with GEMM; with PIM, the PIM logic packs
    // and re-quantizes chunk i+1 while the CPU multiplies chunk i
    // (Section 5.3), so steady-state time is the max of the two.
    out.Section("gemm_scaling", [&] {
        const GemmPhaseTimes t = MeasurePhases();
        Table table("Figure 19 (right) — speedup vs number of GEMMs");
        table.SetHeader(
            {"GEMM ops", "CPU-Only", "PIM-Core", "PIM-Acc"});
        for (const int gemms : {1, 4, 16}) {
            const double cpu_total =
                gemms * (t.pack_quant_cpu + t.gemm_cpu);
            const auto overlapped = [&](Nanoseconds pim_pq) {
                // First chunk's packing is exposed; the rest overlaps.
                return pim_pq +
                       (gemms - 1) *
                           std::max<double>(t.gemm_cpu, pim_pq) +
                       t.gemm_cpu;
            };
            table.AddRow({
                std::to_string(gemms),
                "1.00x",
                Table::Num(
                    cpu_total / overlapped(t.pack_quant_pim_core), 2) +
                    "x",
                Table::Num(
                    cpu_total / overlapped(t.pack_quant_pim_acc), 2) +
                    "x",
            });
            if (gemms == 16) {
                out.Metric(
                    "fig19.gemm16.pim_acc.speedup",
                    cpu_total / overlapped(t.pack_quant_pim_acc));
            }
        }
        out.Emit(table);
    });
}

} // namespace

PIM_BENCH_MAIN(PrintFigure19)
