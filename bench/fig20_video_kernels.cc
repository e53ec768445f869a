/**
 * @file
 * Figure 20: energy and runtime of the video kernels (sub-pixel
 * interpolation, deblocking filter, motion estimation) on CPU-Only,
 * PIM-Core, and PIM-Acc, normalized to CPU-Only.
 */

#include "bench_common.h"

namespace {

using namespace pim;

void
PrintFigure20(bench::BenchOutput &out)
{
    out.Section("kernels", [&] {
        out.KernelGroup("video", "Figure 20", bench::RunVideoKernels());
    });
}

} // namespace

PIM_BENCH_MAIN(PrintFigure20)
