/**
 * @file
 * The offload interface (the paper's Section 8.1): a kernel region is
 * marked for PIM execution, the runtime makes the host caches coherent
 * with the PIM view, dispatches the kernel to the chosen PIM logic, and
 * accounts launch/coherence overheads in the report.
 *
 * In the paper this is a pair of compiler macros lowered to two ISA
 * instructions; here it is one runtime call, OffloadRuntime::RunAll,
 * that plays the same role for the simulated device.
 */

#ifndef PIM_CORE_OFFLOAD_RUNTIME_H
#define PIM_CORE_OFFLOAD_RUNTIME_H

#include <functional>
#include <string>
#include <vector>

#include "core/coherence.h"
#include "core/execution_context.h"

namespace pim::core {

/** Declared memory footprint of an offloaded kernel. */
struct OffloadFootprint
{
    Bytes input_bytes = 0;  ///< Host-produced data the kernel reads.
    Bytes output_bytes = 0; ///< Data the kernel writes for the host.
};

/**
 * Dispatches kernels to execution targets and charges offload costs.
 * CPU-Only runs have no offload cost; PIM runs pay the coherence
 * launch/flush estimate for their declared footprint.
 */
class OffloadRuntime
{
  public:
    OffloadRuntime() = default;
    explicit OffloadRuntime(CoherenceParams coherence)
        : coherence_(coherence)
    {
    }

    /**
     * Run @p kernel on all three targets (paper Figures 18-20 shape)
     * and return the reports in (CPU-Only, PIM-Core, PIM-Acc) order.
     *
     * The kernel executes natively once, on a CPU-Only context,
     * recording its access stream and op mix; the stream is then
     * replayed into the two PIM hierarchies concurrently
     * (sim::SweepRunner) and their reports synthesized.  The kernel
     * must perform all its instrumented work through
     * ctx.mem()/ctx.ops().  Each PIM report is charged the coherence
     * launch/flush estimate for @p footprint.
     */
    std::vector<RunReport>
    RunAll(const std::string &kernel_name, const OffloadFootprint &footprint,
           const std::function<void(ExecutionContext &)> &kernel) const;

    const CoherenceParams &coherence_params() const { return coherence_; }

  private:
    CoherenceParams coherence_;
};

} // namespace pim::core

#endif // PIM_CORE_OFFLOAD_RUNTIME_H
