/**
 * @file
 * ExecutionContext: one device (compute model + memory hierarchy +
 * energy model) that an instrumented kernel executes against, and the
 * RunReport it produces.
 *
 * This is the measurement harness equivalent of the paper's per-target
 * microbenchmark methodology (Section 9): the same kernel is run against
 * a CPU-Only, PIM-Core, or PIM-Acc context and the counters, energy
 * breakdown, and first-order timing are reported.
 */

#ifndef PIM_CORE_EXECUTION_CONTEXT_H
#define PIM_CORE_EXECUTION_CONTEXT_H

#include <memory>
#include <string>

#include "core/compute_model.h"
#include "sim/access.h"
#include "sim/energy_model.h"
#include "sim/hierarchy.h"
#include "sim/op_counter.h"
#include "sim/timing_model.h"
#include "sim/trace.h"
#include "sim/trace_codec.h"

namespace pim::core {

/** Everything measured for one kernel execution on one target. */
struct RunReport
{
    std::string kernel;
    std::string target_name;
    ExecutionTarget target = ExecutionTarget::kCpuOnly;

    sim::OpCounts ops;
    sim::PerfCounters counters;
    sim::EnergyBreakdown energy;
    sim::TimingResult timing;

    /** Extra time charged by the offload runtime (coherence etc.). */
    Nanoseconds overhead_ns = 0;

    Nanoseconds TotalTimeNs() const { return timing.Total() + overhead_ns; }
    PicoJoules TotalEnergyPj() const { return energy.Total(); }

    /** LLC misses per kilo-instruction (the paper's §3.2 criterion). */
    double
    Mpki() const
    {
        return counters.Mpki(ops.Total());
    }
};

/**
 * A device context: owns the hierarchy the kernel streams accesses into
 * and the per-run counters.  Create one per (target, kernel-run).
 */
class ExecutionContext
{
  public:
    /** Build the canonical context for @p target. */
    explicit ExecutionContext(ExecutionTarget target);

    /** Build a custom context (ablations, HW-codec models). */
    ExecutionContext(ExecutionTarget target, ComputeModel compute,
                     const sim::HierarchyConfig &hierarchy);

    ExecutionContext(const ExecutionContext &) = delete;
    ExecutionContext &operator=(const ExecutionContext &) = delete;

    /** Memory port kernels read/write through. */
    sim::MemPort &mem() { return port_; }

    /** Operation counter kernels report their op mix to. */
    sim::OpCounter &ops() { return ops_; }

    ExecutionTarget target() const { return target_; }
    const ComputeModel &compute() const { return compute_; }
    sim::MemoryHierarchy &hierarchy() { return hierarchy_; }

    /**
     * Snapshot a report for everything executed since the last Reset().
     * Does not reset; call Reset() to begin a new measurement.
     */
    RunReport Report(const std::string &kernel_name) const;

    /** Zero counters and byte totals; optionally drain the caches. */
    void Reset(bool drain_caches = true);

    /**
     * Tee every subsequent access into @p trace as well as the
     * hierarchy (trace-driven methodology; see sim/trace.h).  The
     * trace must outlive the context or a later DetachTrace() call.
     */
    void
    AttachTrace(sim::AccessTrace &trace)
    {
        recorder_ = std::make_unique<sim::TraceRecorder>(
            trace, hierarchy_.Top());
        port_.Rebind(*recorder_);
    }

    /**
     * Stop tracing; accesses go straight to the hierarchy again.  The
     * recorded trace is shrunk to fit (recording grows geometrically,
     * so up to half the backing store may be slack) and its final
     * footprint is reported as the `trace.bytes` telemetry counter —
     * with `trace.compact_bytes` / `trace.compression_ratio` alongside
     * (what the compact codec would save) when tracing is enabled.
     */
    void DetachTrace();

  private:
    ExecutionTarget target_;
    ComputeModel compute_;
    sim::MemoryHierarchy hierarchy_;
    sim::EnergyModel energy_model_;
    std::unique_ptr<sim::TraceRecorder> recorder_;
    sim::MemPort port_;
    sim::OpCounter ops_;
};

/**
 * Build the report a native run would have produced, from a replayed
 * counter snapshot: the trace-driven path records the kernel's access
 * stream and op mix once, replays the stream into @p hierarchy's shape,
 * and derives energy/timing exactly as ExecutionContext::Report does.
 */
RunReport
SynthesizeReport(const std::string &kernel_name, ExecutionTarget target,
                 const ComputeModel &compute,
                 const sim::HierarchyConfig &hierarchy,
                 const sim::OpCounts &ops,
                 const sim::PerfCounters &counters);

} // namespace pim::core

#endif // PIM_CORE_EXECUTION_CONTEXT_H
