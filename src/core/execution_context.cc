#include "core/execution_context.h"

#include "common/logging.h"
#include "telemetry/span_tracer.h"

namespace pim::core {

namespace {

sim::HierarchyConfig
HierarchyForTarget(ExecutionTarget target)
{
    switch (target) {
      case ExecutionTarget::kCpuOnly:
        return sim::HostHierarchyConfig();
      case ExecutionTarget::kPimCore:
        return sim::PimCoreHierarchyConfig();
      case ExecutionTarget::kPimAccel:
        return sim::PimAccelHierarchyConfig();
    }
    PIM_PANIC("unknown execution target");
}

} // namespace

ExecutionContext::ExecutionContext(ExecutionTarget target)
    : ExecutionContext(target, ModelForTarget(target),
                       HierarchyForTarget(target))
{
}

ExecutionContext::ExecutionContext(ExecutionTarget target,
                                   ComputeModel compute,
                                   const sim::HierarchyConfig &hierarchy)
    : target_(target), compute_(std::move(compute)), hierarchy_(hierarchy),
      port_(hierarchy_.Top())
{
}

RunReport
ExecutionContext::Report(const std::string &kernel_name) const
{
    RunReport r;
    r.kernel = kernel_name;
    r.target = target_;
    r.target_name = TargetName(target_);
    r.ops = ops_.counts();
    r.counters = hierarchy_.Snapshot();

    r.energy =
        energy_model_.MemoryEnergy(r.counters, hierarchy_.config().dram);
    r.energy.compute = compute_.ComputeEnergy(r.ops);

    const Nanoseconds issue = compute_.IssueTime(r.ops);
    r.timing = sim::EvaluateTiming(issue, r.counters,
                                   hierarchy_.config().dram,
                                   compute_.mem_timing);
    if (PIM_TRACE_ENABLED()) {
        const std::string suffix = "[" + std::string(r.target_name) + "]";
        PIM_TRACE_COUNTER("dram_bytes" + suffix,
                          r.counters.dram.TotalBytes());
        PIM_TRACE_COUNTER("energy_pj" + suffix, r.energy.Total());
    }
    return r;
}

void
ExecutionContext::DetachTrace()
{
    port_.Rebind(hierarchy_.Top());
    if (recorder_) {
        sim::AccessTrace &trace = recorder_->trace();
        trace.ShrinkToFit();
        PIM_TRACE_COUNTER("trace.bytes", trace.SizeBytes());
        if (PIM_TRACE_ENABLED()) {
            // What the compact codec would save for this recording.
            // The encode pass is only worth paying when someone is
            // collecting the counters.
            const sim::CompactTrace compact =
                sim::CompactTrace::Encode(trace);
            PIM_TRACE_COUNTER("trace.compact_bytes",
                              compact.SizeBytes());
            PIM_TRACE_COUNTER("trace.compression_ratio",
                              compact.CompressionRatio());
        }
        recorder_.reset();
    }
}

void
ExecutionContext::Reset(bool drain_caches)
{
    if (drain_caches) {
        hierarchy_.Drain();
    }
    hierarchy_.ResetStats();
    port_.ResetTotals();
    ops_.Reset();
}

RunReport
SynthesizeReport(const std::string &kernel_name, ExecutionTarget target,
                 const ComputeModel &compute,
                 const sim::HierarchyConfig &hierarchy,
                 const sim::OpCounts &ops,
                 const sim::PerfCounters &counters)
{
    RunReport r;
    r.kernel = kernel_name;
    r.target = target;
    r.target_name = TargetName(target);
    r.ops = ops;
    r.counters = counters;

    const sim::EnergyModel energy_model;
    r.energy = energy_model.MemoryEnergy(counters, hierarchy.dram);
    r.energy.compute = compute.ComputeEnergy(ops);

    const Nanoseconds issue = compute.IssueTime(ops);
    r.timing = sim::EvaluateTiming(issue, counters, hierarchy.dram,
                                   compute.mem_timing);
    return r;
}

} // namespace pim::core
