#include "core/offload_runtime.h"

#include "sim/sweep.h"
#include "sim/trace.h"
#include "telemetry/span_tracer.h"

namespace pim::core {

std::vector<RunReport>
OffloadRuntime::RunAll(
    const std::string &kernel_name, const OffloadFootprint &footprint,
    const std::function<void(ExecutionContext &)> &kernel) const
{
    PIM_TRACE_SPAN("offload", kernel_name + "[replayed]");

    // Native CPU-Only run, teeing the access stream into a trace.
    sim::AccessTrace trace;
    ExecutionContext cpu_ctx(ExecutionTarget::kCpuOnly);
    cpu_ctx.AttachTrace(trace);
    {
        PIM_TRACE_SPAN("kernel", kernel_name + ":record");
        kernel(cpu_ctx);
    }
    cpu_ctx.DetachTrace();

    std::vector<RunReport> reports(3);
    reports[0] = cpu_ctx.Report(kernel_name);

    // Replay the recorded stream into both PIM hierarchies in parallel.
    PIM_TRACE_INSTANT("offload", "PIM_BEGIN");
    const std::vector<sim::HierarchyConfig> configs = {
        sim::PimCoreHierarchyConfig(), sim::PimAccelHierarchyConfig()};
    const ExecutionTarget targets[] = {ExecutionTarget::kPimCore,
                                       ExecutionTarget::kPimAccel};
    const sim::SweepRunner runner;
    const auto counters =
        runner.ReplayTrace(sim::AccessTraceSource(trace), configs);
    PIM_TRACE_INSTANT("offload", "PIM_END");

    const CoherenceCost cost = EstimateOffloadCoherence(
        footprint.input_bytes, footprint.output_bytes, coherence_);
    for (std::size_t i = 0; i < configs.size(); ++i) {
        RunReport r = SynthesizeReport(
            kernel_name, targets[i], ModelForTarget(targets[i]),
            configs[i], reports[0].ops, counters[i]);
        r.overhead_ns = cost.time_ns;
        // Coherence messages/flushes cross the off-chip interconnect.
        r.energy.interconnect += cost.energy_pj;
        reports[i + 1] = r;
    }
    return reports;
}

} // namespace pim::core
