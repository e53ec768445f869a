#include "core/offload_runtime.h"

#include "core/coherence_directory.h"
#include "sim/sweep.h"
#include "sim/trace.h"
#include "telemetry/span_tracer.h"

namespace pim::core {

namespace {

/** Span label "<kernel>[<target>]" for the trace timeline. */
std::string
SpanLabel(const std::string &kernel_name, ExecutionTarget target)
{
    return kernel_name + "[" + TargetName(target) + "]";
}

} // namespace

RunReport
OffloadRuntime::Run(
    const std::string &kernel_name, ExecutionTarget target,
    const OffloadFootprint &footprint,
    const std::function<void(ExecutionContext &)> &kernel) const
{
    PIM_TRACE_SPAN("offload", SpanLabel(kernel_name, target));
    ExecutionContext ctx(target);
    if (target != ExecutionTarget::kCpuOnly) {
        PIM_TRACE_INSTANT("offload", "PIM_BEGIN");
    }
    {
        PIM_TRACE_SPAN("kernel", kernel_name);
        kernel(ctx);
    }
    if (target != ExecutionTarget::kCpuOnly) {
        PIM_TRACE_INSTANT("offload", "PIM_END");
    }
    RunReport report = ctx.Report(kernel_name);

    if (target != ExecutionTarget::kCpuOnly) {
        const CoherenceCost cost = EstimateOffloadCoherence(
            footprint.input_bytes, footprint.output_bytes, coherence_);
        report.overhead_ns = cost.time_ns;
        // Coherence messages/flushes cross the off-chip interconnect.
        report.energy.interconnect += cost.energy_pj;
    }
    return report;
}

RunReport
OffloadRuntime::RunTracked(
    const std::string &kernel_name, ExecutionTarget target,
    Address input_base, Bytes input_bytes, Address output_base,
    Bytes output_bytes, CoherenceDirectory &directory,
    const std::function<void(ExecutionContext &)> &kernel) const
{
    PIM_TRACE_SPAN("offload", SpanLabel(kernel_name, target));
    ExecutionContext ctx(target);
    if (target == ExecutionTarget::kCpuOnly) {
        // Host execution: the directory just observes the accesses.
        kernel(ctx);
        directory.HostRead(input_base, input_bytes);
        directory.HostWrite(output_base, output_bytes);
        return ctx.Report(kernel_name);
    }

    const DirectoryStats before = directory.stats();
    PIM_TRACE_INSTANT("offload", "PIM_BEGIN");
    std::uint64_t messages =
        directory.OffloadBegin(input_base, input_bytes);
    messages += directory.OffloadBegin(output_base, output_bytes);

    {
        PIM_TRACE_SPAN("kernel", kernel_name);
        kernel(ctx);
    }
    messages += directory.OffloadEnd(output_base, output_bytes);
    PIM_TRACE_INSTANT("offload", "PIM_END");

    RunReport report = ctx.Report(kernel_name);
    const std::uint64_t writebacks =
        directory.stats().host_writebacks - before.host_writebacks;

    report.energy.interconnect +=
        static_cast<double>(messages) * coherence_.pj_per_message +
        static_cast<double>(writebacks) * coherence_.pj_per_flushed_line;
    const double flush_bytes = static_cast<double>(writebacks) *
                               static_cast<double>(kCacheLineBytes);
    report.overhead_ns = coherence_.launch_latency_ns +
                         flush_bytes / coherence_.flush_bandwidth_gbps;
    return report;
}

std::vector<RunReport>
OffloadRuntime::RunAllReplayed(
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
        r.energy.interconnect += cost.energy_pj;
        reports[i + 1] = r;
    }
    return reports;
}

std::vector<RunReport>
OffloadRuntime::RunAll(
    const std::string &kernel_name, const OffloadFootprint &footprint,
    const std::function<void(ExecutionContext &)> &kernel) const
{
    std::vector<RunReport> reports;
    for (ExecutionTarget target :
         {ExecutionTarget::kCpuOnly, ExecutionTarget::kPimCore,
          ExecutionTarget::kPimAccel}) {
        reports.push_back(Run(kernel_name, target, footprint, kernel));
    }
    return reports;
}

} // namespace pim::core
