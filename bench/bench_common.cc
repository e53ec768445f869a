#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "sim/sweep.h"
#include "telemetry/reference_table.h"
#include "telemetry/report_json.h"
#include "telemetry/span_tracer.h"
#include "workloads/catalog.h"

namespace pim::bench {

std::vector<KernelResult>
RunRegisteredKernels(const std::string &group)
{
    workloads::EnsureKernelCatalog();
    core::KernelSession session;
    std::vector<KernelResult> results;
    for (const core::KernelSpec *spec :
         core::KernelRegistry::Global().Group(group)) {
        results.push_back(session.Run(*spec));
    }
    return results;
}

std::vector<KernelResult>
RunBrowserKernels()
{
    return RunRegisteredKernels("browser");
}

std::vector<KernelResult>
RunTfKernels()
{
    return RunRegisteredKernels("tf");
}

std::vector<KernelResult>
RunVideoKernels()
{
    return RunRegisteredKernels("video");
}

namespace {

void
AddEnergyRow(Table &table, const std::string &kernel,
             const core::RunReport &report, double baseline_pj)
{
    const auto &e = report.energy;
    table.AddRow({
        kernel,
        report.target_name,
        Table::Num(e.Total() / baseline_pj, 3),
        Table::Num(e.compute / baseline_pj, 3),
        Table::Num(e.l1 / baseline_pj, 3),
        Table::Num(e.llc / baseline_pj, 3),
        Table::Num(e.interconnect / baseline_pj, 3),
        Table::Num(e.memctrl / baseline_pj, 3),
        Table::Num(e.dram / baseline_pj, 3),
    });
}

Table
KernelEnergyTable(const std::string &figure,
                  const std::vector<KernelResult> &results)
{
    Table energy(figure + " — normalized energy (CPU-Only = 1.0)");
    energy.SetHeader({"kernel", "target", "total", "CPU", "L1", "LLC",
                      "interconnect", "memctrl", "DRAM"});
    for (const auto &r : results) {
        const double base = r.cpu.TotalEnergyPj();
        AddEnergyRow(energy, r.name, r.cpu, base);
        AddEnergyRow(energy, r.name, r.pim_core, base);
        AddEnergyRow(energy, r.name, r.pim_acc, base);
    }
    return energy;
}

Table
KernelRuntimeTable(const std::string &figure,
                   const std::vector<KernelResult> &results)
{
    Table runtime(figure + " — normalized runtime (CPU-Only = 1.0)");
    runtime.SetHeader(
        {"kernel", "CPU-Only", "PIM-Core", "PIM-Acc", "speedup(acc)"});
    for (const auto &r : results) {
        const double base = r.cpu.TotalTimeNs();
        runtime.AddRow({
            r.name,
            "1.000",
            Table::Num(r.pim_core.TotalTimeNs() / base, 3),
            Table::Num(r.pim_acc.TotalTimeNs() / base, 3),
            Table::Num(r.Speedup(r.pim_acc), 2) + "x",
        });
    }
    return runtime;
}

std::string
Basename(const char *path)
{
    const char *slash = std::strrchr(path, '/');
    return slash != nullptr ? slash + 1 : path;
}

} // namespace

BenchOptions
ParseBenchArgs(int *argc, char **argv)
{
    BenchOptions opts;
    int out = 1;
    // A value-shaped token right after a bare flag means the caller
    // tried the space-separated spelling; name that mistake instead of
    // reporting the stray value as an unrecognized argument.
    const auto stray_value = [&](int i) {
        if (i + 1 >= *argc) {
            return false;
        }
        const std::string_view next = argv[i + 1];
        return next == "-" || next.empty() || next[0] != '-';
    };
    for (int i = 1; i < *argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--json") {
            if (stray_value(i)) {
                opts.error = "--json takes no separate value; use "
                             "--json=<path> (bare --json writes to "
                             "stdout)";
            }
            opts.json_path = "-";
        } else if (arg.rfind("--json=", 0) == 0) {
            opts.json_path = arg.substr(7);
        } else if (arg == "--trace") {
            opts.error = "--trace requires a value; use --trace=<path>";
        } else if (arg.rfind("--trace=", 0) == 0) {
            opts.trace_path = arg.substr(8);
        } else if (arg == "--filter") {
            opts.error =
                "--filter requires a value; use --filter=<substring>";
        } else if (arg.rfind("--filter=", 0) == 0) {
            opts.filter = arg.substr(9);
        } else if (arg == "--check-refs") {
            opts.check_refs = true;
        } else if (arg == "--list") {
            opts.list = true;
        } else if (arg == "--threads") {
            opts.error =
                "--threads requires a value; use --threads=<count>";
        } else if (arg.rfind("--threads=", 0) == 0) {
            const std::string value(arg.substr(10));
            char *end = nullptr;
            const unsigned long v =
                std::strtoul(value.c_str(), &end, 10);
            if (value.empty() || end == nullptr || *end != '\0' ||
                v == 0 || v > 4096) {
                opts.error = "--threads wants a count in 1..4096, got "
                             "'" + value + "'";
            } else {
                opts.threads = static_cast<unsigned>(v);
            }
        } else {
            argv[out++] = argv[i];
        }
    }
    *argc = out;
    return opts;
}

BenchOutput::BenchOutput(std::string binary, BenchOptions options)
    : binary_(std::move(binary)), options_(std::move(options))
{
}

bool
BenchOutput::Section(const std::string &name,
                     const std::function<void()> &fn)
{
    sections_all_.push_back(name);
    if (options_.list) {
        return false;
    }
    if (!options_.filter.empty() &&
        name.find(options_.filter) == std::string::npos) {
        return false;
    }
    PIM_TRACE_SPAN("bench", name);
    sections_run_.push_back(name);
    fn();
    return true;
}

void
BenchOutput::Emit(const Table &table)
{
    table.Print();
    tables_.Push(telemetry::ToJson(table));
}

void
BenchOutput::Metric(const std::string &name, double value)
{
    metrics_.Set(name, value);
}

void
BenchOutput::KernelGroup(const std::string &group,
                         const std::string &figure,
                         const std::vector<KernelResult> &results,
                         bool aggregates)
{
    Emit(KernelEnergyTable(figure, results));
    Emit(KernelRuntimeTable(figure, results));

    JsonValue kernels = JsonValue::Array();
    double core_saving = 0.0, acc_saving = 0.0;
    double core_speedup = 0.0, acc_speedup = 0.0;
    double moved_pj = 0.0, total_pj = 0.0;
    for (const auto &r : results) {
        JsonValue k = JsonValue::Object();
        k.Set("name", r.name);
        k.Set("cpu", telemetry::ToJson(r.cpu));
        k.Set("pim_core", telemetry::ToJson(r.pim_core));
        k.Set("pim_acc", telemetry::ToJson(r.pim_acc));
        kernels.Push(std::move(k));

        const std::string base = group + "." + telemetry::MetricSlug(r.name);
        Metric(base + ".pim_core.energy_reduction",
               r.EnergySaving(r.pim_core));
        Metric(base + ".pim_acc.energy_reduction",
               r.EnergySaving(r.pim_acc));
        Metric(base + ".pim_core.speedup", r.Speedup(r.pim_core));
        Metric(base + ".pim_acc.speedup", r.Speedup(r.pim_acc));

        core_saving += r.EnergySaving(r.pim_core);
        acc_saving += r.EnergySaving(r.pim_acc);
        core_speedup += r.Speedup(r.pim_core);
        acc_speedup += r.Speedup(r.pim_acc);
        moved_pj += r.cpu.energy.DataMovement();
        total_pj += r.cpu.TotalEnergyPj();
    }
    groups_.Set(group, std::move(kernels));

    if (!aggregates) {
        return;
    }
    if (!results.empty()) {
        const double n = static_cast<double>(results.size());
        Metric(group + ".avg.pim_core.energy_reduction", core_saving / n);
        Metric(group + ".avg.pim_acc.energy_reduction", acc_saving / n);
        Metric(group + ".avg.pim_core.speedup", core_speedup / n);
        Metric(group + ".avg.pim_acc.speedup", acc_speedup / n);
    }
    if (total_pj > 0.0) {
        Metric(group + ".avg.movement_share", moved_pj / total_pj);
    }
}

int
BenchOutput::Finish()
{
    int rc = 0;

    if (options_.list) {
        std::printf("sections:\n");
        for (const auto &name : sections_all_) {
            std::printf("  %s\n", name.c_str());
        }
    }

    if (!options_.json_path.empty() || options_.check_refs) {
        JsonValue doc = telemetry::MakeReportDocument(binary_);
        JsonValue sections = JsonValue::Array();
        for (const auto &name : sections_run_) {
            sections.Push(name);
        }
        doc.Set("sections", std::move(sections));
        doc.Set("groups", std::move(groups_));
        doc.Set("metrics", std::move(metrics_));
        doc.Set("tables", std::move(tables_));

        if (!options_.json_path.empty()) {
            const std::string text = doc.Dump(2) + "\n";
            if (options_.json_path == "-") {
                std::fwrite(text.data(), 1, text.size(), stdout);
            } else {
                std::FILE *f = std::fopen(options_.json_path.c_str(), "w");
                if (f == nullptr ||
                    std::fwrite(text.data(), 1, text.size(), f) !=
                        text.size()) {
                    std::fprintf(stderr, "bench: cannot write %s\n",
                                 options_.json_path.c_str());
                    rc = 1;
                }
                if (f != nullptr) {
                    std::fclose(f);
                }
            }
        }

        if (options_.check_refs) {
            const auto summary = telemetry::CheckReport(
                doc, telemetry::ReferenceTable::Paper());
            summary.ToTable().Print();
            std::printf("reference check: %d passed, %d warned, "
                        "%d failed, %d skipped -> %s\n",
                        summary.passed, summary.warned, summary.failed,
                        summary.skipped, summary.ok() ? "OK" : "FAIL");
            if (!summary.ok()) {
                rc = 1;
            }
        }
    }

    if (!options_.trace_path.empty()) {
        if (!telemetry::Tracer::Global().WriteTo(options_.trace_path)) {
            std::fprintf(stderr, "bench: cannot write %s\n",
                         options_.trace_path.c_str());
            rc = 1;
        }
    }
    return rc;
}

int
BenchMain(int argc, char **argv,
          const std::function<void(BenchOutput &)> &print_fn)
{
    BenchOptions opts = ParseBenchArgs(&argc, argv);
    if (!opts.error.empty()) {
        std::fprintf(stderr, "bench: %s\n", opts.error.c_str());
        return 1;
    }
    if (argc > 1) {
        std::fprintf(stderr, "bench: unrecognized argument '%s'\n",
                     argv[1]);
        return 1;
    }
    if (!opts.trace_path.empty()) {
        telemetry::Tracer::Global().SetEnabled(true);
    }
    if (opts.threads != 0) {
        // Must land before any SweepRunner is constructed (including
        // the bench.sweep_threads probe below).
        sim::SweepRunner::SetDefaultThreads(opts.threads);
    }
    BenchOutput out(Basename(argv[0]), std::move(opts));
    // Sweep parallelism in effect for this run (the PIM_SWEEP_THREADS
    // override or hardware concurrency) — recorded so perf trajectories
    // built from JSON reports can normalize across machines.
    out.Metric("bench.sweep_threads",
               static_cast<double>(sim::SweepRunner().thread_count()));
    print_fn(out);
    return out.Finish();
}

} // namespace pim::bench
