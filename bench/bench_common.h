/**
 * @file
 * Shared infrastructure for the per-figure bench binaries: a common
 * main() that prints the paper-figure tables, plus registry-driven
 * kernel runners shared by Figures 18, 19, 20, the headline summary,
 * and the pim_run driver.
 *
 * Every binary built on PIM_BENCH_MAIN gains the telemetry CLI:
 *
 *   --json=<path|->   write the structured run report (JSON)
 *   --trace=<path>    write a Chrome trace-event file of the run
 *   --check-refs      gate the report against the paper ReferenceTable
 *   --filter=<substr> only run matching output sections
 *   --list            list section names without running them
 *   --threads=<n>     sweep worker count (beats PIM_SWEEP_THREADS)
 *
 * without any per-binary flag handling; binaries only describe their
 * output through a BenchOutput (sections, tables, metrics).  Any other
 * argument is refused, so a figure report depends on nothing but
 * these flags.
 */

#ifndef PIM_BENCH_BENCH_COMMON_H
#define PIM_BENCH_BENCH_COMMON_H

#include <functional>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/table.h"
#include "core/kernel_registry.h"

namespace pim::bench {

/**
 * The (CPU-Only, PIM-Core, PIM-Acc) reports for one kernel — the
 * canonical definition lives in core/kernel_registry.h so the bench
 * layer, tests, and telemetry share one savings/speedup math.
 */
using KernelResult = core::KernelResult;

/**
 * Run one registered workload group ("browser", "tf", "video") at
 * paper scale through a fresh KernelSession, in figure order.
 */
std::vector<KernelResult> RunRegisteredKernels(const std::string &group);

/** The paper's browser kernels (Figure 18 inputs, Section 9). */
std::vector<KernelResult> RunBrowserKernels();

/** The paper's TensorFlow kernels (Figure 19 left). */
std::vector<KernelResult> RunTfKernels();

/** The paper's video kernels (Figure 20 inputs, Section 9). */
std::vector<KernelResult> RunVideoKernels();

/** The telemetry flags every bench binary understands. */
struct BenchOptions
{
    std::string json_path;  ///< Empty = no report; "-" = stdout.
    std::string trace_path; ///< Empty = no trace file.
    std::string filter;     ///< Substring match on section names.
    bool check_refs = false;
    bool list = false;
    /** Sweep worker count; 0 = unset.  A nonzero value becomes the
     *  process-wide SweepRunner default, overriding the
     *  PIM_SWEEP_THREADS environment variable (flag > env > cores). */
    unsigned threads = 0;
    /** Non-empty when a recognized flag was misspelled (e.g. a bare
     *  `--trace`, or `--json -` instead of `--json=-`); BenchMain
     *  reports it and exits. */
    std::string error;
};

/**
 * Strip the telemetry flags (--json=, --trace=, --filter=,
 * --check-refs, --list, --threads=) out of argv, compacting it in place and
 * updating *argc, so the caller sees only what is left (pim_run parses
 * its own flags from the remainder; BenchMain refuses any).
 * Malformed spellings of those flags set BenchOptions::error.
 */
BenchOptions ParseBenchArgs(int *argc, char **argv);

/**
 * Structured output collector handed to each binary's print function.
 * Everything printed through it is also captured into the JSON report
 * (when --json/--check-refs is active), and sections honor
 * --filter/--list.
 */
class BenchOutput
{
  public:
    BenchOutput(std::string binary, BenchOptions options);

    const BenchOptions &options() const { return options_; }

    /**
     * Run @p fn unless the section is excluded by --filter; under
     * --list only the name is recorded.  Returns true when @p fn ran.
     */
    bool Section(const std::string &name, const std::function<void()> &fn);

    /** Print @p table and record it in the report's "tables" array. */
    void Emit(const Table &table);

    /** Record one scalar under the report's flat "metrics" object. */
    void Metric(const std::string &name, double value);

    /**
     * Print the Figure 18/20-style tables for @p results and record
     * the full per-kernel reports plus derived metrics
     * (<group>.<kernel>.pim_core|pim_acc.energy_reduction|speedup and
     * the <group>.avg.* aggregates) under @p group.  Pass
     * @p aggregates = false when @p results is a partial group (e.g. a
     * filtered pim_run) so the <group>.avg.* reference-gated metrics
     * are not emitted from incomplete data.
     */
    void KernelGroup(const std::string &group, const std::string &figure,
                     const std::vector<KernelResult> &results,
                     bool aggregates = true);

    /**
     * Write the JSON report / trace file, run the reference check when
     * requested, and return the process exit code (non-zero when
     * --check-refs found a failure or an output file could not be
     * written).
     */
    int Finish();

  private:
    std::string binary_;
    BenchOptions options_;
    std::vector<std::string> sections_run_;
    std::vector<std::string> sections_all_;
    JsonValue groups_ = JsonValue::Object();
    JsonValue metrics_ = JsonValue::Object();
    JsonValue tables_ = JsonValue::Array();
};

/**
 * Standard bench main body: parse the telemetry flags, refuse any
 * other argument (exit code 1, @p print_fn not called), call
 * @p print_fn with a BenchOutput, and finalize the
 * report/trace/reference-check outputs.
 */
int BenchMain(int argc, char **argv,
              const std::function<void(BenchOutput &)> &print_fn);

} // namespace pim::bench

/**
 * Standard bench main: produce the figure output via @p print_fn (a
 * void(pim::bench::BenchOutput &)) under BenchMain's flag handling.
 */
#define PIM_BENCH_MAIN(print_fn)                                         \
    int main(int argc, char **argv)                                     \
    {                                                                    \
        return ::pim::bench::BenchMain(argc, argv, (print_fn));          \
    }

#endif // PIM_BENCH_BENCH_COMMON_H
