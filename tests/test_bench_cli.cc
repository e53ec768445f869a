/**
 * @file
 * Bench CLI plumbing tests: ParseBenchArgs flag extraction / argv
 * compaction (what pim_run parses its own flags from), BenchMain's
 * refusal of any argument it does not know, and the degenerate-baseline
 * guards on KernelResult.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../bench/bench_common.h"

namespace {

using namespace pim;

/** Mutable argv for ParseBenchArgs (which compacts it in place). */
class Argv
{
  public:
    explicit Argv(std::vector<std::string> args) : storage_(std::move(args))
    {
        for (auto &arg : storage_) {
            ptrs_.push_back(arg.data());
        }
        ptrs_.push_back(nullptr);
        argc_ = static_cast<int>(storage_.size());
    }

    int *argc() { return &argc_; }
    char **argv() { return ptrs_.data(); }

    std::vector<std::string>
    Remaining() const
    {
        std::vector<std::string> out;
        for (int i = 0; i < argc_; ++i) {
            out.emplace_back(ptrs_[i]);
        }
        return out;
    }

  private:
    std::vector<std::string> storage_;
    std::vector<char *> ptrs_;
    int argc_ = 0;
};

TEST(ParseBenchArgs, ExtractsTelemetryFlagsAndCompactsArgv)
{
    Argv a({"bin", "--json=report.json", "--kernel=x",
            "--trace=trace.json", "--check-refs", "--filter=kernels",
            "--list"});
    const bench::BenchOptions opts =
        bench::ParseBenchArgs(a.argc(), a.argv());

    EXPECT_EQ(opts.json_path, "report.json");
    EXPECT_EQ(opts.trace_path, "trace.json");
    EXPECT_EQ(opts.filter, "kernels");
    EXPECT_TRUE(opts.check_refs);
    EXPECT_TRUE(opts.list);

    // Only the binary name and the pim_run-style flag survive, in order.
    const auto rest = a.Remaining();
    ASSERT_EQ(rest.size(), 2u);
    EXPECT_EQ(rest[0], "bin");
    EXPECT_EQ(rest[1], "--kernel=x");
}

TEST(ParseBenchArgs, BareJsonMeansStdout)
{
    Argv a({"bin", "--json"});
    const bench::BenchOptions opts =
        bench::ParseBenchArgs(a.argc(), a.argv());
    EXPECT_EQ(opts.json_path, "-");
    EXPECT_EQ(*a.argc(), 1);
}

TEST(ParseBenchArgs, DefaultsAreEmptyAndOff)
{
    Argv a({"bin", "positional"});
    const bench::BenchOptions opts =
        bench::ParseBenchArgs(a.argc(), a.argv());
    EXPECT_TRUE(opts.json_path.empty());
    EXPECT_TRUE(opts.trace_path.empty());
    EXPECT_TRUE(opts.filter.empty());
    EXPECT_FALSE(opts.check_refs);
    EXPECT_FALSE(opts.list);
    EXPECT_EQ(*a.argc(), 2) << "unknown args must pass through";
}

TEST(ParseBenchArgs, WellFormedFlagsProduceNoError)
{
    Argv a({"bin", "--json=out.json", "--trace=t.json", "--filter=x"});
    const bench::BenchOptions opts =
        bench::ParseBenchArgs(a.argc(), a.argv());
    EXPECT_TRUE(opts.error.empty()) << opts.error;
}

TEST(ParseBenchArgs, BareTraceIsAnError)
{
    Argv a({"bin", "--trace"});
    const bench::BenchOptions opts =
        bench::ParseBenchArgs(a.argc(), a.argv());
    EXPECT_FALSE(opts.error.empty());
    EXPECT_NE(opts.error.find("--trace=<path>"), std::string::npos)
        << "the error must teach the correct spelling: " << opts.error;
    EXPECT_EQ(*a.argc(), 1) << "the malformed flag must not leak through";
}

TEST(ParseBenchArgs, BareFilterIsAnError)
{
    Argv a({"bin", "--filter", "kernels"});
    const bench::BenchOptions opts =
        bench::ParseBenchArgs(a.argc(), a.argv());
    EXPECT_FALSE(opts.error.empty());
    EXPECT_NE(opts.error.find("--filter=<substring>"), std::string::npos)
        << opts.error;
}

TEST(ParseBenchArgs, JsonWithSeparateValueIsAnError)
{
    // "--json out.json" must not write to stdout and leave "out.json"
    // behind as a stray argument; the error names the right spelling.
    Argv a({"bin", "--json", "out.json"});
    const bench::BenchOptions opts =
        bench::ParseBenchArgs(a.argc(), a.argv());
    EXPECT_FALSE(opts.error.empty());
    EXPECT_NE(opts.error.find("--json=<path>"), std::string::npos)
        << opts.error;
}

TEST(ParseBenchArgs, JsonWithSeparateDashIsAnError)
{
    Argv a({"bin", "--json", "-"});
    const bench::BenchOptions opts =
        bench::ParseBenchArgs(a.argc(), a.argv());
    EXPECT_FALSE(opts.error.empty());
}

TEST(ParseBenchArgs, ThreadsFlagParsesAndCompacts)
{
    Argv a({"bin", "--threads=7", "--kernel=x"});
    const bench::BenchOptions opts =
        bench::ParseBenchArgs(a.argc(), a.argv());
    EXPECT_TRUE(opts.error.empty());
    EXPECT_EQ(opts.threads, 7u);
    EXPECT_EQ(*a.argc(), 2);
}

TEST(ParseBenchArgs, ThreadsDefaultsToUnset)
{
    Argv a({"bin"});
    const bench::BenchOptions opts =
        bench::ParseBenchArgs(a.argc(), a.argv());
    EXPECT_EQ(opts.threads, 0u);
}

TEST(ParseBenchArgs, BareThreadsIsAnError)
{
    Argv a({"bin", "--threads"});
    const bench::BenchOptions opts =
        bench::ParseBenchArgs(a.argc(), a.argv());
    EXPECT_FALSE(opts.error.empty());
}

TEST(ParseBenchArgs, MalformedThreadsValuesAreErrors)
{
    for (const char *bad :
         {"--threads=0", "--threads=", "--threads=banana",
          "--threads=4097", "--threads=2x"}) {
        Argv a({"bin", bad});
        const bench::BenchOptions opts =
            bench::ParseBenchArgs(a.argc(), a.argv());
        EXPECT_FALSE(opts.error.empty()) << bad;
        EXPECT_EQ(opts.threads, 0u) << bad;
    }
}

TEST(BenchMain, RefusesUnrecognizedArguments)
{
    // Neither a retired timing-library flag nor a typo of a telemetry
    // flag may be ignored: the figure would silently run without it.
    for (const char *arg : {"--benchmark_filter=^$", "--jsno=x"}) {
        Argv a({"bin", arg});
        bool printed = false;
        const int rc = bench::BenchMain(
            *a.argc(), a.argv(),
            [&](bench::BenchOutput &) { printed = true; });
        EXPECT_EQ(rc, 1) << arg;
        EXPECT_FALSE(printed) << arg;
    }
}

TEST(BenchMain, KnownFlagsReachThePrintFunction)
{
    Argv a({"bin", "--list", "--filter=none"});
    bool printed = false;
    const int rc = bench::BenchMain(
        *a.argc(), a.argv(), [&](bench::BenchOutput &out) {
            printed = true;
            EXPECT_TRUE(out.options().list);
            EXPECT_EQ(out.options().filter, "none");
        });
    EXPECT_EQ(rc, 0);
    EXPECT_TRUE(printed);
}

TEST(KernelResult, DegenerateBaselinesYieldNeutralValues)
{
    bench::KernelResult r;
    // All-zero reports: no energy, no time.
    EXPECT_DOUBLE_EQ(r.EnergySaving(r.pim_core), 0.0);
    EXPECT_DOUBLE_EQ(r.Speedup(r.pim_core), 1.0);

    // Real baseline but a zero-time PIM target still yields parity,
    // not infinity.
    r.cpu.timing.memory_ns = 200.0;
    r.cpu.energy.dram = 1000.0;
    EXPECT_DOUBLE_EQ(r.Speedup(r.pim_core), 1.0);
    EXPECT_DOUBLE_EQ(r.EnergySaving(r.pim_core), 1.0); // 0 pJ vs 1000 pJ
}

TEST(KernelResult, RatiosComputedFromTotals)
{
    bench::KernelResult r;
    r.cpu.timing.memory_ns = 400.0;
    r.cpu.energy.dram = 1000.0;
    r.pim_acc.timing.memory_ns = 100.0;
    r.pim_acc.energy.dram = 250.0;
    EXPECT_DOUBLE_EQ(r.Speedup(r.pim_acc), 4.0);
    EXPECT_DOUBLE_EQ(r.EnergySaving(r.pim_acc), 0.75);
}

} // namespace
