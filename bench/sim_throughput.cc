/**
 * @file
 * Simulator-throughput gates: the three replay-engine comparisons CI
 * holds to a bound, each timed as the median of 5 interleaved runs with
 * its counters cross-checked on every run.
 *
 *   profiler       — the one-pass study against per-config replay
 *                    (>= 5x, bit-identical),
 *   profiler_shard — set-sharded profiling passes against serial
 *                    passes over an mmap-backed trace (>= 2x on >= 4
 *                    cores, bit-identical),
 *   mmap           — replay from a memory-mapped container against the
 *                    in-RAM compact trace (<= 1.25x, bit-identical).
 *
 * Counter correctness of every engine against the independent
 * reference cache model lives in the test tree (tests/oracle.h); this
 * binary only times engines that already agree.
 */

#include "bench_common.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/rng.h"
#include "sim/hierarchy.h"
#include "sim/sweep.h"
#include "sim/trace.h"
#include "sim/trace_codec.h"
#include "workloads/browser/texture_tiler.h"

namespace {

using namespace pim;

/** Record the texture-tiling access stream (coarse 128 B row spans). */
sim::AccessTrace
RecordTilingTrace(std::size_t side)
{
    Rng rng(21);
    browser::Bitmap linear(side, side);
    linear.Randomize(rng);
    browser::TiledTexture tiled(side, side);

    sim::AccessTrace trace;
    core::ExecutionContext ctx(core::ExecutionTarget::kCpuOnly);
    ctx.AttachTrace(trace);
    browser::TileTexture(linear, tiled, ctx);
    ctx.DetachTrace();
    return trace;
}

/**
 * The 1024x1024 tiling stream concatenated until it holds at least
 * @p target_entries entries, block-encoded: large enough that
 * partition and replay dominate setup noise.
 */
sim::CompactTrace
TilingStress(std::size_t target_entries)
{
    const sim::AccessTrace base = RecordTilingTrace(1024);
    sim::AccessTrace raw;
    const std::size_t repeats = std::max<std::size_t>(
        1, (target_entries + base.size() - 1) /
               std::max<std::size_t>(1, base.size()));
    raw.Reserve(base.size() * repeats);
    for (std::size_t i = 0; i < repeats; ++i) {
        raw.Append(base.data(), base.size());
    }
    return sim::CompactTrace::Encode(raw);
}

/**
 * Save @p compact as a container file and map it back (lazy digest
 * verification).  The file is unlinked once mapped; the mapping keeps
 * its pages.  On failure prints why @p section is skipped.
 */
std::optional<sim::MappedCompactTrace>
MapContainer(const sim::CompactTrace &compact, const char *section)
{
    const std::string path = std::string("/tmp/sim_throughput_") +
                             section + "_" + std::to_string(getpid()) +
                             ".ctrace";
    std::string error;
    std::optional<sim::MappedCompactTrace> mapped;
    if (compact.SaveTo(path, &error)) {
        mapped = sim::MappedCompactTrace::Open(
            path, &error, sim::MappedCompactTrace::Verify::kLazy);
    }
    ::unlink(path.c_str());
    if (!mapped) {
        std::printf("%s study skipped: %s\n\n", section, error.c_str());
    }
    return mapped;
}

/** Wall-clock one replay run; returns seconds. */
template <typename Fn>
double
TimeRun(const Fn &fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Median and spread of repeated wall-clock runs, in seconds. */
struct RepeatedTiming
{
    double median = 0.0;
    double min = 0.0;
    double max = 0.0;
};

/** Runs per engine; odd, so each median is one observed run. */
constexpr int kRuns = 5;

/**
 * Time kRuns rounds of @p engines.size() engines, interleaved (each
 * round runs every engine once, in order) so slow drift on a shared
 * host hits every engine alike; each engine returns one run's seconds.
 */
std::vector<RepeatedTiming>
TimeInterleaved(const std::vector<std::function<double()>> &engines)
{
    std::vector<std::vector<double>> samples(engines.size());
    for (int r = 0; r < kRuns; ++r) {
        for (std::size_t e = 0; e < engines.size(); ++e) {
            samples[e].push_back(engines[e]());
        }
    }
    std::vector<RepeatedTiming> out;
    for (std::vector<double> &s : samples) {
        std::sort(s.begin(), s.end());
        out.push_back({s[s.size() / 2], s.front(), s.back()});
    }
    return out;
}

/**
 * Emit `<prefix>.<engine>_ms` (median) with `_min_ms` / `_max_ms`
 * beside it for each engine, in @p timings order.
 */
void
EmitTimings(bench::BenchOutput &out, const std::string &prefix,
            const std::vector<const char *> &engines,
            const std::vector<RepeatedTiming> &timings)
{
    for (std::size_t e = 0; e < timings.size(); ++e) {
        const std::string name = prefix + "." + engines[e];
        out.Metric(name + "_ms", timings[e].median * 1e3);
        out.Metric(name + "_min_ms", timings[e].min * 1e3);
        out.Metric(name + "_max_ms", timings[e].max * 1e3);
    }
}

bool
SameCounters(const sim::PerfCounters &a, const sim::PerfCounters &b)
{
    const auto same_cache = [](const sim::CacheStats &x,
                               const sim::CacheStats &y) {
        return x.read_hits == y.read_hits &&
               x.read_misses == y.read_misses &&
               x.write_hits == y.write_hits &&
               x.write_misses == y.write_misses &&
               x.writebacks == y.writebacks;
    };
    return same_cache(a.l1, b.l1) && same_cache(a.llc, b.llc) &&
           a.has_llc == b.has_llc &&
           a.dram.read_requests == b.dram.read_requests &&
           a.dram.write_requests == b.dram.write_requests &&
           a.dram.read_bytes == b.dram.read_bytes &&
           a.dram.write_bytes == b.dram.write_bytes;
}

/**
 * The 122-point study grid shared by the profiler and profiler-shard
 * sections: two host L1 geometries x a 60-point LLC ladder (three set
 * counts, write-back plus write-through and no-write-allocate
 * variants), plus both PIM targets.
 */
sim::StudySpec
ProfilerStudyGrid()
{
    sim::StudySpec spec;
    const sim::HierarchyConfig host = sim::HostHierarchyConfig();
    spec.dram = host.dram;
    sim::CacheConfig small_l1 = host.l1;
    small_l1.size = 32_KiB;
    spec.l1_points = {host.l1, small_l1};
    // A dense associativity (= capacity) ladder: every point in a
    // (set count, allocate) group beyond the first is a free
    // histogram readout for the study, while costing the per-config
    // reference one more full replay per L1 geometry.
    constexpr std::size_t kSets = 1024;
    constexpr Bytes kLine = 64;
    for (const std::uint32_t a :
         {1u,  2u,  3u,  4u,  5u,  6u,  7u,  8u,  9u,  10u,
          11u, 12u, 13u, 14u, 15u, 16u, 20u, 24u, 28u, 32u,
          36u, 40u, 44u, 48u, 52u, 56u, 60u, 64u}) {
        spec.llc_points.push_back(
            sim::CacheConfig{"llc", kSets * a * kLine, a, kLine});
    }
    // Two more set-count ladders: each costs the study ONE extra
    // profiling pass, while costing the per-config reference one full
    // replay per point per L1.
    for (const std::uint32_t a : {1u,  2u,  3u,  4u,  6u,  8u,  10u,
                                  12u, 16u, 20u, 24u, 32u, 40u, 48u,
                                  56u, 64u}) {
        spec.llc_points.push_back(
            sim::CacheConfig{"llc", 2 * kSets * a * kLine, a, kLine});
    }
    for (const std::uint32_t a :
         {1u, 2u, 4u, 8u, 16u, 32u, 48u, 64u}) {
        spec.llc_points.push_back(
            sim::CacheConfig{"llc", kSets / 2 * a * kLine, a, kLine});
    }
    for (const std::uint32_t a : {2u, 4u, 8u, 16u}) {
        sim::CacheConfig wt{"llc", kSets * a * kLine, a, kLine};
        wt.policy = sim::WritePolicy::kWriteThroughAllocate;
        spec.llc_points.push_back(wt);
        wt.policy = sim::WritePolicy::kWriteThroughNoAllocate;
        spec.llc_points.push_back(wt);
    }
    const sim::HierarchyConfig pim_core = sim::PimCoreHierarchyConfig();
    const sim::HierarchyConfig pim_accel =
        sim::PimAccelHierarchyConfig();
    spec.pim_points.push_back(
        sim::StudyPimPoint{"pim-core", pim_core.l1, pim_core.dram});
    spec.pim_points.push_back(
        sim::StudyPimPoint{"pim-accel", pim_accel.l1, pim_accel.dram});
    return spec;
}

/**
 * The generalized one-pass study: the two-level host-sensitivity grid
 * (every L1 geometry x LLC ladder point, plus the raw-trace PIM
 * targets) on the 512x512 tiling stream, answered two ways:
 *
 *   per-config — ReplayTrace: one full cold replay per design point,
 *                the reference; cost grows with the number of points.
 *   study      — ProfileStudy: one L1 simulation per distinct L1
 *                geometry, its miss stream fanned into ONE nested
 *                stack-distance pass per (line, sets, allocate) group;
 *                every LLC point on the ladder is an O(histogram)
 *                readout, so cost is independent of ladder length.
 *
 * CI gates sim_throughput.profiler.bit_identical == 1 (every tracked
 * design point, every run) and a >= 5x speedup of the medians.
 */
void
PrintProfilerStudy(bench::BenchOutput &out)
{
    // 512x512 keeps each per-config run to a few seconds.
    const sim::AccessTrace trace = RecordTilingTrace(512);
    const sim::AccessTraceSource source(trace);
    const sim::StudySpec spec = ProfilerStudyGrid();

    // The identical grid as explicit hierarchies for the per-config
    // reference: row-major (l1, llc), PIM points appended.
    std::vector<sim::HierarchyConfig> configs;
    for (const sim::CacheConfig &l1 : spec.l1_points) {
        for (const sim::CacheConfig &llc : spec.llc_points) {
            sim::HierarchyConfig h;
            h.name = "study";
            h.l1 = l1;
            h.llc = llc;
            h.dram = spec.dram;
            configs.push_back(std::move(h));
        }
    }
    for (const sim::StudyPimPoint &p : spec.pim_points) {
        sim::HierarchyConfig h;
        h.name = p.name;
        h.l1 = p.l1;
        h.dram = p.dram;
        configs.push_back(std::move(h));
    }

    const sim::SweepRunner runner;
    std::vector<sim::PerfCounters> ref;
    sim::StudyResult study;
    const std::vector<RepeatedTiming> timings = TimeInterleaved(
        {[&] {
             return TimeRun(
                 [&] { ref = runner.ReplayTrace(source, configs); });
         },
         [&] {
             return TimeRun(
                 [&] { study = runner.ProfileStudy(source, spec); });
         }});
    const double per_config_s = timings[0].median;
    const double study_s = timings[1].median;

    const std::size_t cols = spec.llc_points.size();
    bool same = true, exact = true;
    for (std::size_t i = 0; i < spec.l1_points.size(); ++i) {
        for (std::size_t j = 0; j < cols; ++j) {
            same = same && SameCounters(study.host[i][j].counters,
                                        ref[i * cols + j]);
            exact = exact && study.host[i][j].writebacks_exact;
        }
    }
    for (std::size_t j = 0; j < spec.pim_points.size(); ++j) {
        same = same &&
               SameCounters(study.pim[j].counters,
                            ref[spec.l1_points.size() * cols + j]);
        exact = exact && study.pim[j].writebacks_exact;
    }

    const double speedup = per_config_s / study_s;
    Table table("Generalized one-pass study — " +
                std::to_string(configs.size()) +
                "-point two-level host grid + PIM, tiling stream, "
                "median of " +
                std::to_string(kRuns) + " runs");
    table.SetHeader({"engine", "trace replays", "median (ms)",
                     "min (ms)", "max (ms)", "speedup", "exact"});
    const auto row = [&](const std::string &name,
                         const std::string &replays,
                         const RepeatedTiming &t) {
        table.AddRow({
            name,
            replays,
            Table::Num(t.median * 1e3, 1),
            Table::Num(t.min * 1e3, 1),
            Table::Num(t.max * 1e3, 1),
            Table::Num(per_config_s / t.median, 2) + "x",
            same && exact ? "bit-identical" : "MISMATCH",
        });
    };
    row("per-config replay (reference)", std::to_string(configs.size()),
        timings[0]);
    row("one-pass study (nested profilers)",
        std::to_string(study.trace_replays) + " (+" +
            std::to_string(study.profile_passes) + " passes)",
        timings[1]);
    out.Emit(table);

    const std::string prefix = "sim_throughput.profiler";
    out.Metric(prefix + ".grid_points",
               static_cast<double>(configs.size()));
    out.Metric(prefix + ".l1_points",
               static_cast<double>(spec.l1_points.size()));
    out.Metric(prefix + ".llc_points", static_cast<double>(cols));
    out.Metric(prefix + ".trace_replays",
               static_cast<double>(study.trace_replays));
    out.Metric(prefix + ".profile_passes",
               static_cast<double>(study.profile_passes));
    out.Metric(prefix + ".runs", kRuns);
    EmitTimings(out, prefix, {"per_config", "study"}, timings);
    out.Metric(prefix + ".speedup", speedup);
    out.Metric(prefix + ".bit_identical", same && exact ? 1.0 : 0.0);

    std::printf("study counters %s the per-config reference across "
                "%zu points (%zu replays + %zu profile passes vs %zu "
                "replays; threads: %u)\n\n",
                same && exact ? "match" : "DO NOT match",
                configs.size(), study.trace_replays,
                study.profile_passes, configs.size(),
                runner.thread_count());
}

/**
 * Set-sharded profiling passes: the 122-point study grid answered two
 * ways over an mmap-backed container file —
 *
 *   serial  — PIM_SHARD_PASS=off: the sequential pass engine (one
 *             thread replays each profiling pass),
 *   sharded — set-sharded passes: every pass split across per-set
 *             shard workers, shard snapshots merged
 *             (StackProfile::Merge / CacheStats::operator+=).
 *
 * CI gates sim_throughput.profiler_shard.bit_identical == 1 and, when
 * the machine has >= 4 cores, a >= 2x speedup of the medians.
 */
void
PrintProfilerShardStudy(bench::BenchOutput &out)
{
    // Stress stream at out-of-core scale, streamed from a container
    // file by both engines — the sharded one through its windowed
    // partition.
    const sim::CompactTrace compact = TilingStress(2u << 20);
    const auto mapped = MapContainer(compact, "profiler_shard");
    if (!mapped) {
        return;
    }

    const sim::StudySpec spec = ProfilerStudyGrid();
    // Run the comparison at min(cores, 8) threads (the serial baseline
    // does not use the pool anyway), floored at 2 so the sharded
    // engine still engages — and its bit-identity still gets checked
    // — on single-core runners, where the speedup gate is off.
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0) {
        hw = 1;
    }
    const sim::SweepRunner runner(std::max(2u, std::min(hw, 8u)));

    const auto timed = [&](bool serial_passes, sim::StudyResult *result) {
        return [&, serial_passes, result] {
            if (serial_passes) {
                ::setenv("PIM_SHARD_PASS", "off", 1);
            }
            const double s = TimeRun(
                [&] { *result = runner.ProfileStudy(*mapped, spec); });
            if (serial_passes) {
                ::unsetenv("PIM_SHARD_PASS");
            }
            return s;
        };
    };

    sim::StudyResult serial, sharded;
    const std::vector<RepeatedTiming> timings =
        TimeInterleaved({timed(true, &serial), timed(false, &sharded)});
    const double serial_s = timings[0].median;
    const double sharded_s = timings[1].median;

    bool identical = true;
    for (std::size_t i = 0; i < spec.l1_points.size(); ++i) {
        for (std::size_t j = 0; j < spec.llc_points.size(); ++j) {
            identical = identical &&
                        SameCounters(serial.host[i][j].counters,
                                     sharded.host[i][j].counters) &&
                        serial.host[i][j].writebacks_exact ==
                            sharded.host[i][j].writebacks_exact;
        }
    }
    for (std::size_t j = 0; j < spec.pim_points.size(); ++j) {
        identical = identical && SameCounters(serial.pim[j].counters,
                                              sharded.pim[j].counters);
    }
    const double speedup = serial_s / sharded_s;

    const std::size_t points =
        spec.l1_points.size() * spec.llc_points.size() +
        spec.pim_points.size();
    Table table("Sharded profiling passes — " + std::to_string(points) +
                "-point study, mmap-streamed trace, median of " +
                std::to_string(kRuns) + " runs");
    table.SetHeader({"engine", "shards", "median (ms)", "min (ms)",
                     "max (ms)", "speedup", "exact"});
    const auto row = [&](const char *name, unsigned shards,
                         const RepeatedTiming &t) {
        table.AddRow({
            name,
            std::to_string(shards),
            Table::Num(t.median * 1e3, 1),
            Table::Num(t.min * 1e3, 1),
            Table::Num(t.max * 1e3, 1),
            Table::Num(serial_s / t.median, 2) + "x",
            identical ? "bit-identical" : "MISMATCH",
        });
    };
    row("serial passes (PIM_SHARD_PASS=off)", 1, timings[0]);
    row("sharded passes", sharded.shards, timings[1]);
    out.Emit(table);

    const std::string prefix = "sim_throughput.profiler_shard";
    out.Metric(prefix + ".grid_points", static_cast<double>(points));
    out.Metric(prefix + ".entries",
               static_cast<double>(compact.size()));
    out.Metric(prefix + ".threads",
               static_cast<double>(runner.thread_count()));
    out.Metric(prefix + ".shards",
               static_cast<double>(sharded.shards));
    out.Metric(prefix + ".runs", kRuns);
    EmitTimings(out, prefix, {"serial", "sharded"}, timings);
    out.Metric(prefix + ".speedup", speedup);
    out.Metric(prefix + ".bit_identical", identical ? 1.0 : 0.0);

    std::printf("sharded study %.2fx vs serial passes (%u shards, "
                "%u threads); counters %s\n\n",
                speedup, sharded.shards, runner.thread_count(),
                identical ? "bit-identical" : "DO NOT match");
}

/**
 * Out-of-core replay: one stress stream, block-encoded, saved as a
 * PIMCTRC1 container file, and replayed two ways through identical
 * host hierarchies — from the in-RAM CompactTrace and from the
 * mmap-backed MappedCompactTrace (lazy digest verification, page-cache
 * warm after the first pass).  CI gates
 * sim_throughput.mmap.bit_identical == 1 and
 * sim_throughput.mmap.vs_compact_ratio <= 1.25 (medians).
 */
void
PrintMmapStudy(bench::BenchOutput &out)
{
    const sim::CompactTrace compact = TilingStress(4u << 20);
    const auto mapped = MapContainer(compact, "mmap");
    if (!mapped) {
        return;
    }

    const sim::HierarchyConfig config = sim::HostHierarchyConfig();
    const auto replay = [&](const sim::TraceSource &source,
                            sim::PerfCounters *pc) {
        return [&config, &source, pc] {
            return TimeRun([&] {
                sim::MemoryHierarchy mh(config);
                source.ReplayInto(mh.Top());
                *pc = mh.Snapshot();
            });
        };
    };
    const sim::CompactTraceSource compact_source(compact);
    sim::PerfCounters compact_pc, mapped_pc;
    const std::vector<RepeatedTiming> timings = TimeInterleaved(
        {replay(compact_source, &compact_pc), replay(*mapped, &mapped_pc)});
    const double compact_s = timings[0].median;
    const double mapped_s = timings[1].median;

    const bool same = SameCounters(compact_pc, mapped_pc);
    const double raw_bytes = static_cast<double>(compact.RawBytes());
    const double accesses = static_cast<double>(compact.size());

    Table table("Out-of-core replay — in-RAM CompactTrace vs "
                "mmap-backed container file, median of " +
                std::to_string(kRuns) + " runs");
    table.SetHeader({"path", "median (ms)", "min (ms)", "max (ms)",
                     "Maccesses/s", "GB/s (raw)", "exact"});
    const auto row = [&](const std::string &name,
                         const RepeatedTiming &t) {
        table.AddRow({
            name,
            Table::Num(t.median * 1e3, 1),
            Table::Num(t.min * 1e3, 1),
            Table::Num(t.max * 1e3, 1),
            Table::Num(accesses / t.median / 1e6, 1),
            Table::Num(raw_bytes / t.median / 1e9, 2),
            same ? "bit-identical" : "MISMATCH",
        });
    };
    row("in-RAM compact decode", timings[0]);
    row("mmap streaming decode (lazy verify)", timings[1]);
    out.Emit(table);

    const std::string prefix = "sim_throughput.mmap";
    out.Metric(prefix + ".entries", accesses);
    out.Metric(prefix + ".encoded_bytes",
               static_cast<double>(compact.SizeBytes()));
    out.Metric(prefix + ".runs", kRuns);
    EmitTimings(out, prefix, {"compact", "mapped"}, timings);
    out.Metric(prefix + ".compact_gb_per_s",
               raw_bytes / compact_s / 1e9);
    out.Metric(prefix + ".mapped_gb_per_s", raw_bytes / mapped_s / 1e9);
    out.Metric(prefix + ".vs_compact_ratio", mapped_s / compact_s);
    out.Metric(prefix + ".bit_identical", same ? 1.0 : 0.0);

    std::printf("mmap streaming replay %.2f GB/s vs %.2f GB/s in-RAM "
                "(%.2fx); counters %s\n\n",
                raw_bytes / mapped_s / 1e9, raw_bytes / compact_s / 1e9,
                mapped_s / compact_s,
                same ? "bit-identical" : "DO NOT match");
}

void
PrintThroughput(bench::BenchOutput &out)
{
    out.Section("profiler", [&] { PrintProfilerStudy(out); });
    out.Section("profiler_shard", [&] { PrintProfilerShardStudy(out); });
    out.Section("mmap", [&] { PrintMmapStudy(out); });
}

} // namespace

PIM_BENCH_MAIN(PrintThroughput)
