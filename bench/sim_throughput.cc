/**
 * @file
 * Simulator-throughput microbenchmark: simulated accesses per second on
 * trace replay, the metric the batched access-streaming work optimizes.
 *
 * Both engines are kept and compared:
 *
 *   - The **seed baseline**: `SeedCache` below is a faithful copy of the
 *     cache model this repo shipped with — one virtual `Access` per
 *     trace entry, divide/modulo set indexing, a full associativity
 *     scan per probe, no coalescing filter.  This is what every replay
 *     and every instrumented kernel paid before this change.
 *   - The **current engine**: packed 8-byte entries streamed through
 *     `MemorySink::AccessBatch` into the shift/mask + MRU-way +
 *     coalescing-filter `Cache`, optionally fanned out across
 *     hierarchies by `SweepRunner`.
 *
 * The two must produce bit-equal counters (cross-checked at the end of
 * each table); only the wall-clock may differ.  Two recorded kernel
 * streams bound the spectrum: texture tiling issues coarse 128-byte
 * row spans, LZO compression issues 1-4-byte probes — the fine-grained
 * pattern the same-line coalescing filter exists for.
 */

#include "bench_common.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/rng.h"
#include "sim/hierarchy.h"
#include "sim/simd.h"
#include "sim/sweep.h"
#include "sim/trace.h"
#include "sim/trace_codec.h"
#include "workloads/browser/lzo.h"
#include "workloads/browser/page_data.h"
#include "workloads/browser/texture_tiler.h"

namespace {

using namespace pim;

/**
 * The seed repo's cache model, kept verbatim as the scalar baseline:
 * divide/modulo set indexing and a full-set probe on every access.
 * Counter semantics are identical to sim::Cache by construction, which
 * the benchmark verifies after every comparison.
 */
class SeedCache final : public sim::MemorySink
{
  public:
    SeedCache(const sim::CacheConfig &config, sim::MemorySink &below)
        : config_(config), below_(&below)
    {
        num_sets_ =
            config_.size / (config_.line_bytes * config_.associativity);
        lines_.resize(num_sets_ * config_.associativity);
    }

    void
    Access(Address addr, Bytes bytes, sim::AccessType type) override
    {
        if (bytes == 0) {
            return;
        }
        const Bytes line = config_.line_bytes;
        Address cur = addr & ~(line - 1);
        const Address end = addr + bytes;
        for (; cur < end; cur += line) {
            AccessLine(cur, type);
        }
    }

    const sim::CacheStats &stats() const { return stats_; }

  private:
    struct Line
    {
        Address tag = 0;
        std::uint64_t lru = 0;
        bool valid = false;
        bool dirty = false;
    };

    std::size_t
    SetIndex(Address line_addr) const
    {
        return static_cast<std::size_t>((line_addr / config_.line_bytes) %
                                        num_sets_);
    }

    void
    AccessLine(Address line_addr, sim::AccessType type)
    {
        const std::size_t set = SetIndex(line_addr);
        Line *base = &lines_[set * config_.associativity];
        ++tick_;

        Line *victim = base;
        for (std::uint32_t way = 0; way < config_.associativity; ++way) {
            Line &l = base[way];
            if (l.valid && l.tag == line_addr) {
                l.lru = tick_;
                if (type == sim::AccessType::kWrite) {
                    l.dirty = true;
                    ++stats_.write_hits;
                } else {
                    ++stats_.read_hits;
                }
                return;
            }
            if (!l.valid) {
                victim = &l;
            } else if (victim->valid && l.lru < victim->lru) {
                victim = &l;
            }
        }

        if (type == sim::AccessType::kWrite) {
            ++stats_.write_misses;
        } else {
            ++stats_.read_misses;
        }
        if (victim->valid && victim->dirty) {
            ++stats_.writebacks;
            below_->Access(victim->tag, config_.line_bytes,
                           sim::AccessType::kWrite);
        }
        below_->Access(line_addr, config_.line_bytes,
                       sim::AccessType::kRead);
        victim->valid = true;
        victim->dirty = (type == sim::AccessType::kWrite);
        victim->tag = line_addr;
        victim->lru = tick_;
    }

    sim::CacheConfig config_;
    sim::MemorySink *below_;
    std::size_t num_sets_ = 0;
    std::vector<Line> lines_;
    sim::CacheStats stats_;
    std::uint64_t tick_ = 0;
};

/** Seed-model host hierarchy (L1 + LLC over a DRAM counter). */
struct SeedHierarchy
{
    explicit SeedHierarchy(const sim::HierarchyConfig &config)
        : dram(config.dram), llc(*config.llc, dram), l1(config.l1, llc)
    {
    }

    sim::PerfCounters
    Snapshot() const
    {
        sim::PerfCounters pc;
        pc.l1 = l1.stats();
        pc.llc = llc.stats();
        pc.has_llc = true;
        pc.dram = dram.stats();
        return pc;
    }

    sim::DramCounter dram;
    SeedCache llc;
    SeedCache l1;
};

/** Record the texture-tiling access stream (coarse 128 B row spans). */
sim::AccessTrace
RecordTilingTrace()
{
    Rng rng(21);
    browser::Bitmap linear(1024, 1024);
    linear.Randomize(rng);
    browser::TiledTexture tiled(1024, 1024);

    sim::AccessTrace trace;
    core::ExecutionContext ctx(core::ExecutionTarget::kCpuOnly);
    ctx.AttachTrace(trace);
    browser::TileTexture(linear, tiled, ctx);
    return trace;
}

/** Record the LZO compression stream (fine-grained 1-4 B probes). */
sim::AccessTrace
RecordCompressionTrace()
{
    Rng rng(22);
    SimBuffer<std::uint8_t> pages(512 * 1024);
    browser::FillPageLikeData(pages, rng, 0.4);
    SimBuffer<std::uint8_t> dst(browser::LzoCompressBound(pages.size()));

    sim::AccessTrace trace;
    core::ExecutionContext ctx(core::ExecutionTarget::kCpuOnly);
    ctx.AttachTrace(trace);
    browser::LzoCompress(pages, pages.size(), dst, ctx);
    return trace;
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

/**
 * Best-of-3 wall-clock of @p run (which returns one run's seconds), to
 * shave scheduler noise off a single-shot row.
 */
double
BestOf3(const std::function<double()> &run)
{
    double best = run();
    for (int i = 0; i < 2; ++i) {
        best = std::min(best, run());
    }
    return best;
}

/** Median and spread of repeated wall-clock runs, in seconds. */
struct RepeatedTiming
{
    double median = 0.0;
    double min = 0.0;
    double max = 0.0;
};

/**
 * Time @p runs rounds of @p engines.size() engines, interleaved (each
 * round runs every engine once, in order) so slow drift on a shared
 * host hits every engine alike; each engine returns one run's seconds.
 * @p runs should be odd so the median is one observed run.
 */
std::vector<RepeatedTiming>
TimeInterleaved(int runs,
                const std::vector<std::function<double()>> &engines)
{
    std::vector<std::vector<double>> samples(engines.size());
    for (int r = 0; r < runs; ++r) {
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

void
PrintOneStream(bench::BenchOutput &out, const char *section,
               const char *title, const sim::AccessTrace &trace)
{
    const double accesses = static_cast<double>(trace.size());

    sim::PerfCounters seed_pc, scalar_pc, batched_pc;
    const double seed_s = BestOf3([&] {
        return TimeRun([&] {
            SeedHierarchy sh(sim::HostHierarchyConfig());
            trace.ReplayIntoScalar(sh.l1);
            seed_pc = sh.Snapshot();
        });
    });
    const double scalar_s = BestOf3([&] {
        return TimeRun([&] {
            sim::MemoryHierarchy mh(sim::HostHierarchyConfig());
            trace.ReplayIntoScalar(mh.Top());
            scalar_pc = mh.Snapshot();
        });
    });
    const double batched_s = BestOf3([&] {
        return TimeRun([&] {
            sim::MemoryHierarchy mh(sim::HostHierarchyConfig());
            trace.ReplayInto(mh.Top());
            batched_pc = mh.Snapshot();
        });
    });

    // Parallel sweep: 8 host-hierarchy design points at once.
    const sim::SweepRunner runner;
    const sim::AccessTraceSource source(trace);
    const std::vector<sim::HierarchyConfig> sweep_configs(
        8, sim::HostHierarchyConfig());
    const double sweep_s = BestOf3([&] {
        return TimeRun(
            [&] { runner.ReplayTrace(source, sweep_configs); });
    });
    const double sweep_accesses =
        accesses * static_cast<double>(sweep_configs.size());

    Table table(title);
    table.SetHeader({"path", "accesses", "time (ms)", "Maccesses/s",
                     "speedup vs seed"});
    const auto row = [&](const char *name, double n, double seconds) {
        table.AddRow({
            name,
            Table::Num(n / 1e6, 2) + "M",
            Table::Num(seconds * 1e3, 1),
            Table::Num(n / seconds / 1e6, 1),
            Table::Num((n / seconds) / (accesses / seed_s), 2) + "x",
        });
    };
    row("seed engine (scalar, div/mod, full scan)", accesses, seed_s);
    row("current cache, scalar dispatch", accesses, scalar_s);
    row("current cache, batched (AccessBatch)", accesses, batched_s);
    row("batched + SweepRunner x8", sweep_accesses, sweep_s);
    out.Emit(table);

    const std::string prefix = std::string("sim_throughput.") + section;
    out.Metric(prefix + ".trace.bytes",
               static_cast<double>(trace.SizeBytes()));
    out.Metric(prefix + ".batched_maccess_per_s",
               accesses / batched_s / 1e6);
    out.Metric(prefix + ".batched_speedup_vs_seed",
               (accesses / batched_s) / (accesses / seed_s));

    std::printf("counters seed == scalar == batched: %s  (threads: %u)\n\n",
                SameCounters(seed_pc, batched_pc) &&
                        SameCounters(scalar_pc, batched_pc)
                    ? "yes"
                    : "NO",
                runner.thread_count());
}

/**
 * The one-pass LLC sweep: an N-point LLC capacity sweep of the tiling
 * stream, phrased at a fixed set count so capacity grows with
 * associativity.  Two engines run the identical sweep:
 *
 *   per-config  — ReplayTrace: N full cold replays (the reference),
 *   profiler    — a one-L1 ProfileStudy: one L1 simulation whose miss
 *                 stream feeds ONE stack-distance pass, every point
 *                 read out of the reuse-distance histogram
 *                 analytically.
 *
 * Counters must be bit-identical (checked every run); only wall-clock
 * may differ.
 */
void
PrintSweepStudy(bench::BenchOutput &out)
{
    // 512x512 keeps the quick (CI) run under a second per engine.
    Rng rng(21);
    browser::Bitmap linear(512, 512);
    linear.Randomize(rng);
    browser::TiledTexture tiled(512, 512);
    sim::AccessTrace trace;
    {
        core::ExecutionContext ctx(core::ExecutionTarget::kCpuOnly);
        ctx.AttachTrace(trace);
        browser::TileTexture(linear, tiled, ctx);
        ctx.DetachTrace();
    }
    const sim::AccessTraceSource source(trace);

    // Fixed 1024-set LLC geometry, capacity swept through
    // associativity: 64 KiB ... 4 MiB in 12 points, one profiling
    // pass covers them all.
    const std::vector<std::uint32_t> assocs = {1,  2,  3,  4,  6,  8,
                                               12, 16, 24, 32, 48, 64};
    constexpr std::size_t kSets = 1024;
    constexpr Bytes kLine = 64;
    const sim::HierarchyConfig host = sim::HostHierarchyConfig();
    sim::StudySpec spec;
    spec.l1_points = {host.l1};
    spec.dram = host.dram;
    std::vector<sim::HierarchyConfig> configs;
    for (const std::uint32_t a : assocs) {
        sim::HierarchyConfig hier = host;
        hier.llc->size = kSets * a * kLine;
        hier.llc->associativity = a;
        spec.llc_points.push_back(*hier.llc);
        configs.push_back(std::move(hier));
    }

    const sim::SweepRunner runner;
    std::vector<sim::PerfCounters> ref;
    sim::StudyResult profiled;
    const double per_config_s = BestOf3([&] {
        return TimeRun(
            [&] { ref = runner.ReplayTrace(source, configs); });
    });
    const double profiler_s = BestOf3([&] {
        return TimeRun(
            [&] { profiled = runner.ProfileStudy(source, spec); });
    });

    bool profiler_same = true;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        profiler_same = profiler_same &&
                        SameCounters(ref[i], profiled.host[0][i].counters);
    }

    Table table("One-pass sweep — 12-point LLC capacity sweep, "
                "tiling stream (64 KiB - 4 MiB)");
    table.SetHeader(
        {"engine", "trace passes", "time (ms)", "speedup", "exact"});
    const auto row = [&](const char *name, const char *passes,
                         double seconds, bool exact) {
        table.AddRow({
            name,
            passes,
            Table::Num(seconds * 1e3, 1),
            Table::Num(per_config_s / seconds, 2) + "x",
            exact ? "bit-identical" : "MISMATCH",
        });
    };
    row("per-config replay (reference)", "12", per_config_s, true);
    row("stack-distance profiler (one-L1 study)", "1", profiler_s,
        profiler_same);
    out.Emit(table);

    out.Metric("sim_throughput.sweep.configs",
               static_cast<double>(configs.size()));
    out.Metric("sim_throughput.sweep.trace.bytes",
               static_cast<double>(trace.SizeBytes()));
    out.Metric("sim_throughput.sweep.per_config_ms", per_config_s * 1e3);
    out.Metric("sim_throughput.sweep.profiler_ms", profiler_s * 1e3);
    out.Metric("sim_throughput.sweep.profiler_speedup",
               per_config_s / profiler_s);
    out.Metric("sim_throughput.sweep.bit_identical",
               profiler_same ? 1.0 : 0.0);

    std::printf("sweep counters: profiler %s the per-config reference "
                "(threads: %u)\n\n",
                profiler_same ? "matches" : "DOES NOT match",
                runner.thread_count());
}

/**
 * The generalized one-pass study: a two-level host-sensitivity grid —
 * every (L1 geometry x LLC capacity/policy ladder) combination plus
 * the raw-trace PIM targets — answered two ways:
 *
 *   per-config — ReplayTrace: one full cold replay per design point,
 *                the reference; cost grows with the number of points.
 *   study      — ProfileStudy: one L1 simulation per distinct L1
 *                geometry, its miss stream fanned into ONE nested
 *                stack-distance pass per (line, sets, allocate) group;
 *                every LLC point on the ladder is an O(histogram)
 *                readout, so cost is independent of ladder length.
 *
 * Counters must be bit-identical at every tracked design point
 * (checked each run; CI fails if sim_throughput.profiler.bit_identical
 * is not 1) and the study must hold a >= 5x advantage, comparing
 * medians of 5 interleaved runs, which CI also gates.  The stream
 * prefetcher axis is modeled in a separate untimed pass (it adds
 * telemetry, not counters) so the timed comparison stays
 * apples-to-apples.
 */
/** First-ladder length in ProfilerStudyGrid (prefetch sample index). */
constexpr std::size_t kStudyFirstLadderLen = 28;

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
    const std::vector<std::uint32_t> ladder = {
        1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11, 12, 13, 14,
        15, 16, 20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 60, 64};
    static_assert(kStudyFirstLadderLen == 28, "keep in sync");
    constexpr std::size_t kSets = 1024;
    constexpr Bytes kLine = 64;
    for (const std::uint32_t a : ladder) {
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

void
PrintProfilerStudy(bench::BenchOutput &out)
{
    // Same 512x512 tiling stream as the single-level sweep section.
    Rng rng(21);
    browser::Bitmap linear(512, 512);
    linear.Randomize(rng);
    browser::TiledTexture tiled(512, 512);
    sim::AccessTrace trace;
    {
        core::ExecutionContext ctx(core::ExecutionTarget::kCpuOnly);
        ctx.AttachTrace(trace);
        browser::TileTexture(linear, tiled, ctx);
        ctx.DetachTrace();
    }

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

    // Median of kRuns interleaved runs per engine (min/max beside it):
    // the gated speedup compares medians, not two single shots.
    constexpr int kRuns = 5;
    const sim::SweepRunner runner;
    std::vector<sim::PerfCounters> ref;
    sim::StudyResult study;
    const std::vector<RepeatedTiming> timings = TimeInterleaved(
        kRuns, {[&] {
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

    // The prefetcher axis, layered on the same grid (untimed — it is
    // telemetry on top of identical counters; see stack_profiler.h).
    sim::StudySpec pf_spec = spec;
    pf_spec.model_prefetcher = true;
    const sim::StudyResult pf = runner.ProfileStudy(source, pf_spec);
    const sim::PrefetchStats pf_sample =
        pf.host[0][kStudyFirstLadderLen - 1].prefetch;

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
    const char *const engines[] = {"per_config", "study"};
    for (std::size_t e = 0; e < timings.size(); ++e) {
        const std::string name = prefix + "." + engines[e];
        out.Metric(name + "_ms", timings[e].median * 1e3);
        out.Metric(name + "_min_ms", timings[e].min * 1e3);
        out.Metric(name + "_max_ms", timings[e].max * 1e3);
    }
    out.Metric(prefix + ".speedup", speedup);
    out.Metric(prefix + ".bit_identical", same && exact ? 1.0 : 0.0);
    out.Metric(prefix + ".prefetch.issued",
               static_cast<double>(pf_sample.issued));
    out.Metric(prefix + ".prefetch.accuracy", pf_sample.Accuracy());
    out.Metric(prefix + ".prefetch.coverage", pf_sample.Coverage());

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
 * Counters must be bit-identical (CI gates
 * sim_throughput.profiler_shard.bit_identical == 1) and the sharded
 * path must hold a >= 2x advantage over serial when the machine has
 * >= 4 cores (also gated), comparing medians of 5 interleaved runs.
 */
void
PrintProfilerShardStudy(bench::BenchOutput &out)
{
    // Stress stream: the tiling trace concatenated to out-of-core
    // scale, saved as a container file so both engines stream blocks
    // from it — the sharded one through its windowed partition.
    sim::CompactTrace compact;
    {
        const sim::AccessTrace base = RecordTilingTrace();
        sim::AccessTrace raw;
        constexpr std::size_t kTargetEntries = 2u << 20;
        const std::size_t repeats = std::max<std::size_t>(
            1, (kTargetEntries + base.size() - 1) /
                   std::max<std::size_t>(1, base.size()));
        raw.Reserve(base.size() * repeats);
        for (std::size_t i = 0; i < repeats; ++i) {
            raw.Append(base.data(), base.size());
        }
        compact = sim::CompactTrace::Encode(raw);
    }
    const std::string path = "/tmp/sim_throughput_pshard_" +
                             std::to_string(getpid()) + ".ctrace";
    std::string error;
    if (!compact.SaveTo(path, &error)) {
        std::printf("profiler-shard study skipped: %s\n\n",
                    error.c_str());
        return;
    }
    auto mapped = sim::MappedCompactTrace::Open(
        path, &error, sim::MappedCompactTrace::Verify::kLazy);
    if (!mapped) {
        std::printf("profiler-shard study skipped: %s\n\n",
                    error.c_str());
        ::unlink(path.c_str());
        return;
    }

    const sim::StudySpec spec = ProfilerStudyGrid();
    // Pin the comparison at min(cores, 8) threads (the acceptance
    // criterion is phrased at 8 threads; the serial baseline does not
    // use the pool anyway), floored at 2 so the sharded engine still
    // engages — and its bit-identity still gets checked — on
    // single-core runners, where the speedup gate is off.
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0) {
        hw = 1;
    }
    const sim::SweepRunner runner(std::max(2u, std::min(hw, 8u)));

    // Each engine's time is the median of kRuns interleaved runs, with
    // min/max reported beside it: the gate compares medians, so one
    // run disturbed by a noisy neighbor cannot decide it.
    constexpr int kRuns = 5;
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
    const std::vector<RepeatedTiming> timings = TimeInterleaved(
        kRuns, {timed(true, &serial), timed(false, &sharded)});
    ::unlink(path.c_str());
    const double serial_s = timings[0].median;
    const double sharded_s = timings[1].median;

    const auto same_study = [&](const sim::StudyResult &a,
                                const sim::StudyResult &b) {
        bool same = true;
        for (std::size_t i = 0; i < spec.l1_points.size(); ++i) {
            for (std::size_t j = 0; j < spec.llc_points.size(); ++j) {
                same = same && SameCounters(a.host[i][j].counters,
                                            b.host[i][j].counters) &&
                       a.host[i][j].writebacks_exact ==
                           b.host[i][j].writebacks_exact;
            }
        }
        for (std::size_t j = 0; j < spec.pim_points.size(); ++j) {
            same = same && SameCounters(a.pim[j].counters,
                                        b.pim[j].counters);
        }
        return same;
    };
    const bool identical = same_study(serial, sharded);
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
    const char *const engines[] = {"serial", "sharded"};
    for (std::size_t e = 0; e < timings.size(); ++e) {
        const std::string name = prefix + "." + engines[e];
        out.Metric(name + "_ms", timings[e].median * 1e3);
        out.Metric(name + "_min_ms", timings[e].min * 1e3);
        out.Metric(name + "_max_ms", timings[e].max * 1e3);
    }
    out.Metric(prefix + ".speedup", speedup);
    out.Metric(prefix + ".bit_identical", identical ? 1.0 : 0.0);

    std::printf("sharded study %.2fx vs serial passes (%u shards, "
                "%u threads); counters %s\n\n",
                speedup, sharded.shards, runner.thread_count(),
                identical ? "bit-identical" : "DO NOT match");
}

/**
 * Compact codec study: encoded footprint and replay equivalence for
 * the two recorded kernel streams.
 */
void
PrintCodecStudy(bench::BenchOutput &out)
{
    struct Stream
    {
        const char *name;
        sim::AccessTrace trace;
    };
    Stream streams[] = {
        {"tiling", RecordTilingTrace()},
        {"compression", RecordCompressionTrace()},
    };

    Table table("Compact trace codec — footprint and replay "
                "equivalence (raw = 8.0 B/entry)");
    table.SetHeader({"stream", "entries", "raw MB", "compact MB",
                     "B/entry", "ratio", "encode (ms)", "replay",
                     "exact"});

    const sim::HierarchyConfig config = sim::HostHierarchyConfig();
    bool all_same = true;
    for (auto &s : streams) {
        sim::CompactTrace compact;
        const double encode_s = BestOf3([&] {
            return TimeRun(
                [&] { compact = sim::CompactTrace::Encode(s.trace); });
        });

        sim::PerfCounters raw_pc, compact_pc;
        const double raw_s = BestOf3([&] {
            return TimeRun([&] {
                sim::MemoryHierarchy mh(config);
                s.trace.ReplayInto(mh.Top());
                raw_pc = mh.Snapshot();
            });
        });
        const double compact_s = BestOf3([&] {
            return TimeRun([&] {
                sim::MemoryHierarchy mh(config);
                compact.ReplayInto(mh.Top());
                compact_pc = mh.Snapshot();
            });
        });
        const bool same = SameCounters(raw_pc, compact_pc) &&
                          compact.TotalBytes() == s.trace.TotalBytes();
        all_same = all_same && same;

        table.AddRow({
            s.name,
            Table::Num(static_cast<double>(compact.size()) / 1e6, 2) +
                "M",
            Table::Num(static_cast<double>(compact.RawBytes()) / 1e6,
                       1),
            Table::Num(static_cast<double>(compact.SizeBytes()) / 1e6,
                       2),
            Table::Num(compact.BytesPerEntry(), 2),
            Table::Num(compact.CompressionRatio(), 1) + "x",
            Table::Num(encode_s * 1e3, 1),
            Table::Num(raw_s / compact_s, 2) + "x vs raw",
            same ? "bit-identical" : "MISMATCH",
        });

        const std::string prefix =
            std::string("sim_throughput.codec.") + s.name;
        out.Metric(prefix + ".bytes_per_entry", compact.BytesPerEntry());
        out.Metric(prefix + ".compression_ratio",
                   compact.CompressionRatio());
        out.Metric(prefix + ".encode_ms", encode_s * 1e3);
        out.Metric(prefix + ".replay_ms", compact_s * 1e3);
        out.Metric(prefix + ".raw_replay_ms", raw_s * 1e3);
    }
    out.Metric("sim_throughput.codec.bit_identical",
               all_same ? 1.0 : 0.0);
    out.Emit(table);

    std::printf("compact replay %s the raw replay counters\n\n",
                all_same ? "matches" : "DOES NOT match");
}

/**
 * SIMD set-probe study: the same binary replays each stream twice —
 * once with the runtime kill-switch forcing the scalar probe and once
 * with the compiled vector path (AVX2/NEON) — so the probe speedup is
 * isolated from every other engine improvement.  Also measured: the
 * codec's batch-decode rate per path, and the composed fast path
 * (batched replay with the vector probe) against the per-entry
 * scalar-probe replay.  Counters must be bit-identical throughout; CI
 * fails the job if `sim_throughput.simd.bit_identical` is not 1.
 */
void
PrintSimdStudy(bench::BenchOutput &out)
{
    namespace simd = sim::simd;
    const bool prev_enabled = simd::Enabled();
    const char *compiled = simd::IsaName(simd::CompiledIsa());

    const std::string prefix = "sim_throughput.simd";
    out.Metric(prefix + ".compiled_avx2",
               simd::CompiledIsa() == simd::Isa::kAvx2 ? 1.0 : 0.0);
    out.Metric(prefix + ".compiled_neon",
               simd::CompiledIsa() == simd::Isa::kNeon ? 1.0 : 0.0);

    // Random line-granular probes over an LLC-resident working set:
    // L1 (64 KiB) thrashes while the LLC (2 MiB, 8-way) keeps every
    // line, so nearly every access pays a full 4-way L1 scan plus a
    // deep-way LLC search — the way-compare loop the vector probe
    // replaces.  The kernel streams mostly hit way 0, so they bound
    // the *other* end (probe cost amortized by batching).
    const auto record_probe_stress = [] {
        Rng rng(23);
        sim::AccessTrace trace;
        constexpr std::size_t kLines = (1536 * 1024) / 64;
        constexpr std::size_t kAccesses = 1u << 20;
        trace.Reserve(kAccesses);
        for (std::size_t i = 0; i < kAccesses; ++i) {
            const std::uint64_t r = rng.Next64();
            trace.Append(Address{(r >> 2) % kLines} * 64, 64,
                         (r & 3) == 0 ? sim::AccessType::kWrite
                                      : sim::AccessType::kRead);
        }
        return trace;
    };

    struct Stream
    {
        const char *name;
        sim::AccessTrace trace;
    };
    Stream streams[] = {
        {"tiling", RecordTilingTrace()},
        {"compression", RecordCompressionTrace()},
        {"probe-stress", record_probe_stress()},
    };
    const sim::HierarchyConfig config = sim::HostHierarchyConfig();
    bool all_same = true;

    Table table(std::string("SIMD set-probe — scalar vs vector replay "
                            "(compiled ISA: ") +
                compiled + ")");
    table.SetHeader({"stream", "probe", "time (ms)", "Maccesses/s",
                     "speedup", "exact"});
    for (auto &s : streams) {
        const double accesses = static_cast<double>(s.trace.size());
        // Engines snapshot the kill-switch at construction, so the
        // hierarchy must be built inside the toggled region.
        sim::PerfCounters scalar_pc, vector_pc;
        simd::SetEnabled(false);
        const double scalar_s = BestOf3([&] {
            return TimeRun([&] {
                sim::MemoryHierarchy mh(config);
                s.trace.ReplayInto(mh.Top());
                scalar_pc = mh.Snapshot();
            });
        });
        simd::SetEnabled(true);
        const double vector_s = BestOf3([&] {
            return TimeRun([&] {
                sim::MemoryHierarchy mh(config);
                s.trace.ReplayInto(mh.Top());
                vector_pc = mh.Snapshot();
            });
        });
        const bool same = SameCounters(scalar_pc, vector_pc);
        all_same = all_same && same;

        const auto row = [&](const char *path, double seconds,
                             double speedup) {
            table.AddRow({
                s.name,
                path,
                Table::Num(seconds * 1e3, 1),
                Table::Num(accesses / seconds / 1e6, 1),
                Table::Num(speedup, 2) + "x",
                same ? "bit-identical" : "MISMATCH",
            });
        };
        row("scalar (PIM_SIMD=off)", scalar_s, 1.0);
        row(simd::IsaName(simd::ActiveIsa()), vector_s,
            scalar_s / vector_s);

        const std::string sp = prefix + "." + s.name;
        out.Metric(sp + ".scalar_ms", scalar_s * 1e3);
        out.Metric(sp + ".vector_ms", vector_s * 1e3);
        out.Metric(sp + ".probe_speedup", scalar_s / vector_s);
    }
    out.Emit(table);

    // Batch decode: blocks materialize into one reused aligned buffer;
    // rate is counted in raw (8 B/entry) output bytes.  The vector
    // path is the stride expander on run tokens (sim/simd.h).
    const sim::CompactTrace compact =
        sim::CompactTrace::Encode(streams[0].trace);
    const double raw_bytes = static_cast<double>(compact.RawBytes());
    // Every timed pass must decode the container's full entry count;
    // checking it keeps the decode live and folds into decode_same.
    bool decode_counts_match = true;
    const auto decode_all = [&] {
        alignas(64) sim::TraceEntry buffer[sim::CompactTrace::
                                               kBlockEntries];
        std::size_t n = 0;
        for (std::size_t b = 0; b < compact.BlockCount(); ++b) {
            n += compact.DecodeBlock(b, buffer);
        }
        decode_counts_match = decode_counts_match && n == compact.size();
    };
    simd::SetEnabled(false);
    const double dec_scalar_s = BestOf3([&] { return TimeRun(decode_all); });
    const sim::AccessTrace dec_scalar = compact.Decode();
    simd::SetEnabled(true);
    const double dec_vector_s = BestOf3([&] { return TimeRun(decode_all); });
    const sim::AccessTrace dec_vector = compact.Decode();
    bool decode_same =
        decode_counts_match && dec_scalar.size() == dec_vector.size();
    for (std::size_t i = 0; decode_same && i < dec_scalar.size(); ++i) {
        decode_same = dec_scalar.data()[i].word == dec_vector.data()[i].word;
    }
    all_same = all_same && decode_same;
    out.Metric(prefix + ".decode.scalar_gb_per_s",
               raw_bytes / dec_scalar_s / 1e9);
    out.Metric(prefix + ".decode.vector_gb_per_s",
               raw_bytes / dec_vector_s / 1e9);
    out.Metric(prefix + ".decode.speedup", dec_scalar_s / dec_vector_s);

    // Composed fast path on one (trace, config): batched replay with
    // the vector probe, against the per-entry scalar replay path
    // (`ReplayIntoScalar`, every table's "scalar" row — the
    // pre-batching engine) and against the batched replay with the
    // probe forced scalar.  The first ratio is the single-replay
    // headline; the second isolates what the vector probe added on
    // top of batching.  The stress stream is
    // the LZO stream concatenated — the fine-grained probe pattern the
    // batched+vector core is built for.
    sim::AccessTrace stress;
    {
        const sim::AccessTrace &base = streams[1].trace;
        stress.Reserve(base.size() * 3);
        for (int i = 0; i < 3; ++i) {
            stress.Append(base.data(), base.size());
        }
    }
    const double stress_accesses = static_cast<double>(stress.size());
    sim::PerfCounters scalar_path_pc, batched_pc, fast_pc;
    simd::SetEnabled(false);
    const double scalar_path_s = BestOf3([&] {
        return TimeRun([&] {
            sim::MemoryHierarchy mh(config);
            stress.ReplayIntoScalar(mh.Top());
            scalar_path_pc = mh.Snapshot();
        });
    });
    const double batched_scalar_s = BestOf3([&] {
        return TimeRun([&] {
            sim::MemoryHierarchy mh(config);
            stress.ReplayInto(mh.Top());
            batched_pc = mh.Snapshot();
        });
    });
    simd::SetEnabled(true);
    const double fast_s = BestOf3([&] {
        return TimeRun([&] {
            sim::MemoryHierarchy mh(config);
            stress.ReplayInto(mh.Top());
            fast_pc = mh.Snapshot();
        });
    });
    const bool replay_same = SameCounters(scalar_path_pc, batched_pc) &&
                             SameCounters(scalar_path_pc, fast_pc);
    all_same = all_same && replay_same;

    Table composed("Composed fast path — one LZO-stress "
                   "(trace, config) replay");
    composed.SetHeader({"path", "time (ms)", "Maccesses/s", "speedup",
                        "exact"});
    const auto crow = [&](const std::string &path, double seconds) {
        composed.AddRow({
            path,
            Table::Num(seconds * 1e3, 1),
            Table::Num(stress_accesses / seconds / 1e6, 1),
            Table::Num(scalar_path_s / seconds, 2) + "x",
            replay_same ? "bit-identical" : "MISMATCH",
        });
    };
    crow("per-entry scalar replay (PIM_SIMD=off)", scalar_path_s);
    crow("batched, scalar probe (PIM_SIMD=off)", batched_scalar_s);
    crow(std::string("batched, ") + simd::IsaName(simd::ActiveIsa()) +
             " probe",
         fast_s);
    out.Emit(composed);

    out.Metric(prefix + ".replay.scalar_path_ms", scalar_path_s * 1e3);
    out.Metric(prefix + ".replay.batched_scalar_ms",
               batched_scalar_s * 1e3);
    out.Metric(prefix + ".replay.batched_vector_ms", fast_s * 1e3);
    out.Metric(prefix + ".replay_speedup", scalar_path_s / fast_s);
    out.Metric(prefix + ".replay_speedup_vs_batched",
               batched_scalar_s / fast_s);
    out.Metric(prefix + ".bit_identical", all_same ? 1.0 : 0.0);

    std::printf(
        "decode: %.2f -> %.2f GB/s; composed replay %.2fx vs the "
        "scalar path; counters %s\n\n",
        raw_bytes / dec_scalar_s / 1e9, raw_bytes / dec_vector_s / 1e9,
        scalar_path_s / fast_s, all_same ? "bit-identical" : "MISMATCH");

    simd::SetEnabled(prev_enabled);
}

/**
 * Out-of-core replay study: one stress stream, block-encoded, saved as
 * a PIMCTRC1 container file, and replayed two ways through identical
 * host hierarchies — from the in-RAM CompactTrace and from the
 * mmap-backed MappedCompactTrace (lazy digest verification, page-cache
 * warm after the first pass).  Counters must be bit-identical and the
 * on-disk streaming path must stay within 1.25x of the in-RAM decode
 * path; CI gates `sim_throughput.mmap.bit_identical` and
 * `sim_throughput.mmap.vs_compact_ratio`.
 */
void
PrintMmapStudy(bench::BenchOutput &out)
{

    // Concatenate the tiling stream until partition + replay dominate
    // setup noise (same sizing as the shard study).
    sim::CompactTrace compact;
    {
        const sim::AccessTrace base = RecordTilingTrace();
        sim::AccessTrace raw;
        constexpr std::size_t kTargetEntries = 4u << 20;
        const std::size_t repeats = std::max<std::size_t>(
            1, (kTargetEntries + base.size() - 1) /
                   std::max<std::size_t>(1, base.size()));
        raw.Reserve(base.size() * repeats);
        for (std::size_t i = 0; i < repeats; ++i) {
            raw.Append(base.data(), base.size());
        }
        compact = sim::CompactTrace::Encode(raw);
    } // the raw stream dies here; both paths below are O(encoded)

    const std::string path = "/tmp/sim_throughput_mmap_" +
                             std::to_string(getpid()) + ".ctrace";
    std::string error;
    if (!compact.SaveTo(path, &error)) {
        std::printf("mmap study skipped: %s\n\n", error.c_str());
        return;
    }
    auto mapped = sim::MappedCompactTrace::Open(
        path, &error, sim::MappedCompactTrace::Verify::kLazy);
    if (!mapped) {
        std::printf("mmap study skipped: %s\n\n", error.c_str());
        ::unlink(path.c_str());
        return;
    }

    // Median of kRuns interleaved runs per path (min/max beside it):
    // the gated ratio compares medians, not two lucky best-ofs.
    constexpr int kRuns = 5;
    const sim::HierarchyConfig config = sim::HostHierarchyConfig();
    sim::PerfCounters compact_pc, mapped_pc;
    const std::vector<RepeatedTiming> timings = TimeInterleaved(
        kRuns, {[&] {
                    return TimeRun([&] {
                        sim::MemoryHierarchy mh(config);
                        compact.ReplayInto(mh.Top());
                        compact_pc = mh.Snapshot();
                    });
                },
                [&] {
                    return TimeRun([&] {
                        sim::MemoryHierarchy mh(config);
                        mapped->ReplayInto(mh.Top());
                        mapped_pc = mh.Snapshot();
                    });
                }});
    ::unlink(path.c_str());
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
    out.Metric(prefix + ".compact_ms", compact_s * 1e3);
    out.Metric(prefix + ".compact_min_ms", timings[0].min * 1e3);
    out.Metric(prefix + ".compact_max_ms", timings[0].max * 1e3);
    out.Metric(prefix + ".mapped_ms", mapped_s * 1e3);
    out.Metric(prefix + ".mapped_min_ms", timings[1].min * 1e3);
    out.Metric(prefix + ".mapped_max_ms", timings[1].max * 1e3);
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
    out.Section("tiling", [&] {
        const sim::AccessTrace tiling = RecordTilingTrace();
        PrintOneStream(
            out, "tiling",
            "Simulator throughput — tiling stream (128 B row spans)",
            tiling);
    });

    out.Section("compression", [&] {
        const sim::AccessTrace lzo = RecordCompressionTrace();
        PrintOneStream(
            out, "compression",
            "Simulator throughput — LZO compression stream (1-4 B probes)",
            lzo);
    });

    out.Section("sweep", [&] { PrintSweepStudy(out); });
    // The multi-axis study rides the "sweep." prefix too, so CI's
    // --filter=sweep covers its bit-identity + speedup gates.
    out.Section("sweep.profiler", [&] { PrintProfilerStudy(out); });
    out.Section("sweep.profiler_shard",
                [&] { PrintProfilerShardStudy(out); });

    // Named under "sweep." so CI's existing --filter=sweep runs them.
    out.Section("sweep.codec", [&] { PrintCodecStudy(out); });
    out.Section("sweep.simd", [&] { PrintSimdStudy(out); });
    out.Section("sweep.mmap", [&] { PrintMmapStudy(out); });
}

} // namespace

PIM_BENCH_MAIN(PrintThroughput)
