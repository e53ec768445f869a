/**
 * @file
 * Tests for the batched access-streaming layer and the parallel sweep
 * engine: packed TraceEntry round-trips, batched-vs-scalar replay
 * equivalence, SweepRunner determinism across thread counts, and the
 * overflow-edge behavior of Cache::Access / FlushRange.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <limits>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "core/execution_context.h"
#include "sim/cache.h"
#include "sim/dram.h"
#include "sim/hierarchy.h"
#include "sim/sharded_replay.h"
#include "sim/stack_profiler.h"
#include "sim/sweep.h"
#include "sim/trace.h"
#include "sim/trace_codec.h"
#include "replay_fixtures.h"

namespace pim::sim {
namespace {

bool
SameCacheStats(const CacheStats &a, const CacheStats &b)
{
    return a.read_hits == b.read_hits &&
           a.read_misses == b.read_misses &&
           a.write_hits == b.write_hits &&
           a.write_misses == b.write_misses &&
           a.writebacks == b.writebacks;
}

bool
SameProfile(const StackProfile &a, const StackProfile &b)
{
    return a.line_bytes == b.line_bytes && a.num_sets == b.num_sets &&
           a.write_allocate == b.write_allocate &&
           a.max_assoc == b.max_assoc &&
           a.read_hist == b.read_hist && a.write_hist == b.write_hist &&
           a.read_far == b.read_far && a.write_far == b.write_far &&
           a.probes == b.probes && a.tracked == b.tracked &&
           a.writebacks == b.writebacks &&
           a.prefetcher == b.prefetcher &&
           a.prefetches_issued == b.prefetches_issued &&
           a.useful_hist == b.useful_hist &&
           a.useful_far == b.useful_far;
}

bool
SameDramStats(const DramStats &a, const DramStats &b)
{
    return a.read_requests == b.read_requests &&
           a.write_requests == b.write_requests &&
           a.read_bytes == b.read_bytes && a.write_bytes == b.write_bytes;
}

bool
SameCounters(const PerfCounters &a, const PerfCounters &b)
{
    return SameCacheStats(a.l1, b.l1) && SameCacheStats(a.llc, b.llc) &&
           a.has_llc == b.has_llc && SameDramStats(a.dram, b.dram);
}

TEST(TraceEntry, PacksIntoOneWord)
{
    static_assert(sizeof(TraceEntry) == 8);
    const TraceEntry read(0x1234'5678'9AULL, 4096, AccessType::kRead);
    EXPECT_EQ(read.addr(), 0x1234'5678'9AULL);
    EXPECT_EQ(read.bytes(), 4096u);
    EXPECT_EQ(read.type(), AccessType::kRead);

    const TraceEntry write(TraceEntry::kMaxAddr, TraceEntry::kMaxBytes,
                           AccessType::kWrite);
    EXPECT_EQ(write.addr(), TraceEntry::kMaxAddr);
    EXPECT_EQ(write.bytes(), TraceEntry::kMaxBytes);
    EXPECT_EQ(write.type(), AccessType::kWrite);
}

TEST(AccessTrace, AppendReservesGeometrically)
{
    AccessTrace trace;
    EXPECT_EQ(trace.capacity(), 0u);
    trace.Append(0x1000, 4, AccessType::kRead);
    const std::size_t first = trace.capacity();
    EXPECT_GE(first, std::size_t{1} << 16);
    for (std::size_t i = 0; i < first; ++i) {
        trace.Append(0x1000 + i, 4, AccessType::kRead);
    }
    EXPECT_GE(trace.capacity(), 2 * first);
    EXPECT_EQ(trace.size(), first + 1);
}

class BatchedEquivalenceTest
    : public ::testing::TestWithParam<HierarchyConfig>
{
};

TEST_P(BatchedEquivalenceTest, BatchedReplayMatchesScalarExactly)
{
    const AccessTrace trace = RandomTrace(0x5EED, 20000);

    MemoryHierarchy scalar(GetParam());
    trace.ReplayIntoScalar(scalar.Top());

    MemoryHierarchy batched(GetParam());
    trace.ReplayInto(batched.Top());

    EXPECT_TRUE(SameCounters(scalar.Snapshot(), batched.Snapshot()));
}

std::string
HierarchyParamName(const ::testing::TestParamInfo<HierarchyConfig> &info)
{
    static const char *const kNames[] = {"Host", "HostStacked", "PimCore",
                                         "PimAccel"};
    return kNames[info.index];
}

INSTANTIATE_TEST_SUITE_P(
    Hierarchies, BatchedEquivalenceTest,
    ::testing::Values(HostHierarchyConfig(), HostStackedHierarchyConfig(),
                      PimCoreHierarchyConfig(), PimAccelHierarchyConfig()),
    HierarchyParamName);

TEST(BatchedEquivalence, RecorderTeesBatchesIdentically)
{
    const AccessTrace trace = RandomTrace(0xF00D, 5000);

    // Scalar tee.
    AccessTrace scalar_copy;
    DramCounter dram_a(Lpddr3Config());
    TraceRecorder scalar_rec(scalar_copy, dram_a);
    trace.ReplayIntoScalar(scalar_rec);

    // Batched tee.
    AccessTrace batched_copy;
    DramCounter dram_b(Lpddr3Config());
    TraceRecorder batched_rec(batched_copy, dram_b);
    trace.ReplayInto(batched_rec);

    ASSERT_EQ(scalar_copy.size(), trace.size());
    ASSERT_EQ(batched_copy.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(scalar_copy[i].word, batched_copy[i].word);
    }
    EXPECT_TRUE(SameDramStats(dram_a.stats(), dram_b.stats()));
}

TEST(SweepRunner, ResultsIndependentOfThreadCount)
{
    const AccessTrace trace = RandomTrace(0xABCD, 20000);
    std::vector<HierarchyConfig> configs;
    for (const Bytes llc : {512_KiB, 1_MiB, 2_MiB, 4_MiB}) {
        HierarchyConfig hier = HostHierarchyConfig();
        hier.llc->size = llc;
        configs.push_back(hier);
    }
    configs.push_back(PimCoreHierarchyConfig());
    configs.push_back(PimAccelHierarchyConfig());

    const AccessTraceSource source(trace);
    const auto serial = SweepRunner(1).ReplayTrace(source, configs);
    for (const unsigned threads : {2u, 4u, 8u}) {
        const auto parallel =
            SweepRunner(threads).ReplayTrace(source, configs);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            EXPECT_TRUE(SameCounters(serial[i], parallel[i]))
                << "config " << i << " with " << threads << " threads";
        }
    }
}

TEST(SweepRunner, ForEachRunsEveryJobExactlyOnce)
{
    const std::size_t jobs = 103; // not a multiple of any pool size
    std::vector<int> times_run(jobs, 0);
    std::mutex mu;
    SweepRunner(4).ForEach(jobs, [&](std::size_t i) {
        const std::lock_guard<std::mutex> lock(mu);
        ++times_run[i];
    });
    for (std::size_t i = 0; i < jobs; ++i) {
        EXPECT_EQ(times_run[i], 1) << "job " << i;
    }
}

TEST(SweepRunner, ZeroJobsIsNoop)
{
    SweepRunner(4).ForEach(0, [](std::size_t) { FAIL(); });
}

TEST(CacheOverflowEdge, AccessEndingAtTopOfAddressSpace)
{
    constexpr Address kTop = std::numeric_limits<Address>::max();
    DramCounter dram(Lpddr3Config());
    Cache cache(CacheConfig{"edge", 1_KiB, 2, 64}, dram);

    // [2^64 - 64, 2^64): one full line; addr + bytes wraps to 0.
    cache.Access(kTop - 63, 64, AccessType::kRead);
    EXPECT_EQ(cache.stats().read_misses, 1u);
    EXPECT_TRUE(cache.Contains(kTop));

    // Unaligned tail: [2^64 - 10, 2^64) stays within the last line.
    cache.Access(kTop - 9, 10, AccessType::kWrite);
    EXPECT_EQ(cache.stats().write_hits, 1u);

    // Straddling the last two lines.
    cache.Access(kTop - 127, 128, AccessType::kRead);
    EXPECT_EQ(cache.stats().read_hits, 1u);  // top line still resident
    EXPECT_EQ(cache.stats().read_misses, 2u); // second-to-last line
}

TEST(CacheOverflowEdge, FlushRangeEndingAtTopOfAddressSpace)
{
    constexpr Address kTop = std::numeric_limits<Address>::max();
    DramCounter dram(Lpddr3Config());
    Cache cache(CacheConfig{"edge", 1_KiB, 2, 64}, dram);

    cache.Access(kTop - 127, 128, AccessType::kWrite); // last two lines
    EXPECT_EQ(cache.stats().write_misses, 2u);

    const auto flushed = cache.FlushRange(kTop - 100, 101);
    EXPECT_EQ(flushed, 2u);
    EXPECT_EQ(cache.stats().writebacks, 2u);
    EXPECT_FALSE(cache.Contains(kTop));
    EXPECT_FALSE(cache.Contains(kTop - 64));
}

TEST(CacheOverflowEdge, UnalignedFlushRangeFlushesOverlappedLinesOnly)
{
    DramCounter dram(Lpddr3Config());
    Cache cache(CacheConfig{"edge", 1_KiB, 2, 64}, dram);

    cache.Access(0x1000, 256, AccessType::kWrite); // lines 0x1000..0x10C0
    // [0x1035, 0x1075) overlaps exactly lines 0x1000 and 0x1040.
    EXPECT_EQ(cache.FlushRange(0x1035, 0x40), 2u);
    EXPECT_TRUE(cache.Contains(0x1080));
    EXPECT_TRUE(cache.Contains(0x10C0));
    EXPECT_FALSE(cache.Contains(0x1040));
}

TEST(CacheCoalescing, RepeatedSameLineProbesCountEveryHit)
{
    DramCounter dram(Lpddr3Config());
    Cache cache(CacheConfig{"co", 1_KiB, 2, 64}, dram);

    // Sequential 4-byte accesses within one line: 1 miss + 15 hits,
    // exactly as the unfiltered path counts them.
    for (Address a = 0x2000; a < 0x2040; a += 4) {
        cache.Access(a, 4, AccessType::kRead);
    }
    EXPECT_EQ(cache.stats().read_misses, 1u);
    EXPECT_EQ(cache.stats().read_hits, 15u);

    // A write through the filter path must still set the dirty bit.
    cache.Access(0x2004, 4, AccessType::kWrite);
    EXPECT_EQ(cache.stats().write_hits, 1u);
    dram.ResetStats();
    cache.FlushAll();
    EXPECT_EQ(dram.stats().write_bytes, 64u);
}

TEST(AccessTrace, ShrinkToFitReleasesGrowthSlack)
{
    AccessTrace trace;
    const std::size_t entries = (std::size_t{1} << 16) + 1;
    for (std::size_t i = 0; i < entries; ++i) {
        trace.Append(0x1000 + 64 * i, 4, AccessType::kRead);
    }
    ASSERT_GT(trace.capacity(), trace.size()); // geometric slack
    trace.ShrinkToFit();
    EXPECT_EQ(trace.capacity(), trace.size());
    EXPECT_EQ(trace.SizeBytes(), entries * sizeof(TraceEntry));
    EXPECT_EQ(trace.CapacityBytes(), trace.SizeBytes());
    // Contents survive the reallocation.
    EXPECT_EQ(trace[entries - 1].addr(), 0x1000 + 64 * (entries - 1));
}

TEST(FanoutSink, ForwardsScalarAndBatchedToEverySink)
{
    DramCounter a(Lpddr3Config()), b(Lpddr3Config());
    FanoutSink fan;
    fan.AddSink(a);
    fan.AddSink(b);
    EXPECT_EQ(fan.sink_count(), 2u);

    fan.Access(0x1000, 64, AccessType::kRead);
    const TraceEntry batch[] = {
        TraceEntry(0x2000, 64, AccessType::kWrite),
        TraceEntry(0x3000, 128, AccessType::kRead),
    };
    fan.AccessBatch(batch, 2);

    for (const DramCounter *c : {&a, &b}) {
        EXPECT_EQ(c->stats().read_requests, 2u);
        EXPECT_EQ(c->stats().read_bytes, 192u);
        EXPECT_EQ(c->stats().write_requests, 1u);
        EXPECT_EQ(c->stats().write_bytes, 64u);
    }
}

TEST(StackProfiler, HandComputedSingleSetSequence)
{
    // One fully-associative stack, 64 B lines, writebacks tracked for
    // the 1-way and 2-way points.  Lines: A = 0x0, B = 0x40.
    StackProfilerConfig cfg;
    cfg.line_bytes = 64;
    cfg.num_sets = 1;
    cfg.tracked_assocs = {1, 2};
    StackDistanceProfiler prof(cfg);

    prof.Access(0x00, 4, AccessType::kWrite); // W A: cold
    prof.Access(0x40, 4, AccessType::kRead);  // R B: cold
    prof.Access(0x00, 4, AccessType::kRead);  // R A: distance 1

    EXPECT_EQ(prof.probes(), 3u);
    EXPECT_EQ(prof.far_writes(), 1u);
    EXPECT_EQ(prof.far_reads(), 1u);
    ASSERT_EQ(prof.read_histogram().size(), 2u);
    EXPECT_EQ(prof.read_histogram()[1], 1u);

    // 1-way: every probe misses; B's fill evicts dirty A -> 1 writeback.
    const CacheStats one = prof.StatsForAssociativity(1);
    EXPECT_EQ(one.write_misses, 1u);
    EXPECT_EQ(one.read_misses, 2u);
    EXPECT_EQ(one.Hits(), 0u);
    EXPECT_EQ(one.writebacks, 1u);

    // 2-way: A survives; the distance-1 re-read hits, nothing evicted.
    const CacheStats two = prof.StatsForAssociativity(2);
    EXPECT_EQ(two.write_misses, 1u);
    EXPECT_EQ(two.read_misses, 1u);
    EXPECT_EQ(two.read_hits, 1u);
    EXPECT_EQ(two.writebacks, 0u);

    EXPECT_TRUE(prof.TracksWritebacks(1));
    EXPECT_FALSE(prof.TracksWritebacks(3));
    // Untracked associativities still get exact hit/miss counts.
    EXPECT_EQ(prof.StatsForAssociativity(3).Hits(), two.Hits());
}

TEST(StackProfiler, MatchesCacheBitForBitAtEveryAssociativity)
{
    const AccessTrace trace = RandomTrace(0xD157, 20000);
    constexpr std::size_t kSets = 64;
    constexpr Bytes kLine = 64;

    StackProfilerConfig cfg;
    cfg.line_bytes = kLine;
    cfg.num_sets = kSets;
    cfg.tracked_assocs = {1, 2, 3, 4, 6, 8};
    StackDistanceProfiler prof(cfg);
    trace.ReplayInto(prof);

    for (const std::uint32_t assoc : cfg.tracked_assocs) {
        DramCounter dram(Lpddr3Config());
        Cache cache(CacheConfig{"ref", kSets * assoc * kLine, assoc,
                                kLine},
                    dram);
        trace.ReplayInto(cache);

        EXPECT_TRUE(SameCacheStats(prof.StatsForAssociativity(assoc),
                                   cache.stats()))
            << "assoc " << assoc;
        EXPECT_TRUE(SameDramStats(
            prof.DramTrafficForAssociativity(assoc), dram.stats()))
            << "assoc " << assoc;
    }
}

TEST(StackProfiler, NonPowerOfTwoSetCountMatchesCache)
{
    const AccessTrace trace = RandomTrace(0x0DD5, 10000);
    StackProfilerConfig cfg;
    cfg.line_bytes = 64;
    cfg.num_sets = 3;
    cfg.tracked_assocs = {2};
    StackDistanceProfiler prof(cfg);
    trace.ReplayInto(prof);

    DramCounter dram(Lpddr3Config());
    Cache cache(CacheConfig{"np2", 3 * 2 * 64, 2, 64}, dram);
    trace.ReplayInto(cache);

    EXPECT_TRUE(
        SameCacheStats(prof.StatsForAssociativity(2), cache.stats()));
    EXPECT_TRUE(SameDramStats(prof.DramTrafficForAssociativity(2),
                              dram.stats()));
}

/**
 * The sweep the fast engines must reproduce bit-for-bit: 10 LLC design
 * points over the host L1 — an 8-point associativity/capacity ladder at
 * one set count plus two points at other set counts, so the profiler
 * path exercises both intra-group sharing and multi-group splitting.
 */
std::vector<CacheConfig>
SweepLlcPoints()
{
    std::vector<CacheConfig> points;
    for (const std::uint32_t assoc : {1u, 2u, 3u, 4u, 6u, 8u, 12u, 16u}) {
        points.push_back(
            CacheConfig{"llc", 512 * assoc * 64, assoc, 64});
    }
    points.push_back(CacheConfig{"llc", 1_MiB, 8, 64});  // 2048 sets
    points.push_back(CacheConfig{"llc", 2_MiB, 16, 64}); // 2048 sets
    return points;
}

TEST(SweepEquivalence, OnePassEnginesMatchPerConfigOnKernelTraces)
{
    // The LLC ladder as pim_run --sweep=llc and pim_serve ask it: a
    // one-L1 study over the host L1.
    const std::vector<CacheConfig> points = SweepLlcPoints();
    std::vector<HierarchyConfig> configs;
    StudySpec spec;
    spec.l1_points = {HostHierarchyConfig().l1};
    spec.llc_points = points;
    spec.dram = HostHierarchyConfig().dram;
    for (const CacheConfig &p : points) {
        HierarchyConfig hier = HostHierarchyConfig();
        hier.llc = p;
        configs.push_back(std::move(hier));
    }

    const SweepRunner runner(2);
    for (const auto &[name, trace] : KernelTraces()) {
        const AccessTraceSource source(trace);
        const auto ref = runner.ReplayTrace(source, configs);
        const StudyResult study = runner.ProfileStudy(source, spec);

        // One L1 replay; the 512- and 2048-set groups are two passes.
        EXPECT_EQ(study.trace_replays, 1u);
        EXPECT_EQ(study.profile_passes, 2u);
        ASSERT_EQ(study.host.size(), 1u);
        ASSERT_EQ(study.host[0].size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i) {
            EXPECT_TRUE(study.host[0][i].writebacks_exact)
                << name << " point " << i;
            EXPECT_TRUE(SameCounters(ref[i], study.host[0][i].counters))
                << name << " profiler point " << i;
        }
    }
}

TEST(SweepRunner, ForEachRethrowsWorkerException)
{
    // Regression: a throwing job used to escape the worker thread and
    // std::terminate the process.
    for (const unsigned threads : {1u, 4u}) {
        EXPECT_THROW(
            SweepRunner(threads).ForEach(
                100,
                [](std::size_t i) {
                    if (i == 37) {
                        throw std::runtime_error("job 37 failed");
                    }
                }),
            std::runtime_error)
            << threads << " threads";
    }
}

TEST(SweepRunner, ForEachStopsClaimingJobsAfterFailure)
{
    std::atomic<int> ran_after_fail{0};
    std::atomic<bool> thrown{false};
    std::atomic<bool> failed{false};
    // Raises `failed` while the exception unwinds out of the job, so the
    // counted window starts when ForEach can know about the failure —
    // not at the throw, whose first-in-process unwinder setup can
    // outlast thousands of trivial jobs on the other worker.
    struct FailOnUnwind
    {
        std::atomic<bool> &flag;
        ~FailOnUnwind() { flag.store(true); }
    };
    try {
        SweepRunner(2).ForEach(10000, [&](std::size_t) {
            if (failed.load()) {
                ran_after_fail.fetch_add(1);
                // A counted job gives its core back: on a loaded host the
                // unwinding worker is not starved while this one claims
                // thousands of trivial jobs.
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            } else if (!thrown.exchange(true)) {
                const FailOnUnwind guard{failed};
                throw std::runtime_error("boom");
            }
        });
        FAIL() << "exception not rethrown";
    } catch (const std::runtime_error &) {
    }
    // Workers observe the failure flag between claims; far fewer than
    // the full job count may run afterwards (bounded by in-flight jobs).
    EXPECT_LT(ran_after_fail.load(), 100);
}

TEST(SweepRunner, EnvVarBoundsDefaultThreadCount)
{
    ASSERT_EQ(setenv("PIM_SWEEP_THREADS", "3", 1), 0);
    EXPECT_EQ(SweepRunner().thread_count(), 3u);
    EXPECT_EQ(SweepRunner(0).thread_count(), 3u);
    // An explicit count beats the environment.
    EXPECT_EQ(SweepRunner(2).thread_count(), 2u);

    // Invalid values fall back to hardware concurrency (>= 1).
    ASSERT_EQ(setenv("PIM_SWEEP_THREADS", "banana", 1), 0);
    EXPECT_GE(SweepRunner().thread_count(), 1u);
    ASSERT_EQ(setenv("PIM_SWEEP_THREADS", "0", 1), 0);
    EXPECT_GE(SweepRunner().thread_count(), 1u);

    ASSERT_EQ(unsetenv("PIM_SWEEP_THREADS"), 0);
}

TEST(CacheCoalescing, FilterSurvivesEvictionOfTrackedLine)
{
    DramCounter dram(Lpddr3Config());
    // One set, 2 ways: the tracked line can be evicted underneath
    // the filter.
    Cache cache(CacheConfig{"evict", 128, 2, 64}, dram);

    cache.Access(0x0000, 4, AccessType::kWrite); // A (tracked, dirty)
    cache.Access(0x1000, 4, AccessType::kRead);  // B
    cache.Access(0x2000, 4, AccessType::kRead);  // C evicts A (LRU)
    EXPECT_EQ(cache.stats().writebacks, 1u);

    // A was evicted: this must be a miss, not a stale filter hit.
    cache.Access(0x0000, 4, AccessType::kRead);
    EXPECT_EQ(cache.stats().read_misses, 3u);
    EXPECT_EQ(cache.stats().read_hits, 0u);
}

/** Serial reference for the set-sharded study passes. */
PerfCounters
SerialReplay(const AccessTrace &trace, const HierarchyConfig &config)
{
    MemoryHierarchy mh(config);
    trace.ReplayInto(mh.Top());
    return mh.Snapshot();
}

/**
 * @p config as a one-point study: its L1 over its LLC, or — without an
 * LLC — a PIM point, the profiled cache straight over DRAM.
 */
StudySpec
OnePointStudy(const HierarchyConfig &config)
{
    StudySpec spec;
    spec.dram = config.dram;
    if (config.llc.has_value()) {
        spec.l1_points = {config.l1};
        spec.llc_points = {*config.llc};
    } else {
        spec.pim_points = {
            StudyPimPoint{config.name, config.l1, config.dram}};
    }
    return spec;
}

/** The single design point's counters of a OnePointStudy result. */
const PerfCounters &
OnePointCounters(const StudyResult &study)
{
    return study.pim.empty() ? study.host[0][0].counters
                             : study.pim[0].counters;
}

TEST(ShardedReplay, BitIdenticalOnKernelTracesAtEveryThreadCount)
{
    // The core acceptance property: a study whose pass is split across
    // set-shards merges to the exact serial-replay counters, on every
    // recorded kernel stream, hierarchy shape, and thread count —
    // including thread counts that are not powers of two and exceed
    // the shard budget the geometry admits.
    const std::vector<HierarchyConfig> configs = {
        HostHierarchyConfig(), HostStackedHierarchyConfig(),
        PimCoreHierarchyConfig()};
    for (const auto &[name, trace] : KernelTraces()) {
        const AccessTraceSource source(trace);
        for (std::size_t c = 0; c < configs.size(); ++c) {
            const PerfCounters ref = SerialReplay(trace, configs[c]);
            const StudySpec spec = OnePointStudy(configs[c]);
            for (const unsigned threads : {1u, 2u, 4u, 7u, 8u}) {
                const StudyResult study =
                    SweepRunner(threads).ProfileStudy(source, spec);
                EXPECT_TRUE(SameCounters(ref, OnePointCounters(study)))
                    << name << " config " << c << " threads "
                    << threads;
                if (c == 0) {
                    EXPECT_EQ(study.shards > 1, threads > 1)
                        << name << " threads " << threads;
                }
            }
        }
    }
}

TEST(ShardedReplay, BitIdenticalOnRandomTrace)
{
    const AccessTrace trace = RandomTrace(0x5A4D, 50000);
    const AccessTraceSource source(trace);
    const PerfCounters ref =
        SerialReplay(trace, HostHierarchyConfig());
    const StudySpec spec = OnePointStudy(HostHierarchyConfig());
    for (const unsigned threads : {2u, 3u, 4u, 7u}) {
        const StudyResult study =
            SweepRunner(threads).ProfileStudy(source, spec);
        EXPECT_GT(study.shards, 1u) << "threads " << threads;
        EXPECT_TRUE(SameCounters(ref, OnePointCounters(study)))
            << "threads " << threads;
    }
}

TEST(ShardedReplay, PlanRespectsGeometryAndShardBudget)
{
    // Host geometry (256 L1 sets, 4096 LLC sets, both 64 B lines)
    // admits power-of-two sharding up to the budget.
    const HierarchyConfig host = HostHierarchyConfig();
    StackProfilerConfig llc_pass;
    llc_pass.line_bytes = host.llc->line_bytes;
    llc_pass.num_sets = CacheGeometry(*host.llc).num_sets;
    const ShardedReplayPlan plan4 = PlanForPass(&host.l1, {llc_pass}, {}, 4);
    EXPECT_TRUE(plan4.supported);
    EXPECT_EQ(plan4.shards, 4u);
    // A budget that is not a power of two rounds down.
    EXPECT_EQ(PlanForPass(&host.l1, {llc_pass}, {}, 7).shards, 4u);

    // A budget of one shard means there is nothing to parallelize.
    EXPECT_FALSE(PlanForPass(&host.l1, {llc_pass}, {}, 1).supported);

    // Non-power-of-two set counts have no maskable shard key.
    StackProfilerConfig odd = llc_pass;
    odd.num_sets = 192;
    EXPECT_FALSE(PlanForPass(&host.l1, {odd}, {}, 4).supported);
}

TEST(ShardedReplay, NonPowerOfTwoGeometryFallsBackBitIdentically)
{
    HierarchyConfig odd = HostHierarchyConfig();
    odd.llc->size = 192 * 64;
    odd.llc->associativity = 1;
    const AccessTrace trace = RandomTrace(0x0DD1, 20000);
    const StudyResult study = SweepRunner(4).ProfileStudy(
        AccessTraceSource(trace), OnePointStudy(odd));
    EXPECT_EQ(study.shards, 1u);
    EXPECT_TRUE(
        SameCounters(SerialReplay(trace, odd), OnePointCounters(study)));
}

TEST(ShardedReplay, OverflowSpanFallsBackToSerial)
{
    // An entry whose span reaches past kMaxAddr cannot be split into
    // representable packed sub-entries; the pass must detect it during
    // partition and rerun as its one-shard (serial) pass.
    AccessTrace trace;
    for (std::size_t i = 0; i < 5000; ++i) {
        trace.Append(0x1000 + i * 64, 64, AccessType::kRead);
    }
    trace.Append(TraceEntry::kMaxAddr - 7, 4096, AccessType::kWrite);
    for (std::size_t i = 0; i < 5000; ++i) {
        trace.Append(0x9000 + i * 64, 32, AccessType::kWrite);
    }
    const AccessTraceSource source(trace);

    const HierarchyConfig host = HostHierarchyConfig();
    StackProfilerConfig llc_pass;
    llc_pass.line_bytes = host.llc->line_bytes;
    llc_pass.num_sets = CacheGeometry(*host.llc).num_sets;
    StackDistanceProfiler serial_prof(llc_pass);
    Cache serial_l1(host.l1, serial_prof);
    source.ReplayInto(serial_l1);
    for (const unsigned threads : {2u, 4u}) {
        const SweepRunner runner(threads);
        const ShardedPassResult pass =
            runner.ProfilePass(source, &host.l1, {llc_pass}, {});
        EXPECT_EQ(pass.shards, 1u) << "threads " << threads;
        ASSERT_EQ(pass.profiles.size(), 1u);
        EXPECT_TRUE(SameProfile(pass.profiles[0], serial_prof.profile()))
            << "threads " << threads;
        EXPECT_TRUE(SameCacheStats(pass.l1, serial_l1.stats()))
            << "threads " << threads;

        const PerfCounters ref = runner.ReplayTrace(source, {host})[0];
        const StudyResult study =
            runner.ProfileStudy(source, OnePointStudy(host));
        EXPECT_EQ(study.shards, 1u) << "threads " << threads;
        EXPECT_TRUE(SameCounters(ref, OnePointCounters(study)))
            << "threads " << threads;
    }
}

TEST(ShardedReplay, CompactTraceMatchesRawReplay)
{
    // Composition: block-by-block compact decode feeding the sharded
    // study pass must land on the same counters as the raw serial
    // replay.
    const StudySpec spec = OnePointStudy(HostHierarchyConfig());
    for (const auto &[name, trace] : KernelTraces()) {
        const CompactTrace compact = CompactTrace::Encode(trace);
        const PerfCounters ref =
            SerialReplay(trace, HostHierarchyConfig());
        for (const unsigned threads : {1u, 2u, 4u}) {
            const StudyResult study = SweepRunner(threads).ProfileStudy(
                CompactTraceSource(compact), spec);
            EXPECT_TRUE(SameCounters(ref, OnePointCounters(study)))
                << name << " threads " << threads;
        }
    }
}

TEST(PerfCounters, MergeSumsEveryField)
{
    const auto cache = [](std::uint64_t base) {
        CacheStats s;
        s.read_hits = base + 1;
        s.read_misses = base + 2;
        s.write_hits = base + 3;
        s.write_misses = base + 4;
        s.writebacks = base + 5;
        return s;
    };
    PerfCounters a, b;
    a.l1 = cache(10);
    a.llc = cache(20);
    a.has_llc = true;
    a.dram.read_requests = 31;
    a.dram.write_requests = 32;
    a.dram.read_bytes = 33;
    a.dram.write_bytes = 34;
    b.l1 = cache(100);
    b.llc = cache(200);
    b.has_llc = true;
    b.dram.read_requests = 301;
    b.dram.write_requests = 302;
    b.dram.read_bytes = 303;
    b.dram.write_bytes = 304;

    a += b;
    EXPECT_EQ(a.l1.read_hits, 112u);
    EXPECT_EQ(a.l1.read_misses, 114u);
    EXPECT_EQ(a.l1.write_hits, 116u);
    EXPECT_EQ(a.l1.write_misses, 118u);
    EXPECT_EQ(a.l1.writebacks, 120u);
    EXPECT_EQ(a.llc.read_hits, 222u);
    EXPECT_EQ(a.llc.writebacks, 230u);
    EXPECT_TRUE(a.has_llc);
    EXPECT_EQ(a.dram.read_requests, 332u);
    EXPECT_EQ(a.dram.write_requests, 334u);
    EXPECT_EQ(a.dram.read_bytes, 336u);
    EXPECT_EQ(a.dram.write_bytes, 338u);

    // No-LLC parts merge without inventing an LLC.
    PerfCounters c, d;
    c.dram.read_bytes = 1;
    d.dram.read_bytes = 2;
    c += d;
    EXPECT_FALSE(c.has_llc);
    EXPECT_EQ(c.dram.read_bytes, 3u);
}

TEST(AccessTrace, RunningByteTotalsMatchScan)
{
    const AccessTrace trace = RandomTrace(0xB17E, 20000);
    Bytes reads = 0, writes = 0;
    for (const TraceEntry &e : trace) {
        (e.type() == AccessType::kRead ? reads : writes) += e.bytes();
    }
    EXPECT_EQ(trace.read_bytes(), reads);
    EXPECT_EQ(trace.write_bytes(), writes);
    EXPECT_EQ(trace.TotalBytes(), reads + writes);

    // The bulk-append path maintains the same totals.
    AccessTrace copy;
    copy.Append(trace.data(), trace.size());
    EXPECT_EQ(copy.read_bytes(), reads);
    EXPECT_EQ(copy.write_bytes(), writes);
}

TEST(SweepRunner, SetDefaultThreadsBeatsEnvironment)
{
    ASSERT_EQ(setenv("PIM_SWEEP_THREADS", "3", 1), 0);
    SweepRunner::SetDefaultThreads(5);
    // Flag-style override wins over the environment...
    EXPECT_EQ(SweepRunner().thread_count(), 5u);
    EXPECT_EQ(SweepRunner(0).thread_count(), 5u);
    // ...but an explicit constructor count still beats both.
    EXPECT_EQ(SweepRunner(2).thread_count(), 2u);

    // Clearing the override restores the env-var default.
    SweepRunner::SetDefaultThreads(0);
    EXPECT_EQ(SweepRunner().thread_count(), 3u);
    ASSERT_EQ(unsetenv("PIM_SWEEP_THREADS"), 0);
}

/**
 * Randomized property suite for the generalized profiler: across
 * random (line, sets, assoc, write-policy) geometries and the recorded
 * kernel traces, a single profiling pass must be bit-identical
 * to replaying the stream through a sim::Cache of the same geometry —
 * stats and below-traffic both, for every policy.
 */
TEST(StackProfilerProperty, RandomGeometriesMatchCacheReplay)
{
    const auto traces = KernelTraces();
    Rng rng(0x5EED);
    const WritePolicy policies[] = {
        WritePolicy::kWriteBackAllocate,
        WritePolicy::kWriteThroughAllocate,
        WritePolicy::kWriteThroughNoAllocate,
    };
    for (int g = 0; g < 51; ++g) {
        const Bytes line = Bytes{16} << rng.Range(0, 3); // 16..128
        // Set counts cover the degenerate single-stack case, powers of
        // two, and non-power-of-two (FastDiv) indexing.
        const std::size_t set_choices[] = {1, 2, 7, 16, 48, 64, 256};
        const std::size_t sets =
            set_choices[rng.Range(0, 6)];
        const auto assoc =
            static_cast<std::uint32_t>(rng.Range(1, 16));
        const WritePolicy policy = policies[rng.Range(0, 2)];

        CacheConfig cache_cfg;
        cache_cfg.name = "prop";
        cache_cfg.line_bytes = line;
        cache_cfg.associativity = assoc;
        cache_cfg.size = static_cast<Bytes>(sets) * assoc * line;
        cache_cfg.policy = policy;

        StackProfilerConfig prof_cfg;
        prof_cfg.line_bytes = line;
        prof_cfg.num_sets = sets;
        prof_cfg.tracked_assocs = {assoc};
        prof_cfg.write_allocate =
            policy != WritePolicy::kWriteThroughNoAllocate;

        const auto &[name, trace] =
            traces[static_cast<std::size_t>(g) % traces.size()];

        StackDistanceProfiler prof(prof_cfg);
        trace.ReplayInto(prof);

        DramCounter dram(Lpddr3Config());
        Cache cache(cache_cfg, dram);
        trace.ReplayInto(cache);

        const std::string what =
            std::string(name) + " line=" + std::to_string(line) +
            " sets=" + std::to_string(sets) +
            " assoc=" + std::to_string(assoc) + " policy=" +
            WritePolicyName(policy);
        EXPECT_TRUE(prof.WritebacksExact(assoc, policy)) << what;
        EXPECT_TRUE(SameCacheStats(
            prof.StatsForAssociativity(assoc, policy), cache.stats()))
            << what;
        EXPECT_TRUE(SameDramStats(
            prof.DramTrafficForAssociativity(assoc, policy),
            dram.stats()))
            << what;
    }
}

TEST(StackProfilerPolicy, WriteThroughSharesTheAllocatingPass)
{
    // One allocating pass answers write-back AND write-through
    // points: residency identical, traffic derived per policy.
    const AccessTrace trace = RandomTrace(0xCAFE, 20000);
    StackProfilerConfig cfg;
    cfg.line_bytes = 64;
    cfg.num_sets = 64;
    cfg.tracked_assocs = {1, 2, 4, 8};
    StackDistanceProfiler prof(cfg);
    trace.ReplayInto(prof);

    for (const std::uint32_t assoc : {1u, 2u, 4u, 8u}) {
        const CacheStats wb = prof.StatsForAssociativity(
            assoc, WritePolicy::kWriteBackAllocate);
        const CacheStats wt = prof.StatsForAssociativity(
            assoc, WritePolicy::kWriteThroughAllocate);
        EXPECT_EQ(wb.Hits(), wt.Hits());
        EXPECT_EQ(wb.Misses(), wt.Misses());
        EXPECT_EQ(wt.writebacks, 0u);
        const DramStats d = prof.DramTrafficForAssociativity(
            assoc, WritePolicy::kWriteThroughAllocate);
        // Every write probe goes through, independent of assoc.
        EXPECT_EQ(d.write_requests,
                  prof.far_writes() +
                      std::accumulate(prof.write_histogram().begin(),
                                      prof.write_histogram().end(),
                                      std::uint64_t{0}));
    }
}

TEST(StackProfiler, UntrackedWritebackReadoutIsFlaggedAndWarnsOnce)
{
    StackProfilerConfig cfg;
    cfg.line_bytes = 64;
    cfg.num_sets = 16;
    cfg.tracked_assocs = {2};
    StackDistanceProfiler prof(cfg);
    RandomTrace(0xBAD, 4000).ReplayInto(prof);

    EXPECT_TRUE(prof.WritebacksExact(2));
    EXPECT_FALSE(prof.WritebacksExact(3));
    // Write-through is exact at every associativity (never dirty).
    EXPECT_TRUE(prof.WritebacksExact(
        3, WritePolicy::kWriteThroughAllocate));

    std::vector<std::string> warnings;
    SetWarnCapture(&warnings);
    const CacheStats untracked = prof.StatsForAssociativity(3);
    const CacheStats again = prof.StatsForAssociativity(5);
    SetWarnCapture(nullptr);
    EXPECT_EQ(untracked.writebacks, 0u);
    EXPECT_EQ(again.writebacks, 0u);
    // One-time warning per process: at most one message, and if this
    // test was first to trigger it, exactly one naming the problem.
    EXPECT_LE(warnings.size(), 1u);
    if (!warnings.empty()) {
        EXPECT_NE(warnings[0].find("untracked"), std::string::npos);
    }
}

TEST(StackProfilerPrefetch, StreamModelCountsSequentialStream)
{
    StackProfilerConfig cfg;
    cfg.line_bytes = 64;
    cfg.num_sets = 4;
    cfg.tracked_assocs = {2};
    cfg.model_prefetcher = true;
    StackDistanceProfiler prof(cfg);
    // A pure sequential sweep of 32 lines: every probe after the first
    // extends a detected stream.
    for (Address line = 0; line < 32; ++line) {
        prof.Access(line * 64, 64, AccessType::kRead);
    }
    const PrefetchStats p = prof.PrefetchForAssociativity(2);
    // Probes 1..31 each issue the next line: 31 issued; probes 2..31
    // consume a pending prefetch on a cold miss: 30 useful.
    EXPECT_EQ(p.issued, 31u);
    EXPECT_EQ(p.useful, 30u);
    EXPECT_EQ(p.demand_misses, 32u); // all cold
    EXPECT_NEAR(p.Accuracy(), 30.0 / 31.0, 1e-12);
    EXPECT_NEAR(p.Coverage(), 30.0 / 32.0, 1e-12);

    // The model is layered: demand stats are unperturbed.
    StackProfilerConfig plain = cfg;
    plain.model_prefetcher = false;
    StackDistanceProfiler base(plain);
    for (Address line = 0; line < 32; ++line) {
        base.Access(line * 64, 64, AccessType::kRead);
    }
    EXPECT_TRUE(SameCacheStats(prof.StatsForAssociativity(2),
                               base.StatsForAssociativity(2)));
}

TEST(StackProfilerPrefetch, RedundantPrefetchesLowerAccuracy)
{
    StackProfilerConfig cfg;
    cfg.line_bytes = 64;
    cfg.num_sets = 1;
    cfg.model_prefetcher = true;
    StackDistanceProfiler prof(cfg);
    // Two interleaved revisits of a 4-line window: the stream model
    // keeps prefetching lines that are still resident at high assoc.
    for (int rep = 0; rep < 8; ++rep) {
        for (Address line = 0; line < 4; ++line) {
            prof.Access(line * 64, 64, AccessType::kRead);
        }
    }
    const PrefetchStats wide = prof.PrefetchForAssociativity(8);
    const PrefetchStats narrow = prof.PrefetchForAssociativity(1);
    // At assoc 8 the window fits: revisit demands would hit anyway,
    // so consumed prefetches are mostly redundant.
    EXPECT_LT(wide.Accuracy(), narrow.Accuracy());
    EXPECT_GE(narrow.useful, wide.useful);
}

/** The study grid the one-pass engine must reproduce bit-for-bit. */
StudySpec
HostStudySpec()
{
    StudySpec spec;
    const HierarchyConfig host = HostHierarchyConfig();
    spec.dram = host.dram;
    CacheConfig small = host.l1;
    small.size = 32_KiB;
    CacheConfig wide = host.l1;
    wide.size = 128_KiB;
    wide.associativity = 8;
    spec.l1_points = {host.l1, small, wide};
    for (const std::uint32_t assoc : {1u, 2u, 4u, 8u, 16u}) {
        CacheConfig llc{"llc", 1024 * assoc * 64, assoc, 64};
        spec.llc_points.push_back(llc);
        llc.policy = WritePolicy::kWriteThroughAllocate;
        spec.llc_points.push_back(llc);
        llc.policy = WritePolicy::kWriteThroughNoAllocate;
        spec.llc_points.push_back(llc);
    }
    // Two distinct set counts force multi-group pass splitting.
    spec.llc_points.push_back(CacheConfig{"llc", 2_MiB, 8, 64});
    const HierarchyConfig pim_core = PimCoreHierarchyConfig();
    const HierarchyConfig pim_accel = PimAccelHierarchyConfig();
    spec.pim_points.push_back(
        StudyPimPoint{"pim-core", pim_core.l1, pim_core.dram});
    spec.pim_points.push_back(
        StudyPimPoint{"pim-accel", pim_accel.l1, pim_accel.dram});
    return spec;
}

TEST(ProfileStudy, GridMatchesReferenceReplayOnKernelTraces)
{
    const StudySpec spec = HostStudySpec();
    const SweepRunner runner(2);
    for (const auto &[name, trace] : KernelTraces()) {
        const AccessTraceSource source(trace);
        const StudyResult study = runner.ProfileStudy(source, spec);
        ASSERT_EQ(study.host.size(), spec.l1_points.size());
        // One replay per distinct L1 geometry; the PIM groups ride
        // them.
        EXPECT_EQ(study.trace_replays, 3u);
        // Per L1: (1024 sets, alloc) + (1024 sets, no-alloc) +
        // (4096 sets, alloc); PIM: the two points differ in set
        // count, so they are two passes on two of the L1 replays.
        EXPECT_EQ(study.profile_passes, 3u * 3u + 2u);

        for (std::size_t i = 0; i < spec.l1_points.size(); ++i) {
            std::vector<HierarchyConfig> refs;
            for (const CacheConfig &llc : spec.llc_points) {
                HierarchyConfig h;
                h.name = "study";
                h.l1 = spec.l1_points[i];
                h.llc = llc;
                h.dram = spec.dram;
                refs.push_back(std::move(h));
            }
            const auto ref = runner.ReplayTrace(source, refs);
            ASSERT_EQ(study.host[i].size(), ref.size());
            for (std::size_t j = 0; j < ref.size(); ++j) {
                EXPECT_TRUE(study.host[i][j].writebacks_exact);
                EXPECT_TRUE(
                    SameCounters(study.host[i][j].counters, ref[j]))
                    << name << " l1 " << i << " llc " << j;
            }
        }

        std::vector<HierarchyConfig> pim_refs;
        for (const StudyPimPoint &p : spec.pim_points) {
            HierarchyConfig h;
            h.name = p.name;
            h.l1 = p.l1;
            h.dram = p.dram;
            pim_refs.push_back(std::move(h));
        }
        const auto pim_ref = runner.ReplayTrace(source, pim_refs);
        ASSERT_EQ(study.pim.size(), pim_ref.size());
        for (std::size_t j = 0; j < pim_ref.size(); ++j) {
            EXPECT_TRUE(
                SameCounters(study.pim[j].counters, pim_ref[j]))
                << name << " pim " << j;
        }
    }
}

TEST(ProfileStudy, PimPointsRidingL1ReplaysMatchPimOnlyStudy)
{
    // The PIM groups ride the L1 replays (group g on replay g mod n),
    // so at any L1 count, prefetcher setting and engine every PIM point
    // must read what a PIM-only study reads, and a study must pay one
    // replay per distinct L1 geometry (a repeated L1 adds none).
    const StudySpec host = HostStudySpec();
    ASSERT_EQ(host.l1_points.size(), 3u);
    StudySpec pim_only;
    pim_only.pim_points = host.pim_points;
    std::vector<HierarchyConfig> pim_refs;
    for (const StudyPimPoint &p : host.pim_points) {
        HierarchyConfig h;
        h.l1 = p.l1;
        h.dram = p.dram;
        pim_refs.push_back(std::move(h));
    }
    const AccessTrace trace = RandomTrace(0x71DE, 30000);
    const AccessTraceSource source(trace);
    const SweepRunner runner(2);
    const std::vector<PerfCounters> ref =
        runner.ReplayTrace(source, pim_refs);

    for (const bool shard : {true, false}) {
        const ShardPassSwitch guard(shard);
        const StudyResult alone = runner.ProfileStudy(source, pim_only);
        EXPECT_EQ(alone.trace_replays, 1u);
        EXPECT_EQ(alone.shards > 1, shard);
        ASSERT_EQ(alone.pim.size(), ref.size());
        for (std::size_t j = 0; j < ref.size(); ++j) {
            EXPECT_TRUE(SameCounters(alone.pim[j].counters, ref[j]))
                << "shard " << shard << " pim " << j;
        }
        for (const bool prefetch : {false, true}) {
            for (std::size_t n = 1; n <= 3; ++n) {
                StudySpec spec = host;
                spec.model_prefetcher = prefetch;
                spec.l1_points.resize(n);
                spec.l1_points.push_back(spec.l1_points.front());
                const std::string tag =
                    "shard " + std::to_string(shard) + " prefetch " +
                    std::to_string(prefetch) + " l1s " +
                    std::to_string(n);
                const StudyResult study =
                    runner.ProfileStudy(source, spec);
                EXPECT_EQ(study.trace_replays, n) << tag;
                // Every geometry here is a power of two: only the
                // prefetcher model or the switch keeps a job serial.
                EXPECT_EQ(study.shards > 1, shard && !prefetch) << tag;
                ASSERT_EQ(study.pim.size(), alone.pim.size()) << tag;
                for (std::size_t j = 0; j < alone.pim.size(); ++j) {
                    EXPECT_TRUE(SameCounters(study.pim[j].counters,
                                             alone.pim[j].counters))
                        << tag << " pim " << j;
                    EXPECT_EQ(study.pim[j].writebacks_exact,
                              alone.pim[j].writebacks_exact)
                        << tag << " pim " << j;
                }
            }
        }
    }
}

/**
 * Acceptance for the streaming trace layer: both engines must produce
 * bit-identical counters through all three TraceSource implementations
 * — the zero-copy AccessTraceSource view, the in-RAM CompactTraceSource
 * cursor, and the mmap-backed MappedCompactTrace streaming from a
 * container file — on the kernel streams and a random stream with
 * line-straddling spans: per-config replay, the one-L1 LLC ladder
 * (pim_run --sweep=llc), and the multi-axis study with its sharded
 * passes at 1, 2 and 8 threads.
 */
TEST(TraceSourceEquivalence, AllSourcesMatchAllEnginesOnKernelTraces)
{
    const std::vector<CacheConfig> points = SweepLlcPoints();
    std::vector<HierarchyConfig> configs;
    StudySpec ladder_spec;
    ladder_spec.l1_points = {HostHierarchyConfig().l1};
    ladder_spec.llc_points = points;
    ladder_spec.dram = HostHierarchyConfig().dram;
    for (const CacheConfig &p : points) {
        HierarchyConfig hier = HostHierarchyConfig();
        hier.llc = p;
        configs.push_back(std::move(hier));
    }
    const StudySpec study_spec = HostStudySpec();
    const SweepRunner runner(2);

    auto traces = KernelTraces();
    traces.emplace_back("random", RandomTrace(0xC0DE, 30000));
    for (const auto &[name, trace] : traces) {
        const CompactTrace compact = CompactTrace::Encode(trace);
        const std::string path = testing::TempDir() +
                                 "pim_source_equiv_" + name +
                                 ".ctrace";
        std::string error;
        ASSERT_TRUE(compact.SaveTo(path, &error)) << error;
        auto mapped = MappedCompactTrace::Open(path, &error);
        ASSERT_TRUE(mapped.has_value()) << error;

        // Raw-trace references: per-config replays, and the study's
        // host grid and PIM points replayed one config at a time.
        const AccessTraceSource raw_source(trace);
        const auto ref = runner.ReplayTrace(raw_source, configs);
        std::vector<HierarchyConfig> study_configs;
        for (const CacheConfig &l1 : study_spec.l1_points) {
            for (const CacheConfig &llc : study_spec.llc_points) {
                HierarchyConfig h;
                h.l1 = l1;
                h.llc = llc;
                h.dram = study_spec.dram;
                study_configs.push_back(std::move(h));
            }
        }
        for (const StudyPimPoint &p : study_spec.pim_points) {
            HierarchyConfig h;
            h.l1 = p.l1;
            h.dram = p.dram;
            study_configs.push_back(std::move(h));
        }
        const auto study_ref =
            runner.ReplayTrace(raw_source, study_configs);

        const CompactTraceSource compact_source(compact);
        const TraceSource *const sources[] = {&raw_source,
                                              &compact_source,
                                              &*mapped};
        const char *const source_names[] = {"raw", "compact",
                                            "mapped"};
        for (std::size_t s = 0; s < 3; ++s) {
            const TraceSource &src = *sources[s];
            const std::string tag =
                std::string(name) + " via " + source_names[s];

            const auto replayed = runner.ReplayTrace(src, configs);
            const StudyResult ladder =
                runner.ProfileStudy(src, ladder_spec);
            ASSERT_EQ(replayed.size(), ref.size());
            for (std::size_t i = 0; i < ref.size(); ++i) {
                EXPECT_TRUE(SameCounters(ref[i], replayed[i]))
                    << tag << " replay point " << i;
                EXPECT_TRUE(
                    SameCounters(ref[i], ladder.host[0][i].counters))
                    << tag << " ladder point " << i;
            }

            for (const unsigned threads : {1u, 2u, 8u}) {
                const StudyResult study =
                    SweepRunner(threads).ProfileStudy(src, study_spec);
                const std::size_t cols = study_spec.llc_points.size();
                for (std::size_t i = 0; i < study.host.size(); ++i) {
                    for (std::size_t j = 0; j < cols; ++j) {
                        EXPECT_TRUE(SameCounters(
                            study.host[i][j].counters,
                            study_ref[i * cols + j]))
                            << tag << " x" << threads << " study l1 "
                            << i << " llc " << j;
                    }
                }
                for (std::size_t j = 0; j < study.pim.size(); ++j) {
                    EXPECT_TRUE(SameCounters(
                        study.pim[j].counters,
                        study_ref[study.host.size() * cols + j]))
                        << tag << " x" << threads << " study pim " << j;
                }
            }
        }
        std::remove(path.c_str());
    }
}

/** hist[d], or 0 past the end (histograms grow on demand). */
std::uint64_t
HistAt(const std::vector<std::uint64_t> &hist, std::size_t d)
{
    return d < hist.size() ? hist[d] : 0;
}

/** Sum of hist[d] for d >= from. */
std::uint64_t
HistFrom(const std::vector<std::uint64_t> &hist, std::size_t from)
{
    std::uint64_t sum = 0;
    for (std::size_t d = from; d < hist.size(); ++d) {
        sum += hist[d];
    }
    return sum;
}

/**
 * Depth-bounded passes against the unbounded pass on random streams:
 * below the cap every histogram bucket is equal, far counts absorb
 * exactly the first touches plus the reuses at depth >= cap, tracked
 * writebacks are equal, and every readout up to the cap (stats, below
 * traffic, prefetcher) is bit-identical.  Caps cover 1, 2, an odd
 * value, exactly the max tracked associativity, and one above the
 * footprint (where the bounded pass must equal the unbounded one).
 */
TEST(StackProfilerProperty, DepthBoundedPassMatchesUnboundedBelowCap)
{
    Rng rng(0xCA9);
    int bounded_runs = 0;
    for (int g = 0; g < 24; ++g) {
        const AccessTrace trace =
            RandomTrace(0xD00D + static_cast<std::uint64_t>(g), 6000);
        StackProfilerConfig base;
        base.line_bytes = Bytes{32} << rng.Range(0, 1); // 32 or 64
        const std::size_t set_choices[] = {1, 4, 7, 16, 48};
        base.num_sets = set_choices[rng.Range(0, 4)];
        base.write_allocate = g % 3 != 2;
        base.model_prefetcher = g % 2 == 1;
        for (int t = static_cast<int>(rng.Range(1, 4)); t > 0; --t) {
            base.tracked_assocs.push_back(
                static_cast<std::uint32_t>(rng.Range(1, 12)));
        }
        const std::uint32_t max_tracked = *std::max_element(
            base.tracked_assocs.begin(), base.tracked_assocs.end());

        std::set<Address> lines;
        for (std::size_t i = 0; i < trace.size(); ++i) {
            const TraceEntry &e = trace[i];
            for (Address a = e.addr() & ~(base.line_bytes - 1);
                 a < e.addr() + e.bytes(); a += base.line_bytes) {
                lines.insert(a);
            }
        }
        const auto footprint = static_cast<std::uint32_t>(lines.size());

        StackDistanceProfiler unbounded_prof(base);
        trace.ReplayInto(unbounded_prof);
        const StackProfile &ref = unbounded_prof.profile();

        const WritePolicy policies[] = {
            WritePolicy::kWriteBackAllocate,
            WritePolicy::kWriteThroughAllocate,
            WritePolicy::kWriteThroughNoAllocate,
        };
        for (const std::uint32_t cap :
             {1u, 2u, 5u, max_tracked, footprint + 1}) {
            StackProfilerConfig cfg = base;
            cfg.max_assoc = cap;
            std::erase_if(cfg.tracked_assocs,
                          [&](std::uint32_t a) { return a > cap; });
            StackDistanceProfiler prof(cfg);
            trace.ReplayInto(prof);
            const StackProfile &got = prof.profile();
            const std::string what =
                "g=" + std::to_string(g) + " sets=" +
                std::to_string(base.num_sets) + " cap=" +
                std::to_string(cap) +
                (base.write_allocate ? " alloc" : " noalloc") +
                (base.model_prefetcher ? " prefetch" : "");

            EXPECT_EQ(got.probes, ref.probes) << what;
            EXPECT_LE(got.read_hist.size(), cap) << what;
            EXPECT_LE(got.write_hist.size(), cap) << what;
            for (std::size_t d = 0; d < cap; ++d) {
                EXPECT_EQ(HistAt(got.read_hist, d),
                          HistAt(ref.read_hist, d)) << what;
                EXPECT_EQ(HistAt(got.write_hist, d),
                          HistAt(ref.write_hist, d)) << what;
                EXPECT_EQ(HistAt(got.useful_hist, d),
                          HistAt(ref.useful_hist, d)) << what;
            }
            EXPECT_EQ(got.read_far,
                      ref.read_far + HistFrom(ref.read_hist, cap))
                << what;
            EXPECT_EQ(got.write_far,
                      ref.write_far + HistFrom(ref.write_hist, cap))
                << what;
            EXPECT_EQ(got.useful_far,
                      ref.useful_far + HistFrom(ref.useful_hist, cap))
                << what;
            EXPECT_EQ(got.prefetches_issued, ref.prefetches_issued)
                << what;
            for (std::size_t j = 0; j < got.tracked.size(); ++j) {
                const int r = ref.TrackedIndex(got.tracked[j]);
                ASSERT_GE(r, 0) << what;
                EXPECT_EQ(got.writebacks[j],
                          ref.writebacks[static_cast<std::size_t>(r)])
                    << what;
            }
            for (std::uint32_t assoc = 1; assoc <= std::min(cap, 40u);
                 ++assoc) {
                for (const WritePolicy policy : policies) {
                    if (base.write_allocate ==
                        (policy == WritePolicy::kWriteThroughNoAllocate)) {
                        continue; // the pass does not answer it
                    }
                    EXPECT_TRUE(SameCacheStats(
                        got.StatsForAssociativity(assoc, policy),
                        ref.StatsForAssociativity(assoc, policy)))
                        << what << " assoc=" << assoc;
                    EXPECT_EQ(got.WritebacksExact(assoc, policy),
                              ref.WritebacksExact(assoc, policy))
                        << what << " assoc=" << assoc;
                    if (got.WritebacksExact(assoc, policy)) {
                        EXPECT_TRUE(SameDramStats(
                            got.DramTrafficForAssociativity(assoc,
                                                            policy),
                            ref.DramTrafficForAssociativity(assoc,
                                                            policy)))
                            << what << " assoc=" << assoc;
                    }
                }
                if (base.model_prefetcher) {
                    const PrefetchStats a =
                        got.PrefetchForAssociativity(assoc);
                    const PrefetchStats b =
                        ref.PrefetchForAssociativity(assoc);
                    EXPECT_EQ(a.issued, b.issued) << what;
                    EXPECT_EQ(a.useful, b.useful) << what;
                    EXPECT_EQ(a.demand_misses, b.demand_misses) << what;
                }
            }
            if (cap > footprint) {
                // No set ever fills: the bound never drops an entry.
                StackProfile same_cap = ref;
                same_cap.max_assoc = cap;
                same_cap.tracked = got.tracked;
                same_cap.writebacks = got.writebacks;
                EXPECT_TRUE(SameProfile(got, same_cap)) << what;
            }
            ++bounded_runs;
        }
    }
    EXPECT_EQ(bounded_runs, 24 * 5);
}

/**
 * Crafted streams for the batch-feed property: each aims at one
 * branch of AccessBatch's top-of-stack loop.
 */
std::vector<std::pair<const char *, AccessTrace>>
TopOfStackStreams()
{
    std::vector<std::pair<const char *, AccessTrace>> streams;
    Rng rng(0x70B5);
    auto type = [&](int write_pct) {
        return static_cast<int>(rng.Range(0, 99)) < write_pct
                   ? AccessType::kWrite
                   : AccessType::kRead;
    };

    // Runs of probes to one line, mixing reads and writes.
    AccessTrace runs;
    for (int r = 0; r < 600; ++r) {
        const Address line = 0x10000 + 64 * rng.Range(0, 47);
        for (int n = static_cast<int>(rng.Range(1, 8)); n > 0; --n) {
            runs.Append(line + rng.Range(0, 31),
                        static_cast<Bytes>(rng.Range(1, 32)), type(40));
        }
    }
    streams.emplace_back("same_line_runs", std::move(runs));

    // Two adjacent lines taking turns: different sets unless the pass
    // has one set, where each probe lands at distance 1.
    AccessTrace pair;
    for (int n = 0; n < 3000; ++n) {
        pair.Append(0x20000 + 64 * (n % 2), 8, type(50));
    }
    streams.emplace_back("alternating_lines", std::move(pair));

    // Spans over 2-5 lines, often repeated, so the lines of one entry
    // mix top-of-stack hits with deeper and far probes.
    AccessTrace spans;
    for (int n = 0; n < 2000; ++n) {
        const Address addr = 0x30000 + rng.Range(0, 8191);
        const auto bytes = static_cast<Bytes>(rng.Range(65, 256));
        const AccessType t = type(30);
        for (int rep = static_cast<int>(rng.Range(1, 3)); rep > 0;
             --rep) {
            spans.Append(addr, bytes, t);
        }
    }
    streams.emplace_back("multi_line_spans", std::move(spans));

    // Zero-byte entries between probes of a few hot lines.
    AccessTrace zeros;
    for (int n = 0; n < 3000; ++n) {
        const Address addr = 0x40000 + 64 * rng.Range(0, 5);
        zeros.Append(addr, rng.Range(0, 2) == 0 ? 0 : 16, type(40));
    }
    streams.emplace_back("zero_byte_entries", std::move(zeros));
    return streams;
}

/**
 * AccessBatch in random batch sizes against Access one entry at a
 * time: every StackProfile field is equal.  AccessBatch resolves
 * top-of-stack probes in its own loop (dirty OR, read/write split,
 * deferred histogram commit); Access sends every probe through the
 * per-probe path.  Configurations cover both write policies, bounded
 * (cap 1 included) and unbounded passes, several tracked lists, and
 * the prefetcher model.
 */
TEST(StackProfilerProperty, BatchFeedMatchesPerEntryFeed)
{
    std::vector<std::pair<const char *, AccessTrace>> streams =
        KernelTraces();
    for (auto &stream : TopOfStackStreams()) {
        streams.push_back(std::move(stream));
    }
    const std::size_t set_choices[] = {1, 4, 7, 64};
    const std::vector<std::uint32_t> tracked_choices[] = {
        {}, {1}, {1, 2, 4}, {3, 5}};
    Rng rng(0xBA7C);
    int passes = 0;
    for (const auto &[name, trace] : streams) {
        int c = 0;
        for (const bool allocate : {true, false}) {
            for (const bool prefetch : {false, true}) {
                for (const std::uint32_t cap : {0u, 1u, 5u}) {
                    StackProfilerConfig cfg;
                    cfg.line_bytes = c % 2 == 0 ? 64 : 32;
                    cfg.num_sets = set_choices[c % 4];
                    cfg.write_allocate = allocate;
                    cfg.model_prefetcher = prefetch;
                    cfg.max_assoc = cap;
                    cfg.tracked_assocs = tracked_choices[c % 4];
                    std::erase_if(cfg.tracked_assocs, [&](std::uint32_t a) {
                        return cap != 0 && a > cap;
                    });
                    ++c;

                    StackDistanceProfiler per_entry(cfg);
                    for (std::size_t i = 0; i < trace.size(); ++i) {
                        per_entry.Access(trace[i].addr(), trace[i].bytes(),
                                         trace[i].type());
                    }
                    StackDistanceProfiler batched(cfg);
                    for (std::size_t i = 0; i < trace.size();) {
                        const std::size_t n = std::min<std::size_t>(
                            trace.size() - i,
                            static_cast<std::size_t>(rng.Range(1, 4096)));
                        batched.AccessBatch(&trace[i], n);
                        i += n;
                    }
                    EXPECT_TRUE(
                        SameProfile(batched.profile(), per_entry.profile()))
                        << name << " sets=" << cfg.num_sets
                        << " line=" << cfg.line_bytes << " cap=" << cap
                        << (allocate ? " alloc" : " noalloc")
                        << (prefetch ? " prefetch" : "")
                        << " tracked=" << cfg.tracked_assocs.size();
                    ++passes;
                }
            }
        }
    }
    EXPECT_EQ(passes, 8 * 12);
}

/**
 * One set of an unbounded pass holds 20,000 lines: the second sweep
 * finds every line at distance 19,999, and the set's growing slab
 * keeps the arena within twice the live entries plus one first slab.
 */
TEST(StackProfiler, UnboundedDeepSetStaysWithinTwiceItsDepth)
{
    StackProfilerConfig cfg;
    cfg.line_bytes = 64;
    cfg.num_sets = 4096;
    cfg.tracked_assocs = {1, 8};
    constexpr std::size_t kLines = 20000;
    const Address stride = cfg.num_sets * cfg.line_bytes;
    AccessTrace sweep;
    for (std::size_t i = 0; i < kLines; ++i) {
        sweep.Append(i * stride, 8, AccessType::kRead);
    }
    StackDistanceProfiler prof(cfg);
    sweep.ReplayInto(prof);
    sweep.ReplayInto(prof);

    EXPECT_EQ(prof.probes(), 2 * kLines);
    EXPECT_EQ(prof.far_reads(), kLines);
    ASSERT_EQ(prof.read_histogram().size(), kLines);
    EXPECT_EQ(prof.read_histogram()[kLines - 1], kLines);
    EXPECT_EQ(HistFrom(prof.read_histogram(), 0), kLines);
    EXPECT_LE(prof.arena_slots(), 2 * kLines + 8);
}

TEST(StackProfileMerge, EmptyIsIdentityInBothDirections)
{
    StackProfilerConfig cfg;
    cfg.line_bytes = 64;
    cfg.num_sets = 16;
    cfg.tracked_assocs = {2, 4};
    StackDistanceProfiler full(cfg);
    RandomTrace(0x31415, 8000).ReplayInto(full);
    const StackProfile reference = full.profile();

    const StackProfile empty = StackDistanceProfiler(cfg).profile();

    StackProfile a = reference;
    a.Merge(empty);
    EXPECT_TRUE(SameProfile(a, reference));

    StackProfile b = empty;
    b.Merge(reference);
    EXPECT_TRUE(SameProfile(b, reference));
}

TEST(StackProfileMerge, SelfMergeDoublesEveryCounter)
{
    StackProfilerConfig cfg;
    cfg.line_bytes = 64;
    cfg.num_sets = 16;
    cfg.tracked_assocs = {3};
    StackDistanceProfiler prof(cfg);
    RandomTrace(0x27182, 8000).ReplayInto(prof);
    const StackProfile one = prof.profile();

    StackProfile two = one;
    two.Merge(one);
    EXPECT_EQ(two.probes, 2 * one.probes);
    EXPECT_EQ(two.read_far, 2 * one.read_far);
    EXPECT_EQ(two.write_far, 2 * one.write_far);
    ASSERT_EQ(two.read_hist.size(), one.read_hist.size());
    for (std::size_t i = 0; i < one.read_hist.size(); ++i) {
        EXPECT_EQ(two.read_hist[i], 2 * one.read_hist[i]);
    }
    ASSERT_EQ(two.writebacks.size(), one.writebacks.size());
    for (std::size_t i = 0; i < one.writebacks.size(); ++i) {
        EXPECT_EQ(two.writebacks[i], 2 * one.writebacks[i]);
    }
}

TEST(StackProfileMerge, DisjointSetPartitionsSumToWholeTraceProfile)
{
    // Route line-granular probes by set parity into two profilers;
    // each set's ordered subsequence lands wholly in one of them, so
    // the merged snapshot must equal the whole-trace profile exactly.
    StackProfilerConfig cfg;
    cfg.line_bytes = 64;
    cfg.num_sets = 16;
    cfg.tracked_assocs = {1, 2, 8};

    Rng rng(0x6A09);
    AccessTrace whole, even, odd;
    for (int i = 0; i < 20000; ++i) {
        const Address addr = 0x100000 + rng.Range(0, 256 * 1024);
        const AccessType type = rng.Range(0, 99) < 40
                                    ? AccessType::kWrite
                                    : AccessType::kRead;
        // Single-byte probes so no access spans two lines (a span
        // would straddle the parity partition).
        whole.Append(addr, 1, type);
        const std::size_t set = (addr / 64) % 16;
        (set % 2 == 0 ? even : odd).Append(addr, 1, type);
    }

    StackDistanceProfiler ref(cfg), pe(cfg), po(cfg);
    whole.ReplayInto(ref);
    even.ReplayInto(pe);
    odd.ReplayInto(po);

    StackProfile merged = pe.profile();
    merged.Merge(po.profile());
    EXPECT_TRUE(SameProfile(merged, ref.profile()));
    // And the analytic readouts agree at every policy.
    for (const WritePolicy policy :
         {WritePolicy::kWriteBackAllocate,
          WritePolicy::kWriteThroughAllocate}) {
        for (const std::uint32_t assoc : {1u, 2u, 8u}) {
            EXPECT_TRUE(SameCacheStats(
                merged.StatsForAssociativity(assoc, policy),
                ref.profile().StatsForAssociativity(assoc, policy)));
        }
    }
}

/**
 * Tentpole acceptance for the sharded pass engine: across >= 40
 * random pass geometries (allocating and non-allocating, tracked and
 * untracked, depth-bounded and unbounded, nested-L1 and raw-trace),
 * every supported shard/thread count, and both resident and
 * mmap-streamed sources, the merged sharded snapshot must equal the
 * serial pass bit for bit.  Half the depth-bounded geometries (nested
 * and raw, allocating and not) also run over a mapped container longer
 * than 64 x 2 blocks at 2 threads, so the windowed out-of-core
 * partition crosses a window boundary.
 */
TEST(ShardedPassProperty, RandomGeometriesBitIdenticalToSerial)
{
    const auto traces = KernelTraces();

    // Save each kernel stream once; the mmap side of every geometry
    // streams from these container files.
    struct Saved
    {
        std::string path;
        std::optional<MappedCompactTrace> mapped;
        CompactTrace compact;
    };
    std::vector<Saved> saved(traces.size());
    for (std::size_t t = 0; t < traces.size(); ++t) {
        saved[t].compact = CompactTrace::Encode(traces[t].second);
        saved[t].path = testing::TempDir() + "pim_shardpass_" +
                        traces[t].first + ".ctrace";
        std::string error;
        ASSERT_TRUE(saved[t].compact.SaveTo(saved[t].path, &error))
            << error;
        saved[t].mapped = MappedCompactTrace::Open(
            saved[t].path, &error,
            MappedCompactTrace::Verify::kLazy);
        ASSERT_TRUE(saved[t].mapped.has_value()) << error;
    }

    // The multi-window stream: a mapped (non-resident) source streams
    // in windows of 64 blocks per worker, so at 2 threads this one
    // spans two windows.  Short random probes (some straddling a line)
    // keep its serial reference passes cheap.
    AccessTrace long_trace;
    {
        Rng long_rng(0x10E6);
        const std::size_t n =
            (64 * 2 + 3) * TraceSource::kBlockEntries + 77;
        long_trace.Reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            long_trace.Append(
                0x10'0000 + static_cast<Address>(
                                long_rng.Range(0, 256 * 1024)),
                static_cast<Bytes>(long_rng.Range(1, 8)),
                long_rng.Range(0, 3) == 0 ? AccessType::kWrite
                                          : AccessType::kRead);
        }
    }
    Saved long_saved;
    {
        long_saved.compact = CompactTrace::Encode(long_trace);
        long_saved.path =
            testing::TempDir() + "pim_shardpass_long.ctrace";
        std::string error;
        ASSERT_TRUE(long_saved.compact.SaveTo(long_saved.path, &error))
            << error;
        long_saved.mapped = MappedCompactTrace::Open(
            long_saved.path, &error, MappedCompactTrace::Verify::kLazy);
        ASSERT_TRUE(long_saved.mapped.has_value()) << error;
        ASSERT_GT(long_saved.mapped->BlockCount(), 64u * 2);
    }
    int multi_window_runs = 0;

    const CacheConfig host_l1 = HostHierarchyConfig().l1;
    Rng rng(0x5A4D);
    Rng raw_rng(0x7A1D); // riding raw-pass geometries
    int sharded_runs = 0;
    for (int g = 0; g < 48; ++g) {
        StackProfilerConfig pcfg;
        pcfg.line_bytes = Bytes{16} << rng.Range(0, 3); // 16..128
        const std::size_t set_choices[] = {16, 64, 256, 1024};
        pcfg.num_sets = set_choices[rng.Range(0, 3)];
        const auto assoc =
            static_cast<std::uint32_t>(rng.Range(1, 16));
        pcfg.write_allocate = g % 3 != 2; // wb/wt share, wtna distinct
        if (g % 2 == 0) {
            pcfg.tracked_assocs = {assoc};
        }
        if (g % 5 < 2) {
            pcfg.max_assoc = assoc; // depth-bounded shard stacks
        }
        const bool nested = g % 4 < 2;
        const CacheConfig *l1 = nested ? &host_l1 : nullptr;
        // A nested pass carries a raw pass of its own random
        // geometry riding beside its L1, as ProfileStudy's PIM groups
        // do; its set bits join the shard key.
        StackProfilerConfig rcfg;
        rcfg.line_bytes = Bytes{16} << raw_rng.Range(0, 3);
        rcfg.num_sets = set_choices[raw_rng.Range(0, 3)];
        rcfg.write_allocate = raw_rng.Range(0, 1) == 0;
        rcfg.tracked_assocs = {
            static_cast<std::uint32_t>(raw_rng.Range(1, 16))};
        const std::vector<StackProfilerConfig> raw =
            nested ? std::vector<StackProfilerConfig>{rcfg}
                   : std::vector<StackProfilerConfig>{};

        const std::size_t t = static_cast<std::size_t>(g) %
                              traces.size();
        const AccessTrace &trace = traces[t].second;

        // Serial reference: one profiler, optional nested L1.
        const auto serial_pass = [&](const AccessTrace &stream,
                                     CacheStats *l1_stats) {
            StackDistanceProfiler prof(pcfg);
            if (nested) {
                Cache l1_cache(host_l1, prof);
                stream.ReplayInto(l1_cache);
                *l1_stats = l1_cache.stats();
            } else {
                stream.ReplayInto(prof);
            }
            return prof.profile();
        };
        CacheStats ref_l1;
        const StackProfile ref = serial_pass(trace, &ref_l1);
        StackDistanceProfiler raw_prof(rcfg);
        trace.ReplayInto(raw_prof);
        const StackProfile raw_ref = raw_prof.profile();

        const AccessTraceSource resident(trace);
        const TraceSource *const sources[] = {&resident,
                                              &*saved[t].mapped};
        const char *const source_names[] = {"resident", "mapped"};
        const std::string what =
            std::string(traces[t].first) + " line=" +
            std::to_string(pcfg.line_bytes) + " sets=" +
            std::to_string(pcfg.num_sets) + " assoc=" +
            std::to_string(assoc) +
            (pcfg.write_allocate ? " alloc" : " noalloc") +
            (nested ? " nested" : " raw") +
            (pcfg.tracked_assocs.empty() ? " untracked" : " tracked") +
            (pcfg.max_assoc != 0 ? " bounded" : "") +
            (nested ? " + raw line=" + std::to_string(rcfg.line_bytes) +
                          " sets=" + std::to_string(rcfg.num_sets)
                    : std::string());

        for (std::size_t s = 0; s < 2; ++s) {
            for (const unsigned threads : {1u, 2u, 8u}) {
                const ShardedPassResult pass =
                    SweepRunner(threads).ProfilePass(*sources[s], l1,
                                                     {pcfg}, raw);
                const std::string tag = what + " via " +
                                        source_names[s] + " x" +
                                        std::to_string(threads);
                // One worker never shards: the one-shard pass.
                if (threads == 1) {
                    EXPECT_EQ(pass.shards, 1u) << tag;
                } else {
                    EXPECT_GE(pass.shards, 2u) << tag;
                }
                ASSERT_EQ(pass.profiles.size(), 1u) << tag;
                EXPECT_TRUE(SameProfile(pass.profiles[0], ref)) << tag;
                ASSERT_EQ(pass.raw_profiles.size(), raw.size()) << tag;
                if (nested) {
                    EXPECT_TRUE(SameCacheStats(pass.l1, ref_l1))
                        << tag;
                    EXPECT_TRUE(SameProfile(pass.raw_profiles[0], raw_ref))
                        << tag;
                }
                sharded_runs += pass.shards > 1 ? 1 : 0;
            }
        }

        if (pcfg.max_assoc != 0 && g % 2 == 0) {
            CacheStats long_l1;
            const StackProfile long_ref = serial_pass(long_trace, &long_l1);
            const ShardedPassResult pass = SweepRunner(2).ProfilePass(
                *long_saved.mapped, l1, {pcfg}, {});
            ASSERT_GE(pass.shards, 2u) << what << " multi-window";
            EXPECT_TRUE(SameProfile(pass.profiles[0], long_ref))
                << what << " multi-window";
            if (nested) {
                EXPECT_TRUE(SameCacheStats(pass.l1, long_l1))
                    << what << " multi-window";
            }
            ++multi_window_runs;
        }
    }
    // The suite is vacuous if the engine never sharded.
    EXPECT_GE(sharded_runs, 40 * 2 * 2);
    EXPECT_EQ(multi_window_runs, 10);

    for (const Saved &s : saved) {
        std::remove(s.path.c_str());
    }
    std::remove(long_saved.path.c_str());
}

TEST(ShardedPass, PlanDeclinesUnshardableGeometries)
{
    const CacheConfig host_l1 = HostHierarchyConfig().l1;
    StackProfilerConfig ok;
    ok.line_bytes = 64;
    ok.num_sets = 64;

    const ShardedReplayPlan good = PlanForPass(&host_l1, {ok}, {}, 8);
    EXPECT_TRUE(good.supported);
    EXPECT_GE(good.shards, 2u);

    StackProfilerConfig pf = ok;
    pf.model_prefetcher = true;
    const ShardedReplayPlan decline_pf = PlanForPass(&host_l1, {pf}, {}, 8);
    EXPECT_FALSE(decline_pf.supported);
    EXPECT_NE(std::string(decline_pf.why).find("prefetcher"),
              std::string::npos);

    StackProfilerConfig odd_sets = ok;
    odd_sets.num_sets = 48;
    EXPECT_FALSE(PlanForPass(&host_l1, {odd_sets}, {}, 8).supported);

    // A single-stack (fully associative) pass leaves no set bits to
    // stripe on.
    StackProfilerConfig one_set = ok;
    one_set.num_sets = 1;
    EXPECT_FALSE(PlanForPass(&host_l1, {one_set}, {}, 8).supported);

    // One worker => fewer than two shards.
    EXPECT_FALSE(PlanForPass(&host_l1, {ok}, {}, 1).supported);
    EXPECT_FALSE(PlanForPass(&host_l1, {}, {}, 8).supported);
}

TEST(ShardedPass, LazyVerifyFailureSurfacesOnCaller)
{
    // Corrupt a payload byte in the LAST block of a container longer
    // than one 2-thread window (64 blocks per worker): the corrupt
    // block is decoded by a partition worker of the final window, and
    // its lazy-verify exception must resurface on the calling thread
    // as std::runtime_error.
    const AccessTrace raw = RandomTrace(
        0xC0DE, (64 * 2 + 1) * TraceSource::kBlockEntries + 123);
    const CompactTrace compact = CompactTrace::Encode(raw);
    const std::string good_path =
        testing::TempDir() + "pim_shardpass_good.ctrace";
    const std::string bad_path =
        testing::TempDir() + "pim_shardpass_bad.ctrace";
    std::string error;
    ASSERT_TRUE(compact.SaveTo(good_path, &error)) << error;
    {
        std::ifstream in(good_path, std::ios::binary);
        std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
        ASSERT_GT(bytes.size(), 16u);
        bytes[bytes.size() - 7] ^= 0x40;
        std::ofstream out(bad_path, std::ios::binary);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }
    const CacheConfig host_l1 = HostHierarchyConfig().l1;
    StackProfilerConfig pcfg;
    pcfg.line_bytes = 64;
    pcfg.num_sets = 64;
    pcfg.tracked_assocs = {4};
    // At 2 threads the sharded pipeline decodes it on a worker; at 1
    // the one-shard pass decodes it on the caller.  Same error.  The
    // digest is compared once per open, so each run maps afresh.
    for (const unsigned threads : {2u, 1u}) {
        auto lazy = MappedCompactTrace::Open(
            bad_path, &error, MappedCompactTrace::Verify::kLazy);
        ASSERT_TRUE(lazy.has_value()) << error;
        ASSERT_GT(lazy->BlockCount(), 64u * 2);
        EXPECT_THROW(SweepRunner(threads).ProfilePass(*lazy, &host_l1,
                                                      {pcfg}, {}),
                     std::runtime_error)
            << "threads " << threads;
    }

    std::remove(good_path.c_str());
    std::remove(bad_path.c_str());
}

TEST(ProfileStudy, PrefetcherAxisIsLayeredNotIntrusive)
{
    StudySpec spec = HostStudySpec();
    const AccessTrace trace = RandomTrace(0xF37C, 30000);
    const SweepRunner runner(2);
    const AccessTraceSource source(trace);
    const StudyResult plain = runner.ProfileStudy(source, spec);
    spec.model_prefetcher = true;
    const StudyResult modeled = runner.ProfileStudy(source, spec);
    for (std::size_t i = 0; i < plain.host.size(); ++i) {
        for (std::size_t j = 0; j < plain.host[i].size(); ++j) {
            // Identical counters, now with prefetch telemetry.
            EXPECT_TRUE(
                SameCounters(plain.host[i][j].counters,
                             modeled.host[i][j].counters));
            EXPECT_EQ(plain.host[i][j].prefetch.issued, 0u);
        }
    }
}

} // namespace
} // namespace pim::sim
