/**
 * @file
 * Unit and property tests for the cache model and memory hierarchy.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "oracle.h"
#include "sim/cache.h"
#include "sim/dram.h"
#include "sim/hierarchy.h"
#include "sim/trace.h"

namespace pim::sim {
namespace {

CacheConfig
SmallCache(Bytes size = 1_KiB, std::uint32_t assoc = 2)
{
    return CacheConfig{"test", size, assoc, 64};
}

TEST(Cache, ColdMissThenHit)
{
    DramCounter dram(Lpddr3Config());
    Cache cache(SmallCache(), dram);

    cache.Access(0x1000, 4, AccessType::kRead);
    EXPECT_EQ(cache.stats().read_misses, 1u);
    EXPECT_EQ(cache.stats().read_hits, 0u);

    cache.Access(0x1000, 4, AccessType::kRead);
    cache.Access(0x1020, 4, AccessType::kRead); // same line
    EXPECT_EQ(cache.stats().read_hits, 2u);
    EXPECT_EQ(cache.stats().read_misses, 1u);

    // One line fill went below.
    EXPECT_EQ(dram.stats().read_bytes, 64u);
}

TEST(Cache, MultiLineAccessSplits)
{
    DramCounter dram(Lpddr3Config());
    Cache cache(SmallCache(), dram);

    cache.Access(0x1000, 256, AccessType::kRead); // 4 lines
    EXPECT_EQ(cache.stats().read_misses, 4u);

    cache.Access(0x103F, 2, AccessType::kRead); // straddles 2 lines
    EXPECT_EQ(cache.stats().read_hits, 2u);
}

TEST(Cache, WritebackOnDirtyEviction)
{
    DramCounter dram(Lpddr3Config());
    // Direct-mapped, 2 sets.
    Cache cache(CacheConfig{"dm", 128, 1, 64}, dram);

    cache.Access(0x0000, 4, AccessType::kWrite); // set 0, dirty
    cache.Access(0x0080, 4, AccessType::kRead);  // set 0, evicts dirty
    EXPECT_EQ(cache.stats().writebacks, 1u);
    EXPECT_EQ(dram.stats().write_bytes, 64u);

    // Clean eviction: no writeback.
    cache.Access(0x0100, 4, AccessType::kRead); // evicts clean 0x0080
    EXPECT_EQ(cache.stats().writebacks, 1u);
}

TEST(Cache, LruReplacement)
{
    DramCounter dram(Lpddr3Config());
    // One set, 2 ways.
    Cache cache(CacheConfig{"lru", 128, 2, 64}, dram);

    cache.Access(0x0000, 4, AccessType::kRead); // A
    cache.Access(0x1000, 4, AccessType::kRead); // B
    cache.Access(0x0000, 4, AccessType::kRead); // touch A
    cache.Access(0x2000, 4, AccessType::kRead); // evicts B (LRU)

    cache.Access(0x0000, 4, AccessType::kRead); // A still resident
    EXPECT_EQ(cache.stats().read_hits, 2u);
    cache.Access(0x1000, 4, AccessType::kRead); // B was evicted
    EXPECT_EQ(cache.stats().read_misses, 4u);
}

TEST(Cache, ContainsAndFlushRange)
{
    DramCounter dram(Lpddr3Config());
    Cache cache(SmallCache(), dram);

    cache.Access(0x1000, 128, AccessType::kWrite);
    EXPECT_TRUE(cache.Contains(0x1000));
    EXPECT_TRUE(cache.Contains(0x1040));
    EXPECT_FALSE(cache.Contains(0x5000));

    const auto flushed = cache.FlushRange(0x1000, 128);
    EXPECT_EQ(flushed, 2u);
    EXPECT_FALSE(cache.Contains(0x1000));
    EXPECT_EQ(cache.stats().writebacks, 2u);
}

TEST(Cache, FlushAllWritesBackOnlyDirty)
{
    DramCounter dram(Lpddr3Config());
    Cache cache(SmallCache(), dram);

    cache.Access(0x1000, 4, AccessType::kWrite);
    cache.Access(0x2000, 4, AccessType::kRead);
    dram.ResetStats();
    cache.FlushAll();
    EXPECT_EQ(dram.stats().write_bytes, 64u); // only the dirty line
    EXPECT_FALSE(cache.Contains(0x1000));
}

TEST(Cache, ZeroByteAccessIsNoop)
{
    DramCounter dram(Lpddr3Config());
    Cache cache(SmallCache(), dram);
    cache.Access(0x1000, 0, AccessType::kRead);
    EXPECT_EQ(cache.stats().Accesses(), 0u);
}

/** Property sweep: hit rate and writeback sanity across geometries. */
class CacheGeometryTest
    : public ::testing::TestWithParam<std::tuple<Bytes, std::uint32_t>>
{
};

TEST_P(CacheGeometryTest, SequentialStreamMissesOncePerLine)
{
    const auto [size, assoc] = GetParam();
    DramCounter dram(Lpddr3Config());
    Cache cache(CacheConfig{"sweep", size, assoc, 64}, dram);

    const Bytes stream = size / 2; // fits: every line misses exactly once
    for (Bytes b = 0; b < stream; b += 16) {
        cache.Access(0x100000 + b, 16, AccessType::kRead);
    }
    EXPECT_EQ(cache.stats().Misses(), stream / 64);
    // Re-stream: all hits.
    for (Bytes b = 0; b < stream; b += 16) {
        cache.Access(0x100000 + b, 16, AccessType::kRead);
    }
    EXPECT_EQ(cache.stats().Misses(), stream / 64);
    EXPECT_EQ(cache.stats().writebacks, 0u);
}

TEST_P(CacheGeometryTest, ThrashingStreamAlwaysMisses)
{
    const auto [size, assoc] = GetParam();
    DramCounter dram(Lpddr3Config());
    Cache cache(CacheConfig{"sweep", size, assoc, 64}, dram);

    // Stream 4x the capacity twice: second pass cannot hit under LRU.
    const Bytes stream = size * 4;
    for (int pass = 0; pass < 2; ++pass) {
        for (Bytes b = 0; b < stream; b += 64) {
            cache.Access(0x200000 + b, 64, AccessType::kRead);
        }
    }
    EXPECT_EQ(cache.stats().Misses(), 2 * stream / 64);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometryTest,
    ::testing::Values(std::make_tuple(Bytes{1_KiB}, 1u),
                      std::make_tuple(Bytes{4_KiB}, 2u),
                      std::make_tuple(Bytes{32_KiB}, 4u),
                      std::make_tuple(Bytes{64_KiB}, 4u),
                      std::make_tuple(Bytes{2_MiB}, 8u)));

TEST(Hierarchy, HostConfigMatchesTable1)
{
    const HierarchyConfig h = HostHierarchyConfig();
    EXPECT_EQ(h.l1.size, 64_KiB);
    EXPECT_EQ(h.l1.associativity, 4u);
    ASSERT_TRUE(h.llc.has_value());
    EXPECT_EQ(h.llc->size, 2_MiB);
    EXPECT_EQ(h.llc->associativity, 8u);
    EXPECT_DOUBLE_EQ(h.dram.bandwidth_gbps, 32.0);
}

TEST(Hierarchy, PimConfigHasNoLlc)
{
    const HierarchyConfig h = PimCoreHierarchyConfig();
    EXPECT_EQ(h.l1.size, 32_KiB);
    EXPECT_FALSE(h.llc.has_value());
    EXPECT_DOUBLE_EQ(h.dram.bandwidth_gbps, 256.0);
}

TEST(Hierarchy, MissesFilterThroughLevels)
{
    MemoryHierarchy mh(HostHierarchyConfig());
    // Touch 256 KiB: misses L1 (64 KiB) but fits LLC (2 MiB).
    for (Bytes b = 0; b < 256_KiB; b += 64) {
        mh.Top().Access(0x400000 + b, 64, AccessType::kRead);
    }
    // Second pass: hits LLC, misses L1 (capacity).
    for (Bytes b = 0; b < 256_KiB; b += 64) {
        mh.Top().Access(0x400000 + b, 64, AccessType::kRead);
    }
    const PerfCounters pc = mh.Snapshot();
    EXPECT_TRUE(pc.has_llc);
    EXPECT_EQ(pc.l1.Misses(), 2u * 256_KiB / 64);
    EXPECT_EQ(pc.llc.Misses(), 256_KiB / 64);
    EXPECT_EQ(pc.dram.read_bytes, 256_KiB);
}

TEST(Hierarchy, ResetStatsKeepsContents)
{
    MemoryHierarchy mh(HostHierarchyConfig());
    mh.Top().Access(0x1000, 64, AccessType::kRead);
    mh.ResetStats();
    mh.Top().Access(0x1000, 64, AccessType::kRead);
    const PerfCounters pc = mh.Snapshot();
    EXPECT_EQ(pc.l1.read_hits, 1u); // still cached
    EXPECT_EQ(pc.l1.read_misses, 0u);
}

TEST(Hierarchy, DrainEmptiesCaches)
{
    MemoryHierarchy mh(HostHierarchyConfig());
    mh.Top().Access(0x1000, 64, AccessType::kWrite);
    mh.Drain();
    mh.ResetStats();
    mh.Top().Access(0x1000, 64, AccessType::kRead);
    EXPECT_EQ(mh.Snapshot().l1.read_misses, 1u);
}

TEST(Hierarchy, FlushRangeSpansLevels)
{
    MemoryHierarchy mh(HostHierarchyConfig());
    mh.Top().Access(0x8000, 128, AccessType::kWrite);
    const auto flushed = mh.FlushRange(0x8000, 128);
    // Lines exist in both L1 and LLC (fill path).
    EXPECT_EQ(flushed, 4u);
}

TEST(PerfCounters, MpkiUsesLlcWhenPresent)
{
    PerfCounters pc;
    pc.has_llc = true;
    pc.llc.read_misses = 50;
    pc.l1.read_misses = 500;
    EXPECT_DOUBLE_EQ(pc.Mpki(1000), 50.0);
    pc.has_llc = false;
    EXPECT_DOUBLE_EQ(pc.Mpki(1000), 500.0);
    EXPECT_DOUBLE_EQ(pc.Mpki(0), 0.0);
}

TEST(Dram, CountsRequestsAndBytes)
{
    DramCounter dram(StackedInternalConfig());
    dram.Access(0, 64, AccessType::kRead);
    dram.Access(64, 128, AccessType::kWrite);
    EXPECT_EQ(dram.stats().read_requests, 1u);
    EXPECT_EQ(dram.stats().write_requests, 1u);
    EXPECT_EQ(dram.stats().TotalBytes(), 192u);
    EXPECT_EQ(dram.stats().TotalRequests(), 2u);
}

// ---- Set indexing: FastDiv reciprocal vs hardware modulo ----------

TEST(CacheGeometry, SetIndexMatchesModuloOnAwkwardSetCounts)
{
    // Non-power-of-two set counts take the fixed-point-reciprocal
    // path; it must agree with `%` for every probeable address.
    const std::size_t set_counts[] = {3, 5, 6, 7, 9, 12, 24,
                                      56, 96, 341, 1000};
    Rng rng(0xc0de);
    for (const std::size_t sets : set_counts) {
        const CacheConfig config{"awkward", sets * 2 * 64, 2, 64};
        const CacheGeometry geom(config);
        ASSERT_EQ(geom.num_sets, sets);
        ASSERT_FALSE(geom.pow2_sets);

        std::vector<Address> addrs = {0, 63, 64, 65,
                                      TraceEntry::kMaxAddr,
                                      TraceEntry::kMaxAddr - 64,
                                      ~Address{0}, ~Address{0} - 64};
        for (int k = 6; k < 64; k += 3) {
            addrs.push_back((Address{1} << k) - 1);
            addrs.push_back(Address{1} << k);
        }
        for (int i = 0; i < 2000; ++i) {
            addrs.push_back(rng.Next64());
        }
        for (const Address a : addrs) {
            ASSERT_EQ(geom.SetIndex(a), (a >> geom.line_shift) % sets)
                << "sets=" << sets << " addr=" << a;
        }
    }
}

// ---- Sentinel-tag regression: addresses adjacent to the caps ------

TEST(Cache, ScalarAccessAtTopOfAddressSpace)
{
    // Scalar probes accept full 64-bit addresses; the top line of the
    // address space must behave like any other (the all-ones sentinel
    // only aliases a *line address*, and the valid plane still guards
    // scalar scans).
    DramCounter dram(Lpddr3Config());
    Cache cache(SmallCache(), dram);

    const Address top_line = ~Address{0} & ~Address{63};
    cache.Access(top_line, 4, AccessType::kRead);
    EXPECT_EQ(cache.stats().read_misses, 1u);
    cache.Access(top_line + 32, 4, AccessType::kWrite);
    EXPECT_EQ(cache.stats().write_hits, 1u);
    EXPECT_TRUE(cache.Contains(top_line));
    EXPECT_FALSE(cache.Contains(top_line - 64));
}

TEST(Cache, BatchedEntriesAdjacentToMaxAddrMatchScalar)
{
    // The batched fast path tests residency by tag compare alone; that
    // is sound only because packed addresses are capped at kMaxAddr,
    // below the invalid-tag sentinel.  Replay the cap's neighborhood
    // through AccessBatch and through scalar Access: identical stats.
    const Address last_line = TraceEntry::kMaxAddr & ~Address{63};
    std::vector<TraceEntry> entries;
    for (int rep = 0; rep < 3; ++rep) {
        entries.emplace_back(last_line, 64, AccessType::kRead);
        entries.emplace_back(TraceEntry::kMaxAddr - 3, 4,
                             AccessType::kWrite);
        entries.emplace_back(last_line - 64, 64, AccessType::kRead);
        entries.emplace_back(last_line - 128, 130, AccessType::kWrite);
    }

    DramCounter dram_a(Lpddr3Config());
    Cache batched(SmallCache(), dram_a);
    batched.AccessBatch(entries.data(), entries.size());

    DramCounter dram_b(Lpddr3Config());
    Cache scalar(SmallCache(), dram_b);
    for (const TraceEntry &e : entries) {
        scalar.Access(e.addr(), e.bytes(), e.type());
    }

    EXPECT_EQ(batched.stats().read_hits, scalar.stats().read_hits);
    EXPECT_EQ(batched.stats().read_misses, scalar.stats().read_misses);
    EXPECT_EQ(batched.stats().write_hits, scalar.stats().write_hits);
    EXPECT_EQ(batched.stats().write_misses,
              scalar.stats().write_misses);
    EXPECT_EQ(batched.stats().writebacks, scalar.stats().writebacks);
    EXPECT_TRUE(batched.Contains(last_line));
    EXPECT_GT(batched.stats().Hits(), 0u);
}

// ---- Deep-way and batch-warmed probes ----------------------------

TEST(Cache, DeepWayHitsFound)
{
    // One 8-way set: re-touching all 8 residents must hit at every way
    // position.
    DramCounter dram(Lpddr3Config());
    Cache cache(CacheConfig{"one-set", 512, 8, 64}, dram);
    for (Address way = 0; way < 8; ++way) {
        cache.Access(way * 64, 4, AccessType::kRead);
    }
    EXPECT_EQ(cache.stats().read_misses, 8u);
    for (Address way = 8; way-- > 0;) {
        cache.Access(way * 64, 4, AccessType::kRead);
    }
    EXPECT_EQ(cache.stats().read_hits, 8u);
}

/** Random mixed-size streams across geometries against the oracle. */
class BatchWarmedCacheTest
    : public ::testing::TestWithParam<std::tuple<Bytes, std::uint32_t>>
{
};

TEST_P(BatchWarmedCacheTest, ScalarRepassMatchesOracle)
{
    const auto [size, assoc] = GetParam();
    const CacheConfig config{"batch-warm", size, assoc, 64};

    // Conflict-heavy stream confined to a working set a few times the
    // cache, with spans, writes, and repeats so hits land at deep ways.
    Rng rng(0xd1ce + assoc);
    std::vector<TraceEntry> entries;
    const Address span_lines = (size / 64) * 4;
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t r = rng.Next64();
        const Address addr = (r % span_lines) * 64 + ((r >> 40) & 63);
        const Bytes bytes = 1 + ((r >> 50) & 0x7F);
        entries.emplace_back(
            std::min<Address>(addr, TraceEntry::kMaxAddr - bytes),
            bytes,
            (r & 1) != 0 ? AccessType::kWrite : AccessType::kRead);
    }
    // Scalar re-pass over a prefix exercises the non-batched probe and
    // the coalescing filter against batch-warmed contents.
    constexpr std::size_t kRepass = 512;

    DramCounter dram(Lpddr3Config());
    Cache cache(config, dram);
    cache.AccessBatch(entries.data(), entries.size());
    for (std::size_t i = 0; i < kRepass; ++i) {
        cache.Access(entries[i].addr(), entries[i].bytes(),
                     entries[i].type());
    }

    DramCounter oracle_dram(Lpddr3Config());
    OracleCache oracle(config, oracle_dram);
    for (const TraceEntry &e : entries) {
        oracle.Access(e.addr(), e.bytes(), e.type());
    }
    for (std::size_t i = 0; i < kRepass; ++i) {
        oracle.Access(entries[i].addr(), entries[i].bytes(),
                      entries[i].type());
    }

    EXPECT_EQ(cache.stats().read_hits, oracle.stats().read_hits);
    EXPECT_EQ(cache.stats().read_misses, oracle.stats().read_misses);
    EXPECT_EQ(cache.stats().write_hits, oracle.stats().write_hits);
    EXPECT_EQ(cache.stats().write_misses, oracle.stats().write_misses);
    EXPECT_EQ(cache.stats().writebacks, oracle.stats().writebacks);
    EXPECT_EQ(dram.stats().read_requests,
              oracle_dram.stats().read_requests);
    EXPECT_EQ(dram.stats().write_requests,
              oracle_dram.stats().write_requests);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, BatchWarmedCacheTest,
    ::testing::Values(std::make_tuple(Bytes{1_KiB}, 1u),
                      std::make_tuple(Bytes{4_KiB}, 2u),
                      std::make_tuple(Bytes{8_KiB}, 4u),
                      std::make_tuple(Bytes{32_KiB}, 8u),
                      std::make_tuple(Bytes{64_KiB}, 16u),
                      // Non-pow2 sets: FastDiv + scalar batch path.
                      std::make_tuple(Bytes{768 * 64 * 2}, 2u)));

TEST(Dram, ConfigsAreOrdered)
{
    // The in-stack path must be faster and cheaper than off-chip.
    const DramConfig lp = Lpddr3Config();
    const DramConfig in = StackedInternalConfig();
    EXPECT_GT(in.bandwidth_gbps, lp.bandwidth_gbps);
    EXPECT_LT(in.access_latency_ns, lp.access_latency_ns);
    EXPECT_LT(in.dram_pj_per_byte + in.interconnect_pj_per_byte +
                  in.memctrl_pj_per_byte,
              lp.dram_pj_per_byte + lp.interconnect_pj_per_byte +
                  lp.memctrl_pj_per_byte);
}

} // namespace
} // namespace pim::sim
