/**
 * @file
 * Randomized property suite: every replay engine against the reference
 * cache model (tests/oracle.h).
 *
 * Each case replays the same inputs — the recorded kernel streams, a
 * seeded random stream, and two adversarial streams — through one
 * engine family, from each of the three trace forms (raw AccessTrace,
 * in-RAM CompactTrace, mmap-backed container file), and requires every
 * counter to equal the oracle's:
 *
 *   - Cache alone, scalar Access and batched AccessBatch, over
 *     power-of-two and non-power-of-two geometries;
 *   - MemoryHierarchy for the four standard HierarchyConfigs;
 *   - SweepRunner::ReplayTrace at 1, 2 and 4 threads;
 *   - the host and PIM points of two write-back SweepRunner::ProfileStudy
 *     grids at 1, 2 and 4 threads, one whose L1 replays (and the PIM
 *     passes riding them) run serially and one whose replays shard.
 *
 * The adversarial streams carry zero-byte entries, runs of 1-4 B probes
 * inside one line, spans crossing lines and sets, addresses at the top
 * of the packed 40-bit space and — in one of them — spans running past
 * TraceEntry::kMaxAddr.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/rng.h"
#include "oracle.h"
#include "replay_fixtures.h"
#include "sim/cache.h"
#include "sim/dram.h"
#include "sim/hierarchy.h"
#include "sim/sweep.h"
#include "sim/trace.h"
#include "sim/trace_codec.h"

namespace pim::sim {
namespace {

/** Field-by-field comparison naming every counter that differs. */
::testing::AssertionResult
MatchesOracle(const PerfCounters &oracle, const PerfCounters &got)
{
    std::ostringstream diff;
    const auto field = [&](const char *name, std::uint64_t want,
                           std::uint64_t have) {
        if (want != have) {
            diff << " " << name << " " << have << " (oracle " << want
                 << ")";
        }
    };
    const auto cache = [&](const char *level, const CacheStats &want,
                           const CacheStats &have) {
        const std::string l(level);
        field((l + ".read_hits").c_str(), want.read_hits, have.read_hits);
        field((l + ".read_misses").c_str(), want.read_misses,
              have.read_misses);
        field((l + ".write_hits").c_str(), want.write_hits,
              have.write_hits);
        field((l + ".write_misses").c_str(), want.write_misses,
              have.write_misses);
        field((l + ".writebacks").c_str(), want.writebacks,
              have.writebacks);
    };
    cache("l1", oracle.l1, got.l1);
    cache("llc", oracle.llc, got.llc);
    field("has_llc", oracle.has_llc, got.has_llc);
    field("dram.read_requests", oracle.dram.read_requests,
          got.dram.read_requests);
    field("dram.write_requests", oracle.dram.write_requests,
          got.dram.write_requests);
    field("dram.read_bytes", oracle.dram.read_bytes, got.dram.read_bytes);
    field("dram.write_bytes", oracle.dram.write_bytes,
          got.dram.write_bytes);
    if (diff.str().empty()) {
        return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure() << "differs:" << diff.str();
}

/**
 * Corner-case stream: 5% zero-byte entries, 35% sequential 1-4 B
 * probes (same-line runs), 10% 65 B - 4 KiB spans crossing lines and
 * sets, 10% accesses in the top 64 KiB of the packed address space,
 * and the rest 1-128 B reuse over a 128 KiB window; 35% writes.  With
 * @p past_max_addr some top-of-space spans run past
 * TraceEntry::kMaxAddr; without it every span ends at or below it.
 */
AccessTrace
AdversarialTrace(std::uint64_t seed, std::size_t entries,
                 bool past_max_addr)
{
    constexpr Address kBase = 0x20'0000;
    Rng rng(seed);
    AccessTrace trace;
    Address cursor = kBase;
    for (std::size_t i = 0; i < entries; ++i) {
        const std::int64_t kind = rng.Range(0, 99);
        Address addr;
        Bytes bytes;
        if (kind < 5) {
            addr = kBase + static_cast<Address>(rng.Range(0, 1 << 20));
            bytes = 0;
        } else if (kind < 40) {
            addr = cursor;
            bytes = static_cast<Bytes>(rng.Range(1, 4));
            cursor += bytes;
        } else if (kind < 50) {
            addr = kBase + static_cast<Address>(rng.Range(0, 256 * 1024));
            bytes = static_cast<Bytes>(rng.Range(65, 4096));
        } else if (kind < 60) {
            addr = TraceEntry::kMaxAddr -
                   static_cast<Address>(rng.Range(0, 64 * 1024 - 1));
            bytes = static_cast<Bytes>(rng.Range(1, 512));
            if (!past_max_addr) {
                bytes = std::min<Bytes>(bytes,
                                        TraceEntry::kMaxAddr - addr + 1);
            }
        } else {
            addr = kBase + static_cast<Address>(rng.Range(0, 128 * 1024));
            bytes = static_cast<Bytes>(rng.Range(1, 128));
        }
        trace.Append(addr, bytes,
                     rng.Range(0, 99) < 35 ? AccessType::kWrite
                                           : AccessType::kRead);
    }
    return trace;
}

/** One input stream in all three trace forms. */
struct Input
{
    std::string name;
    AccessTrace raw;
    CompactTrace compact;
    std::optional<MappedCompactTrace> mapped;
};

/** Build every input; the container files are unlinked once mapped. */
void
BuildInputs(std::vector<Input> *inputs)
{
    std::vector<std::pair<std::string, AccessTrace>> streams;
    for (auto &[name, trace] : KernelTraces()) {
        streams.emplace_back(name, std::move(trace));
    }
    streams.emplace_back("random", RandomTrace(0xBEEF, 20000));
    streams.emplace_back("adversarial", AdversarialTrace(0xAD7, 8000, false));
    streams.emplace_back("past-max-addr",
                         AdversarialTrace(0x70F, 8000, true));

    inputs->resize(streams.size());
    for (std::size_t i = 0; i < streams.size(); ++i) {
        Input &in = (*inputs)[i];
        in.name = streams[i].first;
        in.raw = std::move(streams[i].second);
        in.compact = CompactTrace::Encode(in.raw);
        const std::string path = ::testing::TempDir() + "pim_oracle_" +
                                 std::to_string(::getpid()) + "_" +
                                 in.name + ".ctrace";
        std::string error;
        ASSERT_TRUE(in.compact.SaveTo(path, &error)) << error;
        in.mapped = MappedCompactTrace::Open(
            path, &error, MappedCompactTrace::Verify::kEager);
        std::remove(path.c_str());
        ASSERT_TRUE(in.mapped.has_value()) << error;
    }
}

/** Call @p fn(form name, source) for the raw, compact and mapped forms. */
template <typename Fn>
void
ForEachForm(const Input &in, const Fn &fn)
{
    const AccessTraceSource raw(in.raw);
    const CompactTraceSource compact(in.compact);
    fn("raw", raw);
    fn("compact", compact);
    fn("mapped", *in.mapped);
}

/**
 * Presents a sink through scalar Access only: MemorySink's default
 * AccessBatch unrolls each batch into per-entry calls, so any trace
 * form replays through the wrapped sink's scalar path.
 */
class ScalarPort final : public MemorySink
{
  public:
    explicit ScalarPort(MemorySink &sink) : sink_(sink) {}

    void
    Access(Address addr, Bytes bytes, AccessType type) override
    {
        sink_.Access(addr, bytes, type);
    }

  private:
    MemorySink &sink_;
};

PerfCounters
OracleReplay(const AccessTrace &trace, const HierarchyConfig &config)
{
    OracleHierarchy oracle(config);
    trace.ReplayIntoScalar(oracle.Top());
    return oracle.Snapshot();
}

/**
 * Cache geometries for the single-level case (the standard L1 and LLC
 * shapes run in HierarchiesMatchOracle): single-set, direct-mapped,
 * 16-way, non-power-of-two set counts and associativities, 16-128 B
 * lines, plus seeded random ones.
 */
std::vector<CacheConfig>
CacheGeometries()
{
    std::vector<CacheConfig> geoms = {
        {"np2-3set", 3 * 2 * 64, 2, 64},
        {"np2-768set", 768 * 2 * 64, 2, 64},
        {"one-set", 512, 8, 64},
        {"direct", 1_KiB, 1, 64},
        {"deep", 64_KiB, 16, 64},
        {"np2-assoc", 7 * 3 * 32, 3, 32},
        {"line16", 2_KiB, 4, 16},
        {"line128", 48 * 4 * 128, 4, 128},
    };
    Rng rng(0x0AC1E);
    const std::size_t set_choices[] = {1, 2, 5, 16, 48, 100, 256};
    for (int g = 0; g < 2; ++g) {
        const Bytes line = Bytes{16} << rng.Range(0, 3);
        const std::size_t sets = set_choices[rng.Range(0, 6)];
        const auto assoc = static_cast<std::uint32_t>(rng.Range(1, 12));
        geoms.push_back(CacheConfig{"random-" + std::to_string(g),
                                    sets * assoc * line, assoc, line});
    }
    return geoms;
}

TEST(OracleProperty, CacheScalarAndBatchedMatchOracle)
{
    std::vector<Input> inputs;
    ASSERT_NO_FATAL_FAILURE(BuildInputs(&inputs));
    for (const CacheConfig &geom : CacheGeometries()) {
        HierarchyConfig one_level;
        one_level.l1 = geom;
        one_level.dram = Lpddr3Config();
        for (const Input &in : inputs) {
            const PerfCounters want = OracleReplay(in.raw, one_level);
            ForEachForm(in, [&](const char *form, const TraceSource &src) {
                for (const bool batched : {false, true}) {
                    DramCounter dram(one_level.dram);
                    Cache cache(geom, dram);
                    ScalarPort scalar(cache);
                    src.ReplayInto(batched ? static_cast<MemorySink &>(cache)
                                           : scalar);
                    PerfCounters got;
                    got.l1 = cache.stats();
                    got.dram = dram.stats();
                    EXPECT_TRUE(MatchesOracle(want, got))
                        << geom.name << " " << in.name << " via " << form
                        << (batched ? " batched" : " scalar");
                }
            });
        }
    }
}

TEST(OracleProperty, HierarchiesMatchOracle)
{
    std::vector<Input> inputs;
    ASSERT_NO_FATAL_FAILURE(BuildInputs(&inputs));
    for (const HierarchyConfig &config :
         {HostHierarchyConfig(), HostStackedHierarchyConfig(),
          PimCoreHierarchyConfig(), PimAccelHierarchyConfig()}) {
        for (const Input &in : inputs) {
            const PerfCounters want = OracleReplay(in.raw, config);
            ForEachForm(in, [&](const char *form, const TraceSource &src) {
                for (const bool batched : {false, true}) {
                    MemoryHierarchy mh(config);
                    ScalarPort scalar(mh.Top());
                    src.ReplayInto(batched ? mh.Top() : scalar);
                    EXPECT_TRUE(MatchesOracle(want, mh.Snapshot()))
                        << config.name << " " << in.name << " via " << form
                        << (batched ? " batched" : " scalar");
                }
            });
        }
    }
}

TEST(OracleProperty, ReplayTraceMatchesOracleAtEveryThreadCount)
{
    std::vector<Input> inputs;
    ASSERT_NO_FATAL_FAILURE(BuildInputs(&inputs));
    std::vector<HierarchyConfig> configs = {
        HostHierarchyConfig(), HostStackedHierarchyConfig(),
        PimCoreHierarchyConfig(), PimAccelHierarchyConfig()};
    HierarchyConfig np2_llc = HostHierarchyConfig();
    np2_llc.llc = CacheConfig{"llc-1536set", 1536 * 8 * 64, 8, 64};
    configs.push_back(np2_llc);
    HierarchyConfig np2_l1 = HostHierarchyConfig();
    np2_l1.l1 = CacheConfig{"l1-48set", 48 * 4 * 64, 4, 64};
    configs.push_back(np2_l1);

    for (const Input &in : inputs) {
        std::vector<PerfCounters> want;
        for (const HierarchyConfig &config : configs) {
            want.push_back(OracleReplay(in.raw, config));
        }
        ForEachForm(in, [&](const char *form, const TraceSource &src) {
            for (const unsigned threads : {1u, 2u, 4u}) {
                const std::vector<PerfCounters> got =
                    SweepRunner(threads).ReplayTrace(src, configs);
                ASSERT_EQ(got.size(), configs.size());
                for (std::size_t c = 0; c < configs.size(); ++c) {
                    EXPECT_TRUE(MatchesOracle(want[c], got[c]))
                        << in.name << " via " << form << " config " << c
                        << " threads " << threads;
                }
            }
        });
    }
}

/**
 * Every host and PIM point of @p spec, from every input form at 1, 2
 * and 4 threads, against the oracle.  With @p expect_sharded the
 * multi-threaded studies must have set-sharded (except on the stream
 * that spans past kMaxAddr, where every pass falls back to serial);
 * without it every study must have run its passes serially.
 */
void
CheckStudyAgainstOracle(const std::vector<Input> &inputs,
                        const StudySpec &spec, bool expect_sharded)
{
    for (const Input &in : inputs) {
        std::vector<std::vector<PerfCounters>> want_host;
        for (const CacheConfig &l1 : spec.l1_points) {
            want_host.emplace_back();
            for (const CacheConfig &llc : spec.llc_points) {
                HierarchyConfig h;
                h.l1 = l1;
                h.llc = llc;
                h.dram = spec.dram;
                want_host.back().push_back(OracleReplay(in.raw, h));
            }
        }
        std::vector<PerfCounters> want_pim;
        for (const StudyPimPoint &p : spec.pim_points) {
            HierarchyConfig h;
            h.l1 = p.l1;
            h.dram = p.dram;
            want_pim.push_back(OracleReplay(in.raw, h));
        }

        ForEachForm(in, [&](const char *form, const TraceSource &src) {
            for (const unsigned threads : {1u, 2u, 4u}) {
                const StudyResult study =
                    SweepRunner(threads).ProfileStudy(src, spec);
                const std::string tag = in.name + " via " + form +
                                        " threads " +
                                        std::to_string(threads);
                ASSERT_EQ(study.host.size(), spec.l1_points.size()) << tag;
                for (std::size_t i = 0; i < spec.l1_points.size(); ++i) {
                    ASSERT_EQ(study.host[i].size(), spec.llc_points.size());
                    for (std::size_t j = 0; j < spec.llc_points.size(); ++j) {
                        EXPECT_TRUE(study.host[i][j].writebacks_exact)
                            << tag << " l1 " << i << " llc " << j;
                        EXPECT_TRUE(MatchesOracle(want_host[i][j],
                                                  study.host[i][j].counters))
                            << tag << " l1 " << i << " llc " << j;
                    }
                }
                ASSERT_EQ(study.pim.size(), want_pim.size()) << tag;
                for (std::size_t j = 0; j < want_pim.size(); ++j) {
                    EXPECT_TRUE(MatchesOracle(want_pim[j],
                                              study.pim[j].counters))
                        << tag << " pim " << j;
                }
                // The PIM passes ride the L1 replays: one per L1.
                EXPECT_EQ(study.trace_replays, spec.l1_points.size())
                    << tag;
                EXPECT_EQ(study.shards > 1, expect_sharded &&
                                                threads > 1 &&
                                                in.name != "past-max-addr")
                    << tag << " shards " << study.shards;
            }
        });
    }
}

/** Both PIM targets as raw-trace study points. */
std::vector<StudyPimPoint>
BothPimPoints()
{
    std::vector<StudyPimPoint> points;
    for (const HierarchyConfig &pim :
         {PimCoreHierarchyConfig(), PimAccelHierarchyConfig()}) {
        points.push_back(StudyPimPoint{pim.name, pim.l1, pim.dram});
    }
    return points;
}

TEST(OracleProperty, WriteBackStudyPointsMatchOracle)
{
    std::vector<Input> inputs;
    ASSERT_NO_FATAL_FAILURE(BuildInputs(&inputs));
    const HierarchyConfig host = HostHierarchyConfig();

    // Serial jobs: two L1s (one with a non-power-of-two set count) over
    // an associativity ladder at 1024 sets, one 4096-set point and one
    // 1536-set point.  The 1536-set group gives no job a shard key, so
    // both PIM targets ride serial L1 replays.
    StudySpec serial;
    serial.dram = host.dram;
    serial.l1_points = {host.l1,
                        CacheConfig{"l1-96set", 96 * 4 * 64, 4, 64}};
    for (const std::uint32_t assoc : {1u, 2u, 3u, 4u, 8u, 16u}) {
        serial.llc_points.push_back(
            CacheConfig{"llc", 1024 * assoc * 64, assoc, 64});
    }
    serial.llc_points.push_back(CacheConfig{"llc", 2_MiB, 8, 64});
    serial.llc_points.push_back(CacheConfig{"llc", 1536 * 4 * 64, 4, 64});
    serial.pim_points = BothPimPoints();
    CheckStudyAgainstOracle(inputs, serial, false);

    // Sharded jobs: every geometry a power of two, so each L1 replay
    // set-shards with its riding PIM target.
    StudySpec sharded;
    sharded.dram = host.dram;
    sharded.l1_points = {host.l1,
                         CacheConfig{"l1-128set", 128 * 4 * 64, 4, 64}};
    for (const std::uint32_t assoc : {1u, 3u, 16u}) {
        sharded.llc_points.push_back(
            CacheConfig{"llc", 1024 * assoc * 64, assoc, 64});
    }
    sharded.llc_points.push_back(CacheConfig{"llc", 2_MiB, 8, 64});
    sharded.pim_points = BothPimPoints();
    CheckStudyAgainstOracle(inputs, sharded, true);
}

} // namespace
} // namespace pim::sim
