/**
 * @file
 * Unit tests for src/common: types, RNG, stats, tables, buffers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/digest.h"
#include "common/env.h"
#include "common/fastdiv.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/types.h"

namespace pim {
namespace {

TEST(Types, UnitLiterals)
{
    EXPECT_EQ(1_KiB, 1024u);
    EXPECT_EQ(2_MiB, 2u * 1024 * 1024);
    EXPECT_EQ(1_GiB, 1024ull * 1024 * 1024);
}

TEST(Types, LineAlign)
{
    EXPECT_EQ(LineAlign(0), 0u);
    EXPECT_EQ(LineAlign(63), 0u);
    EXPECT_EQ(LineAlign(64), 64u);
    EXPECT_EQ(LineAlign(130), 128u);
}

TEST(Types, LinesSpanned)
{
    EXPECT_EQ(LinesSpanned(0, 0), 0u);
    EXPECT_EQ(LinesSpanned(0, 1), 1u);
    EXPECT_EQ(LinesSpanned(0, 64), 1u);
    EXPECT_EQ(LinesSpanned(0, 65), 2u);
    EXPECT_EQ(LinesSpanned(63, 2), 2u);
    EXPECT_EQ(LinesSpanned(64, 64), 1u);
    EXPECT_EQ(LinesSpanned(10, 128), 3u);
}

TEST(Types, CyclesToNs)
{
    EXPECT_DOUBLE_EQ(CyclesToNs(2000, 2.0), 1000.0);
    EXPECT_DOUBLE_EQ(CyclesToNs(0, 1.0), 0.0);
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.Next64(), b.Next64());
    }
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        same += a.Next64() == b.Next64() ? 1 : 0;
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, RangeIsInclusive)
{
    Rng rng(7);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.Range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u); // all values hit
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.NextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, ChanceRoughlyCalibrated)
{
    Rng rng(13);
    int hits = 0;
    const int trials = 10000;
    for (int i = 0; i < trials; ++i) {
        hits += rng.Chance(0.25) ? 1 : 0;
    }
    EXPECT_NEAR(static_cast<double>(hits) / trials, 0.25, 0.03);
}

TEST(Table, TextOutputHasHeaderAndRows)
{
    Table t("Demo");
    t.SetHeader({"name", "value"});
    t.AddRow({"alpha", Table::Num(1.234, 2)});
    t.AddRow({"beta", Table::Pct(0.5)});
    const std::string text = t.ToText();
    EXPECT_NE(text.find("Demo"), std::string::npos);
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("1.23"), std::string::npos);
    EXPECT_NE(text.find("50.0%"), std::string::npos);
}

TEST(Table, CsvOutput)
{
    Table t("T");
    t.SetHeader({"a", "b"});
    t.AddRow({"1", "2"});
    EXPECT_EQ(t.ToCsv(), "a,b\n1,2\n");
}

TEST(SimBuffer, DisjointAddressRanges)
{
    SimBuffer<std::uint8_t> a(100);
    SimBuffer<std::uint8_t> b(100);
    // Ranges must not overlap.
    const bool disjoint = a.sim_base() + 100 <= b.sim_base() ||
                          b.sim_base() + 100 <= a.sim_base();
    EXPECT_TRUE(disjoint);
}

TEST(SimBuffer, SimAddrScalesWithElementSize)
{
    SimBuffer<std::uint32_t> buf(16);
    EXPECT_EQ(buf.SimAddr(0), buf.sim_base());
    EXPECT_EQ(buf.SimAddr(4), buf.sim_base() + 16);
    EXPECT_EQ(buf.size_bytes(), 64u);
}

TEST(SimBuffer, LineAlignedBase)
{
    SimBuffer<std::uint8_t> buf(10);
    EXPECT_EQ(buf.sim_base() % kCacheLineBytes, 0u);
}

// FastDiv must be exact for every 64-bit numerator — it replaces `/`
// and `%` on the set-index hot path, where a single wrong quotient
// silently corrupts counters.  Exercise all three strategies (shift,
// magic, magic-with-add) at their boundary numerators.

/** Check Div/Mod against the hardware operators for one (n, d). */
void
ExpectFastDivExact(const FastDiv &fd, std::uint64_t n, std::uint64_t d)
{
    ASSERT_EQ(fd.Div(n), n / d) << "n=" << n << " d=" << d;
    ASSERT_EQ(fd.Mod(n), n % d) << "n=" << n << " d=" << d;
}

TEST(FastDiv, MatchesHardwareDivideOnBoundaryNumerators)
{
    // Divisors chosen to hit every strategy: powers of two (shift),
    // small odds (single magic), and divisors known to need the 65-bit
    // magic fixup path (e.g. 7, and large d near 2^63).
    const std::uint64_t divisors[] = {
        1,  2,  3,  4,   5,   6,   7,    9,    10,        12,
        24, 48, 56, 341, 641, 941, 1000, 4096, 104729,
        (1ull << 32) - 1, (1ull << 32) + 1, (1ull << 63) - 25,
        (1ull << 63), ~0ull - 1, ~0ull};
    for (const std::uint64_t d : divisors) {
        const FastDiv fd(d);
        // Boundary numerators: around multiples of d, around powers of
        // two, and the extremes of the 64-bit range.
        std::vector<std::uint64_t> ns = {0, 1, d - 1, d, d + 1,
                                         ~0ull, ~0ull - 1};
        for (int k = 1; k < 64; ++k) {
            const std::uint64_t p = 1ull << k;
            ns.push_back(p - 1);
            ns.push_back(p);
            ns.push_back(p + 1);
        }
        for (int m = 1; m <= 5; ++m) {
            const std::uint64_t mult = d * static_cast<std::uint64_t>(m);
            ns.push_back(mult - 1);
            ns.push_back(mult);
            ns.push_back(mult + 1);
        }
        for (const std::uint64_t n : ns) {
            ExpectFastDivExact(fd, n, d);
        }
    }
}

TEST(FastDiv, MatchesHardwareDivideOnRandomPairs)
{
    Rng rng(0x5e7d1f);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t d = rng.Next64() | 1; // never zero
        const FastDiv fd(d);
        ExpectFastDivExact(fd, rng.Next64(), d);
        // Small divisors stress the magic-add path hardest.
        const std::uint64_t small = (rng.Next64() % 1000) + 1;
        const FastDiv fs(small);
        ExpectFastDivExact(fs, rng.Next64(), small);
    }
}

TEST(FastDiv, DefaultIsDivideByOne)
{
    const FastDiv fd;
    EXPECT_EQ(fd.Div(12345u), 12345u);
    EXPECT_EQ(fd.Mod(12345u), 0u);
}

TEST(ContentDigest, MatchesPublishedFnv1aVectors)
{
    // Reference vectors from the FNV specification.
    EXPECT_EQ(ContentDigest().value(), ContentDigest::kOffsetBasis);
    EXPECT_EQ(ContentDigest().Update("").value(),
              0xcbf29ce484222325ULL);
    EXPECT_EQ(ContentDigest().Update("a").value(),
              0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(ContentDigest().Update("foobar").value(),
              0x85944171f73967e8ULL);
}

TEST(ContentDigest, ChunkingDoesNotChangeTheDigest)
{
    Rng rng(0xD16E57);
    std::vector<unsigned char> bytes(10000);
    for (auto &b : bytes) {
        b = static_cast<unsigned char>(rng.Range(0, 255));
    }
    const std::uint64_t oneshot =
        ContentDigest::HashBytes(bytes.data(), bytes.size());

    // Feed the same stream in adversarial chunkings: byte-at-a-time,
    // random splits, and mixed Update overloads.
    ContentDigest bytewise;
    for (const unsigned char b : bytes) {
        bytewise.Update(&b, 1);
    }
    EXPECT_EQ(bytewise.value(), oneshot);

    ContentDigest random_chunks;
    std::size_t pos = 0;
    while (pos < bytes.size()) {
        const std::size_t n = std::min<std::size_t>(
            bytes.size() - pos, rng.Range(1, 257));
        random_chunks.Update(bytes.data() + pos, n);
        pos += n;
    }
    EXPECT_EQ(random_chunks.value(), oneshot);
}

TEST(ContentDigest, UpdateU64IsExplicitLittleEndianBytes)
{
    const std::uint64_t v = 0x0123456789abcdefULL;
    const unsigned char le[8] = {0xef, 0xcd, 0xab, 0x89,
                                 0x67, 0x45, 0x23, 0x01};
    EXPECT_EQ(ContentDigest().UpdateU64(v).value(),
              ContentDigest().Update(le, sizeof(le)).value());
    // Width is fixed: a small value still absorbs 8 bytes, so
    // adjacent fields cannot alias across a boundary.
    EXPECT_NE(ContentDigest().UpdateU64(1).value(),
              ContentDigest().Update("\x01", 1).value());
}

TEST(ContentDigest, BoundaryInputsStayDistinct)
{
    // Collision sanity over the kinds of nearly-identical inputs the
    // corpus actually produces: same lengths, one-bit/one-byte edits,
    // swapped field order.  FNV-1a is not collision-proof, but these
    // must never collide.
    std::set<std::uint64_t> seen;
    const auto insert_unique = [&](std::uint64_t d) {
        EXPECT_TRUE(seen.insert(d).second) << "digest collision";
    };
    insert_unique(ContentDigest().value());
    insert_unique(ContentDigest().Update("\0", 1).value());
    insert_unique(ContentDigest().Update("\0\0", 2).value());
    insert_unique(ContentDigest().Update("ab").value());
    insert_unique(ContentDigest().Update("ba").value());
    for (std::uint64_t i = 0; i < 4096; ++i) {
        insert_unique(ContentDigest().UpdateU64(i).value());
    }
    insert_unique(
        ContentDigest().UpdateU64(1).UpdateU64(2).value());
    insert_unique(
        ContentDigest().UpdateU64(2).UpdateU64(1).value());
}

TEST(ContentDigest, HexIsFixedWidthLowercase)
{
    EXPECT_EQ(ContentDigest::ToHex(0), "0000000000000000");
    EXPECT_EQ(ContentDigest::ToHex(0xABCULL), "0000000000000abc");
    EXPECT_EQ(ContentDigest::ToHex(~0ULL), "ffffffffffffffff");
    const ContentDigest d;
    EXPECT_EQ(d.Hex(), ContentDigest::ToHex(d.value()));
}

/** Captures PIM_WARN output for the duration of a scope. */
class WarnCapture
{
  public:
    WarnCapture() { SetWarnCapture(&messages_); }
    ~WarnCapture() { SetWarnCapture(nullptr); }
    const std::vector<std::string> &messages() const
    {
        return messages_;
    }

  private:
    std::vector<std::string> messages_;
};

TEST(Env, SwitchAcceptsDocumentedSpellingsSilently)
{
    WarnCapture warns;
    for (const char *v : {"on", "1", "true", "yes"}) {
        EXPECT_TRUE(ParseSwitchValue("PIM_SHARD_PASS", v, false)) << v;
    }
    for (const char *v : {"off", "0", "false", "no"}) {
        EXPECT_FALSE(ParseSwitchValue("PIM_SHARD_PASS", v, true)) << v;
    }
    // Unset (nullptr or empty) means "use the default", silently.
    EXPECT_TRUE(ParseSwitchValue("PIM_SHARD_PASS", nullptr, true));
    EXPECT_FALSE(ParseSwitchValue("PIM_SHARD_PASS", "", false));
    EXPECT_TRUE(warns.messages().empty());
}

TEST(Env, MalformedSwitchWarnsWithValueAndFallback)
{
    WarnCapture warns;
    // The regression this pins: "ON" (wrong case) used to silently
    // disable the switch.  Now it keeps the fallback and says so.
    EXPECT_TRUE(ParseSwitchValue("PIM_SHARD_PASS", "ON", true));
    ASSERT_EQ(warns.messages().size(), 1u);
    const std::string &msg = warns.messages()[0];
    EXPECT_NE(msg.find("PIM_SHARD_PASS"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'ON'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("keeping enabled"), std::string::npos) << msg;

    EXPECT_FALSE(ParseSwitchValue("PIM_SHARD_PASS", "enabled", false));
    ASSERT_EQ(warns.messages().size(), 2u);
    EXPECT_NE(warns.messages()[1].find("PIM_SHARD_PASS"), std::string::npos);
    EXPECT_NE(warns.messages()[1].find("'enabled'"),
              std::string::npos);
    EXPECT_NE(warns.messages()[1].find("keeping disabled"),
              std::string::npos);
}

TEST(Env, ThreadsParsesInRangeAndWarnsOtherwise)
{
    WarnCapture warns;
    EXPECT_EQ(ParseThreadsValue("PIM_SWEEP_THREADS", "8"), 8u);
    EXPECT_EQ(ParseThreadsValue("PIM_SWEEP_THREADS", "1"), 1u);
    EXPECT_EQ(ParseThreadsValue("PIM_SWEEP_THREADS", nullptr), 0u);
    EXPECT_EQ(ParseThreadsValue("PIM_SWEEP_THREADS", ""), 0u);
    EXPECT_TRUE(warns.messages().empty());

    // Malformed, zero, negative, trailing junk, out of range: all
    // fall back to auto (0) with one warning each naming the value.
    const char *bad[] = {"zero", "0", "-3", "8x", "1e3", "5000"};
    for (const char *v : bad) {
        EXPECT_EQ(ParseThreadsValue("PIM_SWEEP_THREADS", v), 0u) << v;
    }
    ASSERT_EQ(warns.messages().size(), std::size(bad));
    for (std::size_t i = 0; i < std::size(bad); ++i) {
        const std::string &msg = warns.messages()[i];
        EXPECT_NE(msg.find("PIM_SWEEP_THREADS"), std::string::npos);
        EXPECT_NE(msg.find("'" + std::string(bad[i]) + "'"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("hardware concurrency"), std::string::npos);
    }
}

TEST(Env, EnvSwitchReadsTheProcessEnvironment)
{
    WarnCapture warns;
    ::setenv("PIM_TEST_SWITCH", "off", 1);
    EXPECT_FALSE(EnvSwitch("PIM_TEST_SWITCH", true));
    ::setenv("PIM_TEST_SWITCH", "garbage", 1);
    EXPECT_TRUE(EnvSwitch("PIM_TEST_SWITCH", true));
    EXPECT_EQ(warns.messages().size(), 1u);
    ::unsetenv("PIM_TEST_SWITCH");
    EXPECT_FALSE(EnvSwitch("PIM_TEST_SWITCH", false));
    EXPECT_EQ(warns.messages().size(), 1u);
}

TEST(Logging, WarnOnceEmitsExactlyOncePerKey)
{
    WarnCapture warns;
    // Fresh keys (never used elsewhere in the process) so the counts
    // below are deterministic whatever ran before this test.
    for (int i = 0; i < 5; ++i) {
        PIM_WARN_ONCE("test.warn_once.key_a", "key a fired (%d)", i);
    }
    PIM_WARN_ONCE("test.warn_once.key_b", "key b fired");
    PIM_WARN_ONCE("test.warn_once.key_b", "key b fired again");
    ASSERT_EQ(warns.messages().size(), 2u);
    EXPECT_NE(warns.messages()[0].find("key a fired (0)"),
              std::string::npos);
    EXPECT_NE(warns.messages()[1].find("key b fired"),
              std::string::npos);
}

TEST(Logging, FirstOccurrenceIsProcessWidePerKey)
{
    EXPECT_TRUE(FirstOccurrence("test.first_occurrence.fresh"));
    EXPECT_FALSE(FirstOccurrence("test.first_occurrence.fresh"));
    // Distinct keys are independent.
    EXPECT_TRUE(FirstOccurrence("test.first_occurrence.other"));
}

} // namespace
} // namespace pim
