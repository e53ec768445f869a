/**
 * @file
 * Tests for the compact block-encoded trace format: exact round-trips
 * (including packing-limit boundary entries), run-length behavior on
 * strided streams, block independence, the recorder tee, and replay
 * equivalence against the raw trace through a full hierarchy; and the
 * raw trace itself (recording, replay, attaching to a context).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/buffer.h"
#include "common/rng.h"
#include "core/execution_context.h"
#include "core/kernel_registry.h"
#include "sim/hierarchy.h"
#include "sim/trace.h"
#include "sim/trace_codec.h"
#include "telemetry/span_tracer.h"
#include "workloads/browser/texture_tiler.h"
#include "replay_fixtures.h"

namespace pim::sim {
namespace {

void
ExpectSameEntries(const AccessTrace &a, const AccessTrace &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].addr(), b[i].addr()) << "entry " << i;
        ASSERT_EQ(a[i].bytes(), b[i].bytes()) << "entry " << i;
        ASSERT_EQ(a[i].type(), b[i].type()) << "entry " << i;
    }
}

TEST(TraceCodec, RoundTripsRandomMultiBlockTrace)
{
    // > 2 full blocks so cross-block context resets are exercised.
    const AccessTrace raw =
        RandomTrace(0xC0DEC, 2 * CompactTrace::kBlockEntries + 1234);
    const CompactTrace compact = CompactTrace::Encode(raw);

    EXPECT_EQ(compact.size(), raw.size());
    EXPECT_EQ(compact.BlockCount(), 3u);
    EXPECT_EQ(compact.read_bytes(), raw.read_bytes());
    EXPECT_EQ(compact.write_bytes(), raw.write_bytes());
    EXPECT_EQ(compact.TotalBytes(), raw.TotalBytes());
    ExpectSameEntries(raw, compact.Decode());
}

TEST(TraceCodec, RoundTripsPackingBoundaryEntries)
{
    // The extremes the packed TraceEntry word can represent: top of
    // the 40-bit address space, the 23-bit size limit, zero-size and
    // zero-address probes, and huge backward deltas between them.
    AccessTrace raw;
    raw.Append(TraceEntry::kMaxAddr, 1, AccessType::kRead);
    raw.Append(0, TraceEntry::kMaxBytes, AccessType::kWrite);
    raw.Append(TraceEntry::kMaxAddr - TraceEntry::kMaxBytes + 1,
               TraceEntry::kMaxBytes, AccessType::kRead);
    raw.Append(0, 0, AccessType::kRead);
    raw.Append(TraceEntry::kMaxAddr, 0, AccessType::kWrite);
    for (int i = 0; i < 100; ++i) {
        raw.Append(i % 2 == 0 ? 0 : TraceEntry::kMaxAddr, 14,
                   i % 3 == 0 ? AccessType::kWrite : AccessType::kRead);
        raw.Append(static_cast<Address>(i) * 4096, 15,
                   AccessType::kRead);
    }

    const CompactTrace compact = CompactTrace::Encode(raw);
    EXPECT_EQ(compact.TotalBytes(), raw.TotalBytes());
    ExpectSameEntries(raw, compact.Decode());
}

TEST(TraceCodec, InterleavedStridedStreamsCostOneByteEach)
{
    // Interleaved read/write streams, each constant-stride and
    // constant-size — the texture-tiler shape.  The type alternation
    // blocks run formation, but per-type contexts keep both delta and
    // size predicted, so each entry is a single literal header byte.
    AccessTrace raw;
    for (std::size_t i = 0; i < 20000; ++i) {
        raw.Append(0x100000 + i * 128, 128, AccessType::kRead);
        raw.Append(0x900000 + i * 64, 64, AccessType::kWrite);
    }
    const CompactTrace compact = CompactTrace::Encode(raw);

    ExpectSameEntries(raw, compact.Decode());
    // Acceptance bound is <= 4.0 B/entry (half of raw); ~1 B/entry
    // here (plus per-block literal/index overhead).
    EXPECT_LE(compact.BytesPerEntry(), 1.1);
    EXPECT_GE(compact.CompressionRatio(), 7.0);
}

TEST(TraceCodec, RecordedLzoStreamRoundTripsUnderFourBytesPerEntry)
{
    // The fine-grained end of the kernel spectrum: LZO compression's
    // 1-4 B probes, whose deltas and sizes vary entry to entry, must
    // still round-trip exactly within the codec's 4.0 B/entry target.
    const AccessTrace raw = RecordLzoTrace();
    const CompactTrace compact = CompactTrace::Encode(raw);
    ExpectSameEntries(raw, compact.Decode());
    EXPECT_LE(compact.BytesPerEntry(), 4.0);
}

TEST(TraceCodec, LongRunsUseTheVarintCountPath)
{
    // One literal + one run token of count > 63 per block.
    AccessTrace raw;
    for (std::size_t i = 0; i < 5000; ++i) {
        raw.Append(0x4000 + i * 64, 64, AccessType::kRead);
    }
    const CompactTrace compact = CompactTrace::Encode(raw);
    ExpectSameEntries(raw, compact.Decode());
    // Two blocks, each a handful of literal/run tokens: 5000 entries
    // in well under 100 encoded bytes.
    EXPECT_LT(compact.SizeBytes(), 100u);
}

TEST(TraceCodec, EmptyTraceIsEmpty)
{
    const CompactTrace compact = CompactTrace::Encode(AccessTrace{});
    EXPECT_TRUE(compact.empty());
    EXPECT_EQ(compact.size(), 0u);
    EXPECT_EQ(compact.BlockCount(), 0u);
    EXPECT_EQ(compact.TotalBytes(), 0u);
    EXPECT_TRUE(compact.Decode().empty());

    MemoryHierarchy mh(HostHierarchyConfig());
    compact.ReplayInto(mh.Top()); // must be a no-op, not a crash
    EXPECT_EQ(mh.Snapshot().dram.TotalBytes(), 0u);
}

TEST(TraceCodec, BlocksDecodeIndependently)
{
    const AccessTrace raw =
        RandomTrace(0xB10C, 3 * CompactTrace::kBlockEntries + 7);
    const CompactTrace compact = CompactTrace::Encode(raw);
    ASSERT_EQ(compact.BlockCount(), 4u);

    // Decode blocks out of order; concatenating in index order must
    // reproduce the stream exactly.
    std::vector<TraceEntry> buffer(CompactTrace::kBlockEntries);
    AccessTrace rebuilt;
    std::size_t counts[4] = {};
    for (const std::size_t b : {3u, 1u, 0u, 2u}) {
        counts[b] = compact.DecodeBlock(b, buffer.data());
    }
    for (std::size_t b = 0; b < compact.BlockCount(); ++b) {
        const std::size_t n = compact.DecodeBlock(b, buffer.data());
        ASSERT_EQ(n, counts[b]);
        rebuilt.Append(buffer.data(), n);
    }
    ExpectSameEntries(raw, rebuilt);
}

TEST(TraceCodec, ReplayMatchesRawTraceCounters)
{
    const AccessTrace raw = RandomTrace(0x5EED, 30000);
    const CompactTrace compact = CompactTrace::Encode(raw);

    MemoryHierarchy ref(HostHierarchyConfig());
    raw.ReplayInto(ref.Top());
    MemoryHierarchy via(HostHierarchyConfig());
    compact.ReplayInto(via.Top());

    const PerfCounters a = ref.Snapshot();
    const PerfCounters b = via.Snapshot();
    EXPECT_EQ(a.l1.read_hits, b.l1.read_hits);
    EXPECT_EQ(a.l1.read_misses, b.l1.read_misses);
    EXPECT_EQ(a.l1.write_hits, b.l1.write_hits);
    EXPECT_EQ(a.l1.write_misses, b.l1.write_misses);
    EXPECT_EQ(a.l1.writebacks, b.l1.writebacks);
    EXPECT_EQ(a.llc.read_misses, b.llc.read_misses);
    EXPECT_EQ(a.llc.writebacks, b.llc.writebacks);
    EXPECT_EQ(a.dram.read_bytes, b.dram.read_bytes);
    EXPECT_EQ(a.dram.write_bytes, b.dram.write_bytes);
}

TEST(TraceCodec, RecorderTeeMatchesPostHocEncode)
{
    // Recording straight into the compact form must capture the exact
    // stream a raw recorder sees, and the level below must observe the
    // same traffic either way.
    const AccessTrace stimulus = RandomTrace(0x7EE, 10000);

    MemoryHierarchy raw_mh(HostHierarchyConfig());
    AccessTrace raw;
    TraceRecorder raw_rec(raw, raw_mh.Top());
    stimulus.ReplayInto(raw_rec);

    MemoryHierarchy compact_mh(HostHierarchyConfig());
    CompactTraceRecorder compact_rec(compact_mh.Top());
    stimulus.ReplayInto(compact_rec);
    const CompactTrace compact = compact_rec.Finish();

    ExpectSameEntries(raw, compact.Decode());
    EXPECT_EQ(raw_mh.Snapshot().dram.TotalBytes(),
              compact_mh.Snapshot().dram.TotalBytes());

    const CompactTrace posthoc = CompactTrace::Encode(raw);
    EXPECT_EQ(posthoc.SizeBytes(), compact.SizeBytes());
}

/** A catalog-style spec whose instance runs @p body. */
core::KernelSpec
SpecRunning(std::function<void(core::ExecutionContext &)> body)
{
    core::KernelSpec spec;
    spec.name = "Test Pattern";
    spec.group = "test";
    spec.make = [body](std::shared_ptr<void> &, double) {
        return core::KernelInstance{{}, body};
    };
    return spec;
}

TEST(TraceCodec, ExecutionContextCompactRecordingRoundTrips)
{
    // The two recording modes capture the same stream for the same
    // deterministic access pattern, although only the raw one feeds a
    // live hierarchy.
    const core::KernelSpec spec =
        SpecRunning([](core::ExecutionContext &ctx) {
            for (std::size_t i = 0; i < 4000; ++i) {
                ctx.mem().Read(0x2000 + (i % 128) * 64, 64);
                if (i % 3 == 0) {
                    ctx.mem().Write(0x80000 + i * 64, 32);
                }
            }
        });
    core::KernelSession session;
    const core::RecordedKernel raw = session.Record(spec);
    EXPECT_GT(raw.cpu.counters.dram.TotalBytes(), 0u);
    const CompactTrace compact = session.RecordCompact(spec).trace;
    ExpectSameEntries(raw.trace, compact.Decode());
}

TEST(TraceCodec, DetachEmitsCompressionCounters)
{
    // With tracing on, both recording paths report the compact
    // footprint beside the raw one.
    const core::KernelSpec spec =
        SpecRunning([](core::ExecutionContext &ctx) {
            for (std::size_t i = 0; i < 256; ++i) {
                ctx.mem().Read(0x1000 + i * 64, 64);
            }
        });
    auto &tracer = telemetry::Tracer::Global();
    tracer.SetEnabled(true);
    tracer.Clear();
    core::KernelSession session;
    (void)session.Record(spec);
    (void)session.RecordCompact(spec);
    tracer.SetEnabled(false);

    int bytes = 0, compact_bytes = 0, ratio = 0;
    for (const telemetry::TraceEvent &e : tracer.Events()) {
        if (e.phase != 'C') {
            continue;
        }
        if (e.name == "trace.bytes") {
            ++bytes;
        } else if (e.name == "trace.compact_bytes") {
            ++compact_bytes;
            EXPECT_GT(e.value, 0.0);
        } else if (e.name == "trace.compression_ratio") {
            ++ratio;
            EXPECT_GT(e.value, 1.0);
        }
    }
    tracer.Clear();
    EXPECT_EQ(bytes, 2);
    EXPECT_EQ(compact_bytes, 2);
    EXPECT_EQ(ratio, 2);
}

TEST(TraceCodec, EncoderResetsAfterFinish)
{
    CompactTraceEncoder enc;
    enc.Append(0x1000, 64, AccessType::kRead);
    enc.Append(0x1040, 64, AccessType::kRead);
    const CompactTrace first = enc.Finish();
    EXPECT_EQ(first.size(), 2u);

    // The drained encoder starts a fresh, independent stream.
    EXPECT_EQ(enc.size(), 0u);
    enc.Append(0x9000, 32, AccessType::kWrite);
    const CompactTrace second = enc.Finish();
    EXPECT_EQ(second.size(), 1u);
    EXPECT_EQ(second.write_bytes(), 32u);
    const AccessTrace decoded = second.Decode();
    ASSERT_EQ(decoded.size(), 1u);
    EXPECT_EQ(decoded[0].addr(), 0x9000u);
}

TEST(TraceCodec, RunExpansionRoundTripsByteForByte)
{
    // Run tokens decode through a strided word expander.  Build a
    // stream dominated by long runs of varied strides — forward,
    // backward, zero — plus literal breaks, and require every decoded
    // entry word to equal the word that was appended.
    CompactTraceEncoder enc;
    AccessTrace appended;
    const auto append = [&](Address a, Bytes bytes, AccessType type) {
        enc.Append(a, bytes, type);
        appended.Append(a, bytes, type);
    };
    Address addr = 0x1000;
    for (const std::int64_t stride : {64, -64, 0, 4, 128, -4}) {
        for (int i = 0; i < 300; ++i) {
            append(addr, 16, AccessType::kRead);
            addr += static_cast<Address>(stride);
        }
        append(addr + 0x100000, 4, AccessType::kWrite); // break
        addr += 0x5000;
    }
    // A run crossing a block boundary (blocks are 4096 entries).
    for (int i = 0; i < 6000; ++i) {
        append(addr, 64, AccessType::kWrite);
        addr += 64;
    }
    const CompactTrace compact = enc.Finish();
    ASSERT_EQ(compact.size(), appended.size());
    const AccessTrace decoded = compact.Decode();
    ASSERT_EQ(decoded.size(), appended.size());
    for (std::size_t i = 0; i < decoded.size(); ++i) {
        ASSERT_EQ(decoded.data()[i].word, appended.data()[i].word)
            << "entry " << i;
    }

    // The recorded kernel streams, whose strided loops are mostly runs.
    for (const auto &[name, trace] : KernelTraces()) {
        const AccessTrace kernel = CompactTrace::Encode(trace).Decode();
        ASSERT_EQ(kernel.size(), trace.size()) << name;
        for (std::size_t i = 0; i < kernel.size(); ++i) {
            ASSERT_EQ(kernel.data()[i].word, trace.data()[i].word)
                << name << " entry " << i;
        }
    }
}

std::string
ReadFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
WriteFileBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
}

TEST(TraceCodecFile, SaveLoadRoundTripsBitIdentically)
{
    const AccessTrace raw =
        RandomTrace(0xF17E, 2 * CompactTrace::kBlockEntries + 99);
    const CompactTrace original = CompactTrace::Encode(raw);
    const std::string path =
        testing::TempDir() + "pim_ctrace_roundtrip.ctrace";

    std::string error;
    ASSERT_TRUE(original.SaveTo(path, &error)) << error;
    // Atomicity contract: no .tmp litter once SaveTo returns.
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good());

    auto loaded = CompactTrace::LoadFrom(path, &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    EXPECT_EQ(loaded->size(), original.size());
    EXPECT_EQ(loaded->read_bytes(), original.read_bytes());
    EXPECT_EQ(loaded->write_bytes(), original.write_bytes());
    EXPECT_EQ(loaded->SizeBytes(), original.SizeBytes());
    EXPECT_EQ(loaded->Digest(), original.Digest());
    ExpectSameEntries(raw, loaded->Decode());

    // Re-saving the loaded trace must produce the same file bytes —
    // the disk form is canonical, not merely equivalent.
    const std::string path2 =
        testing::TempDir() + "pim_ctrace_roundtrip2.ctrace";
    ASSERT_TRUE(loaded->SaveTo(path2, &error)) << error;
    EXPECT_EQ(ReadFileBytes(path), ReadFileBytes(path2));
    std::remove(path.c_str());
    std::remove(path2.c_str());
}

TEST(TraceCodecFile, EmptyTraceRoundTrips)
{
    const CompactTrace empty = CompactTrace::Encode(AccessTrace{});
    const std::string path =
        testing::TempDir() + "pim_ctrace_empty.ctrace";
    std::string error;
    ASSERT_TRUE(empty.SaveTo(path, &error)) << error;
    const auto loaded = CompactTrace::LoadFrom(path, &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    EXPECT_TRUE(loaded->empty());
    EXPECT_EQ(loaded->Digest(), empty.Digest());
    std::remove(path.c_str());
}

/**
 * The content digest, transcribed from its definition rather than
 * called: 64-bit FNV-1a over the entry count, read bytes, write bytes,
 * block count and token-byte count (each 8 bytes little-endian), then
 * the token bytes.  The fields and token bytes are read back from the
 * trace's saved container, never from its header digest.
 */
std::uint64_t
ReferenceDigest(const CompactTrace &trace, const std::string &path)
{
    std::string error;
    EXPECT_TRUE(trace.SaveTo(path, &error)) << error;
    std::ifstream in(path, std::ios::binary);
    const std::string file((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    std::remove(path.c_str());
    EXPECT_GE(file.size(), 56u);
    if (file.size() < 56) {
        return 0;
    }
    const auto u64_at = [&](std::size_t off) {
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i) {
            v |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(file[off + i]))
                 << (8 * i);
        }
        return v;
    };
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto absorb = [&](unsigned char byte) {
        h = (h ^ byte) * 0x100000001b3ULL;
    };
    // Header: magic, entries, read, write, blocks, token bytes, digest.
    for (std::size_t off = 8; off < 48; ++off) {
        absorb(static_cast<unsigned char>(file[off]));
    }
    const std::uint64_t token_bytes = u64_at(40);
    EXPECT_LE(token_bytes, file.size());
    for (std::size_t i = file.size() - token_bytes; i < file.size(); ++i) {
        absorb(static_cast<unsigned char>(file[i]));
    }
    return h;
}

TEST(TraceCodecFile, StoredDigestMatchesTheFormula)
{
    const std::string path = testing::TempDir() + "pim_ctrace_digest.ctrace";
    // A default-constructed trace and an empty encode both report the
    // digest of five zero fields and no token bytes.
    const std::uint64_t empty = ReferenceDigest(CompactTrace{}, path);
    EXPECT_EQ(CompactTrace{}.Digest(), empty);
    EXPECT_EQ(CompactTrace::Encode(AccessTrace{}).Digest(), empty);

    for (const auto &[name, trace] : KernelTraces()) {
        const CompactTrace encoded = CompactTrace::Encode(trace);
        EXPECT_EQ(encoded.Digest(), ReferenceDigest(encoded, path))
            << name << " Encode";

        CompactTraceEncoder enc;
        for (std::size_t i = 0; i < trace.size(); ++i) {
            const TraceEntry &e = trace.data()[i];
            enc.Append(e.addr(), e.bytes(), e.type());
        }
        const CompactTrace finished = enc.Finish();
        EXPECT_EQ(finished.Digest(), ReferenceDigest(finished, path))
            << name << " Finish";
        EXPECT_EQ(finished.Digest(), encoded.Digest()) << name;

        std::string error;
        ASSERT_TRUE(encoded.SaveTo(path, &error)) << error;
        const auto loaded = CompactTrace::LoadFrom(path, &error);
        ASSERT_TRUE(loaded.has_value()) << error;
        EXPECT_EQ(loaded->Digest(), ReferenceDigest(*loaded, path))
            << name << " LoadFrom";
        EXPECT_EQ(loaded->Digest(), encoded.Digest()) << name;
    }
}

TEST(TraceCodecFile, RejectsCorruptTruncatedAndAlienFiles)
{
    const AccessTrace raw = RandomTrace(0xBAD, 9000);
    const CompactTrace original = CompactTrace::Encode(raw);
    const std::string good_path =
        testing::TempDir() + "pim_ctrace_good.ctrace";
    std::string error;
    ASSERT_TRUE(original.SaveTo(good_path, &error)) << error;
    const std::string good = ReadFileBytes(good_path);
    const std::string bad_path =
        testing::TempDir() + "pim_ctrace_bad.ctrace";

    // A flipped payload byte must fail the digest check.
    std::string corrupt = good;
    corrupt[corrupt.size() - 7] ^= 0x40;
    WriteFileBytes(bad_path, corrupt);
    EXPECT_FALSE(CompactTrace::LoadFrom(bad_path, &error).has_value());
    EXPECT_NE(error.find("digest"), std::string::npos) << error;

    // Truncations at every structural boundary: inside the magic,
    // inside the header, inside the block table, inside the payload.
    for (const std::size_t keep :
         {std::size_t{4}, std::size_t{20}, std::size_t{60},
          good.size() - 1}) {
        ASSERT_LT(keep, good.size());
        WriteFileBytes(bad_path, good.substr(0, keep));
        EXPECT_FALSE(
            CompactTrace::LoadFrom(bad_path, &error).has_value())
            << "kept " << keep << " bytes";
    }

    // Trailing garbage is rejected too — the container is the whole
    // file, so extra bytes mean the file is not what was saved.
    WriteFileBytes(bad_path, good + "x");
    EXPECT_FALSE(CompactTrace::LoadFrom(bad_path, &error).has_value());

    // Wrong magic (an alien file of plausible length).
    std::string alien = good;
    alien[0] = 'X';
    WriteFileBytes(bad_path, alien);
    EXPECT_FALSE(CompactTrace::LoadFrom(bad_path, &error).has_value());
    EXPECT_NE(error.find("not a compact-trace"), std::string::npos)
        << error;

    // A missing file is an error, not a crash.
    EXPECT_FALSE(CompactTrace::LoadFrom(
                     testing::TempDir() + "pim_ctrace_missing.ctrace",
                     &error)
                     .has_value());

    std::remove(good_path.c_str());
    std::remove(bad_path.c_str());
}

TEST(MappedTrace, StreamsBitIdenticallyToTheInRamForms)
{
    const AccessTrace raw =
        RandomTrace(0x33AA, 3 * CompactTrace::kBlockEntries + 500);
    const CompactTrace compact = CompactTrace::Encode(raw);
    const std::string path =
        testing::TempDir() + "pim_ctrace_mapped.ctrace";
    std::string error;
    ASSERT_TRUE(compact.SaveTo(path, &error)) << error;

    for (const auto verify : {MappedCompactTrace::Verify::kEager,
                              MappedCompactTrace::Verify::kLazy,
                              MappedCompactTrace::Verify::kNone}) {
        auto mapped = MappedCompactTrace::Open(path, &error, verify);
        ASSERT_TRUE(mapped.has_value()) << error;
        EXPECT_EQ(mapped->entries(), compact.size());
        EXPECT_EQ(mapped->read_bytes(), compact.read_bytes());
        EXPECT_EQ(mapped->write_bytes(), compact.write_bytes());
        EXPECT_EQ(mapped->BlockCount(), compact.BlockCount());
        EXPECT_EQ(mapped->header_digest(), compact.Digest());

        // Block-by-block decode is byte-identical to the in-RAM
        // decoder's output.
        AccessTrace rebuilt;
        alignas(64) TraceEntry buffer[TraceSource::kBlockEntries];
        for (std::size_t b = 0; b < mapped->BlockCount(); ++b) {
            const TraceSource::Span span = mapped->Block(b, buffer);
            rebuilt.Append(span.data, span.count);
        }
        ExpectSameEntries(raw, rebuilt);

        // Replay counters match the raw in-RAM replay exactly.
        MemoryHierarchy ref(HostHierarchyConfig());
        raw.ReplayInto(ref.Top());
        MemoryHierarchy via(HostHierarchyConfig());
        mapped->ReplayInto(via.Top());
        EXPECT_EQ(ref.Snapshot().dram.TotalBytes(),
                  via.Snapshot().dram.TotalBytes());
        EXPECT_EQ(ref.Snapshot().llc.Misses(),
                  via.Snapshot().llc.Misses());
    }
    std::remove(path.c_str());
}

TEST(MappedTrace, MoveTransfersTheMapping)
{
    const AccessTrace raw = RandomTrace(0x440E, 6000);
    const CompactTrace compact = CompactTrace::Encode(raw);
    const std::string path =
        testing::TempDir() + "pim_ctrace_mapped_move.ctrace";
    std::string error;
    ASSERT_TRUE(compact.SaveTo(path, &error)) << error;

    auto opened = MappedCompactTrace::Open(path, &error);
    ASSERT_TRUE(opened.has_value()) << error;
    MappedCompactTrace moved = std::move(*opened);
    AccessTrace rebuilt;
    alignas(64) TraceEntry buffer[TraceSource::kBlockEntries];
    for (std::size_t b = 0; b < moved.BlockCount(); ++b) {
        const TraceSource::Span span = moved.Block(b, buffer);
        rebuilt.Append(span.data, span.count);
    }
    ExpectSameEntries(raw, rebuilt);
    std::remove(path.c_str());
}

TEST(MappedTrace, EmptyContainerMapsAndReplaysAsANoOp)
{
    const CompactTrace empty = CompactTrace::Encode(AccessTrace{});
    const std::string path =
        testing::TempDir() + "pim_ctrace_mapped_empty.ctrace";
    std::string error;
    ASSERT_TRUE(empty.SaveTo(path, &error)) << error;
    auto mapped = MappedCompactTrace::Open(path, &error);
    ASSERT_TRUE(mapped.has_value()) << error;
    EXPECT_TRUE(mapped->empty());
    EXPECT_EQ(mapped->BlockCount(), 0u);
    MemoryHierarchy mh(HostHierarchyConfig());
    mapped->ReplayInto(mh.Top());
    EXPECT_EQ(mh.Snapshot().dram.TotalBytes(), 0u);
    std::remove(path.c_str());
}

TEST(MappedTrace, VerifyModesCatchPayloadCorruption)
{
    const AccessTrace raw =
        RandomTrace(0xDEAD, 2 * CompactTrace::kBlockEntries + 100);
    const CompactTrace compact = CompactTrace::Encode(raw);
    const std::string good_path =
        testing::TempDir() + "pim_ctrace_mapped_good.ctrace";
    std::string error;
    ASSERT_TRUE(compact.SaveTo(good_path, &error)) << error;
    const std::string good = ReadFileBytes(good_path);
    const std::string bad_path =
        testing::TempDir() + "pim_ctrace_mapped_bad.ctrace";

    // Flip one payload byte (header and block table stay intact).
    std::string corrupt = good;
    corrupt[corrupt.size() - 7] ^= 0x40;
    WriteFileBytes(bad_path, corrupt);

    // Eager verification fails at Open.
    EXPECT_FALSE(MappedCompactTrace::Open(
                     bad_path, &error,
                     MappedCompactTrace::Verify::kEager)
                     .has_value());
    EXPECT_NE(error.find("digest"), std::string::npos) << error;

    // Lazy verification opens fine but throws when the replay reaches
    // the corrupted byte's block range.
    auto lazy = MappedCompactTrace::Open(
        bad_path, &error, MappedCompactTrace::Verify::kLazy);
    ASSERT_TRUE(lazy.has_value()) << error;
    const auto stream_all = [&](const MappedCompactTrace &t) {
        alignas(64) TraceEntry buffer[TraceSource::kBlockEntries];
        std::size_t n = 0;
        for (std::size_t b = 0; b < t.BlockCount(); ++b) {
            n += t.Block(b, buffer).count;
        }
        return n;
    };
    EXPECT_THROW(stream_all(*lazy), std::runtime_error);
    // The failure is sticky: a second pass over the same mapping must
    // not decode the corrupt payload silently.
    EXPECT_THROW(stream_all(*lazy), std::runtime_error);

    std::remove(good_path.c_str());
    std::remove(bad_path.c_str());
}

TEST(MappedTrace, RejectsCorruptTruncatedAndAlienFiles)
{
    const AccessTrace raw = RandomTrace(0xFA11, 9000);
    const CompactTrace compact = CompactTrace::Encode(raw);
    const std::string good_path =
        testing::TempDir() + "pim_ctrace_mapped_reject.ctrace";
    std::string error;
    ASSERT_TRUE(compact.SaveTo(good_path, &error)) << error;
    const std::string good = ReadFileBytes(good_path);
    const std::string bad_path =
        testing::TempDir() + "pim_ctrace_mapped_reject_bad.ctrace";

    // Truncations at every structural boundary must fail Open in
    // every verification mode (the size check is structural, not a
    // digest pass).
    for (const std::size_t keep :
         {std::size_t{4}, std::size_t{20}, std::size_t{60},
          good.size() - 1}) {
        ASSERT_LT(keep, good.size());
        WriteFileBytes(bad_path, good.substr(0, keep));
        for (const auto verify : {MappedCompactTrace::Verify::kEager,
                                  MappedCompactTrace::Verify::kLazy,
                                  MappedCompactTrace::Verify::kNone}) {
            EXPECT_FALSE(
                MappedCompactTrace::Open(bad_path, &error, verify)
                    .has_value())
                << "kept " << keep << " bytes";
        }
    }

    // Trailing garbage: the container is the whole file.
    WriteFileBytes(bad_path, good + "x");
    EXPECT_FALSE(
        MappedCompactTrace::Open(bad_path, &error).has_value());

    // Wrong magic.
    std::string alien = good;
    alien[0] = 'X';
    WriteFileBytes(bad_path, alien);
    EXPECT_FALSE(
        MappedCompactTrace::Open(bad_path, &error).has_value());
    EXPECT_NE(error.find("not a compact-trace"), std::string::npos)
        << error;

    // A corrupt block table (offset past the payload) is structural.
    std::string bad_table = good;
    // First block-table entry's offset u64 lives at byte 56.
    bad_table[56 + 0] = '\xff';
    bad_table[56 + 7] = '\x7f';
    WriteFileBytes(bad_path, bad_table);
    EXPECT_FALSE(MappedCompactTrace::Open(
                     bad_path, &error,
                     MappedCompactTrace::Verify::kNone)
                     .has_value());

    // Missing file: error, not crash.
    EXPECT_FALSE(
        MappedCompactTrace::Open(
            testing::TempDir() + "pim_ctrace_mapped_missing.ctrace",
            &error)
            .has_value());

    std::remove(good_path.c_str());
    std::remove(bad_path.c_str());
}

// The raw trace the codec encodes: the recorder tee, replay into
// fresh hierarchies, and attaching a trace to an ExecutionContext.

TEST(Trace, RecorderTeesWithoutPerturbing)
{
    sim::AccessTrace trace;
    sim::MemoryHierarchy direct(sim::HostHierarchyConfig());
    sim::MemoryHierarchy traced(sim::HostHierarchyConfig());
    sim::TraceRecorder recorder(trace, traced.Top());

    // Drive identical streams through both paths.
    for (Address a = 0; a < 64_KiB; a += 64) {
        direct.Top().Access(0x100000 + a, 64, sim::AccessType::kRead);
        recorder.Access(0x100000 + a, 64, sim::AccessType::kRead);
    }
    EXPECT_EQ(trace.size(), 1024u);
    EXPECT_EQ(trace.TotalBytes(), 64_KiB);
    EXPECT_EQ(direct.Snapshot().l1.Misses(),
              traced.Snapshot().l1.Misses());
}

TEST(Trace, ReplayReproducesCounters)
{
    // Record the real texture-tiling kernel once...
    Rng rng(31);
    browser::Bitmap linear(128, 64);
    linear.Randomize(rng);
    browser::TiledTexture tiled(128, 64);

    sim::AccessTrace trace;
    {
        core::ExecutionContext ctx(core::ExecutionTarget::kCpuOnly);
        sim::TraceRecorder recorder(trace, ctx.hierarchy().Top());
        sim::MemPort port(recorder);
        // Drive the kernel manually through the recording port.
        for (int y = 0; y < 64; ++y) {
            port.Read(linear.SimAddr(0, y), 128 * 4);
        }
    }
    ASSERT_FALSE(trace.empty());

    // ...then replay into two fresh hierarchies; counters must agree.
    sim::MemoryHierarchy a(sim::HostHierarchyConfig());
    sim::MemoryHierarchy b(sim::HostHierarchyConfig());
    trace.ReplayInto(a.Top());
    trace.ReplayInto(b.Top());
    EXPECT_EQ(a.Snapshot().l1.Misses(), b.Snapshot().l1.Misses());
    EXPECT_EQ(a.Snapshot().dram.TotalBytes(),
              b.Snapshot().dram.TotalBytes());
}

TEST(Trace, ReplayThroughSmallerCacheMissesMore)
{
    // A reuse-heavy trace: stream a 64 KiB buffer twice.
    sim::AccessTrace trace;
    for (int pass = 0; pass < 2; ++pass) {
        for (Address a = 0; a < 64_KiB; a += 64) {
            trace.Append(0x200000 + a, 64, sim::AccessType::kRead);
        }
    }

    sim::HierarchyConfig big = sim::PimCoreHierarchyConfig();
    big.l1.size = 128_KiB;
    sim::HierarchyConfig small = sim::PimCoreHierarchyConfig();
    small.l1.size = 16_KiB;

    sim::MemoryHierarchy big_h(big);
    sim::MemoryHierarchy small_h(small);
    trace.ReplayInto(big_h.Top());
    trace.ReplayInto(small_h.Top());
    EXPECT_LT(big_h.Snapshot().dram.TotalBytes(),
              small_h.Snapshot().dram.TotalBytes());
}

TEST(Trace, ContextAttachDetach)
{
    sim::AccessTrace trace;
    core::ExecutionContext ctx(core::ExecutionTarget::kCpuOnly);
    pim::SimBuffer<std::uint8_t> buf(4096);

    ctx.AttachTrace(trace);
    ctx.mem().Read(buf.SimAddr(0), 1024);
    EXPECT_EQ(trace.size(), 1u);
    EXPECT_EQ(trace.TotalBytes(), 1024u);
    // The hierarchy still saw the access (tee, not redirect).
    EXPECT_GT(ctx.Report("t").counters.l1.Accesses(), 0u);

    ctx.DetachTrace();
    ctx.mem().Read(buf.SimAddr(0), 1024);
    EXPECT_EQ(trace.size(), 1u); // unchanged after detach
}

} // namespace
} // namespace pim::sim
