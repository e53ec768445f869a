#include "sim/trace_codec.h"

#include <cstdio>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <utility>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/digest.h"
#include "common/logging.h"

namespace pim::sim {

CompactTrace
CompactTraceEncoder::Finish()
{
    if (block_entries_ != 0) {
        EndBlock();
    } else {
        FlushRun();
    }
    CompactTrace trace;
    trace.data_ = std::move(data_);
    trace.data_.shrink_to_fit();
    trace.blocks_ = std::move(blocks_);
    trace.blocks_.shrink_to_fit();
    trace.entries_ = entries_;
    trace.read_bytes_ = read_bytes_;
    trace.write_bytes_ = write_bytes_;
    trace.digest_ = trace.ComputeDigest();
    *this = CompactTraceEncoder{};
    return trace;
}

namespace {

inline std::uint64_t
GetVarint(const std::uint8_t *&p)
{
    std::uint64_t v = 0;
    unsigned shift = 0;
    for (;;) {
        const std::uint8_t b = *p++;
        v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
        if ((b & 0x80) == 0) {
            return v;
        }
        shift += 7;
    }
}

inline std::int64_t
UnZigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/**
 * Expand a run token: out[k].word = word + (k+1) * step for k in
 * [0, n), all mod 2^64.  The address delta propagates through the
 * packed word unchanged because every address in a valid run stays
 * inside the 40-bit field.
 */
inline void
ExpandRun(TraceEntry *out, std::size_t n, std::uint64_t word,
          std::uint64_t step)
{
    for (std::size_t k = 0; k < n; ++k) {
        word += step;
        out[k].word = word;
    }
}

} // namespace

std::size_t
CompactTrace::DecodeBlock(std::size_t b, TraceEntry *out) const
{
    PIM_ASSERT(b < blocks_.size(), "block index out of range");
    const std::uint8_t *p = data_.data() + blocks_[b].offset;
    const std::size_t n = blocks_[b].count;

    CompactTraceEncoder::Context ctx[2];
    std::size_t i = 0;
    while (i < n) {
        const std::uint8_t header = *p++;
        const std::size_t t = (header >> 6) & 1;
        CompactTraceEncoder::Context &c = ctx[t];
        if (header & 0x80) {
            // Run: `len` repeats of the same-type context's stride,
            // expanded as packed words directly.  Within a run the
            // bytes and type fields are constant, so entry k's word is
            // base_word + k*delta — the signed address delta carries
            // through 64-bit wraparound arithmetic exactly as long as
            // every address in the run stays inside the 40-bit field,
            // which the endpoint checks below establish (the run is
            // monotone, so the endpoints bound the intermediates).
            // This replaces the per-entry pack-and-assert loop, the
            // dominant cost of decoding strided kernel traces.
            std::uint64_t len = header & 63;
            len = (len == 63) ? GetVarint(p) + 64 : len + 1;
            const auto delta = static_cast<std::uint64_t>(c.last_delta);
            const std::uint64_t first_addr = c.last_addr + delta;
            const std::uint64_t final_addr = c.last_addr + len * delta;
            PIM_ASSERT(first_addr <= TraceEntry::kMaxAddr &&
                           final_addr <= TraceEntry::kMaxAddr,
                       "run decodes outside the %u-bit address space",
                       TraceEntry::kAddrBits);
            const std::uint64_t base_word =
                c.last_addr |
                (static_cast<std::uint64_t>(c.last_bytes)
                 << TraceEntry::kAddrBits) |
                (static_cast<std::uint64_t>(t) << 63);
            ExpandRun(out + i, len, base_word, delta);
            c.last_addr = final_addr;
            i += len;
            continue;
        }
        const std::int64_t delta =
            (header & 0x20) ? c.last_delta : UnZigzag(GetVarint(p));
        Bytes bytes;
        if (header & 0x10) {
            bytes = c.last_bytes;
        } else {
            const std::uint8_t inline_bytes = header & 15;
            bytes = (inline_bytes == 15) ? GetVarint(p) : inline_bytes;
        }
        c.last_addr += static_cast<std::uint64_t>(delta);
        c.last_delta = delta;
        c.last_bytes = bytes;
        out[i++] = TraceEntry(c.last_addr, bytes,
                              t ? AccessType::kWrite : AccessType::kRead);
    }
    return i;
}

void
CompactTrace::ReplayInto(MemorySink &sink) const
{
    // Reused aligned staging buffer: each block is materialized here
    // and handed to the batched sink entry point with no intermediate
    // copy; 64-byte alignment keeps the vector stores of the run
    // expander (and the sink's vector loads) cache-line clean.
    alignas(64) TraceEntry buffer[kBlockEntries];
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
        const std::size_t n = DecodeBlock(b, buffer);
        sink.AccessBatch(buffer, n);
    }
}

AccessTrace
CompactTrace::Decode() const
{
    AccessTrace trace;
    trace.Reserve(entries_);
    alignas(64) TraceEntry buffer[kBlockEntries];
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
        const std::size_t n = DecodeBlock(b, buffer);
        trace.Append(buffer, n);
    }
    return trace;
}

namespace {

/**
 * Container layout (all integers 64-bit little-endian):
 *
 *   [8]  magic "PIMCTRC1"
 *   [8]  entry count
 *   [8]  read bytes          [8] write bytes
 *   [8]  block count         [8] token-byte count
 *   [8]  content digest (CompactTrace::Digest of the payload below)
 *   per block: [8] token offset, [8] entry count
 *   token bytes
 */
constexpr char kTraceMagic[8] = {'P', 'I', 'M', 'C', 'T', 'R', 'C', '1'};

bool
PutU64(std::FILE *f, std::uint64_t v)
{
    unsigned char bytes[8];
    for (int i = 0; i < 8; ++i) {
        bytes[i] = static_cast<unsigned char>(v >> (8 * i));
    }
    return std::fwrite(bytes, 1, 8, f) == 8;
}

bool
GetU64(std::FILE *f, std::uint64_t *v)
{
    unsigned char bytes[8];
    if (std::fread(bytes, 1, 8, f) != 8) {
        return false;
    }
    std::uint64_t out = 0;
    for (int i = 0; i < 8; ++i) {
        out |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
    }
    *v = out;
    return true;
}

void
SetError(std::string *error, std::string msg)
{
    if (error != nullptr) {
        *error = std::move(msg);
    }
}

} // namespace

std::uint64_t
CompactTrace::ComputeDigest() const
{
    ContentDigest d;
    d.UpdateU64(entries_);
    d.UpdateU64(read_bytes_);
    d.UpdateU64(write_bytes_);
    d.UpdateU64(blocks_.size());
    d.UpdateU64(data_.size());
    d.Update(data_.data(), data_.size());
    return d.value();
}

bool
CompactTrace::SaveTo(const std::string &path, std::string *error) const
{
    // Write-to-temp + rename: readers either see the complete old file
    // or the complete new one, and an interrupted save leaves no
    // partial file under the final name.
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) {
        SetError(error, "cannot open '" + tmp + "' for writing");
        return false;
    }
    bool ok = std::fwrite(kTraceMagic, 1, 8, f) == 8;
    ok = ok && PutU64(f, entries_);
    ok = ok && PutU64(f, read_bytes_);
    ok = ok && PutU64(f, write_bytes_);
    ok = ok && PutU64(f, blocks_.size());
    ok = ok && PutU64(f, data_.size());
    ok = ok && PutU64(f, Digest());
    for (const auto &b : blocks_) {
        ok = ok && PutU64(f, b.offset);
        ok = ok && PutU64(f, b.count);
    }
    ok = ok &&
         (data_.empty() ||
          std::fwrite(data_.data(), 1, data_.size(), f) == data_.size());
    ok = std::fclose(f) == 0 && ok;
    if (!ok) {
        std::remove(tmp.c_str());
        SetError(error, "short write to '" + tmp + "'");
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        SetError(error, "cannot rename '" + tmp + "' to '" + path + "'");
        return false;
    }
    return true;
}

std::optional<CompactTrace>
CompactTrace::LoadFrom(const std::string &path, std::string *error)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        SetError(error, "cannot open '" + path + "'");
        return std::nullopt;
    }
    char magic[8];
    std::uint64_t entries = 0, read_bytes = 0, write_bytes = 0;
    std::uint64_t block_count = 0, data_size = 0, digest = 0;
    bool ok = std::fread(magic, 1, 8, f) == 8 &&
              std::memcmp(magic, kTraceMagic, 8) == 0;
    if (!ok) {
        std::fclose(f);
        SetError(error, "'" + path + "' is not a compact-trace file");
        return std::nullopt;
    }
    ok = GetU64(f, &entries) && GetU64(f, &read_bytes) &&
         GetU64(f, &write_bytes) && GetU64(f, &block_count) &&
         GetU64(f, &data_size) && GetU64(f, &digest);
    // Structural sanity before any allocation: a corrupt header must
    // not drive a multi-GB resize.
    constexpr std::uint64_t kMaxReasonable = std::uint64_t{1} << 40;
    ok = ok && block_count <= kMaxReasonable / 16 &&
         data_size <= kMaxReasonable &&
         entries <= block_count * kBlockEntries;
    if (!ok) {
        std::fclose(f);
        SetError(error, "'" + path + "' has a corrupt header");
        return std::nullopt;
    }
    CompactTrace trace;
    trace.entries_ = entries;
    trace.read_bytes_ = read_bytes;
    trace.write_bytes_ = write_bytes;
    trace.blocks_.resize(block_count);
    trace.data_.resize(data_size);
    std::uint64_t total_entries = 0;
    for (auto &b : trace.blocks_) {
        std::uint64_t offset = 0, count = 0;
        ok = ok && GetU64(f, &offset) && GetU64(f, &count);
        ok = ok && offset <= data_size && count <= kBlockEntries;
        b.offset = offset;
        b.count = static_cast<std::uint32_t>(count);
        total_entries += count;
    }
    ok = ok && total_entries == entries;
    ok = ok &&
         (data_size == 0 ||
          std::fread(trace.data_.data(), 1, data_size, f) == data_size);
    ok = ok && std::fgetc(f) == EOF; // no trailing garbage
    std::fclose(f);
    if (!ok) {
        SetError(error, "'" + path + "' is truncated or corrupt");
        return std::nullopt;
    }
    trace.digest_ = trace.ComputeDigest();
    if (trace.digest_ != digest) {
        SetError(error, "'" + path + "' fails its content digest");
        return std::nullopt;
    }
    return trace;
}

namespace {

/** GetVarint that refuses to read past @p end or overflow 64 bits. */
inline bool
GetVarintBounded(const std::uint8_t *&p, const std::uint8_t *end,
                 std::uint64_t *out)
{
    std::uint64_t v = 0;
    unsigned shift = 0;
    while (p < end && shift < 64) {
        const std::uint8_t b = *p++;
        v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
        if ((b & 0x80) == 0) {
            *out = v;
            return true;
        }
        shift += 7;
    }
    return false;
}

/**
 * DecodeBlock for *untrusted* token bytes: the same grammar as
 * CompactTrace::DecodeBlock, but every read is bounded by @p end,
 * every run is clamped to the block's entry count, and out-of-range
 * addresses or sizes fail instead of asserting.  Returns false on any
 * structural corruption — the caller reports, never crashes.  Used by
 * the mapped form, whose payload may not have been digest-verified
 * yet (Verify::kLazy before the watermark completes, or kNone).
 */
bool
DecodeBlockBounded(const std::uint8_t *p, const std::uint8_t *end,
                   std::size_t n, TraceEntry *out)
{
    if (n > CompactTrace::kBlockEntries) {
        return false;
    }
    // Same per-type prediction state as CompactTraceEncoder::Context
    // (which is private to the codec pair).
    struct Context
    {
        Address last_addr = 0;
        std::int64_t last_delta = 0;
        Bytes last_bytes = 0;
    };
    Context ctx[2];
    std::size_t i = 0;
    while (i < n) {
        if (p >= end) {
            return false;
        }
        const std::uint8_t header = *p++;
        const std::size_t t = (header >> 6) & 1;
        Context &c = ctx[t];
        if (header & 0x80) {
            std::uint64_t len = header & 63;
            if (len == 63) {
                std::uint64_t v = 0;
                if (!GetVarintBounded(p, end, &v)) {
                    return false;
                }
                len = v + 64;
            } else {
                len += 1;
            }
            // A run longer than the block's remaining entries would
            // write past the caller's scratch buffer.
            if (len > n - i) {
                return false;
            }
            const auto delta = static_cast<std::uint64_t>(c.last_delta);
            const std::uint64_t first_addr = c.last_addr + delta;
            const std::uint64_t final_addr = c.last_addr + len * delta;
            if (first_addr > TraceEntry::kMaxAddr ||
                final_addr > TraceEntry::kMaxAddr) {
                return false;
            }
            const std::uint64_t base_word =
                c.last_addr |
                (static_cast<std::uint64_t>(c.last_bytes)
                 << TraceEntry::kAddrBits) |
                (static_cast<std::uint64_t>(t) << 63);
            ExpandRun(out + i, len, base_word, delta);
            c.last_addr = final_addr;
            i += len;
            continue;
        }
        std::int64_t delta;
        if (header & 0x20) {
            delta = c.last_delta;
        } else {
            std::uint64_t v = 0;
            if (!GetVarintBounded(p, end, &v)) {
                return false;
            }
            delta = UnZigzag(v);
        }
        Bytes bytes;
        if (header & 0x10) {
            bytes = c.last_bytes;
        } else {
            const std::uint8_t inline_bytes = header & 15;
            if (inline_bytes == 15) {
                std::uint64_t v = 0;
                if (!GetVarintBounded(p, end, &v)) {
                    return false;
                }
                bytes = v;
            } else {
                bytes = inline_bytes;
            }
        }
        c.last_addr += static_cast<std::uint64_t>(delta);
        c.last_delta = delta;
        c.last_bytes = bytes;
        if (c.last_addr > TraceEntry::kMaxAddr ||
            bytes > TraceEntry::kMaxBytes) {
            return false;
        }
        out[i++] = TraceEntry(c.last_addr, bytes,
                              t ? AccessType::kWrite : AccessType::kRead);
    }
    return true;
}

} // namespace

/**
 * The incremental digest watermark for Verify::kLazy: FNV-1a is a
 * sequential byte fold, so "verified through offset X" extends
 * monotonically no matter which order blocks are cursored in — the
 * first cursor to reach a block folds everything up to its end.  Once
 * the watermark covers the payload the fold is compared against the
 * header digest exactly once; a mismatch is sticky, so no later pass
 * over the same mapping decodes the corrupt payload.
 */
struct MappedCompactTrace::LazyVerify
{
    std::mutex mu;
    ContentDigest digest;       ///< Seeded with the header fields.
    std::uint64_t verified = 0; ///< Token bytes folded so far.
    bool checked = false;       ///< Final comparison performed.
    bool failed = false;        ///< It mismatched: every Block throws.
};

MappedCompactTrace::~MappedCompactTrace()
{
    Unmap();
}

MappedCompactTrace::MappedCompactTrace(
    MappedCompactTrace &&other) noexcept
    : path_(std::move(other.path_)), map_(other.map_),
      map_len_(other.map_len_), tokens_(other.tokens_),
      token_bytes_(other.token_bytes_),
      blocks_(std::move(other.blocks_)), entries_(other.entries_),
      read_bytes_(other.read_bytes_), write_bytes_(other.write_bytes_),
      digest_(other.digest_), lazy_(std::move(other.lazy_))
{
    other.map_ = nullptr;
    other.map_len_ = 0;
    other.tokens_ = nullptr;
}

MappedCompactTrace &
MappedCompactTrace::operator=(MappedCompactTrace &&other) noexcept
{
    if (this != &other) {
        Unmap();
        path_ = std::move(other.path_);
        map_ = other.map_;
        map_len_ = other.map_len_;
        tokens_ = other.tokens_;
        token_bytes_ = other.token_bytes_;
        blocks_ = std::move(other.blocks_);
        entries_ = other.entries_;
        read_bytes_ = other.read_bytes_;
        write_bytes_ = other.write_bytes_;
        digest_ = other.digest_;
        lazy_ = std::move(other.lazy_);
        other.map_ = nullptr;
        other.map_len_ = 0;
        other.tokens_ = nullptr;
    }
    return *this;
}

void
MappedCompactTrace::Unmap()
{
    if (map_ != nullptr) {
        ::munmap(map_, map_len_);
        map_ = nullptr;
        map_len_ = 0;
        tokens_ = nullptr;
    }
}

std::optional<MappedCompactTrace>
MappedCompactTrace::Open(const std::string &path, std::string *error,
                         Verify verify)
{
    constexpr std::size_t kHeaderBytes = 8 + 6 * 8;
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        SetError(error, "cannot open '" + path + "'");
        return std::nullopt;
    }
    struct stat st = {};
    if (::fstat(fd, &st) != 0 || st.st_size < 0 ||
        static_cast<std::uint64_t>(st.st_size) < kHeaderBytes) {
        ::close(fd);
        SetError(error, "'" + path + "' is not a compact-trace file");
        return std::nullopt;
    }
    const std::size_t len = static_cast<std::size_t>(st.st_size);
    void *map = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (map == MAP_FAILED) {
        SetError(error, "cannot mmap '" + path + "'");
        return std::nullopt;
    }
    // Replay walks the file front to back exactly once: tell the
    // kernel so readahead runs ahead of the cursor and pages behind
    // it are first in line for eviction (bounded-RSS replay).
    ::madvise(map, len, MADV_SEQUENTIAL);

    MappedCompactTrace t;
    t.path_ = path;
    t.map_ = map;
    t.map_len_ = len;
    const auto *bytes = static_cast<const std::uint8_t *>(map);
    const auto fail = [&](const std::string &msg)
        -> std::optional<MappedCompactTrace> {
        SetError(error, "'" + path + "' " + msg);
        return std::nullopt; // ~t munmaps
    };
    if (std::memcmp(bytes, kTraceMagic, 8) != 0) {
        return fail("is not a compact-trace file");
    }
    const auto get_u64 = [bytes](std::size_t off) {
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i) {
            v |= static_cast<std::uint64_t>(bytes[off + i]) << (8 * i);
        }
        return v;
    };
    t.entries_ = get_u64(8);
    t.read_bytes_ = get_u64(16);
    t.write_bytes_ = get_u64(24);
    const std::uint64_t block_count = get_u64(32);
    t.token_bytes_ = get_u64(40);
    t.digest_ = get_u64(48);
    // The same structural bounds LoadFrom enforces, plus an exact
    // file-size check (the mapped length stands in for EOF).
    constexpr std::uint64_t kMaxReasonable = std::uint64_t{1} << 40;
    if (block_count > kMaxReasonable / 16 ||
        t.token_bytes_ > kMaxReasonable ||
        t.entries_ > block_count * kBlockEntries) {
        return fail("has a corrupt header");
    }
    if (len != kHeaderBytes + block_count * 16 + t.token_bytes_) {
        return fail("is truncated or corrupt");
    }
    t.blocks_.resize(block_count);
    std::uint64_t total_entries = 0;
    std::uint64_t prev_offset = 0;
    for (std::uint64_t b = 0; b < block_count; ++b) {
        const std::uint64_t offset = get_u64(kHeaderBytes + b * 16);
        const std::uint64_t count = get_u64(kHeaderBytes + b * 16 + 8);
        // Offsets must be non-decreasing so each block's token range
        // is [offset, next offset) — the encoder always writes them
        // that way; a file that does not is corrupt.
        if (offset > t.token_bytes_ || offset < prev_offset ||
            count > kBlockEntries) {
            return fail("has a corrupt block table");
        }
        t.blocks_[b].offset = offset;
        t.blocks_[b].count = static_cast<std::uint32_t>(count);
        total_entries += count;
        prev_offset = offset;
    }
    if (total_entries != t.entries_) {
        return fail("has a corrupt block table");
    }
    t.tokens_ = bytes + kHeaderBytes + block_count * 16;

    ContentDigest d;
    d.UpdateU64(t.entries_);
    d.UpdateU64(t.read_bytes_);
    d.UpdateU64(t.write_bytes_);
    d.UpdateU64(block_count);
    d.UpdateU64(t.token_bytes_);
    if (verify == Verify::kEager) {
        d.Update(t.tokens_, t.token_bytes_);
        if (d.value() != t.digest_) {
            return fail("fails its content digest");
        }
    } else if (verify == Verify::kLazy) {
        t.lazy_ = std::make_unique<LazyVerify>();
        t.lazy_->digest = d; // header fields folded; tokens pending
    }
    return t;
}

TraceSource::Span
MappedCompactTrace::Block(std::size_t b, TraceEntry *scratch) const
{
    PIM_ASSERT(b < blocks_.size(), "block index out of range");
    const CompactTraceEncoder::BlockIndex &blk = blocks_[b];
    const std::uint64_t end_off = (b + 1 < blocks_.size())
                                      ? blocks_[b + 1].offset
                                      : token_bytes_;
    if (lazy_ != nullptr) {
        std::lock_guard<std::mutex> lock(lazy_->mu);
        if (!lazy_->checked) {
            if (end_off > lazy_->verified) {
                lazy_->digest.Update(tokens_ + lazy_->verified,
                                     end_off - lazy_->verified);
                lazy_->verified = end_off;
            }
            if (lazy_->verified == token_bytes_) {
                lazy_->checked = true;
                lazy_->failed = lazy_->digest.value() != digest_;
            }
        }
        if (lazy_->failed) {
            throw std::runtime_error("'" + path_ +
                                     "' fails its content digest");
        }
    }
    if (!DecodeBlockBounded(tokens_ + blk.offset, tokens_ + end_off,
                            blk.count, scratch)) {
        throw std::runtime_error("'" + path_ +
                                 "' has a corrupt token stream in "
                                 "block " +
                                 std::to_string(b));
    }
    return Span{scratch, blk.count};
}

} // namespace pim::sim
