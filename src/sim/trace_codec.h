/**
 * @file
 * Compact block-encoded trace format.
 *
 * Raw AccessTrace storage is 8 bytes/entry; a 100M-access recording is
 * 800 MB of RAM that replay then streams at memory bandwidth.  But the
 * paper's kernels are overwhelmingly *strided*: texture tiling walks
 * rows at a constant stride with a constant access size, the blitter
 * and GEMM pack/unpack loops likewise, LZO moves through its window in
 * small quasi-sequential steps.  CompactTrace exploits that:
 *
 *  - addresses are delta-coded (zigzag + LEB128 varint) against the
 *    previous access *of the same type* — read and write streams
 *    interleave but each is separately near-linear, so per-type
 *    contexts keep the deltas tiny;
 *  - an entry whose delta AND size repeat the previous entry's costs
 *    one header byte, and a run of such entries collapses to a single
 *    run token (1-2 bytes for up to thousands of entries);
 *  - the stream is chopped into blocks of kBlockEntries with the
 *    contexts reset at each block boundary, so replay can decode
 *    block-by-block into a small stack-resident buffer (never
 *    materializing the 8-byte form of the whole trace) and blocks can
 *    be decoded independently (the sharded replay partitioner decodes
 *    them in parallel);
 *  - run tokens decode through a stride expander: within a run the
 *    packed word advances by a constant delta, so a run materializes
 *    into the aligned staging buffer with one add and one store per
 *    entry instead of a per-entry pack loop.
 *
 * Decoded output is bit-exact: CompactTrace::ReplayInto feeds the same
 * TraceEntry batches to MemorySink::AccessBatch that the raw trace
 * would, so it composes with ReplayTrace / ProfileStudy unchanged.
 */

#ifndef PIM_SIM_TRACE_CODEC_H
#define PIM_SIM_TRACE_CODEC_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/access.h"
#include "sim/trace.h"

namespace pim::sim {

class CompactTrace;

/**
 * Streaming encoder: append accesses one at a time (or in packed
 * batches), then Finish() into an immutable CompactTrace.
 *
 * Token grammar (per block, contexts zeroed at block start):
 *
 *   literal  [T0DB bbbb] [zigzag-varint delta if !D]
 *                        [varint bytes if !B and bbbb == 15]
 *     bit 7   = 0
 *     bit 6 T = access type (1 = write)
 *     bit 5 D = delta predicted (== same-type context's last delta)
 *     bit 4 B = size predicted (== same-type context's last size)
 *     bits 3..0 = access size 0..14 inline when !B; 15 = varint follows
 *
 *   run      [1T cccccc] [varint (count - 64) if cccccc == 63]
 *     collapses `count` consecutive entries that are fully predicted:
 *     same type as the previous entry, delta == context's last delta,
 *     size == context's last size.  cccccc = count - 1 for counts
 *     1..63.
 *
 * The first entry of a block is always a literal (prediction is
 * disabled so a decoder needs no cross-block state).
 */
class CompactTraceEncoder
{
  public:
    /** Entries per block; bounds the decoder's scratch buffer. */
    static constexpr std::size_t kBlockEntries = 4096;

    void
    Append(Address addr, Bytes bytes, AccessType type)
    {
        const std::size_t t = (type == AccessType::kWrite) ? 1 : 0;
        Context &ctx = ctx_[t];
        const std::int64_t delta =
            static_cast<std::int64_t>(addr - ctx.last_addr);
        if (block_entries_ != 0 && t == last_type_ &&
            delta == ctx.last_delta && bytes == ctx.last_bytes) {
            ++run_len_; // fully predicted: extend the pending run
        } else {
            FlushRun();
            EmitLiteral(t, delta, bytes, ctx);
            ctx.last_delta = delta;
        }
        ctx.last_addr = addr;
        ctx.last_bytes = bytes;
        last_type_ = t;
        if (t == 0) {
            read_bytes_ += bytes;
        } else {
            write_bytes_ += bytes;
        }
        ++entries_;
        if (++block_entries_ == kBlockEntries) {
            EndBlock();
        }
    }

    /** Bulk-append @p count already-packed entries. */
    void
    Append(const TraceEntry *entries, std::size_t count)
    {
        for (std::size_t i = 0; i < count; ++i) {
            Append(entries[i].addr(), entries[i].bytes(),
                   entries[i].type());
        }
    }

    std::size_t size() const { return entries_; }

    /** Seal the stream and move it out; the encoder resets to empty. */
    CompactTrace Finish();

  private:
    friend class CompactTrace;
    friend class MappedCompactTrace;

    /** Per-access-type prediction state. */
    struct Context
    {
        Address last_addr = 0;
        std::int64_t last_delta = 0;
        Bytes last_bytes = 0;
    };

    /** One block's location in the byte stream. */
    struct BlockIndex
    {
        std::size_t offset = 0;   ///< First token byte.
        std::uint32_t count = 0;  ///< Entries encoded in the block.
    };

    void
    PutVarint(std::uint64_t v)
    {
        while (v >= 0x80) {
            data_.push_back(static_cast<std::uint8_t>(v) | 0x80);
            v >>= 7;
        }
        data_.push_back(static_cast<std::uint8_t>(v));
    }

    void
    EmitLiteral(std::size_t type, std::int64_t delta, Bytes bytes,
                const Context &ctx)
    {
        std::uint8_t header =
            static_cast<std::uint8_t>(type << 6);
        const bool delta_known = delta == ctx.last_delta;
        const bool bytes_known = bytes == ctx.last_bytes;
        if (delta_known) {
            header |= 0x20;
        }
        if (bytes_known) {
            header |= 0x10;
        } else {
            header |= static_cast<std::uint8_t>(
                bytes < 15 ? bytes : 15);
        }
        data_.push_back(header);
        if (!delta_known) {
            // Zigzag: small negative deltas (backward strides) encode
            // as small varints too.
            const auto u = static_cast<std::uint64_t>(delta);
            PutVarint((u << 1) ^ (u >> 63 ? ~std::uint64_t{0} : 0));
        }
        if (!bytes_known && bytes >= 15) {
            PutVarint(bytes);
        }
    }

    void
    FlushRun()
    {
        if (run_len_ == 0) {
            return;
        }
        // The run's entries all share last_type_ (a type change breaks
        // the run before it is flushed).
        std::uint8_t header = static_cast<std::uint8_t>(
            0x80 | (last_type_ << 6));
        if (run_len_ <= 63) {
            header |= static_cast<std::uint8_t>(run_len_ - 1);
            data_.push_back(header);
        } else {
            header |= 63;
            data_.push_back(header);
            PutVarint(run_len_ - 64);
        }
        run_len_ = 0;
    }

    void
    EndBlock()
    {
        FlushRun();
        blocks_.push_back(
            {block_start_, static_cast<std::uint32_t>(block_entries_)});
        block_start_ = data_.size();
        block_entries_ = 0;
        ctx_[0] = Context{};
        ctx_[1] = Context{};
        last_type_ = 0;
    }

    std::vector<std::uint8_t> data_;
    std::vector<BlockIndex> blocks_;
    Context ctx_[2];
    std::size_t last_type_ = 0;
    std::uint64_t run_len_ = 0;
    std::size_t block_start_ = 0;
    std::size_t block_entries_ = 0;
    std::size_t entries_ = 0;
    Bytes read_bytes_ = 0;
    Bytes write_bytes_ = 0;
};

/**
 * An immutable encoded access stream.  Replay decodes block-by-block
 * into a stack buffer and feeds the batched sink entry point; nothing
 * proportional to the trace length is ever allocated.
 */
class CompactTrace
{
  public:
    static constexpr std::size_t kBlockEntries =
        CompactTraceEncoder::kBlockEntries;

    CompactTrace() : digest_(ComputeDigest()) {}

    /** One-shot encode of an already-recorded raw trace. */
    static CompactTrace
    Encode(const AccessTrace &trace)
    {
        CompactTraceEncoder enc;
        enc.Append(trace.data(), trace.size());
        return enc.Finish();
    }

    std::size_t size() const { return entries_; }
    bool empty() const { return entries_ == 0; }

    /** Encoded footprint: token bytes plus the block index. */
    Bytes
    SizeBytes() const
    {
        return data_.size() +
               blocks_.size() * sizeof(CompactTraceEncoder::BlockIndex);
    }

    /** Footprint of the equivalent raw (packed 8-byte) trace. */
    Bytes RawBytes() const { return entries_ * sizeof(TraceEntry); }

    double
    BytesPerEntry() const
    {
        return entries_ == 0 ? 0.0
                             : static_cast<double>(SizeBytes()) /
                                   static_cast<double>(entries_);
    }

    /** Raw bytes / encoded bytes (>1 means the codec is winning). */
    double
    CompressionRatio() const
    {
        return SizeBytes() == 0
                   ? 1.0
                   : static_cast<double>(RawBytes()) /
                         static_cast<double>(SizeBytes());
    }

    /** Same O(1) byte totals the raw trace exposes. */
    Bytes TotalBytes() const { return read_bytes_ + write_bytes_; }
    Bytes read_bytes() const { return read_bytes_; }
    Bytes write_bytes() const { return write_bytes_; }

    std::size_t BlockCount() const { return blocks_.size(); }

    /**
     * Decode block @p b into @p out (capacity >= kBlockEntries);
     * returns the number of entries written.  Blocks are
     * self-contained, so any subset can be decoded in any order.
     */
    std::size_t DecodeBlock(std::size_t b, TraceEntry *out) const;

    /**
     * Replay every access into @p sink, in order, through the batched
     * fast path — the sink observes exactly the stream the raw trace's
     * ReplayInto would deliver.
     */
    void ReplayInto(MemorySink &sink) const;

    /** Inflate back to a raw trace (tests; memory = RawBytes()). */
    AccessTrace Decode() const;

    /**
     * Content digest of the encoded stream (entry count, byte totals,
     * block structure, and every token byte) — the identity the trace
     * corpus cache and result memo key on.  Two traces with equal
     * digests decode to the same access stream for any practical
     * purpose (64-bit FNV-1a; see common/digest.h).  A trace cannot
     * change once built, so Finish() and LoadFrom() hash it once and
     * this is O(1).
     */
    std::uint64_t Digest() const { return digest_; }

    /**
     * Persist to @p path in the versioned container format (magic,
     * header, block table, token bytes, digest).  The write goes to a
     * sibling temp file first and is renamed into place, so a crash or
     * signal mid-write never leaves a partial file at @p path.
     * Returns false and fills @p error on I/O failure.
     */
    bool SaveTo(const std::string &path, std::string *error = nullptr) const;

    /**
     * Load a trace saved by SaveTo.  Validates magic, version,
     * structural bounds, and the stored content digest; returns
     * nullopt and fills @p error on any mismatch (a truncated or
     * corrupted cache file is reported, never replayed).
     */
    static std::optional<CompactTrace>
    LoadFrom(const std::string &path, std::string *error = nullptr);

  private:
    friend class CompactTraceEncoder;

    /** The Digest() formula over the current fields, O(SizeBytes()). */
    std::uint64_t ComputeDigest() const;

    std::vector<std::uint8_t> data_;
    std::vector<CompactTraceEncoder::BlockIndex> blocks_;
    std::size_t entries_ = 0;
    Bytes read_bytes_ = 0;
    Bytes write_bytes_ = 0;
    std::uint64_t digest_ = 0;
};

static_assert(CompactTrace::kBlockEntries == TraceSource::kBlockEntries,
              "the codec block size is the TraceSource block size: "
              "every cursor scratch buffer is sized by the latter");

/**
 * TraceSource view of an in-RAM compact trace: blocks decode into the
 * caller's scratch buffer.  The trace must outlive the view.
 */
class CompactTraceSource final : public TraceSource
{
  public:
    explicit CompactTraceSource(const CompactTrace &trace)
        : trace_(&trace)
    {
    }

    std::uint64_t entries() const override { return trace_->size(); }
    Bytes read_bytes() const override { return trace_->read_bytes(); }
    Bytes write_bytes() const override
    {
        return trace_->write_bytes();
    }
    std::size_t BlockCount() const override
    {
        return trace_->BlockCount();
    }

    Span
    Block(std::size_t b, TraceEntry *scratch) const override
    {
        return Span{scratch, trace_->DecodeBlock(b, scratch)};
    }

    void
    ReplayInto(MemorySink &sink) const override
    {
        trace_->ReplayInto(sink);
    }

  private:
    const CompactTrace *trace_;
};

/**
 * A memory-mapped on-disk compact trace: the out-of-core TraceSource.
 *
 * Open() maps a PIMCTRC1 container (the format CompactTrace::SaveTo
 * writes) read-only with madvise(MADV_SEQUENTIAL) and validates the
 * header and block table without touching the token payload.  Blocks
 * then decode on demand straight from the page cache into the
 * cursor's scratch buffer — nothing proportional to the trace is ever
 * allocated, so replaying a multi-GB corpus holds O(block buffers +
 * hierarchy) resident, and the kernel can evict already-replayed file
 * pages behind the cursor.
 *
 * Digest verification modes:
 *  - kEager: the stored content digest is recomputed over the whole
 *    payload at Open() — a corrupt file never opens;
 *  - kLazy (default): token bytes are folded into an incremental
 *    digest as block decoding first reaches them (the digest is a
 *    sequential fold, so a monotone high-water mark suffices even
 *    when blocks are cursored out of order); when the watermark
 *    covers the payload the result is compared and a mismatch throws
 *    std::runtime_error, then and from every later Block() call on
 *    the same mapping.  A sequential replay therefore ends fully
 *    verified at ~zero extra passes over the data;
 *  - kNone: trust the header digest — for callers that have already
 *    matched header_digest() against an external index (the corpus
 *    cache checks it against the manifest).
 *
 * Decoding is bounds-hardened independently of the digest: a token
 * stream that runs past the payload, overflows a block, or decodes
 * outside the packed address space throws std::runtime_error rather
 * than reading or writing out of bounds, so even kNone never turns a
 * corrupt file into memory corruption.
 *
 * Instances are movable, not copyable.  Block() is safe concurrently
 * (the lazy-verify watermark is internally locked).
 */
class MappedCompactTrace final : public TraceSource
{
  public:
    enum class Verify { kEager, kLazy, kNone };

    MappedCompactTrace() = default;
    ~MappedCompactTrace() override;
    MappedCompactTrace(MappedCompactTrace &&other) noexcept;
    MappedCompactTrace &operator=(MappedCompactTrace &&other) noexcept;
    MappedCompactTrace(const MappedCompactTrace &) = delete;
    MappedCompactTrace &operator=(const MappedCompactTrace &) = delete;

    /**
     * Map the container at @p path.  Returns nullopt (and fills
     * @p error) on open/size/header/block-table problems, or on a
     * digest mismatch under Verify::kEager.
     */
    static std::optional<MappedCompactTrace>
    Open(const std::string &path, std::string *error = nullptr,
         Verify verify = Verify::kLazy);

    // TraceSource cursor.
    std::uint64_t entries() const override { return entries_; }
    Bytes read_bytes() const override { return read_bytes_; }
    Bytes write_bytes() const override { return write_bytes_; }
    std::size_t BlockCount() const override { return blocks_.size(); }
    Span Block(std::size_t b, TraceEntry *scratch) const override;

    /** The content digest stored in the container header. */
    std::uint64_t header_digest() const { return digest_; }

    /** Encoded footprint on disk == bytes mapped. */
    Bytes SizeBytes() const { return map_len_; }
    /** Footprint of the equivalent decoded (packed 8-byte) trace. */
    Bytes RawBytes() const { return entries_ * sizeof(TraceEntry); }

    const std::string &path() const { return path_; }

  private:
    struct LazyVerify; // incremental digest watermark (trace_codec.cc)

    void Unmap();

    std::string path_;
    void *map_ = nullptr;         ///< Whole-file mapping (or null).
    std::size_t map_len_ = 0;
    const std::uint8_t *tokens_ = nullptr; ///< Payload start.
    std::uint64_t token_bytes_ = 0;
    std::vector<CompactTraceEncoder::BlockIndex> blocks_;
    std::uint64_t entries_ = 0;
    Bytes read_bytes_ = 0;
    Bytes write_bytes_ = 0;
    std::uint64_t digest_ = 0;
    std::unique_ptr<LazyVerify> lazy_; ///< Null unless Verify::kLazy.
};

/**
 * A tee that compact-encodes every access while forwarding it to the
 * level below — the codec twin of TraceRecorder, for recording
 * straight into the compact form without a raw intermediate.
 */
class CompactTraceRecorder final : public MemorySink
{
  public:
    explicit CompactTraceRecorder(MemorySink &below) : below_(&below) {}

    void
    Access(Address addr, Bytes bytes, AccessType type) override
    {
        encoder_.Append(addr, bytes, type);
        below_->Access(addr, bytes, type);
    }

    void
    AccessBatch(const TraceEntry *entries, std::size_t count) override
    {
        encoder_.Append(entries, count);
        below_->AccessBatch(entries, count);
    }

    CompactTraceEncoder &encoder() { return encoder_; }

    /** Seal and return the recording (the encoder resets to empty). */
    CompactTrace Finish() { return encoder_.Finish(); }

  private:
    CompactTraceEncoder encoder_;
    MemorySink *below_;
};

} // namespace pim::sim

#endif // PIM_SIM_TRACE_CODEC_H
