/**
 * @file
 * Memory access trace recording and replay.
 *
 * The paper's methodology is trace-heavy (the repro gate this project
 * works around): kernels were profiled once and their traffic analyzed
 * under different memory organizations.  This module provides the same
 * leverage — record a kernel's access stream once, then replay it
 * through any hierarchy (different LLC sizes, PIM configurations,
 * line sizes) without re-running the kernel's computation.
 *
 * Entries are stored packed (8 bytes each; see TraceEntry), so a
 * 100M-access trace is 800 MB -> 800 MB of linear streaming, half the
 * pre-packing footprint, and replay goes through the sink's batched
 * entry point instead of one virtual call per access.
 */

#ifndef PIM_SIM_TRACE_H
#define PIM_SIM_TRACE_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/access.h"

namespace pim::sim {

/**
 * The streaming trace abstraction every replay engine consumes: a
 * pull-based block cursor over an ordered access stream.  The trace is
 * exposed as BlockCount() consecutive blocks of at most kBlockEntries
 * decoded entries each; Block(b, scratch) yields block b as a span of
 * packed TraceEntry words, either pointing into storage the source
 * already owns (in-RAM raw traces) or into the caller-provided scratch
 * buffer the source decoded into (compact and memory-mapped forms).
 *
 * Contract:
 *  - blocks partition the stream in order: concatenating the spans of
 *    blocks 0..BlockCount()-1 reproduces exactly the entry sequence
 *    ReplayInto delivers, so counters derived through the cursor are
 *    bit-identical to any whole-trace replay (AccessBatch is
 *    batch-size invariant);
 *  - `scratch` must have capacity for kBlockEntries entries; the span
 *    is valid until the next use of the same scratch buffer (spans
 *    into source-owned storage live as long as the source);
 *  - Block() is const and safe to call concurrently from multiple
 *    threads *with distinct scratch buffers* — the sharded replay
 *    partitions blocks in parallel through one shared source.
 *
 * See DESIGN.md §5j for the full contract and the rationale.
 */
class TraceSource
{
  public:
    /** Max entries per block == the compact codec's block size. */
    static constexpr std::size_t kBlockEntries = 4096;

    /** One decoded block: a pointer/count pair of packed entries. */
    struct Span
    {
        const TraceEntry *data = nullptr;
        std::size_t count = 0;
    };

    virtual ~TraceSource() = default;

    /** Total entries / O(1) byte totals of the whole stream. */
    virtual std::uint64_t entries() const = 0;
    virtual Bytes read_bytes() const = 0;
    virtual Bytes write_bytes() const = 0;
    Bytes TotalBytes() const { return read_bytes() + write_bytes(); }
    bool empty() const { return entries() == 0; }

    /** Number of blocks (== ceil(entries / kBlockEntries)). */
    virtual std::size_t BlockCount() const = 0;

    /**
     * Decode block @p b, using @p scratch (capacity >= kBlockEntries)
     * when the source has no resident decoded form.  Blocks are
     * self-contained: any subset may be cursored in any order.
     */
    virtual Span Block(std::size_t b, TraceEntry *scratch) const = 0;

    /**
     * Replay every access into @p sink in order through the batched
     * fast path.  The default walks the block cursor with a stack
     * scratch buffer; sources with a faster whole-stream path
     * override it (the counters cannot differ — see the contract).
     */
    virtual void
    ReplayInto(MemorySink &sink) const
    {
        alignas(64) TraceEntry buffer[kBlockEntries];
        const std::size_t blocks = BlockCount();
        for (std::size_t b = 0; b < blocks; ++b) {
            const Span span = Block(b, buffer);
            if (span.count != 0) {
                sink.AccessBatch(span.data, span.count);
            }
        }
    }
};

/** A recorded access stream. */
class AccessTrace
{
  public:
    void
    Append(Address addr, Bytes bytes, AccessType type)
    {
        if (entries_.size() == entries_.capacity()) {
            Grow(1);
        }
        entries_.emplace_back(addr, bytes, type);
        if (type == AccessType::kRead) {
            read_bytes_ += bytes;
        } else {
            write_bytes_ += bytes;
        }
    }

    /** Bulk-append @p count already-packed entries. */
    void
    Append(const TraceEntry *entries, std::size_t count)
    {
        if (entries_.size() + count > entries_.capacity()) {
            Grow(count);
        }
        entries_.insert(entries_.end(), entries, entries + count);
        for (std::size_t i = 0; i < count; ++i) {
            if (entries[i].type() == AccessType::kRead) {
                read_bytes_ += entries[i].bytes();
            } else {
                write_bytes_ += entries[i].bytes();
            }
        }
    }

    /** Pre-size the backing store for @p count total entries. */
    void Reserve(std::size_t count) { entries_.reserve(count); }

    /**
     * Release the geometric-growth slack: after recording finishes the
     * backing store may hold up to 2x the entries actually appended;
     * long recordings should shrink before the trace is kept around
     * for replay.  (ExecutionContext::DetachTrace does this.)
     */
    void ShrinkToFit() { entries_.shrink_to_fit(); }

    std::size_t size() const { return entries_.size(); }
    std::size_t capacity() const { return entries_.capacity(); }

    /** Bytes of entry storage in use / currently reserved. */
    Bytes SizeBytes() const { return size() * sizeof(TraceEntry); }
    Bytes CapacityBytes() const
    {
        return capacity() * sizeof(TraceEntry);
    }
    bool empty() const { return entries_.empty(); }
    const TraceEntry &operator[](std::size_t i) const
    {
        return entries_[i];
    }
    const TraceEntry *data() const { return entries_.data(); }

    /**
     * Total bytes accessed (reads + writes).  O(1): running totals are
     * maintained by Append rather than re-scanning the entry array
     * (this is queried per kernel per report, and traces reach 10^8
     * entries).
     */
    Bytes TotalBytes() const { return read_bytes_ + write_bytes_; }

    /** Bytes accessed by reads / by writes, also O(1). */
    Bytes read_bytes() const { return read_bytes_; }
    Bytes write_bytes() const { return write_bytes_; }

    /** Replay every access into @p sink, in order (batched fast path). */
    void
    ReplayInto(MemorySink &sink) const
    {
        sink.AccessBatch(entries_.data(), entries_.size());
    }

    /**
     * Reference replay path: one virtual Access call per entry, exactly
     * what ReplayInto did before batching existed.  Kept so equivalence
     * tests can compare against it and feed the reference cache model.
     */
    void
    ReplayIntoScalar(MemorySink &sink) const
    {
        for (const auto &e : entries_) {
            sink.Access(e.addr(), e.bytes(), e.type());
        }
    }

    auto begin() const { return entries_.begin(); }
    auto end() const { return entries_.end(); }

  private:
    /**
     * Grow capacity geometrically with a large starting block.  The
     * default vector growth would reallocate-and-copy dozens of times
     * while a kernel streams tens of millions of entries through
     * Append; reserving up front keeps the recorder itself from
     * thrashing the host caches it is trying to measure around.
     */
    void
    Grow(std::size_t at_least)
    {
        static constexpr std::size_t kInitialEntries = 1 << 16;
        std::size_t want = entries_.capacity() == 0
                               ? kInitialEntries
                               : entries_.capacity() * 2;
        while (want < entries_.size() + at_least) {
            want *= 2;
        }
        entries_.reserve(want);
    }

    std::vector<TraceEntry> entries_;
    Bytes read_bytes_ = 0;
    Bytes write_bytes_ = 0;
};

/**
 * TraceSource view of an in-RAM raw trace.  Blocks are zero-copy
 * spans into the packed entry array; the trace must outlive the view.
 */
class AccessTraceSource final : public TraceSource
{
  public:
    explicit AccessTraceSource(const AccessTrace &trace)
        : trace_(&trace)
    {
    }

    std::uint64_t entries() const override { return trace_->size(); }
    Bytes read_bytes() const override { return trace_->read_bytes(); }
    Bytes write_bytes() const override
    {
        return trace_->write_bytes();
    }

    std::size_t
    BlockCount() const override
    {
        return (trace_->size() + kBlockEntries - 1) / kBlockEntries;
    }

    Span
    Block(std::size_t b, TraceEntry * /*scratch*/) const override
    {
        const std::size_t begin = b * kBlockEntries;
        const std::size_t count =
            std::min(kBlockEntries, trace_->size() - begin);
        return Span{trace_->data() + begin, count};
    }

    /** The raw trace replays as ONE batch — same counters, no loop. */
    void
    ReplayInto(MemorySink &sink) const override
    {
        trace_->ReplayInto(sink);
    }

  private:
    const AccessTrace *trace_;
};

/**
 * A tee: forwards every access to the level below while appending it
 * to a trace.  Interpose between a kernel and its hierarchy to capture
 * the stream without perturbing the measurement.
 */
class TraceRecorder final : public MemorySink
{
  public:
    TraceRecorder(AccessTrace &trace, MemorySink &below)
        : trace_(&trace), below_(&below)
    {
    }

    /** The trace being appended to. */
    AccessTrace &trace() { return *trace_; }

    void
    Access(Address addr, Bytes bytes, AccessType type) override
    {
        trace_->Append(addr, bytes, type);
        below_->Access(addr, bytes, type);
    }

    void
    AccessBatch(const TraceEntry *entries, std::size_t count) override
    {
        trace_->Append(entries, count);
        below_->AccessBatch(entries, count);
    }

  private:
    AccessTrace *trace_;
    MemorySink *below_;
};

} // namespace pim::sim

#endif // PIM_SIM_TRACE_H
