/**
 * @file
 * Memory access primitives: the stream interface between instrumented
 * workload kernels and the memory-hierarchy models.
 *
 * Kernels perform real computation on host memory and, alongside, report
 * every simulated load/store to a MemorySink.  The sink is typically the
 * top of a cache hierarchy; the terminal sink is a DRAM counter.
 *
 * Sinks accept accesses one at a time (Access) or as a packed batch
 * (AccessBatch).  The batched form exists because trace replay is the
 * simulator's hot path: replaying hundreds of millions of entries one
 * virtual call at a time is dominated by dispatch overhead, so sinks on
 * that path override AccessBatch and amortize it.
 */

#ifndef PIM_SIM_ACCESS_H
#define PIM_SIM_ACCESS_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "common/types.h"

namespace pim::sim {

/** Direction of a memory access. */
enum class AccessType { kRead, kWrite };

/**
 * One recorded access, packed into a single 64-bit word so traces of
 * hundreds of millions of entries stay cache-resident during replay:
 *
 *   bit  63     access type (0 = read, 1 = write)
 *   bits 62..40 byte count (23 bits, accesses up to 8 MiB - 1)
 *   bits 39..0  simulated byte address (40 bits, 1 TiB address space)
 *
 * Both limits are far above what the instrumented kernels produce
 * (SimAddressSpace is a bump allocator starting at 256 MiB; kernel
 * accesses are at most a few frames' worth of bytes); the constructor
 * asserts them so a violation is loud rather than silently wrapped.
 *
 * The 40-bit address cap is also load-bearing for the replay engines:
 * Cache marks invalid slots with an all-ones sentinel tag and tests
 * residency on the batched paths with the tag compare alone,
 * which is sound only because no packed entry's line address can ever
 * equal the sentinel (see the static_assert below and the matching
 * construction-time check in Cache).
 */
struct TraceEntry
{
    static constexpr std::uint32_t kAddrBits = 40;
    static constexpr std::uint32_t kBytesBits = 23;
    static constexpr Address kMaxAddr =
        (Address{1} << kAddrBits) - 1;
    static constexpr Bytes kMaxBytes = (Bytes{1} << kBytesBits) - 1;

    std::uint64_t word = 0;

    TraceEntry() = default;

    TraceEntry(Address addr, Bytes bytes, AccessType type)
    {
        PIM_ASSERT(addr <= kMaxAddr,
                   "trace address 0x%llx exceeds %u-bit space",
                   static_cast<unsigned long long>(addr), kAddrBits);
        PIM_ASSERT(bytes <= kMaxBytes,
                   "trace access of %llu bytes exceeds %u-bit count",
                   static_cast<unsigned long long>(bytes), kBytesBits);
        word = addr |
               (static_cast<std::uint64_t>(bytes) << kAddrBits) |
               (static_cast<std::uint64_t>(type == AccessType::kWrite)
                << 63);
    }

    Address addr() const { return word & kMaxAddr; }
    Bytes bytes() const { return (word >> kAddrBits) & kMaxBytes; }
    AccessType
    type() const
    {
        return (word >> 63) != 0 ? AccessType::kWrite
                                 : AccessType::kRead;
    }
};

static_assert(sizeof(TraceEntry) == 8,
              "TraceEntry must stay one 64-bit word");
static_assert(TraceEntry::kMaxAddr < ~Address{0},
              "packed trace addresses must stay below the all-ones "
              "invalid-tag sentinel the cache planes rely on");

/**
 * Receiver of a stream of memory accesses.
 *
 * Implementations: Cache (forwards misses downward), DramCounter
 * (terminal), TrafficTap (pass-through byte counter).
 */
class MemorySink
{
  public:
    virtual ~MemorySink() = default;

    /**
     * Process an access.  @p addr is a simulated address; @p bytes may
     * span multiple cache lines (implementations split as needed).
     */
    virtual void Access(Address addr, Bytes bytes, AccessType type) = 0;

    /**
     * Process @p count packed accesses in order.  Semantically identical
     * to calling Access once per entry — the default does exactly that —
     * but sinks on the replay hot path (Cache, DramCounter,
     * TraceRecorder) override it to amortize virtual dispatch across the
     * whole batch.  Counters must be bit-identical to the scalar path.
     */
    virtual void
    AccessBatch(const TraceEntry *entries, std::size_t count)
    {
        for (std::size_t i = 0; i < count; ++i) {
            Access(entries[i].addr(), entries[i].bytes(),
                   entries[i].type());
        }
    }
};

/** A sink that discards accesses (used to run kernels untraced). */
class NullSink final : public MemorySink
{
  public:
    void Access(Address, Bytes, AccessType) override {}
    void AccessBatch(const TraceEntry *, std::size_t) override {}
};

/**
 * Forwards every access to each of N downstream sinks, in registration
 * order.  The point is replay economics: one decoded batch is fed to
 * all consumers while it is still cache-resident, instead of each
 * consumer taking its own cold pass over the stream.  Used standalone
 * (e.g. feeding a bank model and a vault analyzer from one pass) and
 * by SweepRunner::ProfileStudy, where one L1's miss batches fan out to
 * every profiling pass of its design grid.
 */
class FanoutSink final : public MemorySink
{
  public:
    FanoutSink() = default;
    explicit FanoutSink(std::vector<MemorySink *> sinks)
        : sinks_(std::move(sinks))
    {
    }

    void AddSink(MemorySink &sink) { sinks_.push_back(&sink); }
    std::size_t sink_count() const { return sinks_.size(); }

    void
    Access(Address addr, Bytes bytes, AccessType type) override
    {
        for (MemorySink *s : sinks_) {
            s->Access(addr, bytes, type);
        }
    }

    void
    AccessBatch(const TraceEntry *entries, std::size_t count) override
    {
        for (MemorySink *s : sinks_) {
            s->AccessBatch(entries, count);
        }
    }

  private:
    std::vector<MemorySink *> sinks_;
};

/**
 * Convenience wrapper kernels hold by reference: read/write verbs plus a
 * running total, independent of what hierarchy sits behind it.
 */
class MemPort
{
  public:
    explicit MemPort(MemorySink &sink) : sink_(&sink) {}

    /** Re-point the port at a different sink (e.g., a trace tee). */
    void Rebind(MemorySink &sink) { sink_ = &sink; }

    void
    Read(Address addr, Bytes bytes)
    {
        bytes_read_ += bytes;
        sink_->Access(addr, bytes, AccessType::kRead);
    }

    void
    Write(Address addr, Bytes bytes)
    {
        bytes_written_ += bytes;
        sink_->Access(addr, bytes, AccessType::kWrite);
    }

    Bytes bytes_read() const { return bytes_read_; }
    Bytes bytes_written() const { return bytes_written_; }

    /** Reset the running byte totals (the sink keeps its own stats). */
    void
    ResetTotals()
    {
        bytes_read_ = 0;
        bytes_written_ = 0;
    }

  private:
    MemorySink *sink_;
    Bytes bytes_read_ = 0;
    Bytes bytes_written_ = 0;
};

} // namespace pim::sim

#endif // PIM_SIM_ACCESS_H
