/**
 * @file
 * Set-associative write-back, write-allocate cache model with LRU
 * replacement.
 *
 * This is a *functional traffic* model: it tracks tags and dirty bits to
 * produce hit/miss/writeback counts and the miss stream it forwards to the
 * level below.  It does not store data (kernels compute on host memory).
 *
 * The probe path is the simulator's hot loop, so it is engineered for
 * throughput while staying counter-for-counter identical to the naive
 * probe-every-way formulation:
 *  - line metadata is structure-of-arrays: one contiguous `Address`
 *    tag plane (64-byte aligned, invalid slots holding a sentinel)
 *    plus packed lru/valid/dirty planes, so a set's ways sit in
 *    consecutive tag lanes and a tag-only scalar loop tests residency
 *    for the whole set,
 *  - set index and line alignment are shifts/masks precomputed at
 *    construction; non-power-of-two set counts use a fixed-point
 *    reciprocal (FastDiv) instead of a hardware divide per probe,
 *  - consecutive probes to the same line (the dominant pattern of
 *    sequential kernels) are coalesced through a one-entry filter that
 *    skips the set search entirely, and
 *  - batched streams enter through AccessBatch, paying one virtual
 *    dispatch per batch instead of per access, with a registerized
 *    hit-run inner loop that probes full sets by tag alone.
 *
 * Counter equivalence across layouts: way *positions* never influence
 * the statistics.  Hits are found by tag (any way), replacement picks
 * an invalid way or the unique minimum LRU stamp, and stamps travel
 * with their lines when ways are swapped — so the scalar and batched
 * engines produce bit-identical CacheStats on any stream.
 */

#ifndef PIM_SIM_CACHE_H
#define PIM_SIM_CACHE_H

#include <cstdint>
#include <string>
#include <vector>

#include <array>

#include "common/aligned.h"
#include "common/fastdiv.h"
#include "common/types.h"
#include "sim/access.h"

namespace pim::sim {

/**
 * Write policy of one cache level.
 *
 * The non-default policies exist for the design-study axis the paper
 * sweeps (write traffic sensitivity); both are phrased so the one-pass
 * stack profiler can reproduce them exactly from a single replay (see
 * stack_profiler.h and DESIGN.md §5i):
 *  - write-through keeps residency identical to write-back (writes
 *    still allocate and promote) but sends every write below and never
 *    dirties a line, so writebacks are exactly 0;
 *  - no-write-allocate is the *non-promoting* variant: writes neither
 *    allocate nor update replacement state, so residency is decided by
 *    the read stream alone — the property that keeps LRU inclusion
 *    (and hence one-pass profiling) exact at every associativity.
 */
enum class WritePolicy : std::uint8_t
{
    kWriteBackAllocate = 0,    ///< Default: write-back, write-allocate.
    kWriteThroughAllocate = 1, ///< Write-through, write-allocate.
    /** Write-through, no-write-allocate, non-promoting writes. */
    kWriteThroughNoAllocate = 2,
};

/** Short stable spelling for reports and memo keys ("wb"/"wt"/"wtna"). */
const char *WritePolicyName(WritePolicy policy);

/** Geometry and identity of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    Bytes size = 64_KiB;
    std::uint32_t associativity = 4;
    Bytes line_bytes = kCacheLineBytes;
    WritePolicy policy = WritePolicy::kWriteBackAllocate;
};

/** Aggregate statistics for one cache level. */
struct CacheStats
{
    std::uint64_t read_hits = 0;
    std::uint64_t read_misses = 0;
    std::uint64_t write_hits = 0;
    std::uint64_t write_misses = 0;
    std::uint64_t writebacks = 0;

    std::uint64_t Hits() const { return read_hits + write_hits; }
    std::uint64_t Misses() const { return read_misses + write_misses; }
    std::uint64_t Accesses() const { return Hits() + Misses(); }

    double
    MissRate() const
    {
        const auto total = Accesses();
        return total == 0 ? 0.0
                          : static_cast<double>(Misses()) /
                                static_cast<double>(total);
    }

    /** Accumulate another level-slice's counters (sharded replay). */
    CacheStats &
    operator+=(const CacheStats &other)
    {
        read_hits += other.read_hits;
        read_misses += other.read_misses;
        write_hits += other.write_hits;
        write_misses += other.write_misses;
        writebacks += other.writebacks;
        return *this;
    }
};

/**
 * Precomputed set-indexing geometry of one cache level: the
 * shift/mask pipeline every probe uses, derived once from a
 * CacheConfig (with the config validity checks).  Shared between
 * Cache itself and the set-sharded replay partitioner, which must
 * route accesses by the *same* set function the cache will apply.
 */
struct CacheGeometry
{
    /** Validates the config (power-of-two line, divisible size). */
    explicit CacheGeometry(const CacheConfig &config);

    std::size_t num_sets = 0;
    std::uint32_t line_shift = 0; ///< log2(line_bytes)
    Address line_mask = 0;        ///< line_bytes - 1
    std::size_t set_mask = 0;     ///< num_sets - 1, valid when pow2_sets
    bool pow2_sets = false;
    /** Reciprocal of num_sets for the non-power-of-two path. */
    FastDiv set_div;

    /** First byte of the line containing @p addr. */
    Address LineAddr(Address addr) const { return addr & ~line_mask; }

    /** Line number (address / line_bytes). */
    Address LineNumber(Address addr) const { return addr >> line_shift; }

    /** Set index the cache will probe for the line containing @p addr. */
    std::size_t
    SetIndex(Address addr) const
    {
        const Address line_no = addr >> line_shift;
        // Power-of-two set counts take one AND; the rest multiply by
        // the precomputed reciprocal — exact for every 64-bit line
        // number (see common/fastdiv.h) — instead of dividing.
        return pow2_sets
                   ? static_cast<std::size_t>(line_no) & set_mask
                   : static_cast<std::size_t>(set_div.Mod(line_no));
    }
};

/**
 * One level of cache.  Accesses are split into line-granular probes; each
 * miss fills the line from the level below and may evict a dirty victim
 * (written back below).
 */
class Cache final : public MemorySink
{
  public:
    /**
     * Invalid slots carry a sentinel tag no batched line address can
     * have: trace entries are capped at TraceEntry::kMaxAddr (40 bits),
     * so all-ones never equals a batched line address and both the
     * batched fast path and the scalar set probe can test residency
     * with the tag compare alone.  The valid plane stays authoritative
     * for the scalar paths (which accept full 64-bit addresses — a
     * scalar probe whose line address aliases the sentinel takes a
     * valid-checked scan) and for victim selection.
     */
    static constexpr Address kInvalidTag = ~Address{0};

    /**
     * @param config geometry; size must be divisible by
     *               associativity * line_bytes.
     * @param below  next level (LLC or DRAM counter); not owned.
     */
    Cache(const CacheConfig &config, MemorySink &below);

    void Access(Address addr, Bytes bytes, AccessType type) override;
    void AccessBatch(const TraceEntry *entries,
                     std::size_t count) override;

    /** Invalidate every line, writing back dirty ones. */
    void FlushAll();

    /**
     * Flush (writeback + invalidate) all cached lines overlapping
     * [base, base + bytes).  Returns the number of lines flushed; dirty
     * writebacks are sent below and counted in stats.
     *
     * Used by the offload runtime's coherence protocol.
     */
    std::uint64_t FlushRange(Address base, Bytes bytes);

    /** True if the line containing @p addr is resident. */
    bool Contains(Address addr) const;

    const CacheStats &stats() const { return stats_; }
    const CacheConfig &config() const { return config_; }
    const CacheGeometry &geometry() const { return geom_; }

    /** Zero the statistics; contents are kept. */
    void ResetStats() { stats_ = CacheStats{}; }

  private:
    void AccessSpan(Address addr, Bytes bytes, AccessType type);
    void ProbeLine(Address line_addr, AccessType type);
    void AccessLine(Address line_addr, AccessType type);
    void PolicyWriteLine(Address line_addr);
    void EmitBelow(Address addr, Bytes bytes, AccessType type);
    void FlushBelow();

    std::size_t
    SetIndex(Address line_addr) const
    {
        return geom_.SetIndex(line_addr);
    }

    /**
     * Swap two slots across all four planes.  LRU stamps move with
     * their lines, so replacement decisions are unchanged by position.
     */
    void
    SwapSlots(std::size_t a, std::size_t b)
    {
        std::swap(tags_[a], tags_[b]);
        std::swap(lru_[a], lru_[b]);
        std::swap(valid_[a], valid_[b]);
        std::swap(dirty_[a], dirty_[b]);
    }

    CacheConfig config_;
    MemorySink *below_;
    // Precomputed set-index geometry (shifts and masks instead of
    // / and % on every probe); also consumed by PlanForPass
    // (sim/sharded_replay.h).
    CacheGeometry geom_;

    // SoA line metadata, indexed by slot = set * associativity + way.
    // The tag plane is cache-line aligned; invalid slots hold
    // kInvalidTag so the set probes can compare tags alone.
    AlignedVector<Address> tags_;
    std::vector<std::uint64_t> lru_; // larger == more recently used
    std::vector<std::uint8_t> valid_;
    std::vector<std::uint8_t> dirty_;

    std::uint64_t tick_ = 0;
    CacheStats stats_;

    // Combined slot addressing for the batched fast path:
    // set * assoc == (line >> slot_shift_) & slot_mask_, one shift and
    // one mask with no multiply in the load-address chain.  Valid only
    // when sets and associativity are powers of two (fast_batch_).
    std::uint32_t slot_shift_ = 0;
    std::size_t slot_mask_ = 0;
    bool fast_batch_ = false;

    // One-entry coalescing filter: the slot touched by the previous
    // scalar probe.  Validity is re-checked by tag on every use (the
    // slot may have been refilled or swapped since), so the filter can
    // never produce a stale hit; it only short-circuits the set search.
    static constexpr std::size_t kNoSlot = ~std::size_t{0};
    std::size_t last_slot_ = kNoSlot;

    // During AccessBatch, miss traffic (fills and writebacks) is staged
    // here and forwarded via below_->AccessBatch in the original emit
    // order — the level below sees the identical event sequence, minus
    // one virtual call (and the register spills around it) per event.
    // The buffer is always drained before AccessBatch returns, so no
    // public entry point can observe deferred traffic.
    static constexpr std::size_t kBelowBatch = 512;
    std::array<TraceEntry, kBelowBatch> below_buf_;
    std::size_t below_n_ = 0;
    bool batching_below_ = false;
};

} // namespace pim::sim

#endif // PIM_SIM_CACHE_H
