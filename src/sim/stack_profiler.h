/**
 * @file
 * Mattson-style LRU stack-distance profiler: one pass over an access
 * stream yields hit/miss counts for *every* associativity of a
 * set-indexed LRU cache — the one-pass half of the sweep engine.
 *
 * The classic observation (Mattson et al., 1970) is that LRU obeys the
 * inclusion property: the content of an A-way LRU set is exactly the A
 * most-recently-used lines that map to it.  So if every line-granular
 * probe records its *stack distance* — how many distinct lines of its
 * set were touched since the line's previous access — then, for any
 * associativity A at this set count,
 *
 *     probe hits in an A-way cache  <=>  stack distance < A.
 *
 * One profiling pass therefore replaces an N-point sweep with N
 * histogram lookups.  A capacity sweep phrased at a fixed set count
 * (capacity = num_sets x assoc x line) is exact from a single pass; a
 * sweep that varies the set count needs one pass per distinct
 * (line_bytes, num_sets) pair, which the SweepRunner profiler engines
 * group automatically.
 *
 * Generalizations beyond the single write-back ladder (see DESIGN.md
 * §5i for the full exact-vs-modeled accounting):
 *
 *  - *Write policies.*  One allocating pass answers both write-back
 *    and write-through-allocate points (residency is identical; the
 *    policies differ only in below-traffic, which the readout
 *    derives).  No-write-allocate is profiled by a pass with
 *    `write_allocate = false`, where write probes record their
 *    distance but neither insert nor promote — the non-promoting
 *    variant of NWA that sim::Cache implements, which preserves LRU
 *    inclusion (residency depends on the read stream alone) and hence
 *    one-pass exactness at every associativity.
 *
 *  - *Prefetcher model.*  An optional next-line stream prefetcher is
 *    layered on the probe stream without perturbing the stacks: a
 *    sequential pair of line probes issues a prefetch for the next
 *    line, and when a later demand probe touches a prefetched line its
 *    stack distance tells, for every associativity at once, whether
 *    the prefetch was useful (the demand would have missed) or
 *    redundant (it would have hit anyway).  This axis is a *model* —
 *    idealized timing, unbounded prefetch buffer — not a bit-exact
 *    hardware statement.
 *
 *  - *Snapshots.*  The analytic state (histograms + tracked writeback
 *    counters) is a plain value, StackProfile, detachable from the
 *    live stacks via Snapshot().  A snapshot answers every readout the
 *    live profiler can, so services can memoize one profiling pass and
 *    serve later queries — including associativities never requested
 *    the first time — without re-replaying.
 *
 *  - *Depth bound.*  StackProfilerConfig::max_assoc caps every per-set
 *    stack at the largest associativity the pass will be read at.  An
 *    entry at depth >= max_assoc misses in every cache of max_assoc
 *    ways or fewer, and has already crossed every tracked writeback
 *    boundary (so its tracked dirty bits are clear): dropping it
 *    changes no readout up to the cap.  What the cap does change is
 *    the meaning of the "far" counts: a far probe is one whose line is
 *    not among the top max_assoc lines of its set — a first touch or a
 *    reuse deeper than the cap.  Unbounded (max_assoc = 0), far means
 *    exactly "first touch".  Readouts above the cap assert; they never
 *    return a wrong number.  The bound turns a streaming pass's
 *    O(N x footprint / sets) tag scans into O(N x max_assoc).
 *
 * Exactness:
 *  - hit/miss counts (read/write split included) are *exact* for any
 *    associativity — bit-identical to replaying the stream through
 *    sim::Cache with the same (line_bytes, num_sets, assoc, policy)
 *    geometry, because Cache implements true per-set LRU;
 *  - write-back counts are NOT derivable from the distance histogram
 *    alone (dirtiness depends on eviction history, which differs per
 *    associativity).  For the associativities listed in
 *    StackProfilerConfig::tracked_assocs (up to 64 of them) the
 *    profiler tracks dirty state per tracked point and counts
 *    evictions of dirty lines exactly, making write-back — and hence
 *    DRAM write traffic — bit-identical too.  Untracked
 *    associativities get hits/misses only; their writeback readout is
 *    0 with WritebacksExact() == false and a one-time warning.  Under
 *    the write-through policies nothing is ever dirty, so writebacks
 *    are exactly 0 at *every* associativity, tracked or not.
 *
 * The profiler is a MemorySink, so it can be driven by any
 * TraceSource::ReplayInto — the in-RAM AccessTrace/CompactTrace
 * cursors or an mmap-backed MappedCompactTrace streaming an on-disk
 * corpus — or composed under a FanoutSink next to other models, e.g.
 * nested below a sim::Cache L1 whose miss stream it profiles
 * (SweepRunner::ProfileStudy).  AccessBatch is batch-size invariant,
 * so the counters are identical whether the source delivers the whole
 * resident stream at once or decodes one block at a time from disk.
 */

#ifndef PIM_SIM_STACK_PROFILER_H
#define PIM_SIM_STACK_PROFILER_H

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/fastdiv.h"
#include "common/types.h"
#include "sim/access.h"
#include "sim/cache.h"
#include "sim/dram.h"

namespace pim::sim {

/** Geometry of one profiling pass. */
struct StackProfilerConfig
{
    Bytes line_bytes = kCacheLineBytes;
    /** 1 = fully associative (the classic single-stack Mattson case). */
    std::size_t num_sets = 1;
    /**
     * Associativities whose write-back counts are tracked exactly
     * (at most 64; hit/miss counts need no pre-declaration).
     */
    std::vector<std::uint32_t> tracked_assocs;
    /**
     * False profiles the no-write-allocate policy: write probes record
     * their distance but never insert or promote.  An allocating pass
     * (true) answers both write-back and write-through-allocate
     * points; a non-allocating pass answers only no-write-allocate.
     */
    bool write_allocate = true;
    /** Layer the next-line stream-prefetcher model on the probes. */
    bool model_prefetcher = false;
    /**
     * Depth bound of every per-set stack: the largest associativity
     * this pass will be read at (0 = unbounded).  Must be >= every
     * tracked associativity; readouts above it assert.
     */
    std::uint32_t max_assoc = 0;
};

/** Per-associativity readout of the stream-prefetcher model. */
struct PrefetchStats
{
    std::uint64_t issued = 0; ///< Prefetches issued (assoc-independent).
    std::uint64_t useful = 0; ///< Issued lines whose next demand would miss.
    std::uint64_t demand_misses = 0; ///< Demand misses at this assoc.

    /** Fraction of issued prefetches that were useful. */
    double
    Accuracy() const
    {
        return issued == 0 ? 0.0
                           : static_cast<double>(useful) /
                                 static_cast<double>(issued);
    }

    /** Fraction of demand misses a useful prefetch would have covered. */
    double
    Coverage() const
    {
        return demand_misses == 0
                   ? 0.0
                   : static_cast<double>(useful) /
                         static_cast<double>(demand_misses);
    }
};

/**
 * The analytic result of one profiling pass: histograms, far counts,
 * and tracked writeback counters as a plain value with the O(histogram)
 * readout methods.  Copyable, serializable field-by-field, and
 * sufficient to answer any associativity/policy query the pass
 * supports — the memoizable form of a pass (pim_serve stores these).
 */
struct StackProfile
{
    Bytes line_bytes = kCacheLineBytes;
    std::size_t num_sets = 1;
    bool write_allocate = true;
    /** The pass's depth bound (StackProfilerConfig::max_assoc). */
    std::uint32_t max_assoc = 0;

    /** Reuse-distance histograms (index = stack distance). */
    std::vector<std::uint64_t> read_hist;
    std::vector<std::uint64_t> write_hist;
    /**
     * Far probe counts: the line was not among the top max_assoc lines
     * of its set (first touch, or a reuse deeper than the cap).  On an
     * unbounded pass, exactly the first touches.
     */
    std::uint64_t read_far = 0;
    std::uint64_t write_far = 0;
    /** Line-granular probes profiled. */
    std::uint64_t probes = 0;

    std::vector<std::uint32_t> tracked; ///< Sorted, deduplicated.
    std::vector<std::uint64_t> writebacks; ///< Parallel to tracked.

    bool prefetcher = false; ///< Whether the prefetch fields are live.
    std::uint64_t prefetches_issued = 0;
    /** Usefulness by the consuming demand's stack distance. */
    std::vector<std::uint64_t> useful_hist;
    std::uint64_t useful_far = 0; ///< Consumed by a far demand probe.

    std::uint64_t TotalReadProbes() const;
    std::uint64_t TotalWriteProbes() const;

    /**
     * Hit/miss counts (exact for any 1 <= @p assoc <= max_assoc under
     * any @p policy this pass supports; an @p assoc above a nonzero
     * max_assoc asserts).  Writebacks are exact when
     * WritebacksExact(assoc, policy); an inexact readout reports 0 and
     * warns once per process.
     */
    CacheStats StatsForAssociativity(
        std::uint32_t assoc,
        WritePolicy policy = WritePolicy::kWriteBackAllocate) const;

    /**
     * True when the writeback count in StatsForAssociativity is exact:
     * always under the write-through policies (nothing is ever dirty),
     * and for tracked associativities under write-back.
     */
    bool WritebacksExact(
        std::uint32_t assoc,
        WritePolicy policy = WritePolicy::kWriteBackAllocate) const;

    /**
     * Traffic the level below this cache would see under @p policy:
     * fills for the policy's allocating misses, plus writebacks
     * (write-back) or one line-sized write per write probe
     * (write-through).  Requires WritebacksExact(assoc, policy).
     */
    DramStats DramTrafficForAssociativity(
        std::uint32_t assoc,
        WritePolicy policy = WritePolicy::kWriteBackAllocate) const;

    /**
     * Prefetcher readout; requires the pass modeled the prefetcher and
     * @p assoc within the depth bound.
     */
    PrefetchStats PrefetchForAssociativity(std::uint32_t assoc) const;

    /** Index into tracked/writebacks, or -1 if not tracked. */
    int TrackedIndex(std::uint32_t assoc) const;

    /**
     * Accumulate @p other into this profile.  Valid when the two
     * profiles come from passes of identical geometry
     * (line_bytes, num_sets, write_allocate, prefetcher flag,
     * max_assoc, tracked list) over DISJOINT set partitions of one
     * stream — the sharded pass shape, where every counter is a sum
     * over per-set contributions and the partitions touch disjoint
     * sets.  Distance histograms, far counts, probe totals, tracked
     * writeback
     * counters, and prefetch counters all add element-wise; the merged
     * profile answers every readout with the bit-identical value the
     * serial pass would have produced.  An empty profile (no probes,
     * histograms empty) is the identity on either side.
     */
    void Merge(const StackProfile &other);
};

/**
 * One-pass reuse-distance profiler over per-set LRU stacks.
 *
 * Feed it a stream (Access / AccessBatch / ReplayInto), then query
 * StatsForAssociativity(A) for any A: the counts are what a
 * sim::Cache of capacity num_sets * A * line_bytes would have
 * produced on the same stream.
 */
class StackDistanceProfiler final : public MemorySink
{
  public:
    explicit StackDistanceProfiler(StackProfilerConfig config);

    void Access(Address addr, Bytes bytes, AccessType type) override;
    void AccessBatch(const TraceEntry *entries,
                     std::size_t count) override;

    /** See StackProfile::StatsForAssociativity. */
    CacheStats
    StatsForAssociativity(
        std::uint32_t assoc,
        WritePolicy policy = WritePolicy::kWriteBackAllocate) const
    {
        return profile_.StatsForAssociativity(assoc, policy);
    }

    /** See StackProfile::DramTrafficForAssociativity. */
    DramStats
    DramTrafficForAssociativity(
        std::uint32_t assoc,
        WritePolicy policy = WritePolicy::kWriteBackAllocate) const
    {
        return profile_.DramTrafficForAssociativity(assoc, policy);
    }

    /** See StackProfile::WritebacksExact. */
    bool
    WritebacksExact(
        std::uint32_t assoc,
        WritePolicy policy = WritePolicy::kWriteBackAllocate) const
    {
        return profile_.WritebacksExact(assoc, policy);
    }

    /** True when writeback counts for @p assoc are tracked exactly. */
    bool
    TracksWritebacks(std::uint32_t assoc) const
    {
        return profile_.TrackedIndex(assoc) >= 0;
    }

    /** See StackProfile::PrefetchForAssociativity. */
    PrefetchStats
    PrefetchForAssociativity(std::uint32_t assoc) const
    {
        return profile_.PrefetchForAssociativity(assoc);
    }

    /** The pass's analytic state as a detachable, memoizable value. */
    const StackProfile &profile() const { return profile_; }

    /** Line-granular probes profiled so far. */
    std::uint64_t probes() const { return profile_.probes; }

    /** Reuse-distance histograms (index = stack distance). */
    const std::vector<std::uint64_t> &read_histogram() const
    {
        return profile_.read_hist;
    }
    const std::vector<std::uint64_t> &write_histogram() const
    {
        return profile_.write_hist;
    }
    /** Far probe counts (see StackProfile::read_far). */
    std::uint64_t far_reads() const { return profile_.read_far; }
    std::uint64_t far_writes() const { return profile_.write_far; }

    const StackProfilerConfig &config() const { return config_; }

    /**
     * Stack slots the arena holds: live entries, the free tail of
     * every slab and the slabs an unbounded pass has outgrown.  What
     * the pass's stacks cost in memory, in entries.
     */
    std::size_t arena_slots() const { return tag_arena_.size(); }

  private:
    /** One set's stack: a slab of the arenas. */
    struct SetSlab
    {
        std::uint32_t offset = 0;   ///< First arena slot (MRU entry).
        std::uint32_t depth = 0;    ///< Live entries.
        std::uint32_t capacity = 0; ///< Slots; 0 until first touched.
    };

    void ProbeLine(Address line_addr, bool is_write);
    /** Give a stack a slab with room for one more entry. */
    void GrowSlab(SetSlab &slab);
    /** Move the live slabs into fresh arenas (unbounded passes). */
    void Repack(std::size_t extra);

    std::size_t
    SetIndex(Address line_addr) const
    {
        const Address line_no = line_addr >> line_shift_;
        // Same shift/mask-or-reciprocal pipeline as CacheGeometry, so
        // the profiler routes lines to sets exactly as Cache would.
        return pow2_sets_
                   ? static_cast<std::size_t>(line_no) & set_mask_
                   : static_cast<std::size_t>(set_div_.Mod(line_no));
    }

    StackProfilerConfig config_;
    std::uint32_t line_shift_ = 0;
    Address line_mask_ = 0;
    std::size_t set_mask_ = 0;
    bool pow2_sets_ = false;
    FastDiv set_div_;

    std::uint64_t full_dirty_mask_ = 0;

    /**
     * Per-set LRU stacks, most recently used first, as slabs of two
     * arenas that share offsets: the tag lane, which the distance
     * search scans, and the parallel lane of per-tracked-assoc dirty
     * bitmasks (bit j set <=> the line is resident *and* dirty in the
     * tracked_[j]-way cache).  Bit j is cleared (with a writeback
     * counted) when the entry sinks past depth tracked_[j]; an entry
     * at depth >= tracked_[j] therefore always has bit j clear.
     *
     * A set gets its slab on first touch, at the end of the arena, so
     * a pass pays memory only for the sets it touches (a sharded pass
     * touches one shard's sets).  A bounded pass's slab holds
     * max_assoc + 1 entries and never grows: a stack holds at most
     * max_assoc entries, max_assoc + 1 transiently while a far
     * insert's bottom entry crosses the last boundary.  An unbounded
     * pass starts a slab at 8 entries and doubles it when full, in
     * place if it ends the arena, else by moving it to the end and
     * abandoning the old slab; a full arena is repacked, which drops
     * the abandoned slabs.  Those of one set sum to less than its live
     * slab, so the arena stays under twice the live capacity, and each
     * live slab is under twice its depth (or 8).
     */
    std::vector<SetSlab> slabs_;
    std::vector<Address> tag_arena_;
    std::vector<std::uint64_t> dirty_arena_;

    /**
     * Stream-prefetcher runtime state (model_prefetcher only): the
     * previous probe's line address for sequential-pair detection, and
     * the set of issued-but-not-yet-demanded prefetch lines.
     */
    Address prev_line_ = ~Address{0};
    std::unordered_set<Address> pending_prefetches_;

    StackProfile profile_; ///< Histograms + tracked counters.
};

} // namespace pim::sim

#endif // PIM_SIM_STACK_PROFILER_H
