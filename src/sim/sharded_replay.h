/**
 * @file
 * Set-sharded profiling passes: intra-trace parallelism for
 * SweepRunner::ProfilePass (sim/sweep.h).
 *
 * The study parallelizes *across* L1 jobs; a single-L1 study — the
 * common `pim_run --sweep=study|llc` and `pim_serve` case — would still
 * be one thread.  SweepRunner::ProfilePass parallelizes *within* one
 * pass, bit-identically:
 *
 * Why sharding by set is exact.  The cache model's and the profiler's
 * counters for a probe depend only on the state of the probed set, and
 * a set's state depends only on the ordered subsequence of probes to
 * that set (per-set LRU; the global tick stamps only ever compare
 * within a set, so any order-preserving relabeling leaves every
 * replacement decision unchanged).  Partition the sets among shards,
 * give each shard private cold state, and route each access to the
 * shard owning its set *preserving trace order within the shard*:
 * every set then sees exactly the probe subsequence it saw serially,
 * so each per-set counter evolution is identical and the totals are
 * the disjoint-union sums (StackProfile::Merge, CacheStats::operator+=).
 *
 * The shard key must respect EVERY level: an L1 set's miss stream
 * feeds fixed profiler sets, so a valid key maps every L1 set and
 * every pass set wholly into one shard.  With power-of-two geometry,
 *   shard(addr) = (addr >> B) & (S - 1)
 * works whenever bits [B, B + log2 S) lie inside every level's
 * set-index bits (PlanForPass).  Block-cyclic striping (B above the
 * line shift) keeps most multi-line accesses inside one shard;
 * accesses that do span a block boundary are split at it — block
 * boundaries are line-aligned, so each cache line still receives
 * exactly the probes, in the order, that Cache::AccessSpan would
 * generate.
 *
 * Raw passes may ride beside the L1: a job's top level is a fanout of
 * its L1 (whose miss stream feeds the nested passes) and of raw-trace
 * passes that see the trace itself — SweepRunner::ProfileStudy hangs
 * its PIM points on the host L1 replays this way.  The raw passes'
 * geometries join the key like any other level.
 *
 * A pass consumes any TraceSource (sim/trace.h) and runs in two phases
 * on SweepRunner::ForEach per *window* of blocks: (A) parallel
 * partition of the window's block cursors into per-(chunk, shard)
 * entry buckets, and (B) one private persistent shard state per shard
 * replaying its buckets in chunk order through the batched fast path.
 * Every source — in-RAM raw or compact, or mmap-backed — streams in
 * windows of 64 blocks per worker, so the raw form of the trace never
 * materializes: peak memory stays O(window buckets + shard state)
 * however long the trace is, and the shard state persists across
 * windows so the counters are exactly those of one uninterrupted pass.
 * When the plan admits fewer than two shards (non-pow2 set counts,
 * prefetcher-model passes, a one-thread budget, PIM_SHARD_PASS=off) —
 * or when a trace entry spans past TraceEntry::kMaxAddr, whose split
 * sub-entries a packed entry cannot represent — ProfilePass runs the
 * same per-shard state as its one-shard case: one copy fed the whole
 * trace through TraceSource::ReplayInto, with no partition and no
 * buckets, which is the serial pass itself.
 */

#ifndef PIM_SIM_SHARDED_REPLAY_H
#define PIM_SIM_SHARDED_REPLAY_H

#include <cstdint>
#include <vector>

#include "sim/cache.h"
#include "sim/stack_profiler.h"

namespace pim::sim {

/** How a profiling pass will (or won't) split its levels. */
struct ShardedReplayPlan
{
    bool supported = false;      ///< False => the one-shard pass.
    unsigned shards = 1;         ///< S, a power of two >= 2 if supported.
    std::uint32_t block_shift = 0; ///< shard = (addr>>shift) & (S-1).
    const char *why = "";        ///< Reason when !supported.
};

/**
 * The sharding a profiling pass would use: one block-cyclic key
 * simultaneously valid for the optional nested L1 (@p l1, may be null
 * for raw-trace passes) and EVERY pass geometry in @p passes and
 * @p raw_passes.  Each level with line 2^l and 2^n sets constrains the
 * key bits to [l, l+n); the key therefore uses bits
 * [shift, shift+log2 S) with shift >= max(l) and
 * shift + log2 S <= min(l+n), which makes the shard a function of
 * each level's set index — so every set's probe subsequence (and each
 * L1 set's victim writebacks) lives wholly in one shard.
 * Unsupported when PIM_SHARD_PASS is off, when any level has a
 * non-pow2 set count, when a pass models the stream prefetcher (its
 * sequential-pair detector couples adjacent lines across sets), or
 * when fewer than two shards fit the common set bits or
 * @p shard_limit.
 */
ShardedReplayPlan
PlanForPass(const CacheConfig *l1,
            const std::vector<StackProfilerConfig> &passes,
            const std::vector<StackProfilerConfig> &raw_passes,
            unsigned shard_limit);

} // namespace pim::sim

#endif // PIM_SIM_SHARDED_REPLAY_H
