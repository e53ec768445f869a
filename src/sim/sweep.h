/**
 * @file
 * SweepRunner: the design-space sweep engine.
 *
 * The paper's methodology (and every ablation binary here) evaluates one
 * recorded kernel stream against many memory organizations.  Two replay
 * engines answer that question:
 *
 *  - ProfileStudy: the fast path for host grids and PIM points.  Each
 *    distinct L1 geometry is simulated once, its miss stream feeding
 *    one Mattson stack-distance profiling pass per LLC (line size,
 *    set count, write-allocate) group while hot, and every LLC design
 *    point is an O(histogram) readout of its group's pass — one pass
 *    covers every capacity phrased at a fixed set count.  A
 *    single-level LLC ladder is the one-L1 case.  PIM points' passes
 *    ride those replays beside the L1.  Every pass runs through
 *    ProfilePass, set-sharded across the worker pool when the
 *    geometry admits it (sim/sharded_replay.h).  See
 *    sim/stack_profiler.h.
 *  - ReplayTrace: the reference path — one full cold replay per
 *    config, for any (heterogeneous) hierarchy.  Kept as the
 *    equivalence baseline; the study must produce bit-identical
 *    counters (tests/test_sweep.cc).
 *
 * Results of both are deterministic and independent of the thread
 * count: each job writes only its own slots, and a replay's counters
 * depend only on the (immutable, shared) trace and the job's private
 * models.
 */

#ifndef PIM_SIM_SWEEP_H
#define PIM_SIM_SWEEP_H

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "sim/hierarchy.h"
#include "sim/perf_counters.h"
#include "sim/stack_profiler.h"
#include "sim/trace.h"

namespace pim::sim {

/**
 * A raw-trace PIM-side target of a study: the in-stack compute's
 * private cache (PIM-Core L1 or PIM-Acc buffer) over the stack's
 * internal memory path — no LLC between them.
 */
struct StudyPimPoint
{
    std::string name;
    CacheConfig l1;
    DramConfig dram;
};

/**
 * The design grid one ProfileStudy call answers from a minimal number
 * of replays: every (l1_points x llc_points) host combination, plus
 * every raw-trace PIM point.  Each LLC point carries its own write
 * policy (CacheConfig::policy); the DRAM path below the LLC is shared
 * by all host points.
 */
struct StudySpec
{
    std::vector<CacheConfig> l1_points;
    std::vector<CacheConfig> llc_points;
    DramConfig dram;
    /** Model the stream prefetcher on every LLC probe stream. */
    bool model_prefetcher = false;
    std::vector<StudyPimPoint> pim_points;
};

/** One design point's counters plus the exactness/model metadata. */
struct StudyPointResult
{
    PerfCounters counters;
    /**
     * False when the writeback (and hence DRAM write) readout is not
     * exact: a write-back point whose associativity exceeded the
     * pass's 64 tracked slots.  Hits/misses are always exact.
     */
    bool writebacks_exact = true;
    /** Stream-prefetcher readout; zeros unless the study modeled it. */
    PrefetchStats prefetch;
};

/** ProfileStudy's output: the host grid, PIM points, and pass counts. */
struct StudyResult
{
    /** host[i][j] = l1_points[i] x llc_points[j]. */
    std::vector<std::vector<StudyPointResult>> host;
    std::vector<StudyPointResult> pim; ///< Parallel to pim_points.
    /**
     * Times the input trace was decoded: one per distinct L1 geometry,
     * or one for a PIM-only study.
     */
    std::size_t trace_replays = 0;
    /** Stack-distance profiling passes executed across all jobs. */
    std::size_t profile_passes = 0;
    /**
     * Largest set-shard count any pass job ran with (1 = every pass
     * ran as one shard: PIM_SHARD_PASS=off, one thread,
     * prefetcher-model passes, or geometries without a valid shard
     * key).  Counters never depend on it — telemetry for attributing
     * study wall-clock.
     */
    unsigned shards = 1;
};

/**
 * One profiling pass (SweepRunner::ProfilePass): the merged profiles
 * of every requested pass geometry, plus the merged counters of the
 * nested L1 when the pass ran one.
 */
struct ShardedPassResult
{
    /** Set shards the pass ran with; 1 = the one-shard (serial) pass. */
    unsigned shards = 1;
    /** Merged L1 counters; default-initialized when no L1 was nested. */
    CacheStats l1;
    /** Merged pass profiles, parallel to the pass config list. */
    std::vector<StackProfile> profiles;
    /** Merged raw-trace pass profiles, parallel to the raw configs. */
    std::vector<StackProfile> raw_profiles;
};

/**
 * Read one design point out of a finished profiling pass: LLC stats,
 * DRAM traffic (read side always exact; write side exact only when the
 * readout is writebacks_exact), and the prefetcher telemetry when the
 * pass modeled it.  The pass may be live (profiler.profile()) or a
 * memoized StackProfile snapshot — pim_serve answers repeat study
 * queries, including untracked associativities, from stored snapshots
 * without any replay.  The caller supplies the L1 half of the
 * counters.
 */
StudyPointResult ReadProfilePoint(const StackProfile &prof,
                                  std::uint32_t assoc,
                                  WritePolicy policy,
                                  bool model_prefetcher);

/**
 * Runs independent jobs across a pool of worker threads.
 *
 * The pool is created per call (sweeps are seconds-long; thread startup
 * is noise) and sized min(threads, jobs).  Jobs must touch only their
 * own state; the runner provides no synchronization beyond the
 * completion barrier of each call.  A job that throws does not
 * std::terminate the process: the first exception is captured, further
 * unclaimed jobs are abandoned, and the exception is rethrown on join.
 */
class SweepRunner
{
  public:
    /**
     * @param threads worker count; 0 means the PIM_SWEEP_THREADS
     *        environment override if set (CI uses it for bounded,
     *        deterministic parallelism), else hardware concurrency.
     */
    explicit SweepRunner(unsigned threads = 0);

    unsigned thread_count() const { return threads_; }

    /**
     * Process-wide default worker count for runners constructed with
     * threads == 0, taking precedence over PIM_SWEEP_THREADS (the
     * benches' --threads flag lands here: flag > env > hardware
     * concurrency).  0 clears the override.  Not synchronized with
     * concurrent SweepRunner construction — set it during CLI parsing.
     */
    static void SetDefaultThreads(unsigned threads);

    /** The current SetDefaultThreads override (0 = none). */
    static unsigned default_threads();

    /**
     * Invoke fn(i) for every i in [0, jobs), distributed over the
     * pool; blocks until all jobs finish.  Jobs are claimed from a
     * shared atomic counter, so long and short jobs load-balance.
     * If a job throws, the first exception (in completion order) is
     * rethrown here after all workers have joined; jobs not yet
     * claimed when the exception occurred are skipped.
     */
    void ForEach(std::size_t jobs,
                 const std::function<void(std::size_t)> &fn) const;

    /**
     * The record-once / replay-many reference primitive: replay
     * @p trace into a fresh cold MemoryHierarchy per config,
     * concurrently, and return each design point's counter snapshot in
     * input order.  O(trace x configs) — use ProfileStudy for wide
     * sweeps.
     *
     * Both engines take the trace as a TraceSource (sim/trace.h): the
     * in-RAM raw and compact forms (AccessTraceSource,
     * CompactTraceSource) and the mmap-backed on-disk form all deliver
     * the identical batched entry stream, so counters do not depend on
     * which implementation backs the cursor.
     */
    std::vector<PerfCounters>
    ReplayTrace(const TraceSource &trace,
                const std::vector<HierarchyConfig> &configs) const;

    /**
     * Multi-axis one-pass study: answer the full
     * (L1 geometry x LLC ladder x write policy [x prefetcher]) host
     * grid plus raw-trace PIM points from a minimal number of trace
     * replays.
     *
     * Pass sharing, from cheapest axis up:
     *  - every LLC associativity (= capacity at a set count) in a
     *    (line_bytes, set count, write-allocate) group is answered by
     *    ONE stack-distance profiling pass;
     *  - write-back and write-through-allocate points share the same
     *    allocating pass (identical residency); no-write-allocate
     *    points get the non-allocating pass of their group;
     *  - every distinct L1 geometry costs exactly one trace replay:
     *    the L1 is simulated once (sim::Cache) with its miss stream
     *    fanning out to the group's nested profilers while hot — the
     *    miss stream is never materialized;
     *  - the PIM points cost no replay of their own: their pass
     *    groups (profilers on the raw trace, no host hierarchy) ride
     *    the L1 replays, group g beside the L1 of replay g mod n, so
     *    each sees the trace itself; a PIM-only study is one replay
     *    with no L1.
     *
     * Every pass is depth-bounded at the largest associativity among
     * its group's points (StackProfilerConfig::max_assoc) — write-back,
     * write-through and no-write-allocate points alike, since all are
     * read out — so a pass's per-probe cost is bounded by that
     * associativity rather than the trace's footprint.
     *
     * So an L x (G passes) x A-point grid costs L replays and
     * L x G + G_pim profiling passes, independent of A.  Counters are
     * bit-identical to ReplayTrace on the equivalent hierarchies
     * wherever writebacks_exact (always, except write-back points
     * beyond 64 tracked associativities per pass — see
     * stack_profiler.h).
     *
     * A single-level LLC ladder over one base hierarchy is the one-L1
     * study: l1_points = {base.l1}, llc_points = the ladder, no PIM
     * points; host[0][i].counters is ladder point i's full
     * PerfCounters.  Each LLC point's size must be divisible by
     * associativity * line_bytes, as for any Cache.
     *
     * Every replay job is one ProfilePass.  A job whose geometries
     * (L1, LLC groups and riding PIM groups) admit a common shard key
     * (sim/sharded_replay.h) runs alone, its set shards spread over
     * the whole worker pool, so even a single-L1 study uses every
     * core; the other jobs (prefetcher-model passes, non-pow2
     * geometries, PIM_SHARD_PASS=off) run side by side, one thread
     * each, as one-shard passes.  StudyResult::shards reports what
     * ran.
     */
    StudyResult ProfileStudy(const TraceSource &trace,
                             const StudySpec &spec) const;

    /**
     * One profiling pass over @p trace: a cold @p l1 (when non-null)
     * whose miss stream fans out to one StackDistanceProfiler per entry
     * of @p passes (fed the trace itself when @p l1 is null), beside
     * one profiler per entry of @p raw_passes fed the trace itself.
     *
     * When PlanForPass admits two or more shards at this runner's
     * thread count, every shard gets a private copy of that state, the
     * trace is streamed in bounded windows, partitioned by set and
     * replayed on the runner's workers, and the shard snapshots merge
     * (StackProfile::Merge / CacheStats::operator+=).  Otherwise — and
     * when an access overflows TraceEntry::kMaxAddr, which restarts
     * the pass — one copy of the state is fed the whole trace through
     * TraceSource::ReplayInto.  Counters are bit-identical either way,
     * at any shard or thread count (sim/sharded_replay.h).  A
     * trace-decode error (a corrupt container) throws on the caller.
     */
    ShardedPassResult
    ProfilePass(const TraceSource &trace, const CacheConfig *l1,
                const std::vector<StackProfilerConfig> &passes,
                const std::vector<StackProfilerConfig> &raw_passes) const;

  private:
    unsigned threads_;
};

} // namespace pim::sim

#endif // PIM_SIM_SWEEP_H
