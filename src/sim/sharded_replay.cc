#include "sim/sharded_replay.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "sim/sweep.h"
#include "telemetry/span_tracer.h"

namespace pim::sim {

namespace {

/**
 * Partition @p count packed entries into @p shards per-shard buckets,
 * splitting accesses that span a stripe boundary at that boundary
 * (boundaries are line-aligned, so per-line probes are unchanged; see
 * the header's correctness argument).  Sets *overflow* and stops if an
 * access extends past TraceEntry::kMaxAddr — its split sub-entries
 * would not be representable as packed entries, so the caller falls
 * back to serial replay.
 */
void
PartitionEntries(const TraceEntry *entries, std::size_t count,
                 std::uint32_t block_shift, unsigned shards,
                 std::vector<TraceEntry> *out,
                 std::atomic<bool> *overflow)
{
    const Address shard_mask = shards - 1;
    for (std::size_t i = 0; i < count; ++i) {
        const TraceEntry e = entries[i];
        const Bytes bytes = e.bytes();
        if (bytes == 0) {
            continue; // counter-neutral on every replay path
        }
        const Address addr = e.addr();
        const Address last = addr + bytes - 1;
        if (last > TraceEntry::kMaxAddr) [[unlikely]] {
            overflow->store(true, std::memory_order_relaxed);
            return;
        }
        const Address first_block = addr >> block_shift;
        const Address last_block = last >> block_shift;
        if (first_block == last_block) [[likely]] {
            out[first_block & shard_mask].push_back(e);
            continue;
        }
        Address seg_start = addr;
        for (Address blk = first_block; blk <= last_block; ++blk) {
            const Address blk_last = ((blk + 1) << block_shift) - 1;
            const Address seg_last = std::min(last, blk_last);
            out[blk & shard_mask].emplace_back(
                seg_start, seg_last - seg_start + 1, e.type());
            seg_start = seg_last + 1;
        }
    }
}

/**
 * The windowed partition pipeline behind ProfilePass.  For each window
 * of blocks it fills per-(chunk, shard) entry buckets (laid out
 * bucket[c * shards + s], chunks in trace order) in parallel on the
 * runner, then invokes @p replay_window(buckets, chunks) to let the
 * caller's shard workers consume them.  Every source streams in
 * windows of 64 blocks per worker, so only the current window's
 * buckets are ever decoded.
 * Bucket capacity survives window to window (clear, not free).
 * Returns false if any access overflowed TraceEntry::kMaxAddr (the
 * caller reruns the pass as one shard, from scratch).
 */
bool
RunWindowedShardPipeline(
    const SweepRunner &runner, const TraceSource &trace,
    std::uint32_t block_shift, unsigned shards,
    const std::function<void(const std::vector<TraceEntry> *,
                             std::size_t)> &replay_window)
{
    const std::size_t threads =
        std::max<std::size_t>(1, runner.thread_count());
    const std::size_t block_count = trace.BlockCount();
    const std::size_t window_blocks = 64 * threads;
    std::vector<std::vector<TraceEntry>> buckets(threads * shards);
    std::atomic<bool> overflow{false};

    for (std::size_t wbegin = 0; wbegin < block_count;
         wbegin += window_blocks) {
        const std::size_t wend =
            std::min(block_count, wbegin + window_blocks);
        const std::size_t chunks = std::min(threads, wend - wbegin);
        const std::size_t per_chunk = (wend - wbegin + chunks - 1) / chunks;
        runner.ForEach(chunks, [&](std::size_t c) {
            PIM_TRACE_SPAN("sweep",
                           "shard_partition[" + std::to_string(c) + "]");
            const std::size_t begin =
                std::min(wend, wbegin + c * per_chunk);
            const std::size_t end = std::min(wend, begin + per_chunk);
            std::vector<TraceEntry> *out = &buckets[c * shards];
            for (unsigned s = 0; s < shards; ++s) {
                out[s].clear();
                if (out[s].capacity() == 0) {
                    out[s].reserve((end - begin) *
                                       TraceSource::kBlockEntries /
                                       (2 * shards) +
                                   16);
                }
            }
            alignas(64) TraceEntry buffer[TraceSource::kBlockEntries];
            for (std::size_t b = begin; b < end; ++b) {
                const TraceSource::Span span = trace.Block(b, buffer);
                PartitionEntries(span.data, span.count, block_shift,
                                 shards, out, &overflow);
                if (overflow.load(std::memory_order_relaxed)) {
                    return;
                }
            }
        });
        if (overflow.load(std::memory_order_relaxed)) {
            return false;
        }
        replay_window(buckets.data(), chunks);
    }
    return true;
}

/**
 * One pass's private state: the profilers for every nested pass
 * geometry under one fanout, optionally fed by a cold L1, beside the
 * raw passes' profilers.  profs holds the nested passes, then the raw
 * ones; top is where the trace (or a shard's slice of it) goes.
 */
struct PassState
{
    std::vector<std::unique_ptr<StackDistanceProfiler>> profs;
    FanoutSink nested;
    std::unique_ptr<Cache> l1;
    FanoutSink top;

    PassState(const CacheConfig *l1_cfg,
              const std::vector<StackProfilerConfig> &passes,
              const std::vector<StackProfilerConfig> &raw_passes)
    {
        profs.reserve(passes.size() + raw_passes.size());
        for (const StackProfilerConfig &cfg : passes) {
            profs.push_back(std::make_unique<StackDistanceProfiler>(cfg));
            nested.AddSink(*profs.back());
        }
        if (l1_cfg != nullptr) {
            l1 = std::make_unique<Cache>(*l1_cfg, nested);
            top.AddSink(*l1);
        } else if (!passes.empty()) {
            top.AddSink(nested);
        }
        for (const StackProfilerConfig &cfg : raw_passes) {
            profs.push_back(std::make_unique<StackDistanceProfiler>(cfg));
            top.AddSink(*profs.back());
        }
    }
};

/**
 * Merge the per-shard states of a finished pass: every counter is a
 * sum over disjoint set partitions (one state is the one-shard pass).
 */
ShardedPassResult
MergeShards(const std::vector<std::unique_ptr<PassState>> &state,
            std::size_t nested_passes)
{
    ShardedPassResult out;
    out.shards = static_cast<unsigned>(state.size());
    auto merged = [&](std::size_t p) {
        StackProfile prof = state[0]->profs[p]->profile();
        for (std::size_t s = 1; s < state.size(); ++s) {
            prof.Merge(state[s]->profs[p]->profile());
        }
        return prof;
    };
    const std::size_t total = state[0]->profs.size();
    out.profiles.reserve(nested_passes);
    for (std::size_t p = 0; p < nested_passes; ++p) {
        out.profiles.push_back(merged(p));
    }
    out.raw_profiles.reserve(total - nested_passes);
    for (std::size_t p = nested_passes; p < total; ++p) {
        out.raw_profiles.push_back(merged(p));
    }
    if (state[0]->l1) {
        out.l1 = state[0]->l1->stats();
        for (std::size_t s = 1; s < state.size(); ++s) {
            out.l1 += state[s]->l1->stats();
        }
    }
    return out;
}

} // namespace

ShardedReplayPlan
PlanForPass(const CacheConfig *l1,
            const std::vector<StackProfilerConfig> &passes,
            const std::vector<StackProfilerConfig> &raw_passes,
            unsigned shard_limit)
{
    ShardedReplayPlan plan;
    // PIM_SHARD_PASS (default on): the off position is the serial-pass
    // baseline the benchmarks compare against and the safety valve if
    // sharding ever misbehaves in the field.  Counters are
    // bit-identical either way.
    if (!EnvSwitch("PIM_SHARD_PASS", true)) {
        plan.why = "PIM_SHARD_PASS=off";
        return plan;
    }
    if (passes.empty() && raw_passes.empty()) {
        plan.why = "no profiling passes";
        return plan;
    }
    // Every level (the optional nested L1 plus each nested and raw
    // pass geometry) constrains the key bits to its set-index range
    // [l, l+n) in byte terms; the key must fit inside the intersection
    // of them all.
    std::uint32_t max_line = 0;
    std::uint32_t min_line = std::numeric_limits<std::uint32_t>::max();
    std::uint32_t min_period =
        std::numeric_limits<std::uint32_t>::max();
    auto add_level = [&](Bytes line_bytes, std::size_t sets) {
        const auto line_shift = static_cast<std::uint32_t>(
            std::countr_zero(line_bytes));
        max_line = std::max(max_line, line_shift);
        min_line = std::min(min_line, line_shift);
        min_period = std::min(
            min_period, line_shift + static_cast<std::uint32_t>(
                                         std::countr_zero(sets)));
    };
    // Returns the reason @p pass admits no key, or null.
    auto add_pass = [&](const StackProfilerConfig &pass) -> const char * {
        if (pass.model_prefetcher) {
            // The stream detector pairs ADJACENT lines — different
            // sets — so its state cannot be partitioned by set.
            return "prefetcher model couples lines across sets";
        }
        if (pass.line_bytes == 0 ||
            (pass.line_bytes & (pass.line_bytes - 1)) != 0) {
            return "pass line size is not a power of two";
        }
        if (pass.num_sets == 0 ||
            (pass.num_sets & (pass.num_sets - 1)) != 0) {
            return "pass set count is not a power of two";
        }
        add_level(pass.line_bytes, pass.num_sets);
        return nullptr;
    };
    for (const auto *list : {&passes, &raw_passes}) {
        for (const StackProfilerConfig &pass : *list) {
            if (const char *why = add_pass(pass)) {
                plan.why = why;
                return plan;
            }
        }
    }
    if (l1 != nullptr) {
        const CacheGeometry geo(*l1);
        if (!geo.pow2_sets) {
            plan.why = "L1 set count is not a power of two";
            return plan;
        }
        add_level(l1->line_bytes, geo.num_sets);
    }
    if (min_period <= max_line) {
        plan.why = "too few common set bits to stripe";
        return plan;
    }
    std::uint32_t log2_shards =
        shard_limit == 0
            ? 0
            : static_cast<std::uint32_t>(std::bit_width(shard_limit)) -
                  1;
    log2_shards = std::min(log2_shards, min_period - max_line);
    if (log2_shards < 1) {
        plan.why = "fewer than two shards possible";
        return plan;
    }
    // Block-cyclic striping: prefer stripes of 16 smallest-level
    // lines, clamped into [max_line, min_period - S] so every level's
    // lines stay whole and the stripe cycle divides every level's set
    // period.
    const std::uint32_t block_shift = std::max(
        max_line, std::min(min_line + 4, min_period - log2_shards));
    plan.supported = true;
    plan.shards = 1u << log2_shards;
    plan.block_shift = block_shift;
    plan.why = "";
    return plan;
}

ShardedPassResult
SweepRunner::ProfilePass(const TraceSource &trace, const CacheConfig *l1,
                         const std::vector<StackProfilerConfig> &passes,
                         const std::vector<StackProfilerConfig> &raw_passes)
    const
{
    const ShardedReplayPlan plan =
        PlanForPass(l1, passes, raw_passes, threads_);
    // An empty trace is the one-shard pass too: nothing to spread.
    if (plan.supported && !trace.empty()) {
        PIM_TRACE_SPAN("sweep", "ShardedProfilePass");
        const unsigned shards = plan.shards;
        // Per-shard state, created lazily by the worker that first
        // replays the shard and persistent across windows.
        std::vector<std::unique_ptr<PassState>> state(shards);
        const bool ok = RunWindowedShardPipeline(
            *this, trace, plan.block_shift, shards,
            [&](const std::vector<TraceEntry> *buckets,
                std::size_t chunks) {
                ForEach(shards, [&](std::size_t s) {
                    PIM_TRACE_SPAN("sweep", "shard_pass[" +
                                                std::to_string(s) + "]");
                    if (!state[s]) {
                        state[s] = std::make_unique<PassState>(
                            l1, passes, raw_passes);
                    }
                    MemorySink &top = state[s]->top;
                    for (std::size_t c = 0; c < chunks; ++c) {
                        const auto &bucket = buckets[c * shards + s];
                        if (!bucket.empty()) {
                            top.AccessBatch(bucket.data(),
                                            bucket.size());
                        }
                    }
                });
            });
        if (ok) {
            // The trace is non-empty, so every shard's state exists.
            return MergeShards(state, passes.size());
        }
    }
    PIM_TRACE_SPAN("sweep", "ProfilePass");
    std::vector<std::unique_ptr<PassState>> state;
    state.push_back(std::make_unique<PassState>(l1, passes, raw_passes));
    trace.ReplayInto(state[0]->top);
    return MergeShards(state, passes.size());
}

} // namespace pim::sim
