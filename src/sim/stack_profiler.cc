#include "sim/stack_profiler.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/logging.h"

namespace pim::sim {

namespace {

/**
 * Satellite guard for the one inexact readout the profiler has: under
 * write-back, an untracked associativity's writeback count is reported
 * as 0, which downstream JSON could mistake for "exactly zero".
 * Results carry WritebacksExact() so callers can tell, and the first
 * such readout in the process warns loudly.  The guard is keyed on the
 * condition, not the profile instance: a sharded pass runs one
 * profiler per shard, and N shards must not emit N copies.
 */
void
WarnUntrackedWritebacksOnce(std::uint32_t assoc)
{
    PIM_WARN_ONCE("stack_profiler.untracked_writebacks",
                  "stack profiler: writebacks for untracked "
                  "associativity %u reported as 0 (not exact); check "
                  "WritebacksExact() / writebacks_exact in results",
                  assoc);
}

/** hist[d] += other[d], growing hist as needed. */
void
AddHistogram(std::vector<std::uint64_t> &hist,
             const std::vector<std::uint64_t> &other)
{
    if (other.size() > hist.size()) {
        hist.resize(other.size(), 0);
    }
    for (std::size_t d = 0; d < other.size(); ++d) {
        hist[d] += other[d];
    }
}

/** Readouts above a pass's depth bound fail loudly, never wrongly. */
void
AssertWithinBound(const StackProfile &prof, std::uint32_t assoc)
{
    PIM_ASSERT(prof.max_assoc == 0 || assoc <= prof.max_assoc,
               "associativity %u above the pass's depth bound %u", assoc,
               prof.max_assoc);
}

/** Sum hist[d] for d < assoc (the Mattson hit readout). */
std::uint64_t
HitsBelow(const std::vector<std::uint64_t> &hist, std::uint32_t assoc)
{
    std::uint64_t hits = 0;
    const std::size_t end =
        std::min<std::size_t>(hist.size(), assoc);
    for (std::size_t d = 0; d < end; ++d) {
        hits += hist[d];
    }
    return hits;
}

std::uint64_t
Total(const std::vector<std::uint64_t> &hist, std::uint64_t far)
{
    std::uint64_t total = far;
    for (const std::uint64_t n : hist) {
        total += n;
    }
    return total;
}

/** Slab offsets are 32-bit. */
constexpr std::size_t kMaxArenaSlots = 0xFFFFFFFFu;

/** First slab of a set in an unbounded pass, in entries. */
constexpr std::uint32_t kFirstUnboundedSlab = 8;

/** Deepest promotion that shifts entry by entry rather than by memmove. */
constexpr std::size_t kShortShift = 16;

/** hist[0] += n, growing hist exactly as a distance-0 probe would. */
void
AddAtTop(std::vector<std::uint64_t> &hist, std::uint64_t n)
{
    if (n != 0) {
        if (hist.empty()) {
            hist.resize(1, 0);
        }
        hist[0] += n;
    }
}

/** Position of @p line in a stack's tag lane, or @p depth if absent. */
inline std::size_t
StackDistance(const Address *tags, std::size_t depth, Address line)
{
    for (std::size_t i = 0; i < depth; ++i) {
        if (tags[i] == line) {
            return i;
        }
    }
    return depth;
}

} // namespace

std::uint64_t
StackProfile::TotalReadProbes() const
{
    return Total(read_hist, read_far);
}

std::uint64_t
StackProfile::TotalWriteProbes() const
{
    return Total(write_hist, write_far);
}

void
StackProfile::Merge(const StackProfile &other)
{
    PIM_ASSERT(line_bytes == other.line_bytes &&
                   num_sets == other.num_sets &&
                   write_allocate == other.write_allocate &&
                   prefetcher == other.prefetcher,
               "merging profiles of different pass geometry");
    PIM_ASSERT(max_assoc == other.max_assoc,
               "merging profiles with different depth bounds (%u, %u)",
               max_assoc, other.max_assoc);
    PIM_ASSERT(tracked == other.tracked,
               "merging profiles with different tracked lists");
    AddHistogram(read_hist, other.read_hist);
    AddHistogram(write_hist, other.write_hist);
    read_far += other.read_far;
    write_far += other.write_far;
    probes += other.probes;
    for (std::size_t j = 0; j < writebacks.size(); ++j) {
        writebacks[j] += other.writebacks[j];
    }
    prefetches_issued += other.prefetches_issued;
    AddHistogram(useful_hist, other.useful_hist);
    useful_far += other.useful_far;
}

int
StackProfile::TrackedIndex(std::uint32_t assoc) const
{
    const auto it =
        std::lower_bound(tracked.begin(), tracked.end(), assoc);
    if (it == tracked.end() || *it != assoc) {
        return -1;
    }
    return static_cast<int>(it - tracked.begin());
}

bool
StackProfile::WritebacksExact(std::uint32_t assoc,
                              WritePolicy policy) const
{
    // Write-through never dirties a line: writebacks are exactly 0 at
    // every associativity.  Write-back needs the tracked dirty-bitmask
    // machinery.
    return policy != WritePolicy::kWriteBackAllocate ||
           TrackedIndex(assoc) >= 0;
}

CacheStats
StackProfile::StatsForAssociativity(std::uint32_t assoc,
                                    WritePolicy policy) const
{
    PIM_ASSERT(assoc >= 1, "associativity must be >= 1");
    AssertWithinBound(*this, assoc);
    // One allocating pass answers both allocating policies (their
    // residency is identical); the non-promoting no-write-allocate
    // policy needs the pass that treated writes the same way.
    PIM_ASSERT(
        write_allocate ==
            (policy != WritePolicy::kWriteThroughNoAllocate),
        "write policy %s needs a pass with write_allocate=%d",
        WritePolicyName(policy), policy != WritePolicy::kWriteThroughNoAllocate);
    CacheStats s;
    s.read_hits = HitsBelow(read_hist, assoc);
    s.write_hits = HitsBelow(write_hist, assoc);
    s.read_misses = TotalReadProbes() - s.read_hits;
    s.write_misses = TotalWriteProbes() - s.write_hits;
    if (policy == WritePolicy::kWriteBackAllocate) {
        const int j = TrackedIndex(assoc);
        if (j >= 0) {
            s.writebacks = writebacks[static_cast<std::size_t>(j)];
        } else {
            WarnUntrackedWritebacksOnce(assoc);
        }
    }
    return s;
}

DramStats
StackProfile::DramTrafficForAssociativity(std::uint32_t assoc,
                                          WritePolicy policy) const
{
    PIM_ASSERT(WritebacksExact(assoc, policy),
               "DRAM write traffic needs tracked writebacks (assoc %u)",
               assoc);
    const CacheStats s = StatsForAssociativity(assoc, policy);
    DramStats d;
    switch (policy) {
    case WritePolicy::kWriteBackAllocate:
        // Fills for every miss; one line write per dirty eviction.
        d.read_requests = s.Misses();
        d.write_requests = s.writebacks;
        break;
    case WritePolicy::kWriteThroughAllocate:
        // Fills for every miss (write misses allocate); the writes
        // themselves all go through, one line write per write probe.
        d.read_requests = s.Misses();
        d.write_requests = TotalWriteProbes();
        break;
    case WritePolicy::kWriteThroughNoAllocate:
        // Only read misses fill; every write probe goes through.
        d.read_requests = s.read_misses;
        d.write_requests = TotalWriteProbes();
        break;
    }
    d.read_bytes = d.read_requests * line_bytes;
    d.write_bytes = d.write_requests * line_bytes;
    return d;
}

PrefetchStats
StackProfile::PrefetchForAssociativity(std::uint32_t assoc) const
{
    PIM_ASSERT(prefetcher,
               "prefetch readout needs a pass with model_prefetcher");
    AssertWithinBound(*this, assoc);
    PrefetchStats p;
    p.issued = prefetches_issued;
    // A consumed prefetch was useful for associativity A iff the
    // demand that consumed it would have missed: far, or stack
    // distance >= A.
    p.useful = useful_far;
    for (std::size_t d = assoc; d < useful_hist.size(); ++d) {
        p.useful += useful_hist[d];
    }
    const CacheStats s = StatsForAssociativity(
        assoc, write_allocate
                   ? WritePolicy::kWriteBackAllocate
                   : WritePolicy::kWriteThroughNoAllocate);
    p.demand_misses = s.Misses();
    return p;
}

StackDistanceProfiler::StackDistanceProfiler(StackProfilerConfig config)
    : config_(std::move(config))
{
    PIM_ASSERT(config_.line_bytes > 0 &&
                   (config_.line_bytes & (config_.line_bytes - 1)) == 0,
               "line size must be a power of two");
    PIM_ASSERT(config_.num_sets > 0, "set count must be nonzero");

    line_shift_ = static_cast<std::uint32_t>(
        std::countr_zero(config_.line_bytes));
    line_mask_ = config_.line_bytes - 1;
    pow2_sets_ = (config_.num_sets & (config_.num_sets - 1)) == 0;
    set_mask_ = config_.num_sets - 1;
    set_div_ = FastDiv(config_.num_sets);

    // Slabs are placed on first touch; a bounded pass reserves room
    // for every set up front (untouched pages cost no memory), an
    // unbounded one grows the arena as its stacks deepen.
    slabs_.resize(config_.num_sets);
    if (config_.max_assoc != 0) {
        const std::size_t slots =
            config_.num_sets * (std::size_t{config_.max_assoc} + 1);
        PIM_ASSERT(slots <= kMaxArenaSlots,
                   "%zu sets x %u-deep stacks overflow the slab arena",
                   config_.num_sets, config_.max_assoc);
        tag_arena_.reserve(slots);
        dirty_arena_.reserve(slots);
    }

    profile_.line_bytes = config_.line_bytes;
    profile_.num_sets = config_.num_sets;
    profile_.write_allocate = config_.write_allocate;
    profile_.prefetcher = config_.model_prefetcher;
    profile_.max_assoc = config_.max_assoc;

    profile_.tracked = config_.tracked_assocs;
    auto &tracked = profile_.tracked;
    std::sort(tracked.begin(), tracked.end());
    tracked.erase(std::unique(tracked.begin(), tracked.end()),
                  tracked.end());
    PIM_ASSERT(tracked.size() <= 64,
               "at most 64 tracked associativities (%zu requested)",
               tracked.size());
    PIM_ASSERT(tracked.empty() || tracked.front() >= 1,
               "tracked associativity must be >= 1");
    PIM_ASSERT(config_.max_assoc == 0 || tracked.empty() ||
                   tracked.back() <= config_.max_assoc,
               "tracked associativity %u above the depth bound %u",
               tracked.empty() ? 0u : tracked.back(), config_.max_assoc);
    profile_.writebacks.assign(tracked.size(), 0);
    if (!tracked.empty()) {
        full_dirty_mask_ =
            tracked.size() == 64
                ? ~std::uint64_t{0}
                : (std::uint64_t{1} << tracked.size()) - 1;
    }
}

void
StackDistanceProfiler::Access(Address addr, Bytes bytes, AccessType type)
{
    if (bytes == 0) {
        return;
    }
    // Split the span into line probes exactly as Cache::AccessSpan
    // does — the last-line formulation survives spans ending at the
    // top of the address space.
    const bool is_write = type == AccessType::kWrite;
    const Bytes line = config_.line_bytes;
    Address cur = addr & ~line_mask_;
    const Address last = (addr + (bytes - 1)) & ~line_mask_;
    for (;;) {
        ProbeLine(cur, is_write);
        if (cur == last) {
            break;
        }
        cur += line;
    }
}

void
StackDistanceProfiler::AccessBatch(const TraceEntry *entries,
                                   std::size_t count)
{
    if (config_.model_prefetcher) {
        // The layered prefetcher model must see every probe.
        for (std::size_t i = 0; i < count; ++i) {
            const TraceEntry e = entries[i];
            if (e.bytes() != 0) {
                Access(e.addr(), e.bytes(), e.type());
            }
        }
        return;
    }

    // A line probe that finds its line on top of its set's stack
    // (distance 0) changes nothing but the top entry's dirty bits, so
    // the loop resolves it inline and counts it in registers; every
    // other probe takes ProbeLine.  The counts are committed once, at
    // the end: counters only add, so their order does not matter.
    // Geometry lives in locals, because the dirty stores could alias
    // the members.
    const Address line_mask = line_mask_;
    const Address line_select = TraceEntry::kMaxAddr & ~line_mask;
    const Bytes line_bytes = config_.line_bytes;
    const std::uint32_t line_shift = line_shift_;
    const std::size_t set_mask = set_mask_;
    const bool pow2_sets = pow2_sets_;
    const FastDiv set_div = set_div_;
    // A top-of-stack write dirties every tracked cache, unless writes
    // do not allocate.
    const std::uint64_t write_dirty =
        config_.write_allocate ? full_dirty_mask_ : 0;

    const SetSlab *slabs = slabs_.data();
    const Address *tags = tag_arena_.data();
    std::uint64_t *dirty = dirty_arena_.data();
    std::uint64_t top_probes = 0;
    std::uint64_t top_writes = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const TraceEntry e = entries[i];
        const Bytes bytes = e.bytes();
        if (bytes == 0) {
            continue;
        }
        const std::uint64_t is_write = e.word >> 63;
        const Address last = (e.addr() + (bytes - 1)) & ~line_mask;
        for (Address line = e.word & line_select;; line += line_bytes) {
            const Address line_no = line >> line_shift;
            const SetSlab s =
                slabs[pow2_sets
                          ? static_cast<std::size_t>(line_no) & set_mask
                          : static_cast<std::size_t>(
                                set_div.Mod(line_no))];
            if (s.depth != 0 && tags[s.offset] == line) {
                dirty[s.offset] |= write_dirty & (0 - is_write);
                ++top_probes;
                top_writes += is_write;
            } else {
                ProbeLine(line, is_write != 0);
                // A far insert may have moved the arenas.
                tags = tag_arena_.data();
                dirty = dirty_arena_.data();
            }
            if (line == last) {
                break;
            }
        }
    }
    AddAtTop(profile_.read_hist, top_probes - top_writes);
    AddAtTop(profile_.write_hist, top_writes);
    profile_.probes += top_probes;
}

void
StackDistanceProfiler::GrowSlab(SetSlab &slab)
{
    // Bounded slabs are placed once, at max_assoc + 1.
    const std::size_t cap =
        slab.capacity != 0       ? std::size_t{2} * slab.capacity
        : config_.max_assoc != 0 ? std::size_t{config_.max_assoc} + 1
                                 : kFirstUnboundedSlab;
    // A slab that ends the arena grows in place; any other moves to the
    // end, and its old slots are abandoned until the arena fills.
    const auto ends_arena = [&] {
        return slab.capacity != 0 &&
               slab.offset + slab.capacity == tag_arena_.size();
    };
    if ((ends_arena() ? slab.offset : tag_arena_.size()) + cap >
        tag_arena_.capacity()) {
        Repack(cap);
    }
    const bool in_place = ends_arena();
    const std::size_t offset = in_place ? slab.offset : tag_arena_.size();
    tag_arena_.resize(offset + cap);
    dirty_arena_.resize(offset + cap);
    if (!in_place) {
        std::copy_n(tag_arena_.data() + slab.offset, slab.depth,
                    tag_arena_.data() + offset);
        std::copy_n(dirty_arena_.data() + slab.offset, slab.depth,
                    dirty_arena_.data() + offset);
    }
    slab.offset = static_cast<std::uint32_t>(offset);
    slab.capacity = static_cast<std::uint32_t>(cap);
}

/**
 * A full arena is repacked rather than copied whole: the live slabs
 * move, in set order, into arenas with room for twice their capacity
 * plus @p extra, and the abandoned slabs are dropped.  Only an
 * unbounded pass gets here; a bounded one reserved every slab.
 */
void
StackDistanceProfiler::Repack(std::size_t extra)
{
    std::size_t live = 0;
    for (const SetSlab &s : slabs_) {
        live += s.capacity;
    }
    PIM_ASSERT(live + extra <= kMaxArenaSlots,
               "stack profiler slab arena overflow (%zu slots)",
               live + extra);
    std::vector<Address> tags;
    std::vector<std::uint64_t> dirty;
    tags.reserve(2 * (live + extra));
    dirty.reserve(2 * (live + extra));
    for (SetSlab &s : slabs_) {
        if (s.capacity == 0) {
            continue;
        }
        const std::size_t offset = tags.size();
        tags.insert(tags.end(), tag_arena_.begin() + s.offset,
                    tag_arena_.begin() + s.offset + s.depth);
        dirty.insert(dirty.end(), dirty_arena_.begin() + s.offset,
                     dirty_arena_.begin() + s.offset + s.depth);
        tags.resize(offset + s.capacity);
        dirty.resize(offset + s.capacity);
        s.offset = static_cast<std::uint32_t>(offset);
    }
    tag_arena_.swap(tags);
    dirty_arena_.swap(dirty);
}

/**
 * One line-granular probe: find the line in its set's stack, record
 * the distance, promote it to the top, and account tracked evictions
 * on every entry that sinks across a tracked-associativity boundary.
 * Under write_allocate=false, a write probe only records its distance
 * (the stack is left untouched — non-promoting writes).
 */
void
StackDistanceProfiler::ProbeLine(Address line_addr, bool is_write)
{
    ++profile_.probes;
    SetSlab &slab = slabs_[SetIndex(line_addr)];
    const std::size_t depth = slab.depth;

    // Tags are unique within a stack, so the first match is exact.
    const std::size_t d = StackDistance(tag_arena_.data() + slab.offset,
                                        depth, line_addr);
    const bool far = d == depth;

    if (config_.model_prefetcher) [[unlikely]] {
        // Layered model, stacks untouched.  Usefulness first: if this
        // demand consumes a pending prefetch, its distance decides —
        // for every associativity at once — whether the prefetch
        // covered a would-be miss.
        if (!pending_prefetches_.empty() &&
            pending_prefetches_.erase(line_addr) != 0) {
            if (far) {
                ++profile_.useful_far;
            } else {
                if (d >= profile_.useful_hist.size()) {
                    profile_.useful_hist.resize(d + 1, 0);
                }
                ++profile_.useful_hist[d];
            }
        }
        // Stream detection: two sequential line probes arm the next
        // line.  Self-prefetching of the just-touched line is never
        // issued (the candidate is strictly ahead of the stream).
        if (line_addr == prev_line_ + config_.line_bytes) {
            const Address candidate = line_addr + config_.line_bytes;
            if (pending_prefetches_.insert(candidate).second) {
                ++profile_.prefetches_issued;
            }
        }
        prev_line_ = line_addr;
    }

    if (!config_.write_allocate && is_write) {
        // Non-promoting write: record the distance against the
        // read-built stack and leave residency untouched.
        if (far) {
            ++profile_.write_far;
        } else {
            if (d >= profile_.write_hist.size()) {
                profile_.write_hist.resize(d + 1, 0);
            }
            ++profile_.write_hist[d];
        }
        return;
    }

    std::uint64_t promoted_dirty;
    if (far) {
        // Not among the stack's lines: every tracked cache misses and
        // fills the line with the access's dirtiness.  Under a depth
        // bound the line may be a reuse deeper than the cap; its dirty
        // bits were clear when it fell off, so this is exact.
        if (is_write) {
            ++profile_.write_far;
        } else {
            ++profile_.read_far;
        }
        if (depth == slab.capacity) {
            GrowSlab(slab); // first touch, or a full unbounded stack
        }
        ++slab.depth; // room for the shift below
        promoted_dirty = is_write ? full_dirty_mask_ : 0;
    } else {
        std::vector<std::uint64_t> &hist =
            is_write ? profile_.write_hist : profile_.read_hist;
        if (d >= hist.size()) {
            hist.resize(d + 1, 0);
        }
        ++hist[d];
        // Caches with assoc <= d miss and refill: their dirty bits are
        // already clear (the entry sank past those boundaries earlier),
        // and a write refill sets them.  Caches with assoc > d hit: a
        // write marks them dirty, a read leaves them unchanged.  Both
        // cases collapse to one OR.
        promoted_dirty = dirty_arena_[slab.offset + d] |
                         (is_write ? full_dirty_mask_ : 0);
    }

    // Promote: entries [0, d) sink one step — a copy loop over both
    // lanes for the short shifts of a bounded pass, two bulk moves for
    // a deep unbounded stack.  Then account tracked evictions: after
    // the shift, depth a holds the entry that just arrived there, i.e.
    // was evicted from the a-way cache; if it was dirty in that cache
    // (bit j), that cache wrote it back.  Only tracked boundaries <= d
    // received a sinking entry.
    Address *const tags = tag_arena_.data() + slab.offset;
    std::uint64_t *const dirty = dirty_arena_.data() + slab.offset;
    if (d > 0) {
        if (d <= kShortShift) {
            for (std::size_t k = d; k > 0; --k) {
                tags[k] = tags[k - 1];
                dirty[k] = dirty[k - 1];
            }
        } else {
            std::memmove(tags + 1, tags, d * sizeof(Address));
            std::memmove(dirty + 1, dirty, d * sizeof(std::uint64_t));
        }
        const auto &tracked = profile_.tracked;
        for (std::size_t j = 0;
             j < tracked.size() && tracked[j] <= d; ++j) {
            const std::uint32_t a = tracked[j];
            if (((dirty[a] >> j) & 1) != 0) {
                ++profile_.writebacks[j];
                dirty[a] &= ~(std::uint64_t{1} << j);
            }
        }
    }
    tags[0] = line_addr;
    dirty[0] = promoted_dirty;
    // Depth bound: a far insert into a full stack leaves max_assoc + 1
    // entries.  The bottom one has just crossed the last boundary
    // (a == max_assoc, checked above), so its tracked bits are clear
    // and no readout up to the cap can see it again.
    if (config_.max_assoc != 0 && slab.depth > config_.max_assoc) {
        --slab.depth;
    }
}

} // namespace pim::sim
