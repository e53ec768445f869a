#include "sim/cache.h"

#include <bit>
#include <utility>

#include "common/logging.h"

namespace pim::sim {
namespace {

/** Lowest way w in [0, ways) whose tag equals @p needle, or -1. */
inline int
WayOf(const Address *tags, std::uint32_t ways, Address needle)
{
    for (std::uint32_t w = 0; w < ways; ++w) {
        if (tags[w] == needle) {
            return static_cast<int>(w);
        }
    }
    return -1;
}

} // namespace

const char *
WritePolicyName(WritePolicy policy)
{
    switch (policy) {
    case WritePolicy::kWriteThroughAllocate:
        return "wt";
    case WritePolicy::kWriteThroughNoAllocate:
        return "wtna";
    case WritePolicy::kWriteBackAllocate:
        break;
    }
    return "wb";
}

CacheGeometry::CacheGeometry(const CacheConfig &config)
{
    PIM_ASSERT(config.line_bytes > 0 &&
                   (config.line_bytes & (config.line_bytes - 1)) == 0,
               "line size must be a power of two");
    PIM_ASSERT(config.associativity > 0, "associativity must be nonzero");
    const Bytes set_bytes = config.line_bytes * config.associativity;
    PIM_ASSERT(config.size % set_bytes == 0,
               "cache size %llu not divisible by assoc*line %llu",
               static_cast<unsigned long long>(config.size),
               static_cast<unsigned long long>(set_bytes));
    num_sets = config.size / set_bytes;
    line_shift = static_cast<std::uint32_t>(
        std::countr_zero(config.line_bytes));
    line_mask = config.line_bytes - 1;
    pow2_sets = (num_sets & (num_sets - 1)) == 0;
    set_mask = num_sets - 1;
    set_div = FastDiv(num_sets);
}

Cache::Cache(const CacheConfig &config, MemorySink &below)
    : config_(config), below_(&below), geom_(config)
{
    const std::size_t slots = geom_.num_sets * config_.associativity;
    // Sentinel-fill the tag plane so "invalid slot" and
    // "tag == kInvalidTag" coincide everywhere the planes are probed
    // tag-only.
    tags_.assign(slots, kInvalidTag);
    lru_.assign(slots, 0);
    valid_.assign(slots, 0);
    dirty_.assign(slots, 0);

    const std::uint32_t assoc = config_.associativity;
    const bool pow2_assoc = (assoc & (assoc - 1)) == 0;
    const auto way_shift =
        static_cast<std::uint32_t>(std::countr_zero(assoc));
    // The registerized batch loop commits write hits by setting dirty
    // bits, which only the default write-back policy allows; the
    // write-through policies take the (cold) scalar route instead.
    fast_batch_ = geom_.pow2_sets && pow2_assoc &&
                  way_shift <= geom_.line_shift &&
                  config_.policy == WritePolicy::kWriteBackAllocate;
    if (fast_batch_) {
        slot_shift_ = geom_.line_shift - way_shift;
        slot_mask_ = geom_.set_mask << way_shift;
    }

    // The batched engines test residency with the tag compare alone,
    // so no batched line address may alias the invalid sentinel.  The
    // packed-entry address field guarantees it for every geometry; the
    // runtime check pins the invariant to this constructor should the
    // trace word layout ever widen.
    static_assert(TraceEntry::kMaxAddr < kInvalidTag,
                  "packed trace addresses must not reach the invalid-"
                  "tag sentinel");
    PIM_ASSERT((TraceEntry::kMaxAddr & ~geom_.line_mask) != kInvalidTag,
               "batched line address space aliases the invalid tag");
}

void
Cache::Access(Address addr, Bytes bytes, AccessType type)
{
    if (bytes == 0) {
        return;
    }
    AccessSpan(addr, bytes, type);
}

void
Cache::AccessBatch(const TraceEntry *entries, std::size_t count)
{
    // Stage miss traffic for the level below while the batch runs; it
    // is drained before returning (and around any event the staging
    // buffer cannot represent), so ordering and counters are identical
    // to the scalar path.
    batching_below_ = true;

    if (!fast_batch_) {
        for (std::size_t i = 0; i < count; ++i) {
            const TraceEntry e = entries[i];
            if (e.bytes() != 0) {
                AccessSpan(e.addr(), e.bytes(), e.type());
            }
        }
        FlushBelow();
        batching_below_ = false;
        return;
    }

    // Registerized fast path.  An entry stays in the fast loop iff
    // every line it touches is resident, proved by probing the *whole
    // set's* tag lane.  Way positions never affect counters — hits are
    // found by tag and replacement by LRU stamp — so committing a hit
    // in place, wherever the way, updates the statistics exactly as
    // the scalar engine would.
    //
    // The loop is split into *runs*: the inner loop handles
    // consecutive resident entries and contains no function call, so
    // the geometry, tick, and hit counters live entirely in registers
    // (with the slow path inlined into the same loop body they all
    // spill to the stack and each iteration pays half a dozen
    // reloads).  Any entry the fast path cannot prove a hit breaks
    // out, commits the register state, takes the full scalar route,
    // and a new run begins.
    std::size_t i = 0;
    while (i < count) {
        Address *const tags = tags_.data();
        std::uint64_t *const lru = lru_.data();
        std::uint8_t *const dirty = dirty_.data();
        const Address line_mask = geom_.line_mask;
        const std::uint32_t slot_shift = slot_shift_;
        const std::size_t slot_mask = slot_mask_;
        const std::uint32_t assoc = config_.associativity;
        // Every probe the fast loop commits is a hit and bumps `tick`
        // exactly once, so total hits fall out of the tick delta at
        // commit time — only the write share needs its own counter.
        const std::uint64_t tick_start = tick_;
        std::uint64_t tick = tick_;
        std::uint64_t write_hits = 0;

        // Bits 0..39 of the packed word are the address, so the line
        // offset is (word & line_mask) and the line address needs only
        // one combined mask — no full unpack in the hot loop.
        const Address line_select = TraceEntry::kMaxAddr & ~line_mask;
        const Bytes line_bytes = line_mask + 1;

        // Same-line coalescing for the fast loop: consecutive entries
        // hitting one line (the dominant sequential-kernel pattern)
        // skip even the set probe.  Safe because the run commits
        // only hits — no fill or eviction can move a tag during a run,
        // so the remembered slot still holds `prev_line`.  The
        // sentinel initial value is unreachable by batched lines.
        Address prev_line = kInvalidTag;
        std::size_t prev_slot = 0;

        // Resolve a resident line to its slot, or -1 on miss.  Invalid
        // slots hold kInvalidTag, which no 40-bit batched line address
        // can equal, so the tag compare alone decides residency.
        const auto find_slot = [&](Address line) -> std::ptrdiff_t {
            const std::size_t base =
                static_cast<std::size_t>(line >> slot_shift) &
                slot_mask;
            const int w = WayOf(tags + base, assoc, line);
            return w < 0 ? std::ptrdiff_t{-1}
                         : static_cast<std::ptrdiff_t>(
                               base + static_cast<unsigned>(w));
        };

        for (; i < count; ++i) {
            const TraceEntry e = entries[i];
            const Bytes bytes = e.bytes();
            if (bytes == 0) {
                continue;
            }
            const Bytes span = (e.word & line_mask) + bytes;
            const Address line = e.word & line_select;
            std::size_t s1;
            if (line == prev_line) {
                s1 = prev_slot;
            } else {
                const std::ptrdiff_t f = find_slot(line);
                if (f < 0) {
                    break;
                }
                s1 = static_cast<std::size_t>(f);
            }
            // Branchless hit bookkeeping: the read/write split is
            // data-dependent and irregular in real kernel streams, so
            // a conditional here mispredicts often enough to hurt.
            const std::uint64_t is_write = e.word >> 63;
            if (span <= line_bytes) [[likely]] {
                ++tick;
                lru[s1] = tick;
                dirty[s1] = static_cast<std::uint8_t>(
                    dirty[s1] | is_write);
                write_hits += is_write;
                prev_line = line;
                prev_slot = s1;
                continue;
            }
            if (span > 2 * line_bytes) {
                break; // three or more lines: rare, take the full path
            }
            // Exactly two lines.  Probe the second before touching the
            // first so a bail-out leaves no state modified and the
            // scalar path replays the whole span from scratch.
            const Address line2 = line + line_bytes;
            const std::ptrdiff_t f2 = find_slot(line2);
            if (f2 < 0) {
                break;
            }
            const auto s2 = static_cast<std::size_t>(f2);
            ++tick;
            lru[s1] = tick;
            dirty[s1] = static_cast<std::uint8_t>(dirty[s1] | is_write);
            ++tick;
            lru[s2] = tick;
            dirty[s2] = static_cast<std::uint8_t>(dirty[s2] | is_write);
            write_hits += 2 * is_write;
            prev_line = line2;
            prev_slot = s2;
        }

        tick_ = tick;
        stats_.read_hits += tick - tick_start - write_hits;
        stats_.write_hits += write_hits;

        if (i < count) {
            const TraceEntry e = entries[i];
            ++i;
            AccessSpan(e.addr(), e.bytes(), e.type());
        }
    }
    FlushBelow();
    batching_below_ = false;
}

/**
 * Send one fill/writeback event to the level below.  Outside a batch
 * this is a direct call; inside a batch the event is staged and later
 * forwarded via AccessBatch in the same order, removing the virtual
 * call (and the member-register spills around it) from the miss path.
 */
inline void
Cache::EmitBelow(Address addr, Bytes bytes, AccessType type)
{
    if (!batching_below_) {
        below_->Access(addr, bytes, type);
        return;
    }
    if (addr > TraceEntry::kMaxAddr || bytes > TraceEntry::kMaxBytes)
        [[unlikely]] {
        // Not representable as a packed entry (e.g. a writeback of a
        // line near the top of the address space that a scalar access
        // installed).  Drain first so ordering is preserved.
        FlushBelow();
        below_->Access(addr, bytes, type);
        return;
    }
    if (below_n_ == kBelowBatch) {
        FlushBelow();
    }
    below_buf_[below_n_++] = TraceEntry(addr, bytes, type);
}

void
Cache::FlushBelow()
{
    if (below_n_ != 0) {
        below_->AccessBatch(below_buf_.data(), below_n_);
        below_n_ = 0;
    }
}

/**
 * Probe every line of [addr, addr + bytes), @p bytes > 0.  The loop is
 * phrased on the *last* line rather than the one-past-the-end address so
 * a range ending exactly at the top of the address space (addr + bytes
 * == 2^64) iterates correctly instead of wrapping to an end of 0 and
 * exiting immediately.
 */
inline void
Cache::AccessSpan(Address addr, Bytes bytes, AccessType type)
{
    const Bytes line = config_.line_bytes;
    Address cur = geom_.LineAddr(addr);
    const Address last = geom_.LineAddr(addr + (bytes - 1));
    if (type == AccessType::kWrite &&
        config_.policy != WritePolicy::kWriteBackAllocate) [[unlikely]] {
        // Write-through probes: reads below stay on the common path,
        // writes take the policy route (no dirty bits, write sent
        // below per line).
        for (;;) {
            PolicyWriteLine(cur);
            if (cur == last) {
                break;
            }
            cur += line;
        }
        return;
    }
    for (;;) {
        ProbeLine(cur, type);
        if (cur == last) {
            break;
        }
        cur += line;
    }
}

/**
 * One line-granular probe.  Fast path: the coalescing filter — if this
 * is the same line the previous probe touched (and it is still resident
 * under the same tag), the probe is a hit by construction and skips the
 * set search.  Counter updates are exactly those of the full path.
 */
inline void
Cache::ProbeLine(Address line_addr, AccessType type)
{
    const std::size_t ls = last_slot_;
    if (ls != kNoSlot && tags_[ls] == line_addr && valid_[ls] != 0) {
        ++tick_;
        lru_[ls] = tick_;
        if (type == AccessType::kWrite) {
            dirty_[ls] = 1;
            ++stats_.write_hits;
        } else {
            ++stats_.read_hits;
        }
        return;
    }
    AccessLine(line_addr, type);
}

void
Cache::AccessLine(Address line_addr, AccessType type)
{
    const std::uint32_t assoc = config_.associativity;
    const std::size_t base_slot = SetIndex(line_addr) * assoc;
    Address *const tags = tags_.data() + base_slot;
    ++tick_;

    int way;
    if (line_addr != kInvalidTag) [[likely]] {
        // Tag-only set probe: invalid slots hold the sentinel, which
        // cannot equal this needle.
        way = WayOf(tags, assoc, line_addr);
    } else {
        // One-in-2^64 scalar-path needle that aliases the sentinel
        // (a top-of-address-space access with a tiny line size): only
        // the valid plane can distinguish residency here.
        way = -1;
        for (std::uint32_t w = 0; w < assoc; ++w) {
            if (valid_[base_slot + w] != 0 && tags[w] == line_addr) {
                way = static_cast<int>(w);
                break;
            }
        }
    }

    if (way >= 0) {
        const std::size_t slot = base_slot + static_cast<unsigned>(way);
        lru_[slot] = tick_;
        if (type == AccessType::kWrite) {
            dirty_[slot] = 1;
            ++stats_.write_hits;
        } else {
            ++stats_.read_hits;
        }
        if (way != 0) {
            // Keep the MRU line in way 0 so the next probe of this set
            // matches on the first tag lane.  Stamps move with lines,
            // so replacement decisions are unchanged.
            SwapSlots(slot, base_slot);
        }
        last_slot_ = base_slot;
        return;
    }

    // Miss: pick a victim.  Any invalid way is an equivalent victim
    // (no eviction, no writeback); among valid ways the unique minimum
    // LRU stamp decides, independent of position.
    std::size_t victim = base_slot;
    bool victim_valid = valid_[base_slot] != 0;
    for (std::uint32_t w = 1; w < assoc; ++w) {
        const std::size_t s = base_slot + w;
        if (valid_[s] == 0) {
            victim = s;
            victim_valid = false;
        } else if (victim_valid && lru_[s] < lru_[victim]) {
            victim = s;
        }
    }
    if (valid_[base_slot] == 0) {
        victim = base_slot;
        victim_valid = false;
    }

    // Evict the victim (writeback if dirty), then fill from below.
    if (type == AccessType::kWrite) {
        ++stats_.write_misses;
    } else {
        ++stats_.read_misses;
    }
    if (victim_valid && dirty_[victim] != 0) {
        ++stats_.writebacks;
        EmitBelow(tags_[victim], config_.line_bytes, AccessType::kWrite);
    }
    EmitBelow(line_addr, config_.line_bytes, AccessType::kRead);
    tags_[victim] = line_addr;
    valid_[victim] = 1;
    dirty_[victim] = (type == AccessType::kWrite) ? 1 : 0;
    lru_[victim] = tick_;
    if (victim != base_slot) {
        SwapSlots(victim, base_slot);
    }
    last_slot_ = base_slot;
}

/**
 * One line-granular *write* probe under a write-through policy.  The
 * line is never dirtied: the write itself is sent below (line-sized,
 * matching the model's line-granular below-traffic) after any fill.
 *
 *  - write-allocate: residency behavior is identical to the default
 *    policy (hits promote, misses select a victim and fill), so
 *    hit/miss counts match write-back exactly; victims are always
 *    clean, so no writeback can occur.
 *  - no-write-allocate: the probe only classifies hit/miss; it neither
 *    fills nor updates replacement state (non-promoting writes — see
 *    WritePolicy), so residency is decided by the read stream alone.
 */
void
Cache::PolicyWriteLine(Address line_addr)
{
    const bool allocate =
        config_.policy == WritePolicy::kWriteThroughAllocate;
    const std::uint32_t assoc = config_.associativity;
    const std::size_t base_slot = SetIndex(line_addr) * assoc;
    ++tick_;

    // Valid-checked scalar scan: the policy paths are not the hot
    // loop, and the scan is immune to the sentinel-alias corner.
    int way = -1;
    for (std::uint32_t w = 0; w < assoc; ++w) {
        const std::size_t s = base_slot + w;
        if (valid_[s] != 0 && tags_[s] == line_addr) {
            way = static_cast<int>(w);
            break;
        }
    }

    if (way >= 0) {
        ++stats_.write_hits;
        if (allocate) {
            const std::size_t slot =
                base_slot + static_cast<unsigned>(way);
            lru_[slot] = tick_;
            if (way != 0) {
                SwapSlots(slot, base_slot);
            }
            last_slot_ = base_slot;
        }
    } else {
        ++stats_.write_misses;
        if (allocate) {
            // Victim selection as in AccessLine; under write-through
            // no line is ever dirty, so eviction never writes back.
            std::size_t victim = base_slot;
            bool victim_valid = valid_[base_slot] != 0;
            for (std::uint32_t w = 1; w < assoc; ++w) {
                const std::size_t s = base_slot + w;
                if (valid_[s] == 0) {
                    victim = s;
                    victim_valid = false;
                } else if (victim_valid && lru_[s] < lru_[victim]) {
                    victim = s;
                }
            }
            if (valid_[base_slot] == 0) {
                victim = base_slot;
            }
            EmitBelow(line_addr, config_.line_bytes, AccessType::kRead);
            tags_[victim] = line_addr;
            valid_[victim] = 1;
            dirty_[victim] = 0;
            lru_[victim] = tick_;
            if (victim != base_slot) {
                SwapSlots(victim, base_slot);
            }
            last_slot_ = base_slot;
        }
    }
    // The write-through itself: one line-sized write below per probe.
    EmitBelow(line_addr, config_.line_bytes, AccessType::kWrite);
}

void
Cache::FlushAll()
{
    const std::size_t slots = geom_.num_sets * config_.associativity;
    for (std::size_t s = 0; s < slots; ++s) {
        if (valid_[s] != 0 && dirty_[s] != 0) {
            ++stats_.writebacks;
            below_->Access(tags_[s], config_.line_bytes,
                           AccessType::kWrite);
        }
        tags_[s] = kInvalidTag;
        lru_[s] = 0;
        valid_[s] = 0;
        dirty_[s] = 0;
    }
    last_slot_ = kNoSlot;
}

std::uint64_t
Cache::FlushRange(Address base, Bytes bytes)
{
    if (bytes == 0) {
        return 0;
    }
    const Bytes line = config_.line_bytes;
    Address cur = geom_.LineAddr(base);
    // Last-line formulation: safe for ranges ending at the top of the
    // address space (see AccessSpan).
    const Address last = geom_.LineAddr(base + (bytes - 1));
    std::uint64_t flushed = 0;
    for (;;) {
        const std::size_t set_base =
            SetIndex(cur) * config_.associativity;
        for (std::uint32_t way = 0; way < config_.associativity;
             ++way) {
            const std::size_t s = set_base + way;
            if (valid_[s] != 0 && tags_[s] == cur) {
                if (dirty_[s] != 0) {
                    ++stats_.writebacks;
                    below_->Access(tags_[s], line, AccessType::kWrite);
                }
                tags_[s] = kInvalidTag;
                lru_[s] = 0;
                valid_[s] = 0;
                dirty_[s] = 0;
                ++flushed;
                break;
            }
        }
        if (cur == last) {
            break;
        }
        cur += line;
    }
    last_slot_ = kNoSlot;
    return flushed;
}

bool
Cache::Contains(Address addr) const
{
    const Address line_addr = geom_.LineAddr(addr);
    const std::size_t set_base = SetIndex(line_addr) * config_.associativity;
    for (std::uint32_t way = 0; way < config_.associativity; ++way) {
        const std::size_t s = set_base + way;
        if (valid_[s] != 0 && tags_[s] == line_addr) {
            return true;
        }
    }
    return false;
}

} // namespace pim::sim
