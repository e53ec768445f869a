/**
 * @file
 * The reference cache model every replay engine is checked against.
 *
 * This is the cache model the repository started from, kept naive on
 * purpose so that it shares no mechanism with sim::Cache: an
 * array-of-structs line table, divide/modulo set indexing, a full
 * scan of the set on every probe, LRU by a global access tick, and one
 * Access per line with no batching, coalescing filter, tag-only probe
 * or way reordering.  It models the default write-back, write-allocate
 * policy only.
 *
 * OracleHierarchy composes it the way MemoryHierarchy composes
 * HierarchyConfig: L1, then the LLC when the config has one, over a
 * DramCounter.  tests/test_oracle.cc holds every engine, trace form
 * and thread count to it on randomized and recorded streams.
 */

#ifndef PIM_TESTS_ORACLE_H
#define PIM_TESTS_ORACLE_H

#include <cstdint>
#include <optional>
#include <vector>

#include "common/logging.h"
#include "sim/cache.h"
#include "sim/dram.h"
#include "sim/hierarchy.h"
#include "sim/perf_counters.h"

namespace pim::sim {

/** Reference write-back, write-allocate LRU cache level. */
class OracleCache final : public MemorySink
{
  public:
    OracleCache(const CacheConfig &config, MemorySink &below)
        : config_(config), below_(&below)
    {
        const Bytes set_bytes = config_.line_bytes * config_.associativity;
        PIM_ASSERT(config_.policy == WritePolicy::kWriteBackAllocate,
                   "the oracle models write-back caches only");
        PIM_ASSERT(set_bytes != 0 && config_.size % set_bytes == 0,
                   "cache size must be a whole number of sets");
        num_sets_ = config_.size / set_bytes;
        lines_.resize(num_sets_ * config_.associativity);
    }

    void
    Access(Address addr, Bytes bytes, AccessType type) override
    {
        if (bytes == 0) {
            return;
        }
        // Walk to the last line touched rather than to addr + bytes,
        // which could wrap at the top of the address space.
        const Address first = addr - addr % config_.line_bytes;
        const Address end = addr + (bytes - 1);
        const Address last = end - end % config_.line_bytes;
        for (Address line = first;; line += config_.line_bytes) {
            AccessLine(line, type);
            if (line == last) {
                break;
            }
        }
    }

    const CacheStats &stats() const { return stats_; }

  private:
    struct Line
    {
        Address tag = 0;
        std::uint64_t lru = 0;
        bool valid = false;
        bool dirty = false;
    };

    void
    AccessLine(Address line_addr, AccessType type)
    {
        const std::size_t set = static_cast<std::size_t>(
            (line_addr / config_.line_bytes) % num_sets_);
        Line *base = &lines_[set * config_.associativity];
        ++tick_;

        Line *victim = base;
        for (std::uint32_t way = 0; way < config_.associativity; ++way) {
            Line &l = base[way];
            if (l.valid && l.tag == line_addr) {
                l.lru = tick_;
                if (type == AccessType::kWrite) {
                    l.dirty = true;
                    ++stats_.write_hits;
                } else {
                    ++stats_.read_hits;
                }
                return;
            }
            if (!l.valid) {
                victim = &l;
            } else if (victim->valid && l.lru < victim->lru) {
                victim = &l;
            }
        }

        if (type == AccessType::kWrite) {
            ++stats_.write_misses;
        } else {
            ++stats_.read_misses;
        }
        if (victim->valid && victim->dirty) {
            ++stats_.writebacks;
            below_->Access(victim->tag, config_.line_bytes,
                           AccessType::kWrite);
        }
        below_->Access(line_addr, config_.line_bytes, AccessType::kRead);
        victim->valid = true;
        victim->dirty = (type == AccessType::kWrite);
        victim->tag = line_addr;
        victim->lru = tick_;
    }

    CacheConfig config_;
    MemorySink *below_;
    std::size_t num_sets_ = 0;
    std::vector<Line> lines_;
    CacheStats stats_;
    std::uint64_t tick_ = 0;
};

/** Reference hierarchy: L1 -> optional LLC -> DramCounter. */
class OracleHierarchy
{
  public:
    explicit OracleHierarchy(const HierarchyConfig &config)
        : dram_(config.dram)
    {
        if (config.llc.has_value()) {
            llc_.emplace(*config.llc, dram_);
        }
        l1_.emplace(config.l1,
                    llc_.has_value() ? static_cast<MemorySink &>(*llc_)
                                     : dram_);
    }

    OracleHierarchy(const OracleHierarchy &) = delete;
    OracleHierarchy &operator=(const OracleHierarchy &) = delete;

    MemorySink &Top() { return *l1_; }

    /** Counters in MemoryHierarchy::Snapshot's shape. */
    PerfCounters
    Snapshot() const
    {
        PerfCounters pc;
        pc.l1 = l1_->stats();
        if (llc_.has_value()) {
            pc.llc = llc_->stats();
            pc.has_llc = true;
        }
        pc.dram = dram_.stats();
        return pc;
    }

  private:
    DramCounter dram_;
    std::optional<OracleCache> llc_;
    std::optional<OracleCache> l1_;
};

} // namespace pim::sim

#endif // PIM_TESTS_ORACLE_H
