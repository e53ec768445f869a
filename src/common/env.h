/**
 * @file
 * Environment-variable parsing with loud fallbacks.
 *
 * The sharded-pass switch (PIM_SHARD_PASS, read by PlanForPass in
 * sim/sharded_replay.cc: off runs every profiling pass as one shard)
 * and the worker-count override (PIM_SWEEP_THREADS) are read from the
 * environment.  A typo
 * there used to fall through silently to the default — the worst
 * failure mode for a measurement tool, because the run *works* but
 * measures the wrong configuration.  These helpers accept the
 * documented spellings and warn exactly once per call site with the
 * offending value and the fallback chosen for anything else.
 */

#ifndef PIM_COMMON_ENV_H
#define PIM_COMMON_ENV_H

namespace pim {

/**
 * Parse an on/off environment value.  Recognized (case-sensitive, as
 * documented): on / 1 / true / yes and off / 0 / false / no.  nullptr
 * and "" mean unset and return @p fallback silently; any other value
 * warns `ignoring unrecognized NAME='VALUE'; keeping ...` and returns
 * @p fallback.
 */
bool ParseSwitchValue(const char *name, const char *value, bool fallback);

/** ParseSwitchValue on getenv(name). */
bool EnvSwitch(const char *name, bool fallback);

/**
 * Parse a positive worker-count environment value in [1, @p max].
 * nullptr/"" return 0 (no override) silently; a malformed or
 * out-of-range value warns with the fallback that will be used
 * instead and returns 0.
 */
unsigned ParseThreadsValue(const char *name, const char *value,
                           unsigned max = 4096);

} // namespace pim

#endif // PIM_COMMON_ENV_H
