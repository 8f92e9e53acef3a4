/**
 * @file
 * Configuration-file overrides for the GPU and MEE parameters, so the
 * CLI (and downstream embedders) can explore the design space without
 * recompiling:
 *
 *   # turing.cfg
 *   gpu.num_sms            = 30
 *   gpu.sm_window          = 64
 *   gpu.max_cycles         = 100000
 *   cache.policy           = lru   # L2: lru/fifo/random/s3fifo/sieve
 *   dram.bytes_per_cycle   = 16
 *   mee.mdc_policy         = lru   # metadata caches, same value set
 *   mee.adapt_epoch        = 50000 # SHM_adaptive reclassify period
 *   mee.adapt_thresholds   = 4,16,0.9  # roMinReads,streamMinReads,
 *                                      # macOnlyMissRate
 *
 * Unknown keys are fatal (Config::assertConsumed); so are unknown
 * policy names, which list the valid set in the error.
 */

#ifndef SHMGPU_CORE_OVERRIDES_HH
#define SHMGPU_CORE_OVERRIDES_HH

#include "common/config.hh"
#include "common/trace.hh"
#include "core/experiment.hh"
#include "gpu/params.hh"
#include "mee/adapt.hh"

namespace shmgpu::core
{

/** Apply "gpu.*" and "dram.*" keys to @p params. */
void applyGpuOverrides(Config &config, gpu::GpuParams &params);

/**
 * Apply the "mee.*" keys (`mee.mdc_policy`, `mee.adapt_epoch`,
 * `mee.adapt_thresholds`) to @p settings. The adaptive optionals are
 * set only when the file names their key. Every other "mee.*" key is
 * left unconsumed, so Config::assertConsumed rejects it.
 */
void applyMeeOverrides(Config &config, MeeSettings &settings);

/**
 * Parse the packed "roMinReads,streamMinReads,macOnlyMissRate" form
 * of `mee.adapt_thresholds` (also the CLI's --adapt-thresholds).
 * Fatal on malformed input or a miss rate outside [0,1].
 */
mee::AdaptThresholds parseAdaptThresholds(const std::string &text);

/**
 * Apply "trace.*" keys to @p params:
 *   trace.classes = sm,txn,engine,l2,mee,detect (or "all")
 */
void applyTraceOverrides(Config &config, trace::TraceParams &params);

} // namespace shmgpu::core

#endif // SHMGPU_CORE_OVERRIDES_HH
