/**
 * @file
 * Adaptive per-region protection modes (Scheme::ShmAdaptive), shared
 * between the timing engine (mee/engine.hh) and the functional model
 * (mee/functional.hh).
 *
 * The adaptive scheme starts every region at Full SHM protection and
 * re-classifies at epoch boundaries from the detector / L2-monitor
 * signals. The demoted modes are only ever entered for regions the
 * controller believes are write-free, and any write or detector
 * misprediction promotes straight back to Full — so within one
 * residency in a demoted mode a region has exactly one valid
 * ciphertext version, which is what keeps mispredicted demotions
 * detectable (see docs/SIMULATOR.md).
 */

#ifndef SHMGPU_MEE_ADAPT_HH
#define SHMGPU_MEE_ADAPT_HH

#include <cstdint>

#include "common/types.hh"

namespace shmgpu::mee
{

/**
 * Protection mode of one adaptive region. Full is the SHM default;
 * the other three are the demotion targets the controller may pick at
 * an epoch boundary. Order matters: the values are packed into
 * AdaptSwitch trace payloads and stats names.
 */
enum class AdaptMode : std::uint8_t
{
    Full,      //!< split counters + BMT + dual-granularity MACs
    RoElide,   //!< shared counter, freshness elided (read-only regions)
    CommonCtr, //!< counters served by the common-counter table
    MacOnly    //!< MAC integrity only: no counter fetch, no BMT
};

/**
 * Demotion thresholds for the adaptive controller, evaluated per
 * region at each epoch boundary. "Reads" here are the engine's
 * onRead() calls, i.e. per-region L2 miss counters — the re-use of
 * the existing signal the scheme is built on.
 */
struct AdaptThresholds
{
    /** Min epoch reads (zero writes + detector-confirmed read-only)
     *  to demote a region to RoElide. */
    std::uint64_t roMinReads = 4;
    /** Min epoch reads (zero writes + streaming-predicted) to demote
     *  to CommonCtr, or to MacOnly under MDC pressure. */
    std::uint64_t streamMinReads = 16;
    /** Sampled L2 miss rate (the victim monitor's signal) at or above
     *  which streaming read-only traffic drops to MacOnly. */
    double macOnlyMissRate = 0.9;
};

/**
 * One recorded mode transition. The functional model appends these to
 * its transition log; an oracle context replaying the same operation
 * stream applies them at the recorded @p seq positions and must land
 * on byte-identical state (tests/test_adaptive_diff.cc).
 */
struct AdaptTransition
{
    /** Value of SecureMemoryContext::opSeq() when the transition was
     *  applied (i.e. number of public operations completed before
     *  it). */
    std::uint64_t seq = 0;
    LocalAddr regionBase = 0;
    AdaptMode from = AdaptMode::Full;
    AdaptMode to = AdaptMode::Full;
};

} // namespace shmgpu::mee

#endif // SHMGPU_MEE_ADAPT_HH
