/**
 * @file
 * The library's top-level facade: run (scheme x workload) experiments
 * and get back paper-style metrics.
 *
 * Typical use:
 * @code
 *   shmgpu::core::Experiment exp;
 *   auto r = exp.run(shmgpu::schemes::Scheme::Shm,
 *                    shmgpu::workload::findWorkload("lbm"));
 *   std::cout << r.normalizedIpc << "\n";
 * @endcode
 *
 * Experiment itself holds no per-run state beyond the shared
 * BaselineCache, so one instance may be used from many threads at
 * once (core::SweepRunner does exactly that), and several instances
 * constructed with the same cache share baseline simulations.
 */

#ifndef SHMGPU_CORE_EXPERIMENT_HH
#define SHMGPU_CORE_EXPERIMENT_HH

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>

#include "common/trace.hh"
#include "gpu/energy.hh"
#include "gpu/metrics.hh"
#include "gpu/params.hh"
#include "mee/adapt.hh"
#include "schemes/schemes.hh"
#include "workload/benchmarks.hh"

namespace shmgpu::detect
{
class AccessProfile;
}

namespace shmgpu::core
{

/**
 * The MEE settings a run takes on top of its scheme's registry
 * defaults (`mee.mdc_policy`, `mee.adapt_epoch`, `mee.adapt_thresholds`
 * and the `--policy` / `--adapt-epoch` / `--adapt-thresholds` flags).
 * Carried beside the scheme rather than in MeeParams because the
 * registry owns MeeParams construction: meeParamsFor stamps the record
 * onto whatever schemes::makeMeeParams returns. Baseline and profile
 * passes never take it (they have no metadata caches to steer).
 */
struct MeeSettings
{
    /** Replacement policy of all three metadata caches. */
    mem::PolicyKind mdcPolicy = mem::PolicyKind::Lru;
    /**
     * Adaptive-scheme controls. Unset keeps the scheme defaults; an
     * explicit adaptEpoch of 0 freezes every region at Full
     * protection. Ignored by non-adaptive schemes.
     */
    std::optional<Cycle> adaptEpoch;
    std::optional<mee::AdaptThresholds> adaptThresholds;
};

/** schemes::makeMeeParams(@p scheme) with @p settings stamped on. */
mee::MeeParams meeParamsFor(schemes::Scheme scheme,
                            const MeeSettings &settings);

/** Options for one experiment run. */
struct RunOptions
{
    /**
     * Attribute every prediction against the ground truth of the
     * spec's profiled Baseline run (BaselineCache::profileFor; enables
     * the Fig. 10/11 tallies). Implied for SHM_upper_bound.
     */
    bool collectAccuracy = false;

    /**
     * When non-empty, attach a tracer to the measured simulation
     * (never the profile or baseline passes) and export a Chrome
     * trace_event JSON file to this path.
     */
    std::string tracePath;

    /**
     * When non-empty, export one trace per cell to
     * <traceDir>/<workload>_<scheme>.trace.json. Used by the sweep
     * runner, where a single tracePath would be overwritten by every
     * grid cell.
     */
    std::string traceDir;

    /**
     * When non-empty, also export the deterministic line-per-event
     * text dump to this path (diff-friendly A/B format).
     */
    std::string traceTextPath;

    /** Tracer configuration (event-class filter, ring capacity). */
    trace::TraceParams traceParams;

    /** MEE settings stamped onto the scheme's parameters for the
     *  measured pass (see MeeSettings). */
    MeeSettings meeSettings;
};

/** One (scheme, workload) result, normalized to the baseline. */
struct ExperimentResult
{
    std::string workload;
    std::string scheme;
    /** Replacement policies the cell ran under ("lru", "sieve", ...). */
    std::string l2Policy;
    std::string mdcPolicy;
    /** Effective reclassification epoch the cell ran under (0 for
     *  non-adaptive schemes; distinguishes --adapt-epochs cells). */
    std::uint64_t adaptEpoch = 0;
    gpu::RunMetrics metrics;
    gpu::RunMetrics baseline;

    /** IPC / baseline IPC (Fig. 12/13/16). <= ~1.0. */
    double normalizedIpc = 0;
    /** Performance overhead = 1 - normalizedIpc. */
    double overhead() const { return 1.0 - normalizedIpc; }
    /** Energy-per-instruction / baseline (Fig. 15). */
    double normalizedEnergyPerInstr = 0;
};

/** Detector geometry a ground-truth profile is collected at. */
struct ProfileGeometry
{
    std::uint64_t regionBytes = 0; //!< read-only detector region
    std::uint64_t chunkBytes = 0;  //!< streaming detector chunk

    auto operator<=>(const ProfileGeometry &) const = default;
};

/** The geometry @p scheme's detectors are judged (or primed) at. */
ProfileGeometry profileGeometry(schemes::Scheme scheme);

/** True when a @p scheme cell run with @p options needs a profile:
 *  SHM_upper_bound primes from one, collectAccuracy attributes
 *  against one. */
bool needsProfile(schemes::Scheme scheme, const RunOptions &options);

/**
 * Thread-safe memo computing each key's value exactly once: callers of
 * a key in flight wait for it (call_once) while other keys proceed.
 * Values keep their address for the memo's lifetime. Holds
 * BaselineCache's metrics and ScenarioSoloCache's solo references.
 */
template <typename Value>
class OnceMemo
{
  public:
    /** The value under @p key, computed by @p make() on first use. */
    template <typename Make>
    const Value &
    get(std::uint64_t key, Make &&make)
    {
        Entry *entry = nullptr;
        {
            std::lock_guard<std::mutex> lock(mutex);
            auto &slot = entries[key];
            if (!slot)
                slot = std::make_unique<Entry>();
            entry = slot.get();
        }
        std::call_once(entry->once, [&] { entry->value = make(); });
        return entry->value;
    }

    /** Number of distinct keys requested so far. */
    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex);
        return entries.size();
    }

  private:
    struct Entry
    {
        std::once_flag once;
        Value value;
    };

    mutable std::mutex mutex;
    std::map<std::uint64_t, std::unique_ptr<Entry>> entries;
};

/**
 * Thread-safe store of the no-security Baseline simulation of each
 * spec: its metrics, and on request the ground-truth access profile
 * collected along the way. Keyed by workload::contentHash so distinct
 * specs sharing a name (regenerated parameter sweeps) never alias.
 *
 * Each unique spec's metrics are simulated exactly once even under
 * concurrent lookups (OnceMemo). When the first request is for a
 * profile, that one profiled run fills the metrics too (collecting a
 * profile never changes them).
 */
class BaselineCache
{
  public:
    explicit BaselineCache(const gpu::GpuParams &gpu_params);

    /** Metrics for @p spec, simulating on first use. The returned
     *  reference stays valid for the cache's lifetime. */
    const gpu::RunMetrics &metricsFor(const workload::WorkloadSpec &spec);

    /**
     * The finalized ground-truth profile of @p spec's Baseline run at
     * @p geometry, shared read-only by every caller. The cache keeps
     * only a weak reference: one profiled pass serves every request
     * made while some caller still holds the profile, and the profile
     * is freed when the last holder drops it (a later request
     * simulates it again, bit-identically).
     */
    std::shared_ptr<const detect::AccessProfile>
    profileFor(const workload::WorkloadSpec &spec,
               const ProfileGeometry &geometry);

    /** Number of distinct specs whose metrics were requested. */
    std::size_t size() const { return metrics.size(); }

    /** Baseline simulations run so far, profiled passes included. */
    std::size_t simulations() const { return simulated.load(); }

    const gpu::GpuParams &gpuParams() const { return gpuConfig; }

  private:
    struct ProfileEntry
    {
        std::mutex mutex; //!< serializes the threads needing it
        std::weak_ptr<const detect::AccessProfile> profile;
    };

    gpu::RunMetrics simulate(const workload::WorkloadSpec &spec,
                             detect::AccessProfile *collector);

    gpu::GpuParams gpuConfig;
    std::atomic<std::size_t> simulated{0};
    /** Keyed by spec content hash. */
    OnceMemo<gpu::RunMetrics> metrics;
    std::mutex mutex; //!< guards profiles
    /** Keyed by (spec content hash, region bytes, chunk bytes). */
    std::map<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>,
             std::unique_ptr<ProfileEntry>>
        profiles;
};

/** Runs experiments against a (possibly shared) baseline cache. */
class Experiment
{
  public:
    explicit Experiment(const gpu::GpuParams &gpu_params = {},
                        const gpu::EnergyParams &energy_params = {});

    /** Share @p baselines (GPU parameters come from the cache). */
    Experiment(std::shared_ptr<BaselineCache> baselines,
               const gpu::EnergyParams &energy_params = {});

    /** Simulate @p scheme on @p spec (baseline simulated on demand). */
    ExperimentResult run(schemes::Scheme scheme,
                         const workload::WorkloadSpec &spec,
                         const RunOptions &options = {}) const;

    /** The no-security metrics for @p spec, cached by content hash. */
    const gpu::RunMetrics &
    baselineFor(const workload::WorkloadSpec &spec) const;

    const gpu::GpuParams &gpuParams() const
    {
        return baselines->gpuParams();
    }
    const std::shared_ptr<BaselineCache> &baselineCache() const
    {
        return baselines;
    }

  private:
    gpu::EnergyParams energyConfig;
    std::shared_ptr<BaselineCache> baselines;
};

/** Geometric mean helper for per-workload normalized series. */
double geomean(const std::vector<double> &values);

} // namespace shmgpu::core

#endif // SHMGPU_CORE_EXPERIMENT_HH
