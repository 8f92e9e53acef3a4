/**
 * @file
 * core::SweepRunner — the parallel (scheme x workload) grid runner —
 * and core::runGrid, the one executor it shares with scenario grids
 * (core::runScenarioCells).
 *
 * Every paper figure is a grid of independent Experiment cells; this
 * runner executes them on a pool of worker threads while guaranteeing
 * *bit-identical* results at any job count:
 *
 *  - each cell builds its own GpuSimulator whose RNG streams are
 *    seeded only from the workload spec, never from thread identity
 *    or scheduling order;
 *  - all workers share one BaselineCache, so each unique workload's
 *    no-security baseline is simulated exactly once (call_once) and
 *    every cell normalizes against the same bits;
 *  - each distinct spec's baseline is dispatched as its own task
 *    before any cell, collecting the spec's ground-truth profile in
 *    the same run when one of its cells needs it, so cells neither
 *    wait for nor repeat a baseline;
 *  - results land in a pre-sized vector slot per cell, so the output
 *    order is the grid order regardless of completion order.
 *
 * The structured results sink (writeSweepJson) is what the figure
 * benches and the golden-metrics test tier consume; its byte output
 * is a pure function of the grid, which is how the "--jobs 1 ==
 * --jobs N" acceptance test can diff whole files.
 */

#ifndef SHMGPU_CORE_SWEEP_HH
#define SHMGPU_CORE_SWEEP_HH

#include <atomic>
#include <functional>
#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/json.hh"
#include "core/experiment.hh"

namespace shmgpu::core
{

class ResultCache;

/** One grid cell: simulate @p scheme on @p spec. */
struct SweepCell
{
    schemes::Scheme scheme = schemes::Scheme::Baseline;
    /** Not owned; must outlive the sweep. */
    const workload::WorkloadSpec *spec = nullptr;
};

/**
 * Thrown by SweepRunner::run when the cancel token fires. Carries the
 * cells that *did* finish (grid order, gaps removed) so the caller can
 * report a partial, resumable sweep instead of discarding paid-for
 * work — with a ResultCache attached those cells are already on disk.
 */
class SweepCancelled : public std::runtime_error
{
  public:
    SweepCancelled() : std::runtime_error("sweep cancelled") {}

    /** Completed cells in grid order (unfinished cells skipped). */
    std::vector<ExperimentResult> partial;
    /** Total cells in the cancelled grid. */
    std::size_t totalCells = 0;
};

/** How a sweep's cells were satisfied (an output of runCells). */
struct SweepTally
{
    /** Cells actually simulated this run. */
    std::size_t simulated = 0;
    /** Cells loaded from the ResultCache instead of simulated. */
    std::size_t cached = 0;
};

/** A task the grid executor runs before the missed cells; a throw
 *  counts as the failure of @ref cell. */
struct GridTask
{
    std::size_t cell = 0;
    std::function<void()> run;
};

/** One grid as runGrid sees it: its size, its cell kind's hooks and
 *  the scheduling controls every kind shares. */
struct GridPlan
{
    std::size_t cells = 0;
    /** Worker threads; 0 means std::thread::hardware_concurrency(). */
    unsigned jobs = 1;
    /** Load cell i from the result cache, true on a hit; null without
     *  a cache. */
    std::function<bool(std::size_t)> load;
    /** The tasks to run before the missed cells (given in grid
     *  order); null for none. */
    std::function<std::vector<GridTask>(const std::vector<std::size_t> &)>
        prepare;
    /** Simulate cell i and publish it to the cache, if any. */
    std::function<void(std::size_t)> simulate;
    /** @{ As in SweepOptions. */
    const std::atomic<bool> *cancel = nullptr;
    std::size_t cancelAfter = 0;
    SweepTally *tally = nullptr;
    /** @} */
};

/** How a grid run that did not throw ended. */
struct GridOutcome
{
    bool cancelled = false;
    /** Per cell: nonzero when loaded or simulated. */
    std::vector<char> finished;
};

/**
 * The one grid executor, behind SweepRunner::runCells and
 * runScenarioCells. Dispatch order: result-cache hits first (on the
 * pool), then plan.prepare's tasks, then the missed cells in grid
 * order. The failure with the lowest cell index is rethrown after the
 * pool drains; unstarted work is abandoned after a failure or cancel.
 */
GridOutcome runGrid(const GridPlan &plan);

/** Options for one sweep. */
struct SweepOptions
{
    /** Worker threads; 0 means std::thread::hardware_concurrency(). */
    unsigned jobs = 1;
    /** Per-cell run options (accuracy collection etc.). */
    RunOptions run;
    /**
     * Optional cooperative cancel token. Setting it true stops
     * workers at the next cell boundary and makes run() throw
     * SweepCancelled (in-flight cells finish first).
     */
    std::shared_ptr<std::atomic<bool>> cancel;
    /**
     * Optional persistent cell store (not owned; must outlive the
     * sweep). When set, each cell's key is looked up before
     * simulating — a hit is returned as-is (bit-identical to a fresh
     * run by the cache's round-trip contract) — and every freshly
     * simulated cell is written back the moment it finishes, which is
     * what makes interrupted sweeps resumable.
     */
    ResultCache *cache = nullptr;
    /**
     * Optional tally sink (not owned); filled with the number of
     * simulated vs cache-loaded cells when run()/runCells() returns
     * or throws SweepCancelled.
     */
    SweepTally *tally = nullptr;
    /**
     * Testing/CI knob: fire the cancel path after this many cells
     * have completed (0 = never; baseline tasks do not count). Gives
     * a deterministic way to interrupt a sweep mid-grid and exercise
     * resume.
     */
    std::size_t cancelAfter = 0;
};

/** Thread-pool executor for experiment grids. */
class SweepRunner
{
  public:
    explicit SweepRunner(const gpu::GpuParams &gpu_params = {},
                         const gpu::EnergyParams &energy_params = {});
    virtual ~SweepRunner() = default;

    /**
     * Run the full @p schemes x @p workloads grid. Results are in
     * workload-major order (all schemes of workloads[0] first),
     * independent of the job count.
     *
     * Dispatch order: result-cache hits are resolved first; then one
     * baseline task per distinct spec with a miss; then the missed
     * cells in grid order.
     *
     * The first cell failure (by grid order) is rethrown after the
     * pool drains; remaining unstarted cells are abandoned. A failed
     * baseline counts as the failure of its spec's first missed cell.
     */
    std::vector<ExperimentResult>
    run(const std::vector<schemes::Scheme> &schemes,
        const std::vector<const workload::WorkloadSpec *> &workloads,
        const SweepOptions &options = {}) const;

    /** Run an explicit cell list (ragged grids, ablations). */
    std::vector<ExperimentResult>
    runCells(const std::vector<SweepCell> &cells,
             const SweepOptions &options = {}) const;

    const gpu::GpuParams &gpuParams() const
    {
        return baselines->gpuParams();
    }
    const std::shared_ptr<BaselineCache> &baselineCache() const
    {
        return baselines;
    }

  protected:
    /** Seam for tests (exception injection); default delegates to
     *  Experiment::run. */
    virtual ExperimentResult runCell(const Experiment &experiment,
                                     const SweepCell &cell,
                                     const RunOptions &options) const;

    /**
     * One spec's baseline task (seam for tests): the metrics, or the
     * profile at each of @p geometries when some cell needs one. The
     * runner holds the returned profiles until the spec's last
     * profile-consuming cell has finished.
     */
    virtual std::vector<std::shared_ptr<const detect::AccessProfile>>
    runBaseline(const workload::WorkloadSpec &spec,
                const std::vector<ProfileGeometry> &geometries) const;

  private:
    gpu::EnergyParams energyConfig;
    std::shared_ptr<BaselineCache> baselines;
};

/**
 * Run a policy x scheme x workload grid: for each replacement policy,
 * run the full (schemes x workloads) grid with the L2 banks *and* the
 * metadata caches switched to that policy. Results are policy-major
 * (all cells of policies[0] first), each annotated with its policy
 * names for the JSON sink.
 *
 * A fresh SweepRunner (and thus BaselineCache) is built per policy:
 * the L2 policy changes the no-security baseline IPC, so cells must
 * normalize against a baseline running under the *same* policy or the
 * overhead numbers would mix machines.
 */
std::vector<ExperimentResult>
runPolicyGrid(const gpu::GpuParams &base,
              const std::vector<mem::PolicyKind> &policies,
              const std::vector<schemes::Scheme> &schemes,
              const std::vector<const workload::WorkloadSpec *> &workloads,
              const SweepOptions &options = {});

/** One result as a JSON object (all metrics, fixed member order). */
json::Value resultToJson(const ExperimentResult &result);

/** One RunMetrics as a JSON object (fixed member order; shared by the
 *  sweep and scenario sinks — exact round-trip with
 *  runMetricsFromJson). */
json::Value runMetricsToJson(const gpu::RunMetrics &metrics);

/**
 * The full results document: {"schemaVersion", "results": [...]}
 * plus per-scheme geomean summaries. Deterministic: depends only on
 * the result list, never on job count or timing.
 */
json::Value sweepToJson(const std::vector<ExperimentResult> &results);

/** Serialize sweepToJson with a trailing newline (the --out sink). */
void writeSweepJson(std::ostream &os,
                    const std::vector<ExperimentResult> &results);

} // namespace shmgpu::core

#endif // SHMGPU_CORE_SWEEP_HH
