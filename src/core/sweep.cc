#include "core/sweep.hh"

#include <algorithm>
#include <deque>
#include <exception>
#include <iterator>
#include <map>
#include <mutex>
#include <ostream>
#include <thread>

#include "common/logging.hh"
#include "core/result_cache.hh"

namespace shmgpu::core
{

SweepRunner::SweepRunner(const gpu::GpuParams &gpu_params,
                         const gpu::EnergyParams &energy_params)
    : energyConfig(energy_params),
      baselines(std::make_shared<BaselineCache>(gpu_params))
{
}

ExperimentResult
SweepRunner::runCell(const Experiment &experiment, const SweepCell &cell,
                     const RunOptions &options) const
{
    shm_assert(cell.spec != nullptr, "sweep cell without a workload");
    return experiment.run(cell.scheme, *cell.spec, options);
}

std::vector<ExperimentResult>
SweepRunner::run(const std::vector<schemes::Scheme> &schemes,
                 const std::vector<const workload::WorkloadSpec *>
                     &workloads,
                 const SweepOptions &options) const
{
    std::vector<SweepCell> cells;
    cells.reserve(schemes.size() * workloads.size());
    for (const auto *w : workloads)
        for (auto s : schemes)
            cells.push_back({s, w});
    return runCells(cells, options);
}

std::vector<std::shared_ptr<const detect::AccessProfile>>
SweepRunner::runBaseline(const workload::WorkloadSpec &spec,
                         const std::vector<ProfileGeometry> &geometries)
    const
{
    std::vector<std::shared_ptr<const detect::AccessProfile>> held;
    if (geometries.empty())
        baselines->metricsFor(spec);
    for (const ProfileGeometry &g : geometries)
        held.push_back(baselines->profileFor(spec, g));
    return held;
}

GridOutcome
runGrid(const GridPlan &plan)
{
    const std::size_t n = plan.cells;
    GridOutcome outcome;
    // Distinct cells write distinct bytes: no lock needed.
    std::vector<char> &finished = outcome.finished;
    finished.assign(n, 0);
    if (n == 0)
        return outcome;

    unsigned jobs = plan.jobs != 0
                        ? plan.jobs
                        : std::max(1u, std::thread::hardware_concurrency());
    jobs = static_cast<unsigned>(std::min<std::size_t>(jobs, n));

    std::atomic<bool> stop{false};
    std::atomic<bool> auto_cancel{false};
    std::atomic<std::size_t> done{0};
    std::atomic<std::size_t> n_simulated{0};
    std::mutex error_mutex;
    std::vector<std::exception_ptr> errors(n);

    auto cancelled = [&] {
        return (plan.cancel && plan.cancel->load()) || auto_cancel.load();
    };
    // Run @p fn, recording a throw as @p cell's failure; the first
    // failure abandons all unstarted work.
    auto attempt = [&](std::size_t cell, const auto &fn) {
        try {
            fn();
        } catch (...) {
            std::lock_guard<std::mutex> lock(error_mutex);
            if (!errors[cell])
                errors[cell] = std::current_exception();
            stop.store(true);
        }
    };
    auto cell_done = [&](std::size_t i) {
        finished[i] = 1;
        const std::size_t completed = done.fetch_add(1) + 1;
        if (plan.cancelAfter != 0 && completed >= plan.cancelAfter)
            auto_cancel.store(true);
    };
    // The worker pool: item(0..count-1) in order of dispatch across
    // the workers (inline when jobs == 1) until done, failed or
    // cancelled.
    auto on_pool = [&](std::size_t count, const auto &item) {
        std::atomic<std::size_t> next{0};
        auto worker = [&] {
            for (std::size_t k = next.fetch_add(1);
                 k < count && !stop.load() && !cancelled();
                 k = next.fetch_add(1))
                item(k);
        };
        if (jobs == 1)
            return worker();
        std::vector<std::thread> pool;
        pool.reserve(jobs);
        for (unsigned t = 0; t < jobs; ++t)
            pool.emplace_back(worker);
        for (auto &t : pool)
            t.join();
    };

    // Phase 1: resolve result-cache hits, so prepare sees only the
    // misses.
    if (plan.load)
        on_pool(n, [&](std::size_t i) {
            attempt(i, [&] {
                if (plan.load(i))
                    cell_done(i);
            });
        });
    const std::size_t n_cached = done.load();

    // Phase 2: the tasks prepare asks for, then the missed cells in
    // grid order.
    std::vector<std::size_t> misses;
    for (std::size_t i = 0; i < n; ++i)
        if (!finished[i])
            misses.push_back(i);
    std::vector<GridTask> tasks;
    if (plan.prepare && !stop.load() && !cancelled())
        tasks = plan.prepare(misses);
    on_pool(tasks.size() + misses.size(), [&](std::size_t k) {
        if (k < tasks.size())
            return attempt(tasks[k].cell, tasks[k].run);
        const std::size_t i = misses[k - tasks.size()];
        attempt(i, [&] {
            plan.simulate(i);
            n_simulated.fetch_add(1);
            cell_done(i);
        });
    });

    if (plan.tally) {
        plan.tally->simulated = n_simulated.load();
        plan.tally->cached = n_cached;
    }
    // Rethrow the failure with the lowest cell index so the caller
    // sees the same error no matter how cells were scheduled.
    for (const auto &err : errors) {
        if (err)
            std::rethrow_exception(err);
    }
    outcome.cancelled = cancelled();
    return outcome;
}

namespace
{

/** One distinct spec's baseline, dispatched before any cell. */
struct BaselineTask
{
    const workload::WorkloadSpec *spec = nullptr;
    /** Lowest-index missed cell of the spec: where a failure lands. */
    std::size_t firstCell = 0;
    std::vector<ProfileGeometry> geometries;
    std::vector<std::shared_ptr<const detect::AccessProfile>> held;
    /** Holders of `held` still to finish: the consuming cells plus
     *  the task itself. The last one out frees the profiles. */
    std::atomic<std::size_t> users{1};

    void
    release()
    {
        if (users.fetch_sub(1) == 1)
            held.clear();
    }
};

/** Releases a task's hold (if any) when it leaves scope, however. */
class TaskHold
{
  public:
    explicit TaskHold(BaselineTask *held_task) : task(held_task) {}
    TaskHold(const TaskHold &) = delete;
    TaskHold &operator=(const TaskHold &) = delete;
    ~TaskHold()
    {
        if (task)
            task->release();
    }

  private:
    BaselineTask *task;
};

} // namespace

std::vector<ExperimentResult>
SweepRunner::runCells(const std::vector<SweepCell> &cells,
                      const SweepOptions &options) const
{
    const std::size_t n = cells.size();
    std::vector<ExperimentResult> results(n);
    const Experiment experiment(baselines, energyConfig);
    std::vector<std::uint64_t> keys(n);
    // One baseline task per distinct spec with a miss (first
    // appearance order), holding profiles for its consuming cells.
    std::deque<BaselineTask> tasks;
    std::vector<std::size_t> task_of_cell(n);

    GridPlan plan;
    plan.cells = n;
    plan.jobs = options.jobs;
    plan.cancel = options.cancel.get();
    plan.cancelAfter = options.cancelAfter;
    plan.tally = options.tally;
    if (options.cache) {
        plan.load = [&](std::size_t i) {
            keys[i] = cellKey(baselines->gpuParams(), energyConfig,
                              options.run, cells[i].scheme,
                              *cells[i].spec);
            return options.cache->load(keys[i], &results[i]);
        };
    }
    plan.prepare = [&](const std::vector<std::size_t> &misses) {
        std::map<std::uint64_t, std::size_t> task_of_spec;
        for (std::size_t i : misses) {
            shm_assert(cells[i].spec != nullptr,
                       "sweep cell without a workload");
            const auto [it, fresh] = task_of_spec.emplace(
                workload::contentHash(*cells[i].spec), tasks.size());
            task_of_cell[i] = it->second;
            if (fresh)
                tasks.emplace_back();
            BaselineTask &task = tasks[it->second];
            if (!task.spec) {
                task.spec = cells[i].spec;
                task.firstCell = i;
            }
            if (!needsProfile(cells[i].scheme, options.run))
                continue;
            task.users.fetch_add(1);
            const ProfileGeometry g = profileGeometry(cells[i].scheme);
            if (std::find(task.geometries.begin(), task.geometries.end(),
                          g) == task.geometries.end())
                task.geometries.push_back(g);
        }
        std::vector<GridTask> run;
        for (BaselineTask &task : tasks)
            run.push_back({task.firstCell, [this, &task] {
                               const TaskHold hold(&task);
                               task.held =
                                   runBaseline(*task.spec, task.geometries);
                           }});
        return run;
    };
    plan.simulate = [&](std::size_t i) {
        const TaskHold hold(needsProfile(cells[i].scheme, options.run)
                                ? &tasks[task_of_cell[i]]
                                : nullptr);
        results[i] = runCell(experiment, cells[i], options.run);
        // Publish the moment the cell finishes: a sweep killed one
        // cell later resumes from here.
        if (options.cache)
            options.cache->store(keys[i], results[i]);
    };

    const GridOutcome outcome = runGrid(plan);
    if (outcome.cancelled) {
        // Hand the finished cells back (grid order, gaps removed):
        // with a cache attached they are already flushed to disk, so
        // the caller can report "partial, resumable" instead of
        // silently discarding completed work.
        SweepCancelled ex;
        ex.totalCells = n;
        for (std::size_t i = 0; i < n; ++i) {
            if (outcome.finished[i])
                ex.partial.push_back(std::move(results[i]));
        }
        throw ex;
    }
    return results;
}

std::vector<ExperimentResult>
runPolicyGrid(const gpu::GpuParams &base,
              const std::vector<mem::PolicyKind> &policies,
              const std::vector<schemes::Scheme> &schemes,
              const std::vector<const workload::WorkloadSpec *> &workloads,
              const SweepOptions &options)
{
    std::vector<ExperimentResult> all;
    all.reserve(policies.size() * schemes.size() * workloads.size());
    for (mem::PolicyKind policy : policies) {
        gpu::GpuParams gp = base;
        gp.l2Policy = policy;
        SweepOptions opts = options;
        opts.run.meeSettings.mdcPolicy = policy;
        SweepRunner runner(gp);
        auto results = runner.run(schemes, workloads, opts);
        all.insert(all.end(), std::make_move_iterator(results.begin()),
                   std::make_move_iterator(results.end()));
    }
    return all;
}

json::Value
runMetricsToJson(const gpu::RunMetrics &m)
{
    json::Value v = json::Value::object();
    v["cycles"] = json::Value(static_cast<std::uint64_t>(m.cycles));
    v["instructions"] = json::Value(m.instructions);
    v["ipc"] = json::Value(m.ipc);
    v["bytesData"] = json::Value(m.bytesData);
    v["bytesCounter"] = json::Value(m.bytesCounter);
    v["bytesMac"] = json::Value(m.bytesMac);
    v["bytesBmt"] = json::Value(m.bytesBmt);
    v["bytesExtra"] = json::Value(m.bytesExtra);
    v["metadataOverhead"] = json::Value(m.metadataOverhead());
    v["bandwidthUtilization"] = json::Value(m.bandwidthUtilization);
    v["l2MissRate"] = json::Value(m.l2MissRate);
    v["roCorrect"] = json::Value(m.roCorrect);
    v["roMpInit"] = json::Value(m.roMpInit);
    v["roMpAliasing"] = json::Value(m.roMpAliasing);
    v["strCorrect"] = json::Value(m.strCorrect);
    v["strMpInit"] = json::Value(m.strMpInit);
    v["strMpAliasing"] = json::Value(m.strMpAliasing);
    v["strMpRuntimeRo"] = json::Value(m.strMpRuntimeRo);
    v["strMpRuntimeNonRo"] = json::Value(m.strMpRuntimeNonRo);
    v["sharedCtrReads"] = json::Value(m.sharedCtrReads);
    v["commonCtrHits"] = json::Value(m.commonCtrHits);
    v["roTransitions"] = json::Value(m.roTransitions);
    v["chunkMacAccesses"] = json::Value(m.chunkMacAccesses);
    v["blockMacAccesses"] = json::Value(m.blockMacAccesses);
    v["dualMacFallbacks"] = json::Value(m.dualMacFallbacks);
    v["victimHits"] = json::Value(m.victimHits);
    v["victimInserts"] = json::Value(m.victimInserts);
    v["adaptDemotions"] = json::Value(m.adaptDemotions);
    v["adaptPromotions"] = json::Value(m.adaptPromotions);
    v["adaptReencBytes"] = json::Value(m.adaptReencBytes);

    json::Value energy = json::Value::object();
    energy["cycles"] =
        json::Value(static_cast<std::uint64_t>(m.energy.cycles));
    energy["instructions"] = json::Value(m.energy.instructions);
    energy["l2Accesses"] = json::Value(m.energy.l2Accesses);
    energy["dramBytes"] = json::Value(m.energy.dramBytes);
    energy["mdcAccesses"] = json::Value(m.energy.mdcAccesses);
    energy["aesBlocks"] = json::Value(m.energy.aesBlocks);
    energy["hashes"] = json::Value(m.energy.hashes);
    v["energy"] = std::move(energy);
    return v;
}

json::Value
resultToJson(const ExperimentResult &result)
{
    json::Value v = json::Value::object();
    v["workload"] = json::Value(result.workload);
    v["scheme"] = json::Value(result.scheme);
    v["l2Policy"] = json::Value(result.l2Policy);
    v["mdcPolicy"] = json::Value(result.mdcPolicy);
    v["adaptEpoch"] = json::Value(result.adaptEpoch);
    v["normalizedIpc"] = json::Value(result.normalizedIpc);
    v["overhead"] = json::Value(result.overhead());
    v["normalizedEnergyPerInstr"] =
        json::Value(result.normalizedEnergyPerInstr);
    v["metrics"] = runMetricsToJson(result.metrics);
    v["baseline"] = runMetricsToJson(result.baseline);
    return v;
}

json::Value
sweepToJson(const std::vector<ExperimentResult> &results)
{
    json::Value doc = json::Value::object();
    // v2: results carry "l2Policy"/"mdcPolicy" (replacement-policy axis).
    doc["schemaVersion"] = json::Value(2);
    doc["cells"] = json::Value(results.size());

    json::Value arr = json::Value::array();
    for (const auto &r : results)
        arr.append(resultToJson(r));
    doc["results"] = std::move(arr);

    // Per-scheme geomean summary in first-appearance order (the
    // figure footer rows). Skips non-positive values the way the
    // benches never produce but a truncated run might.
    std::vector<std::string> scheme_order;
    std::map<std::string, std::vector<double>> ipc_by_scheme;
    for (const auto &r : results) {
        if (!ipc_by_scheme.contains(r.scheme))
            scheme_order.push_back(r.scheme);
        if (r.normalizedIpc > 0)
            ipc_by_scheme[r.scheme].push_back(r.normalizedIpc);
    }
    json::Value summary = json::Value::object();
    for (const auto &scheme : scheme_order) {
        const auto &vals = ipc_by_scheme[scheme];
        summary[scheme] = json::Value(
            vals.empty() ? 0.0 : geomean(vals));
    }
    doc["geomeanNormalizedIpc"] = std::move(summary);
    return doc;
}

void
writeSweepJson(std::ostream &os,
               const std::vector<ExperimentResult> &results)
{
    sweepToJson(results).write(os, 2);
    os << "\n";
}

} // namespace shmgpu::core
