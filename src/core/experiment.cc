#include "core/experiment.hh"

#include <cmath>
#include <fstream>
#include <optional>

#include "common/logging.hh"
#include "detect/oracle.hh"
#include "gpu/simulator.hh"

namespace shmgpu::core
{

BaselineCache::BaselineCache(const gpu::GpuParams &gpu_params)
    : gpuConfig(gpu_params)
{
}

mee::MeeParams
meeParamsFor(schemes::Scheme scheme, const MeeSettings &settings)
{
    mee::MeeParams p = schemes::makeMeeParams(scheme);
    p.mdcPolicy = settings.mdcPolicy;
    if (settings.adaptEpoch)
        p.adaptEpoch = *settings.adaptEpoch;
    if (settings.adaptThresholds)
        p.adaptThresholds = *settings.adaptThresholds;
    return p;
}

ProfileGeometry
profileGeometry(schemes::Scheme scheme)
{
    const mee::MeeParams p = schemes::makeMeeParams(scheme);
    return {p.roDetector.regionBytes, p.streamDetector.chunkBytes};
}

bool
needsProfile(schemes::Scheme scheme, const RunOptions &options)
{
    return options.collectAccuracy || schemes::needsProfilePass(scheme);
}

gpu::RunMetrics
BaselineCache::simulate(const workload::WorkloadSpec &spec,
                        detect::AccessProfile *collector)
{
    simulated.fetch_add(1);
    gpu::GpuSimulator sim(gpuConfig,
                          schemes::makeMeeParams(schemes::Scheme::Baseline),
                          spec);
    if (collector)
        sim.collectProfile(collector);
    return sim.run();
}

const gpu::RunMetrics &
BaselineCache::metricsFor(const workload::WorkloadSpec &spec)
{
    return metrics.get(workload::contentHash(spec),
                       [&] { return simulate(spec, nullptr); });
}

std::shared_ptr<const detect::AccessProfile>
BaselineCache::profileFor(const workload::WorkloadSpec &spec,
                          const ProfileGeometry &geometry)
{
    ProfileEntry *pe = nullptr;
    {
        std::lock_guard<std::mutex> lock(mutex);
        auto &slot = profiles[{workload::contentHash(spec),
                               geometry.regionBytes, geometry.chunkBytes}];
        if (!slot)
            slot = std::make_unique<ProfileEntry>();
        pe = slot.get();
    }
    std::lock_guard<std::mutex> lock(pe->mutex);
    if (auto held = pe->profile.lock())
        return held;

    auto profile = std::make_shared<detect::AccessProfile>(
        gpuConfig.numPartitions, geometry.regionBytes, geometry.chunkBytes);
    // If the metrics are still unsimulated, this one profiled run
    // provides them; otherwise only the profile needs a pass.
    bool collected = false;
    metrics.get(workload::contentHash(spec), [&] {
        collected = true;
        return simulate(spec, profile.get());
    });
    if (!collected)
        simulate(spec, profile.get());
    pe->profile = profile;
    return profile;
}

Experiment::Experiment(const gpu::GpuParams &gpu_params,
                       const gpu::EnergyParams &energy_params)
    : energyConfig(energy_params),
      baselines(std::make_shared<BaselineCache>(gpu_params))
{
}

Experiment::Experiment(std::shared_ptr<BaselineCache> baseline_cache,
                       const gpu::EnergyParams &energy_params)
    : energyConfig(energy_params), baselines(std::move(baseline_cache))
{
    shm_assert(baselines != nullptr, "Experiment needs a baseline cache");
}

const gpu::RunMetrics &
Experiment::baselineFor(const workload::WorkloadSpec &spec) const
{
    return baselines->metricsFor(spec);
}

ExperimentResult
Experiment::run(schemes::Scheme scheme,
                const workload::WorkloadSpec &spec,
                const RunOptions &options) const
{
    ExperimentResult result;
    result.workload = spec.name;
    result.scheme = schemes::schemeName(scheme);
    result.l2Policy = mem::policyName(gpuParams().l2Policy);
    result.mdcPolicy = mem::policyName(options.meeSettings.mdcPolicy);
    // Ask for the profile first: when this cell is the spec's first
    // user, one profiled Baseline run then provides both.
    std::shared_ptr<const detect::AccessProfile> profile;
    if (needsProfile(scheme, options))
        profile = baselines->profileFor(spec, profileGeometry(scheme));
    result.baseline = baselineFor(spec);

    const mee::MeeParams mee_params =
        meeParamsFor(scheme, options.meeSettings);
    result.adaptEpoch =
        mee_params.adaptive
            ? static_cast<std::uint64_t>(mee_params.adaptEpoch)
            : 0;

    gpu::GpuSimulator sim(gpuParams(), mee_params, spec);
    if (schemes::needsProfilePass(scheme))
        sim.primeFromProfile(*profile);
    if (profile)
        sim.attributeAgainst(profile.get());

    std::string trace_path = options.tracePath;
    if (trace_path.empty() && !options.traceDir.empty())
        trace_path = options.traceDir + "/" + result.workload + "_" +
                     result.scheme + ".trace.json";
    std::optional<trace::Tracer> tracer;
    if (!trace_path.empty() || !options.traceTextPath.empty()) {
        tracer.emplace(gpuParams().numPartitions + 1,
                       options.traceParams);
        sim.attachTracer(&*tracer);
    }

    result.metrics = sim.run();

    if (tracer && !trace_path.empty()) {
        std::ofstream os(trace_path, std::ios::binary);
        if (!os)
            shm_fatal("cannot open trace file '{}' for writing",
                      trace_path);
        tracer->writeChromeJson(os);
    }
    if (tracer && !options.traceTextPath.empty()) {
        std::ofstream os(options.traceTextPath, std::ios::binary);
        if (!os)
            shm_fatal("cannot open trace file '{}' for writing",
                      options.traceTextPath);
        tracer->writeText(os);
    }

    result.normalizedIpc =
        result.baseline.ipc > 0 ? result.metrics.ipc / result.baseline.ipc
                                : 0;
    double base_epi =
        gpu::energyPerInstruction(energyConfig, result.baseline.energy);
    double epi =
        gpu::energyPerInstruction(energyConfig, result.metrics.energy);
    result.normalizedEnergyPerInstr = base_epi > 0 ? epi / base_epi : 0;
    return result;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0;
    double log_sum = 0;
    for (double v : values) {
        shm_assert(v > 0, "geomean requires positive values (got {})", v);
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

} // namespace shmgpu::core
