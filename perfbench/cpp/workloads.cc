/**
 * @file
 * The four benchmark workloads. Each one builds its inputs from the
 * seed (set-up), then repeats its timed region while another
 * repetition fits the --seconds budget, checking every cell's output.
 *
 *  - paper_grid: the Fig. 12 grid (16 Table VII workloads x Naive,
 *    Common_ctr, PSSM, SHM, SHM_upper_bound, 100k-cycle kernel cap)
 *    through core::SweepRunner, baselines cold in every repetition.
 *  - long_cell: uncapped bfs, lbm and mri-gridding under SHM, one at a
 *    time on one thread, through gpu::GpuSimulator directly.
 *  - tenant_mix: examples/scenarios/mix2.scn under timeslice q=2000,
 *    timeslice q=20000 and partitioned x PSSM, SHM, SHM_adaptive,
 *    through core::runScenarioCells with solo references on.
 *  - secure_memory: the generated access streams of atax and bfs
 *    replayed through mee::SecureMemoryContext.
 *
 * A traced run (--trace 1) times one repetition with spans on between
 * two with spans off, re-runs part of the grid at jobs=1, and then
 * hands the layer probe the workload's own inputs (probe.cc).
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <memory>
#include <thread>

#include "core/scenario.hh"
#include "core/sweep.hh"
#include "gpu/simulator.hh"
#include "layers.hh"
#include "perfbench.hh"
#include "schemes/schemes.hh"

namespace perfbench
{

using namespace shmgpu;
using schemes::Scheme;

namespace
{

/** Set-ups timed per run; setup_s is their median. */
constexpr int setupRepeats = 9;

/** The committed two-tenant mix (atax + bfs), its tenants reseeded. */
workload::ScenarioSpec
seededMix(const Options &o)
{
    workload::ScenarioSpec mix = workload::parseScenarioFile(
        o.root + "/examples/scenarios/mix2.scn");
    for (auto &t : mix.tenants)
        t.workload = seededSpec(t.workload.name, o.seed);
    return mix;
}

std::string
fmt(const char *format, double a, double b = 0, double c = 0)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf), format, a, b, c);
    return buf;
}

/**
 * Run @p n independent cells on @p jobs threads; @p cell(i) runs cell
 * i. Returns each cell's host seconds. An exception is a failed op.
 */
std::vector<double>
runPool(std::size_t n, unsigned jobs,
        const std::function<void(std::size_t)> &cell, Outcome &out)
{
    std::vector<double> seconds(n, 0);
    std::vector<std::string> errors(n);
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (std::size_t i = next++; i < n; i = next++) {
            const auto t0 = Clock::now();
            try {
                cell(i);
            } catch (const std::exception &e) {
                errors[i] = e.what();
            } catch (...) {
                errors[i] = "unknown exception";
            }
            seconds[i] = secondsSince(t0);
        }
    };
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < std::min<std::size_t>(jobs, n); ++t)
        pool.emplace_back(worker);
    worker();
    for (auto &t : pool)
        t.join();
    for (std::size_t i = 0; i < n; ++i) {
        if (!errors[i].empty()) {
            ++out.attempted;
            out.fail("cell " + std::to_string(i) + " threw: " + errors[i]);
        }
    }
    return seconds;
}

// ---------------------------------------------------------------------
// paper_grid
// ---------------------------------------------------------------------

/**
 * A SweepRunner that times each cell through the protected runCell
 * seam. The cell first asks the shared BaselineCache for its baseline
 * (exactly what Experiment::run does next, so the work is unchanged)
 * so a traced run can span the baseline simulation on its own.
 */
class TimedSweepRunner : public core::SweepRunner
{
  public:
    TimedSweepRunner(const gpu::GpuParams &p, Spans *spans, int parent)
        : core::SweepRunner(p), recorder(spans), parentSpan(parent)
    {
    }

    std::vector<double> cellSeconds() const
    {
        std::lock_guard<std::mutex> lock(mutex);
        return seconds;
    }

  protected:
    core::ExperimentResult runCell(const core::Experiment &experiment,
                                   const core::SweepCell &cell,
                                   const core::RunOptions &options)
        const override
    {
        const auto t0 = Clock::now();
        Scope span(recorder, "SweepRunner::runCell", parentSpan, started++);
        {
            Scope b(recorder, "BaselineCache::metricsFor", span.id());
            baselineCache()->metricsFor(*cell.spec);
        }
        core::ExperimentResult r =
            core::SweepRunner::runCell(experiment, cell, options);
        const double dt = secondsSince(t0);
        std::lock_guard<std::mutex> lock(mutex);
        seconds.push_back(dt);
        return r;
    }

  private:
    Spans *recorder;
    int parentSpan;
    mutable std::atomic<std::uint64_t> started{0};
    mutable std::mutex mutex;
    mutable std::vector<double> seconds;
};

const std::vector<Scheme> &
paperSchemes()
{
    // SHM_upper_bound goes first in each workload's group of cells: its
    // profile pass makes it the longest cell and the one with the most
    // memory. Dispatched last, neighbouring upper-bound cells often
    // overlapped, and resident memory moved by a third from run to run;
    // dispatched first, they rarely do.
    static const std::vector<Scheme> s = {Scheme::ShmUpperBound,
                                          Scheme::Naive, Scheme::CommonCtr,
                                          Scheme::Pssm, Scheme::Shm};
    return s;
}

/** Fig. 12 average overheads the paper reports (EXPERIMENTS.md). */
double
paperOverheadPct(Scheme s)
{
    switch (s) {
      case Scheme::Naive:
        return 53.9;
      case Scheme::CommonCtr:
        return 49.4;
      case Scheme::Pssm:
        return 18.6;
      case Scheme::Shm:
        return 8.09;
      case Scheme::ShmUpperBound:
        return 6.76;
      default:
        return 0;
    }
}

struct GridRun
{
    double wall = 0;
    double instructions = 0;
    std::vector<double> cellSeconds;
    std::vector<core::ExperimentResult> results;
    double baselineSims = 0;
};

GridRun
runGrid(Context &ctx, const std::vector<const workload::WorkloadSpec *> &specs,
        unsigned jobs, Spans *spans, int parent, Outcome &out)
{
    GridRun g;
    const auto t0 = Clock::now();
    TimedSweepRunner runner(benchGpu(figureCap), spans, parent);
    core::SweepOptions so;
    so.jobs = jobs;
    try {
        g.results = runner.run(paperSchemes(), specs, so);
    } catch (const std::exception &e) {
        ++out.attempted;
        out.fail(std::string("grid threw: ") + e.what());
    }
    g.wall = secondsSince(t0);
    g.cellSeconds = runner.cellSeconds();
    g.baselineSims = static_cast<double>(runner.baselineCache()->size());
    for (const auto &r : g.results) {
        g.instructions += static_cast<double>(r.metrics.instructions);
        ctx.digests->observe(r.workload + "/" + r.scheme,
                             digestOf(core::resultToJson(r).dump()), out);
    }
    const std::size_t want = specs.size() * paperSchemes().size();
    if (g.results.size() < want) {
        out.attempted += want - g.results.size();
        out.fail(std::to_string(want - g.results.size()) +
                     " grid cells missing",
                 want - g.results.size());
    }
    return g;
}

/** model.* beside the paper's Fig. 12 averages. */
std::vector<Metric>
modelReadout(const std::vector<core::ExperimentResult> &results,
             Outcome &out)
{
    std::vector<Metric> model;
    out.note("modelled design (simulated, not host time) vs the paper's "
             "Fig. 12 averages; the references are the paper's GPGPU-Sim "
             "numbers, not silicon, so the model is unvalidated against "
             "hardware:");
    std::vector<std::pair<std::string, double>> gaps;
    for (Scheme s : paperSchemes()) {
        std::vector<double> ipc;
        for (const auto &r : results)
            if (r.scheme == schemes::schemeName(s) && r.normalizedIpc > 0)
                ipc.push_back(r.normalizedIpc);
        const double g = core::geomean(ipc);
        const double measured = (1 - g) * 100;
        const std::string name = schemes::schemeName(s);
        model.push_back({"model.norm_ipc_gmean." + name, g, "ratio"});
        gaps.push_back({"model.paper_gap_pp." + name,
                        measured - paperOverheadPct(s)});
        out.note("  " + name +
                 fmt(": normalized IPC geomean %.4f, overhead %.2f%% "
                     "(paper %.2f%%)",
                     g, measured, paperOverheadPct(s)));
    }
    for (const auto &[name, v] : gaps)
        model.push_back({name, v, "pp"});
    return model;
}

} // namespace

Outcome
runPaperGrid(Context &ctx)
{
    Outcome out;
    const Options &o = ctx.options;
    Measured m;
    m.workers = o.jobs;

    // Set-up: the seeded specs, each validated by building its
    // baseline simulator, so a spec the GPU cannot hold fails before
    // any cell runs.
    std::vector<workload::WorkloadSpec> specs;
    for (int i = 0; i < setupRepeats; ++i) {
        const auto t0 = Clock::now();
        specs = seededTableVii(o.seed);
        for (const auto &s : specs)
            gpu::GpuSimulator check(benchGpu(figureCap),
                                    schemes::makeMeeParams(Scheme::Baseline),
                                    s);
        m.setupSeconds.push_back(secondsSince(t0));
    }
    std::vector<const workload::WorkloadSpec *> ptrs;
    for (const auto &s : specs)
        ptrs.push_back(&s);

    if (!o.trace) {
        std::vector<core::ExperimentResult> last;
        auto rss = std::make_unique<RssSampler>(m.rssSamples);
        while (anotherRep(m.repSeconds, o.seconds)) {
            GridRun g = runGrid(ctx, ptrs, o.jobs, nullptr, -1, out);
            m.repSeconds.push_back(g.wall);
            m.repCells.push_back(g.cellSeconds);
            m.instructions += g.instructions;
            last = std::move(g.results);
        }
        rss.reset();
        endToEndMetrics(m, out);
        modelReadout(last, out);
        return out;
    }

    TracedCells tc;
    tc.workers = o.jobs;
    tc.untracedWall = runGrid(ctx, ptrs, o.jobs, nullptr, -1, out).wall;
    {
        Scope rep(ctx.spans, "paper_grid.traced_rep");
        const GridRun traced = runGrid(ctx, ptrs, o.jobs, ctx.spans, rep.id(),
                                       out);
        tc.tracedWall = traced.wall;
        for (double s : traced.cellSeconds)
            tc.busy += s;
        tc.baselineSims = traced.baselineSims;
        tc.model = modelReadout(traced.results, out);
    }
    // Untraced repetitions bracket the traced one, so a warm-up or a
    // drift in host speed does not pass for tracing overhead.
    tc.untracedWall =
        0.5 * (tc.untracedWall +
               runGrid(ctx, ptrs, o.jobs, nullptr, -1, out).wall);
    {
        // jobs=1 must reproduce the jobs=N digests (first 3 workloads).
        Scope rep(ctx.spans, "paper_grid.jobs1_check");
        std::vector<const workload::WorkloadSpec *> head(ptrs.begin(),
                                                         ptrs.begin() + 3);
        runGrid(ctx, head, 1, nullptr, -1, out);
    }
    ProbeInputs probe;
    probe.specs = {seededSpec("atax", o.seed), seededSpec("bfs", o.seed)};
    probe.cap = figureCap;
    probe.scenario = seededMix(o);
    perLayerMetrics(ctx, tc, probe, out);
    return out;
}

// ---------------------------------------------------------------------
// long_cell
// ---------------------------------------------------------------------

namespace
{

const std::vector<std::string> longCellNames = {"bfs", "lbm", "mri-gridding"};

struct LongRep
{
    double setup = 0;
    double wall = 0;
    double instructions = 0;
    std::vector<double> cellSeconds;
};

LongRep
longCellRep(Context &ctx, const std::vector<workload::WorkloadSpec> &specs,
            Spans *spans, int parent, Outcome &out)
{
    LongRep rep;
    const gpu::GpuParams gp = benchGpu(uncapped);
    const mee::MeeParams mp = schemes::makeMeeParams(Scheme::Shm);
    std::vector<std::unique_ptr<gpu::GpuSimulator>> sims;
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        Scope s(spans, "GpuSimulator::GpuSimulator", parent, i);
        sims.push_back(std::make_unique<gpu::GpuSimulator>(gp, mp, specs[i]));
    }
    rep.setup = secondsSince(t0);
    t0 = Clock::now();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto c0 = Clock::now();
        gpu::RunMetrics m;
        {
            Scope s(spans, "GpuSimulator::run", parent, i);
            m = sims[i]->run();
        }
        rep.cellSeconds.push_back(secondsSince(c0));
        rep.instructions += static_cast<double>(m.instructions);
        ctx.digests->observe(specs[i].name + "/SHM",
                             digestOf(core::runMetricsToJson(m).dump()), out);
    }
    rep.wall = secondsSince(t0);
    return rep;
}

} // namespace

Outcome
runLongCell(Context &ctx)
{
    Outcome out;
    const Options &o = ctx.options;
    std::vector<workload::WorkloadSpec> specs;
    for (const auto &n : longCellNames)
        specs.push_back(seededSpec(n, o.seed));

    if (!o.trace) {
        Measured m;
        // Set-up is building the three simulators; every repetition
        // builds its own, and setup_s times that step on its own.
        const gpu::GpuParams gp = benchGpu(uncapped);
        const mee::MeeParams mp = schemes::makeMeeParams(Scheme::Shm);
        for (int i = 0; i < setupRepeats; ++i) {
            const auto t0 = Clock::now();
            for (const auto &s : specs)
                gpu::GpuSimulator sim(gp, mp, s);
            m.setupSeconds.push_back(secondsSince(t0));
        }
        std::vector<double> spent; // set-up counts against the budget
        auto rss = std::make_unique<RssSampler>(m.rssSamples);
        while (anotherRep(spent, o.seconds)) {
            LongRep r = longCellRep(ctx, specs, nullptr, -1, out);
            spent.push_back(r.setup + r.wall);
            m.repSeconds.push_back(r.wall);
            m.repCells.push_back(r.cellSeconds);
            m.instructions += r.instructions;
        }
        rss.reset();
        endToEndMetrics(m, out);
        return out;
    }

    TracedCells tc;
    tc.untracedWall = longCellRep(ctx, specs, nullptr, -1, out).wall;
    {
        Scope rep(ctx.spans, "long_cell.traced_rep");
        LongRep r = longCellRep(ctx, specs, ctx.spans, rep.id(), out);
        tc.tracedWall = r.wall;
        for (double s : r.cellSeconds)
            tc.busy += s;
    }
    tc.untracedWall =
        0.5 * (tc.untracedWall +
               longCellRep(ctx, specs, nullptr, -1, out).wall);
    ProbeInputs probe;
    probe.specs = specs;
    probe.cap = uncapped;
    probe.scenario.name = "long_cell_mix";
    Cycle arrival = 0;
    for (const auto &s : specs) {
        probe.scenario.tenants.push_back({s.name, s, arrival});
        arrival += 5000;
    }
    perLayerMetrics(ctx, tc, probe, out);
    return out;
}

// ---------------------------------------------------------------------
// tenant_mix
// ---------------------------------------------------------------------

namespace
{

struct MixCell
{
    std::string label; //!< e.g. "timeslice-q2000/SHM"
    Scheme scheme = Scheme::Shm;
    const workload::ScenarioSpec *scenario = nullptr;
};

const std::vector<Scheme> &
mixSchemes()
{
    // Naive and Common_ctr use physical metadata addressing, which the
    // partitioned share policy rejects.
    static const std::vector<Scheme> s = {Scheme::Pssm, Scheme::Shm,
                                          Scheme::ShmAdaptive};
    return s;
}

/** The three sharing variants of the committed two-tenant mix. */
std::vector<workload::ScenarioSpec>
mixVariants(const Options &o)
{
    std::vector<workload::ScenarioSpec> v(3, seededMix(o));
    v[0].policy = workload::SharePolicy::TimeSliced;
    v[0].quantumCycles = 2000;
    v[1].policy = workload::SharePolicy::TimeSliced;
    v[1].quantumCycles = 20000;
    v[2].policy = workload::SharePolicy::Partitioned;
    return v;
}

std::string
variantLabel(const workload::ScenarioSpec &s)
{
    if (s.policy == workload::SharePolicy::Partitioned)
        return "partitioned";
    return "timeslice-q" + std::to_string(s.quantumCycles);
}

struct MixRep
{
    double wall = 0;
    double instructions = 0;
    double adaptReencBytes = 0;
    std::vector<double> cellSeconds;
};

MixRep
mixRep(Context &ctx, const std::vector<MixCell> &cells, unsigned jobs,
       Spans *spans, int parent, Outcome &out)
{
    MixRep rep;
    const gpu::GpuParams gp = benchGpu(figureCap);
    core::ScenarioSoloCache solos(gp);
    std::vector<core::ScenarioExperimentResult> results(cells.size());
    const auto t0 = Clock::now();
    rep.cellSeconds = runPool(
        cells.size(), jobs,
        [&](std::size_t i) {
            const MixCell &c = cells[i];
            Scope cell(spans, "tenant_mix.cell", parent, i);
            // Solo references first, through the cache the cell then
            // reads (the same memoized work runScenarioExperiment does).
            for (const auto &t : c.scenario->tenants) {
                Scope s(spans, "ScenarioSoloCache::soloFor", cell.id(), i);
                solos.soloFor(c.scheme, t.workload, c.scenario->keySeed,
                              mem::PolicyKind::Lru);
            }
            core::ScenarioRunOptions run;
            run.withSolo = true;
            run.soloCache = &solos;
            if (spans) {
                Scope s(spans, "runScenarioExperiment", cell.id(), i);
                results[i] = core::runScenarioExperiment(gp, c.scheme,
                                                         *c.scenario, run);
            } else {
                core::ScenarioSweepOptions so;
                so.jobs = 1;
                so.run = run;
                results[i] =
                    core::runScenarioCells(gp, {{c.scheme, c.scenario}}, so)
                        .at(0);
            }
        },
        out);
    rep.wall = secondsSince(t0);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto &r = results[i];
        if (r.scheme.empty())
            continue; // the cell threw; already counted
        rep.instructions += static_cast<double>(r.metrics.total.instructions);
        rep.adaptReencBytes += r.metrics.total.adaptReencBytes;
        ctx.digests->observe(cells[i].label,
                             digestOf(core::scenarioResultToJson(r).dump()),
                             out);
    }
    return rep;
}

} // namespace

Outcome
runTenantMix(Context &ctx)
{
    Outcome out;
    const Options &o = ctx.options;
    Measured m;
    m.workers = o.jobs;

    // Set-up: parse and reseed the mix, and build each variant's
    // simulator once so an unsupported variant fails before timing.
    std::vector<workload::ScenarioSpec> variants;
    for (int i = 0; i < setupRepeats; ++i) {
        const auto t0 = Clock::now();
        variants = mixVariants(o);
        for (const auto &v : variants)
            gpu::GpuSimulator check(benchGpu(figureCap),
                                    schemes::makeMeeParams(Scheme::Shm), v);
        m.setupSeconds.push_back(secondsSince(t0));
    }
    std::vector<MixCell> cells;
    for (const auto &v : variants)
        for (Scheme s : mixSchemes())
            cells.push_back({variantLabel(v) + "/" + schemes::schemeName(s), s,
                             &v});

    if (!o.trace) {
        auto rss = std::make_unique<RssSampler>(m.rssSamples);
        while (anotherRep(m.repSeconds, o.seconds)) {
            MixRep r = mixRep(ctx, cells, o.jobs, nullptr, -1, out);
            m.repSeconds.push_back(r.wall);
            m.repCells.push_back(r.cellSeconds);
            m.instructions += r.instructions;
        }
        rss.reset();
        endToEndMetrics(m, out);
        return out;
    }

    TracedCells tc;
    tc.workers = o.jobs;
    tc.untracedWall = mixRep(ctx, cells, o.jobs, nullptr, -1, out).wall;
    {
        Scope rep(ctx.spans, "tenant_mix.traced_rep");
        MixRep r = mixRep(ctx, cells, o.jobs, ctx.spans, rep.id(), out);
        tc.tracedWall = r.wall;
        for (double s : r.cellSeconds)
            tc.busy += s;
        tc.adaptReencBytes = r.adaptReencBytes;
    }
    tc.untracedWall =
        0.5 * (tc.untracedWall +
               mixRep(ctx, cells, o.jobs, nullptr, -1, out).wall);
    {
        // jobs=1 must reproduce the jobs=N digests (the q=20000 cells).
        Scope rep(ctx.spans, "tenant_mix.jobs1_check");
        std::vector<MixCell> some(cells.begin() + 3, cells.begin() + 6);
        mixRep(ctx, some, 1, nullptr, -1, out);
    }
    ProbeInputs probe;
    for (const auto &t : variants[1].tenants)
        probe.specs.push_back(t.workload);
    probe.cap = figureCap;
    probe.scenario = variants[1];
    perLayerMetrics(ctx, tc, probe, out);
    return out;
}

// ---------------------------------------------------------------------
// secure_memory
// ---------------------------------------------------------------------

namespace
{

const std::vector<std::string> secureNames = {"atax", "bfs"};

struct SecureRep
{
    double setup = 0;
    double wall = 0;
    std::vector<SecureStats> streams;
};

SecureRep
secureRep(Context &ctx, const std::vector<workload::WorkloadSpec> &specs,
          Spans *spans, int parent, Outcome &out)
{
    SecureRep rep;
    std::vector<std::unique_ptr<SecureImage>> images;
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        Scope s(spans, "SecureMemoryContext::hostWriteRange", parent, i);
        images.push_back(loadSecureImage(specs[i], ctx.options.seed));
    }
    rep.setup = secondsSince(t0);
    t0 = Clock::now();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        Scope s(spans, "secure_memory.replay", parent, i);
        rep.streams.push_back(replaySecure(*images[i], specs[i],
                                           ctx.options.seed,
                                           secureOpsPerStream, out));
        ctx.digests->observe(specs[i].name,
                             rep.streams.back().digest, out);
    }
    rep.wall = secondsSince(t0);
    return rep;
}

} // namespace

Outcome
runSecureMemory(Context &ctx)
{
    Outcome out;
    const Options &o = ctx.options;
    std::vector<workload::WorkloadSpec> specs;
    for (const auto &n : secureNames)
        specs.push_back(seededSpec(n, o.seed));

    if (!o.trace) {
        Measured m;
        double read_bytes = 0, write_bytes = 0, read_s = 0, write_s = 0;
        std::uint64_t injections = 0, detected = 0;
        std::vector<double> spent; // set-up counts against the budget
        auto rss = std::make_unique<RssSampler>(m.rssSamples);
        while (anotherRep(spent, o.seconds)) {
            SecureRep r = secureRep(ctx, specs, nullptr, -1, out);
            spent.push_back(r.setup + r.wall);
            m.setupSeconds.push_back(r.setup);
            m.repSeconds.push_back(r.wall);
            m.repCells.emplace_back();
            for (const auto &s : r.streams) {
                m.repCells.back().insert(m.repCells.back().end(),
                                         s.burstSeconds.begin(),
                                         s.burstSeconds.end());
                m.instructions += s.instructions;
                read_bytes += s.readBytes;
                write_bytes += s.writeBytes;
                read_s += s.readSeconds;
                write_s += s.writeSeconds;
                injections += s.injections;
                detected += s.detected;
            }
        }
        rss.reset();
        endToEndMetrics(m, out);
        out.note("a cell here is one 32-block deviceReadBatch burst, so "
                 "cell_p50_s/cell_tail_s are the burst latencies");
        out.note(fmt("secure_read_mb_per_s %.4f MB/s  (verified plaintext "
                     "read / host second in read bursts)",
                     read_s > 0 ? read_bytes / read_s / 1e6 : 0));
        out.note(fmt("secure_write_mb_per_s %.4f MB/s  (plaintext written / "
                     "host second in deviceWrite)",
                     write_s > 0 ? write_bytes / write_s / 1e6 : 0));
        for (const auto &m_ : out.metrics)
            if (m_.name == "cell_p50_s" || m_.name == "cell_tail_s")
                out.note(fmt(m_.name == "cell_p50_s" ? "burst_p50_us %.4f us"
                                                     : "burst_tail_us %.4f us",
                             m_.value * 1e6));
        out.note(fmt("attacks injected %.0f, detected with the expected "
                     "status %.0f",
                     static_cast<double>(injections),
                     static_cast<double>(detected)));
        return out;
    }

    TracedCells tc;
    tc.untracedWall = secureRep(ctx, specs, nullptr, -1, out).wall;
    {
        Scope rep(ctx.spans, "secure_memory.traced_rep");
        SecureRep r = secureRep(ctx, specs, ctx.spans, rep.id(), out);
        tc.tracedWall = r.wall;
        for (const auto &s : r.streams)
            for (double b : s.burstSeconds)
                tc.busy += b;
    }
    tc.untracedWall =
        0.5 * (tc.untracedWall + secureRep(ctx, specs, nullptr, -1, out).wall);
    ProbeInputs probe;
    probe.specs = specs;
    probe.cap = figureCap;
    probe.scenario.name = "secure_memory_mix";
    probe.scenario.tenants = {{specs[0].name, specs[0], 0},
                              {specs[1].name, specs[1], 5000}};
    perLayerMetrics(ctx, tc, probe, out);
    return out;
}

} // namespace perfbench
