/**
 * @file
 * The shmgpu command-line driver.
 *
 *   shmgpu list
 *       Print the available workloads and secure-memory schemes.
 *
 *   shmgpu run --workload NAME [--scheme NAME] [--cycles N]
 *              [--stats FILE] [--json FILE] [--accuracy]
 *       Simulate one (scheme, workload) pair and print the paper-style
 *       summary; optionally dump the full statistics tree.
 *
 *   shmgpu trace record --workload NAME --out FILE [--sms N]
 *       Record the workload's per-SM access trace to a file.
 *
 *   shmgpu trace run --in FILE [--scheme NAME] [--cycles N]
 *       Replay a recorded trace through the full simulator. Takes the
 *       same GPU and MEE flags as run (--gpu, --policy, --overrides,
 *       --adapt-epoch, --adapt-thresholds).
 *
 *   shmgpu trace info --in FILE
 *       Print a trace file's header and per-kernel op counts.
 *
 *   shmgpu trace-info --in TRACE.json
 *       Summarize a structured event trace produced by --trace:
 *       event counts per class/kind and first/last detector events.
 *
 *   shmgpu sweep [--workloads a,b,c] [--schemes X,Y] [--jobs N]
 *                [--cycles N] [--out results.json]
 *                [--policy P | --policies P,Q|all]
 *                [--zipf-footprints S,... [--zipf-alphas A,...]]
 *                [--results-dir DIR] [--resume] [--cancel-after N]
 *       Run a (scheme x workload) grid on a worker pool and emit the
 *       structured JSON results sink. Output is bit-identical for any
 *       --jobs value. --policies adds the cache replacement policy
 *       (L2 + metadata caches) as a third, policy-major grid axis,
 *       with a fresh baseline per policy. --zipf-footprints /
 *       --zipf-alphas add a generated footprint x alpha Zipf grid.
 *       --results-dir makes the sweep incremental: finished cells
 *       persist one-file-each the moment they complete and later
 *       sweeps load matching cells instead of re-simulating, so an
 *       interrupted sweep resumes where it stopped (docs/SWEEP.md).
 *
 *   shmgpu bench-self [--reps N] [--out FILE]
 *       Time the pinned 3x3 grid in cells per second: the probe both
 *       sides of a same-host merge-base-vs-head A/B run.
 *
 *   Any subcommand given --help prints this usage and exits 0.
 */

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <type_traits>

#include "common/json.hh"
#include "common/logging.hh"
#include "core/experiment.hh"
#include "core/overrides.hh"
#include "core/result_cache.hh"
#include "core/scenario.hh"
#include "core/sweep.hh"
#include "gpu/presets.hh"
#include "gpu/simulator.hh"
#include "mem/replacement.hh"
#include "workload/benchmarks.hh"
#include "workload/parser.hh"
#include "workload/trace_file.hh"

using namespace shmgpu;

namespace
{

/**
 * The one parser for numeric flag values: @p text must be a whole
 * decimal number of type T — no trailing characters, no sign on
 * unsigned types (so "-1" cannot wrap), in range, finite for doubles.
 * Anything else is fatal (exit 1) and names @p flag.
 */
template <typename T>
T
parseNumber(const std::string &flag, const std::string &text)
{
    T value{};
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, value);
    bool ok = !text.empty() && ec == std::errc{} && ptr == end;
    if constexpr (std::is_floating_point_v<T>)
        ok = ok && std::isfinite(value);
    if (!ok)
        shm_fatal("--{}: malformed number '{}'", flag, text);
    return value;
}

/**
 * Minimal --flag=value / --flag value parser. Every key a subcommand
 * reads is recorded, so assertConsumed() can reject the flags it
 * never read — as Config::assertConsumed does for override keys.
 * Each subcommand reads all its flags and calls assertConsumed()
 * before its first simulation.
 */
class Args
{
  public:
    Args(int argc, char **argv, int start)
    {
        for (int i = start; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg.rfind("--", 0) != 0)
                shm_fatal("unexpected argument '{}'", arg);
            auto eq = arg.find('=');
            if (eq != std::string::npos) {
                values[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
            } else if (i + 1 < argc && argv[i + 1][0] != '-') {
                values[arg.substr(2)] = argv[++i];
            } else {
                values[arg.substr(2)] = "1";
            }
        }
    }

    std::string
    get(const std::string &key, const std::string &fallback = "") const
    {
        consumed.insert(key);
        auto it = values.find(key);
        return it == values.end() ? fallback : it->second;
    }

    /** --key parsed by parseNumber, or @p fallback when absent. */
    template <typename T>
    T
    number(const std::string &key, T fallback) const
    {
        std::string text = get(key);
        return text.empty() ? fallback : parseNumber<T>(key, text);
    }

    bool
    has(const std::string &key) const
    {
        consumed.insert(key);
        return values.contains(key);
    }

    /** Fatal if @p command never read some flag (unknown or typo). */
    void
    assertConsumed(const std::string &command) const
    {
        for (const auto &[key, value] : values) {
            if (!consumed.contains(key))
                shm_fatal("{}: unknown flag '--{}'", command, key);
        }
    }

  private:
    std::map<std::string, std::string> values;
    mutable std::set<std::string> consumed;
};

int
usage(int rc = 2)
{
    std::puts("usage: shmgpu"
              " <list|run|sweep|trace|trace-info|bench-self> [flags]\n"
              "  shmgpu list\n"
              "  shmgpu run (--workload NAME | --spec FILE |"
              " --scenario FILE) [--scheme SHM]"
              " [--gpu turing|big|test] [--cycles N]"
              " [--policy lru|fifo|random|s3fifo|sieve]"
              " [--overrides CFG]"
              " [--adapt-epoch N] [--adapt-thresholds R,S,M]"
              " [--stats FILE] [--json FILE] [--accuracy] [--no-solo]"
              " [--trace OUT.json] [--trace-text OUT.txt]\n"
              "  shmgpu sweep [--workloads a,b,c|all] [--schemes X,Y|all]"
              " [--jobs N] [--gpu turing|big|test] [--cycles N]"
              " [--policy P] [--policies P,Q|all]"
              " [--adapt-epoch N] [--adapt-thresholds R,S,M]"
              " [--adapt-epochs E1,E2,...]"
              " [--zipf-footprints S1,S2,... [--zipf-alphas A1,A2,...]]"
              " [--scenario FILE [--quantums Q1,Q2,...]"
              " [--share timeslice,partitioned] [--tenants N1,N2,...]"
              " [--no-solo]]"
              " [--results-dir DIR] [--resume] [--cancel-after N]"
              " [--overrides CFG] [--out FILE] [--quiet]"
              " [--trace DIR]\n"
              "  shmgpu trace record --workload NAME --out FILE"
              " [--sms N]\n"
              "  shmgpu trace run --in FILE [--scheme SHM] [--cycles N]"
              " [--gpu G] [--policy P] [--overrides CFG]"
              " [--adapt-epoch N] [--adapt-thresholds R,S,M]\n"
              "  shmgpu trace info --in FILE\n"
              "  shmgpu trace-info --in TRACE.json\n"
              "  shmgpu bench-self [--reps N] [--out FILE]");
    return rc;
}

void
printSummary(const core::ExperimentResult &r)
{
    std::printf("%-16s %-16s normIPC=%.3f overhead=%.2f%% "
                "mdOverhead=%.2f%% energy=%.3fx\n",
                r.workload.c_str(), r.scheme.c_str(), r.normalizedIpc,
                100 * r.overhead(),
                100 * r.metrics.metadataOverhead(),
                r.normalizedEnergyPerInstr);
}

int
cmdList(const Args &args)
{
    args.assertConsumed("list");
    std::puts("workloads (Table VII):");
    for (const auto &w : workload::allWorkloads())
        std::printf("  %-14s %-10s util %2.0f-%2.0f%%  spaces: %s\n",
                    w.name.c_str(), w.suite.c_str(), 100 * w.bwUtilLo,
                    100 * w.bwUtilHi, w.specialSpaces.c_str());
    std::puts("\nschemes (Table VIII):");
    std::printf("  %s\n", schemes::schemeName(schemes::Scheme::Baseline));
    for (auto s : schemes::allSchemes())
        std::printf("  %s\n", schemes::schemeName(s));
    std::puts("\ncache replacement policies (--policy / cache.policy / "
              "mee.mdc_policy):");
    for (auto p : mem::allPolicies())
        std::printf("  %s\n", mem::policyName(p));
    return 0;
}

/**
 * The GPU parameters and MEE settings (@p mee) the shared flags and
 * an --overrides file select; the file's trace.* keys go to
 * @p trace_params when given.
 */
gpu::GpuParams
gpuParamsFrom(const Args &args, core::MeeSettings &mee,
              trace::TraceParams *trace_params = nullptr)
{
    gpu::GpuParams gp = gpu::presetByName(args.get("gpu", "turing"));
    std::string overrides = args.get("overrides");
    if (!overrides.empty()) {
        trace::TraceParams trace_scratch;
        Config config = Config::fromFile(overrides);
        core::applyGpuOverrides(config, gp);
        core::applyMeeOverrides(config, mee);
        core::applyTraceOverrides(
            config, trace_params ? *trace_params : trace_scratch);
        config.assertConsumed();
    }
    // --policy switches L2 and metadata caches together, overriding
    // any cache.policy / mee.mdc_policy from the file.
    std::string policy = args.get("policy");
    if (!policy.empty()) {
        gp.l2Policy = mem::policyFromName(policy);
        mee.mdcPolicy = gp.l2Policy;
    }
    // --adapt-epoch / --adapt-thresholds win over the file, like
    // --policy above.
    std::string epoch_arg = args.get("adapt-epoch");
    if (!epoch_arg.empty())
        mee.adaptEpoch = parseNumber<Cycle>("adapt-epoch", epoch_arg);
    std::string th_arg = args.get("adapt-thresholds");
    if (!th_arg.empty())
        mee.adaptThresholds = core::parseAdaptThresholds(th_arg);
    std::string cycles = args.get("cycles");
    if (!cycles.empty())
        gp.maxCyclesPerKernel = parseNumber<Cycle>("cycles", cycles);
    return gp;
}

void
printScenario(const core::ScenarioExperimentResult &r)
{
    std::printf("scenario %-12s %-14s share=%s", r.scenario.c_str(),
                r.scheme.c_str(), r.sharePolicy.c_str());
    if (r.sharePolicy == "timeslice")
        std::printf(" quantum=%llu switches=%llu",
                    static_cast<unsigned long long>(r.quantumCycles),
                    static_cast<unsigned long long>(
                        r.metrics.contextSwitches));
    if (r.flushMdcOnSwitch)
        std::printf(" flushWbs=%llu",
                    static_cast<unsigned long long>(
                        r.metrics.mdcFlushWritebacks));
    std::printf(" cycles=%llu ipc=%.3f",
                static_cast<unsigned long long>(r.metrics.total.cycles),
                r.metrics.total.ipc);
    if (r.meanSlowdown > 0)
        std::printf(" meanSlowdown=%.2fx", r.meanSlowdown);
    std::printf("\n");
    for (const auto &t : r.tenants) {
        const auto &m = t.shared;
        std::printf("  %-12s arrive=%-7llu finish=%-8llu ipc=%.3f",
                    m.name.c_str(),
                    static_cast<unsigned long long>(m.arrivalCycle),
                    static_cast<unsigned long long>(m.finishCycle),
                    m.ipc);
        if (t.soloIpc > 0)
            std::printf(" solo=%.3f slowdown=%.2fx", t.soloIpc,
                        t.slowdown);
        std::printf(" mdcHit=%.3f", m.mdcHitRate);
        if (t.soloIpc > 0)
            std::printf(" (solo %.3f)", t.soloMdcHitRate);
        if (m.roCorrect + m.roMispredicts > 0)
            std::printf(" roAcc=%.3f", m.roAccuracy);
        if (m.strCorrect + m.strMispredicts > 0)
            std::printf(" strAcc=%.3f", m.strAccuracy);
        std::printf(" dispatches=%llu\n",
                    static_cast<unsigned long long>(m.dispatches));
    }
}

int
cmdRunScenario(const Args &args)
{
    workload::ScenarioSpec scn =
        workload::parseScenarioFile(args.get("scenario"));
    auto scheme = schemes::schemeFromName(args.get("scheme", "SHM"));

    core::ScenarioRunOptions opts;
    gpu::GpuParams gp =
        gpuParamsFrom(args, opts.meeSettings, &opts.traceParams);
    opts.withSolo = !args.has("no-solo");
    opts.tracePath = args.get("trace");
    opts.traceTextPath = args.get("trace-text");
    const std::string json_path = args.get("json");
    const std::string stats_path = args.get("stats");
    args.assertConsumed("run");

    auto r = core::runScenarioExperiment(gp, scheme, scn, opts);
    if (!opts.tracePath.empty())
        std::printf("trace written to %s\n", opts.tracePath.c_str());
    printScenario(r);

    // --json gets the structured scenario result (per-tenant metrics
    // and interference deltas); --stats the full simulator stats tree
    // of a fresh identical run (the determinism byte-compare vehicle).
    if (!json_path.empty()) {
        std::ofstream out(json_path, std::ios::binary);
        if (!out)
            shm_fatal("cannot open '{}' for writing", json_path);
        core::scenarioResultToJson(r).write(out, 2);
        out << "\n";
        std::printf("scenario json written to %s\n", json_path.c_str());
    }
    if (!stats_path.empty()) {
        gpu::GpuSimulator sim(
            gp, core::meeParamsFor(scheme, opts.meeSettings), scn);
        sim.runScenario();
        std::ofstream out(stats_path);
        sim.statsRoot().dump(out);
        std::printf("stats written to %s\n", stats_path.c_str());
    }
    return 0;
}

int
cmdRun(const Args &args)
{
    if (args.has("scenario"))
        return cmdRunScenario(args);
    std::string workload_name = args.get("workload");
    std::string spec_file = args.get("spec");
    if (workload_name.empty() && spec_file.empty())
        shm_fatal("run needs --workload, --spec or --scenario "
                  "(see 'shmgpu list')");
    workload::WorkloadSpec parsed;
    if (!spec_file.empty())
        parsed = workload::parseWorkloadFile(spec_file);
    const auto &w = spec_file.empty()
                        ? workload::findWorkload(workload_name)
                        : parsed;
    auto scheme = schemes::schemeFromName(args.get("scheme", "SHM"));

    core::RunOptions opts;
    gpu::GpuParams gp =
        gpuParamsFrom(args, opts.meeSettings, &opts.traceParams);
    opts.collectAccuracy = args.has("accuracy");
    opts.tracePath = args.get("trace");
    opts.traceTextPath = args.get("trace-text");
    const std::string stats_path = args.get("stats");
    const std::string json_path = args.get("json");
    args.assertConsumed("run");

    core::Experiment exp(gp);
    auto r = exp.run(scheme, w, opts);
    if (!opts.tracePath.empty())
        std::printf("trace written to %s\n", opts.tracePath.c_str());
    printSummary(r);

    if (opts.collectAccuracy) {
        double ro_total = r.metrics.roCorrect + r.metrics.roMpInit +
                          r.metrics.roMpAliasing;
        double str_total = r.metrics.strCorrect + r.metrics.strMpInit +
                           r.metrics.strMpAliasing +
                           r.metrics.strMpRuntimeRo +
                           r.metrics.strMpRuntimeNonRo;
        if (ro_total > 0)
            std::printf("read-only prediction accuracy : %.2f%%\n",
                        100 * r.metrics.roCorrect / ro_total);
        if (str_total > 0)
            std::printf("streaming prediction accuracy : %.2f%%\n",
                        100 * r.metrics.strCorrect / str_total);
    }

    // Stats dumps run the simulation once more with a retained tree.
    if (!stats_path.empty() || !json_path.empty()) {
        gpu::GpuSimulator sim(
            gp, core::meeParamsFor(scheme, opts.meeSettings), w);
        sim.run();
        if (!stats_path.empty()) {
            std::ofstream out(stats_path);
            sim.statsRoot().dump(out);
            std::printf("stats written to %s\n", stats_path.c_str());
        }
        if (!json_path.empty()) {
            std::ofstream out(json_path);
            sim.statsRoot().dumpJson(out);
            out << "\n";
            std::printf("json stats written to %s\n", json_path.c_str());
        }
    }
    return 0;
}

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= csv.size()) {
        std::size_t comma = csv.find(',', start);
        if (comma == std::string::npos)
            comma = csv.size();
        if (comma > start)
            out.push_back(csv.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

/** The --schemes list: "all" or comma-separated names, @p fallback
 *  when absent. Fatal when it names none. */
std::vector<schemes::Scheme>
schemeList(const Args &args, const std::string &fallback)
{
    const std::string list = args.get("schemes", fallback);
    if (list == "all")
        return schemes::allSchemes();
    std::vector<schemes::Scheme> designs;
    for (const auto &name : splitList(list))
        designs.push_back(schemes::schemeFromName(name));
    if (designs.empty())
        shm_fatal("sweep selects no schemes");
    return designs;
}

/**
 * What both sweep kinds share around their grid: the --results-dir
 * cell store with its tally line, and the --out document.
 */
struct SweepSinks
{
    /** Reads --results-dir and --out (before Args::assertConsumed). */
    explicit SweepSinks(const Args &args)
        : resultsDir(args.get("results-dir")), out(args.get("out"))
    {
    }

    /** Point @p opts at the tally and at the --results-dir cell store
     *  (opened here, once the flags are checked). Cells load instead
     *  of simulating on key hits and reach disk the moment they
     *  finish, which makes interrupted sweeps resumable. */
    template <typename Options>
    void
    attach(Options &opts)
    {
        if (!resultsDir.empty())
            cache = std::make_unique<core::ResultCache>(resultsDir);
        opts.cache = cache.get();
        opts.tally = &tally;
    }

    /** Print the tally line (with a cell store), then write --out. */
    template <typename Results, typename Write>
    void
    finish(const Results &results, Write write, const char *what) const
    {
        if (cache)
            std::printf("cells: %zu simulated, %zu loaded from %s\n",
                        tally.simulated, tally.cached, resultsDir.c_str());
        if (out.empty())
            return;
        std::ofstream os(out, std::ios::binary);
        if (!os)
            shm_fatal("cannot open '{}' for writing", out);
        write(os, results);
        std::printf("%s results written to %s (%zu cells)\n", what,
                    out.c_str(), results.size());
    }

    std::string resultsDir;
    std::string out;
    std::unique_ptr<core::ResultCache> cache;
    core::SweepTally tally;
};

/**
 * Build the Zipf grid requested by --zipf-footprints / --zipf-alphas
 * into owned specs, footprint-major. Empty when the axes are absent.
 */
std::vector<workload::WorkloadSpec>
zipfGrid(const Args &args)
{
    std::vector<workload::WorkloadSpec> specs;
    std::string footprints = args.get("zipf-footprints");
    if (footprints.empty()) {
        if (args.has("zipf-alphas"))
            shm_fatal("--zipf-alphas needs --zipf-footprints");
        return specs;
    }
    std::vector<std::uint64_t> sizes;
    for (const auto &tok : splitList(footprints))
        sizes.push_back(workload::parseSize(tok));
    std::vector<double> alphas;
    for (const auto &tok : splitList(args.get("zipf-alphas", "0.8")))
        alphas.push_back(parseNumber<double>("zipf-alphas", tok));
    specs.reserve(sizes.size() * alphas.size());
    for (auto fp : sizes)
        for (double a : alphas)
            specs.push_back(workload::makeZipfSpec(fp, a));
    return specs;
}

/**
 * Build one scenario-grid variant: @p base with the share policy,
 * quantum and tenant count replaced. Tenant lists grow round-robin
 * from the base scenario's tenants ("atax", "mvt", "atax#2", ...),
 * so a --tenants 2,4,8 axis scales one mix without new files.
 */
workload::ScenarioSpec
scenarioVariant(const workload::ScenarioSpec &base,
                workload::SharePolicy share, Cycle quantum, unsigned n)
{
    workload::ScenarioSpec s = base;
    s.policy = share;
    s.quantumCycles = quantum;
    s.tenants.clear();
    for (unsigned i = 0; i < n; ++i) {
        workload::TenantSpec t = base.tenants[i % base.tenants.size()];
        if (i >= base.tenants.size())
            t.name += "#" + std::to_string(
                                i / base.tenants.size() + 1);
        s.tenants.push_back(std::move(t));
    }
    return s;
}

/**
 * The scenario sweep: a (share x quantum x tenant-count x scheme)
 * grid over one base scenario file, with the quantum axis collapsing
 * for partitioned cells (no context switches there). Cells flow
 * through the same ResultCache machinery as workload sweeps.
 */
int
cmdSweepScenario(const Args &args)
{
    const workload::ScenarioSpec base =
        workload::parseScenarioFile(args.get("scenario"));

    const std::vector<schemes::Scheme> designs = schemeList(args, "SHM");

    std::vector<workload::SharePolicy> shares;
    for (const auto &name : splitList(
             args.get("share", workload::sharePolicyName(base.policy))))
        shares.push_back(workload::sharePolicyFromName(name));

    std::vector<Cycle> quantums;
    for (const auto &tok : splitList(
             args.get("quantums", std::to_string(base.quantumCycles))))
        quantums.push_back(parseNumber<Cycle>("quantums", tok));

    std::vector<unsigned> tenant_counts;
    for (const auto &tok : splitList(
             args.get("tenants", std::to_string(base.tenants.size()))))
        tenant_counts.push_back(parseNumber<unsigned>("tenants", tok));
    for (unsigned n : tenant_counts)
        shm_assert(n > 0, "--tenants needs positive counts");

    const bool quiet = args.has("quiet");
    if (quiet)
        log_detail::setVerbose(false);

    core::ScenarioSweepOptions opts;
    opts.jobs = args.number<unsigned>("jobs", 1);
    opts.run.withSolo = !args.has("no-solo");
    gpu::GpuParams gp =
        gpuParamsFrom(args, opts.run.meeSettings, &opts.run.traceParams);
    SweepSinks sinks(args);
    args.assertConsumed("sweep");

    // Owned variant storage, fully built before cells take pointers.
    std::vector<workload::ScenarioSpec> variants;
    for (auto share : shares) {
        const bool sliced = share == workload::SharePolicy::TimeSliced;
        // Partitioned mode has no switches: one cell per tenant count,
        // pinned to the base quantum so the axis never duplicates it.
        const std::vector<Cycle> qs =
            sliced ? quantums : std::vector<Cycle>{base.quantumCycles};
        for (Cycle q : qs)
            for (unsigned n : tenant_counts)
                variants.push_back(scenarioVariant(base, share, q, n));
    }
    std::vector<core::ScenarioCell> cells;
    cells.reserve(variants.size() * designs.size());
    for (const auto &v : variants)
        for (auto scheme : designs)
            cells.push_back({scheme, &v});

    sinks.attach(opts);

    auto results = core::runScenarioCells(gp, cells, opts);

    if (!quiet) {
        for (const auto &r : results)
            printScenario(r);
    }
    sinks.finish(results, core::writeScenarioSweepJson, "scenario sweep");
    return 0;
}

int
cmdSweep(const Args &args)
{
    if (args.has("scenario"))
        return cmdSweepScenario(args);
    // Owned storage for the generated Zipf axes; fully built before
    // any pointer is taken so `workloads` never dangles.
    const std::vector<workload::WorkloadSpec> zipf_specs = zipfGrid(args);

    std::vector<const workload::WorkloadSpec *> workloads;
    // With explicit Zipf axes the paper workloads only join in when
    // asked for by name; without them the default stays "all".
    std::string workload_list =
        args.get("workloads", zipf_specs.empty() ? "all" : "");
    if (workload_list == "all") {
        for (const auto &w : workload::allWorkloads())
            workloads.push_back(&w);
    } else {
        for (const auto &name : splitList(workload_list))
            workloads.push_back(&workload::findWorkload(name));
    }
    for (const auto &z : zipf_specs)
        workloads.push_back(&z);
    if (workloads.empty())
        shm_fatal("sweep selects no workloads");

    const std::vector<schemes::Scheme> designs = schemeList(args, "all");

    core::SweepOptions sweep_opts;
    sweep_opts.jobs = args.number<unsigned>("jobs", 1);
    sweep_opts.run.collectAccuracy = args.has("accuracy");
    sweep_opts.run.traceDir = args.get("trace");
    const bool quiet = args.has("quiet");
    if (quiet)
        log_detail::setVerbose(false);

    gpu::GpuParams gp = gpuParamsFrom(args, sweep_opts.run.meeSettings,
                                      &sweep_opts.run.traceParams);

    // --adapt-epochs: epoch-major extra axis for the adaptive scheme.
    // Each value fingerprints its own cache cells, so epoch grids are
    // resumable like every other axis.
    std::vector<std::optional<Cycle>> adapt_epochs;
    std::string epoch_list = args.get("adapt-epochs");
    if (epoch_list.empty()) {
        adapt_epochs.push_back(sweep_opts.run.meeSettings.adaptEpoch);
    } else {
        for (const auto &tok : splitList(epoch_list))
            adapt_epochs.push_back(parseNumber<Cycle>("adapt-epochs", tok));
    }

    // Policy-major third grid axis (--policies).
    std::vector<mem::PolicyKind> policies;
    std::string policy_list = args.get("policies");
    if (policy_list == "all") {
        policies = mem::allPolicies();
    } else {
        for (const auto &name : splitList(policy_list))
            policies.push_back(mem::policyFromName(name));
    }
    if (!policy_list.empty() && policies.empty())
        shm_fatal("sweep selects no policies");

    SweepSinks sinks(args);
    if (args.has("resume") && sinks.resultsDir.empty())
        shm_fatal("--resume needs --results-dir DIR (the cell store "
                  "the interrupted sweep wrote)");
    std::string cancel_after = args.get("cancel-after");
    if (!cancel_after.empty())
        sweep_opts.cancelAfter =
            parseNumber<std::size_t>("cancel-after", cancel_after);
    args.assertConsumed("sweep");

    sinks.attach(sweep_opts);

    std::vector<core::ExperimentResult> results;
    try {
        if (!policies.empty()) {
            // A fresh runner (and baseline) per policy, since the L2
            // policy moves the baseline IPC.
            for (auto epoch : adapt_epochs) {
                sweep_opts.run.meeSettings.adaptEpoch = epoch;
                auto part = core::runPolicyGrid(gp, policies, designs,
                                                workloads, sweep_opts);
                results.insert(results.end(), part.begin(), part.end());
            }
        } else {
            // One runner across the epoch axis: the baselines are
            // epoch-independent and shared.
            core::SweepRunner runner(gp);
            for (auto epoch : adapt_epochs) {
                sweep_opts.run.meeSettings.adaptEpoch = epoch;
                auto part = runner.run(designs, workloads, sweep_opts);
                results.insert(results.end(), part.begin(), part.end());
            }
        }
    } catch (const core::SweepCancelled &cancelled) {
        // Completed cells are kept, not discarded: with a results dir
        // they are already on disk and the sweep is resumable.
        std::printf("sweep cancelled: %zu of %zu cells finished "
                    "(%zu simulated, %zu from cache)\n",
                    cancelled.partial.size(), cancelled.totalCells,
                    sinks.tally.simulated, sinks.tally.cached);
        if (sinks.cache)
            std::printf("partial, resumable: finished cells are in "
                        "%s; rerun the same sweep with --results-dir "
                        "%s to pick up where this one stopped\n",
                        sinks.resultsDir.c_str(), sinks.resultsDir.c_str());
        else
            std::printf("partial results lost (no --results-dir; "
                        "pass one to make cancelled sweeps "
                        "resumable)\n");
        return 3;
    }

    if (!quiet) {
        for (const auto &r : results)
            printSummary(r);
        std::map<std::string, std::vector<double>> by_scheme;
        for (const auto &r : results)
            by_scheme[r.scheme].push_back(r.normalizedIpc);
        for (auto s : designs) {
            const auto &col = by_scheme[schemes::schemeName(s)];
            std::printf("geomean %-16s normIPC=%.3f\n",
                        schemes::schemeName(s), core::geomean(col));
        }
    }

    sinks.finish(results, core::writeSweepJson, "sweep");
    if (!sweep_opts.run.traceDir.empty())
        std::printf("per-cell traces written to %s/\n",
                    sweep_opts.run.traceDir.c_str());
    return 0;
}

/**
 * Same-host A/B throughput probe: the pinned 3x3 (workload x scheme)
 * grid on the turing preset at a 50k-cycle kernel cap, timed in
 * simulated cells per second. Baselines are warmed untimed so the
 * measurement covers exactly the secure-scheme simulations; the best
 * of --reps repetitions is the reported figure (least-noise estimator
 * on a shared machine). The grid is fixed because the A/B gate passes
 * one command line to both the merge-base and the head binary.
 */
int
cmdBenchSelf(const Args &args)
{
    const std::vector<std::string> workload_names = {"atax", "mvt", "bfs"};
    const std::vector<schemes::Scheme> designs = {
        schemes::Scheme::Naive, schemes::Scheme::Pssm,
        schemes::Scheme::Shm};
    const std::string gpu_name = "turing";
    constexpr std::uint64_t cycles = 50000;

    unsigned reps = args.number<unsigned>("reps", 3);
    shm_assert(reps > 0, "bench-self needs at least one repetition");
    std::string out = args.get("out", "bench-self.json");
    // Reject unknown flags before the timed grid, not after it.
    args.assertConsumed("bench-self");
    log_detail::setVerbose(false);

    gpu::GpuParams gp = gpu::presetByName(gpu_name);
    gp.maxCyclesPerKernel = cycles;

    std::vector<const workload::WorkloadSpec *> workloads;
    for (const auto &name : workload_names)
        workloads.push_back(&workload::findWorkload(name));

    core::Experiment exp(gp);
    // Warm the baseline cache so the timed region holds only the
    // secure cells, not the shared no-security simulations.
    for (const auto *w : workloads)
        exp.baselineFor(*w);

    const std::size_t cells = workloads.size() * designs.size();
    using clock = std::chrono::steady_clock;
    std::vector<double> rep_seconds;
    double best = 0;
    for (unsigned rep = 0; rep < reps; ++rep) {
        auto t0 = clock::now();
        for (const auto *w : workloads)
            for (auto scheme : designs)
                exp.run(scheme, *w);
        double secs = std::chrono::duration<double>(clock::now() - t0)
                          .count();
        rep_seconds.push_back(secs);
        double rate = static_cast<double>(cells) / secs;
        best = std::max(best, rate);
        std::printf("rep %u/%u: %zu cells in %.3f s  (%.2f cells/s)\n",
                    rep + 1, reps, cells, secs, rate);
    }
    std::printf("best throughput: %.2f cells/s (%zu-cell grid, "
                "%llu-cycle kernel cap)\n",
                best, cells, static_cast<unsigned long long>(cycles));

    // benchmark, gpu, max_cycles_per_kernel and cells are the keys
    // bench/compare_baseline.py requires to match across the A/B pair.
    json::Value doc = json::Value::object();
    doc["benchmark"] = "bench-self";
    doc["gpu"] = gpu_name;
    doc["max_cycles_per_kernel"] = cycles;
    doc["reps"] = static_cast<std::uint64_t>(reps);
    doc["cells"] = static_cast<std::uint64_t>(cells);
    json::Value grid = json::Value::object();
    json::Value wl = json::Value::array();
    for (const auto &name : workload_names)
        wl.append(name);
    json::Value sc = json::Value::array();
    for (auto scheme : designs)
        sc.append(schemes::schemeName(scheme));
    grid["workloads"] = std::move(wl);
    grid["schemes"] = std::move(sc);
    doc["grid"] = std::move(grid);
    json::Value secs = json::Value::array();
    for (double s : rep_seconds)
        secs.append(s);
    doc["rep_seconds"] = std::move(secs);
    doc["best_cells_per_second"] = best;

    std::ofstream os(out, std::ios::binary);
    if (!os)
        shm_fatal("cannot open '{}' for writing", out);
    doc.write(os, 2);
    os << "\n";
    std::printf("benchmark results written to %s\n", out.c_str());
    return 0;
}

/**
 * Summarize an exported Chrome trace_event JSON file: event counts per
 * class and kind, the cycle span, and the first/last detector events
 * (the usual "when did classification settle" question, answerable
 * without loading Perfetto).
 */
int
cmdTraceInfo(const Args &args)
{
    std::string in = args.get("in");
    args.assertConsumed("trace-info");
    if (in.empty())
        shm_fatal("trace-info needs --in FILE (a --trace export)");
    json::Value doc = json::Value::parseFile(in);
    if (!doc.isObject() || !doc.contains("traceEvents"))
        shm_fatal("'{}' is not a shmgpu trace export "
                  "(no traceEvents array)", in);
    const json::Value &events = doc.at("traceEvents");

    std::map<std::string, std::uint64_t> by_class;
    std::map<std::string, std::uint64_t> by_kind;
    // Per-tenant attribution (scenario traces stamp every event with
    // its owning tenant; single-workload traces are all tenant 0).
    std::map<std::uint64_t, std::uint64_t> by_tenant;
    std::map<std::uint64_t, std::uint64_t> detect_by_tenant;
    std::uint64_t total = 0;
    double first_ts = 0, last_ts = 0;
    bool have_span = false;
    struct DetectMark
    {
        std::string name;
        double ts = 0;
        std::string payload;
        bool set = false;
    };
    DetectMark first_detect, last_detect;

    for (std::size_t i = 0; i < events.size(); ++i) {
        const json::Value &e = events.at(i);
        if (e.at("ph").asString() != "i")
            continue; // metadata records carry no cycle
        ++total;
        const std::string &cat = e.at("cat").asString();
        const std::string &name = e.at("name").asString();
        double ts = e.at("ts").asNumber();
        ++by_class[cat];
        ++by_kind[name];
        if (!have_span || ts < first_ts)
            first_ts = ts;
        if (!have_span || ts > last_ts)
            last_ts = ts;
        have_span = true;
        std::uint64_t tenant = 0;
        if (e.at("args").contains("tenant"))
            tenant = static_cast<std::uint64_t>(
                e.at("args").at("tenant").asNumber());
        ++by_tenant[tenant];
        if (cat == "detect") {
            ++detect_by_tenant[tenant];
            const std::string &payload =
                e.at("args").at("payload").asString();
            if (!first_detect.set)
                first_detect = {name, ts, payload, true};
            last_detect = {name, ts, payload, true};
        }
    }

    std::printf("%llu events\n", static_cast<unsigned long long>(total));
    if (have_span)
        std::printf("cycle span: %.0f .. %.0f\n", first_ts, last_ts);
    std::puts("per class:");
    for (const auto &[cls, count] : by_class)
        std::printf("  %-8s %llu\n", cls.c_str(),
                    static_cast<unsigned long long>(count));
    std::puts("per kind:");
    for (const auto &[kind, count] : by_kind)
        std::printf("  %-16s %llu\n", kind.c_str(),
                    static_cast<unsigned long long>(count));
    // Only worth a section when the trace actually interleaves
    // tenants; a single-tenant trace would print one all-zeros row.
    if (by_tenant.size() > 1) {
        std::puts("per tenant:");
        for (const auto &[tenant, count] : by_tenant)
            std::printf("  tenant %-3llu %llu events (%llu detect)\n",
                        static_cast<unsigned long long>(tenant),
                        static_cast<unsigned long long>(count),
                        static_cast<unsigned long long>(
                            detect_by_tenant.count(tenant)
                                ? detect_by_tenant.at(tenant)
                                : 0));
    }
    if (first_detect.set) {
        std::printf("first detector event: %s @ cycle %.0f "
                    "(payload %s)\n",
                    first_detect.name.c_str(), first_detect.ts,
                    first_detect.payload.c_str());
        std::printf("last detector event : %s @ cycle %.0f "
                    "(payload %s)\n",
                    last_detect.name.c_str(), last_detect.ts,
                    last_detect.payload.c_str());
    } else {
        std::puts("no detector events (class filtered out or no "
                  "detection activity)");
    }
    return 0;
}

int
cmdTrace(const Args &args, const std::string &sub)
{
    const std::string command = "trace " + sub;
    if (sub == "record") {
        std::string workload_name = args.get("workload");
        std::string out = args.get("out");
        std::uint32_t sms = args.number<std::uint32_t>("sms", 30);
        args.assertConsumed(command);
        if (workload_name.empty() || out.empty())
            shm_fatal("trace record needs --workload and --out");
        const auto &w = workload::findWorkload(workload_name);
        workload::Trace trace = workload::generateTrace(w, sms);
        workload::writeTrace(trace, out);
        std::printf("recorded %llu ops over %zu kernels (%u SMs) "
                    "to %s\n",
                    static_cast<unsigned long long>(trace.totalOps()),
                    trace.kernels.size(), trace.numSms, out.c_str());
        return 0;
    }
    if (sub == "info") {
        std::string in = args.get("in");
        args.assertConsumed(command);
        workload::Trace trace = workload::readTrace(in);
        std::printf("SMs: %u, kernels: %zu, total ops: %llu\n",
                    trace.numSms, trace.kernels.size(),
                    static_cast<unsigned long long>(trace.totalOps()));
        for (std::size_t k = 0; k < trace.kernels.size(); ++k)
            std::printf("  kernel %zu: %zu ops, %zu host copies\n", k,
                        trace.kernels[k].records.size(),
                        trace.kernels[k].copies.size());
        return 0;
    }
    if (sub == "run") {
        std::string in = args.get("in");
        auto scheme = schemes::schemeFromName(args.get("scheme", "SHM"));
        core::MeeSettings mee;
        gpu::GpuParams gp = gpuParamsFrom(args, mee);
        args.assertConsumed(command);
        workload::Trace trace = workload::readTrace(in);
        gp.numSms = trace.numSms;

        gpu::GpuSimulator sim(gp, core::meeParamsFor(scheme, mee), trace);
        gpu::RunMetrics m = sim.run();
        std::printf("trace replay under %s: cycles=%llu ipc=%.2f "
                    "util=%.1f%% mdOverhead=%.2f%%\n",
                    schemes::schemeName(scheme),
                    static_cast<unsigned long long>(m.cycles), m.ipc,
                    100 * m.bandwidthUtilization,
                    100 * m.metadataOverhead());
        return 0;
    }
    return usage();
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    // --help anywhere prints usage before any subcommand runs.
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--help") == 0)
            return usage(0);
    const std::string cmd = argv[1];

    // trace-info summarizes a --trace export; "trace" names the
    // workload-trace subcommands, which take one more word.
    if (cmd == "trace") {
        if (argc < 3)
            return usage();
        return cmdTrace(Args(argc, argv, 3), argv[2]);
    }
    static const std::map<std::string, int (*)(const Args &)> commands = {
        {"list", cmdList},
        {"run", cmdRun},
        {"sweep", cmdSweep},
        {"bench-self", cmdBenchSelf},
        {"trace-info", cmdTraceInfo},
    };
    auto it = commands.find(cmd);
    if (it == commands.end())
        return usage();
    // Every subcommand reads its flags and calls Args::assertConsumed
    // before it simulates anything, so a typo costs no simulation.
    return it->second(Args(argc, argv, 2));
}
