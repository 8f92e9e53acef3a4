/**
 * @file
 * Shared pieces of the repository benchmark: options, the
 * outcome of one run, the span recorder of traced runs, output-digest
 * checking and the seeded inputs every workload is built from.
 *
 * perfbench measures host time (how long the simulator takes on this
 * machine), never simulated GPU time. Every workload takes its inputs
 * from --seed; the simulator only ever sees the generated specs.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.hh"
#include "gpu/params.hh"
#include "workload/scenario.hh"
#include "workload/spec.hh"

namespace perfbench
{

using shmgpu::Addr;
using shmgpu::Cycle;
namespace gpu = shmgpu::gpu;
namespace stats = shmgpu::stats;
namespace workload = shmgpu::workload;

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    /** Input seed; 0 keeps the Table VII specs' own RNG seeds. */
    std::uint64_t seed = 0;
    /** Measurement budget: repetitions stop before exceeding it. */
    double seconds = 15;
    bool trace = false;
    /** Root of the checkout (holds src/ and examples/). */
    std::string root = ".";
    /** Committed output digests of seed 0. */
    std::string expectedPath;
    /** When set, write this run's seed-0 digests here (maintenance). */
    std::string writeDigestsPath;
    /** Where a traced run writes its spans. */
    std::string traceOut;
    /** Worker threads: min(hardware threads, 4). */
    unsigned jobs = 1;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Counts of attempted and failed operations, plus the metrics. */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Human-readable lines printed before the result line. */
    std::vector<std::string> notes;

    void add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
    /** Count @p ops failed operations and say why. */
    void fail(const std::string &why, std::uint64_t ops = 1);
    void note(const std::string &line) { notes.push_back(line); }
};

/**
 * In-memory span recorder of a traced run: name, start, end, parent
 * and op id, written to a JSON file when the run ends. A null
 * recorder (untraced runs) makes every Scope a no-op. Thread-safe.
 */
class Spans
{
  public:
    struct Span
    {
        std::string name;
        double start = 0; //!< seconds since the recorder was created
        double end = 0;
        int parent = -1;
        std::uint64_t op = 0;
    };

    /** Open a span; returns its id. */
    int open(const std::string &name, int parent, std::uint64_t op);
    void close(int id);

    /** Sum of the durations of every span called @p name. */
    double total(const std::string &name) const;

    std::vector<Span> snapshot() const;

  private:
    const Clock::time_point epoch = Clock::now();
    mutable std::mutex mutex;
    std::vector<Span> spans;
};

/** RAII span; does nothing when the recorder is null. */
class Scope
{
  public:
    Scope(Spans *spans, const std::string &name, int parent = -1,
          std::uint64_t op = 0)
        : recorder(spans),
          spanId(spans ? spans->open(name, parent, op) : -1)
    {
    }
    ~Scope()
    {
        if (recorder)
            recorder->close(spanId);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    int id() const { return spanId; }

  private:
    Spans *recorder;
    int spanId;
};

/**
 * Output checking. Each cell's results document is hashed; within a
 * run every repetition (and, in the traced run, the jobs=1 re-run)
 * must reproduce the first digest of its cell, and for seed 0 the
 * digests must also equal the committed ones.
 */
class DigestBook
{
  public:
    /** @p expected: this workload's committed digests (may be empty). */
    DigestBook(std::map<std::string, std::string> expected, bool check)
        : committed(std::move(expected)), checkCommitted(check)
    {
    }

    /** Record one cell's digest; counts one attempted op. */
    void observe(const std::string &cell, std::uint64_t digest,
                 Outcome &out);
    /** Seed 0: every committed cell must have been seen. */
    void finish(Outcome &out) const;

    const std::map<std::string, std::string> &seen() const
    {
        return first;
    }

  private:
    std::map<std::string, std::string> committed;
    bool checkCommitted;
    std::map<std::string, std::string> first;
    mutable std::mutex mutex;
};

/** FNV-1a 64 of a string (cell results documents). */
std::uint64_t digestOf(const std::string &text);
std::string hex64(std::uint64_t v);

/** Shared state handed to a workload. */
struct Context
{
    Options options;
    Spans *spans = nullptr; //!< non-null only in traced runs
    DigestBook *digests = nullptr;
};

/** @{ Seeded inputs. */
/** A Table VII workload with its RNG seed derived from @p seed. */
workload::WorkloadSpec seededSpec(const std::string &name,
                                  std::uint64_t seed);
/** Every Table VII workload, seeded. */
std::vector<workload::WorkloadSpec> seededTableVii(std::uint64_t seed);
/** The Table V (turing) machine with the given per-kernel cycle cap. */
gpu::GpuParams benchGpu(Cycle kernel_cap);
/** Kernel cap of the figure benches (bench/bench_common.cc). */
constexpr Cycle figureCap = 100000;
/** A cap no workload reaches: runs end when their traces drain. */
constexpr Cycle uncapped = Cycle{1} << 40;
/** @} */

/** @{ Host measurements. */
double peakRssMb();

/**
 * Samples the process's resident memory every 10 ms for as long as it
 * lives, appending MiB values to @p sink (read once the sampler is
 * gone).
 */
class RssSampler
{
  public:
    explicit RssSampler(std::vector<double> &sink);
    ~RssSampler();
    RssSampler(const RssSampler &) = delete;
    RssSampler &operator=(const RssSampler &) = delete;

  private:
    std::vector<double> &samples;
    std::mutex mutex;
    std::condition_variable wake;
    bool stopping = false;
    std::thread worker; //!< declared last: uses every member above
};

/** Every scalar of a stats tree, keyed by path with partition and
 *  bank ids folded out (sim.pN.mee.reads) and summed. */
std::map<std::string, double> foldedStats(const stats::StatGroup &root);
/**
 * Latency summary in the choosing-metrics form: the median and the
 * highest percentile with at least ten samples beyond it. Below 20
 * samples that percentile would not even reach the median, so the
 * maximum stands in and the label says so.
 */
struct Tail
{
    double p50 = 0;
    double tail = 0;
    std::string label; //!< e.g. "p87.5 of 80 (10 beyond)"
};
Tail tailOf(std::vector<double> samples);
double median(std::vector<double> values);
/** @} */

/** Cells, instructions and latencies gathered by the timed region. */
struct Measured
{
    std::vector<double> setupSeconds; //!< one per set-up
    std::vector<double> repSeconds;   //!< one per repetition
    /** Host seconds of each cell, one list per repetition. */
    std::vector<std::vector<double>> repCells;
    std::vector<double> rssSamples; //!< MiB, over the repetitions
    double instructions = 0;        //!< simulated (or replayed)
    unsigned workers = 1;
};

/** End-to-end metrics from a run's measurements. */
void endToEndMetrics(const Measured &m, Outcome &out);

/** What a traced run's own cells measured (the core layer). */
struct TracedCells
{
    double untracedWall = 0; //!< the same repetition with spans off
    double tracedWall = 0;
    double busy = 0; //!< summed cell host time of the traced repetition
    unsigned workers = 1;
    double baselineSims = 0;
    double adaptReencBytes = 0;
    /** model.* readout (paper_grid); empty elsewhere, reported as 0. */
    std::vector<Metric> model;
};

/** The inputs the traced run's layer probe replays. */
struct ProbeInputs
{
    std::vector<workload::WorkloadSpec> specs;
    Cycle cap = figureCap;
    /** Multi-tenant mix for the scenario-engine probe. */
    workload::ScenarioSpec scenario;
};

/** Ops of each stream replayed through the functional MEE. */
constexpr std::uint64_t secureOpsPerStream = 300000;

/** The per-layer metrics of a traced run (probe.cc). */
void perLayerMetrics(Context &ctx, const TracedCells &cells,
                     const ProbeInputs &probe, Outcome &out);

/** @{ The four workloads (workloads.cc). */
Outcome runPaperGrid(Context &ctx);
Outcome runLongCell(Context &ctx);
Outcome runTenantMix(Context &ctx);
Outcome runSecureMemory(Context &ctx);
/** @} */

/**
 * Stop predicate shared by every repetition loop: keep going while
 * one more repetition of the mean length still fits the budget. At
 * least one repetition always runs.
 */
bool anotherRep(const std::vector<double> &rep_seconds, double budget);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
