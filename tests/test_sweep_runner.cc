/**
 * @file
 * SweepRunner tests: the determinism guarantee (identical metrics at
 * any job count), exception propagation out of worker threads,
 * cooperative cancellation, and the baselines-first dispatch (one
 * baseline task per spec, none for cached cells).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <set>
#include <sstream>
#include <stdexcept>

#include "core/result_cache.hh"
#include "core/sweep.hh"

using namespace shmgpu;
using namespace shmgpu::core;

namespace
{

gpu::GpuParams
quickParams()
{
    gpu::GpuParams p;
    p.maxCyclesPerKernel = 20000;
    return p;
}

/** A 3-scheme x 3-workload grid over the micro workloads. */
struct Grid
{
    std::vector<schemes::Scheme> designs = {
        schemes::Scheme::Naive, schemes::Scheme::Pssm,
        schemes::Scheme::Shm};
    workload::WorkloadSpec stream = workload::makeStreamingMicro();
    workload::WorkloadSpec random = workload::makeRandomMicro();
    workload::WorkloadSpec mixed = workload::makeMixedMicro();
    std::vector<const workload::WorkloadSpec *> workloads = {
        &stream, &random, &mixed};
};

std::vector<ExperimentResult>
runWithJobs(unsigned jobs)
{
    Grid grid;
    SweepRunner runner(quickParams());
    SweepOptions opts;
    opts.jobs = jobs;
    return runner.run(grid.designs, grid.workloads, opts);
}

void
expectMetricsIdentical(const gpu::RunMetrics &a, const gpu::RunMetrics &b)
{
    // Exact comparisons on purpose: the claim is bit-for-bit
    // determinism, not approximate agreement.
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.bytesData, b.bytesData);
    EXPECT_EQ(a.bytesCounter, b.bytesCounter);
    EXPECT_EQ(a.bytesMac, b.bytesMac);
    EXPECT_EQ(a.bytesBmt, b.bytesBmt);
    EXPECT_EQ(a.bytesExtra, b.bytesExtra);
    EXPECT_EQ(a.bandwidthUtilization, b.bandwidthUtilization);
    EXPECT_EQ(a.l2MissRate, b.l2MissRate);
    EXPECT_EQ(a.sharedCtrReads, b.sharedCtrReads);
    EXPECT_EQ(a.commonCtrHits, b.commonCtrHits);
    EXPECT_EQ(a.chunkMacAccesses, b.chunkMacAccesses);
    EXPECT_EQ(a.blockMacAccesses, b.blockMacAccesses);
    EXPECT_EQ(a.energy.dramBytes, b.energy.dramBytes);
    EXPECT_EQ(a.energy.aesBlocks, b.energy.aesBlocks);
    EXPECT_EQ(a.energy.hashes, b.energy.hashes);
}

} // namespace

TEST(SweepRunner, ResultsAreInWorkloadMajorGridOrder)
{
    auto results = runWithJobs(1);
    ASSERT_EQ(results.size(), 9u);
    EXPECT_EQ(results[0].workload, "micro-stream");
    EXPECT_EQ(results[0].scheme, "Naive");
    EXPECT_EQ(results[1].scheme, "PSSM");
    EXPECT_EQ(results[2].scheme, "SHM");
    EXPECT_EQ(results[3].workload, "micro-random");
    EXPECT_EQ(results[8].workload, "micro-mixed");
    EXPECT_EQ(results[8].scheme, "SHM");
}

TEST(SweepRunner, JobCountDoesNotChangeAnyMetric)
{
    auto serial = runWithJobs(1);
    auto parallel = runWithJobs(8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(serial[i].workload + "/" + serial[i].scheme);
        EXPECT_EQ(serial[i].workload, parallel[i].workload);
        EXPECT_EQ(serial[i].scheme, parallel[i].scheme);
        EXPECT_EQ(serial[i].normalizedIpc, parallel[i].normalizedIpc);
        EXPECT_EQ(serial[i].normalizedEnergyPerInstr,
                  parallel[i].normalizedEnergyPerInstr);
        expectMetricsIdentical(serial[i].metrics, parallel[i].metrics);
        expectMetricsIdentical(serial[i].baseline, parallel[i].baseline);
    }
}

TEST(SweepRunner, JsonSinkIsBitIdenticalAcrossJobCounts)
{
    std::ostringstream serial, parallel;
    writeSweepJson(serial, runWithJobs(1));
    writeSweepJson(parallel, runWithJobs(8));
    EXPECT_EQ(serial.str(), parallel.str());
}

TEST(SweepRunner, SharedBaselineCacheSimulatesEachSpecOnce)
{
    Grid grid;
    SweepRunner runner(quickParams());
    SweepOptions opts;
    opts.jobs = 4;
    runner.run(grid.designs, grid.workloads, opts);
    EXPECT_EQ(runner.baselineCache()->size(), 3u);
}

TEST(SweepRunner, MatchesDirectExperimentRuns)
{
    Grid grid;
    auto results = runWithJobs(8);
    Experiment exp(quickParams());
    auto direct = exp.run(schemes::Scheme::Pssm, grid.random);
    // Cell (micro-random, PSSM) is index 1*3 + 1.
    EXPECT_EQ(results[4].normalizedIpc, direct.normalizedIpc);
    expectMetricsIdentical(results[4].metrics, direct.metrics);
}

namespace
{

/** Runner whose cells throw for one scheme — the exception seam. */
class ThrowingRunner : public SweepRunner
{
  public:
    using SweepRunner::SweepRunner;
    schemes::Scheme poison = schemes::Scheme::Pssm;
    mutable std::atomic<int> cellsRun{0};

  protected:
    ExperimentResult
    runCell(const Experiment &experiment, const SweepCell &cell,
            const RunOptions &options) const override
    {
        ++cellsRun;
        if (cell.scheme == poison)
            throw std::runtime_error("injected cell failure");
        return SweepRunner::runCell(experiment, cell, options);
    }
};

} // namespace

TEST(SweepRunner, PropagatesCellExceptionsFromWorkers)
{
    Grid grid;
    ThrowingRunner runner(quickParams());
    SweepOptions opts;
    opts.jobs = 4;
    EXPECT_THROW(
        {
            try {
                runner.run(grid.designs, grid.workloads, opts);
            } catch (const std::runtime_error &e) {
                EXPECT_STREQ(e.what(), "injected cell failure");
                throw;
            }
        },
        std::runtime_error);
}

TEST(SweepRunner, FirstFailureAbandonsUnstartedCells)
{
    Grid grid;
    ThrowingRunner runner(quickParams());
    runner.poison = schemes::Scheme::Naive; // cell 0 fails immediately
    SweepOptions opts;
    opts.jobs = 1; // serial: deterministic count
    EXPECT_THROW(runner.run(grid.designs, grid.workloads, opts),
                 std::runtime_error);
    EXPECT_EQ(runner.cellsRun.load(), 1);
}

TEST(SweepRunner, CancelTokenStopsTheSweep)
{
    Grid grid;
    SweepRunner runner(quickParams());
    SweepOptions opts;
    opts.jobs = 2;
    opts.cancel = std::make_shared<std::atomic<bool>>(true);
    EXPECT_THROW(runner.run(grid.designs, grid.workloads, opts),
                 SweepCancelled);
}

namespace
{

/** Runner that flips the cancel token after the first cell. */
class SelfCancellingRunner : public SweepRunner
{
  public:
    using SweepRunner::SweepRunner;
    std::shared_ptr<std::atomic<bool>> token =
        std::make_shared<std::atomic<bool>>(false);
    mutable std::atomic<int> cellsRun{0};

  protected:
    ExperimentResult
    runCell(const Experiment &experiment, const SweepCell &cell,
            const RunOptions &options) const override
    {
        ++cellsRun;
        auto r = SweepRunner::runCell(experiment, cell, options);
        token->store(true);
        return r;
    }
};

} // namespace

TEST(SweepRunner, MidSweepCancellationAbandonsRemainingCells)
{
    Grid grid;
    SelfCancellingRunner runner(quickParams());
    SweepOptions opts;
    opts.jobs = 1;
    opts.cancel = runner.token;
    EXPECT_THROW(runner.run(grid.designs, grid.workloads, opts),
                 SweepCancelled);
    EXPECT_EQ(runner.cellsRun.load(), 1);
}

TEST(SweepRunner, EmptyGridReturnsNoResults)
{
    SweepRunner runner(quickParams());
    EXPECT_TRUE(runner.run({}, {}, {}).empty());
    EXPECT_TRUE(runner.runCells({}, {}).empty());
}

TEST(SweepRunner, RunCellsSupportsRaggedGrids)
{
    Grid grid;
    SweepRunner runner(quickParams());
    std::vector<SweepCell> cells = {
        {schemes::Scheme::Shm, &grid.stream},
        {schemes::Scheme::Naive, &grid.mixed},
    };
    auto results = runner.runCells(cells, {});
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].workload, "micro-stream");
    EXPECT_EQ(results[0].scheme, "SHM");
    EXPECT_EQ(results[1].workload, "micro-mixed");
    EXPECT_EQ(results[1].scheme, "Naive");
}

namespace
{

/** Self-cleaning per-test cache directory under $TMPDIR. */
struct TempDir
{
    std::filesystem::path path;

    explicit TempDir(const char *tag)
    {
        path = std::filesystem::temp_directory_path() /
               ("shmgpu-sweep-" + std::string(tag) + "-" +
                std::to_string(::getpid()));
        std::filesystem::remove_all(path);
    }
    ~TempDir() { std::filesystem::remove_all(path); }

    std::string str() const { return path.string(); }
};

/** Runner whose baseline task throws for the specs named. */
class ThrowingBaselineRunner : public SweepRunner
{
  public:
    using SweepRunner::SweepRunner;
    std::set<std::string> poison = {"micro-random"};

  protected:
    std::vector<std::shared_ptr<const detect::AccessProfile>>
    runBaseline(const workload::WorkloadSpec &spec,
                const std::vector<ProfileGeometry> &geometries)
        const override
    {
        if (poison.contains(spec.name))
            throw std::runtime_error("baseline failed: " + spec.name);
        return SweepRunner::runBaseline(spec, geometries);
    }
};

/** A grid with SHM_upper_bound and an accuracy-collecting SHM cell. */
std::vector<ExperimentResult>
runUpperBoundGrid(unsigned jobs, SweepRunner &runner)
{
    Grid grid;
    SweepOptions opts;
    opts.jobs = jobs;
    return runner.run({schemes::Scheme::ShmUpperBound,
                       schemes::Scheme::Naive, schemes::Scheme::Shm},
                      grid.workloads, opts);
}

} // namespace

TEST(SweepRunner, OneBaselineSimulationPerSpecEvenWithProfiles)
{
    // The profiled baseline run provides the metrics too, and no
    // SHM_upper_bound cell repeats it.
    SweepRunner runner(quickParams());
    runUpperBoundGrid(4, runner);
    EXPECT_EQ(runner.baselineCache()->simulations(), 3u);
}

TEST(SweepRunner, UpperBoundGridIsBitIdenticalAcrossJobCounts)
{
    std::string docs[3];
    const unsigned jobs[3] = {1, 4, 8};
    for (int i = 0; i < 3; ++i) {
        SweepRunner runner(quickParams());
        std::ostringstream os;
        writeSweepJson(os, runUpperBoundGrid(jobs[i], runner));
        docs[i] = os.str();
    }
    EXPECT_EQ(docs[0], docs[1]);
    EXPECT_EQ(docs[0], docs[2]);
}

TEST(SweepRunner, WarmResultCacheRunsNoBaseline)
{
    TempDir dir("warm");
    ResultCache cache(dir.str());
    Grid grid;
    SweepOptions opts;
    opts.jobs = 4;
    opts.cache = &cache;
    std::ostringstream cold, warm;
    {
        SweepRunner runner(quickParams());
        writeSweepJson(cold, runner.run(grid.designs, grid.workloads, opts));
    }
    SweepRunner runner(quickParams());
    SweepTally tally;
    opts.tally = &tally;
    writeSweepJson(warm, runner.run(grid.designs, grid.workloads, opts));
    EXPECT_EQ(tally.simulated, 0u);
    EXPECT_EQ(tally.cached, 9u);
    EXPECT_EQ(runner.baselineCache()->simulations(), 0u);
    EXPECT_EQ(cold.str(), warm.str());
}

TEST(SweepRunner, PartlyWarmCacheRunsBaselinesOnlyForMissedSpecs)
{
    TempDir dir("partial");
    ResultCache cache(dir.str());
    Grid grid;
    SweepOptions opts;
    opts.cache = &cache;
    {
        SweepRunner runner(quickParams());
        runner.run(grid.designs, {&grid.stream, &grid.random}, opts);
    }
    SweepRunner runner(quickParams());
    runner.run(grid.designs, grid.workloads, opts);
    EXPECT_EQ(runner.baselineCache()->simulations(), 1u)
        << "only micro-mixed missed";
}

TEST(SweepRunner, ThrowingBaselineSurfacesAsItsSpecsFirstCell)
{
    for (unsigned jobs : {1u, 4u}) {
        Grid grid;
        ThrowingBaselineRunner runner(quickParams());
        SweepOptions opts;
        opts.jobs = jobs;
        try {
            runner.run(grid.designs, grid.workloads, opts);
            ADD_FAILURE() << "sweep did not throw";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "baseline failed: micro-random");
        }
    }
}

TEST(SweepRunner, LowestIndexFailureWinsOverLaterBaselines)
{
    // Both specs fail their baselines: the error reported is that of
    // the spec reaching the grid first, however the tasks interleave.
    for (unsigned jobs : {1u, 4u}) {
        Grid grid;
        ThrowingBaselineRunner runner(quickParams());
        runner.poison = {"micro-random", "micro-stream"};
        SweepOptions opts;
        opts.jobs = jobs;
        std::vector<SweepCell> cells = {
            {schemes::Scheme::Naive, &grid.random},
            {schemes::Scheme::Naive, &grid.stream},
            {schemes::Scheme::Shm, &grid.random},
        };
        try {
            runner.runCells(cells, opts);
            ADD_FAILURE() << "sweep did not throw";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "baseline failed: micro-random");
        }
    }
}

TEST(SweepRunner, CancelAfterCountsCellsNotBaselines)
{
    // Three baseline tasks run before any cell; cancelling after one
    // completed cell must still leave exactly that cell.
    Grid grid;
    SweepRunner runner(quickParams());
    SweepOptions opts;
    opts.jobs = 1;
    opts.cancelAfter = 1;
    try {
        runner.run(grid.designs, grid.workloads, opts);
        ADD_FAILURE() << "sweep was not cancelled";
    } catch (const SweepCancelled &e) {
        ASSERT_EQ(e.partial.size(), 1u);
        EXPECT_EQ(e.partial[0].workload, "micro-stream");
        EXPECT_EQ(e.partial[0].scheme, "Naive");
        EXPECT_EQ(e.totalCells, 9u);
    }
}
