/**
 * @file
 * Golden pins for the detector-profile path: the SHM_upper_bound
 * configuration (predictors primed from a profiling pass) and SHM with
 * accuracy collection (every prediction attributed against the same
 * profile). Each cell's full resultToJson document — metrics, baseline
 * and the ro/str accuracy tallies — is pinned in
 * tests/golden/golden_profile.json and checked at 1e-9 for --jobs 1
 * and --jobs 4, so neither the oracle trackers nor the way profiles
 * are shared between cells can move a number silently.
 *
 * Regenerate after an *intentional* behaviour change with:
 *
 *   SHMGPU_UPDATE_GOLDEN=1 ./build/tests/test_golden_profile
 *
 * then review the JSON diff like any other code change.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>

#include "core/sweep.hh"

using namespace shmgpu;
using namespace shmgpu::core;

#ifndef SHMGPU_GOLDEN_DIR
#error "build must define SHMGPU_GOLDEN_DIR"
#endif

namespace
{

constexpr double kTolerance = 1e-9;

std::string
goldenPath()
{
    return std::string(SHMGPU_GOLDEN_DIR) + "/golden_profile.json";
}

/**
 * The pinned grid: atax (read-only heavy), bfs (write-heavy, random)
 * and lbm (streaming) under SHM_upper_bound, then under SHM with
 * accuracy collection. Both sweeps share one runner, so the second
 * reuses the first one's baselines. Changing the grid invalidates the
 * golden file.
 */
std::vector<ExperimentResult>
runPinnedGrid(unsigned jobs)
{
    gpu::GpuParams params;
    params.maxCyclesPerKernel = 20000;

    std::vector<const workload::WorkloadSpec *> workloads = {
        &workload::findWorkload("atax"), &workload::findWorkload("bfs"),
        &workload::findWorkload("lbm")};

    SweepRunner runner(params);
    SweepOptions opts;
    opts.jobs = jobs;
    auto all = runner.run({schemes::Scheme::ShmUpperBound}, workloads,
                          opts);
    opts.run.collectAccuracy = true;
    auto accuracy = runner.run({schemes::Scheme::Shm}, workloads, opts);
    all.insert(all.end(), accuracy.begin(), accuracy.end());
    return all;
}

json::Value
goldenFromResults(const std::vector<ExperimentResult> &results)
{
    json::Value doc = json::Value::object();
    doc["comment"] = json::Value(
        "Pinned detector-profile metrics; regenerate with "
        "SHMGPU_UPDATE_GOLDEN=1 ./build/tests/test_golden_profile");
    doc["maxCyclesPerKernel"] = json::Value(20000);
    json::Value arr = json::Value::array();
    for (const auto &r : results)
        arr.append(resultToJson(r));
    doc["cells"] = std::move(arr);
    return doc;
}

bool
updateRequested()
{
    const char *env = std::getenv("SHMGPU_UPDATE_GOLDEN");
    return env != nullptr && env[0] != '\0' && std::string(env) != "0";
}

/** Numbers within 1e-9, everything else exactly, member by member. */
void
expectNear(const json::Value &got, const json::Value &want,
           const std::string &where)
{
    ASSERT_EQ(got.kind(), want.kind()) << where;
    if (want.isNumber()) {
        EXPECT_NEAR(got.asNumber(), want.asNumber(), kTolerance)
            << where << " drifted beyond 1e-9 — if intentional, "
            << "regenerate with SHMGPU_UPDATE_GOLDEN=1";
    } else if (want.isObject()) {
        ASSERT_EQ(got.size(), want.size()) << where;
        for (const auto &[name, member] : want.members())
            expectNear(got.at(name), member, where + "." + name);
    } else {
        EXPECT_EQ(got.dump(), want.dump()) << where;
    }
}

void
expectMatchesGolden(const std::vector<ExperimentResult> &results)
{
    json::Value current = goldenFromResults(results);
    json::Value golden = json::Value::parseFile(goldenPath());
    const auto &want = golden.at("cells");
    const auto &got = current.at("cells");
    ASSERT_EQ(got.size(), want.size())
        << "grid shape changed; regenerate the golden file";
    for (std::size_t i = 0; i < want.size(); ++i) {
        const auto &w = want.at(i);
        expectNear(got.at(i), w,
                   w.at("workload").asString() + "/" +
                       w.at("scheme").asString());
    }
}

} // namespace

TEST(GoldenProfile, PinnedGridMatchesGoldenFile)
{
    auto results = runPinnedGrid(1);

    if (updateRequested()) {
        json::Value current = goldenFromResults(results);
        std::ofstream os(goldenPath(), std::ios::binary);
        ASSERT_TRUE(os) << "cannot write " << goldenPath();
        current.write(os, 2);
        os << "\n";
        GTEST_SKIP() << "golden file regenerated at " << goldenPath();
    }

    expectMatchesGolden(results);
}

TEST(GoldenProfile, ParallelGridMatchesGoldenFile)
{
    // Cells of one workload share a read-only profile; running them
    // concurrently must not change a bit.
    expectMatchesGolden(runPinnedGrid(4));
}

TEST(GoldenProfile, GoldenFileIsSelfConsistent)
{
    // Parseable, right shape, and the tallies the grid exists to pin
    // are really there: every cell attributed its predictions.
    json::Value golden = json::Value::parseFile(goldenPath());
    const auto &cells = golden.at("cells");
    ASSERT_EQ(cells.size(), 6u);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto &c = cells.at(i);
        double n = c.at("normalizedIpc").asNumber();
        EXPECT_GT(n, 0.0);
        EXPECT_LE(n, 1.001);
        EXPECT_NEAR(c.at("overhead").asNumber(), 1.0 - n, 1e-12);
        const auto &m = c.at("metrics");
        EXPECT_GT(m.at("roCorrect").asNumber() +
                      m.at("strCorrect").asNumber(),
                  0.0)
            << "cell " << i << " attributed no prediction";
    }
}
