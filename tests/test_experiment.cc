/**
 * @file
 * Experiment-facade tests.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "detect/oracle.hh"

using namespace shmgpu;
using namespace shmgpu::core;

namespace
{

gpu::GpuParams
quickParams()
{
    gpu::GpuParams p;
    p.maxCyclesPerKernel = 30000;
    return p;
}

} // namespace

TEST(Experiment, NormalizedIpcIsInUnitRange)
{
    Experiment exp(quickParams());
    auto w = workload::makeStreamingMicro(4 << 20, 2048);
    auto r = exp.run(schemes::Scheme::Shm, w);
    EXPECT_GT(r.normalizedIpc, 0.5);
    EXPECT_LE(r.normalizedIpc, 1.001);
    EXPECT_NEAR(r.overhead(), 1.0 - r.normalizedIpc, 1e-12);
    EXPECT_EQ(r.workload, "micro-stream");
    EXPECT_EQ(r.scheme, "SHM");
}

TEST(Experiment, BaselineIsCachedAcrossRuns)
{
    Experiment exp(quickParams());
    auto w = workload::makeMixedMicro();
    const auto &b1 = exp.baselineFor(w);
    const auto &b2 = exp.baselineFor(w);
    EXPECT_EQ(&b1, &b2);
}

TEST(Experiment, BaselineCacheDoesNotAliasSpecsSharingAName)
{
    // Two distinct specs under one name: the regenerated-parameter-
    // sweep scenario that used to alias in the name-keyed cache.
    Experiment exp(quickParams());
    auto small = workload::makeStreamingMicro(1 << 20, 1024);
    auto large = workload::makeStreamingMicro(8 << 20, 4096);
    ASSERT_EQ(small.name, large.name);
    ASSERT_NE(workload::contentHash(small),
              workload::contentHash(large));

    const auto &b_small = exp.baselineFor(small);
    const auto &b_large = exp.baselineFor(large);
    EXPECT_NE(&b_small, &b_large);
    EXPECT_NE(b_small.instructions, b_large.instructions);

    // And the cached entries stay stable after both exist.
    EXPECT_EQ(&exp.baselineFor(small), &b_small);
    EXPECT_EQ(&exp.baselineFor(large), &b_large);
    EXPECT_EQ(exp.baselineCache()->size(), 2u);
}

TEST(Experiment, ContentEqualSpecsShareABaselineWhateverTheObject)
{
    Experiment exp(quickParams());
    auto a = workload::makeStreamingMicro(1 << 20, 1024);
    auto b = workload::makeStreamingMicro(1 << 20, 1024);
    EXPECT_EQ(workload::contentHash(a), workload::contentHash(b));
    EXPECT_EQ(&exp.baselineFor(a), &exp.baselineFor(b));
    EXPECT_EQ(exp.baselineCache()->size(), 1u);
}

TEST(Experiment, SharedBaselineCacheSpansExperiments)
{
    auto cache = std::make_shared<BaselineCache>(quickParams());
    Experiment exp1(cache);
    Experiment exp2(cache);
    auto w = workload::makeRandomMicro();
    EXPECT_EQ(&exp1.baselineFor(w), &exp2.baselineFor(w));
    EXPECT_EQ(cache->size(), 1u);
}

TEST(WorkloadContentHash, SensitiveToEverySimulationField)
{
    auto base = workload::makeMixedMicro();
    const auto h0 = workload::contentHash(base);

    auto w = base;
    w.seed += 1;
    EXPECT_NE(workload::contentHash(w), h0);

    w = base;
    w.buffers[0].bytes *= 2;
    EXPECT_NE(workload::contentHash(w), h0);

    w = base;
    w.kernels[0].streams[0].prob *= 0.5;
    EXPECT_NE(workload::contentHash(w), h0);

    w = base;
    w.kernels[0].computePerMem += 1;
    EXPECT_NE(workload::contentHash(w), h0);

    // Documentation-only fields must NOT change the hash: they never
    // reach the simulator, so they must not split the cache.
    w = base;
    w.bwUtilLo = 0.123;
    w.specialSpaces = "different";
    EXPECT_EQ(workload::contentHash(w), h0);
}

TEST(Experiment, EnergyNormalizationAboveOneForSecureSchemes)
{
    Experiment exp(quickParams());
    auto w = workload::makeStreamingMicro(4 << 20, 2048);
    auto naive = exp.run(schemes::Scheme::Naive, w);
    EXPECT_GT(naive.normalizedEnergyPerInstr, 1.05);
    auto shm = exp.run(schemes::Scheme::Shm, w);
    EXPECT_LT(shm.normalizedEnergyPerInstr,
              naive.normalizedEnergyPerInstr);
}

TEST(Experiment, AccuracyCollectionFillsPredictionStats)
{
    Experiment exp(quickParams());
    auto w = workload::makeMixedMicro();
    RunOptions opts;
    opts.collectAccuracy = true;
    auto r = exp.run(schemes::Scheme::Shm, w, opts);
    double ro_total = r.metrics.roCorrect + r.metrics.roMpInit +
                      r.metrics.roMpAliasing;
    EXPECT_GT(ro_total, 0.0);
}

TEST(Experiment, UpperBoundRunsProfilePassAutomatically)
{
    Experiment exp(quickParams());
    auto w = workload::makeMixedMicro();
    auto r = exp.run(schemes::Scheme::ShmUpperBound, w);
    EXPECT_GT(r.normalizedIpc, 0.0);
}

TEST(BaselineCache, FirstProfileRequestAlsoProvidesTheMetrics)
{
    // One profiled run fills both, and the metrics are the plain
    // run's bit for bit: collecting a profile changes nothing.
    auto w = workload::makeMixedMicro();
    const ProfileGeometry g = profileGeometry(schemes::Scheme::Shm);
    BaselineCache profiled(quickParams());
    auto profile = profiled.profileFor(w, g);
    ASSERT_NE(profile, nullptr);
    EXPECT_EQ(profile->regionBytes(), g.regionBytes);
    EXPECT_EQ(profile->chunkBytes(), g.chunkBytes);
    const gpu::RunMetrics &m = profiled.metricsFor(w);
    EXPECT_EQ(profiled.simulations(), 1u);

    BaselineCache plain(quickParams());
    const gpu::RunMetrics &want = plain.metricsFor(w);
    EXPECT_EQ(m.cycles, want.cycles);
    EXPECT_EQ(m.instructions, want.instructions);
    EXPECT_EQ(m.ipc, want.ipc);
    EXPECT_EQ(m.bytesData, want.bytesData);
    EXPECT_EQ(m.l2MissRate, want.l2MissRate);
    EXPECT_EQ(m.energy.dramBytes, want.energy.dramBytes);
}

TEST(BaselineCache, ProfileIsSharedWhileHeldAndRebuiltAfter)
{
    auto w = workload::makeMixedMicro();
    const ProfileGeometry g = profileGeometry(schemes::Scheme::Shm);
    BaselineCache cache(quickParams());
    cache.metricsFor(w);
    ASSERT_EQ(cache.simulations(), 1u);

    // The plain baseline already ran: one extra profiled pass, shared.
    auto first = cache.profileFor(w, g);
    auto second = cache.profileFor(w, g);
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(cache.simulations(), 2u);

    // Another geometry is another profile.
    ProfileGeometry wide = g;
    wide.chunkBytes *= 2;
    EXPECT_NE(cache.profileFor(w, wide).get(), first.get());
    EXPECT_EQ(cache.simulations(), 3u);

    // Once every holder drops it, the cache has let it go.
    first.reset();
    second.reset();
    auto again = cache.profileFor(w, g);
    EXPECT_EQ(cache.simulations(), 4u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(Geomean, MatchesHandComputation)
{
    EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Geomean, RejectsNonPositive)
{
    EXPECT_DEATH(geomean({1.0, 0.0}), "positive");
}
