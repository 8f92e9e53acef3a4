/**
 * @file
 * Differential test of the event-driven kernel engine against the
 * per-cycle reference loop.
 *
 * The event engine (GpuSimulator::eventKernelLoop) claims bit-identical
 * behaviour to the original per-cycle loop, which survives as
 * referenceKernelLoop behind GpuParams::referenceKernelLoop. This test
 * is the proof: it runs randomized workload specs — every pattern,
 * every scheme, small and cap-hitting cycle budgets, zero and tiny
 * outstanding-load windows, the non-default replacement policies, and
 * SHM_adaptive across epochs and thresholds — through both engines
 * and requires the full RunMetrics and the whole stats tree to match
 * exactly (only the event engine's own cycles_skipped counter is
 * excluded, since the reference loop never skips).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/rng.hh"
#include "gpu/presets.hh"
#include "gpu/simulator.hh"
#include "mem/replacement.hh"
#include "schemes/schemes.hh"
#include "workload/benchmarks.hh"
#include "workload/spec.hh"

using namespace shmgpu;
using namespace shmgpu::gpu;

namespace
{

/** Stats dump minus the event-engine-only cycles_skipped line. */
std::string
comparableStats(GpuSimulator &sim)
{
    std::ostringstream raw;
    sim.statsRoot().dump(raw);
    std::istringstream in(raw.str());
    std::string out, line;
    while (std::getline(in, line)) {
        if (line.find("cycles_skipped") != std::string::npos)
            continue;
        out += line;
        out += '\n';
    }
    return out;
}

struct EngineResult
{
    RunMetrics metrics;
    std::string stats;
};

EngineResult
runEngine(bool reference_loop, const GpuParams &base,
          const mee::MeeParams &mp, const workload::WorkloadSpec &w)
{
    GpuParams gp = base;
    gp.referenceKernelLoop = reference_loop;
    GpuSimulator sim(gp, mp, w);
    EngineResult r;
    r.metrics = sim.run();
    r.stats = comparableStats(sim);
    return r;
}

/**
 * Require the two engines to agree on everything observable. The
 * stats-tree comparison subsumes most of RunMetrics, but the metrics
 * are also compared field-by-field so a mismatch names the quantity
 * instead of diffing a wall of text.
 */
void
expectIdentical(const GpuParams &gp, const mee::MeeParams &mp,
                const workload::WorkloadSpec &w, const std::string &what)
{
    EngineResult ev = runEngine(false, gp, mp, w);
    EngineResult ref = runEngine(true, gp, mp, w);
    SCOPED_TRACE(what);

    EXPECT_EQ(ev.metrics.cycles, ref.metrics.cycles);
    EXPECT_EQ(ev.metrics.instructions, ref.metrics.instructions);
    EXPECT_EQ(ev.metrics.ipc, ref.metrics.ipc);
    EXPECT_EQ(ev.metrics.bytesData, ref.metrics.bytesData);
    EXPECT_EQ(ev.metrics.bytesCounter, ref.metrics.bytesCounter);
    EXPECT_EQ(ev.metrics.bytesMac, ref.metrics.bytesMac);
    EXPECT_EQ(ev.metrics.bytesBmt, ref.metrics.bytesBmt);
    EXPECT_EQ(ev.metrics.bytesExtra, ref.metrics.bytesExtra);
    EXPECT_EQ(ev.metrics.bandwidthUtilization,
              ref.metrics.bandwidthUtilization);
    EXPECT_EQ(ev.metrics.l2MissRate, ref.metrics.l2MissRate);
    EXPECT_EQ(ev.metrics.sharedCtrReads, ref.metrics.sharedCtrReads);
    EXPECT_EQ(ev.metrics.commonCtrHits, ref.metrics.commonCtrHits);
    EXPECT_EQ(ev.metrics.roTransitions, ref.metrics.roTransitions);
    EXPECT_EQ(ev.metrics.chunkMacAccesses, ref.metrics.chunkMacAccesses);
    EXPECT_EQ(ev.metrics.blockMacAccesses, ref.metrics.blockMacAccesses);
    EXPECT_EQ(ev.metrics.dualMacFallbacks, ref.metrics.dualMacFallbacks);
    EXPECT_EQ(ev.metrics.victimHits, ref.metrics.victimHits);
    EXPECT_EQ(ev.metrics.victimInserts, ref.metrics.victimInserts);
    EXPECT_EQ(ev.metrics.adaptDemotions, ref.metrics.adaptDemotions);
    EXPECT_EQ(ev.metrics.adaptPromotions, ref.metrics.adaptPromotions);
    EXPECT_EQ(ev.metrics.adaptReencBytes, ref.metrics.adaptReencBytes);
    EXPECT_EQ(ev.stats, ref.stats);
}

/** More SMs and partitions than testConfig, so several SMs contend
 *  for each partition and the crossbar sees real contention. */
GpuParams
widerConfig()
{
    GpuParams gp = testConfig();
    gp.numSms = 8;
    gp.numPartitions = 6;
    return gp;
}

/**
 * A randomized workload: 1-3 buffers, 1-2 kernels of 1-3 streams
 * covering all four access patterns, compute ratios 0..8 (0 exercises
 * issue-on-fetch), tiny outstanding windows (0 = GPU default, 1 and 2
 * maximize window stalls), and pre-copies with every read-only
 * marking combination. Each stream writes with probability
 * @p write_tenths / 10.
 */
workload::WorkloadSpec
randomSpec(Rng &rng, unsigned idx, std::uint64_t write_tenths = 3)
{
    workload::WorkloadSpec w;
    w.name = "diff_rand_" + std::to_string(idx);
    w.suite = "diff";
    w.seed = rng.next();

    std::uint32_t nbufs = 1 + static_cast<std::uint32_t>(rng.below(3));
    for (std::uint32_t b = 0; b < nbufs; ++b) {
        workload::BufferSpec buf;
        buf.name = "b" + std::to_string(b);
        buf.bytes = (64 + rng.below(192)) << 10; // 64 KiB .. 256 KiB
        w.buffers.push_back(buf);
    }

    static constexpr workload::Pattern patterns[] = {
        workload::Pattern::Streaming, workload::Pattern::Random,
        workload::Pattern::RandomHot, workload::Pattern::Strided};
    static constexpr std::uint32_t windows[] = {0, 1, 2, 8};

    std::uint32_t nkernels = 1 + static_cast<std::uint32_t>(rng.below(2));
    for (std::uint32_t k = 0; k < nkernels; ++k) {
        workload::KernelSpec ks;
        ks.name = "k" + std::to_string(k);
        ks.iterationsPerSm = 32 + rng.below(224);
        ks.computePerMem = static_cast<std::uint32_t>(rng.below(9));
        ks.maxOutstanding = windows[rng.below(4)];
        std::uint32_t nstreams =
            1 + static_cast<std::uint32_t>(rng.below(3));
        for (std::uint32_t s = 0; s < nstreams; ++s) {
            workload::StreamSpec ss;
            ss.buffer = static_cast<std::uint32_t>(rng.below(nbufs));
            ss.pattern = patterns[rng.below(4)];
            ss.write = rng.below(10) < write_tenths;
            ss.prob = 0.5 + 0.5 * static_cast<double>(rng.below(2));
            ks.streams.push_back(ss);
        }
        if (k == 0) {
            for (std::uint32_t b = 0; b < nbufs; ++b) {
                workload::HostCopySpec hc;
                hc.buffer = b;
                hc.marksReadOnly = rng.below(4) != 0;
                hc.declaredReadOnly = rng.below(4) == 0;
                ks.preCopies.push_back(hc);
            }
        }
        w.kernels.push_back(ks);
    }
    return w;
}

} // namespace

TEST(KernelLoopDiff, CuratedMicrosUnderAllSchemes)
{
    GpuParams gp = testConfig();
    for (const auto &w :
         {workload::makeStreamingMicro(1 << 20, 256),
          workload::makeRandomMicro(1 << 20, 256),
          workload::makeMixedMicro(), workload::makeMultiKernelMicro()}) {
        for (auto s : schemes::allSchemes())
            expectIdentical(gp, schemes::makeMeeParams(s), w,
                            w.name + " / " + schemes::schemeName(s));
    }
}

TEST(KernelLoopDiff, RandomizedSpecs)
{
    GpuParams gp = testConfig();
    Rng rng(0xD1FFu);
    const auto &schemes_all = schemes::allSchemes();
    for (unsigned i = 0; i < 24; ++i) {
        auto w = randomSpec(rng, i);
        auto s = schemes_all[i % schemes_all.size()];
        expectIdentical(gp, schemes::makeMeeParams(s), w,
                        w.name + " / " + schemes::schemeName(s));
    }
}

TEST(KernelLoopDiff, CapHittingKernels)
{
    // A cycle cap small enough that kernels freeze mid-flight: the
    // cap-exit path (abandoned completions, frozen stalls, clamped
    // compute batches) must also match the reference bit for bit.
    GpuParams gp = testConfig();
    Rng rng(0xCA9u);
    for (Cycle cap : {1u, 7u, 100u, 1000u}) {
        gp.maxCyclesPerKernel = cap;
        for (unsigned i = 0; i < 6; ++i) {
            auto w = randomSpec(rng, 100 + i);
            auto s = schemes::allSchemes()[i %
                                           schemes::allSchemes().size()];
            expectIdentical(gp, schemes::makeMeeParams(s), w,
                            "cap=" + std::to_string(cap) + " " + w.name +
                                " / " + schemes::schemeName(s));
        }
    }
}

TEST(KernelLoopDiff, ZeroWindowSpinsToCapIdentically)
{
    // A one-load window makes every read stall until the previous one
    // completes — the heaviest use of the stall/retry path — and both
    // engines must agree on the per-cycle stall count.
    GpuParams gp = testConfig();
    gp.smWindow = 4;
    gp.maxCyclesPerKernel = 2000;
    auto w = workload::makeStreamingMicro(1 << 20, 128);
    for (auto &k : w.kernels)
        k.maxOutstanding = 1;
    expectIdentical(gp, schemes::makeMeeParams(schemes::Scheme::Shm), w,
                    "window=1 streaming");
}

TEST(KernelLoopDiff, OneLoadWindowOnWiderGpu)
{
    // The same one-load window with eight SMs sharing six partitions:
    // every second read stalls on its only in-flight load while other
    // SMs' traffic moves that load's completion.
    GpuParams gp = widerConfig();
    gp.smWindow = 4;
    gp.maxCyclesPerKernel = 2000;
    auto w = workload::makeStreamingMicro(1 << 20, 128);
    for (auto &k : w.kernels)
        k.maxOutstanding = 1;
    expectIdentical(gp, schemes::makeMeeParams(schemes::Scheme::Shm), w,
                    "window=1 streaming, 8 SMs");
}

TEST(KernelLoopDiff, PolicyVariantsStayIdentical)
{
    // Replacement-policy state (S3FIFO queues + ghost table, SIEVE's
    // hand, the position-seeded Random stream) must see the same
    // access sequence under both engines. ShmVL2 rides along for the
    // victim-cache extraction path under the stateful policies.
    GpuParams gp = widerConfig();
    auto w = workload::makeMixedMicro();
    for (mem::PolicyKind policy :
         {mem::PolicyKind::S3Fifo, mem::PolicyKind::Sieve,
          mem::PolicyKind::Random}) {
        gp.l2Policy = policy;
        for (auto s : {schemes::Scheme::Shm, schemes::Scheme::ShmVL2,
                       schemes::Scheme::Naive}) {
            mee::MeeParams mp = schemes::makeMeeParams(s);
            mp.mdcPolicy = policy;
            expectIdentical(gp, mp, w,
                            std::string(mem::policyName(policy)) +
                                " / " + schemes::schemeName(s));
        }
    }
}

TEST(KernelLoopDiff, AdaptiveMicrosAcrossEpochsAndThresholds)
{
    // The adaptive controller reclassifies at epoch boundaries of the
    // access stream; both engines must drive it through the same
    // decisions (the stats tree holds every adapt_* counter and the
    // mode-residency histogram).
    GpuParams gp = widerConfig();
    const mee::AdaptThresholds mixes[] = {
        {},                      // scheme defaults
        {1, 2, 0.0},             // hair-trigger: everything demotes
        {1000000, 1000000, 1.0}, // never demotes (pure-Full timing)
    };
    for (const auto &w :
         {workload::makeStreamingMicro(1 << 20, 256),
          workload::makeMixedMicro()}) {
        for (Cycle epoch : {Cycle{0}, Cycle{2000}, Cycle{10000}}) {
            for (const auto &th : mixes) {
                mee::MeeParams mp = schemes::makeMeeParams(
                    schemes::Scheme::ShmAdaptive);
                mp.adaptEpoch = epoch;
                mp.adaptThresholds = th;
                expectIdentical(gp, mp, w,
                                w.name + " epoch=" +
                                    std::to_string(epoch) + " ro>=" +
                                    std::to_string(th.roMinReads));
            }
        }
    }
}

TEST(KernelLoopDiff, AdaptiveRandomizedSpecs)
{
    // Mostly-read specs, so regions demote and mispredictions promote
    // them back, under random epochs and thresholds.
    GpuParams gp = widerConfig();
    Rng rng(0xADA9u);
    for (unsigned i = 0; i < 8; ++i) {
        auto w = randomSpec(rng, 200 + i, 2);
        mee::MeeParams mp =
            schemes::makeMeeParams(schemes::Scheme::ShmAdaptive);
        mp.adaptEpoch = 1000 + rng.below(4) * 3000;
        mp.adaptThresholds.roMinReads = 1 + rng.below(8);
        mp.adaptThresholds.streamMinReads = 2 + rng.below(16);
        mp.adaptThresholds.macOnlyMissRate =
            0.25 * static_cast<double>(rng.below(4));
        expectIdentical(gp, mp, w, w.name);
    }
}
