/**
 * @file
 * Config-file and parameter-override tests.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/config.hh"
#include "core/overrides.hh"
#include "mem/replacement.hh"
#include "schemes/schemes.hh"

using namespace shmgpu;

namespace
{

Config
parse(const std::string &text)
{
    std::istringstream is(text);
    return Config::fromStream(is, "<test>");
}

} // namespace

TEST(Config, ParsesTypedValues)
{
    Config c = parse(R"(
# a comment
alpha = 42
beta  = 2.5        # trailing comment
gamma = true
delta = hello
)");
    EXPECT_EQ(c.size(), 4u);
    EXPECT_EQ(c.getU64("alpha", 0), 42u);
    EXPECT_DOUBLE_EQ(c.getDouble("beta", 0), 2.5);
    EXPECT_TRUE(c.getBool("gamma", false));
    EXPECT_EQ(c.getString("delta", ""), "hello");
    c.assertConsumed();
}

TEST(Config, FallbacksForMissingKeys)
{
    Config c = parse("x = 1\n");
    EXPECT_EQ(c.getU64("missing", 7), 7u);
    EXPECT_FALSE(c.getBool("nope", false));
    EXPECT_TRUE(c.has("x"));
    EXPECT_FALSE(c.has("missing"));
}

TEST(Config, Errors)
{
    EXPECT_DEATH(parse("no equals sign\n"), "expected 'key = value'");
    EXPECT_DEATH(parse("a = 1\na = 2\n"), "duplicate key");
    EXPECT_DEATH(parse("a = x\n").getU64("a", 0), "non-integer");
    EXPECT_DEATH(parse("a = maybe\n").getBool("a", false),
                 "non-boolean");
    EXPECT_DEATH(
        {
            Config c = parse("typo_key = 1\n");
            c.assertConsumed();
        },
        "unknown configuration key 'typo_key'");
}

TEST(Overrides, ApplyToGpuAndMeeParams)
{
    Config c = parse(R"(
gpu.num_sms          = 16
gpu.sm_window        = 24
dram.bytes_per_cycle = 8
)");
    gpu::GpuParams gp;
    core::MeeSettings ms;
    core::applyGpuOverrides(c, gp);
    core::applyMeeOverrides(c, ms);
    c.assertConsumed();

    EXPECT_EQ(gp.numSms, 16u);
    EXPECT_EQ(gp.smWindow, 24u);
    EXPECT_DOUBLE_EQ(gp.dram.bytesPerCycle, 8.0);
}

TEST(Overrides, IcntLatencyReachesTheInterconnectParams)
{
    // GpuSimulator builds its Interconnect from GpuParams::icnt.
    Config c = parse("gpu.icnt_latency = 7\n");
    gpu::GpuParams gp;
    core::applyGpuOverrides(c, gp);
    c.assertConsumed();
    EXPECT_EQ(gp.icnt.latency, 7u);
}

TEST(Overrides, ReplacementPolicyKeys)
{
    Config c = parse(R"(
cache.policy   = sieve
mee.mdc_policy = s3fifo
)");
    gpu::GpuParams gp;
    core::MeeSettings ms;
    core::applyGpuOverrides(c, gp);
    core::applyMeeOverrides(c, ms);
    c.assertConsumed();
    EXPECT_EQ(gp.l2Policy, mem::PolicyKind::Sieve);
    EXPECT_EQ(ms.mdcPolicy, mem::PolicyKind::S3Fifo);

    // Defaults stay LRU when the keys are absent.
    Config empty = parse("");
    gpu::GpuParams gp2;
    core::MeeSettings ms2;
    core::applyGpuOverrides(empty, gp2);
    core::applyMeeOverrides(empty, ms2);
    EXPECT_EQ(gp2.l2Policy, mem::PolicyKind::Lru);
    EXPECT_EQ(ms2.mdcPolicy, mem::PolicyKind::Lru);
}

TEST(Overrides, UnknownPolicyNamesTheValidSet)
{
    // The config error must spell out the accepted strings; spelling
    // is case-sensitive like the scheme registry.
    EXPECT_DEATH(
        {
            Config c = parse("cache.policy = clock\n");
            gpu::GpuParams gp;
            core::applyGpuOverrides(c, gp);
        },
        "unknown replacement policy 'clock' \\(expected one of: "
        "lru, fifo, random, s3fifo, sieve\\)");
    EXPECT_DEATH(
        {
            Config c = parse("mee.mdc_policy = LRU\n");
            core::MeeSettings ms;
            core::applyMeeOverrides(c, ms);
        },
        "unknown replacement policy 'LRU'");
}

TEST(Overrides, DefaultsUntouchedWithoutKeys)
{
    Config c = parse("gpu.num_sms = 8\n");
    gpu::GpuParams gp;
    core::MeeSettings ms;
    core::applyGpuOverrides(c, gp);
    core::applyMeeOverrides(c, ms);
    EXPECT_EQ(gp.numSms, 8u);
    EXPECT_EQ(gp.numPartitions, 12u);
    // Stamping the untouched record changes nothing else.
    EXPECT_EQ(core::meeParamsFor(schemes::Scheme::Shm, ms).macBytes, 8u);
}

TEST(Overrides, AdaptiveKeysSetTheRecordOnlyWhenPresent)
{
    Config c = parse("mee.mdc_policy = fifo\n");
    core::MeeSettings ms;
    core::applyMeeOverrides(c, ms);
    c.assertConsumed();
    EXPECT_FALSE(ms.adaptEpoch.has_value());
    EXPECT_FALSE(ms.adaptThresholds.has_value());

    Config adapt = parse("mee.adapt_epoch = 0\n"
                         "mee.adapt_thresholds = 2,8,0.5\n");
    core::MeeSettings ms2;
    core::applyMeeOverrides(adapt, ms2);
    adapt.assertConsumed();
    ASSERT_TRUE(ms2.adaptEpoch.has_value());
    EXPECT_EQ(*ms2.adaptEpoch, 0u);
    ASSERT_TRUE(ms2.adaptThresholds.has_value());
    EXPECT_EQ(ms2.adaptThresholds->roMinReads, 2u);
    EXPECT_EQ(ms2.adaptThresholds->streamMinReads, 8u);
    EXPECT_DOUBLE_EQ(ms2.adaptThresholds->macOnlyMissRate, 0.5);

    mee::MeeParams mp = core::meeParamsFor(schemes::Scheme::ShmAdaptive, ms2);
    EXPECT_EQ(mp.adaptEpoch, 0u);
    EXPECT_EQ(mp.adaptThresholds.streamMinReads, 8u);
}

TEST(Overrides, RemovedEngineKeysAreFatal)
{
    // Keys of the removed multi-threaded engine and its tracer ring,
    // and of the removed test-oracle and crypto-backend selectors,
    // must fail loudly, not be silently ignored.
    for (const char *key :
         {"gpu.shards", "gpu.shard_spin", "trace.ring_capacity",
          "crypto.backend", "gpu.reference_loop"}) {
        EXPECT_DEATH(
            {
                Config c = parse(std::string(key) + " = 4\n");
                gpu::GpuParams gp;
                core::MeeSettings ms;
                trace::TraceParams tp;
                core::applyGpuOverrides(c, gp);
                core::applyMeeOverrides(c, ms);
                core::applyTraceOverrides(c, tp);
                c.assertConsumed();
            },
            std::string("unknown configuration key '") + key + "'");
    }
}

TEST(Overrides, IgnoredEngineKeysAreFatal)
{
    // MEE keys with no effect on any simulation are unknown keys,
    // like any typo.
    for (const char *key :
         {"mee.aes_latency", "mee.hash_latency", "mee.bmt_arity",
          "mee.mac_bytes", "mee.static_space_hints",
          "mee.programming_model_hints", "mee.mdc_bytes", "mee.mats",
          "mee.chunk_bytes", "mee.stream_entries", "mee.mat_timeout",
          "mee.ro_entries", "mee.ro_region_bytes"}) {
        EXPECT_DEATH(
            {
                Config c = parse(std::string(key) + " = 1\n");
                gpu::GpuParams gp;
                core::MeeSettings ms;
                trace::TraceParams tp;
                core::applyGpuOverrides(c, gp);
                core::applyMeeOverrides(c, ms);
                core::applyTraceOverrides(c, tp);
                c.assertConsumed();
            },
            std::string("unknown configuration key '") + key + "'");
    }
}
