#include "core/overrides.hh"

#include <cstdio>

#include "common/logging.hh"

namespace shmgpu::core
{

void
applyGpuOverrides(Config &config, gpu::GpuParams &p)
{
    p.numSms = static_cast<std::uint32_t>(
        config.getU64("gpu.num_sms", p.numSms));
    p.numPartitions = static_cast<std::uint32_t>(
        config.getU64("gpu.num_partitions", p.numPartitions));
    p.smWindow = static_cast<std::uint32_t>(
        config.getU64("gpu.sm_window", p.smWindow));
    p.maxCyclesPerKernel =
        config.getU64("gpu.max_cycles", p.maxCyclesPerKernel);
    p.l2BankBytes = config.getU64("gpu.l2_bank_bytes", p.l2BankBytes);
    p.l2Assoc = static_cast<std::uint32_t>(
        config.getU64("gpu.l2_assoc", p.l2Assoc));
    p.l2HitLatency = config.getU64("gpu.l2_hit_latency", p.l2HitLatency);
    p.icnt.latency = config.getU64("gpu.icnt_latency", p.icnt.latency);
    p.victimMissRateThreshold = config.getDouble(
        "gpu.victim_threshold", p.victimMissRateThreshold);
    // Fatal on unknown names, listing the valid set.
    p.l2Policy = mem::policyFromName(config.getString(
        "cache.policy", mem::policyName(p.l2Policy)));

    p.dram.bytesPerCycle =
        config.getDouble("dram.bytes_per_cycle", p.dram.bytesPerCycle);
    p.dram.numBanks = static_cast<unsigned>(
        config.getU64("dram.banks", p.dram.numBanks));
    p.dram.rowHitLatency =
        config.getU64("dram.row_hit_latency", p.dram.rowHitLatency);
    p.dram.rowMissLatency =
        config.getU64("dram.row_miss_latency", p.dram.rowMissLatency);
    p.dram.writeQueueCycles =
        config.getU64("dram.write_queue_cycles",
                      p.dram.writeQueueCycles);
    p.dram.schedulerRowWindow = static_cast<unsigned>(
        config.getU64("dram.row_window", p.dram.schedulerRowWindow));
}

void
applyMeeOverrides(Config &config, MeeSettings &s)
{
    s.mdcPolicy = mem::policyFromName(config.getString(
        "mee.mdc_policy", mem::policyName(s.mdcPolicy)));
    // Adaptive-scheme knobs (Scheme::ShmAdaptive), set only when the
    // file names them. The thresholds pack into one comma list:
    // "roMinReads,streamMinReads,macOnlyMissRate".
    if (config.has("mee.adapt_epoch"))
        s.adaptEpoch = config.getU64("mee.adapt_epoch", 0);
    if (config.has("mee.adapt_thresholds"))
        s.adaptThresholds = parseAdaptThresholds(
            config.getString("mee.adapt_thresholds", ""));
}

mee::AdaptThresholds
parseAdaptThresholds(const std::string &text)
{
    mee::AdaptThresholds th;
    unsigned long long ro = 0, stream = 0;
    double miss = 0;
    char tail = 0;
    if (std::sscanf(text.c_str(), "%llu,%llu,%lf%c", &ro, &stream,
                    &miss, &tail) != 3 ||
        miss < 0.0 || miss > 1.0)
        shm_fatal("bad adapt thresholds '{}': expected "
                  "'roMinReads,streamMinReads,macOnlyMissRate' with the "
                  "miss rate in [0,1]",
                  text);
    th.roMinReads = ro;
    th.streamMinReads = stream;
    th.macOnlyMissRate = miss;
    return th;
}

void
applyTraceOverrides(Config &config, trace::TraceParams &p)
{
    std::string classes = config.getString("trace.classes", "");
    if (!classes.empty())
        p.classMask = trace::parseClassMask(classes);
}

} // namespace shmgpu::core
