#include "gpu/presets.hh"

#include "common/logging.hh"

namespace shmgpu::gpu
{

GpuParams
turingConfig()
{
    return GpuParams{};
}

GpuParams
bigConfig()
{
    GpuParams p;
    p.numSms = 60;
    p.l2BankBytes = 256 * 1024; // 6 MB total
    p.smWindow = 96;
    p.dram.bytesPerCycle = 21.3; // ~480 GB/s over 12 partitions
    return p;
}

GpuParams
testConfig()
{
    GpuParams p;
    p.numSms = 4;
    p.numPartitions = 2;
    p.l2BankBytes = 16 * 1024;
    p.maxCyclesPerKernel = 20000;
    return p;
}

GpuParams
presetByName(const std::string &name)
{
    if (name == "turing")
        return turingConfig();
    if (name == "big")
        return bigConfig();
    if (name == "test")
        return testConfig();
    shm_fatal("unknown GPU preset '{}' (expected turing/big/test)",
              name);
}

const std::vector<std::string> &
presetNames()
{
    static const std::vector<std::string> names = {"turing", "big",
                                                   "test"};
    return names;
}

} // namespace shmgpu::gpu
