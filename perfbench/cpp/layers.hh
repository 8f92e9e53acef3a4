/**
 * @file
 * Layer-level measurement helpers of perfbench (layers.cc).
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <memory>
#include <vector>

#include "perfbench.hh"

namespace shmgpu::mee
{
class SecureMemoryContext;
}

namespace perfbench
{

/**
 * A functional secure memory holding a spec's buffers, plus the
 * plaintext shadow every read is checked against. Building it (the
 * context and the host copy of every buffer) is the secure_memory
 * workload's set-up.
 */
struct SecureImage
{
    SecureImage();
    ~SecureImage();
    SecureImage(const SecureImage &) = delete;
    SecureImage &operator=(const SecureImage &) = delete;

    std::unique_ptr<shmgpu::mee::SecureMemoryContext> ctx;
    std::vector<std::uint8_t> shadow; //!< plaintext, indexed by address
    std::vector<Addr> bases;
    double hostCopyBytes = 0;
    double hostCopySeconds = 0;
};

std::unique_ptr<SecureImage> loadSecureImage(const workload::WorkloadSpec &spec,
                                             std::uint64_t seed);

/** What one functional replay did and how long its parts took. */
struct SecureStats
{
    /** Host seconds of each full 32-block deviceReadBatch burst. */
    std::vector<double> burstSeconds;
    double readSeconds = 0;  //!< every read batch, partial ones too
    double writeSeconds = 0; //!< every deviceWrite
    double readBytes = 0;
    double writeBytes = 0;
    std::uint64_t readBlocks = 0;
    std::uint64_t writes = 0;
    std::uint64_t injections = 0;
    std::uint64_t detected = 0;
    double instructions = 0; //!< of the replayed trace ops
    std::uint64_t digest = 0;
};

/**
 * Replay the first @p max_ops ops of @p spec's generated stream
 * through the image: reads in 32-block deviceReadBatch bursts, writes
 * through deviceWrite, and a seeded schedule of bit-flip and replay
 * attacks. Every read must verify Ok and return the shadow's bytes;
 * every attack must be detected with its expected status and then
 * repaired. Violations are counted as failed ops in @p out.
 */
SecureStats replaySecure(SecureImage &img, const workload::WorkloadSpec &spec,
                         std::uint64_t seed, std::uint64_t max_ops,
                         Outcome &out);

/** Host seconds each layer took to replay one stream, and its counts. */
struct LayerReplay
{
    std::uint64_t ops = 0;
    double traceSeconds = 0;
    double addrMapSeconds = 0;
    double l2Seconds = 0;
    double dramSeconds = 0;
    double meeReadSeconds = 0;  //!< self time, DRAM excluded
    double meeWriteSeconds = 0;
    double streamingSeconds = 0;
    double readOnlySeconds = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t dramRequests = 0;
    std::uint64_t meeReads = 0;
    std::uint64_t meeWrites = 0;
    /** Read-only verdicts seen; keeps the timed lookups observable. */
    std::uint64_t readOnlyHits = 0;
};

/**
 * Feed the first @p max_ops ops of @p spec's stream (SHM scheme,
 * machine @p p) through KernelTrace::next -> AddressMap::toLocal ->
 * SectoredCache::access/fill -> MeeEngine::onRead/onWrite with a
 * benchmark-side DramRouter calling DramChannel::enqueue, then time
 * each layer alone on the inputs the chain recorded for it, and the
 * streaming and read-only detectors on the MEE's inputs.
 */
LayerReplay replayLayers(const workload::WorkloadSpec &spec,
                         const gpu::GpuParams &p, std::uint64_t max_ops,
                         Spans *spans, int parent, std::uint64_t op_id);

/** Per-block host cost of the crypto and metadata kernels. */
struct CryptoTimes
{
    double aesNsPerBlock = 0; //!< one 128 B pad, batched 32 at a time
    double macNsPerBlock = 0; //!< one block MAC, batched 32 at a time
    double bmtUpdateNs = 0;   //!< one counter bump + BMT path update
};

CryptoTimes timeCryptoKernels(std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
