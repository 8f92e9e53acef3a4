#include "crypto/mac.hh"

#include <vector>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace shmgpu::crypto
{

namespace
{

/** Flat message a blockMac hashes: ciphertext || addr || major ||
 *  minor || partition, little-endian u64 fields — byte-for-byte the
 *  sequence SipHasher absorbs in blockMac(). */
constexpr std::size_t blockMacMsgBytes = blockBytes + 4 * 8;

void
packBlockMacMsg(std::uint8_t *msg, const BlockMacInput &job)
{
    for (std::size_t i = 0; i < blockBytes; ++i)
        msg[i] = (*job.ciphertext)[i];
    auto put_u64 = [&](std::size_t off, std::uint64_t v) {
        for (int i = 0; i < 8; ++i)
            msg[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
    };
    put_u64(blockBytes, job.addr);
    put_u64(blockBytes + 8, job.major);
    put_u64(blockBytes + 16, job.minor);
    put_u64(blockBytes + 24, job.partition);
}

} // namespace

MacEngine::MacEngine(const SipKey &mac_key) : key(mac_key)
{
}

Mac
MacEngine::blockMac(const DataBlock &ciphertext, LocalAddr addr,
                    std::uint64_t major, std::uint64_t minor,
                    std::uint32_t partition) const
{
    SipHasher h(key);
    h.update(ciphertext.data(), ciphertext.size());
    h.updateU64(addr);
    h.updateU64(major);
    h.updateU64(minor);
    h.updateU64(partition);
    return h.digest();
}

void
MacEngine::blockMacBatch(std::span<const BlockMacInput> jobs,
                         Mac *out) const
{
    std::vector<std::uint8_t> scratch(jobs.size() * blockMacMsgBytes);
    std::vector<const void *> msgs(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        std::uint8_t *msg = scratch.data() + i * blockMacMsgBytes;
        packBlockMacMsg(msg, jobs[i]);
        msgs[i] = msg;
    }
    siphash24Batch(key, msgs.data(), blockMacMsgBytes, out,
                   jobs.size());
}

Mac
MacEngine::chunkMac(std::span<const Mac> block_macs, LocalAddr chunk_addr,
                    std::uint32_t partition) const
{
    SipHasher h(key);
    for (Mac m : block_macs)
        h.updateU64(m);
    h.updateU64(chunk_addr);
    h.updateU64(partition);
    return h.digest();
}

std::uint64_t
truncateMac(std::uint64_t tag, unsigned bits)
{
    shm_assert(bits >= 1 && bits <= 64, "MAC width {} out of range",
               bits);
    if (bits == 64)
        return tag;
    return tag & ((std::uint64_t{1} << bits) - 1);
}

double
collisionExponent(unsigned mac_bits)
{
    return mac_bits / 2.0;
}

unsigned
minimumMacBits(std::uint64_t protected_bytes, std::uint32_t block_bytes)
{
    // 2^(n/2) must exceed the number of protected blocks.
    std::uint64_t blocks = protected_bytes / block_bytes;
    return 2 * ceilLog2(blocks);
}

} // namespace shmgpu::crypto
