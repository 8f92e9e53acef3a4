/**
 * @file
 * Stateful 8-byte MACs over memory blocks and 4 KB chunks.
 *
 * Following the stateful-MAC scheme (Rogers et al., MICRO'07) adopted
 * by the paper, a block MAC binds the ciphertext to its address and its
 * encryption counters so that splicing and counter-tampering are
 * caught. A chunk MAC (the paper's coarse-grain MAC) hashes the block
 * MACs of all blocks in a chunk. truncateMac()/collisionExponent()/
 * minimumMacBits() capture the birthday-bound argument the paper makes
 * against short MACs (Section III-C).
 */

#ifndef SHMGPU_CRYPTO_MAC_HH
#define SHMGPU_CRYPTO_MAC_HH

#include <cstdint>
#include <span>

#include "common/types.hh"
#include "crypto/ctr_mode.hh"
#include "crypto/siphash.hh"

namespace shmgpu::crypto
{

/** An 8-byte message authentication code. */
using Mac = std::uint64_t;

/** One block-MAC request in a batch (see MacEngine::blockMacBatch). */
struct BlockMacInput
{
    const DataBlock *ciphertext = nullptr;
    LocalAddr addr = 0;
    std::uint64_t major = 0;
    std::uint64_t minor = 0;
    std::uint32_t partition = 0;
};

/** Computes block- and chunk-level MACs under a fixed key. */
class MacEngine
{
  public:
    explicit MacEngine(const SipKey &key);

    /**
     * Stateful per-block MAC: MAC(ciphertext || local addr || major ||
     * minor || partition).
     */
    Mac blockMac(const DataBlock &ciphertext, LocalAddr addr,
                 std::uint64_t major, std::uint64_t minor,
                 std::uint32_t partition) const;

    /**
     * Batched block MACs: @p out[i] = blockMac(jobs[i]...), computed
     * with 4-way interleaved SipHash rounds (siphash24Batch). The
     * batch-aware MEE paths use this for the sectors of one epoch or
     * transaction burst instead of issuing block-at-a-time.
     */
    void blockMacBatch(std::span<const BlockMacInput> jobs,
                       Mac *out) const;

    /**
     * Per-chunk MAC: hash of the ordered block MACs of every block in
     * the chunk, bound to the chunk's local address.
     */
    Mac chunkMac(std::span<const Mac> block_macs, LocalAddr chunk_addr,
                 std::uint32_t partition) const;

  private:
    SipKey key;
};

/** Keep only the low @p bits of a tag (e.g. PSSM's 32-bit MACs). */
std::uint64_t truncateMac(std::uint64_t tag, unsigned bits);

/**
 * Birthday bound: with an n-bit MAC a collision is expected after
 * about 2^(n/2) observations. Returns n/2 — the security exponent the
 * paper compares against the 2^25 memory blocks of a 4 GB device
 * (Section III-C concludes n must be at least ~50).
 */
double collisionExponent(unsigned mac_bits);

/**
 * Smallest MAC width (in bits) whose birthday bound exceeds the
 * number of blocks in @p protected_bytes of memory with
 * @p block_bytes blocks — the paper's minimum-MAC-size argument.
 */
unsigned minimumMacBits(std::uint64_t protected_bytes,
                        std::uint32_t block_bytes);

} // namespace shmgpu::crypto

#endif // SHMGPU_CRYPTO_MAC_HH
