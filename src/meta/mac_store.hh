/**
 * @file
 * Functional storage for block-level and chunk-level MACs.
 *
 * The timing-mode MDCs track only MAC *addresses*; the values live
 * here for the functional path (tests, examples, attack scenarios).
 */

#ifndef SHMGPU_META_MAC_STORE_HH
#define SHMGPU_META_MAC_STORE_HH

#include <cstdint>
#include <optional>

#include "common/flat_map.hh"
#include "common/types.hh"
#include "crypto/mac.hh"
#include "meta/layout.hh"

namespace shmgpu::meta
{

/** Off-chip MAC value storage (block- and chunk-granularity). */
class MacStore
{
  public:
    explicit MacStore(const MetadataLayout &layout);

    /** @{ Block-level MACs, keyed by data address. */
    void setBlockMac(LocalAddr data_addr, crypto::Mac mac);
    std::optional<crypto::Mac> blockMac(LocalAddr data_addr) const;
    /** @} */

    /** @{ Chunk-level MACs, keyed by any data address in the chunk. */
    void setChunkMac(LocalAddr data_addr, crypto::Mac mac);
    std::optional<crypto::Mac> chunkMac(LocalAddr data_addr) const;
    /** @} */

    /** Attack surface: flip bits in a stored MAC. */
    void corruptBlockMac(LocalAddr data_addr, std::uint64_t xor_mask);
    void corruptChunkMac(LocalAddr data_addr, std::uint64_t xor_mask);

    std::size_t blockMacsStored() const { return blockMacs.size(); }

  private:
    const MetadataLayout &layout;
    FlatMap<crypto::Mac> blockMacs;
    FlatMap<crypto::Mac> chunkMacs;
};

} // namespace shmgpu::meta

#endif // SHMGPU_META_MAC_STORE_HH
