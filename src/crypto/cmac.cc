#include "crypto/cmac.hh"

#include <cstring>
#include <vector>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace shmgpu::crypto
{

namespace
{

/** Left-shift a 128-bit big-endian value by one bit. */
Block16
shiftLeft(const Block16 &in)
{
    Block16 out{};
    std::uint8_t carry = 0;
    for (int i = 15; i >= 0; --i) {
        out[i] = static_cast<std::uint8_t>((in[i] << 1) | carry);
        carry = static_cast<std::uint8_t>(in[i] >> 7);
    }
    return out;
}

/** CMAC subkey step: doubling in GF(2^128) with R128 = 0x87. */
Block16
gfDouble(const Block16 &in)
{
    Block16 out = shiftLeft(in);
    if (in[0] & 0x80)
        out[15] ^= 0x87;
    return out;
}

void
xorInto(Block16 &acc, const std::uint8_t *src, std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i)
        acc[i] ^= src[i];
}

} // namespace

AesCmac::AesCmac(const Block16 &key)
    : AesCmac(key, activeBackend())
{
}

AesCmac::AesCmac(const Block16 &key, Backend backend)
    : aes(key, backend)
{
    // SP 800-38B subkey generation: L = AES(0); K1 = 2L; K2 = 4L.
    Block16 zero{};
    Block16 l = aes.encrypt(zero);
    k1 = gfDouble(l);
    k2 = gfDouble(k1);
}

Block16
AesCmac::mac(const void *data, std::size_t len) const
{
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    Block16 x{}; // CBC state

    std::size_t full_blocks = len / 16;
    bool last_complete = (len > 0) && (len % 16 == 0);
    std::size_t body = last_complete ? full_blocks - 1 : full_blocks;

    for (std::size_t b = 0; b < body; ++b) {
        xorInto(x, bytes + b * 16, 16);
        x = aes.encrypt(x);
    }

    // Final block: complete -> XOR K1; partial -> 10* pad, XOR K2.
    Block16 last{};
    if (last_complete) {
        std::memcpy(last.data(), bytes + body * 16, 16);
        for (int i = 0; i < 16; ++i)
            last[i] ^= k1[i];
    } else {
        std::size_t rem = len - body * 16;
        // An empty message may come with a null pointer, which memcpy
        // must not see even for zero bytes.
        if (rem != 0)
            std::memcpy(last.data(), bytes + body * 16, rem);
        last[rem] = 0x80;
        for (int i = 0; i < 16; ++i)
            last[i] ^= k2[i];
    }
    xorInto(x, last.data(), 16);
    return aes.encrypt(x);
}

std::uint64_t
AesCmac::mac64(const void *data, std::size_t len) const
{
    Block16 tag = mac(data, len);
    std::uint64_t out = 0;
    for (int i = 0; i < 8; ++i)
        out |= static_cast<std::uint64_t>(tag[i]) << (8 * i);
    return out;
}

void
AesCmac::macBatch(const void *const *msgs, const std::size_t *lens,
                  std::size_t n, Block16 *tags) const
{
    // Per-message CBC is a serial chain, but the chains are mutually
    // independent: advance every message one encryption step at a
    // time, gathering the still-active lanes into one batched AES
    // call. Lanes whose body is exhausted simply drop out until the
    // final (subkey-whitened) block, which is batched across all n.
    std::vector<Block16> x(n, Block16{});        // CBC states
    std::vector<std::size_t> body(n);            // complete body blocks
    for (std::size_t i = 0; i < n; ++i) {
        bool last_complete = (lens[i] > 0) && (lens[i] % 16 == 0);
        std::size_t full = lens[i] / 16;
        body[i] = last_complete ? full - 1 : full;
    }

    std::vector<Block16> batch_in(n);
    std::vector<std::size_t> lanes(n);
    for (std::size_t step = 0;; ++step) {
        std::size_t active = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (step >= body[i])
                continue;
            Block16 blk = x[i];
            xorInto(blk,
                    static_cast<const std::uint8_t *>(msgs[i]) +
                        step * 16,
                    16);
            batch_in[active] = blk;
            lanes[active] = i;
            ++active;
        }
        if (active == 0)
            break;
        aes.encryptBlocks(batch_in.data(), batch_in.data(), active);
        for (std::size_t a = 0; a < active; ++a)
            x[lanes[a]] = batch_in[a];
    }

    // Final block per lane: complete -> XOR K1; partial -> pad, K2.
    for (std::size_t i = 0; i < n; ++i) {
        const auto *bytes = static_cast<const std::uint8_t *>(msgs[i]);
        bool last_complete = (lens[i] > 0) && (lens[i] % 16 == 0);
        Block16 last{};
        if (last_complete) {
            std::memcpy(last.data(), bytes + body[i] * 16, 16);
            for (int b = 0; b < 16; ++b)
                last[b] ^= k1[b];
        } else {
            std::size_t rem = lens[i] - body[i] * 16;
            if (rem != 0) // empty messages may come as null pointers
                std::memcpy(last.data(), bytes + body[i] * 16, rem);
            last[rem] = 0x80;
            for (int b = 0; b < 16; ++b)
                last[b] ^= k2[b];
        }
        xorInto(x[i], last.data(), 16);
    }
    aes.encryptBlocks(x.data(), tags, n);
}

void
AesCmac::mac64Batch(const void *const *msgs, const std::size_t *lens,
                    std::size_t n, std::uint64_t *tags) const
{
    std::vector<Block16> full(n);
    macBatch(msgs, lens, n, full.data());
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t out = 0;
        for (int b = 0; b < 8; ++b)
            out |= static_cast<std::uint64_t>(full[i][b]) << (8 * b);
        tags[i] = out;
    }
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
