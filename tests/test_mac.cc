/**
 * @file
 * Stateful block-/chunk-MAC tests: every bound input must matter; and
 * the paper's birthday-bound arithmetic for MAC widths (Section III-C).
 */

#include <gtest/gtest.h>

#include <vector>

#include "crypto/keygen.hh"
#include "crypto/mac.hh"

using namespace shmgpu::crypto;

namespace
{

class MacTest : public ::testing::Test
{
  protected:
    MacTest() : engine(generateKeys(7).macKey)
    {
        for (std::size_t i = 0; i < block.size(); ++i)
            block[i] = static_cast<std::uint8_t>(i);
    }

    MacEngine engine;
    DataBlock block{};
};

} // namespace

TEST_F(MacTest, Deterministic)
{
    EXPECT_EQ(engine.blockMac(block, 0x100, 1, 2, 0),
              engine.blockMac(block, 0x100, 1, 2, 0));
}

TEST_F(MacTest, CiphertextBound)
{
    DataBlock tampered = block;
    tampered[17] ^= 0x01;
    EXPECT_NE(engine.blockMac(block, 0x100, 1, 2, 0),
              engine.blockMac(tampered, 0x100, 1, 2, 0));
}

TEST_F(MacTest, AddressBoundAgainstSplicing)
{
    // Moving a valid (ciphertext, MAC) pair to another address must
    // not verify: the address is part of the MAC state.
    EXPECT_NE(engine.blockMac(block, 0x100, 1, 2, 0),
              engine.blockMac(block, 0x180, 1, 2, 0));
}

TEST_F(MacTest, CounterBoundAgainstReplay)
{
    EXPECT_NE(engine.blockMac(block, 0x100, 1, 2, 0),
              engine.blockMac(block, 0x100, 2, 2, 0));
    EXPECT_NE(engine.blockMac(block, 0x100, 1, 2, 0),
              engine.blockMac(block, 0x100, 1, 3, 0));
}

TEST_F(MacTest, PartitionBound)
{
    EXPECT_NE(engine.blockMac(block, 0x100, 1, 2, 0),
              engine.blockMac(block, 0x100, 1, 2, 1));
}

TEST_F(MacTest, ChunkMacCoversEveryBlockMac)
{
    std::vector<Mac> macs;
    for (int i = 0; i < 32; ++i)
        macs.push_back(engine.blockMac(block, 0x1000 + i * 128, 0, 0, 0));

    Mac whole = engine.chunkMac(macs, 0x1000, 0);
    for (std::size_t i = 0; i < macs.size(); ++i) {
        std::vector<Mac> changed = macs;
        changed[i] ^= 1;
        EXPECT_NE(engine.chunkMac(changed, 0x1000, 0), whole)
            << "block " << i << " not covered";
    }
}

TEST_F(MacTest, ChunkMacOrderSensitive)
{
    std::vector<Mac> macs = {1, 2, 3, 4};
    std::vector<Mac> swapped = {2, 1, 3, 4};
    EXPECT_NE(engine.chunkMac(macs, 0, 0),
              engine.chunkMac(swapped, 0, 0));
}

TEST_F(MacTest, ChunkMacAddressBound)
{
    std::vector<Mac> macs = {1, 2, 3, 4};
    EXPECT_NE(engine.chunkMac(macs, 0x1000, 0),
              engine.chunkMac(macs, 0x2000, 0));
}

TEST(MacTruncation, KeepsLowBits)
{
    EXPECT_EQ(truncateMac(0xFFFFFFFFFFFFFFFFull, 32), 0xFFFFFFFFull);
    EXPECT_EQ(truncateMac(0x123456789ABCDEF0ull, 16), 0xDEF0ull);
    EXPECT_EQ(truncateMac(0x123456789ABCDEF0ull, 64),
              0x123456789ABCDEF0ull);
    EXPECT_DEATH(truncateMac(1, 0), "out of range");
}

TEST(MacTruncation, BirthdayBoundMatchesPaper)
{
    // Section III-C: a 4 GB device with 128 B blocks holds 2^25
    // blocks, so the MAC must be at least 50 bits for collision
    // resistance; a truncated 32-bit MAC collides after ~2^16 writes.
    EXPECT_EQ(minimumMacBits(4ull << 30, 128), 50u);
    EXPECT_DOUBLE_EQ(collisionExponent(50), 25.0);
    EXPECT_DOUBLE_EQ(collisionExponent(32), 16.0);
    EXPECT_DOUBLE_EQ(collisionExponent(64), 32.0);
    // 8 B MACs (the paper's default) clear the bar comfortably.
    EXPECT_GE(64u, minimumMacBits(4ull << 30, 128));
}
