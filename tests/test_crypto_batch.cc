/**
 * @file
 * Differential fuzz of the batched, runtime-dispatched crypto kernels
 * against the scalar reference path.
 *
 * The batched backends (AES-NI / VAES / interleaved SipHash) exist
 * purely for software speed: the contract is that every one of them
 * is *byte-identical* to the portable scalar implementations for
 * random keys, counters, lengths, and batch sizes — including ragged
 * tails that don't fill a 4/8-lane group. Each test runs against
 * every backend the host CPU supports; the scalar batch path is always
 * exercised, so the suite is meaningful on non-x86 CI too. These tests
 * carry the fuzz label and run under ASan/UBSan in the sanitize tier.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hh"
#include "crypto/aes128.hh"
#include "crypto/aes128_batch.hh"
#include "crypto/ctr_mode.hh"
#include "crypto/dispatch.hh"
#include "crypto/keygen.hh"
#include "crypto/mac.hh"
#include "crypto/siphash.hh"
#include "mee/functional.hh"

using namespace shmgpu;
using namespace shmgpu::crypto;

namespace
{

Block16
randomBlock(Rng &rng)
{
    Block16 b;
    for (auto &byte : b)
        byte = static_cast<std::uint8_t>(rng.next());
    return b;
}

DataBlock
randomData(Rng &rng)
{
    DataBlock d;
    for (auto &byte : d)
        byte = static_cast<std::uint8_t>(rng.next());
    return d;
}

Seed
randomSeed(Rng &rng)
{
    return Seed{rng.next() & 0xffffffffff80ull, rng.next(), rng.next(),
                static_cast<std::uint32_t>(rng.next() & 0xffff)};
}

/** Every backend this host can run, scalar always included. */
std::vector<Backend>
supportedBackends()
{
    std::vector<Backend> out{Backend::Scalar};
    for (Backend b : {Backend::AesNi, Backend::Vaes})
        if (backendSupported(b))
            out.push_back(b);
    return out;
}

// Batch sizes chosen to hit the 8-lane path, the 4-lane path, the
// scalar tail, and every ragged combination of them.
constexpr std::size_t batchSizes[] = {0, 1, 2, 3, 4, 5, 6, 7,
                                      8, 9, 11, 12, 15, 16, 31, 64};

meta::LayoutParams
meeLayout()
{
    meta::LayoutParams p;
    p.dataBytes = 1 << 20;
    return p;
}

} // namespace

TEST(CryptoDispatch, ProbeAndNames)
{
    Backend best = bestSupportedBackend();
    EXPECT_TRUE(backendSupported(Backend::Scalar));
    EXPECT_TRUE(backendSupported(best));
    for (Backend b : supportedBackends()) {
        EXPECT_EQ(backendFromName(backendName(b)), b);
    }
    EXPECT_EQ(backendFromName("auto"), best);
}

TEST(CryptoDispatch, ForceScalarGlobally)
{
    Backend saved = activeBackend();
    setBackend(Backend::Scalar);
    EXPECT_EQ(activeBackend(), Backend::Scalar);
    Aes128Batch batch(generateKeys(7).encryptionKey);
    EXPECT_EQ(batch.backend(), Backend::Scalar);
    setBackend(saved);
}

TEST(CryptoBatchFuzz, AesBatchMatchesScalar)
{
    Rng rng(0xae5bea7c);
    for (Backend backend : supportedBackends()) {
        for (unsigned rep = 0; rep < 20; ++rep) {
            Block16 key = randomBlock(rng);
            Aes128 ref(key);
            Aes128Batch batch(key, backend);
            for (std::size_t n : batchSizes) {
                std::vector<Block16> in(n), out(n ? n : 1);
                for (auto &b : in)
                    b = randomBlock(rng);
                batch.encryptBlocks(in.data(), out.data(), n);
                for (std::size_t i = 0; i < n; ++i)
                    ASSERT_EQ(out[i], ref.encrypt(in[i]))
                        << backendName(backend) << " n=" << n
                        << " i=" << i;
            }
        }
    }
}

TEST(CryptoBatchFuzz, AesBatchInPlace)
{
    Rng rng(0x1e5bea7c);
    for (Backend backend : supportedBackends()) {
        Block16 key = randomBlock(rng);
        Aes128 ref(key);
        Aes128Batch batch(key, backend);
        for (std::size_t n : batchSizes) {
            std::vector<Block16> blocks(n), expect(n);
            for (std::size_t i = 0; i < n; ++i) {
                blocks[i] = randomBlock(rng);
                expect[i] = ref.encrypt(blocks[i]);
            }
            batch.encryptBlocks(blocks.data(), blocks.data(), n);
            EXPECT_EQ(blocks, expect) << backendName(backend);
        }
    }
}

TEST(CryptoBatchFuzz, CtrKeystreamMatchesScalar)
{
    Rng rng(0xc7bbeef);
    for (Backend backend : supportedBackends()) {
        for (unsigned rep = 0; rep < 8; ++rep) {
            Block16 key = randomBlock(rng);
            CtrModeEngine ref(key, Backend::Scalar);
            CtrModeEngine eng(key, backend);
            // Single-seed pad (the 8-chunk batch inside generatePad).
            Seed s = randomSeed(rng);
            EXPECT_EQ(eng.generatePad(s), ref.generatePad(s));

            for (std::size_t n : batchSizes) {
                std::vector<Seed> seeds(n);
                std::vector<DataBlock> data(n), expect(n);
                for (std::size_t i = 0; i < n; ++i) {
                    seeds[i] = randomSeed(rng);
                    data[i] = randomData(rng);
                    expect[i] = ref.transformed(data[i], seeds[i]);
                }
                eng.transformBatch(data.data(), seeds.data(), n);
                EXPECT_EQ(data, expect)
                    << backendName(backend) << " n=" << n;
            }
        }
    }
}

TEST(CryptoBatchFuzz, CtrTransformIsInvolution)
{
    Rng rng(0x11223344);
    CtrModeEngine eng(randomBlock(rng));
    std::vector<Seed> seeds(13);
    std::vector<DataBlock> data(13), orig(13);
    for (std::size_t i = 0; i < data.size(); ++i) {
        seeds[i] = randomSeed(rng);
        data[i] = randomData(rng);
        orig[i] = data[i];
    }
    eng.transformBatch(data.data(), seeds.data(), data.size());
    eng.transformBatch(data.data(), seeds.data(), data.size());
    EXPECT_EQ(data, orig);
}

TEST(CryptoBatchFuzz, SipHashBatchMatchesScalar)
{
    Rng rng(0x51bba5b);
    for (unsigned rep = 0; rep < 12; ++rep) {
        SipKey key{rng.next(), rng.next()};
        // Random shared length, including sub-word and zero lengths.
        std::size_t len = static_cast<std::size_t>(rng.below(96));
        for (std::size_t n : batchSizes) {
            std::vector<std::vector<std::uint8_t>> msgs(n);
            std::vector<const void *> ptrs(n);
            for (std::size_t i = 0; i < n; ++i) {
                msgs[i].resize(len);
                for (auto &b : msgs[i])
                    b = static_cast<std::uint8_t>(rng.next());
                ptrs[i] = msgs[i].data();
            }
            std::vector<std::uint64_t> out(n ? n : 1);
            siphash24Batch(key, ptrs.data(), len, out.data(), n);
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(out[i], siphash24(key, ptrs[i], len))
                    << "len=" << len << " n=" << n << " i=" << i;
        }
    }
}

TEST(CryptoBatchFuzz, BlockMacBatchMatchesScalar)
{
    Rng rng(0xb10c3ac);
    MacEngine eng(generateKeys(rng.next()).macKey);
    for (std::size_t n : batchSizes) {
        std::vector<DataBlock> cts(n);
        std::vector<BlockMacInput> jobs(n);
        for (std::size_t i = 0; i < n; ++i) {
            cts[i] = randomData(rng);
            jobs[i] = {&cts[i], rng.next() & 0xffffffffff80ull,
                       rng.next(), rng.next(),
                       static_cast<std::uint32_t>(rng.next() & 0xff)};
        }
        std::vector<Mac> out(n ? n : 1);
        eng.blockMacBatch(jobs, out.data());
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(out[i],
                      eng.blockMac(*jobs[i].ciphertext, jobs[i].addr,
                                   jobs[i].major, jobs[i].minor,
                                   jobs[i].partition))
                << "n=" << n << " i=" << i;
    }
}

// The MEE-level batch paths must be bit-identical to their sequential
// equivalents: same stored ciphertexts, same stored MACs, same
// decrypted reads — under every supported AES backend.
TEST(CryptoBatchFuzz, MeeHostWriteRangeMatchesPerBlock)
{
    Rng rng(0x4057e11a);
    for (Backend backend : supportedBackends()) {
        Backend saved = activeBackend();
        setBackend(backend);
        mee::SecureMemoryContext batched(meeLayout(), 99);
        mee::SecureMemoryContext serial(meeLayout(), 99);
        setBackend(saved);

        constexpr std::size_t blocks = 37; // spans chunk boundaries
        std::vector<std::uint8_t> data(blocks * 128);
        for (auto &b : data)
            b = static_cast<std::uint8_t>(rng.next());

        batched.hostWriteRange(0x4000, data.data(), data.size());
        for (std::size_t i = 0; i < blocks; ++i) {
            DataBlock plain;
            std::memcpy(plain.data(), data.data() + i * 128, 128);
            serial.hostWrite(0x4000 + i * 128, plain);
        }

        for (std::size_t i = 0; i < blocks; ++i) {
            LocalAddr a = 0x4000 + i * 128;
            ASSERT_EQ(batched.memory().readBlock(a),
                      serial.memory().readBlock(a))
                << backendName(backend) << " block " << i;
            ASSERT_EQ(batched.macStore().blockMac(a),
                      serial.macStore().blockMac(a));
            auto rb = batched.deviceRead(a);
            auto rs = serial.deviceRead(a);
            ASSERT_EQ(rb.status, mee::VerifyStatus::Ok);
            ASSERT_EQ(rb.data, rs.data);
        }
        EXPECT_EQ(batched.verifyChunk(0x4000), mee::VerifyStatus::Ok);
    }
}

TEST(CryptoBatchFuzz, MeeDeviceReadBatchMatchesSequential)
{
    Rng rng(0xdeadbeef);
    mee::SecureMemoryContext ctx(meeLayout(), 7);

    // Mixed population: read-only host input, device-written blocks,
    // and never-touched (lazily MAC-initialized) blocks.
    std::vector<LocalAddr> addrs;
    for (std::size_t i = 0; i < 8; ++i) {
        LocalAddr a = 0x8000 + i * 128;
        DataBlock plain;
        for (auto &b : plain)
            b = static_cast<std::uint8_t>(rng.next());
        ctx.hostWrite(a, plain);
        addrs.push_back(a);
    }
    for (std::size_t i = 0; i < 8; ++i) {
        LocalAddr a = 0x20000 + i * 128;
        DataBlock plain;
        for (auto &b : plain)
            b = static_cast<std::uint8_t>(rng.next());
        ctx.deviceWrite(a, plain);
        addrs.push_back(a);
    }
    for (std::size_t i = 0; i < 5; ++i)
        addrs.push_back(0x40000 + i * 128);

    // One tampered block must report MacMismatch in the batch too.
    DataBlock corrupted = ctx.memory().readBlock(0x20000);
    corrupted[3] ^= 0x40;
    ctx.memory().writeBlock(0x20000, corrupted);

    mee::SecureMemoryContext ref(meeLayout(), 7);
    // Rebuild the reference context identically (fresh RNG, same seed).
    Rng rng2(0xdeadbeef);
    for (std::size_t i = 0; i < 8; ++i) {
        DataBlock plain;
        for (auto &b : plain)
            b = static_cast<std::uint8_t>(rng2.next());
        ref.hostWrite(0x8000 + i * 128, plain);
    }
    for (std::size_t i = 0; i < 8; ++i) {
        DataBlock plain;
        for (auto &b : plain)
            b = static_cast<std::uint8_t>(rng2.next());
        ref.deviceWrite(0x20000 + i * 128, plain);
    }
    ref.memory().writeBlock(0x20000, corrupted);

    std::vector<mee::FunctionalReadResult> batch(addrs.size());
    ctx.deviceReadBatch(addrs.data(), batch.data(), addrs.size());
    for (std::size_t i = 0; i < addrs.size(); ++i) {
        auto seq = ref.deviceRead(addrs[i]);
        ASSERT_EQ(batch[i].status, seq.status) << "i=" << i;
        ASSERT_EQ(batch[i].data, seq.data) << "i=" << i;
    }
    EXPECT_EQ(batch[8].status, mee::VerifyStatus::MacMismatch);
}
