/**
 * @file
 * Differential fuzzing of the hardware detectors against the offline
 * oracle, and of the whole prediction machinery against the functional
 * MEE datapath.
 *
 * The contract under test: detector mispredictions are a *performance*
 * phenomenon. The hardware read-only detector may deny read-only
 * status to a truly read-only region (aliasing, never-set entries) but
 * must never grant it to a region the kernel has written; and no
 * combination of predictions may ever change what a verified read
 * decrypts to.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hh"
#include "detect/oracle.hh"
#include "detect/readonly.hh"
#include "detect/streaming.hh"
#include "mee/functional.hh"

using namespace shmgpu;
using namespace shmgpu::detect;
using shmgpu::crypto::DataBlock;

namespace
{

constexpr unsigned kPartitions = 2;
constexpr std::uint64_t kRegionBytes = 16 * 1024;
constexpr std::uint64_t kChunkBytes = 4096;
constexpr std::uint64_t kBlockBytes = 128;
constexpr std::uint64_t kSpaceBytes = 1 << 20;
constexpr std::uint64_t kBlocks = kSpaceBytes / kBlockBytes;

DataBlock
randomBlock(Rng &rng)
{
    DataBlock b;
    for (auto &byte : b)
        byte = static_cast<std::uint8_t>(rng.next());
    return b;
}

} // namespace

class DetectorDiff : public ::testing::TestWithParam<std::uint64_t>
{
};

/**
 * Read-only prediction is one-sided: the hardware bit vector (small,
 * tagless, aliasing) may *miss* read-only regions, but whenever the
 * oracle says a region was written, the hardware must agree it is not
 * read-only.
 */
TEST_P(DetectorDiff, ReadOnlyPredictionIsOneSidedVsOracle)
{
    Rng rng(GetParam());
    AccessProfile oracle(kPartitions, kRegionBytes, kChunkBytes,
                         kBlockBytes);
    // Deliberately tiny: 8 entries over a 64-region space forces
    // heavy aliasing, the misprediction source under test.
    ReadOnlyDetectorParams ro_params;
    ro_params.entries = 8;
    ro_params.regionBytes = kRegionBytes;
    std::vector<ReadOnlyDetector> hw;
    for (unsigned p = 0; p < kPartitions; ++p)
        hw.emplace_back(ro_params);

    // Phase 1: host copies mark a random subset of regions read-only.
    // (The oracle only observes kernel traffic; marking is the
    // command-processor path.)
    const std::uint64_t regions = kSpaceBytes / kRegionBytes;
    for (std::uint64_t r = 0; r < regions; ++r)
        if (rng.chance(0.5))
            for (unsigned p = 0; p < kPartitions; ++p)
                hw[p].markInputRegion(r * kRegionBytes, kRegionBytes);

    // Phase 2: a random kernel access stream, no re-marking.
    Cycle now = 0;
    for (int step = 0; step < 20000; ++step) {
        PartitionId part = static_cast<PartitionId>(
            rng.below(kPartitions));
        LocalAddr addr = rng.below(kBlocks) * kBlockBytes;
        bool is_write = rng.chance(0.2);
        oracle.recordAccess(part, addr, is_write, now);
        if (is_write)
            hw[part].recordWrite(addr);
        now += 1 + rng.below(4);
    }
    oracle.finalize(now);

    for (unsigned p = 0; p < kPartitions; ++p) {
        for (std::uint64_t r = 0; r < regions; ++r) {
            LocalAddr probe = r * kRegionBytes;
            if (!oracle.regionReadOnly(p, probe)) {
                EXPECT_FALSE(hw[p].isReadOnly(probe))
                    << "partition " << p << " region " << r
                    << ": hardware claims read-only but the oracle "
                       "saw a write";
                // Provenance must blame a write, not initialization.
                NotReadOnlyCause cause = hw[p].causeFor(probe);
                EXPECT_TRUE(cause == NotReadOnlyCause::WrittenSelf ||
                            cause == NotReadOnlyCause::WrittenAlias ||
                            cause == NotReadOnlyCause::NeverSet);
            }
        }
    }
}

/**
 * With unlimited trackers (the paper's oracle configuration) and a
 * stream whose chunks each have a consistent personality, the online
 * detector and the offline profile must classify every chunk the same
 * way — and correctly.
 */
TEST_P(DetectorDiff, OracleModeStreamingMatchesProfile)
{
    Rng rng(GetParam() ^ 0xabcdef);
    AccessProfile oracle(1, kRegionBytes, kChunkBytes, kBlockBytes);
    StreamingDetectorParams params;
    params.trackers = 0; // unlimited (oracle mode)
    params.chunkBytes = kChunkBytes;
    params.blockBytes = static_cast<std::uint32_t>(kBlockBytes);
    StreamingDetector hw(params);
    std::vector<DetectionEvent> events;

    const std::uint64_t chunks = 32;
    const std::uint64_t blocks_per_chunk = kChunkBytes / kBlockBytes;
    std::vector<bool> role(chunks);
    for (std::uint64_t c = 0; c < chunks; ++c)
        role[c] = rng.chance(0.5); // true = streaming personality

    Cycle now = 0;
    for (int round = 0; round < 4; ++round) {
        for (std::uint64_t c = 0; c < chunks; ++c) {
            if (role[c]) {
                // Full sequential pass: every block touched.
                for (std::uint64_t b = 0; b < blocks_per_chunk; ++b) {
                    LocalAddr addr = c * kChunkBytes + b * kBlockBytes;
                    hw.access(addr, false, now, events);
                    oracle.recordAccess(0, addr, false, now);
                    ++now;
                }
            } else {
                // Sparse: a few repeated blocks, gaps left.
                for (int i = 0; i < 6; ++i) {
                    std::uint64_t b = rng.below(4);
                    LocalAddr addr = c * kChunkBytes + b * kBlockBytes;
                    hw.access(addr, false, now, events);
                    oracle.recordAccess(0, addr, false, now);
                    ++now;
                }
            }
        }
    }
    hw.finalizeAll(now, events);
    oracle.finalize(now);

    for (std::uint64_t c = 0; c < chunks; ++c) {
        LocalAddr probe = c * kChunkBytes;
        EXPECT_EQ(hw.predictStreaming(probe), role[c])
            << "chunk " << c << " online classification";
        EXPECT_EQ(oracle.chunkStreaming(0, probe), role[c])
            << "chunk " << c << " oracle classification";
    }
}

/**
 * Whatever a random stream does to a capacity-limited detector, its
 * detection events must be internally consistent: `detected` is
 * exactly full block coverage, coverage exits are always detections,
 * and budget/timeout exits never are.
 */
TEST_P(DetectorDiff, DetectionEventsAreInternallyConsistent)
{
    Rng rng(GetParam() ^ 0x5eed);
    StreamingDetectorParams params;
    params.trackers = 2; // scarce: forces timeouts and reclaims
    params.chunkBytes = kChunkBytes;
    params.blockBytes = static_cast<std::uint32_t>(kBlockBytes);
    StreamingDetector hw(params);
    std::vector<DetectionEvent> events;

    const std::uint64_t blocks_per_chunk = kChunkBytes / kBlockBytes;
    const std::uint64_t full_mask = (blocks_per_chunk >= 64)
                                        ? ~0ull
                                        : (1ull << blocks_per_chunk) - 1;
    Cycle now = 0;
    for (int step = 0; step < 30000; ++step) {
        LocalAddr addr = rng.below(kBlocks) * kBlockBytes;
        hw.access(addr, rng.chance(0.3), now, events);
        now += 1 + rng.below(8);
    }
    hw.finalizeAll(now, events);

    ASSERT_FALSE(events.empty());
    for (const DetectionEvent &ev : events) {
        EXPECT_EQ(ev.detectedStreaming,
                  (ev.accessMask & full_mask) == full_mask);
        if (ev.exit == PhaseExit::Coverage)
            EXPECT_TRUE(ev.detectedStreaming);
        else
            EXPECT_FALSE(ev.detectedStreaming);
    }
}

/**
 * The headline property: mispredictions may change bandwidth, never
 * values. A random operation mix driven by a deliberately tiny
 * (=constantly wrong) read-only detector and a scarce streaming
 * detector must still verify and decrypt every read exactly.
 */
TEST_P(DetectorDiff, MispredictionsNeverBreakFunctionalCorrectness)
{
    Rng rng(GetParam() ^ 0xf00d);
    ReadOnlyDetectorParams ro_params;
    ro_params.entries = 4; // maximal aliasing
    ro_params.regionBytes = kRegionBytes;
    meta::LayoutParams layout;
    layout.dataBytes = kSpaceBytes;
    mee::SecureMemoryContext ctx(layout, GetParam(), ro_params);

    StreamingDetectorParams sd_params;
    sd_params.trackers = 2;
    sd_params.chunkBytes = kChunkBytes;
    sd_params.blockBytes = static_cast<std::uint32_t>(kBlockBytes);
    StreamingDetector streaming(sd_params);
    std::vector<DetectionEvent> events;

    std::map<LocalAddr, DataBlock> shadow;
    Cycle now = 0;
    for (int step = 0; step < 2000; ++step) {
        LocalAddr addr = rng.below(kBlocks) * kBlockBytes;
        streaming.access(addr, rng.chance(0.3), now, events);
        switch (rng.below(6)) {
          case 0: { // host copy; let the (possibly wrong) streaming
                    // prediction pick the marking path
            DataBlock b = randomBlock(rng);
            ctx.hostWrite(addr, b, streaming.predictStreaming(addr));
            shadow[addr] = b;
            break;
          }
          case 1:
          case 2: { // kernel store (may fire an RO transition)
            DataBlock b = randomBlock(rng);
            ctx.deviceWrite(addr, b);
            shadow[addr] = b;
            break;
          }
          default: { // kernel load: must verify and match
            auto it = shadow.find(addr);
            if (it == shadow.end())
                break;
            mee::FunctionalReadResult r = ctx.deviceRead(addr);
            ASSERT_EQ(r.status, mee::VerifyStatus::Ok)
                << "step " << step << " addr " << addr;
            ASSERT_EQ(r.data, it->second)
                << "step " << step << " addr " << addr;
            break;
          }
        }
        now += 1 + rng.below(16);
    }

    // Closing sweep: every shadowed block still reads back exactly.
    for (const auto &[addr, data] : shadow) {
        mee::FunctionalReadResult r = ctx.deviceRead(addr);
        ASSERT_EQ(r.status, mee::VerifyStatus::Ok) << "addr " << addr;
        ASSERT_EQ(r.data, data) << "addr " << addr;
    }
}

namespace
{

/**
 * Reference for the oracle-mode (trackers == 0) StreamingDetector:
 * the original growing tracker pool searched by linear scans. The
 * detector keeps these scans' answers incrementally instead; this
 * copy is what it must agree with, event order included.
 */
class ScanOracle
{
  public:
    explicit ScanOracle(const StreamingDetectorParams &params)
        : config(params), entries(params.entries),
          cooldown(params.cooldownEntries)
    {
    }

    void
    access(LocalAddr addr, bool is_write, Cycle now,
           std::vector<DetectionEvent> &events)
    {
        for (auto &t : trackers)
            if (t.valid && now >= t.started + config.timeoutCycles)
                finalize(t, events, now, PhaseExit::Timeout);

        const std::uint64_t chunk = addr / config.chunkBytes;
        const auto block = static_cast<std::uint32_t>(
            (addr % config.chunkBytes) / config.blockBytes);
        Tracker *t = find(chunk);
        if (!t) {
            if (inCooldown(chunk, now))
                return;
            t = nullptr;
            for (auto &free : trackers) {
                if (!free.valid) {
                    t = &free;
                    break;
                }
            }
            if (!t) {
                trackers.push_back({});
                t = &trackers.back();
            }
            *t = Tracker{true, chunk, entry(chunk).streaming, false, 0, 0,
                         now};
        }
        t->accessMask |= 1ull << block;
        t->writeFlag |= is_write;
        ++t->accesses;
        if ((t->accessMask & fullMask()) == fullMask())
            finalize(*t, events, now, PhaseExit::Coverage);
        else if (t->accesses >= config.monitorAccesses *
                                    (config.blockBytes / config.sectorBytes))
            finalize(*t, events, now, PhaseExit::Budget);
    }

    void
    finalizeAll(Cycle now, std::vector<DetectionEvent> &events)
    {
        for (auto &t : trackers)
            if (t.valid)
                finalize(t, events, now, PhaseExit::Timeout);
    }

    void
    reset()
    {
        entries.assign(entries.size(), Entry{});
        trackers.clear();
        cooldown.assign(cooldown.size(), CooldownEntry{});
        cooldownNext = 0;
    }

    void
    primePrediction(std::uint64_t chunk, bool streaming)
    {
        entry(chunk) = {streaming, true, chunk};
    }

    bool
    confirmedStreaming(LocalAddr addr, Cycle now) const
    {
        const std::uint64_t chunk = addr / config.chunkBytes;
        const Entry &e = entries[chunk % entries.size()];
        if (e.everUpdated && e.lastUpdater == chunk && e.streaming)
            return true;
        if (inCooldown(chunk, now))
            return true;
        for (const auto &t : trackers)
            if (t.valid && t.chunk == chunk)
                return true;
        return false;
    }

    bool predictStreaming(std::uint64_t chunk) const
    {
        return entries[chunk % entries.size()].streaming;
    }
    bool entryNeverUpdated(std::uint64_t chunk) const
    {
        return !entries[chunk % entries.size()].everUpdated;
    }
    std::uint64_t entryLastUpdater(std::uint64_t chunk) const
    {
        return entries[chunk % entries.size()].lastUpdater;
    }

  private:
    struct Tracker
    {
        bool valid = false;
        std::uint64_t chunk = 0;
        bool predictedStreaming = false;
        bool writeFlag = false;
        std::uint64_t accessMask = 0;
        std::uint32_t accesses = 0;
        Cycle started = 0;
    };
    struct Entry
    {
        bool streaming = true;
        bool everUpdated = false;
        std::uint64_t lastUpdater = 0;
    };
    struct CooldownEntry
    {
        std::uint64_t chunk = 0;
        Cycle until = 0;
    };

    Entry &entry(std::uint64_t chunk)
    {
        return entries[chunk % entries.size()];
    }

    std::uint64_t
    fullMask() const
    {
        const std::uint64_t blocks = config.chunkBytes / config.blockBytes;
        return blocks >= 64 ? ~0ull : (1ull << blocks) - 1;
    }

    Tracker *
    find(std::uint64_t chunk)
    {
        for (auto &t : trackers)
            if (t.valid && t.chunk == chunk)
                return &t;
        return nullptr;
    }

    bool
    inCooldown(std::uint64_t chunk, Cycle now) const
    {
        for (const auto &c : cooldown)
            if (c.until > now && c.chunk == chunk)
                return true;
        return false;
    }

    void
    finalize(Tracker &t, std::vector<DetectionEvent> &events, Cycle now,
             PhaseExit exit)
    {
        const bool streaming = (t.accessMask & fullMask()) == fullMask();
        entry(t.chunk) = {streaming, true, t.chunk};
        events.push_back({t.chunk, streaming, t.predictedStreaming,
                          t.writeFlag, t.accessMask, exit});
        t.valid = false;
        if (exit == PhaseExit::Coverage && !cooldown.empty()) {
            cooldown[cooldownNext] = {t.chunk, now + config.cooldownCycles};
            cooldownNext = (cooldownNext + 1) %
                           static_cast<std::uint32_t>(cooldown.size());
        }
    }

    StreamingDetectorParams config;
    std::vector<Entry> entries;
    std::vector<Tracker> trackers;
    std::vector<CooldownEntry> cooldown;
    std::uint32_t cooldownNext = 0;
};

/** Compare, then drop, the events both detectors emitted. */
void
expectSameEvents(std::vector<DetectionEvent> &got,
                 std::vector<DetectionEvent> &want, int step)
{
    ASSERT_EQ(got.size(), want.size()) << "step " << step;
    for (std::size_t i = 0; i < want.size(); ++i) {
        SCOPED_TRACE("step " + std::to_string(step) + " event " +
                     std::to_string(i));
        EXPECT_EQ(got[i].chunk, want[i].chunk);
        EXPECT_EQ(got[i].detectedStreaming, want[i].detectedStreaming);
        EXPECT_EQ(got[i].predictedStreaming, want[i].predictedStreaming);
        EXPECT_EQ(got[i].sawWrite, want[i].sawWrite);
        EXPECT_EQ(got[i].accessMask, want[i].accessMask);
        EXPECT_EQ(got[i].exit, want[i].exit);
    }
    got.clear();
    want.clear();
}

} // namespace

/**
 * The oracle-mode detector against the linear-scan reference: random
 * streams mixing chunk sweeps (coverage exits and their stragglers in
 * the cooldown ring), hammered blocks (budget exits), scattered
 * touches left to time out, cycles that repeat or step back as a
 * partition's miss and write-back streams interleave, priming,
 * finalizeAll and reset. Every call must emit the same events in the
 * same order, and leave the same predictor entries behind. The small
 * bit vector makes entries alias, so the order of same-cycle timeouts
 * shows in which chunk last updated an entry.
 */
TEST_P(DetectorDiff, OracleTrackerIndexMatchesPoolScan)
{
    Rng rng(GetParam() ^ 0x0eac1e);
    StreamingDetectorParams params;
    params.trackers = 0;
    params.entries = 16;
    params.chunkBytes = kChunkBytes;
    params.blockBytes = static_cast<std::uint32_t>(kBlockBytes);
    params.timeoutCycles = 400;
    params.cooldownCycles = 150;
    params.cooldownEntries = 4;
    StreamingDetector fast(params);
    ScanOracle reference(params);

    const std::uint64_t chunks = 48;
    const std::uint64_t blocks_per_chunk = kChunkBytes / kBlockBytes;
    std::vector<DetectionEvent> got, want;
    // Exits seen by kind, and calls that timed out several phases at
    // once (where slot order decides the event order).
    std::map<PhaseExit, int> exits;
    int batched_timeouts = 0;
    auto check = [&](int step) {
        int timeouts = 0;
        for (const DetectionEvent &ev : got) {
            ++exits[ev.exit];
            timeouts += ev.exit == PhaseExit::Timeout;
        }
        batched_timeouts += timeouts > 1;
        expectSameEvents(got, want, step);
    };
    Cycle now = 1000;
    std::uint64_t sweep_chunk = 0, sweep_block = blocks_per_chunk;
    std::uint64_t hammer_chunk = 0, hammer_left = 0;
    for (int step = 0; step < 40000; ++step) {
        LocalAddr addr = 0;
        const std::uint64_t kind = hammer_left ? 100 : rng.below(100);
        if (hammer_left) {
            // A burst on three blocks of one chunk: budget exits.
            --hammer_left;
            addr = hammer_chunk * kChunkBytes + rng.below(3) * kBlockBytes;
        } else if (kind < 45) {
            // Sequential sweep of one chunk, sector by sector.
            if (sweep_block >= blocks_per_chunk) {
                sweep_chunk = rng.below(chunks);
                sweep_block = 0;
            }
            addr = sweep_chunk * kChunkBytes + sweep_block * kBlockBytes +
                   rng.below(4) * 32;
            sweep_block += rng.chance(0.8);
        } else if (kind < 47) {
            hammer_chunk = rng.below(chunks);
            hammer_left = 100 + rng.below(60);
            continue;
        } else if (kind < 97) {
            // Scattered touches: phases left to time out.
            addr = rng.below(chunks) * kChunkBytes +
                   rng.below(blocks_per_chunk) * kBlockBytes;
        } else if (kind < 98) {
            const std::uint64_t c = rng.below(chunks);
            const bool streaming = rng.chance(0.5);
            fast.primePrediction(c, streaming);
            reference.primePrediction(c, streaming);
            continue;
        } else if (kind < 99) {
            fast.finalizeAll(now, got);
            reference.finalizeAll(now, want);
            check(step);
            continue;
        } else {
            if (rng.chance(0.2)) {
                fast.reset();
                reference.reset();
            }
            continue;
        }
        const bool is_write = rng.chance(0.3);
        fast.access(addr, is_write, now, got);
        reference.access(addr, is_write, now, want);
        check(step);
        if (HasFailure())
            return;
        const LocalAddr probe = rng.below(chunks) * kChunkBytes;
        ASSERT_EQ(fast.confirmedStreaming(probe, now),
                  reference.confirmedStreaming(probe, now))
            << "step " << step;

        // Same-cycle bursts, short back-steps, and occasional gaps
        // long enough to time out every open phase.
        const std::uint64_t clock = rng.below(100);
        if (clock < 30 || hammer_left)
            now += hammer_left ? rng.below(2) : 0;
        else if (clock < 40)
            now -= std::min<Cycle>(now, rng.below(64));
        else if (clock < 99)
            now += 1 + rng.below(24);
        else
            now += params.timeoutCycles + rng.below(200);
    }
    fast.finalizeAll(now, got);
    reference.finalizeAll(now, want);
    check(-1);
    EXPECT_GT(exits[PhaseExit::Coverage], 0);
    EXPECT_GT(exits[PhaseExit::Budget], 0);
    EXPECT_GT(exits[PhaseExit::Timeout], 0);
    EXPECT_GT(batched_timeouts, 0);

    for (std::uint64_t c = 0; c < params.entries; ++c) {
        EXPECT_EQ(fast.predictStreaming(c * kChunkBytes),
                  reference.predictStreaming(c));
        EXPECT_EQ(fast.entryNeverUpdated(c), reference.entryNeverUpdated(c));
        EXPECT_EQ(fast.entryLastUpdater(c), reference.entryLastUpdater(c));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DetectorDiff,
                         ::testing::Values(1ull, 42ull, 0xdecafull,
                                           0x123456789ull));
