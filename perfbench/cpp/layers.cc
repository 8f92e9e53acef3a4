/**
 * @file
 * Layer-level measurement: the functional secure-memory replay (the
 * secure_memory workload and its probe), and the traced run's layer
 * probe — a replay of each probe workload's own generated stream
 * through the public layer classes, one layer at a time, plus timed
 * simulator passes and crypto/metadata kernels.
 *
 * Layers are replayed one at a time rather than timed call by call:
 * a clock read per call costs about as much as an L2 access, so a
 * per-call span would mostly measure the clock. Each phase therefore
 * runs a layer over the recorded inputs its parent produced, and its
 * span is that layer's self time. Only the MEE split into reads and
 * writes is timed per call, with the measured cost of a clock pair
 * subtracted.
 */

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>

#include "common/fingerprint.hh"
#include "common/rng.hh"
#include "crypto/ctr_mode.hh"
#include "crypto/keygen.hh"
#include "crypto/mac.hh"
#include "detect/readonly.hh"
#include "detect/streaming.hh"
#include "layers.hh"
#include "mee/engine.hh"
#include "mee/functional.hh"
#include "mem/addr_map.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "meta/bmt.hh"
#include "meta/counters.hh"
#include "meta/layout.hh"
#include "schemes/schemes.hh"
#include "workload/trace.hh"

namespace perfbench
{

using namespace shmgpu;

namespace
{

constexpr std::size_t burstBlocks = 32;
constexpr Addr blockMask = ~Addr{127};

/** Mean host cost of one steady_clock::now() pair, in seconds. */
double
clockPairCost()
{
    constexpr int n = 200000;
    const auto t0 = Clock::now();
    double sink = 0;
    for (int i = 0; i < n; ++i)
        sink += secondsSince(Clock::now());
    return sink >= 0 ? secondsSince(t0) / n : 0;
}

/** One generated memory operation of a kernel trace. */
struct StreamOp
{
    Addr addr = 0;
    std::uint32_t compute = 0;
    bool write = false;
    MemSpace space = MemSpace::Global;
};

/** A spec's whole stream in SM round-robin order, kernel by kernel. */
struct Stream
{
    std::vector<StreamOp> ops;
    /** ops index where each kernel starts. */
    std::vector<std::size_t> kernelStart;
};

Stream
generateStream(const workload::WorkloadSpec &spec,
               const std::vector<Addr> &bases, std::uint32_t num_sms,
               std::uint64_t max_ops)
{
    Stream s;
    for (std::uint32_t k = 0; k < spec.kernels.size(); ++k) {
        s.kernelStart.push_back(s.ops.size());
        workload::KernelTrace trace(spec, bases, k, num_sms);
        workload::TraceOp op;
        bool any = true;
        while (any && s.ops.size() < max_ops) {
            any = false;
            for (SmId sm = 0; sm < num_sms && s.ops.size() < max_ops;
                 ++sm) {
                if (trace.next(sm, op)) {
                    s.ops.push_back({op.addr, op.computeInstrs,
                                     op.type == mem::AccessType::Write,
                                     op.space});
                    any = true;
                }
            }
        }
    }
    return s;
}

std::uint64_t
mix64(std::uint64_t z)
{
    z += 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

} // namespace

// ---------------------------------------------------------------------
// Functional secure memory
// ---------------------------------------------------------------------

SecureImage::SecureImage() = default;
SecureImage::~SecureImage() = default;

std::unique_ptr<SecureImage>
loadSecureImage(const workload::WorkloadSpec &spec, std::uint64_t seed)
{
    auto img = std::make_unique<SecureImage>();
    img->bases = workload::layoutBuffers(spec);
    const Addr footprint = workload::footprintBytes(spec);
    img->shadow.resize(footprint);
    // Seeded plaintext, eight bytes at a time.
    std::uint64_t x = mix64(seed ^ workload::contentHash(spec));
    for (std::size_t i = 0; i + 8 <= img->shadow.size(); i += 8) {
        x = mix64(x);
        std::memcpy(&img->shadow[i], &x, 8);
    }

    meta::LayoutParams lp;
    lp.dataBytes = (footprint + (Addr{1} << 20) - 1) & ~((Addr{1} << 20) - 1);
    img->ctx = std::make_unique<mee::SecureMemoryContext>(lp, mix64(seed + 7));

    // Inputs copied before the first kernel are marked read-only, as
    // the simulator marks them; every other buffer is host-initialized
    // without the mark so reads before the first device write verify.
    std::vector<bool> read_only(spec.buffers.size(), false);
    if (!spec.kernels.empty())
        for (const auto &c : spec.kernels[0].preCopies)
            read_only.at(c.buffer) = c.marksReadOnly;
    const auto t0 = Clock::now();
    for (std::size_t b = 0; b < spec.buffers.size(); ++b) {
        img->ctx->hostWriteRange(img->bases[b], &img->shadow[img->bases[b]],
                                 spec.buffers[b].bytes, read_only[b]);
        img->hostCopyBytes += static_cast<double>(spec.buffers[b].bytes);
    }
    img->hostCopySeconds = secondsSince(t0);
    return img;
}

namespace
{

/** Deterministic new plaintext for the @p n-th write of @p block. */
crypto::DataBlock
writePayload(std::uint64_t seed, Addr block, std::uint64_t n)
{
    crypto::DataBlock d;
    std::uint64_t x = mix64(seed ^ mix64(block) ^ (n << 1));
    for (std::size_t i = 0; i < d.size(); i += 8) {
        x = mix64(x);
        std::memcpy(&d[i], &x, 8);
    }
    return d;
}

const char *
statusName(mee::VerifyStatus s)
{
    switch (s) {
      case mee::VerifyStatus::Ok:
        return "Ok";
      case mee::VerifyStatus::MacMismatch:
        return "MacMismatch";
      case mee::VerifyStatus::BmtMismatch:
        return "BmtMismatch";
    }
    return "?";
}

} // namespace

SecureStats
replaySecure(SecureImage &img, const workload::WorkloadSpec &spec,
             std::uint64_t seed, std::uint64_t max_ops, Outcome &out)
{
    SecureStats st;
    mee::SecureMemoryContext &ctx = *img.ctx;
    const gpu::GpuParams gp = benchGpu(figureCap);
    // Generation is input preparation, not the measured replay.
    const Stream stream = generateStream(spec, img.bases, gp.numSms, max_ops);

    std::vector<LocalAddr> pending;
    pending.reserve(burstBlocks);
    std::vector<mee::FunctionalReadResult> results(burstBlocks);
    std::vector<std::uint32_t> writes_of(img.shadow.size() / 128 + 1, 0);
    Rng inject(mix64(seed ^ 0x7A3F));
    constexpr std::uint64_t injectPeriod = 4096;
    std::uint64_t next_inject = inject.below(2 * injectPeriod);

    auto flush = [&] {
        if (pending.empty())
            return;
        const auto t0 = Clock::now();
        ctx.deviceReadBatch(pending.data(), results.data(), pending.size());
        const double dt = secondsSince(t0);
        if (pending.size() == burstBlocks)
            st.burstSeconds.push_back(dt);
        st.readSeconds += dt;
        for (std::size_t i = 0; i < pending.size(); ++i) {
            ++out.attempted;
            ++st.readBlocks;
            if (results[i].status != mee::VerifyStatus::Ok)
                out.fail(std::string("read of block ") +
                         std::to_string(pending[i]) + " returned " +
                         statusName(results[i].status));
            else if (std::memcmp(results[i].data.data(),
                                 &img.shadow[pending[i]], 128) != 0)
                out.fail("read of block " + std::to_string(pending[i]) +
                         " returned bytes other than the last written");
        }
        pending.clear();
    };
    auto write_block = [&](Addr block) {
        if (std::find(pending.begin(), pending.end(), block) != pending.end())
            flush();
        const crypto::DataBlock d =
            writePayload(seed, block, ++writes_of[block / 128]);
        const auto t0 = Clock::now();
        ctx.deviceWrite(block, d);
        st.writeSeconds += secondsSince(t0);
        std::memcpy(&img.shadow[block], d.data(), 128);
        ++st.writes;
        ++out.attempted;
    };
    auto expect_read = [&](Addr block, mee::VerifyStatus want,
                           const char *what) {
        mee::FunctionalReadResult r = ctx.deviceRead(block);
        if (r.status != want) {
            out.fail(std::string(what) + " on block " +
                     std::to_string(block) + ": expected " +
                     statusName(want) + ", got " + statusName(r.status));
            return false;
        }
        if (want == mee::VerifyStatus::Ok &&
            std::memcmp(r.data.data(), &img.shadow[block], 128) != 0) {
            out.fail(std::string(what) + " on block " +
                     std::to_string(block) + ": repaired bytes differ");
            return false;
        }
        return true;
    };
    // Seeded attack: a ciphertext bit flip (must fail the MAC), or a
    // replay of an older (ciphertext, MAC, counter) of a device-written
    // block (must fail the tree). Either way the block is repaired.
    auto attack = [&](Addr block) {
        flush();
        ++st.injections;
        ++out.attempted;
        bool detected = false;
        bool repaired = false;
        if (writes_of[block / 128] > 0 && inject.below(2) == 1) {
            const auto old_snap = ctx.snapshotBlock(block);
            write_block(block);
            const auto new_snap = ctx.snapshotBlock(block);
            ctx.replayBlock(old_snap);
            detected = expect_read(block, mee::VerifyStatus::BmtMismatch,
                                   "replay");
            ctx.replayBlock(new_snap);
            repaired = expect_read(block, mee::VerifyStatus::Ok,
                                   "repair after replay");
        } else {
            const Addr at = block + inject.below(128);
            const auto flip =
                static_cast<std::uint8_t>(1u << inject.below(8));
            ctx.memory().corruptByte(at, flip);
            detected = expect_read(block, mee::VerifyStatus::MacMismatch,
                                   "bit flip");
            ctx.memory().corruptByte(at, flip);
            repaired = expect_read(block, mee::VerifyStatus::Ok,
                                   "repair after bit flip");
        }
        if (detected)
            ++st.detected;
        (void)repaired;
    };

    for (std::size_t i = 0; i < stream.ops.size(); ++i) {
        const StreamOp &op = stream.ops[i];
        const Addr block = op.addr & blockMask;
        st.instructions += op.compute + 1.0;
        if (op.write) {
            write_block(block);
        } else {
            pending.push_back(block);
            if (pending.size() == burstBlocks)
                flush();
        }
        if (i == next_inject) {
            attack(block);
            next_inject += 1 + inject.below(2 * injectPeriod);
        }
    }
    flush();
    st.readBytes = static_cast<double>(st.readBlocks) * 128.0;
    st.writeBytes = static_cast<double>(st.writes) * 128.0;

    Fingerprint h;
    h.u64(ctx.tree().root());
    h.u64(st.readBlocks);
    h.u64(st.writes);
    h.u64(st.injections);
    h.u64(st.detected);
    std::uint64_t image = 0;
    for (std::size_t i = 0; i + 8 <= img.shadow.size(); i += 8) {
        std::uint64_t w;
        std::memcpy(&w, &img.shadow[i], 8);
        image = mix64(image ^ w);
    }
    h.u64(image);
    st.digest = h.value();
    return st;
}

// ---------------------------------------------------------------------
// Layer replay
// ---------------------------------------------------------------------

namespace
{

struct DramRequest
{
    PartitionId target = 0;
    Addr addr = 0;
    std::uint32_t bytes = 0;
    mem::AccessType type = mem::AccessType::Read;
    mem::TrafficClass cls = mem::TrafficClass::Data;
    Cycle now = 0;
};

/** One call the replay made into a partition's MEE engine. */
struct MeeCall
{
    PartitionId partition = 0;
    bool write = false;
    LocalAddr local = 0;
    Addr phys = 0;
    Cycle now = 0;
    MemSpace space = MemSpace::Global;
};

/**
 * The benchmark-side metadata router. Live: every metadata request
 * goes to the partition's DramChannel and is recorded, with its
 * completion cycle. Canned: the recorded completions are returned in
 * order without touching DRAM, so an MEE-only replay sees the same
 * answers the live chain saw.
 */
class ReplayRouter : public mee::DramRouter
{
  public:
    std::vector<std::unique_ptr<mem::DramChannel>> *channels = nullptr;
    std::vector<DramRequest> *requests = nullptr;
    std::vector<Cycle> completions;
    std::size_t cursor = 0;
    bool canned = false;

    Cycle enqueueMeta(PartitionId target, Addr bank_addr,
                      std::uint32_t bytes, mem::AccessType type,
                      mem::TrafficClass cls, Cycle now) override
    {
        if (canned)
            return cursor < completions.size() ? completions[cursor++]
                                               : now;
        requests->push_back({target, bank_addr, bytes, type, cls, now});
        const Cycle done =
            (*channels)[target]->enqueue(now, bank_addr, bytes, type, cls)
                .complete;
        completions.push_back(done);
        return done;
    }
};

mem::CacheParams
l2Params(const gpu::GpuParams &p, PartitionId part, std::uint32_t bank)
{
    // Mirrors the simulator's per-bank L2 configuration.
    mem::CacheParams cp;
    cp.name = "l2";
    cp.sizeBytes = p.l2BankBytes;
    cp.blockBytes = 128;
    cp.sectorBytes = 32;
    cp.assoc = p.l2Assoc;
    cp.mshrs = p.l2Mshrs;
    cp.mshrMergeMax = p.l2MshrMerge;
    cp.writeAllocate = true;
    cp.fetchOnWriteMiss = false;
    cp.policy = p.l2Policy;
    cp.policySeed ^=
        (static_cast<std::uint64_t>(part) * p.l2BanksPerPartition + bank +
         1) *
        0x2545F4914F6CDD1Dull;
    return cp;
}

std::vector<std::unique_ptr<mem::SectoredCache>>
makeL2(const gpu::GpuParams &p)
{
    std::vector<std::unique_ptr<mem::SectoredCache>> l2;
    for (PartitionId part = 0; part < p.numPartitions; ++part)
        for (std::uint32_t b = 0; b < p.l2BanksPerPartition; ++b)
            l2.push_back(
                std::make_unique<mem::SectoredCache>(l2Params(p, part, b)));
    return l2;
}

using Channels = std::vector<std::unique_ptr<mem::DramChannel>>;

Channels
makeDram(const gpu::GpuParams &p)
{
    Channels dram;
    for (PartitionId part = 0; part < p.numPartitions; ++part)
        dram.push_back(std::make_unique<mem::DramChannel>(p.dram));
    return dram;
}

std::vector<std::unique_ptr<mee::MeeEngine>>
makeMee(const gpu::GpuParams &p, const mee::MeeParams &mp,
        const meta::MetadataLayout &layout, ReplayRouter &router,
        const mem::AddressMap &map)
{
    std::vector<std::unique_ptr<mee::MeeEngine>> mee;
    for (PartitionId part = 0; part < p.numPartitions; ++part)
        mee.push_back(std::make_unique<mee::MeeEngine>(
            mp, part, &layout, &router, nullptr, &map, nullptr));
    return mee;
}

/** Host copies of kernel @p k as per-partition local windows
 *  (the simulator's applyHostCopyRange). */
struct CopyWindow
{
    LocalAddr lo = 0;
    std::uint64_t bytes = 0;
    bool declared = false;
};

std::vector<CopyWindow>
copyWindows(const workload::WorkloadSpec &spec,
            const std::vector<Addr> &bases, const gpu::GpuParams &p,
            std::uint32_t k)
{
    std::vector<CopyWindow> out;
    const std::uint64_t stride = p.interleaveBytes * p.numPartitions;
    for (const auto &c : spec.kernels[k].preCopies) {
        if (!c.marksReadOnly)
            continue;
        const Addr base = bases.at(c.buffer);
        const std::uint64_t bytes = spec.buffers.at(c.buffer).bytes;
        LocalAddr lo = base / stride * p.interleaveBytes;
        LocalAddr hi = (base + bytes + stride - 1) / stride * p.interleaveBytes;
        hi = std::min<LocalAddr>(hi, p.protectedBytesPerPartition);
        lo = std::min(lo, hi);
        out.push_back({lo, hi - lo, c.declaredReadOnly});
    }
    return out;
}

} // namespace

LayerReplay
replayLayers(const workload::WorkloadSpec &spec, const gpu::GpuParams &p,
             std::uint64_t max_ops, Spans *spans, int parent,
             std::uint64_t op_id)
{
    LayerReplay r;
    Scope whole(spans, "replay", parent, op_id);
    const std::vector<Addr> bases = workload::layoutBuffers(spec);
    const mee::MeeParams mp = schemes::makeMeeParams(schemes::Scheme::Shm);
    const mem::AddressMap map(p.numPartitions, p.interleaveBytes);
    meta::LayoutParams lp;
    lp.chunkBytes = mp.streamDetector.chunkBytes;
    lp.bmtArity = mp.bmtArity;
    lp.macBytes = mp.macBytes;
    lp.dataBytes = p.protectedBytesPerPartition;
    const meta::MetadataLayout layout(lp);
    const std::uint32_t banks = p.l2BanksPerPartition;

    // workload: KernelTrace::next
    Stream stream;
    {
        Scope s(spans, "replay.KernelTrace::next", whole.id(), op_id);
        const auto t0 = Clock::now();
        stream = generateStream(spec, bases, p.numSms, max_ops);
        r.traceSeconds = secondsSince(t0);
    }
    const std::size_t n = stream.ops.size();
    r.ops = n;

    // mem: AddressMap::toLocal
    std::vector<mem::PartitionAddr> mapped(n);
    {
        Scope s(spans, "replay.AddressMap::toLocal", whole.id(), op_id);
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < n; ++i)
            mapped[i] = map.toLocal(stream.ops[i].addr);
        r.addrMapSeconds = secondsSince(t0);
    }

    auto kernel_at = [&](std::size_t i, std::uint32_t &k) {
        return k < stream.kernelStart.size() && stream.kernelStart[k] == i;
    };
    auto cycle_of = [&](std::size_t i) {
        return static_cast<Cycle>(i / p.numSms);
    };

    // The full chain: L2 -> DRAM data + MEE -> router -> DRAM metadata.
    // It records what each child layer was asked to do.
    std::vector<DramRequest> dram_requests;
    std::vector<MeeCall> mee_calls;
    std::vector<std::size_t> mee_kernel_start;
    ReplayRouter live;
    {
        Scope s(spans, "replay.chain", whole.id(), op_id);
        auto l2 = makeL2(p);
        auto dram = makeDram(p);
        live.channels = &dram;
        live.requests = &dram_requests;
        auto mee = makeMee(p, mp, layout, live, map);
        std::uint32_t k = 0;
        for (std::size_t i = 0; i < n; ++i) {
            while (kernel_at(i, k)) {
                if (k > 0)
                    for (auto &e : mee)
                        e->kernelBoundary(cycle_of(i));
                mee_kernel_start.push_back(mee_calls.size());
                for (const auto &w : copyWindows(spec, bases, p, k))
                    for (auto &e : mee)
                        e->hostCopy(w.lo, w.bytes, w.declared);
                ++k;
            }
            const StreamOp &op = stream.ops[i];
            const mem::PartitionAddr pa = mapped[i];
            const Cycle now = cycle_of(i);
            mem::SectoredCache &bank =
                *l2[pa.partition * banks + ((pa.local >> 7) & (banks - 1))];
            ++r.l2Accesses;
            const mem::CacheAccessResult res =
                bank.access(pa.local, 32, op.write);
            mem::Writeback wb;
            if (res.outcome == mem::CacheOutcome::WriteNoFetch) {
                wb = bank.takeInsertWriteback();
            } else if (res.outcome != mem::CacheOutcome::Hit) {
                const std::uint32_t mask = res.fetchMask ? res.fetchMask : 1u;
                wb = bank.fill(pa.local, mask);
                if (!op.write) {
                    const Cycle start = now + p.l2HitLatency;
                    const auto bytes =
                        static_cast<std::uint32_t>(std::popcount(mask)) * 32u;
                    dram_requests.push_back({pa.partition, pa.local, bytes,
                                             mem::AccessType::Read,
                                             mem::TrafficClass::Data, start});
                    dram[pa.partition]->enqueue(start, pa.local, bytes,
                                               mem::AccessType::Read,
                                               mem::TrafficClass::Data);
                    mee_calls.push_back({pa.partition, false, pa.local,
                                         op.addr, start, op.space});
                    mee[pa.partition]->onRead(pa.local, op.addr, start,
                                              op.space);
                }
            }
            if (wb.valid) {
                const auto bytes =
                    static_cast<std::uint32_t>(std::popcount(wb.dirtyMask)) *
                    32u;
                const Addr phys = map.toPhysical(pa.partition, wb.blockAddr);
                dram_requests.push_back({pa.partition, wb.blockAddr, bytes,
                                         mem::AccessType::Write,
                                         mem::TrafficClass::Data, now});
                dram[pa.partition]->enqueue(now, wb.blockAddr, bytes,
                                           mem::AccessType::Write,
                                           mem::TrafficClass::Data);
                mee_calls.push_back(
                    {pa.partition, true, wb.blockAddr, phys, now,
                     MemSpace::Global});
                mee[pa.partition]->onWrite(wb.blockAddr, phys, now);
            }
        }
    }
    r.dramRequests = dram_requests.size();
    for (const auto &c : mee_calls)
        (c.write ? r.meeWrites : r.meeReads) += 1;

    // mem: SectoredCache::access/fill alone.
    {
        Scope s(spans, "replay.SectoredCache::access", whole.id(), op_id);
        auto l2 = makeL2(p);
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < n; ++i) {
            const mem::PartitionAddr pa = mapped[i];
            mem::SectoredCache &bank =
                *l2[pa.partition * banks + ((pa.local >> 7) & (banks - 1))];
            const auto res = bank.access(pa.local, 32, stream.ops[i].write);
            if (res.outcome == mem::CacheOutcome::WriteNoFetch)
                bank.takeInsertWriteback();
            else if (res.outcome != mem::CacheOutcome::Hit)
                bank.fill(pa.local, res.fetchMask ? res.fetchMask : 1u);
        }
        r.l2Seconds = secondsSince(t0);
    }

    // mem: DramChannel::enqueue alone, on the recorded request list.
    {
        Scope s(spans, "replay.DramChannel::enqueue", whole.id(), op_id);
        auto dram = makeDram(p);
        const auto t0 = Clock::now();
        for (const auto &q : dram_requests)
            dram[q.target]->enqueue(q.now, q.addr, q.bytes, q.type, q.cls);
        r.dramSeconds = secondsSince(t0);
    }

    // mee: onRead/onWrite alone; metadata DRAM answers are canned.
    {
        Scope s(spans, "replay.MeeEngine::onRead/onWrite", whole.id(), op_id);
        ReplayRouter canned;
        canned.canned = true;
        canned.completions = live.completions;
        auto mee = makeMee(p, mp, layout, canned, map);
        const double pair = clockPairCost();
        std::size_t k = 0;
        for (std::size_t i = 0; i < mee_calls.size(); ++i) {
            while (k < mee_kernel_start.size() && mee_kernel_start[k] == i) {
                if (k > 0)
                    for (auto &e : mee)
                        e->kernelBoundary(mee_calls[i].now);
                for (const auto &w : copyWindows(spec, bases, p,
                                                 static_cast<std::uint32_t>(k)))
                    for (auto &e : mee)
                        e->hostCopy(w.lo, w.bytes, w.declared);
                ++k;
            }
            const MeeCall &c = mee_calls[i];
            const auto t0 = Clock::now();
            if (c.write)
                mee[c.partition]->onWrite(c.local, c.phys, c.now);
            else
                mee[c.partition]->onRead(c.local, c.phys, c.now, c.space);
            const double dt = secondsSince(t0) - pair;
            (c.write ? r.meeWriteSeconds : r.meeReadSeconds) += dt;
        }
    }

    // detect: the two detectors alone, on the MEE's input sequence.
    {
        Scope s(spans, "replay.StreamingDetector::access", whole.id(), op_id);
        std::vector<std::unique_ptr<detect::StreamingDetector>> det;
        for (PartitionId part = 0; part < p.numPartitions; ++part)
            det.push_back(std::make_unique<detect::StreamingDetector>(
                mp.streamDetector));
        std::vector<detect::DetectionEvent> events;
        events.reserve(64);
        const auto t0 = Clock::now();
        for (const auto &c : mee_calls) {
            det[c.partition]->access(c.local, c.write, c.now, events);
            events.clear();
        }
        r.streamingSeconds = secondsSince(t0);
    }
    {
        Scope s(spans, "replay.ReadOnlyDetector", whole.id(), op_id);
        std::vector<detect::ReadOnlyDetector> det(
            p.numPartitions, detect::ReadOnlyDetector(mp.roDetector));
        for (std::uint32_t k = 0; k < spec.kernels.size(); ++k)
            for (const auto &w : copyWindows(spec, bases, p, k))
                for (auto &d : det)
                    d.markInputRegion(w.lo, w.bytes);
        std::uint64_t ro = 0;
        const auto t0 = Clock::now();
        for (const auto &c : mee_calls) {
            if (c.write)
                ro += det[c.partition].recordWrite(c.local);
            else
                ro += det[c.partition].isReadOnly(c.local);
        }
        r.readOnlySeconds = secondsSince(t0);
        r.readOnlyHits = ro;
    }
    return r;
}

// ---------------------------------------------------------------------
// Crypto and metadata kernels
// ---------------------------------------------------------------------

CryptoTimes
timeCryptoKernels(std::uint64_t seed)
{
    CryptoTimes t;
    const crypto::KeyTuple keys = crypto::generateKeys(mix64(seed + 3));
    Rng rng(mix64(seed + 5));

    const crypto::CtrModeEngine ctr(keys.encryptionKey);
    std::vector<crypto::Seed> seeds(burstBlocks);
    std::vector<crypto::DataBlock> pads(burstBlocks);
    for (auto &s : seeds) {
        s.address = rng.below(1ull << 30) & blockMask;
        s.major = rng.below(1000);
        s.minor = rng.below(100);
    }
    constexpr int aesIters = 20000;
    auto t0 = Clock::now();
    for (int i = 0; i < aesIters; ++i) {
        seeds[i % burstBlocks].minor += 1;
        ctr.generatePads(seeds.data(), pads.data(), burstBlocks);
    }
    t.aesNsPerBlock = secondsSince(t0) * 1e9 / (aesIters * burstBlocks);

    const crypto::MacEngine mac(keys.macKey);
    std::vector<crypto::BlockMacInput> jobs(burstBlocks);
    std::vector<crypto::Mac> macs(burstBlocks);
    for (std::size_t i = 0; i < burstBlocks; ++i)
        jobs[i] = {&pads[i], seeds[i].address, seeds[i].major, seeds[i].minor,
                   0};
    constexpr int macIters = 20000;
    t0 = Clock::now();
    for (int i = 0; i < macIters; ++i) {
        jobs[i % burstBlocks].minor += 1;
        mac.blockMacBatch(jobs, macs.data());
    }
    t.macNsPerBlock = secondsSince(t0) * 1e9 / (macIters * burstBlocks);

    meta::LayoutParams lp;
    lp.dataBytes = 64ull << 20;
    const meta::MetadataLayout layout(lp);
    meta::CounterStore counters(layout);
    meta::BonsaiTree tree(layout, counters, keys.treeKey);
    constexpr int bmtIters = 100000;
    t0 = Clock::now();
    for (int i = 0; i < bmtIters; ++i) {
        const std::uint64_t leaf = rng.below(layout.numCounterBlocks());
        counters.increment(leaf * 8192 % lp.dataBytes);
        tree.updatePath(leaf);
    }
    t.bmtUpdateNs = secondsSince(t0) * 1e9 / bmtIters;
    return t;
}

} // namespace perfbench
