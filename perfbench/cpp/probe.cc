/**
 * @file
 * The traced run's layer probe. It takes the workload's own inputs
 * (probe specs, its kernel cap, a multi-tenant mix) and measures every
 * layer on them, so each traced run reports the same per-layer
 * metrics whatever the workload:
 *
 *  - gpu: GpuSimulator construction and run under SHM at the
 *    workload's cap, with the stats tree giving the "sim" counts;
 *  - core/detect, at the figure benches' 100k-cycle cap on every
 *    workload: one baseline pass through BaselineCache::metricsFor and
 *    the same pass with collectProfile attached, an attributed SHM run
 *    for read-only prediction accuracy, and the scenario engine's truth
 *    pass, measured run and solo references;
 *  - workload/mem/mee/detect: the layer replay of layers.cc;
 *  - mee (functional), crypto, meta: the secure-memory replay and the
 *    crypto/metadata kernels.
 *
 * Each layer's share of a cell is estimated as (replay host ns per
 * operation) x (the operation count the simulator's stats tree reports
 * for the same spec); their sum over gpu.run_s is trace.coverage_frac.
 */

#include <cstdio>
#include <memory>

#include "core/experiment.hh"
#include "core/scenario.hh"
#include "detect/oracle.hh"
#include "gpu/simulator.hh"
#include "layers.hh"
#include "perfbench.hh"
#include "schemes/schemes.hh"

namespace perfbench
{

using namespace shmgpu;
using schemes::Scheme;

namespace
{

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0;
}

double
stat(const std::map<std::string, double> &s, const std::string &key)
{
    auto it = s.find(key);
    return it == s.end() ? 0 : it->second;
}

std::string
crossCheck(const char *what, double replayed, double in_situ)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "  %-14s replay %.0f vs stats tree %.0f (mismatch %+.2f%%)",
                  what, replayed, in_situ,
                  in_situ != 0 ? 100.0 * (replayed - in_situ) / in_situ : 0);
    return buf;
}

} // namespace

void
perLayerMetrics(Context &ctx, const TracedCells &cells,
                const ProbeInputs &probe, Outcome &out)
{
    Spans *spans = ctx.spans;
    Scope root(spans, "probe");
    const mee::MeeParams shm = schemes::makeMeeParams(Scheme::Shm);
    const mee::MeeParams base = schemes::makeMeeParams(Scheme::Baseline);
    const gpu::GpuParams gp = benchGpu(probe.cap);
    // Reference passes run at the figure benches' cap on every workload.
    const gpu::GpuParams gs = benchGpu(figureCap);

    double init_s = 0, run_s = 0, instructions = 0, cycles = 0;
    double plain_s = 0, profile_s = 0, estimate_s = 0;
    double ro_correct = 0, ro_total = 0;
    double replay_ops = 0, in_situ_ops = 0;
    std::map<std::string, double> sim;
    gpu::RunMetrics traffic;
    LayerReplay lr_sum;
    double host_copy_bytes = 0, host_copy_s = 0;
    double burst_s = 0, bursts = 0, write_s = 0, writes = 0;
    double injections = 0, detected = 0;

    for (std::size_t i = 0; i < probe.specs.size(); ++i) {
        const workload::WorkloadSpec &spec = probe.specs[i];
        Scope per(spans, "probe." + spec.name, root.id(), i);

        core::BaselineCache baselines(gs);
        {
            Scope s(spans, "BaselineCache::metricsFor", per.id(), i);
            const auto t0 = Clock::now();
            baselines.metricsFor(spec);
            plain_s += secondsSince(t0);
        }
        detect::AccessProfile profile(gp.numPartitions,
                                      shm.roDetector.regionBytes,
                                      shm.streamDetector.chunkBytes);
        {
            Scope s(spans, "detect.profile_pass", per.id(), i);
            const auto t0 = Clock::now();
            gpu::GpuSimulator pass(gs, base, spec);
            pass.collectProfile(&profile);
            pass.run();
            profile_s += secondsSince(t0);
        }

        std::unique_ptr<gpu::GpuSimulator> run;
        {
            Scope s(spans, "GpuSimulator::GpuSimulator", per.id(), i);
            const auto t0 = Clock::now();
            run = std::make_unique<gpu::GpuSimulator>(gp, shm, spec);
            init_s += secondsSince(t0);
        }
        gpu::RunMetrics m;
        double spec_run_s = 0;
        {
            Scope s(spans, "GpuSimulator::run", per.id(), i);
            const auto t0 = Clock::now();
            m = run->run();
            spec_run_s = secondsSince(t0);
        }
        run_s += spec_run_s;
        instructions += static_cast<double>(m.instructions);
        cycles += static_cast<double>(m.cycles);
        traffic.bytesData += m.bytesData;
        traffic.bytesCounter += m.metadataBytes();
        const auto st = foldedStats(run->statsRoot());
        for (const auto &[k, v] : st)
            sim[k] += v;
        run.reset();

        {
            Scope s(spans, "detect.attributed_run", per.id(), i);
            gpu::GpuSimulator attributed(gs, shm, spec);
            attributed.attributeAgainst(&profile);
            const gpu::RunMetrics am = attributed.run();
            ro_correct += am.roCorrect;
            ro_total += am.roCorrect + am.roMpInit + am.roMpAliasing;
        }

        // A capped run consumes only part of the stream; replay about
        // as many ops as it did.
        const double requests = stat(st, "sim.icnt.requests");
        const std::uint64_t max_ops =
            stat(st, "sim.cycle_cap_hits") > 0
                ? static_cast<std::uint64_t>(requests)
                : ~std::uint64_t{0};
        const LayerReplay lr =
            replayLayers(spec, gp, max_ops, spans, per.id(), i);
        replay_ops += static_cast<double>(lr.ops);
        in_situ_ops += requests;
        out.note("replay cross-check, " + spec.name + ":");
        out.note(crossCheck("ops", static_cast<double>(lr.ops), requests));
        out.note(crossCheck("L2 accesses", static_cast<double>(lr.l2Accesses),
                            stat(st, "sim.l2.accesses")));
        out.note(crossCheck("MEE reads", static_cast<double>(lr.meeReads),
                            stat(st, "sim.mee.reads")));
        out.note(crossCheck("MEE writes", static_cast<double>(lr.meeWrites),
                            stat(st, "sim.mee.writes")));
        const double per_op = ratio(lr.traceSeconds + lr.addrMapSeconds,
                                    static_cast<double>(lr.ops));
        estimate_s +=
            per_op * requests +
            ratio(lr.l2Seconds, static_cast<double>(lr.l2Accesses)) *
                stat(st, "sim.l2.accesses") +
            ratio(lr.dramSeconds, static_cast<double>(lr.dramRequests)) *
                (stat(st, "sim.dram.reads") + stat(st, "sim.dram.writes")) +
            ratio(lr.meeReadSeconds, static_cast<double>(lr.meeReads)) *
                stat(st, "sim.mee.reads") +
            ratio(lr.meeWriteSeconds, static_cast<double>(lr.meeWrites)) *
                stat(st, "sim.mee.writes");
        lr_sum.ops += lr.ops;
        lr_sum.traceSeconds += lr.traceSeconds;
        lr_sum.addrMapSeconds += lr.addrMapSeconds;
        lr_sum.l2Seconds += lr.l2Seconds;
        lr_sum.l2Accesses += lr.l2Accesses;
        lr_sum.dramSeconds += lr.dramSeconds;
        lr_sum.dramRequests += lr.dramRequests;
        lr_sum.meeReadSeconds += lr.meeReadSeconds;
        lr_sum.meeReads += lr.meeReads;
        lr_sum.meeWriteSeconds += lr.meeWriteSeconds;
        lr_sum.meeWrites += lr.meeWrites;
        lr_sum.streamingSeconds += lr.streamingSeconds;
        lr_sum.readOnlySeconds += lr.readOnlySeconds;

        std::unique_ptr<SecureImage> img;
        {
            Scope s(spans, "SecureMemoryContext::hostWriteRange", per.id(), i);
            img = loadSecureImage(spec, ctx.options.seed);
        }
        host_copy_bytes += img->hostCopyBytes;
        host_copy_s += img->hostCopySeconds;
        {
            Scope s(spans, "SecureMemoryContext.replay", per.id(), i);
            const SecureStats fs = replaySecure(*img, spec, ctx.options.seed,
                                                secureOpsPerStream, out);
            for (double b : fs.burstSeconds)
                burst_s += b;
            bursts += static_cast<double>(fs.burstSeconds.size());
            write_s += fs.writeSeconds;
            writes += static_cast<double>(fs.writes);
            injections += static_cast<double>(fs.injections);
            detected += static_cast<double>(fs.detected);
        }
    }

    // Scenario engine, at the figure benches' cap.
    double truth_s = 0, scenario_s = 0, solo_s = 0;
    gpu::ScenarioMetrics sm;
    {
        Scope scn(spans, "probe.scenario", root.id());
        detect::AccessProfile profile(gs.numPartitions,
                                      shm.roDetector.regionBytes,
                                      shm.streamDetector.chunkBytes);
        {
            Scope s(spans, "scenario.truth_pass", scn.id());
            const auto t0 = Clock::now();
            gpu::GpuSimulator truth(gs, base, probe.scenario);
            truth.collectProfile(&profile);
            Scope r(spans, "GpuSimulator::runScenario", s.id());
            truth.runScenario();
            truth_s = secondsSince(t0);
        }
        gpu::GpuSimulator measured(gs, shm, probe.scenario);
        measured.attributeAgainst(&profile);
        {
            Scope s(spans, "GpuSimulator::runScenario", scn.id());
            const auto t0 = Clock::now();
            sm = measured.runScenario();
            scenario_s = secondsSince(t0);
        }
        core::ScenarioSoloCache solos(gs);
        for (const auto &t : probe.scenario.tenants) {
            Scope s(spans, "ScenarioSoloCache::soloFor", scn.id());
            const auto t0 = Clock::now();
            solos.soloFor(Scheme::Shm, t.workload, probe.scenario.keySeed,
                          mem::PolicyKind::Lru);
            solo_s += secondsSince(t0);
        }
    }

    CryptoTimes ct;
    {
        Scope s(spans, "crypto_meta.kernels", root.id());
        ct = timeCryptoKernels(ctx.options.seed);
    }

    const double l2_acc = stat(sim, "sim.l2.accesses");
    auto hit_rate = [&](const std::string &cache) {
        return ratio(stat(sim, "sim.mee." + cache + ".hits"),
                     stat(sim, "sim.mee." + cache + ".accesses"));
    };

    out.add("core.cell_busy_s", cells.busy, "s");
    out.add("core.pool_idle_frac",
            1 - ratio(cells.busy, cells.workers * cells.tracedWall),
            "fraction");
    out.add("core.baseline_s", spans->total("BaselineCache::metricsFor"), "s");
    out.add("core.baseline_sims", cells.baselineSims, "count");
    out.add("core.scenario_truth_s", truth_s, "s");
    out.add("core.solo_s", solo_s, "s");
    out.add("gpu.init_s", init_s, "s");
    out.add("gpu.run_s", run_s, "s");
    out.add("gpu.ns_per_instr", ratio(run_s * 1e9, instructions), "ns");
    out.add("gpu.ns_per_cycle", ratio(run_s * 1e9, cycles), "ns");
    out.add("gpu.scenario_ns_per_instr",
            ratio(scenario_s * 1e9,
                  static_cast<double>(sm.total.instructions)),
            "ns");
    out.add("gpu.cycles_skipped_frac",
            ratio(stat(sim, "sim.cycles_skipped"), stat(sim, "sim.cycles")),
            "fraction");
    out.add("gpu.window_stalls", stat(sim, "sim.window_stalls"), "count");
    out.add("gpu.icnt_requests", stat(sim, "sim.icnt.requests"), "count");
    out.add("gpu.context_switches", static_cast<double>(sm.contextSwitches),
            "count");
    out.add("workload.trace_ops", static_cast<double>(lr_sum.ops), "count");
    out.add("workload.trace_ns_per_op",
            ratio(lr_sum.traceSeconds * 1e9, static_cast<double>(lr_sum.ops)),
            "ns");
    out.add("mem.l2_ns_per_access",
            ratio(lr_sum.l2Seconds * 1e9,
                  static_cast<double>(lr_sum.l2Accesses)),
            "ns");
    out.add("mem.addr_map_ns",
            ratio(lr_sum.addrMapSeconds * 1e9, static_cast<double>(lr_sum.ops)),
            "ns");
    out.add("mem.dram_ns_per_enqueue",
            ratio(lr_sum.dramSeconds * 1e9,
                  static_cast<double>(lr_sum.dramRequests)),
            "ns");
    out.add("mem.l2_accesses", l2_acc, "count");
    out.add("mem.l2_hit_rate", ratio(stat(sim, "sim.l2.hits"), l2_acc),
            "fraction");
    out.add("mem.l2_writebacks", stat(sim, "sim.l2.writebacks"), "count");
    out.add("mem.dram_reads", stat(sim, "sim.dram.reads"), "count");
    out.add("mem.dram_writes", stat(sim, "sim.dram.writes"), "count");
    out.add("mem.dram_row_hit_rate",
            ratio(stat(sim, "sim.dram.row_hits"),
                  stat(sim, "sim.dram.row_hits") +
                      stat(sim, "sim.dram.row_misses")),
            "fraction");
    out.add("mem.dram_bytes_data", static_cast<double>(traffic.bytesData),
            "B");
    out.add("mem.dram_bytes_meta", static_cast<double>(traffic.bytesCounter),
            "B");
    out.add("mee.on_read_ns",
            ratio(lr_sum.meeReadSeconds * 1e9,
                  static_cast<double>(lr_sum.meeReads)),
            "ns");
    out.add("mee.on_write_ns",
            ratio(lr_sum.meeWriteSeconds * 1e9,
                  static_cast<double>(lr_sum.meeWrites)),
            "ns");
    out.add("mee.reads", stat(sim, "sim.mee.reads"), "count");
    out.add("mee.writes", stat(sim, "sim.mee.writes"), "count");
    out.add("mee.counter_cache_hit_rate", hit_rate("counter_cache"),
            "fraction");
    out.add("mee.mac_cache_hit_rate", hit_rate("mac_cache"), "fraction");
    out.add("mee.bmt_cache_hit_rate", hit_rate("bmt_cache"), "fraction");
    out.add("mee.bmt_traversals", stat(sim, "sim.mee.bmt_traversals"),
            "count");
    out.add("mee.shared_ctr_reads", stat(sim, "sim.mee.shared_ctr_reads"),
            "count");
    out.add("mee.mispred_bytes", stat(sim, "sim.mee.mispred_bytes"), "B");
    out.add("mee.adapt_reenc_bytes", cells.adaptReencBytes, "B");
    out.add("mee.func_read_burst_us", ratio(burst_s * 1e6, bursts), "us");
    out.add("mee.func_write_us", ratio(write_s * 1e6, writes), "us");
    out.add("mee.func_host_copy_mb_per_s",
            ratio(host_copy_bytes / 1e6, host_copy_s), "MB/s");
    out.add("mee.func_tamper_detected_frac", ratio(detected, injections),
            "fraction");
    out.add("crypto.aes_ns_per_block", ct.aesNsPerBlock, "ns");
    out.add("crypto.mac_ns_per_block", ct.macNsPerBlock, "ns");
    out.add("meta.bmt_update_ns", ct.bmtUpdateNs, "ns");
    out.add("detect.profile_pass_s", profile_s, "s");
    out.add("detect.profile_plain_s", plain_s, "s");
    out.add("detect.streaming_ns_per_access",
            ratio(lr_sum.streamingSeconds * 1e9,
                  static_cast<double>(lr_sum.meeReads + lr_sum.meeWrites)),
            "ns");
    out.add("detect.readonly_ns_per_lookup",
            ratio(lr_sum.readOnlySeconds * 1e9,
                  static_cast<double>(lr_sum.meeReads + lr_sum.meeWrites)),
            "ns");
    out.add("detect.ro_accuracy", ratio(ro_correct, ro_total), "fraction");
    for (const char *scheme : {"Naive", "Common_ctr", "PSSM", "SHM",
                               "SHM_upper_bound"}) {
        double v = 0;
        for (const auto &m : cells.model)
            if (m.name == std::string("model.norm_ipc_gmean.") + scheme)
                v = m.value;
        out.add(std::string("model.norm_ipc_gmean.") + scheme, v, "ratio");
    }
    for (const char *scheme : {"Naive", "Common_ctr", "PSSM", "SHM",
                               "SHM_upper_bound"}) {
        double v = 0;
        for (const auto &m : cells.model)
            if (m.name == std::string("model.paper_gap_pp.") + scheme)
                v = m.value;
        out.add(std::string("model.paper_gap_pp.") + scheme, v, "pp");
    }
    out.add("trace.overhead_frac",
            ratio(cells.tracedWall - cells.untracedWall, cells.untracedWall),
            "fraction");
    out.add("trace.coverage_frac", ratio(estimate_s, run_s), "fraction");
    out.add("trace.replay_op_mismatch_frac",
            ratio(replay_ops - in_situ_ops, in_situ_ops), "fraction");
}

} // namespace perfbench
