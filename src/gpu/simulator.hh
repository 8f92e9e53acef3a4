/**
 * @file
 * The top-level trace-driven GPU simulator.
 *
 * Thirty SM request generators execute a workload's kernels (compute
 * instructions at one per cycle, memory instructions as 32 B sector
 * accesses), an interleaved address map routes sectors to twelve
 * memory partitions (two L2 banks + MEE + GDDR channel each), and an
 * outstanding-load window per SM provides latency tolerance. IPC is
 * instructions retired over cycles; every metadata byte contends for
 * the same GDDR channels as the data — the effect the paper measures.
 */

#ifndef SHMGPU_GPU_SIMULATOR_HH
#define SHMGPU_GPU_SIMULATOR_HH

#include <memory>
#include <vector>

#include "common/calendar_queue.hh"
#include "common/dary_heap.hh"
#include "common/stats.hh"
#include "common/trace.hh"
#include "detect/oracle.hh"
#include "gpu/metrics.hh"
#include "gpu/params.hh"
#include "gpu/interconnect.hh"
#include "gpu/partition.hh"
#include "mee/engine.hh"
#include "mem/addr_map.hh"
#include "meta/counters.hh"
#include "meta/layout.hh"
#include "workload/benchmarks.hh"
#include "workload/scenario.hh"
#include "workload/trace.hh"
#include "workload/trace_file.hh"

namespace shmgpu::gpu
{

/** A full GPU + secure-memory simulation of one workload. */
class GpuSimulator : public mee::DramRouter
{
  public:
    GpuSimulator(const GpuParams &gpu_params,
                 const mee::MeeParams &mee_params,
                 const workload::WorkloadSpec &workload);

    /**
     * Trace-driven mode (Accel-Sim style): replay a recorded trace
     * through the full memory system instead of generating accesses
     * from a workload model.
     */
    GpuSimulator(const GpuParams &gpu_params,
                 const mee::MeeParams &mee_params,
                 const workload::Trace &trace);

    /**
     * Multi-tenant scenario mode: N tenant contexts multiplexed over
     * one GPU by the scenario's share policy — time-sliced context
     * switching (per-quantum ownership of every SM and partition,
     * detector state flushed/re-armed at each switch) or MIG-style
     * static SM/partition splits. Drive with runScenario().
     */
    GpuSimulator(const GpuParams &gpu_params,
                 const mee::MeeParams &mee_params,
                 const workload::ScenarioSpec &scenario);

    ~GpuSimulator() override;

    /** Collect a ground-truth profile while running (pass 1). */
    void collectProfile(detect::AccessProfile *profile);

    /** Attach truth for Fig. 10/11 misprediction attribution. */
    void attributeAgainst(const detect::AccessProfile *profile);

    /** Prime detectors from a profile (SHM_upper_bound). */
    void primeFromProfile(const detect::AccessProfile &profile);

    /**
     * Attach a flight recorder (see common/trace.hh). The tracer must
     * have numPartitions + 1 lanes: one per partition plus the SM
     * scheduler lane; this call names the lanes. Call before run();
     * pass null to detach.
     */
    void attachTracer(trace::Tracer *t);

    /** Run every kernel of the workload; returns the metrics. */
    RunMetrics run();

    /** Run a multi-tenant scenario (scenario constructor only). */
    ScenarioMetrics runScenario();

    /** mee::DramRouter: metadata transactions from the MEEs. */
    Cycle enqueueMeta(PartitionId target, Addr bank_addr,
                      std::uint32_t bytes, mem::AccessType type,
                      mem::TrafficClass cls, Cycle now) override;

    Partition &partition(PartitionId p) { return *partitions.at(p); }
    stats::StatGroup &statsRoot() { return rootStats; }

  private:
    struct SmUnit
    {
        workload::TraceOp op;
        /** Partition mapping of op.addr, computed once at op fetch so
         *  window-stall retries do not redo the address math. */
        mem::PartitionAddr pa;
        bool hasOp = false;
        std::uint32_t computeLeft = 0;
        std::uint32_t outstanding = 0;
        bool drained = false;
        std::uint64_t instructions = 0;
        std::uint64_t windowStalls = 0;
        /** Completion cycles of this SM's in-flight loads (event
         *  engine); the earliest one is a stalled SM's retry cycle. */
        DaryHeap<Cycle> inflight;
    };

    /**
     * One kernel launch's event-engine state over a slice of the GPU.
     * A plain run builds one per kernel for the whole GPU; a scenario
     * tenant keeps one in its context, so a kernel can pause at a
     * slice boundary and resume with the exact arithmetic an
     * uninterrupted run would have done.
     */
    struct KernelRun
    {
        /** @{ Resource slice: the SMs and partitions the kernel runs
         *  on and the map that routes its addresses into them (the
         *  whole GPU and the global map outside partitioned
         *  scenarios). */
        std::uint32_t smLo = 0, smHi = 0;
        PartitionId partLo = 0, partHi = 0;
        const mem::AddressMap *addrMap = nullptr;
        /** @} */

        std::uint32_t window = 0;        //!< per-SM outstanding loads
        Cycle kernelStart = 0;
        Cycle capEnd = 0;                //!< cycle budget ends here
        Cycle maxCompletion = 0;         //!< latest load completion
        Cycle lastDrain = 0;             //!< cycle the last SM drained
        Cycle cursor = invalidCycle;     //!< cycle of the last event
        std::uint64_t busyCycles = 0;    //!< distinct event cycles
        std::uint32_t drained = 0;       //!< SMs whose trace ran out
        std::uint64_t eventsPending = 0; //!< this run's calendar events

        std::uint32_t numSms() const { return smHi - smLo; }
        std::uint32_t numParts() const
        {
            return static_cast<std::uint32_t>(partHi - partLo);
        }
    };

    /**
     * One tenant's execution context in a scenario run. Owns the
     * tenant's address layout, its kernel run and — in time-sliced
     * mode — the saved SM/calendar state between dispatches.
     */
    struct TenantContext
    {
        enum class State : std::uint8_t
        {
            NotArrived, //!< waiting for arrivalCycle (wake = arrival)
            Running,    //!< mid-kernel (dispatchable any time)
            Draining,   //!< SMs done, loads in flight (wake = kernel end)
            Finished    //!< every kernel retired
        };

        const workload::TenantSpec *spec = nullptr;
        std::uint16_t id = 0;
        std::vector<Addr> bufferBases;

        /** Partitioned mode's private map over the tenant's
         *  partitions (run.addrMap points at it). */
        std::unique_ptr<mem::AddressMap> ownedMap;

        State state = State::NotArrived;
        Cycle wake = 0; //!< earliest useful dispatch (NotArrived/Draining)

        /** @{ Current kernel. Time-sliced: the slice is the whole
         *  GPU and the global map. Partitioned: contiguous SM and
         *  partition ranges and ownedMap. */
        KernelRun run;
        std::uint32_t nextKernel = 0;
        std::unique_ptr<workload::KernelTrace> source;
        bool kernelActive = false;
        std::uint64_t kernelTraceIdx = 0;
        /** @} */

        /** @{ Saved context between time-sliced dispatches: the SM
         *  units verbatim, calendar events as deltas against the
         *  switch cycle (re-based on resume: progress freezes while
         *  preempted, in-flight completions stay absolute), and the
         *  remaining kernel cycle budget. */
        std::vector<SmUnit> savedSms;
        std::vector<std::pair<Cycle, std::uint32_t>> savedEvents;
        Cycle capLeft = 0;
        /** @} */

        /** Input ranges marked read-only so far, replayed through the
         *  InputReadOnlyReset path at every switch-in. */
        struct ArmedRange
        {
            LocalAddr lo = 0;
            std::uint64_t len = 0;
            bool declared = false;
        };
        std::vector<ArmedRange> armedRanges;

        /** @{ Results. */
        Cycle startCycle = 0;
        Cycle finishCycle = 0;
        std::uint64_t instructions = 0;
        std::uint64_t windowStalls = 0;
        std::uint64_t kernelsRun = 0;
        std::uint64_t dispatches = 0;
        /** @} */
    };

    void init();
    void initScenario();
    void applyHostCopyRange(Addr base, std::uint64_t bytes,
                            bool declared_read_only);
    /** Host copy over a tenant's partition slice (records the range
     *  for switch-in re-arming when it marks regions read-only). */
    void applyTenantHostCopy(TenantContext &t, Addr base,
                             std::uint64_t bytes, bool declared_read_only);
    /** @{ Scenario engine (scenario_run.cc). */
    void runTimeSliced();
    void runPartitioned();
    Cycle runTenantSlice(TenantContext &t, Cycle now, Cycle slice_end);
    void startTenantKernel(TenantContext &t, Cycle at);
    void advanceTenantKernel(TenantContext &t, Cycle at);
    void contextSwitchTo(std::uint32_t pick, Cycle now);
    ScenarioMetrics gatherScenarioMetrics() const;
    /** @} */
    void runKernel(std::uint32_t kernel_idx);
    template <typename Source>
    void runKernelLoop(Source &source, std::uint32_t window);
    /** Event-driven engine: jumps between SM ready cycles. */
    template <typename Source>
    void eventKernelLoop(Source &source, std::uint32_t window);
    /** @{ The event engine's pieces, shared by eventKernelLoop and
     *  the scenario engine: launch a kernel over @p k's slice at
     *  @p at, run its calendar events before @p limit, step one SM
     *  through one event, and wind the clock to the kernel's end once
     *  its calendar is empty (returns the end cycle). */
    void beginKernel(KernelRun &k, std::uint32_t window, Cycle at);
    template <typename Source>
    void drainCalendar(KernelRun &k, Source &source, Cycle limit);
    template <typename Source>
    void stepSm(KernelRun &k, Source &source, SmId sm, Cycle now);
    Cycle kernelTail(KernelRun &k);
    /** @} */
    /** Per-cycle reference engine (the original loop); selected by
     *  GpuParams::referenceKernelLoop, kept as the differential-test
     *  oracle the event engine must match bit for bit. */
    template <typename Source>
    void referenceKernelLoop(Source &source, std::uint32_t window);
    template <typename Source>
    void tickSm(SmId sm, Source &source, Cycle now);
    RunMetrics gatherMetrics() const;

    GpuParams gpuConfig;
    mee::MeeParams meeConfig;
    const workload::WorkloadSpec *spec = nullptr;
    const workload::Trace *trace = nullptr;
    const workload::ScenarioSpec *scenario = nullptr;
    std::vector<Addr> bufferBases;

    /** @{ Scenario state (empty outside scenario mode). Plain members,
     *  not stats scalars, so a single-tenant scenario's stats tree is
     *  byte-identical to the legacy path's. */
    std::vector<TenantContext> tenants;
    std::vector<std::uint16_t> tenantOfSm; //!< partitioned-mode lookup
    int activeTenant = -1;
    std::uint64_t scenarioSwitches = 0;
    std::uint64_t scenarioFlushWbs = 0;
    /** @} */

    mem::AddressMap map;
    Interconnect icnt;
    /** Per-partition layout (local addressing) or global (physical). */
    std::unique_ptr<meta::MetadataLayout> layout;
    std::unique_ptr<meta::MetadataLayout> globalLayout;
    /** Common-counter tables: per partition (local) or one shared. */
    std::vector<std::unique_ptr<meta::CommonCounterTable>> commonTables;

    std::vector<std::unique_ptr<Partition>> partitions;
    std::vector<SmUnit> sms;

    using Completion = std::pair<Cycle, SmId>;
    /** Min-heap of in-flight load completions (reference engine);
     *  pop order matches the std::priority_queue<...,
     *  std::greater<>> it replaced. */
    DaryHeap<Completion> completions;
    /** Ready-cycle calendar of SM events (event engine); sized for
     *  numSms ids in init(). */
    CalendarQueue calendar{1};

    /** Flight recorder; null (the default) means tracing is off. The
     *  SM scheduler emits on lane smLane = numPartitions. */
    trace::Tracer *tracer = nullptr;
    std::uint32_t smLane = 0;

    Cycle currentCycle = 0;
    /** @{ Reference engine only (the event engine keeps these in its
     *  KernelRun). */
    std::uint32_t currentWindow = 0; //!< per-kernel occupancy cap
    std::uint32_t drainedCount = 0;  //!< SMs whose trace is exhausted
    /** @} */
    /** Cycles the event engine advanced over without enumerating. */
    std::uint64_t cyclesSkipped = 0;
    detect::AccessProfile *collector = nullptr;
    /** Profile primeFromProfile was last applied from, kept so every
     *  scenario context switch can re-prime the incoming tenant's
     *  partitions after the switch-time detector flush (otherwise
     *  SHM_upper_bound degrades to learned-from-scratch after the
     *  first quantum). Owned by the caller, outlives the run. */
    const detect::AccessProfile *primedProfile = nullptr;

    stats::StatGroup rootStats;
    stats::Scalar statCycles;
    stats::Scalar statInstructions;
    stats::Scalar statWindowStalls;
    stats::Scalar statKernelsRun;
    stats::Scalar statCycleCapHits;
    stats::Scalar statCyclesSkipped;
};

} // namespace shmgpu::gpu

#endif // SHMGPU_GPU_SIMULATOR_HH
