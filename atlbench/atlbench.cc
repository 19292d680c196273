/**
 * @file
 * The repository benchmark: runs one named workload of simulator cells
 * at a given seed, checks every cell's output, and prints the
 * end-to-end metrics (timed run) or the per-layer metrics (traced run)
 * as one JSON object on the last line of standard output.
 *
 * Only the public layer entry points are called: Machine construction,
 * Workload::setup, Machine::run, Workload::verify, Tracer,
 * FootprintMonitor, FaultInjector, EventLog and MetricsRegistry. Cells
 * run one after another on this thread on the default engine, each on
 * a fresh Machine whose caches start empty.
 *
 * Usage:
 *   atlbench --workload <smp8|uni1|footprint|hint_faults> --seed <n>
 *            --seconds <s> --trace <0|1> [--out <dir>]
 *
 * See README.md beside this file for the workloads and metrics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "atl/fault/fault.hh"
#include "atl/obs/event_log.hh"
#include "atl/obs/metrics.hh"
#include "atl/sim/experiment.hh"
#include "atl/sim/tracer.hh"
#include "atl/util/json.hh"
#include "atl/util/logging.hh"
#include "atl/workloads/barnes.hh"
#include "atl/workloads/mergesort.hh"
#include "atl/workloads/ocean.hh"
#include "atl/workloads/photo.hh"
#include "atl/workloads/tasks.hh"
#include "atl/workloads/tsp.hh"
#include "atl/workloads/water.hh"

using namespace atl;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** User + system CPU seconds of this process so far. */
double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

/** Peak resident set of this process, in MB. */
double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KB
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** num / den, or 0 when nothing was measured. */
double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

// ---------------------------------------------------------------------
// Host-speed yardstick
// ---------------------------------------------------------------------

/** Size of the calibration loop's table, resident from the first
 *  timed pass on. */
constexpr size_t kCalTableBytes = size_t{8} << 20;

/** Keeps the calibration loop's result alive. */
volatile uint64_t gCalSink = 0;

/** Wall and CPU seconds of one run of the calibration loop. */
struct CalTime
{
    double wall = 0.0;
    double cpu = 0.0;
};

/**
 * A fixed loop that stands in for the host's speed: 2^20 lookups in an
 * 8 MB direct-mapped tag table, three in four of them to the next
 * 64-byte line and the rest to a random one, as a cache model's
 * lookups go. On a shared host the speed a process gets can drift by
 * up to 2x over minutes, through contention it cannot see; the timed
 * metrics divide each cell's time by this loop's time around it,
 * which takes part of that drift out. The loop belongs to the
 * benchmark, not the simulator, so no change to the simulator moves
 * it. Changing it makes results before and after the change
 * incomparable.
 */
CalTime
calibrationLoop()
{
    static std::vector<uint64_t> tags(kCalTableBytes / sizeof(uint64_t));
    uint64_t x = 88172645463325252ull, addr = 0, hits = 0;
    double cpu0 = processCpuSeconds();
    auto t0 = Clock::now();
    for (uint32_t i = 0; i < (1u << 20); ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        addr = (x & 3) ? addr + 64 : x >> 16;
        uint64_t line = addr >> 6;
        uint64_t &tag = tags[(line * 0x9E3779B97F4A7C15ull) >> 44];
        if (tag == line)
            ++hits;
        else
            tag = line;
    }
    CalTime t{secondsBetween(t0, Clock::now()), processCpuSeconds() - cpu0};
    gCalSink = hits;
    return t;
}

std::string
lower(std::string s)
{
    for (char &c : s)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

// ---------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------

/** The seed the existing bench binaries' parameters correspond to. */
constexpr uint64_t kDefaultSeed = 1;

/** Input seed of one application: its bench default at kDefaultSeed,
 *  a distinct value for every other benchmark seed. */
uint64_t
appSeed(uint64_t bench_default, uint64_t seed)
{
    return bench_default + (seed - kDefaultSeed) * 7919;
}

/** One simulation of a workload: an application on a platform. */
struct CellSpec
{
    std::string app;
    PolicyKind policy = PolicyKind::FCFS;
    unsigned cpus = 1;
    /** Run under the hint-only fault plan. */
    bool faults = false;
    /** A Fig 5 model-accuracy run (Tracer + FootprintMonitor). */
    bool monitored = false;

    std::string
    label() const
    {
        return app + "." + lower(policyName(policy));
    }
};

const char *const kTable4Apps[] = {"tasks", "merge", "photo", "tsp"};
const char *const kAnnotatedApps[] = {"merge", "photo", "tsp"};
const char *const kFig5Kernels[] = {"barnes", "ocean", "water",
                                    "merge",  "photo", "tsp"};
constexpr PolicyKind kPolicies[] = {PolicyKind::FCFS, PolicyKind::LFF,
                                    PolicyKind::CRT};

const char *const kWorkloads[] = {"smp8", "uni1", "footprint",
                                  "hint_faults"};

std::vector<CellSpec>
cellsOf(const std::string &workload)
{
    std::vector<CellSpec> cells;
    if (workload == "smp8" || workload == "uni1") {
        unsigned cpus = workload == "smp8" ? 8 : 1;
        for (const char *app : kTable4Apps)
            for (PolicyKind p : kPolicies)
                cells.push_back({app, p, cpus, false, false});
    } else if (workload == "footprint") {
        for (const char *k : kFig5Kernels)
            cells.push_back({k, PolicyKind::FCFS, 1, false, true});
    } else if (workload == "hint_faults") {
        for (const char *app : kAnnotatedApps) {
            cells.push_back({app, PolicyKind::FCFS, 8, false, false});
            cells.push_back({app, PolicyKind::LFF, 8, true, false});
            cells.push_back({app, PolicyKind::CRT, 8, true, false});
        }
    }
    return cells;
}

/** A Table 4 application at the bench/policy_matrix.hh parameters. */
std::unique_ptr<Workload>
makeTable4(const std::string &app, uint64_t seed)
{
    if (app == "tasks")
        return std::make_unique<TasksWorkload>(
            TasksWorkload::Params{1024, 100, 100});
    if (app == "merge")
        return std::make_unique<MergesortWorkload>(
            MergesortWorkload::Params{.elements = 100000,
                                      .cutoff = 100,
                                      .seed = appSeed(7, seed)});
    if (app == "photo")
        return std::make_unique<PhotoWorkload>(PhotoWorkload::Params{
            .width = 2048, .height = 1024, .seed = appSeed(11, seed)});
    if (app == "tsp")
        return std::make_unique<TspWorkload>(TspWorkload::Params{
            .cities = 100, .depth = 9, .seed = appSeed(23, seed)});
    throw std::runtime_error("unknown Table 4 application " + app);
}

/** The counter faults of counterChaos() plus the annotation faults of
 *  annotationChaos(): every hint the scheduler reads is unreliable,
 *  while jobs and the simulation itself are left alone. */
FaultPlan
hintFaultPlan()
{
    FaultPlan plan = FaultPlan::counterChaos();
    FaultPlan annotations = FaultPlan::annotationChaos();
    plan.shareDropProb = annotations.shareDropProb;
    plan.shareWrongQProb = annotations.shareWrongQProb;
    plan.shareDanglingProb = annotations.shareDanglingProb;
    plan.shareChurnProb = annotations.shareChurnProb;
    return plan;
}

/** Paper Table 5: % of E-misses CRT eliminates relative to FCFS. */
double
paperCrtEliminated(const std::string &app, unsigned cpus)
{
    static const std::map<std::string, std::pair<double, double>> table{
        {"tasks", {92, 64}},
        {"merge", {57, 77}},
        {"photo", {-1, 71}},
        {"tsp", {12, 73}},
    };
    const auto &row = table.at(app);
    return cpus == 1 ? row.first : row.second;
}

// ---------------------------------------------------------------------
// Instrumentation (traced runs only)
// ---------------------------------------------------------------------

/** One timed interval around a public call. Spans of one cell share
 *  `cell`; `parent` is the enclosing span's id (0 = none). */
struct Span
{
    uint32_t id = 0;
    uint32_t parent = 0;
    uint32_t cell = 0;
    std::string name;
    std::string pass;
    double start = 0.0; ///< seconds since the benchmark began
    double end = 0.0;
    /** Tracer callbacks aggregated over the span (run spans only). */
    uint64_t tracerCalls = 0;
    double tracerSeconds = 0.0;
};

/** Spans kept in memory and written when the benchmark ends. */
class SpanLog
{
  public:
    explicit SpanLog(Clock::time_point origin) : _origin(origin) {}

    uint32_t
    add(const std::string &name, const std::string &pass, uint32_t cell,
        uint32_t parent, Clock::time_point start, Clock::time_point end)
    {
        Span s;
        s.id = static_cast<uint32_t>(_spans.size()) + 1;
        s.parent = parent;
        s.cell = cell;
        s.name = name;
        s.pass = pass;
        s.start = secondsBetween(_origin, start);
        s.end = secondsBetween(_origin, end);
        _spans.push_back(std::move(s));
        return _spans.back().id;
    }

    Span &at(uint32_t id) { return _spans.at(id - 1); }
    size_t size() const { return _spans.size(); }

    /** A fresh cell id, unique across passes. */
    uint32_t newCell() { return ++_cells; }

    /** Span duration minus the part its direct children cover. */
    double
    selfSeconds(const Span &s) const
    {
        double covered = 0.0;
        for (const Span &c : _spans)
            if (c.parent == s.id)
                covered += c.end - c.start;
        return (s.end - s.start) - covered;
    }

    /** Sum of self time over spans with this name in this pass. */
    double
    selfTotal(const std::string &name, const std::string &pass) const
    {
        double total = 0.0;
        for (const Span &s : _spans)
            if (s.name == name && s.pass == pass)
                total += selfSeconds(s);
        return total;
    }

    Json
    json() const
    {
        Json out = Json::array();
        for (const Span &s : _spans) {
            Json j = Json::object();
            j["id"] = Json(static_cast<uint64_t>(s.id));
            j["parent"] = Json(static_cast<uint64_t>(s.parent));
            j["cell"] = Json(static_cast<uint64_t>(s.cell));
            j["name"] = Json(s.name);
            j["pass"] = Json(s.pass);
            j["start_s"] = Json(s.start);
            j["end_s"] = Json(s.end);
            j["self_s"] = Json(selfSeconds(s));
            if (s.tracerCalls) {
                j["tracer_calls"] = Json(s.tracerCalls);
                j["tracer_s"] = Json(s.tracerSeconds);
            }
            out.push(std::move(j));
        }
        return out;
    }

  private:
    Clock::time_point _origin;
    std::vector<Span> _spans;
    uint32_t _cells = 0;
};

/**
 * MemoryObserver of a traced cell. It forwards every callback to the
 * real observer (the Tracer) when there is one, counting and timing
 * the forwarded calls, and samples the live annotation-arc count at
 * every E-miss. Installed with Machine::setObserver after the tracer's
 * constructor, so the tracer sees exactly the calls it would have seen
 * directly.
 */
class TracedObserver final : public MemoryObserver
{
  public:
    TracedObserver(MemoryObserver *target, Machine *machine)
        : _target(target), _machine(machine)
    {}

    void
    onL2Fill(CpuId cpu, PAddr line) override
    {
        if (!_target)
            return;
        auto t0 = Clock::now();
        _target->onL2Fill(cpu, line);
        note(t0);
    }

    void
    onL2Evict(CpuId cpu, PAddr line) override
    {
        if (!_target)
            return;
        auto t0 = Clock::now();
        _target->onL2Evict(cpu, line);
        note(t0);
    }

    void
    onL2Replace(CpuId cpu, PAddr fill, PAddr victim) override
    {
        if (!_target)
            return;
        auto t0 = Clock::now();
        _target->onL2Replace(cpu, fill, victim);
        note(t0);
    }

    void
    onEMiss(CpuId cpu, ThreadId tid) override
    {
        if (_machine)
            _peakEdges = std::max<uint64_t>(_peakEdges,
                                            _machine->graph().edgeCount());
        if (!_target)
            return;
        auto t0 = Clock::now();
        _target->onEMiss(cpu, tid);
        note(t0);
    }

    uint64_t calls() const { return _calls; }
    double seconds() const { return 1e-9 * static_cast<double>(_ns); }
    uint64_t peakEdges() const { return _peakEdges; }

  private:
    void
    note(Clock::time_point t0)
    {
        _ns += static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0)
                .count());
        ++_calls;
    }

    MemoryObserver *_target;
    Machine *_machine;
    uint64_t _calls = 0;
    uint64_t _ns = 0;
    uint64_t _peakEdges = 0;
};

/** Observer that does (almost) nothing: the calibration target. */
class NullObserver final : public MemoryObserver
{
  public:
    void onL2Fill(CpuId, PAddr line) override { _sink = _sink + line; }
    void onL2Evict(CpuId, PAddr line) override { _sink = _sink + line; }

  private:
    volatile PAddr _sink = 0;
};

/** Seconds the timing forwarder itself attributes to one call: the
 *  median of several rounds forwarding to a null observer in this
 *  process (mostly the cost of the two clock reads). */
double
emptyForwardSeconds()
{
    NullObserver null_observer;
    std::vector<double> rounds;
    for (int round = 0; round < 7; ++round) {
        TracedObserver forward(&null_observer, nullptr);
        MemoryObserver &observer = forward;
        constexpr uint64_t kCalls = 1u << 18;
        for (uint64_t i = 0; i < kCalls; ++i)
            observer.onL2Fill(0, i << 6);
        rounds.push_back(forward.seconds() /
                         static_cast<double>(forward.calls()));
    }
    return median(rounds);
}

/** First references of a cell's stream, for the cache-probe replay. */
struct RecordedRef
{
    VAddr va;
    AccessType type;
};

constexpr size_t kReplayRefs = 1u << 20;

// ---------------------------------------------------------------------
// Running one cell
// ---------------------------------------------------------------------

/** Per-layer quantities of one traced cell (counts are simulated). */
struct CellLayers
{
    uint64_t threads = 0;
    /** Peak live at_share arcs, sampled at every E-miss (arcs of
     *  exited threads are removed, so the final count is 0). */
    uint64_t annotations = 0;
    uint64_t steals = 0;
    uint64_t compactions = 0;
    uint64_t cpuClocks = 0;
    uint64_t l1dRefs = 0, l1dHits = 0, l1iRefs = 0, l1iHits = 0;
    std::map<std::string, uint64_t> dispatch;
    uint64_t intervals = 0;
    uint64_t events = 0, eventsDropped = 0;
    uint64_t tracerCalls = 0;
    double tracerSeconds = 0.0;
    uint64_t replayRefs = 0, replayEMisses = 0, prefixEMisses = 0;
    double replaySeconds = 0.0;
};

struct CellResult
{
    CellSpec spec;
    bool ok = false;
    std::string error;
    RunMetrics metrics;
    double ctorSeconds = 0.0;
    double setupSeconds = 0.0;
    double runSeconds = 0.0;
    /** Process CPU over the whole cell (construction to verify). */
    double cpuSeconds = 0.0;
    /** Calibration loop around the cell: mean of the runs just before
     *  and just after it (calibrated passes only). */
    CalTime cal;
    /** Footprint runs: model error and sample count. */
    double mare = 0.0;
    size_t samples = 0;
    CellLayers layers;
};

/** Where a cell records its spans (traced runs only). */
struct SpanTarget
{
    SpanLog *spans;
    std::string pass;
    uint32_t cell;
};

/** Fill the RunMetrics of a finished machine (as runWorkload does). */
void
collectMetrics(RunMetrics &m, Machine &machine, Workload &workload,
               const CellSpec &spec, uint64_t fault_events)
{
    m.refsIssued = machine.refsIssued();
    m.refBlocks = machine.refBlocks();
    m.workload = workload.name();
    m.policy = spec.policy;
    m.numCpus = spec.cpus;
    m.makespan = machine.makespan();
    m.eMisses = machine.totalEMisses();
    m.eRefs = machine.totalERefs();
    m.instructions = machine.totalInstructions();
    m.contextSwitches = machine.totalSwitches();
    for (CpuId c = 0; c < machine.numCpus(); ++c)
        m.schedOverheadCycles += machine.cpuStats(c).schedOverheadCycles;
    m.degradation = machine.scheduler().degradation();
    m.degradation.faultEvents = fault_events;
}

void
collectLayers(CellLayers &l, Machine &machine, const MetricsRegistry *reg,
              const EventLog *log)
{
    l.threads = machine.threadCount();
    l.steals = machine.scheduler().stealCount();
    l.compactions = machine.scheduler().compactionCount();
    for (CpuId c = 0; c < machine.numCpus(); ++c) {
        l.cpuClocks += machine.cpuStats(c).clock;
        const Hierarchy &h = machine.hierarchy(c);
        l.l1dRefs += h.l1d().stats().refs;
        l.l1dHits += h.l1d().stats().hits;
        l.l1iRefs += h.l1i().stats().refs;
        l.l1iHits += h.l1i().stats().hits;
    }
    if (reg) {
        for (const char *src : {"heap", "steal", "global", "none",
                                "fairness_bypass"})
            l.dispatch[src] =
                reg->counterTotal(std::string("machine.dispatch.") + src);
        l.intervals = reg->counterTotal("machine.intervals");
    }
    if (log) {
        l.events = log->size() + log->dropped();
        l.eventsDropped = log->dropped();
    }
}

/** Install the monitor's driver hook for one Fig 5 kernel (as
 *  bench_fig5_footprints does) and return the monitored thread. */
std::function<ThreadId()>
armMonitor(Workload &w, Machine &machine, FootprintMonitor &monitor)
{
    auto track_self = [&machine, &monitor] {
        ThreadId tid = machine.self();
        monitor.setDriver(tid);
        monitor.track(tid, FootprintMonitor::Kind::Executing);
    };
    if (auto *k = dynamic_cast<MonitoredWorkload *>(&w)) {
        k->onWorkStart([k, &machine, &monitor] {
            machine.flushAllCaches();
            monitor.setDriver(k->workTid());
            monitor.track(k->workTid(), FootprintMonitor::Kind::Executing);
        });
        return [k] { return k->workTid(); };
    }
    if (auto *m = dynamic_cast<MergesortWorkload *>(&w)) {
        m->onRootMerge(track_self);
        return [m] { return m->rootTid(); };
    }
    if (auto *p = dynamic_cast<PhotoWorkload *>(&w)) {
        p->onRowStart(256, track_self);
        return [p] { return p->rowTid(256); };
    }
    if (auto *t = dynamic_cast<TspWorkload *>(&w)) {
        t->onNodeStart(1, track_self);
        return [] { return static_cast<ThreadId>(0); };
    }
    throw std::runtime_error("no monitor hook for " + w.name());
}

/** A Fig 5 kernel at the bench_fig5_footprints parameters. */
std::unique_ptr<Workload>
makeFig5(const std::string &kernel, uint64_t seed)
{
    if (kernel == "barnes")
        return std::make_unique<BarnesWorkload>(
            BarnesWorkload::Params{.bodies = 16384,
                                   .treeDepth = 4,
                                   .passes = 4,
                                   .seed = appSeed(31, seed)});
    if (kernel == "ocean")
        return std::make_unique<OceanWorkload>(OceanWorkload::Params{
            .edge = 514, .iterations = 2, .seed = appSeed(37, seed)});
    if (kernel == "water")
        return std::make_unique<WaterWorkload>(
            WaterWorkload::Params{.molecules = 10240,
                                  .cellEdge = 8,
                                  .passes = 2,
                                  .seed = appSeed(41, seed)});
    if (kernel == "merge")
        return std::make_unique<MergesortWorkload>(
            MergesortWorkload::Params{.elements = 100000,
                                      .cutoff = 100,
                                      .seed = appSeed(7, seed),
                                      .annotate = true});
    if (kernel == "photo")
        return std::make_unique<PhotoWorkload>(
            PhotoWorkload::Params{.width = 1024,
                                  .height = 512,
                                  .seed = appSeed(11, seed),
                                  .annotate = true});
    if (kernel == "tsp")
        return std::make_unique<TspWorkload>(
            TspWorkload::Params{.cities = 100,
                                .depth = 7,
                                .seed = appSeed(23, seed),
                                .annotate = true});
    throw std::runtime_error("unknown Fig 5 kernel " + kernel);
}

/** Fig 5 sampling period (misses per sample) of each kernel. */
uint64_t
sampleEvery(const std::string &kernel)
{
    return kernel == "barnes" || kernel == "ocean" || kernel == "water"
               ? 128
               : 64;
}

std::unique_ptr<Workload>
makeWorkload(const CellSpec &spec, uint64_t seed)
{
    return spec.monitored ? makeFig5(spec.app, seed)
                          : makeTable4(spec.app, seed);
}

/** Machine configuration of a cell. A faulted cell's injector is
 *  placed in `faults`, which must outlive the machine. */
MachineConfig
cellConfig(const CellSpec &spec, uint64_t seed,
           std::optional<FaultInjector> &faults)
{
    MachineConfig cfg;
    cfg.numCpus = spec.cpus;
    cfg.policy = spec.policy;
    cfg.seed = seed;
    // As bench_fig5_footprints: the model-accuracy runs leave the
    // scheduler's own cache footprint out of the observed caches.
    if (spec.monitored)
        cfg.modelSchedulerFootprint = false;
    if (spec.faults) {
        faults.emplace(hintFaultPlan(), seed);
        cfg.faults = &*faults;
    }
    return cfg;
}

/**
 * Run one cell: build a fresh machine, set the workload up, run and
 * verify it, and collect its metrics. An instrumented cell additionally
 * attaches a MetricsRegistry, an EventLog and a TracedObserver, and a
 * 1-cpu cell records a reference prefix for the cache-probe
 * replay. Spans go to `spans` when it is non-null.
 */
CellResult
runCell(const CellSpec &spec, uint64_t seed, const SpanTarget *spans,
        bool instrument)
{
    CellResult r;
    r.spec = spec;
    bool replay = instrument && spec.cpus == 1;
    auto t0 = Clock::now();
    auto t1 = t0, t2 = t0, t3 = t0, t4 = t0;
    try {
        std::unique_ptr<Workload> workload = makeWorkload(spec, seed);
        std::optional<FaultInjector> faults;
        MachineConfig cfg = cellConfig(spec, seed, faults);
        std::unique_ptr<MetricsRegistry> registry;
        std::unique_ptr<EventLog> log;
        if (instrument) {
            registry = std::make_unique<MetricsRegistry>();
            // Warnings stay with the benchmark's own sink (fault.warnings).
            log = std::make_unique<EventLog>(
                TelemetryConfig{.capacity = 1 << 16, .warnings = false});
            cfg.metrics = registry.get();
            cfg.telemetry = log.get();
        }

        t0 = Clock::now();
        Machine machine(cfg);
        std::unique_ptr<Tracer> tracer;
        std::unique_ptr<FootprintMonitor> monitor;
        std::unique_ptr<TracedObserver> observer;
        if (spec.monitored) {
            tracer = std::make_unique<Tracer>(machine);
            monitor = std::make_unique<FootprintMonitor>(
                machine, *tracer, 0, sampleEvery(spec.app));
        }
        if (instrument) {
            observer = std::make_unique<TracedObserver>(tracer.get(),
                                                        &machine);
            machine.setObserver(observer.get());
        }
        t1 = Clock::now();

        WorkloadEnv env{machine, tracer.get()};
        workload->setup(env);
        std::function<ThreadId()> monitored_tid;
        if (monitor)
            monitored_tid = armMonitor(*workload, machine, *monitor);

        std::vector<RecordedRef> refs;
        if (replay) {
            refs.reserve(kReplayRefs);
            machine.setAccessHook([&](CpuId, ThreadId, VAddr va,
                                      AccessType type) {
                if (refs.size() < kReplayRefs) {
                    refs.push_back({va, type});
                    if (refs.size() == kReplayRefs)
                        r.layers.prefixEMisses =
                            machine.hierarchy(0).l2().stats().misses();
                }
            });
        }
        t2 = Clock::now();

        machine.run();
        t3 = Clock::now();

        r.metrics.verified = workload->verify();
        t4 = Clock::now();

        r.metrics.hostSeconds = secondsBetween(t2, t3);
        collectMetrics(r.metrics, machine, *workload, spec,
                       faults ? faults->stats().total() : 0);
        if (monitor) {
            ThreadId tid = monitored_tid();
            r.samples = monitor->samples(tid).size();
            r.mare = monitor->meanAbsRelError(tid, 128.0);
        }
        if (instrument) {
            collectLayers(r.layers, machine, registry.get(), log.get());
            r.layers.tracerCalls = observer->calls();
            r.layers.tracerSeconds = observer->seconds();
            r.layers.annotations = observer->peakEdges();
        }
        if (replay) {
            if (refs.size() < kReplayRefs)
                r.layers.prefixEMisses =
                    machine.hierarchy(0).l2().stats().misses();
            Hierarchy probe(cfg.hierarchy);
            auto rs = Clock::now();
            for (const RecordedRef &ref : refs) {
                PAddr pa;
                if (machine.vm().translateIfMapped(ref.va, pa))
                    probe.access(pa, ref.type);
            }
            r.layers.replaySeconds = secondsBetween(rs, Clock::now());
            r.layers.replayRefs = refs.size();
            r.layers.replayEMisses = probe.l2().stats().misses();
        }
        r.ok = r.metrics.verified;
        if (!r.ok)
            r.error = "verify() returned false";
    } catch (const std::exception &e) {
        r.ok = false;
        r.error = e.what();
    }
    // A throw leaves the later timestamps at their initial value.
    t1 = std::max(t1, t0);
    t2 = std::max(t2, t1);
    t3 = std::max(t3, t2);
    t4 = std::max(t4, t3);
    r.ctorSeconds = secondsBetween(t0, t1);
    r.setupSeconds = secondsBetween(t1, t2);
    r.runSeconds = secondsBetween(t2, t3);

    if (spans) {
        SpanLog &log = *spans->spans;
        const std::string &pass = spans->pass;
        uint32_t id = spans->cell;
        uint32_t cell = log.add("cell", pass, id, 0, t0, t4);
        log.add("machine_ctor", pass, id, cell, t0, t1);
        log.add("setup", pass, id, cell, t1, t2);
        uint32_t run = log.add("run", pass, id, cell, t2, t3);
        log.add("verify", pass, id, cell, t3, t4);
        log.at(run).tracerCalls = r.layers.tracerCalls;
        log.at(run).tracerSeconds = r.layers.tracerSeconds;
    }
    return r;
}

/** Build and set up one cell without running it (set-up timing). */
double
setupOnly(const CellSpec &spec, uint64_t seed)
{
    std::unique_ptr<Workload> workload = makeWorkload(spec, seed);
    std::optional<FaultInjector> faults;
    MachineConfig cfg = cellConfig(spec, seed, faults);
    auto t0 = Clock::now();
    Machine machine(cfg);
    std::unique_ptr<Tracer> tracer;
    std::unique_ptr<FootprintMonitor> monitor;
    if (spec.monitored) {
        tracer = std::make_unique<Tracer>(machine);
        monitor = std::make_unique<FootprintMonitor>(
            machine, *tracer, 0, sampleEvery(spec.app));
    }
    WorkloadEnv env{machine, tracer.get()};
    workload->setup(env);
    return secondsBetween(t0, Clock::now());
}

// ---------------------------------------------------------------------
// Passes and workload-level metrics
// ---------------------------------------------------------------------

struct Pass
{
    std::vector<CellResult> cells;
    double setupSeconds = 0.0;
    double runSeconds = 0.0;
    double cpuSeconds = 0.0;
    uint64_t refs = 0;
    uint64_t warnings = 0;
};

/** Counts Warn records on this thread while alive (the library's warn
 *  sink); restores the previous sink on exit. */
class WarnCounter
{
  public:
    WarnCounter()
    {
        _previous = setWarnSink([this](LogLevel level, const std::string &) {
            if (level == LogLevel::Warn)
                ++_count;
        });
    }
    ~WarnCounter() { setWarnSink(std::move(_previous)); }
    WarnCounter(const WarnCounter &) = delete;
    WarnCounter &operator=(const WarnCounter &) = delete;

    uint64_t count() const { return _count; }

  private:
    WarnSink _previous;
    uint64_t _count = 0;
};

/** Run every cell once. A calibrated pass also runs the calibration
 *  loop before the first cell and after each one. */
Pass
runPass(const std::vector<CellSpec> &cells, uint64_t seed,
        SpanLog *spans, const std::string &pass_name, bool instrument,
        bool calibrate)
{
    Pass pass;
    WarnCounter warnings;
    CalTime cal_before = calibrate ? calibrationLoop() : CalTime{};
    for (size_t i = 0; i < cells.size(); ++i) {
        SpanTarget target{spans, pass_name, spans ? spans->newCell() : 0};
        double cpu0 = processCpuSeconds();
        CellResult r = runCell(cells[i], seed, spans ? &target : nullptr,
                               instrument);
        r.cpuSeconds = processCpuSeconds() - cpu0;
        if (calibrate) {
            CalTime cal_after = calibrationLoop();
            r.cal = {0.5 * (cal_before.wall + cal_after.wall),
                     0.5 * (cal_before.cpu + cal_after.cpu)};
            cal_before = cal_after;
        }
        pass.setupSeconds += r.ctorSeconds + r.setupSeconds;
        pass.runSeconds += r.runSeconds;
        pass.cpuSeconds += r.cpuSeconds;
        pass.refs += r.metrics.refsIssued;
        pass.cells.push_back(std::move(r));
    }
    pass.warnings = warnings.count();
    return pass;
}

/** Simulated end-to-end metrics of one pass. */
struct SimSummary
{
    double speedupLff = 1.0, speedupCrt = 1.0;
    double missesLff = 1.0, missesCrt = 1.0;
    double refErrPp = 0.0;
};

const CellResult *
findCell(const Pass &pass, const std::string &app, PolicyKind policy)
{
    for (const CellResult &c : pass.cells)
        if (c.spec.app == app && c.spec.policy == policy)
            return &c;
    return nullptr;
}

SimSummary
summarise(const Pass &pass)
{
    SimSummary s;
    std::vector<std::string> apps;
    for (const CellResult &c : pass.cells)
        if (std::find(apps.begin(), apps.end(), c.spec.app) == apps.end())
            apps.push_back(c.spec.app);

    if (!pass.cells.empty() && pass.cells.front().spec.monitored) {
        // footprint: no policy cells (ratios are FCFS against itself);
        // the reference is the model's own Fig 5 accuracy.
        double mare = 0.0;
        for (const CellResult &c : pass.cells)
            mare += c.mare;
        s.refErrPp = 100.0 * mare / static_cast<double>(pass.cells.size());
        return s;
    }

    double log_lff = 0, log_crt = 0, mis_lff = 0, mis_crt = 0, err = 0;
    size_t n = 0;
    for (const std::string &app : apps) {
        const CellResult *f = findCell(pass, app, PolicyKind::FCFS);
        const CellResult *l = findCell(pass, app, PolicyKind::LFF);
        const CellResult *c = findCell(pass, app, PolicyKind::CRT);
        // A failed cell has no metrics; it is counted in cells_ok.
        if (!f || !l || !c || !f->ok || !l->ok || !c->ok)
            continue;
        const RunMetrics &fm = f->metrics;
        log_lff += std::log(RunMetrics::speedup(fm, l->metrics));
        log_crt += std::log(RunMetrics::speedup(fm, c->metrics));
        mis_lff += 1.0 - RunMetrics::missesEliminated(fm, l->metrics);
        mis_crt += 1.0 - RunMetrics::missesEliminated(fm, c->metrics);
        err += std::fabs(
            100.0 * RunMetrics::missesEliminated(fm, c->metrics) -
            paperCrtEliminated(app, f->spec.cpus));
        ++n;
    }
    if (n == 0)
        return s;
    double dn = static_cast<double>(n);
    s.speedupLff = std::exp(log_lff / dn);
    s.speedupCrt = std::exp(log_crt / dn);
    s.missesLff = mis_lff / dn;
    s.missesCrt = mis_crt / dn;
    s.refErrPp = err / dn;
    return s;
}

/** A cell fails on a throw, on verify() false, or when its simulated
 *  results differ from the reference pass's (determinism and the
 *  "instrumentation never changes modelled state" contract). */
bool
cellFailed(const CellResult &c, const CellResult *reference,
           std::string &why)
{
    if (!c.ok) {
        why = c.error;
        return true;
    }
    if (reference && (c.metrics != reference->metrics ||
                      c.mare != reference->mare ||
                      c.samples != reference->samples)) {
        why = "simulated results differ from the reference pass";
        return true;
    }
    return false;
}

/** Per-cell simulated results, for the cross-check test. */
Json
cellsJson(const Pass &pass)
{
    Json out = Json::array();
    for (const CellResult &c : pass.cells) {
        Json j = Json::object();
        j["app"] = Json(c.spec.app);
        j["policy"] = Json(std::string(policyName(c.spec.policy)));
        j["cpus"] = Json(static_cast<uint64_t>(c.spec.cpus));
        j["faults"] = Json(c.spec.faults);
        j["verified"] = Json(c.metrics.verified);
        j["makespan"] = Json(static_cast<uint64_t>(c.metrics.makespan));
        j["e_misses"] = Json(c.metrics.eMisses);
        j["e_refs"] = Json(c.metrics.eRefs);
        j["refs_issued"] = Json(c.metrics.refsIssued);
        if (c.spec.monitored) {
            j["mare"] = Json(c.mare);
            j["samples"] = Json(static_cast<uint64_t>(c.samples));
        }
        out.push(std::move(j));
    }
    return out;
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric> &metrics)
{
    Json m = Json::object();
    for (const Metric &x : metrics) {
        Json v = Json::object();
        v["value"] = Json(x.value);
        v["unit"] = Json(x.unit);
        m[x.name] = std::move(v);
    }
    Json out = Json::object();
    out["correct"] = Json(correct);
    out["attempted"] = Json(attempted);
    out["failed"] = Json(failed);
    out["metrics"] = std::move(m);
    std::cout << out.dumpCompact() << std::endl;
}

void
writeFile(const std::filesystem::path &path, const std::string &text)
{
    std::error_code ec;
    std::filesystem::create_directories(path.parent_path(), ec);
    std::ofstream out(path, std::ios::trunc);
    out << text;
    if (!out)
        std::cerr << "warning: cannot write " << path << "\n";
}

struct Options
{
    std::string workload;
    uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = ".bench_out";
};

bool
parseOptions(int argc, char **argv, Options &o)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string key = argv[i];
        std::string val = argv[i + 1];
        if (key == "--workload")
            o.workload = val;
        else if (key == "--seed")
            o.seed = std::stoull(val);
        else if (key == "--seconds")
            o.seconds = std::stod(val);
        else if (key == "--trace")
            o.trace = val != "0";
        else if (key == "--out")
            o.outDir = val;
        else
            return false;
    }
    if (argc % 2 == 0)
        return false;
    return std::find(std::begin(kWorkloads), std::end(kWorkloads),
                     o.workload) != std::end(kWorkloads);
}

std::string
fmt(double v, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", digits, v);
    return buf;
}

/** Print the human-readable per-app summary of a policy workload. */
void
printCharts(const Pass &pass, const SimSummary &s)
{
    std::cout << "app      normalised misses (LFF CRT)   rel perf (LFF CRT)\n";
    for (const char *app : kTable4Apps) {
        const CellResult *f = findCell(pass, app, PolicyKind::FCFS);
        const CellResult *l = findCell(pass, app, PolicyKind::LFF);
        const CellResult *c = findCell(pass, app, PolicyKind::CRT);
        if (!f || !l || !c)
            continue;
        std::cout << "  " << app << "  "
                  << fmt(1 - RunMetrics::missesEliminated(f->metrics,
                                                          l->metrics),
                         2)
                  << " "
                  << fmt(1 - RunMetrics::missesEliminated(f->metrics,
                                                          c->metrics),
                         2)
                  << "   "
                  << fmt(RunMetrics::speedup(f->metrics, l->metrics), 2)
                  << " "
                  << fmt(RunMetrics::speedup(f->metrics, c->metrics), 2)
                  << "\n";
    }
    std::cout << "speedup LFF " << fmt(s.speedupLff, 3) << ", CRT "
              << fmt(s.speedupCrt, 3) << " (paper Table 5 error "
              << fmt(s.refErrPp, 1) << " pp)\n";
}

int
runTimed(const Options &o, const std::vector<CellSpec> &cells)
{
    std::vector<Pass> passes;
    auto start = Clock::now();
    double last = 0.0;
    calibrationLoop(); // first touch of its table, untimed
    // Whole passes only: start another while it should end within the
    // budget, judged by the length of the previous pass.
    do {
        auto p0 = Clock::now();
        passes.push_back(
            runPass(cells, o.seed, nullptr, "timed", false, true));
        last = secondsBetween(p0, Clock::now());
    } while (secondsBetween(start, Clock::now()) + last <= o.seconds);

    uint64_t attempted = 0, failed = 0;
    for (const Pass &p : passes) {
        for (size_t i = 0; i < p.cells.size(); ++i) {
            ++attempted;
            std::string why;
            const CellResult *ref = &p == &passes.front()
                                        ? nullptr
                                        : &passes.front().cells[i];
            if (cellFailed(p.cells[i], ref, why)) {
                ++failed;
                std::cerr << "FAIL: " << o.workload << " cell "
                          << p.cells[i].spec.label() << ": " << why << "\n";
            }
        }
    }

    // Set-up time: one sample per pass, topped up to kSetupSamples with
    // set-up-only rounds so the median is steady even for long passes.
    constexpr size_t kSetupSamples = 9;
    std::vector<double> setup;
    for (const Pass &p : passes) {
        for (const CellResult &c : p.cells)
            std::cerr << "  cell " << c.spec.label() << ": setup "
                      << fmt(c.ctorSeconds + c.setupSeconds, 4)
                      << " s, run " << fmt(c.runSeconds, 4) << " s, cpu "
                      << fmt(c.cpuSeconds, 4) << " s, calibration "
                      << fmt(1e3 * c.cal.wall, 2) << " ms\n";
        std::cout << "  pass: setup " << fmt(p.setupSeconds, 4) << " s, run "
                  << fmt(p.runSeconds, 4) << " s, cpu "
                  << fmt(p.cpuSeconds, 4) << " s\n";
        setup.push_back(p.setupSeconds);
    }
    // Run and CPU time in calibration-loop units: each cell's time over
    // the loop's around it, that ratio's median over the passes, summed
    // over the cells. The raw seconds are printed beside them.
    double run_s = 0.0, cpu_s = 0.0, run_cal = 0.0, cpu_cal = 0.0;
    for (size_t i = 0; i < cells.size(); ++i) {
        std::vector<double> run, cpu, run_ratio, cpu_ratio;
        for (const Pass &p : passes) {
            const CellResult &c = p.cells[i];
            run.push_back(c.runSeconds);
            cpu.push_back(c.cpuSeconds);
            run_ratio.push_back(ratio(c.runSeconds, c.cal.wall));
            cpu_ratio.push_back(ratio(c.cpuSeconds, c.cal.cpu));
        }
        run_s += median(run);
        cpu_s += median(cpu);
        run_cal += median(run_ratio);
        cpu_cal += median(cpu_ratio);
    }
    while (setup.size() < kSetupSamples) {
        double total = 0.0;
        for (const CellSpec &c : cells)
            total += setupOnly(c, o.seed);
        setup.push_back(total);
    }

    const Pass &first = passes.front();
    double mrefs = static_cast<double>(first.refs) / 1e6;
    std::cout << "  host: run " << fmt(run_s, 4) << " s, cpu "
              << fmt(cpu_s, 4) << " s, " << fmt(ratio(mrefs, run_s), 2)
              << " Mrefs/s (cell medians)\n";
    SimSummary s = summarise(first);
    if (!first.cells.front().spec.monitored)
        printCharts(first, s);
    for (const CellResult &c : first.cells)
        if (c.spec.monitored)
            std::cout << "  " << c.spec.app << " model MARE "
                      << fmt(100 * c.mare, 1) << "% over " << c.samples
                      << " samples\n";
    std::cout << o.workload << ": " << passes.size() << " pass(es), "
              << attempted << " cell(s), " << failed << " failed, "
              << first.warnings << " warning(s) per pass\n";

    Json doc = Json::object();
    doc["workload"] = Json(o.workload);
    doc["seed"] = Json(o.seed);
    doc["cells"] = cellsJson(first);
    writeFile(std::filesystem::path(o.outDir) /
                  (o.workload + "-seed" + std::to_string(o.seed) +
                   ".json"),
              doc.dump() + "\n");

    double ok = static_cast<double>(attempted - failed) /
                static_cast<double>(attempted);
    printResult(failed == 0, attempted, failed,
                {{"setup_s", median(setup), "s"},
                 {"run_cal", run_cal, "cal"},
                 {"cpu_cal", cpu_cal, "cal"},
                 {"mrefs_per_cal", ratio(mrefs, run_cal), "Mrefs/cal"},
                 {"peak_rss_mb",
                  peakRssMb() - static_cast<double>(kCalTableBytes >> 20),
                  "MB"},
                 {"cells_ok", ok, "fraction"},
                 {"speedup_lff", s.speedupLff, "x"},
                 {"speedup_crt", s.speedupCrt, "x"},
                 {"misses_lff", s.missesLff, "fraction"},
                 {"misses_crt", s.missesCrt, "fraction"},
                 {"ref_err_pp", s.refErrPp, "pp"}});
    return 0;
}

int
runTraced(const Options &o, const std::vector<CellSpec> &cells)
{
    auto origin = Clock::now();
    SpanLog spans(origin);
    double empty_forward = emptyForwardSeconds();

    // The first plain pass warms the process up and is the reference
    // the traced pass must reproduce; the second, run after the traced
    // pass, is the warm plain baseline its timings are set against.
    Pass reference = runPass(cells, o.seed, &spans, "warmup", false, false);
    Pass traced = runPass(cells, o.seed, &spans, "traced", true, false);
    Pass plain = runPass(cells, o.seed, &spans, "plain", false, false);

    uint64_t attempted = 0, failed = 0;
    for (size_t i = 0; i < cells.size(); ++i) {
        const CellResult *ref = &reference.cells[i];
        const CellResult *runs[] = {ref, &traced.cells[i], &plain.cells[i]};
        for (const CellResult *c : runs) {
            ++attempted;
            std::string why;
            if (cellFailed(*c, c == ref ? nullptr : ref, why)) {
                ++failed;
                std::cerr << "FAIL: " << o.workload << " cell "
                          << c->spec.label() << ": " << why << "\n";
            }
        }
    }

    CellLayers t; // traced-pass totals
    uint64_t refs = 0, switches = 0, fallback = 0, implausible = 0,
             clamped = 0, fault_events = 0, samples = 0;
    double makespan = 0, overhead_cycles = 0;
    uint64_t e_refs = 0, e_misses = 0;
    for (const CellResult &c : traced.cells) {
        const CellLayers &l = c.layers;
        t.threads += l.threads;
        t.annotations += l.annotations;
        t.steals += l.steals;
        t.compactions += l.compactions;
        t.cpuClocks += l.cpuClocks;
        t.l1dRefs += l.l1dRefs;
        t.l1dHits += l.l1dHits;
        t.l1iRefs += l.l1iRefs;
        t.l1iHits += l.l1iHits;
        for (const auto &[k, v] : l.dispatch)
            t.dispatch[k] += v;
        t.intervals += l.intervals;
        t.events += l.events;
        t.eventsDropped += l.eventsDropped;
        t.tracerCalls += l.tracerCalls;
        t.tracerSeconds += l.tracerSeconds;
        t.replayRefs += l.replayRefs;
        t.replayEMisses += l.replayEMisses;
        t.prefixEMisses += l.prefixEMisses;
        t.replaySeconds += l.replaySeconds;
        const RunMetrics &m = c.metrics;
        refs += m.refsIssued;
        switches += m.contextSwitches;
        fallback += m.degradation.fallbackIntervals;
        implausible += m.degradation.implausibleSamples;
        clamped += m.degradation.clampedMisses;
        fault_events += m.degradation.faultEvents;
        makespan += static_cast<double>(m.makespan);
        overhead_cycles += static_cast<double>(m.schedOverheadCycles);
        e_refs += m.eRefs;
        e_misses += m.eMisses;
        samples += c.samples;
    }
    uint64_t dispatches = 0;
    for (const auto &[k, v] : t.dispatch)
        dispatches += v;

    double tracer_self = std::max(
        0.0, t.tracerSeconds -
                 static_cast<double>(t.tracerCalls) * empty_forward);

    std::vector<Metric> metrics = {
        {"workloads.setup_s", spans.selfTotal("setup", "plain"), "s"},
        {"workloads.verify_s", spans.selfTotal("verify", "plain"), "s"},
        {"workloads.threads", static_cast<double>(t.threads), "count"},
        {"workloads.annotations", static_cast<double>(t.annotations),
         "count"},
        {"runtime.machine_ctor_s", spans.selfTotal("machine_ctor", "plain"),
         "s"},
    };
    // Per-cell run time, under one fixed name set shared by every
    // workload (cells a workload does not run read 0).
    std::vector<std::string> cell_names;
    for (const char *app : kTable4Apps)
        for (PolicyKind p : kPolicies)
            cell_names.push_back(std::string(app) + "." +
                                 lower(policyName(p)));
    for (const char *k : {"barnes", "ocean", "water"})
        cell_names.push_back(std::string(k) + ".fcfs");
    for (const std::string &name : cell_names) {
        double s = 0.0;
        for (const CellResult &c : plain.cells)
            if (c.spec.label() == name)
                s += c.runSeconds;
        metrics.push_back({"runtime.run_s." + name, s, "s"});
    }
    metrics.insert(
        metrics.end(),
        {
            {"runtime.run_ns_per_ref",
             1e9 * ratio(plain.runSeconds, static_cast<double>(refs)), "ns"},
            {"runtime.switches", static_cast<double>(switches), "count"},
            {"runtime.intervals", static_cast<double>(t.intervals), "count"},
            {"runtime.makespan_mcycles", makespan / 1e6, "Mcycles"},
            {"runtime.dispatch.heap",
             static_cast<double>(t.dispatch["heap"]), "count"},
            {"runtime.dispatch.steal",
             static_cast<double>(t.dispatch["steal"]), "count"},
            {"runtime.dispatch.global",
             static_cast<double>(t.dispatch["global"]), "count"},
            {"runtime.dispatch.none",
             static_cast<double>(t.dispatch["none"]), "count"},
            {"runtime.dispatch.heap_share",
             ratio(static_cast<double>(t.dispatch["heap"]),
                   static_cast<double>(dispatches)),
             "fraction"},
            {"runtime.steals", static_cast<double>(t.steals), "count"},
            {"runtime.heap_compactions", static_cast<double>(t.compactions),
             "count"},
            {"runtime.sched_overhead_share",
             ratio(overhead_cycles, static_cast<double>(t.cpuClocks)),
             "fraction"},
            {"runtime.fallback_intervals", static_cast<double>(fallback),
             "count"},
            {"runtime.implausible_samples", static_cast<double>(implausible),
             "count"},
            {"runtime.clamped_misses", static_cast<double>(clamped),
             "count"},
            {"mem.e_refs", static_cast<double>(e_refs), "count"},
            {"mem.e_misses", static_cast<double>(e_misses), "count"},
            {"mem.e_miss_ratio",
             ratio(static_cast<double>(e_misses),
                   static_cast<double>(e_refs)),
             "fraction"},
            {"mem.l1d_hit_ratio",
             ratio(static_cast<double>(t.l1dHits),
                   static_cast<double>(t.l1dRefs)),
             "fraction"},
            {"mem.l1i_hit_ratio",
             ratio(static_cast<double>(t.l1iHits),
                   static_cast<double>(t.l1iRefs)),
             "fraction"},
            {"mem.replay_refs", static_cast<double>(t.replayRefs), "count"},
            {"mem.replay_ns_per_ref",
             1e9 * ratio(t.replaySeconds,
                         static_cast<double>(t.replayRefs)),
             "ns"},
            {"mem.replay_e_misses", static_cast<double>(t.replayEMisses),
             "count"},
            {"mem.prefix_e_misses", static_cast<double>(t.prefixEMisses),
             "count"},
            {"sim.tracer.calls", static_cast<double>(t.tracerCalls),
             "count"},
            {"sim.tracer.self_s", tracer_self, "s"},
            {"sim.tracer.ns_per_call",
             1e9 * ratio(tracer_self, static_cast<double>(t.tracerCalls)),
             "ns"},
            {"sim.tracer.share", ratio(tracer_self, plain.runSeconds),
             "fraction"},
            {"sim.tracer.empty_ns_per_call", 1e9 * empty_forward, "ns"},
            {"model.samples", static_cast<double>(samples), "count"},
        });
    for (const char *k : kFig5Kernels) {
        double mare = 0.0;
        for (const CellResult &c : plain.cells)
            if (c.spec.monitored && c.spec.app == k)
                mare = c.mare;
        metrics.push_back(
            {std::string("model.mare.") + k, mare, "fraction"});
    }
    metrics.insert(
        metrics.end(),
        {
            {"fault.events", static_cast<double>(fault_events), "count"},
            {"fault.warnings", static_cast<double>(traced.warnings),
             "count"},
            {"obs.overhead_s", traced.runSeconds - plain.runSeconds, "s"},
            {"obs.events", static_cast<double>(t.events), "count"},
            {"obs.events_dropped", static_cast<double>(t.eventsDropped),
             "count"},
            {"obs.spans", static_cast<double>(spans.size()), "count"},
        });

    std::filesystem::path span_path =
        std::filesystem::path(o.outDir) /
        ("spans-" + o.workload + "-seed" + std::to_string(o.seed) +
         ".json");
    Json doc = Json::object();
    doc["workload"] = Json(o.workload);
    doc["seed"] = Json(o.seed);
    doc["spans"] = spans.json();
    writeFile(span_path, doc.dump() + "\n");
    std::cout << o.workload << " traced: " << attempted << " cell run(s), "
              << failed << " failed; spans written to " << span_path.string()
              << "\n";

    printResult(failed == 0, attempted, failed, metrics);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    if (!parseOptions(argc, argv, o)) {
        std::cerr << "usage: atlbench --workload "
                     "<smp8|uni1|footprint|hint_faults> --seed <n> "
                     "--seconds <s> --trace <0|1> [--out <dir>]\n";
        return 2;
    }
    // Library panics become exceptions, so a broken cell is counted as
    // failed instead of taking the whole run down.
    setLogThrowMode(true);
    std::vector<CellSpec> cells = cellsOf(o.workload);
    return o.trace ? runTraced(o, cells) : runTimed(o, cells);
}
