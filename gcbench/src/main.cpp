/**
 * @file
 * gcbench: the repository benchmark.
 *
 *   gcbench --workload serve|saturate|audit --seed N --seconds S
 *           --trace 0|1 [--out DIR]
 *
 * A measured run (--trace 0) sets the workload up five times (the
 * median is setup_s), measures the last set-up for S seconds with
 * the default collector configuration, and prints the end-to-end
 * metrics. A traced run (--trace 1) measures S/2 seconds untraced
 * and then S/2 seconds on a fresh runtime with the runtime's GC
 * trace and the benchmark's call timing on, and prints the
 * per-layer metrics. Either way the last line of standard output is
 * one JSON object: {"correct", "attempted", "failed", "metrics"}.
 * The line before it stamps the run (host, build, seed, length) and
 * gives each percentile's sample count and the samples beyond it.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>

#include "bench.h"
#include "calls.h"
#include "observe/assert_cost.h"
#include "support/json.h"
#include "support/logging.h"

#ifndef GCBENCH_BUILD_TYPE
#define GCBENCH_BUILD_TYPE "unknown"
#endif

namespace gcbench {

uint64_t
nowNanos()
{
    return gcassert::nowNanos();
}

uint64_t
subSeed(uint64_t seed, uint64_t stream)
{
    uint64_t z = seed + (stream + 1) * 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::unique_ptr<Workload>
makeWorkload(const RunOptions &options)
{
    if (options.workload == "serve")
        return makeServe(options);
    if (options.workload == "saturate")
        return makeSaturate(options);
    if (options.workload == "audit")
        return makeAudit(options);
    return nullptr;
}

namespace {

/** Set-ups per measured run; setup_s is their median. */
constexpr int kSetups = 5;

/**
 * Drops the info and warning records the runtime logs (every
 * violation report is a warning; the gates read the verdicts from
 * the runtime instead). Anything worse still reaches stderr.
 */
class QuietSink : public gcassert::LogSink {
  public:
    void
    write(const gcassert::LogRecord &record) override
    {
        if (record.level == gcassert::LogLevel::Info ||
            record.level == gcassert::LogLevel::Warn)
            return;
        std::fprintf(stderr, "%s: %s\n",
                     gcassert::logLevelName(record.level),
                     record.message.c_str());
    }
};

/** A percentile and how it was taken. */
struct Quantile {
    double value = 0.0;
    uint64_t samples = 0;
    uint64_t beyond = 0;
    /** For a per-window percentile: windows it is the median of
     *  (samples and beyond then describe the median window). */
    uint64_t windows = 0;
};

/** Nearest-rank percentile @p p (0..100) of @p v, in place. */
Quantile
quantile(std::vector<double> &v, double p)
{
    Quantile q;
    q.samples = v.size();
    if (v.empty())
        return q;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    size_t k = rank == 0 ? 0 : rank - 1;
    q.value = v[k];
    q.beyond = static_cast<uint64_t>(
        v.end() - std::upper_bound(v.begin(), v.end(), q.value));
    return q;
}

std::vector<double>
scaled(const std::vector<uint32_t> &v, double div)
{
    std::vector<double> out;
    out.reserve(v.size());
    for (uint64_t x : v)
        out.push_back(static_cast<double>(x) / div);
    return out;
}

/** Fewest samples a window needs: enough for ten beyond p99.5. */
constexpr size_t kMinWindowSamples = 2000;

/**
 * Percentile @p p of the latency (us) within each window of the run
 * (kWindowNanos long), and the median of those over the windows. A
 * tail percentile over the whole run moves with the bursts in which
 * the host deschedules a mutator; the median window does not.
 * Falls back to the whole run when no window has enough samples.
 */
Quantile
windowedQuantile(const Outcome &out, double p)
{
    std::map<uint32_t, std::vector<double>> windows;
    for (size_t i = 0; i < out.latencyNanos.size(); ++i)
        windows[out.window[i]].push_back(out.latencyNanos[i] / 1e3);
    std::vector<Quantile> per;
    for (auto &[w, v] : windows)
        if (v.size() >= kMinWindowSamples)
            per.push_back(quantile(v, p));
    if (per.empty()) {
        std::vector<double> all = scaled(out.latencyNanos, 1e3);
        return quantile(all, p);
    }
    std::sort(per.begin(), per.end(),
              [](const Quantile &a, const Quantile &b) {
                  return a.value < b.value;
              });
    Quantile q = per[(per.size() - 1) / 2];
    q.windows = per.size();
    return q;
}

/**
 * Full-GC pauses (ms) of the window: the growth of the runtime's
 * cumulative GC time between consecutive collection numbers, taking
 * the highest reading of each (see readGc).
 */
std::vector<double>
pausesMs(const Outcome &out)
{
    std::map<uint64_t, uint64_t> total;
    for (const GcReading &r : out.gcReadings)
        total[r.gc] = std::max(total[r.gc], r.totalGcNanos);
    total[out.gcBefore.gc] = out.gcBefore.totalGcNanos;
    total[out.gcAfter.gc] = out.gcAfter.totalGcNanos;
    std::vector<double> ms;
    for (uint64_t gc = out.gcBefore.gc + 1; gc <= out.gcAfter.gc; ++gc) {
        auto now = total.find(gc);
        auto prev = total.find(gc - 1);
        if (now != total.end() && prev != total.end() &&
            now->second > prev->second)
            ms.push_back(static_cast<double>(now->second - prev->second) /
                         1e6);
    }
    return ms;
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

/** CPU time of the whole host, from the first line of /proc/stat. */
struct CpuTimes {
    uint64_t total = 0;
    uint64_t steal = 0;
};

CpuTimes
cpuTimes()
{
    std::ifstream stat("/proc/stat");
    std::string cpu;
    stat >> cpu;
    CpuTimes t;
    // user nice system idle iowait irq softirq steal
    for (int i = 0; i < 8; ++i) {
        uint64_t v = 0;
        stat >> v;
        t.total += v;
        if (i == 7)
            t.steal = v;
    }
    return t;
}

/** Share of CPU time the hypervisor took away between two readings:
 *  a run with a high share measured a loaded host, not the code. */
double
stealPct(const CpuTimes &a, const CpuTimes &b)
{
    uint64_t total = b.total - a.total;
    return total ? 100.0 * static_cast<double>(b.steal - a.steal) /
                       static_cast<double>(total)
                 : 0.0;
}

/** An ordered list of named metrics with units. */
class Metrics {
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        entries_.push_back({name, value, unit});
    }

    std::string
    json() const
    {
        gcassert::JsonWriter w;
        w.beginObject();
        for (const Entry &e : entries_) {
            w.key(e.name).beginObject();
            w.field("value", e.value).field("unit", e.unit);
            w.endObject();
        }
        w.endObject();
        return w.str();
    }

  private:
    struct Entry {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

/** A runtime with its workload. The workload, whose handles root
 *  objects in the runtime, is declared last so it is destroyed
 *  first. */
struct Instance {
    std::unique_ptr<gcassert::Runtime> rt;
    std::unique_ptr<Workload> wl;
    double setupSeconds = 0.0;
    /** Steady-clock time the runtime's trace epoch follows. */
    uint64_t epochNanos = 0;
};

std::unique_ptr<Instance>
setUp(const RunOptions &options, const std::string &traceFile)
{
    auto inst = std::make_unique<Instance>();
    uint64_t t0 = nowNanos();
    inst->wl = makeWorkload(options);
    gcassert::RuntimeConfig config;
    config.heap.budgetBytes = inst->wl->heapBudgetBytes();
    config.observe.traceFile = traceFile;
    inst->epochNanos = nowNanos();
    inst->rt = std::make_unique<gcassert::Runtime>(config);
    inst->wl->build(*inst->rt);
    inst->wl->warmUp(*inst->rt);
    inst->setupSeconds = static_cast<double>(nowNanos() - t0) / 1e9;
    return inst;
}

void
reportFailures(const Outcome &out)
{
    for (const std::string &f : out.failures)
        std::fprintf(stderr, "gcbench: failed: %s\n", f.c_str());
}

std::string
stampJson(const RunOptions &options, bool trace, uint32_t mutators,
          double steal, const std::map<std::string, Quantile> &quantiles)
{
    gcassert::JsonWriter w;
    w.beginObject().key("stamp").beginObject();
    w.field("workload", options.workload)
        .field("seed", options.seed)
        .field("seconds", options.seconds)
        .field("trace", trace)
        .field("nproc", uint64_t{std::thread::hardware_concurrency()})
        .field("mutator_threads", uint64_t{mutators})
        .field("build_type", GCBENCH_BUILD_TYPE)
        .field("compiler", "gcc " __VERSION__)
        .field("host_steal_pct", steal);
    w.endObject().key("samples").beginObject();
    for (const auto &[name, q] : quantiles) {
        w.key(name).beginObject();
        w.field("n", q.samples).field("beyond", q.beyond);
        if (q.windows)
            w.field("windows", q.windows);
        w.endObject();
    }
    w.endObject().endObject();
    return w.str();
}

void
printResult(const RunOptions &options, bool trace, uint32_t mutators,
            double steal, uint64_t attempted, uint64_t failed,
            const Metrics &metrics,
            const std::map<std::string, Quantile> &quantiles)
{
    std::printf(
        "%s\n",
        stampJson(options, trace, mutators, steal, quantiles).c_str());
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"metrics\":%s}\n",
                failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                metrics.json().c_str());
}

int
measuredRun(const RunOptions &options)
{
    std::vector<double> setups;
    std::unique_ptr<Instance> inst;
    for (int i = 0; i < kSetups; ++i) {
        inst.reset();
        inst = setUp(options, "");
        setups.push_back(inst->setupSeconds);
    }
    Outcome out;
    CpuTimes cpu0 = cpuTimes();
    inst->wl->measure(*inst->rt, options.seconds, nullptr, out);
    double steal = stealPct(cpu0, cpuTimes());
    inst->wl->verify(*inst->rt, out);
    reportFailures(out);
    std::map<std::string, Quantile> q;
    std::vector<double> lat = scaled(out.latencyNanos, 1e3);
    q["latency_p50_us"] = quantile(lat, 50);
    q["latency_p995_us"] = windowedQuantile(out, 99.5);
    std::vector<double> pauses = pausesMs(out);
    q["gc_pause_p75_ms"] = quantile(pauses, 75);
    q["gc_pause_p90_ms"] = quantile(pauses, 90);
    q["setup_s"] = quantile(setups, 50);

    Metrics m;
    m.add("throughput_ops_s",
          static_cast<double>(out.completedInWindow) / out.windowSeconds,
          "1/s");
    m.add("latency_p50_us", q["latency_p50_us"].value, "us");
    m.add("latency_p995_us", q["latency_p995_us"].value, "us");
    m.add("gc_pause_p75_ms", q["gc_pause_p75_ms"].value, "ms");
    m.add("gc_pause_p90_ms", q["gc_pause_p90_ms"].value, "ms");
    m.add("setup_s", q["setup_s"].value, "s");
    m.add("peak_rss_mb", peakRssMb(), "MB");
    printResult(options, false, inst->wl->mutators(), steal, out.attempted,
                out.failed, m, q);
    return 0;
}

/** Full-GC intervals from the runtime's own trace, absolute ns. */
std::vector<std::pair<uint64_t, uint64_t>>
gcIntervals(gcassert::Runtime &rt, uint64_t epochNanos)
{
    std::vector<std::pair<uint64_t, uint64_t>> out;
    gcassert::JsonValue doc;
    std::string error;
    if (!gcassert::jsonParse(rt.telemetry()->recorder()->toJson(), doc,
                             &error))
        throw std::runtime_error("runtime trace unreadable: " + error);
    const gcassert::JsonValue *events = doc.find("traceEvents");
    if (!events || !events->isArray())
        throw std::runtime_error("runtime trace has no traceEvents");
    for (const gcassert::JsonValue &ev : events->array) {
        const gcassert::JsonValue *name = ev.find("name");
        const gcassert::JsonValue *ts = ev.find("ts");
        const gcassert::JsonValue *dur = ev.find("dur");
        if (!name || name->string != "full_gc" || !ts || !dur)
            continue;
        uint64_t start =
            epochNanos + static_cast<uint64_t>(std::llround(ts->number * 1e3));
        out.emplace_back(start, start + static_cast<uint64_t>(
                                            std::llround(dur->number * 1e3)));
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::map<std::string, uint64_t>
gauges(gcassert::Runtime &rt)
{
    std::map<std::string, uint64_t> out;
    for (const gcassert::MetricSample &s :
         rt.telemetry()->metrics().snapshot())
        out[s.name] = s.value;
    return out;
}

int
tracedRun(const RunOptions &options, const std::string &outDir)
{
    double half = options.seconds / 2.0;

    // The untraced half: the base the tracing overhead is taken from.
    Outcome base;
    {
        std::unique_ptr<Instance> inst = setUp(options, "");
        inst->wl->measure(*inst->rt, half, nullptr, base);
        inst->wl->verify(*inst->rt, base);
        reportFailures(base);
    }

    std::string stem = outDir + "/" + options.workload + "_" +
                       std::to_string(options.seed);
    std::unique_ptr<Instance> inst = setUp(options, stem + "_gc_trace.json");
    gcassert::Runtime &rt = *inst->rt;
    gcassert::GcStats gc0 = rt.gcStats();
    uint64_t alloc0 = rt.heap().totalAllocatedBytes();
    uint64_t minted0 = rt.heap().blocksMinted();
    std::map<std::string, uint64_t> g0 = gauges(rt);

    CallTrace trace;
    Outcome out;
    CpuTimes cpu0 = cpuTimes();
    inst->wl->measure(rt, half, &trace, out);
    double steal = stealPct(cpu0, cpuTimes());

    gcassert::GcStats gc1 = rt.gcStats();
    uint64_t alloc = rt.heap().totalAllocatedBytes() - alloc0;
    uint64_t minted = rt.heap().blocksMinted() - minted0;
    std::map<std::string, uint64_t> g1 = gauges(rt);
    inst->wl->verify(rt, out);
    reportFailures(out);

    trace.settle(gcIntervals(rt, inst->epochNanos));
    if (!trace.writeSpans(stem + "_spans.json", inst->epochNanos))
        std::fprintf(stderr, "gcbench: cannot write %s_spans.json\n",
                     stem.c_str());

    Metrics m;
    auto ms = [](uint64_t nanos) { return static_cast<double>(nanos) / 1e6; };
    CallStats al = trace.stats(Call::AllocLocal);
    m.add("runtime.alloc_local.calls", al.calls, "count");
    m.add("runtime.alloc_local.p50_ns", al.p50Nanos, "ns");
    m.add("runtime.alloc_local.p99_ns", al.p99Nanos, "ns");
    m.add("runtime.alloc_local.busy_ms", ms(al.busyNanos), "ms");
    CallStats wr = trace.stats(Call::WriteRef);
    m.add("runtime.write_ref.calls", wr.calls, "count");
    m.add("runtime.write_ref.p50_ns", wr.p50Nanos, "ns");
    m.add("runtime.write_ref.p99_ns", wr.p99Nanos, "ns");
    m.add("runtime.write_ref.busy_ms", ms(wr.busyNanos), "ms");
    CallStats dr = trace.stats(Call::DropLocalRoots);
    m.add("runtime.drop_local_roots.calls", dr.calls, "count");
    m.add("runtime.drop_local_roots.p99_ns", dr.p99Nanos, "ns");
    CallStats ar = trace.stats(Call::AllocRaw);
    m.add("runtime.alloc_raw.calls", ar.calls, "count");
    m.add("runtime.alloc_raw.p50_ns", ar.p50Nanos, "ns");
    m.add("runtime.gc_stalled_calls", trace.stalledCalls(), "count");
    CallStats sr = trace.stats(Call::StartRegion);
    m.add("assertions.start_region.calls", sr.calls, "count");
    m.add("assertions.start_region.p99_ns", sr.p99Nanos, "ns");
    CallStats ad = trace.stats(Call::AssertAllDead);
    m.add("assertions.assert_alldead.calls", ad.calls, "count");
    m.add("assertions.assert_alldead.p50_ns", ad.p50Nanos, "ns");
    m.add("assertions.assert_alldead.p99_ns", ad.p99Nanos, "ns");
    m.add("assertions.verdicts", out.verdictsSeen, "count");
    m.add("assertions.verdicts_expected", out.verdictsExpected, "count");
    for (const char *phase : {"mark", "finish"}) {
        for (size_t i = 0; i < gcassert::kNumAssertCostKinds; ++i) {
            auto kind = static_cast<gcassert::AssertCostKind>(i);
            // The finish phase checks no dead bits; that bucket is
            // always empty.
            if (phase == std::string("finish") &&
                kind == gcassert::AssertCostKind::Dead)
                continue;
            std::string key = std::string("assert.cost.") + phase + "." +
                              gcassert::assertCostKindName(kind);
            m.add(key + "_ms", ms(g1[key + "_nanos"] - g0[key + "_nanos"]),
                  "ms");
        }
    }
    uint64_t full = gc1.collections - gc0.collections;
    uint64_t marked = gc1.objectsMarked - gc0.objectsMarked;
    uint64_t mark_ns =
        gc1.tracePhase.elapsedNanos() - gc0.tracePhase.elapsedNanos();
    m.add("gc.full.count", full, "count");
    m.add("gc.ownership_scan_ms",
          ms(gc1.ownershipPhase.elapsedNanos() -
             gc0.ownershipPhase.elapsedNanos()),
          "ms");
    m.add("gc.mark_ms", ms(mark_ns), "ms");
    m.add("gc.finish_ms",
          ms(gc1.finishPhase.elapsedNanos() - gc0.finishPhase.elapsedNanos()),
          "ms");
    m.add("gc.sweep_ms",
          ms(gc1.sweepPhase.elapsedNanos() - gc0.sweepPhase.elapsedNanos()),
          "ms");
    m.add("gc.lazy_finish_ms",
          ms(gc1.lazyFinishPhase.elapsedNanos() -
             gc0.lazyFinishPhase.elapsedNanos()),
          "ms");
    m.add("gc.objects_marked", marked, "count");
    m.add("gc.mark_ns_per_object",
          marked ? static_cast<double>(mark_ns) / marked : 0.0, "ns");
    m.add("gc.objects_swept", gc1.objectsSwept - gc0.objectsSwept, "count");
    m.add("heap.total_allocated_bytes", alloc, "B");
    m.add("heap.blocks_minted", minted, "count");
    m.add("heap.swept_to_allocated",
          alloc ? static_cast<double>(gc1.bytesSwept - gc0.bytesSwept) / alloc
                : 0.0,
          "ratio");

    std::map<std::string, Quantile> q;
    std::vector<double> late = scaled(out.lateNanos, 1e3);
    q["gen.late_p99_us"] = quantile(late, 99);
    m.add("gen.late_p99_us", q["gen.late_p99_us"].value, "us");
    double traced_service =
        static_cast<double>(out.serviceNanos) / std::max<uint64_t>(out.attempted, 1);
    double base_service = static_cast<double>(base.serviceNanos) /
                          std::max<uint64_t>(base.attempted, 1);
    m.add("trace.overhead_pct",
          base_service > 0 ? 100.0 * (traced_service / base_service - 1.0)
                           : 0.0,
          "%");
    printResult(options, true, inst->wl->mutators(), steal,
                base.attempted + out.attempted, base.failed + out.failed, m,
                q);
    return 0;
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "gcbench: %s\nusage: gcbench --workload serve|saturate|audit "
                 "--seed N --seconds S --trace 0|1 [--out DIR]\n",
                 why);
    std::exit(2);
}

} // namespace

} // namespace gcbench

int
main(int argc, char **argv)
{
    using namespace gcbench;
    RunOptions options;
    bool trace = false;
    bool have_seed = false;
    std::string out_dir = ".bench_out";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            options.workload = value;
        } else if (arg == "--seed") {
            options.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = *end == '\0' && !value.empty();
            if (!have_seed)
                usage("--seed must be a whole number");
        } else if (arg == "--seconds") {
            options.seconds = std::strtod(value.c_str(), &end);
            if (*end != '\0' || !(options.seconds > 0.0) ||
                options.seconds > 3600.0)
                usage("--seconds must be in (0, 3600]");
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace must be 0 or 1");
            trace = value == "1";
        } else if (arg == "--out") {
            out_dir = value;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (!have_seed)
        usage("--seed is required");
    if (!makeWorkload(options))
        usage(("unknown workload '" + options.workload + "'").c_str());

    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    if (trace && ec)
        usage(("cannot create " + out_dir).c_str());

    QuietSink sink;
    gcassert::setLogSink(&sink);
    try {
        int rc = trace ? tracedRun(options, out_dir) : measuredRun(options);
        gcassert::setLogSink(nullptr);
        return rc;
    } catch (const std::exception &e) {
        gcassert::setLogSink(nullptr);
        std::fprintf(stderr, "gcbench: %s\n", e.what());
        return 1;
    }
}
