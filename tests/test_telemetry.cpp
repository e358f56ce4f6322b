/**
 * @file
 * Telemetry-vs-no-telemetry differential harness plus schema checks
 * for every JSON artifact the observe layer emits.
 *
 * The telemetry layer claims full observational equivalence: phase
 * tracing, the metrics registry, the heap census, and violation
 * provenance only *read* algorithm state, so runs with every knob on
 * must be bit-identical -- per-window freed multisets, finalizer
 * order, and violation verdicts -- to runs with everything off. The
 * shared rooted-contract heap program (tests/differential.h) over
 * 100 seeds enforces the claim in both plain and generational mode.
 *
 * The schema tests validate the emitted documents with the in-tree
 * parser: the Chrome trace (traceEvents array, "X" spans with
 * ts/dur, per-phase names, worker sub-spans on their own tids), the
 * census snapshot (row/total consistency), the metrics snapshot
 * (counters/gauges objects), and violation provenance.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "differential.h"
#include "runtime/runtime.h"
#include "support/json.h"
#include "support/logging.h"

namespace gcassert {
namespace {

using difftest::DiffOutcome;

std::string
tracePath(uint64_t seed)
{
    return ::testing::TempDir() + "gcassert_test_trace_" +
           std::to_string(seed) + ".json";
}

/**
 * Run the shared rooted scenario with telemetry fully on (tracing,
 * metrics to a file, census every GC) or fully off. The rng stream
 * is identical either way; telemetry must not perturb any of it.
 */
DiffOutcome
runScenario(bool telemetry, uint64_t seed, bool generational = false)
{
    RuntimeConfig config;
    config.infrastructure = true;
    config.recordPaths = false;
    config.tlab = false;
    config.generational = generational;
    config.nurseryKb = 32;
    if (telemetry) {
        config.observe.traceFile = tracePath(seed);
        config.observe.metricsSink =
            ::testing::TempDir() + "gcassert_test_metrics.json";
        config.observe.censusEvery = 1;
    } else {
        config.observe = ObserveConfig{};
        config.observe.traceFile.clear();
        config.observe.metricsSink.clear();
        config.observe.censusEvery = 0;
    }
    return difftest::runRootedScenario(config, seed);
}

TEST(TelemetryDifferential, MatchesUntracedAcross100Seeds)
{
    CaptureLogSink capture;
    for (uint64_t seed = 1; seed <= 100; ++seed) {
        DiffOutcome off = runScenario(false, seed);
        DiffOutcome on = runScenario(true, seed);
        ASSERT_TRUE(difftest::equivalent(on, off))
            << "telemetry divergence at seed " << seed
            << "\n--- off ---\n" << difftest::describe(off)
            << "--- on ---\n" << difftest::describe(on);
        std::remove(tracePath(seed).c_str());
    }
}

TEST(TelemetryDifferential, MatchesUntracedUnderGenerationalMode)
{
    CaptureLogSink capture;
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        DiffOutcome off = runScenario(false, seed, /*generational=*/true);
        DiffOutcome on = runScenario(true, seed, /*generational=*/true);
        ASSERT_TRUE(difftest::equivalent(on, off))
            << "telemetry divergence (generational) at seed " << seed
            << "\n--- off ---\n" << difftest::describe(off)
            << "--- on ---\n" << difftest::describe(on);
        std::remove(tracePath(seed).c_str());
    }
}

// ---------------------------------------------------------------------
// Schema checks
// ---------------------------------------------------------------------

/** A small runtime with telemetry on; drives a couple of GCs. */
RuntimeConfig
observedConfig()
{
    RuntimeConfig config;
    config.infrastructure = true;
    config.tlab = false;
    config.observe.traceFile =
        ::testing::TempDir() + "gcassert_schema_trace.json";
    config.observe.metricsSink.clear();
    config.observe.censusEvery = 1;
    return config;
}

TEST(TelemetrySchema, ChromeTraceParsesWithPhaseSpans)
{
    CaptureLogSink capture;
    RuntimeConfig config = observedConfig();
    // Parallel marking requires path recording off (collect() would
    // downgrade to sequential otherwise), and the sweep only shards
    // when there is more than one block to split across workers.
    config.recordPaths = false;
    config.markThreads = 2;
    config.sweepThreads = 2;
    Runtime rt(config);
    TypeId t = rt.types().define("T").refs({"next"}).scalars(256).build();
    {
        Handle keep(rt, rt.allocRaw(t), "keep");
        for (int i = 0; i < 2000; ++i) {
            Object *obj = rt.allocRaw(t);
            rt.writeRef(keep.get(), 0, obj);
        }
        rt.collect();
        rt.collect();
    }

    ASSERT_NE(rt.telemetry(), nullptr);
    ASSERT_NE(rt.telemetry()->recorder(), nullptr);
    std::string doc = rt.telemetry()->recorder()->toJson();

    JsonValue root;
    std::string error;
    ASSERT_TRUE(jsonParse(doc, root, &error)) << error;
    ASSERT_TRUE(root.isObject());
    const JsonValue *events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_FALSE(events->array.empty());

    std::set<std::string> names;
    std::set<double> worker_tids;
    for (const JsonValue &ev : events->array) {
        ASSERT_TRUE(ev.isObject());
        const JsonValue *name = ev.find("name");
        const JsonValue *ph = ev.find("ph");
        const JsonValue *ts = ev.find("ts");
        const JsonValue *pid = ev.find("pid");
        const JsonValue *tid = ev.find("tid");
        ASSERT_NE(name, nullptr);
        ASSERT_TRUE(name->isString());
        ASSERT_NE(ph, nullptr);
        ASSERT_NE(ts, nullptr);
        ASSERT_TRUE(ts->isNumber());
        ASSERT_NE(pid, nullptr);
        ASSERT_NE(tid, nullptr);
        if (ph->string == "X") {
            const JsonValue *dur = ev.find("dur");
            ASSERT_NE(dur, nullptr);
            ASSERT_TRUE(dur->isNumber());
            EXPECT_GE(dur->number, 0.0);
        }
        names.insert(name->string);
        const JsonValue *cat = ev.find("cat");
        if (cat && cat->string == "gc.worker")
            worker_tids.insert(tid->number);
    }
    // One span per phase of the two full collections.
    EXPECT_TRUE(names.count("full_gc"));
    EXPECT_TRUE(names.count("mark"));
    EXPECT_TRUE(names.count("sweep"));
    EXPECT_TRUE(names.count("finish"));
    // Parallel mark/sweep workers get their own tids (1..N), so
    // Perfetto renders them as sub-tracks under the collector row.
    EXPECT_GE(worker_tids.size(), 2u);
    EXPECT_FALSE(worker_tids.count(0.0));
}

TEST(TelemetrySchema, MinorGcSpansAreDistinguishable)
{
    CaptureLogSink capture;
    RuntimeConfig config = observedConfig();
    config.generational = true;
    config.nurseryKb = 16;
    Runtime rt(config);
    TypeId t = rt.types().define("T").refs({"next"}).scalars(64).build();
    for (int i = 0; i < 2000; ++i)
        rt.allocRaw(t); // unrooted: dies in the nursery
    rt.collectMinor();
    rt.collect();

    JsonValue root;
    std::string error;
    ASSERT_TRUE(
        jsonParse(rt.telemetry()->recorder()->toJson(), root, &error))
        << error;
    bool saw_minor = false, saw_full = false;
    for (const JsonValue &ev : root.find("traceEvents")->array) {
        const std::string &name = ev.find("name")->string;
        if (name == "minor_gc")
            saw_minor = true;
        if (name == "full_gc")
            saw_full = true;
    }
    EXPECT_TRUE(saw_minor);
    EXPECT_TRUE(saw_full);
}

TEST(TelemetrySchema, CensusMatchesHeapAndSerializes)
{
    CaptureLogSink capture;
    Runtime rt(observedConfig());
    TypeId a = rt.types().define("Alpha").refs({"x"}).scalars(8).build();
    TypeId b = rt.types().define("Beta").refs({}).scalars(40).build();
    std::vector<Handle> keep;
    for (int i = 0; i < 7; ++i)
        keep.emplace_back(rt, rt.allocRaw(a), "a");
    for (int i = 0; i < 3; ++i)
        keep.emplace_back(rt, rt.allocRaw(b), "b");
    rt.collect();

    CensusSnapshot census = rt.latestCensus();
    ASSERT_FALSE(census.empty());
    EXPECT_EQ(census.gcNumber, rt.gcStats().collections);
    EXPECT_EQ(census.totalObjects, rt.heap().liveObjects());
    uint64_t alpha = 0, beta = 0, total = 0;
    for (const CensusRow &row : census.rows) {
        total += row.liveObjects;
        if (row.typeName == "Alpha")
            alpha = row.liveObjects;
        if (row.typeName == "Beta")
            beta = row.liveObjects;
    }
    EXPECT_EQ(alpha, 7u);
    EXPECT_EQ(beta, 3u);
    EXPECT_EQ(total, census.totalObjects);

    JsonValue parsed;
    std::string error;
    ASSERT_TRUE(jsonParse(census.toJson(), parsed, &error)) << error;
    ASSERT_TRUE(parsed.isObject());
    EXPECT_NE(parsed.find("rows"), nullptr);

    // requestCensus() forces one outside the censusEvery cadence.
    rt.requestCensus();
    rt.collect();
    EXPECT_EQ(rt.latestCensus().gcNumber, rt.gcStats().collections);
}

TEST(TelemetrySchema, MetricsSnapshotSerializesAndTracksStats)
{
    CaptureLogSink capture;
    Runtime rt(observedConfig());
    TypeId t = rt.types().define("T").refs({}).scalars(16).build();
    for (int i = 0; i < 50; ++i)
        rt.allocRaw(t);
    rt.collect();
    rt.collect();

    MetricsRegistry &m = rt.telemetry()->metrics();
    JsonValue parsed;
    std::string error;
    ASSERT_TRUE(jsonParse(m.toJson(), parsed, &error)) << error;
    const JsonValue *gauges = parsed.find("gauges");
    ASSERT_NE(gauges, nullptr);
    const JsonValue *collections = gauges->find("gc.collections");
    ASSERT_NE(collections, nullptr);
    EXPECT_EQ(collections->number,
              static_cast<double>(rt.gcStats().collections));
    const JsonValue *counters = parsed.find("counters");
    ASSERT_NE(counters, nullptr);
    // The census-every-1 cadence bumped the push counter each GC.
    const JsonValue *taken = counters->find("observe.census_taken");
    ASSERT_NE(taken, nullptr);
    EXPECT_EQ(taken->number,
              static_cast<double>(rt.gcStats().collections));
}

TEST(TelemetrySchema, ViolationCarriesProvenance)
{
    CaptureLogSink capture;
    Runtime rt(observedConfig());
    TypeId t = rt.types().define("Leak").refs({}).scalars(8).build();
    Handle keep(rt, rt.allocRaw(t), "keep");
    rt.collect(); // census snapshot exists before the violation
    rt.assertDead(keep.get());
    rt.collect();

    ASSERT_EQ(rt.violations().size(), 1u);
    const Violation &v = rt.violations()[0];
    EXPECT_FALSE(v.provenanceJson.empty());

    JsonValue parsed;
    std::string error;
    ASSERT_TRUE(jsonParse(v.toJson(), parsed, &error)) << error;
    EXPECT_NE(parsed.find("kind"), nullptr);
    EXPECT_NE(parsed.find("address"), nullptr);
    const JsonValue *prov = parsed.find("provenance");
    ASSERT_NE(prov, nullptr);
    ASSERT_TRUE(prov->isObject());
    EXPECT_NE(prov->find("heapUsedBytes"), nullptr);
    EXPECT_NE(prov->find("censusTop"), nullptr);
}

TEST(TelemetrySchema, TraceFileFlushedOnDestruction)
{
    CaptureLogSink capture;
    std::string path =
        ::testing::TempDir() + "gcassert_flush_trace.json";
    std::remove(path.c_str());
    {
        RuntimeConfig config = observedConfig();
        config.observe.traceFile = path;
        Runtime rt(config);
        TypeId t = rt.types().define("T").refs({}).build();
        rt.allocRaw(t);
        rt.collect();
    }
    FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string doc;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        doc.append(buf, n);
    std::fclose(f);
    std::remove(path.c_str());

    JsonValue root;
    std::string error;
    ASSERT_TRUE(jsonParse(doc, root, &error)) << error;
    ASSERT_NE(root.find("traceEvents"), nullptr);
}

// ---------------------------------------------------------------------
// TraceRecorder incremental flushing
// ---------------------------------------------------------------------

std::string
slurp(const std::string &path)
{
    FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return "";
    std::string doc;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        doc.append(buf, n);
    std::fclose(f);
    return doc;
}

/** Parse @p doc and return traceEvents array size, or -1 on error. */
int
traceEventCount(const std::string &doc)
{
    JsonValue root;
    std::string error;
    if (!jsonParse(doc, root, &error))
        return -1;
    const JsonValue *events = root.find("traceEvents");
    if (!events || !events->isArray())
        return -1;
    return static_cast<int>(events->array.size());
}

TEST(TraceRecorderFlush, BufferBoundTriggersAutoFlush)
{
    std::string path =
        ::testing::TempDir() + "gcassert_incr_trace.json";
    std::remove(path.c_str());
    TraceRecorder rec(path);
    rec.setMaxBuffered(4);
    for (int i = 0; i < 10; ++i)
        rec.complete("span", "t", 1000u * i, 1000u * i + 500, 0);
    // 10 events, bound 4: two automatic flushes (at 4 and 8) leave
    // 8 on disk and 2 buffered.
    EXPECT_EQ(rec.flushedCount(), 8u);
    EXPECT_EQ(rec.eventCount(), 10u);
    // The file is a complete, valid document between flushes.
    EXPECT_EQ(traceEventCount(slurp(path)), 8);
    std::remove(path.c_str());
}

TEST(TraceRecorderFlush, FileIsValidJsonAfterEveryFlush)
{
    std::string path =
        ::testing::TempDir() + "gcassert_incr_trace2.json";
    std::remove(path.c_str());
    TraceRecorder rec(path);
    rec.setMaxBuffered(3);
    for (int i = 0; i < 20; ++i) {
        rec.instant("tick", "t", 100u * i);
        std::string doc = slurp(path);
        if (!doc.empty()) {
            // Whatever has been spilled so far must parse on its own.
            ASSERT_GE(traceEventCount(doc), 0) << "after event " << i;
        }
    }
    rec.flush();
    EXPECT_EQ(traceEventCount(slurp(path)), 20);
    EXPECT_EQ(rec.flushedCount(), 20u);
    std::remove(path.c_str());
}

TEST(TraceRecorderFlush, ToJsonCarriesFullHistoryAcrossFlushes)
{
    std::string path =
        ::testing::TempDir() + "gcassert_incr_trace3.json";
    std::remove(path.c_str());
    TraceRecorder rec(path);
    rec.setMaxBuffered(4);
    for (int i = 0; i < 11; ++i)
        rec.complete("span", "t", 1000u * i, 1000u * i + 10, 0);
    // 8 flushed + 3 buffered: toJson() must stitch both together.
    EXPECT_EQ(traceEventCount(rec.toJson()), 11);
    // And repeated flushes stay idempotent.
    rec.flush();
    rec.flush();
    EXPECT_EQ(traceEventCount(slurp(path)), 11);
    EXPECT_EQ(rec.eventCount(), 11u);
    std::remove(path.c_str());
}

TEST(TraceRecorderFlush, ExplicitFlushOnEmptyBufferWritesDocument)
{
    std::string path =
        ::testing::TempDir() + "gcassert_incr_trace4.json";
    std::remove(path.c_str());
    TraceRecorder rec(path);
    EXPECT_TRUE(rec.flush());
    EXPECT_EQ(traceEventCount(slurp(path)), 0);
    // Events recorded after an empty first flush still splice in
    // correctly (no leading-comma corruption).
    rec.instant("tick", "t", 5);
    EXPECT_TRUE(rec.flush());
    EXPECT_EQ(traceEventCount(slurp(path)), 1);
    std::remove(path.c_str());
}

TEST(TraceRecorderFlush, PathlessRecorderBuffersWithoutBound)
{
    TraceRecorder rec("");
    rec.setMaxBuffered(2);
    for (int i = 0; i < 8; ++i)
        rec.instant("tick", "t", 10u * i);
    // No file: nothing to spill to, everything stays readable.
    EXPECT_EQ(rec.eventCount(), 8u);
    EXPECT_EQ(rec.flushedCount(), 0u);
    EXPECT_EQ(traceEventCount(rec.toJson()), 8);
    EXPECT_FALSE(rec.flush());
}

} // namespace
} // namespace gcassert
