/**
 * @file
 * Micro-benchmarks (google-benchmark) for the individual mechanisms
 * whose costs the paper reasons about:
 *
 *  - allocation, with and without the per-allocation region check
 *    (section 2.3.2);
 *  - the GC trace loop per live object, Base vs Infrastructure
 *    (header-bit checks + instance tallying, sections 2.3-2.4);
 *  - the trace loop on a scattered heap larger than the last-level
 *    cache (regression guard for the child prefetch);
 *  - the ownee sorted-array binary search (section 2.5.2);
 *  - assertion registration calls (header-bit writes);
 *  - handle (root) registration;
 *  - per-object sweep dispatch: the templated hot loop vs the
 *    legacy std::function path (regression guard for the hoist);
 *  - the full-heap sweep of a mostly live, scattered heap (guard for
 *    the epoch marks: survivors are never written);
 *  - the TLAB allocation fast path vs the locked path.
 */

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "assertions/ownership.h"
#include "heap/block.h"
#include "support/logging.h"
#include "support/rng.h"
#include "support/stopwatch.h"
#include "runtime/runtime.h"

namespace gcassert {
namespace {

/** A runtime + node type bundle for the micro benches. */
struct Env {
    explicit Env(bool infrastructure, uint64_t heap_bytes = 512ull << 20)
    {
        RuntimeConfig config;
        config.heap.budgetBytes = heap_bytes;
        config.infrastructure = infrastructure;
        config.recordPaths = infrastructure;
        runtime = std::make_unique<Runtime>(config);
        nodeType = runtime->types()
                       .define("Node")
                       .refCount(2)
                       .scalars(8)
                       .build();
        arrayType = runtime->types().define("Array").array().build();
    }

    std::unique_ptr<Runtime> runtime;
    TypeId nodeType = kInvalidTypeId;
    TypeId arrayType = kInvalidTypeId;
};

void
BM_Allocation(benchmark::State &state)
{
    Env env(state.range(0) != 0);
    Runtime &rt = *env.runtime;
    uint64_t n = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(rt.allocRaw(env.nodeType));
        if (++n % 100000 == 0) {
            state.PauseTiming();
            rt.collect(); // keep the heap from growing unboundedly
            state.ResumeTiming();
        }
    }
}
BENCHMARK(BM_Allocation)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("infra");

void
BM_AllocationInRegion(benchmark::State &state)
{
    Env env(true);
    Runtime &rt = *env.runtime;
    rt.startRegion();
    uint64_t n = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(rt.allocRaw(env.nodeType));
        if (++n % 100000 == 0) {
            state.PauseTiming();
            rt.assertAllDead();
            rt.collect();
            rt.startRegion();
            state.ResumeTiming();
        }
    }
    rt.assertAllDead();
}
BENCHMARK(BM_AllocationInRegion);

/** Trace cost per live object: a rooted linked list of N nodes. */
void
BM_TracePerObject(benchmark::State &state)
{
    Env env(state.range(1) != 0);
    Runtime &rt = *env.runtime;
    int64_t population = state.range(0);
    Handle head(rt, rt.allocRaw(env.nodeType), "head");
    Object *tail = head.get();
    for (int64_t i = 1; i < population; ++i) {
        Object *next = rt.allocRaw(env.nodeType);
        tail->setRef(0, next);
        tail = next;
    }
    for (auto _ : state)
        rt.collect();
    state.SetItemsProcessed(state.iterations() * population);
}
BENCHMARK(BM_TracePerObject)
    ->Args({100000, 0})
    ->Args({100000, 1})
    ->ArgNames({"live", "infra"});

/**
 * Mark cost per object on a heap larger than the last-level cache
 * whose objects are linked in shuffled address order, so nearly every
 * header the trace loads is a cache miss (the shape of a long-running
 * heap whose objects sit wherever a free cell was). Fans of 64 slots
 * hold mostly leaves, with a two-reference node in every sixteenth
 * slot. Reports mark_ns_per_object from the trace-phase timer; a
 * change that drops the trace loop's child prefetch shows up as a
 * rise. The heap is 5/4 of the L3 size sysconf reports, clamped to
 * [64, 512] MiB to keep the run small on hosts with very large caches.
 */
void
BM_TraceScattered(benchmark::State &state)
{
    constexpr uint32_t kFan = 64;
    constexpr uint32_t kNodeEvery = 16;
    constexpr uint64_t kCellBytes = 48; // Leaf and Node size class
    long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
    uint64_t heap_bytes = std::clamp<uint64_t>(
        llc > 0 ? uint64_t(llc) * 5 / 4 : 0, 64ull << 20, 512ull << 20);

    Env env(true, 2 * heap_bytes);
    Runtime &rt = *env.runtime;
    TypeId leaf_type = rt.types().define("Leaf").scalars(24).build();

    std::vector<Object *> pool(heap_bytes / kCellBytes);
    for (Object *&obj : pool)
        obj = rt.allocRaw(leaf_type);
    Rng rng(42);
    rng.shuffle(pool);

    // Per fan: the plain leaf slots, plus two leaves under each node.
    const uint32_t nodes = kFan / kNodeEvery;
    const size_t per_fan = (kFan - nodes) + 2 * nodes;
    const uint32_t fans = static_cast<uint32_t>(pool.size() / per_fan);
    Handle top(rt, rt.allocArrayRaw(env.arrayType, fans), "top");
    size_t next = 0;
    for (uint32_t f = 0; f < fans; ++f) {
        Object *fan = rt.allocArrayRaw(env.arrayType, kFan);
        top->setRef(f, fan);
        for (uint32_t slot = 0; slot < kFan; ++slot) {
            if (slot % kNodeEvery == kNodeEvery - 1) {
                Object *node = rt.allocRaw(env.nodeType);
                node->setRef(0, pool[next++]);
                node->setRef(1, pool[next++]);
                fan->setRef(slot, node);
            } else {
                fan->setRef(slot, pool[next++]);
            }
        }
    }
    pool.clear();
    pool.shrink_to_fit();

    const GcStats &stats = rt.gcStats();
    uint64_t trace_before = stats.tracePhase.elapsedNanos();
    uint64_t marked_before = stats.objectsMarked;
    for (auto _ : state)
        rt.collect();
    uint64_t marked = stats.objectsMarked - marked_before;
    state.counters["mark_ns_per_object"] =
        double(stats.tracePhase.elapsedNanos() - trace_before) /
        double(std::max<uint64_t>(marked, 1));
    state.counters["heap_mb"] = double(heap_bytes >> 20);
    state.SetItemsProcessed(int64_t(marked));
}
BENCHMARK(BM_TraceScattered)->Unit(benchmark::kMillisecond);

/** Ownership-phase cost on top of the trace. */
void
BM_TraceWithOwnership(benchmark::State &state)
{
    Env env(true);
    Runtime &rt = *env.runtime;
    int64_t ownees = state.range(0);
    Handle owner(rt, rt.allocArrayRaw(env.arrayType,
                                      static_cast<uint32_t>(ownees)),
                 "owner");
    for (int64_t i = 0; i < ownees; ++i) {
        Object *e = rt.allocRaw(env.nodeType);
        owner->setRef(static_cast<uint32_t>(i), e);
        rt.assertOwnedBy(owner.get(), e);
    }
    for (auto _ : state)
        rt.collect();
    state.SetItemsProcessed(state.iterations() * ownees);
}
BENCHMARK(BM_TraceWithOwnership)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(50000)
    ->ArgName("ownees");

void
BM_OwneeBinarySearch(benchmark::State &state)
{
    Env env(true);
    Runtime &rt = *env.runtime;
    int64_t ownees = state.range(0);
    OwnershipTable table;
    Object *owner = rt.allocRaw(env.nodeType);
    std::vector<Object *> members;
    for (int64_t i = 0; i < ownees; ++i) {
        Object *e = rt.allocRaw(env.nodeType);
        table.addPair(owner, e);
        members.push_back(e);
    }
    size_t cursor = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            table.isOwneeOf(owner, members[cursor]));
        cursor = (cursor + 1) % members.size();
    }
}
BENCHMARK(BM_OwneeBinarySearch)
    ->Arg(1000)
    ->Arg(100000)
    ->ArgName("ownees");

void
BM_AssertDeadCall(benchmark::State &state)
{
    Env env(true);
    Runtime &rt = *env.runtime;
    Object *obj = rt.allocRaw(env.nodeType);
    Handle root(rt, obj, "pin");
    for (auto _ : state) {
        rt.assertDead(obj);
        obj->clearFlag(kDeadBit);
    }
}
BENCHMARK(BM_AssertDeadCall);

/**
 * Per-object sweep cost with half the block dying each round.
 * Arg 0: the templated sweepWith hot loop (what Heap::sweep runs).
 * Arg 1: the legacy std::function dispatch (the pre-hoist shape,
 * kept as Block::sweep for direct users). The guard: the template
 * must never be slower than the std::function path.
 */
void
BM_SweepDispatch(benchmark::State &state)
{
    const bool dynamic = state.range(0) != 0;
    Block block(64);
    const std::function<void(Object *)> fn = [](Object *obj) {
        benchmark::DoNotOptimize(obj);
    };
    uint64_t sink = 0;
    MarkEpoch epoch;
    for (auto _ : state) {
        // Each round is a new mark epoch, in which last round's
        // survivors read unmarked. Refill the cells freed by the
        // previous round and mark every other object; identical work
        // in both variants.
        epoch = epoch.next();
        while (void *cell = block.allocateCell())
            static_cast<Object *>(cell)->format(0, 2, 8, epoch);
        size_t i = 0;
        block.forEachObject([&](Object *obj) {
            if ((i++ & 1) == 0)
                obj->setMarked(epoch);
        });
        if (dynamic)
            sink += block.sweep(fn, epoch);
        else
            sink += block.sweepWith(
                epoch, [](Object *obj) { benchmark::DoNotOptimize(obj); });
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * block.numCells());
}
BENCHMARK(BM_SweepDispatch)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("dynamic");

/**
 * Full-heap sweep of a long-running heap: about 40 MiB of 48-byte
 * cells, two-thirds of them live at shuffled addresses (the shape of
 * `audit`'s heap after a full trace). Each round re-marks a fresh
 * random two-thirds, refills the cells the previous round freed, and
 * times only Heap::sweep with a counting on_free callback, as the
 * collector runs it. Reports ns_per_block. The sweep reads every
 * allocated cell's mark but writes only the dead cells (marks are
 * epoch-relative), so a rise here means survivors are being written
 * again or the read-ahead stopped streaming.
 */
void
BM_SweepMostlyLive(benchmark::State &state)
{
    constexpr uint64_t kHeapBytes = 40ull << 20;
    constexpr uint32_t kScalars = 24; // 40-byte objects, 48-byte cells
    Heap heap(HeapConfig{2 * kHeapBytes, false, 1.5});
    const uint64_t target = kHeapBytes / 48;
    const uint64_t blocks = (target + Block::kBlockBytes / 48 - 1) /
        (Block::kBlockBytes / 48);
    std::vector<Object *> objects;
    objects.reserve(target);
    Rng rng(7);
    uint64_t swept_nanos = 0;
    uint64_t freed = 0;
    for (auto _ : state) {
        // Untimed: refill to the target population, then mark a
        // random two-thirds of it.
        while (heap.liveObjects() < target)
            heap.allocate(0, 0, kScalars);
        objects.clear();
        heap.forEachObject([&](Object *obj) { objects.push_back(obj); });
        rng.shuffle(objects);
        for (size_t i = 0; i < objects.size() * 2 / 3; ++i)
            objects[i]->setMarked(heap.markEpoch());

        uint64_t t0 = nowNanos();
        SweepStats stats = heap.sweep([&](Object *obj) {
            freed += obj->sizeBytes() != 0;
        });
        uint64_t elapsed = nowNanos() - t0;
        swept_nanos += elapsed;
        state.SetIterationTime(double(elapsed) * 1e-9);
        benchmark::DoNotOptimize(stats);
    }
    benchmark::DoNotOptimize(freed);
    state.counters["ns_per_block"] =
        double(swept_nanos) /
        double(std::max<uint64_t>(blocks * state.iterations(), 1));
    state.counters["blocks"] = double(blocks);
}
BENCHMARK(BM_SweepMostlyLive)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

/** Allocation through the TLAB fast path (shared lock + bump). */
void
BM_AllocationTlab(benchmark::State &state)
{
    RuntimeConfig config;
    config.heap.budgetBytes = 512ull << 20;
    config.infrastructure = false;
    config.recordPaths = false;
    config.tlab = state.range(0) != 0;
    Runtime rt(config);
    TypeId node =
        rt.types().define("Node").refCount(2).scalars(8).build();
    uint64_t n = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(rt.allocRaw(node));
        if (++n % 100000 == 0) {
            state.PauseTiming();
            rt.collect();
            state.ResumeTiming();
        }
    }
}
BENCHMARK(BM_AllocationTlab)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("tlab");

void
BM_HandleRegistration(benchmark::State &state)
{
    Env env(true);
    Runtime &rt = *env.runtime;
    Object *obj = rt.allocRaw(env.nodeType);
    Handle pin(rt, obj, "pin");
    for (auto _ : state) {
        Handle h(rt, obj, "bench");
        benchmark::DoNotOptimize(h.get());
    }
}
BENCHMARK(BM_HandleRegistration);

} // namespace
} // namespace gcassert

int
main(int argc, char **argv)
{
    // Violations and GC chatter would pollute the bench output.
    gcassert::CaptureLogSink quiet;
    ::benchmark::Initialize(&argc, argv);
    ::benchmark::RunSpecifiedBenchmarks();
    return 0;
}
