/**
 * @file
 * Sequential-vs-parallel / eager-vs-lazy differential harness for
 * the sweep phase.
 *
 * The parallel and lazy sweeps claim to be *observationally
 * identical* to the sequential eager sweep: same freed and live
 * object multisets, same freed byte totals, same finalizer
 * invocation order, same detector (staleness / Cork) outputs, same
 * assertion violations. The harness builds randomized heap programs
 * spanning many size classes and the large-object space from a
 * deterministic seed, runs one runtime per sweep configuration, and
 * compares the outcomes over 100+ seeds.
 *
 * Two strengths of comparison apply:
 *
 *  - Across *thread counts* within one mode, the sweep callback
 *    stream must match exactly, in order: parallel workers buffer
 *    their dead sets and replay them in canonical (size-class,
 *    block, cell) order, which is precisely the sequential visit
 *    order. The per-GC freed-id *sequences* are compared.
 *  - Across *modes* (eager vs lazy), allocation placement legally
 *    diverges after the first collection (an eager sweep threads
 *    dead cells LIFO onto the existing free list; a lazy finish
 *    rebuilds the whole list in address order), so later sweeps
 *    visit isomorphic-but-reordered heaps. There the per-GC freed-id
 *    *multisets*, totals, finalizer order (registration-order
 *    driven, placement-independent) and detector outputs must agree.
 *
 * Objects carry an allocation-sequence id in their scalar payload,
 * so all keys are address-free.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "detectors/cork.h"
#include "detectors/staleness.h"
#include "runtime/runtime.h"
#include "support/logging.h"
#include "support/rng.h"

namespace gcassert {
namespace {

/** One sweep configuration under test. */
struct SweepConfig {
    uint32_t threads;
    bool lazy;
};

/** Address-free summary of one scenario run. */
struct Outcome {
    uint64_t marked = 0;
    uint64_t swept = 0;
    uint64_t sweptBytes = 0;
    uint64_t liveObjects = 0;
    uint64_t usedBytes = 0;
    uint64_t violationCount = 0;
    /** Freed "type:id" keys per GC, in callback order. */
    std::vector<std::vector<std::string>> freedPerGc;
    /** Finalized ids, in invocation order. */
    std::vector<uint64_t> finalized;
    /** Staleness reports: "type|staleForGcs", order-insensitive. */
    std::multiset<std::string> stale;
    /** Cork reports: "type|first|last|frac", order-insensitive. */
    std::multiset<std::string> growing;
    /** "kind|type|gc#|message" per violation, order-insensitive. */
    std::multiset<std::string> violations;

    /** Everything except the freed *order* within each GC. */
    bool
    equivalentTo(const Outcome &other) const
    {
        if (freedPerGc.size() != other.freedPerGc.size())
            return false;
        for (size_t gc = 0; gc < freedPerGc.size(); ++gc) {
            std::multiset<std::string> mine(freedPerGc[gc].begin(),
                                            freedPerGc[gc].end());
            std::multiset<std::string> theirs(
                other.freedPerGc[gc].begin(), other.freedPerGc[gc].end());
            if (mine != theirs)
                return false;
        }
        return marked == other.marked && swept == other.swept &&
               sweptBytes == other.sweptBytes &&
               liveObjects == other.liveObjects &&
               usedBytes == other.usedBytes &&
               violationCount == other.violationCount &&
               finalized == other.finalized && stale == other.stale &&
               growing == other.growing &&
               violations == other.violations;
    }

    /** Exact equality, including the freed order within each GC. */
    bool
    operator==(const Outcome &other) const
    {
        return freedPerGc == other.freedPerGc && equivalentTo(other);
    }
};

std::string
describe(const Outcome &o)
{
    std::string out;
    out += "marked=" + std::to_string(o.marked) +
           " swept=" + std::to_string(o.swept) +
           " sweptBytes=" + std::to_string(o.sweptBytes) +
           " live=" + std::to_string(o.liveObjects) +
           " usedBytes=" + std::to_string(o.usedBytes) +
           " violations=" + std::to_string(o.violationCount) + "\n";
    for (size_t gc = 0; gc < o.freedPerGc.size(); ++gc)
        out += "  gc" + std::to_string(gc) + ": freed " +
               std::to_string(o.freedPerGc[gc].size()) + "\n";
    out += "  finalized:";
    for (uint64_t id : o.finalized)
        out += " " + std::to_string(id);
    out += "\n";
    for (const std::string &s : o.stale)
        out += "  stale " + s + "\n";
    for (const std::string &g : o.growing)
        out += "  growing " + g + "\n";
    for (const std::string &v : o.violations)
        out += "  " + v + "\n";
    return out;
}

/**
 * Run the seed-determined heap program on a fresh runtime with the
 * given sweep configuration and summarize every sweep-observable
 * effect. All randomness is keyed off indices, never addresses.
 */
Outcome
runScenario(const SweepConfig &sweep, uint64_t seed)
{
    RuntimeConfig config;
    config.generational = false; // harness holds unrooted raw pointers
    config.infrastructure = true;
    config.recordPaths = false;
    config.markThreads = 1;
    config.sweepThreads = sweep.threads;
    config.lazySweep = sweep.lazy;
    config.tlab = false; // placement determinism for the harness
    Runtime rt(config);

    Outcome out;

    // Small fixed-shape nodes, mid-size records, ref arrays, weak
    // refs, and scalar blobs spanning every size class plus the
    // large-object space.
    TypeId node_type = rt.types()
                           .define("Node")
                           .refs({"left", "right"})
                           .scalars(8)
                           .build();
    TypeId record_type = rt.types()
                             .define("Record")
                             .refs({"a", "b", "c"})
                             .scalars(136)
                             .build();
    TypeId array_type = rt.types().define("Array").array().build();
    TypeId blob_type = rt.types().define("Blob").array().build();
    TypeId weak_type = rt.types()
                           .define("WeakRef")
                           .refs({"referent", "strong"})
                           .scalars(8)
                           .weak()
                           .build();

    StalenessDetector staleness(rt, /*threshold_gcs=*/2);
    CorkDetector cork(rt, /*window=*/3, /*growth_fraction=*/0.6);

    // Every object carries its allocation-sequence id in its scalar
    // payload (ref arrays have none and are keyed by length), making
    // the freed stream address-free.
    uint64_t next_id = 1;
    auto keyOf = [&](Object *obj) {
        const TypeDescriptor &desc = rt.types().get(obj->typeId());
        if (desc.isArray() && obj->scalarBytes() < 8)
            return desc.name() + ":len" + std::to_string(obj->numRefs());
        return desc.name() + ":" +
               std::to_string(obj->scalar<uint64_t>(0));
    };
    // Liveness tracking so staleness touches only hit live objects
    // (touching a freed address would make reports depend on address
    // reuse, which legally differs between placement modes). An
    // address maps to its *latest* occupant index; death order
    // matches across configurations because the heaps are
    // isomorphic.
    std::vector<char> alive;
    std::unordered_map<Object *, size_t> latest_idx;
    rt.addFreeHook([&](Object *obj) {
        // The hook observes the dying object's intact header and
        // payload regardless of sweep configuration.
        out.freedPerGc.back().push_back(keyOf(obj));
        auto it = latest_idx.find(obj);
        if (it != latest_idx.end())
            alive[it->second] = 0;
    });

    Rng rng(seed);
    const size_t num_nodes = rng.range(300, 700);
    const size_t num_records = rng.range(40, 120);
    const size_t num_arrays = rng.range(3, 10);
    const size_t num_blobs = rng.range(10, 40);
    const size_t num_weaks = rng.range(5, 20);

    std::vector<Object *> objs;
    auto stamp = [&](Object *obj) {
        if (obj->scalarBytes() >= 8)
            obj->setScalar<uint64_t>(0, next_id);
        ++next_id;
        objs.push_back(obj);
        alive.push_back(1);
        latest_idx[obj] = objs.size() - 1;
        return obj;
    };
    for (size_t i = 0; i < num_nodes; ++i)
        stamp(rt.allocRaw(node_type));
    for (size_t i = 0; i < num_records; ++i)
        stamp(rt.allocRaw(record_type));
    std::vector<uint32_t> array_lens;
    for (size_t i = 0; i < num_arrays; ++i) {
        array_lens.push_back(static_cast<uint32_t>(rng.range(1, 24)));
        stamp(rt.allocArrayRaw(array_type, array_lens.back()));
    }
    for (size_t i = 0; i < num_blobs; ++i) {
        // 24..12000 payload bytes: spans most size classes and
        // (past 8 KiB cells) the large-object space.
        uint32_t bytes = static_cast<uint32_t>(rng.range(24, 12000));
        stamp(rt.allocScalarRaw(blob_type, bytes));
    }
    for (size_t i = 0; i < num_weaks; ++i)
        stamp(rt.allocRaw(weak_type));

    // Wire edges (shared subtrees and cycles arise naturally).
    auto random_obj = [&]() { return objs[rng.below(objs.size())]; };
    for (size_t i = 0; i < num_nodes; ++i) {
        if (rng.chance(0.75))
            objs[i]->setRef(0, random_obj());
        if (rng.chance(0.55))
            objs[i]->setRef(1, random_obj());
    }
    for (size_t i = 0; i < num_records; ++i) {
        Object *rec = objs[num_nodes + i];
        for (uint32_t slot = 0; slot < 3; ++slot)
            if (rng.chance(0.5))
                rec->setRef(slot, random_obj());
    }
    for (size_t i = 0; i < num_arrays; ++i) {
        Object *arr = objs[num_nodes + num_records + i];
        for (uint32_t slot = 0; slot < array_lens[i]; ++slot)
            if (rng.chance(0.5))
                arr->setRef(slot, random_obj());
    }
    for (size_t i = 0; i < num_weaks; ++i) {
        Object *weak = objs[objs.size() - num_weaks + i];
        if (rng.chance(0.8))
            weak->setRef(0, random_obj()); // weak edge
        if (rng.chance(0.5))
            weak->setRef(1, random_obj()); // strong edge
    }

    // Roots.
    std::vector<Handle> roots;
    roots.emplace_back(rt, objs[0], "anchor");
    for (size_t i = 1; i < objs.size(); ++i)
        if (rng.chance(0.08))
            roots.emplace_back(rt, objs[i], "root");

    // Finalizers on a random sample; ids are recorded in invocation
    // order, which must be identical in every configuration.
    for (size_t i = 0; i < objs.size(); ++i) {
        if (objs[i]->scalarBytes() >= 8 && rng.chance(0.05)) {
            rt.setFinalizer(objs[i], [&](Object *obj) {
                out.finalized.push_back(obj->scalar<uint64_t>(0));
            });
        }
    }

    // A few assertions so violation reporting rides along.
    for (size_t i = 0, n = objs.size() / 40; i < n; ++i)
        rt.assertDead(objs[rng.below(objs.size())]);
    for (size_t i = 0, n = objs.size() / 50; i < n; ++i)
        rt.assertUnshared(objs[rng.below(objs.size())]);

    // Three collections with churn in between: drop roots, cut
    // edges, touch a staleness subset, allocate fresh garbage (in
    // lazy mode the allocations land in sweep-pending blocks and
    // finish them incrementally), and census with Cork.
    const size_t gcs = 3;
    for (size_t gc = 0; gc < gcs; ++gc) {
        // Draw the dice unconditionally (keeps the rng stream in
        // lockstep across configurations) but act only on objects
        // still alive — dead slots may have been handed to new
        // occupants in a placement-dependent way.
        for (size_t i = 0; i < objs.size(); ++i) {
            bool do_touch = rng.chance(0.15);
            if (do_touch && alive[i])
                staleness.touch(objs[i]);
        }

        out.freedPerGc.emplace_back();
        rt.collect();
        cork.sample();

        for (size_t i = 1; i < roots.size(); ++i)
            if (rng.chance(0.3))
                roots[i].reset();
        for (size_t i = 0; i < num_nodes; ++i) {
            bool do_cut = rng.chance(0.1);
            uint32_t slot = static_cast<uint32_t>(rng.below(2));
            if (do_cut && alive[i])
                objs[i]->setRef(slot, nullptr);
        }

        // Churn: some rooted survivors, some immediate garbage.
        for (size_t i = 0, n = rng.range(20, 80); i < n; ++i) {
            Object *fresh = stamp(rt.allocRaw(node_type));
            if (rng.chance(0.3))
                roots.emplace_back(rt, fresh, "churn");
        }
        for (size_t i = 0, n = rng.range(2, 8); i < n; ++i)
            stamp(rt.allocScalarRaw(blob_type,
                                    static_cast<uint32_t>(
                                        rng.range(24, 12000))));
    }
    out.freedPerGc.emplace_back();
    rt.collect();

    // Summarize.
    const GcStats &stats = rt.gcStats();
    out.marked = stats.objectsMarked;
    out.swept = stats.objectsSwept;
    out.sweptBytes = stats.bytesSwept;
    out.liveObjects = rt.heap().liveObjects();
    out.usedBytes = rt.heap().usedBytes();
    out.violationCount = stats.violations;
    for (const StaleReport &report : staleness.findStale())
        out.stale.insert(report.typeName + "|" +
                         std::to_string(report.staleForGcs));
    for (const GrowthReport &report : cork.findGrowing())
        out.growing.insert(report.typeName + "|" +
                           std::to_string(report.bytesFirst) + "|" +
                           std::to_string(report.bytesLast) + "|" +
                           std::to_string(report.growthSamples) + "/" +
                           std::to_string(report.windowSamples));
    for (const Violation &v : rt.violations())
        out.violations.insert(std::string(assertionKindName(v.kind)) +
                              "|" + v.offendingType + "|" +
                              std::to_string(v.gcNumber) + "|" +
                              v.message);
    return out;
}

TEST(ParallelSweepDifferential, MatchesSequentialAcrossSeedsAndModes)
{
    CaptureLogSink capture;
    const uint32_t thread_counts[] = {2, 4, 8};
    for (uint64_t seed = 1; seed <= 100; ++seed) {
        Outcome eager = runScenario({1, false}, seed);
        Outcome lazy = runScenario({1, true}, seed);

        // Eager vs lazy: identical multisets, totals, finalizer
        // order and detector outputs (placement may legally differ).
        ASSERT_TRUE(lazy.equivalentTo(eager))
            << "eager/lazy divergence at seed " << seed
            << "\n--- eager ---\n" << describe(eager)
            << "--- lazy ---\n" << describe(lazy);

        for (uint32_t threads : thread_counts) {
            // Within a mode, the buffered parallel replay must
            // reproduce the sequential callback stream exactly.
            Outcome par_eager = runScenario({threads, false}, seed);
            ASSERT_TRUE(par_eager == eager)
                << "eager divergence at seed " << seed << " with "
                << threads << " sweep threads\n--- sequential ---\n"
                << describe(eager) << "--- parallel ---\n"
                << describe(par_eager);

            Outcome par_lazy = runScenario({threads, true}, seed);
            ASSERT_TRUE(par_lazy == lazy)
                << "lazy divergence at seed " << seed << " with "
                << threads << " sweep threads\n--- sequential ---\n"
                << describe(lazy) << "--- parallel ---\n"
                << describe(par_lazy);
        }
    }
}

TEST(ParallelSweepTest, StatsRecordConfiguration)
{
    CaptureLogSink capture;
    RuntimeConfig config;
    config.generational = false; // harness holds unrooted raw pointers
    config.recordPaths = false;
    config.sweepThreads = 4;
    config.lazySweep = true;
    Runtime rt(config);
    TypeId node = rt.types().define("Node").refs({"next"}).build();
    Handle root(rt, rt.allocRaw(node), "root");
    rt.allocRaw(node); // garbage
    rt.collect();
    EXPECT_EQ(rt.gcStats().parallelSweepPhases, 1u);
    EXPECT_EQ(rt.gcStats().lazySweepGcs, 1u);
}

TEST(ParallelSweepTest, LazyPendingBlockSweptAgainLosesNoCells)
{
    // A collection sweeps a sweep-pending block as it is, without
    // finishing it first: the cells its own sweep frees are pushed
    // onto the incomplete free list, and the finish at the next
    // allocation rebuilds the whole list from the used bitmap. Both
    // collections' dead cells come back, in ascending address order.
    CaptureLogSink capture;
    RuntimeConfig config;
    config.generational = false; // harness holds unrooted raw pointers
    config.recordPaths = false;
    config.lazySweep = true;
    Runtime rt(config);
    TypeId node = rt.types().define("Node").refs({"next"}).build();
    Handle root(rt, rt.allocRaw(node), "root");
    std::vector<Object *> dead;
    std::vector<Handle> held;
    for (int i = 0; i < 100; ++i) {
        dead.push_back(rt.allocRaw(node));
        if (i % 3 == 0)
            held.emplace_back(rt, dead.back(), "held"); // dies in GC 2
    }
    rt.collect();
    ASSERT_GT(rt.heap().lazyPendingBlocks(), 0u);
    held.clear();
    rt.collect(); // no allocation in between: the block is still pending
    ASSERT_GT(rt.heap().lazyPendingBlocks(), 0u);

    std::sort(dead.begin(), dead.end());
    std::vector<Object *> reused;
    for (size_t i = 0; i < dead.size(); ++i)
        reused.push_back(rt.allocRaw(node));
    EXPECT_EQ(reused, dead);
}

TEST(ParallelSweepTest, AllocationFinishesLazyPendingBlock)
{
    CaptureLogSink capture;
    RuntimeConfig config;
    config.generational = false; // harness holds unrooted raw pointers
    config.recordPaths = false;
    config.lazySweep = true;
    Runtime rt(config);
    TypeId node = rt.types().define("Node").refs({"next"}).build();
    Handle root(rt, rt.allocRaw(node), "root");
    for (int i = 0; i < 100; ++i)
        rt.allocRaw(node); // garbage, all in the one Node block
    rt.collect();
    ASSERT_GT(rt.heap().lazyPendingBlocks(), 0u);
    // The allocation slow path reaches the pending block and must
    // finish it before reusing its cells.
    Object *fresh = rt.allocRaw(node);
    EXPECT_TRUE(rt.heap().contains(fresh));
    EXPECT_EQ(rt.heap().lazyPendingBlocks(), 0u);
}

TEST(ParallelSweepTest, LegacyBlockSweepStillWorks)
{
    // Direct Block::sweep users (tests, tools) keep the dynamic
    // std::function signature.
    Block block(64);
    auto *obj = static_cast<Object *>(block.allocateCell());
    ASSERT_NE(obj, nullptr);
    obj->format(0, 2, 8, MarkEpoch{});
    uint64_t freed = block.sweep(nullptr, MarkEpoch{}); // unmarked: freed
    EXPECT_EQ(freed, 64u);
    EXPECT_TRUE(block.empty());
}

} // namespace
} // namespace gcassert
