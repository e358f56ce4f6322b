/**
 * @file
 * Unit tests for the heap substrate: object layout, size classes,
 * blocks, allocation, sweep, budget accounting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <unordered_set>

#include "heap/block.h"
#include "heap/heap.h"
#include "heap/object.h"
#include "heap/size_classes.h"
#include "support/logging.h"
#include "support/rng.h"

namespace gcassert {
namespace {

TEST(ObjectLayout, SizeForRoundsToWords)
{
    EXPECT_EQ(Object::sizeFor(0, 0), 16u);
    EXPECT_EQ(Object::sizeFor(1, 0), 24u);
    EXPECT_EQ(Object::sizeFor(0, 1), 24u);
    EXPECT_EQ(Object::sizeFor(0, 8), 24u);
    EXPECT_EQ(Object::sizeFor(2, 12), 48u);
}

TEST(ObjectLayout, HeaderIsSixteenBytes)
{
    EXPECT_EQ(sizeof(Object), 16u);
}

TEST(SizeClasses, Monotone)
{
    for (size_t i = 1; i < kNumSizeClasses; ++i)
        EXPECT_LT(kSizeClassBytes[i - 1], kSizeClassBytes[i]);
}

TEST(SizeClasses, MappingIsTightestFit)
{
    EXPECT_EQ(sizeClassFor(1), 0u);
    EXPECT_EQ(sizeClassFor(16), 0u);
    EXPECT_EQ(sizeClassFor(17), 1u);
    EXPECT_EQ(sizeClassFor(24), 1u);
    EXPECT_EQ(sizeClassFor(8192), kNumSizeClasses - 1);
    EXPECT_EQ(sizeClassFor(8193), kNumSizeClasses);
}

TEST(BlockTest, CarvesCells)
{
    Block block(64);
    EXPECT_EQ(block.cellBytes(), 64u);
    EXPECT_EQ(block.numCells(), Block::kBlockBytes / 64);
    EXPECT_TRUE(block.empty());
    EXPECT_FALSE(block.full());
}

TEST(BlockTest, AllocatesDistinctAlignedCells)
{
    Block block(64);
    std::set<void *> cells;
    for (int i = 0; i < 100; ++i) {
        void *cell = block.allocateCell();
        ASSERT_NE(cell, nullptr);
        EXPECT_EQ(reinterpret_cast<uintptr_t>(cell) % 8, 0u);
        EXPECT_TRUE(block.contains(cell));
        EXPECT_TRUE(cells.insert(cell).second);
    }
    EXPECT_EQ(block.liveCells(), 100u);
}

TEST(BlockTest, ExhaustsAndReportsFull)
{
    Block block(8192);
    uint32_t n = block.numCells();
    for (uint32_t i = 0; i < n; ++i)
        ASSERT_NE(block.allocateCell(), nullptr);
    EXPECT_TRUE(block.full());
    EXPECT_EQ(block.allocateCell(), nullptr);
}

TEST(BlockTest, SweepFreesUnmarkedAndUnmarksSurvivors)
{
    Block block(64);
    std::vector<Object *> objects;
    for (int i = 0; i < 10; ++i) {
        auto *obj = static_cast<Object *>(block.allocateCell());
        obj->format(0, 2, 8, MarkEpoch{});
        objects.push_back(obj);
    }
    // Mark even-indexed objects.
    const MarkEpoch epoch;
    for (size_t i = 0; i < objects.size(); i += 2)
        objects[i]->setMarked(epoch);

    std::vector<Object *> freed;
    uint64_t bytes =
        block.sweep([&](Object *obj) { freed.push_back(obj); }, epoch);
    EXPECT_EQ(freed.size(), 5u);
    EXPECT_EQ(bytes, 5u * 64);
    EXPECT_EQ(block.liveCells(), 5u);
    // The sweep leaves survivors alone; the next epoch reads them
    // as unmarked.
    for (size_t i = 0; i < objects.size(); i += 2) {
        EXPECT_TRUE(objects[i]->marked(epoch));
        EXPECT_FALSE(objects[i]->marked(epoch.next()))
            << "survivor keeps mark";
    }
}

TEST(BlockTest, FirstAndLastCellOfEverySizeClassMarkAndSweep)
{
    for (size_t c = 0; c < kNumSizeClasses; ++c) {
        const uint32_t bytes = kSizeClassBytes[c];
        Block block(bytes);
        std::vector<Object *> cells;
        while (void *cell = block.allocateCell()) {
            auto *obj = static_cast<Object *>(cell);
            obj->format(0, 0, bytes - Object::kHeaderBytes, MarkEpoch{});
            cells.push_back(obj);
        }
        ASSERT_EQ(cells.size(), block.numCells()) << "class " << c;
        auto [lo, hi] = std::minmax_element(cells.begin(), cells.end());
        Object *first = *lo;
        Object *last = *hi;
        EXPECT_EQ(reinterpret_cast<const char *>(first), block.base());
        EXPECT_LE(reinterpret_cast<const char *>(last) + bytes,
                  block.base() + Block::kBlockBytes);

        // Both epochs: the second round's marked value is the
        // first's unmarked one, so nothing is cleared in between.
        for (MarkEpoch epoch : {MarkEpoch{}, MarkEpoch{}.next()}) {
            for (Object *obj : cells)
                obj->clearMarked(epoch);
            first->setMarked(epoch);
            last->setMarked(epoch);
            std::vector<uint32_t> survivor_flags = {first->rawFlags(),
                                                    last->rawFlags()};
            std::vector<Object *> freed;
            uint64_t bytes_freed = block.sweep(
                [&](Object *obj) { freed.push_back(obj); }, epoch);
            EXPECT_EQ(freed.size(), cells.size() - 2) << "class " << c;
            EXPECT_EQ(bytes_freed, uint64_t{freed.size()} * bytes);
            EXPECT_TRUE(std::is_sorted(freed.begin(), freed.end()));
            EXPECT_EQ(block.liveCells(), 2u);
            EXPECT_TRUE(block.isAllocatedCell(first));
            EXPECT_TRUE(block.isAllocatedCell(last));
            EXPECT_EQ(first->rawFlags(), survivor_flags[0])
                << "the sweep never writes a survivor";
            EXPECT_EQ(last->rawFlags(), survivor_flags[1]);
            EXPECT_FALSE(first->marked(epoch.next()));
            EXPECT_FALSE(last->marked(epoch.next()));
            // Refill for the next round.
            for (size_t i = 0; i < freed.size(); ++i) {
                auto *obj = static_cast<Object *>(block.allocateCell());
                ASSERT_NE(obj, nullptr);
                obj->format(0, 0, bytes - Object::kHeaderBytes, MarkEpoch{});
            }
        }
    }
}

TEST(BlockTest, SweepFreesExactlyTheUnmarkedCellsWhateverTheWordMix)
{
    // The sweep loop picks a per-word strategy from how the previous
    // word split, so runs of all-live, all-dead, nearly-dead and
    // mixed words, and free cells, must all free exactly the cells
    // that are allocated and unmarked, in address order.
    Block block(16);
    std::vector<Object *> cells;
    while (void *cell = block.allocateCell()) {
        static_cast<Object *>(cell)->format(0, 0, 0, MarkEpoch{});
        cells.push_back(static_cast<Object *>(cell));
    }
    ASSERT_EQ(cells.size() % 64, 0u);
    Rng rng(11);
    const MarkEpoch epoch;
    std::vector<Object *> expected;
    std::vector<Object *> survivors;
    std::vector<Object *> released;
    for (size_t i = 0; i < cells.size(); ++i) {
        size_t word = i / 64;
        bool live;
        switch (word % 5) {
          case 0: live = true; break;
          case 1: live = false; break;
          case 2: live = rng.below(32) == 0; break;
          case 3: live = rng.below(2) == 0; break;
          default: live = rng.below(32) != 0; break;
        }
        if (word % 7 == 6 && i % 3 == 0) {
            released.push_back(cells[i]); // free before the sweep
            continue;
        }
        if (live) {
            cells[i]->setMarked(epoch);
            survivors.push_back(cells[i]);
        } else {
            expected.push_back(cells[i]);
        }
    }
    for (Object *obj : released)
        block.releaseCell(obj);
    std::vector<Object *> freed;
    uint64_t bytes =
        block.sweep([&](Object *obj) { freed.push_back(obj); }, epoch);
    EXPECT_EQ(freed, expected);
    EXPECT_EQ(bytes, uint64_t{expected.size()} * 16);
    EXPECT_EQ(block.liveCells(), survivors.size());
    for (Object *obj : survivors) {
        EXPECT_TRUE(block.isAllocatedCell(obj));
        EXPECT_TRUE(obj->marked(epoch));
    }
    for (Object *obj : expected)
        EXPECT_FALSE(block.isAllocatedCell(obj));
}

TEST(BlockTest, ConcurrentTryMarkWinsEachAdjacentCellOnce)
{
    // 64 adjacent 16-byte cells: four threads race to mark each one,
    // in both epochs (fetch_or and fetch_and), and every cell must be
    // won exactly once.
    Block block(16);
    std::vector<Object *> cells;
    for (int i = 0; i < 64; ++i) {
        auto *obj = static_cast<Object *>(block.allocateCell());
        obj->format(0, 0, 0, MarkEpoch{});
        cells.push_back(obj);
    }
    constexpr int kThreads = 4;
    constexpr int kRounds = 200;
    MarkEpoch epoch;
    for (int round = 0; round < kRounds; ++round) {
        std::vector<std::atomic<int>> wins(cells.size());
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                // Each thread walks the cells from a different start.
                for (size_t k = 0; k < cells.size(); ++k) {
                    size_t i = (k + size_t(t) * 16) % cells.size();
                    if (cells[i]->tryMark(epoch))
                        wins[i].fetch_add(1);
                }
            });
        }
        for (auto &thread : threads)
            thread.join();
        for (size_t i = 0; i < wins.size(); ++i) {
            ASSERT_EQ(wins[i].load(), 1) << "cell " << i << " round "
                                         << round;
            ASSERT_TRUE(cells[i]->marked(epoch));
        }
        // Every cell now reads unmarked in the next epoch.
        epoch = epoch.next();
    }
}

TEST(BlockTest, FreedCellsAreReused)
{
    Block block(64);
    auto *first = static_cast<Object *>(block.allocateCell());
    first->format(0, 0, 0, MarkEpoch{});
    block.sweep(nullptr, MarkEpoch{}); // unmarked: freed
    EXPECT_TRUE(block.empty());
    // The freed cell comes back.
    std::set<void *> seen;
    for (uint32_t i = 0; i < block.numCells(); ++i)
        seen.insert(block.allocateCell());
    EXPECT_TRUE(seen.count(first));
}

TEST(ObjectModel, RefSlotsAndScalars)
{
    Block block(128);
    auto *obj = static_cast<Object *>(block.allocateCell());
    obj->format(3, 2, 24, MarkEpoch{});
    EXPECT_EQ(obj->typeId(), 3u);
    EXPECT_EQ(obj->numRefs(), 2u);
    EXPECT_EQ(obj->scalarBytes(), 24u);
    EXPECT_EQ(obj->ref(0), nullptr);
    EXPECT_EQ(obj->ref(1), nullptr);

    auto *other = static_cast<Object *>(block.allocateCell());
    other->format(3, 2, 24, MarkEpoch{});
    obj->setRef(0, other);
    EXPECT_EQ(obj->ref(0), other);

    obj->setScalar<uint64_t>(0, 0x1122334455667788ull);
    obj->setScalar<uint32_t>(8, 42);
    EXPECT_EQ(obj->scalar<uint64_t>(0), 0x1122334455667788ull);
    EXPECT_EQ(obj->scalar<uint32_t>(8), 42u);
}

TEST(ObjectModel, OutOfRangeAccessPanics)
{
    CaptureLogSink capture;
    Block block(64);
    auto *obj = static_cast<Object *>(block.allocateCell());
    obj->format(0, 1, 8, MarkEpoch{});
    EXPECT_THROW(obj->ref(1), PanicError);
    EXPECT_THROW(obj->setRef(2, nullptr), PanicError);
    EXPECT_THROW(obj->scalar<uint64_t>(4), PanicError);
}

TEST(ObjectModel, FlagsAreIndependent)
{
    Block block(64);
    auto *obj = static_cast<Object *>(block.allocateCell());
    obj->format(0, 0, 0, MarkEpoch{});
    obj->setFlag(kDeadBit);
    obj->setFlag(kUnsharedBit);
    EXPECT_TRUE(obj->testFlag(kDeadBit));
    EXPECT_TRUE(obj->testFlag(kUnsharedBit));
    EXPECT_FALSE(obj->marked(MarkEpoch{}));
    obj->clearFlag(kDeadBit);
    EXPECT_FALSE(obj->testFlag(kDeadBit));
    EXPECT_TRUE(obj->testFlag(kUnsharedBit));
}

TEST(HeapTest, AllocatesAndTracksUsage)
{
    Heap heap(HeapConfig{1024 * 1024, false, 1.5});
    Object *obj = heap.allocate(0, 2, 8);
    ASSERT_NE(obj, nullptr);
    EXPECT_EQ(heap.liveObjects(), 1u);
    // Charged at the size-class granularity (48 bytes here).
    EXPECT_EQ(heap.usedBytes(), 48u);
    EXPECT_TRUE(heap.contains(obj));
}

TEST(HeapTest, ReturnsNullWhenBudgetExhausted)
{
    Heap heap(HeapConfig{1024, false, 1.5});
    std::vector<Object *> allocated;
    Object *obj;
    while ((obj = heap.allocate(0, 0, 0)) != nullptr)
        allocated.push_back(obj);
    EXPECT_EQ(heap.usedBytes(), 1024u);
    EXPECT_EQ(allocated.size(), 1024u / 16);
}

TEST(HeapTest, LargeObjectsGoToLos)
{
    Heap heap(HeapConfig{4 * 1024 * 1024, false, 1.5});
    Object *large = heap.allocate(0, 0, 100 * 1024);
    ASSERT_NE(large, nullptr);
    EXPECT_TRUE(heap.contains(large));
    EXPECT_GT(large->sizeBytes(), maxSmallObjectBytes());
    large->setScalar<uint64_t>(100 * 1024 - 8, 0xfeed);
    EXPECT_EQ(large->scalar<uint64_t>(100 * 1024 - 8), 0xfeedu);
}

TEST(HeapTest, SweepReclaimsUnmarked)
{
    Heap heap(HeapConfig{1024 * 1024, false, 1.5});
    Object *keep = heap.allocate(0, 1, 0);
    Object *drop = heap.allocate(0, 1, 0);
    Object *big_keep = heap.allocate(0, 0, 20000);
    Object *big_drop = heap.allocate(0, 0, 20000);
    keep->setMarked(heap.markEpoch());
    big_keep->setMarked(heap.markEpoch());

    std::unordered_set<Object *> freed;
    SweepStats stats = heap.sweep([&](Object *obj) { freed.insert(obj); });
    EXPECT_EQ(stats.freedObjects, 2u);
    EXPECT_TRUE(freed.count(drop));
    EXPECT_TRUE(freed.count(big_drop));
    EXPECT_FALSE(freed.count(keep));
    EXPECT_EQ(heap.liveObjects(), 2u);
    EXPECT_FALSE(keep->marked(heap.markEpoch())) << "epoch advanced";
    EXPECT_FALSE(big_keep->marked(heap.markEpoch()));
    EXPECT_TRUE(heap.contains(keep));
    EXPECT_FALSE(heap.contains(big_drop));
}

TEST(HeapTest, LargeObjectMarkedAndSwept)
{
    Heap heap(HeapConfig{4 * 1024 * 1024, false, 1.5});
    for (int gc = 0; gc < 2; ++gc) {
        Object *keep = heap.allocate(0, 0, 20000);
        Object *drop = heap.allocate(0, 0, 20000);
        const MarkEpoch epoch = heap.markEpoch();
        EXPECT_FALSE(keep->marked(epoch));
        EXPECT_TRUE(keep->tryMark(epoch));
        EXPECT_FALSE(keep->tryMark(epoch)) << "second mark loses";
        EXPECT_TRUE(keep->marked(epoch));
        EXPECT_FALSE(drop->marked(epoch));

        std::vector<Object *> freed;
        SweepStats stats =
            heap.sweep([&](Object *obj) { freed.push_back(obj); });
        EXPECT_EQ(stats.freedObjects, 1u);
        ASSERT_EQ(freed.size(), 1u);
        EXPECT_EQ(freed[0], drop);
        EXPECT_TRUE(heap.contains(keep));
        EXPECT_EQ(heap.markEpoch(), epoch.next());
        EXPECT_FALSE(keep->marked(heap.markEpoch()));
        heap.sweep(nullptr); // unmarked now: reclaimed
        EXPECT_FALSE(heap.contains(keep));
    }
}

/** Mark every other small object and every large one, then sweep
 *  with @p options: survivors are never written, and no object reads
 *  marked in the advanced epoch. */
void
expectSurvivorsUntouchedBySweep(const SweepOptions &options)
{
    Heap heap(HeapConfig{64 * 1024 * 1024, false, 1.5});
    for (int gc = 0; gc < 3; ++gc) {
        std::vector<Object *> objects;
        heap.forEachObject([&](Object *obj) { objects.push_back(obj); });
        for (uint32_t i = 0; i < 20000; ++i)
            objects.push_back(heap.allocate(0, i % 5, (i % 7) * 24));
        objects.push_back(heap.allocate(0, 0, 30000));
        const MarkEpoch epoch = heap.markEpoch();
        std::vector<std::pair<Object *, uint32_t>> survivors;
        for (size_t i = 0; i < objects.size(); ++i) {
            if (i % 2 == 0 || objects[i]->sizeBytes() > maxSmallObjectBytes()) {
                objects[i]->setMarked(epoch);
                survivors.emplace_back(objects[i], objects[i]->rawFlags());
            }
        }
        uint64_t freed_callbacks = 0;
        SweepStats stats =
            heap.sweep([&](Object *) { ++freed_callbacks; }, options);
        EXPECT_EQ(stats.freedObjects, objects.size() - survivors.size());
        EXPECT_EQ(freed_callbacks, objects.size() - survivors.size());
        EXPECT_EQ(heap.liveObjects(), survivors.size());
        if (options.lazy) {
            EXPECT_GT(heap.lazyPendingBlocks(), 0u);
            heap.finishLazySweep();
            EXPECT_EQ(heap.lazyPendingBlocks(), 0u);
        }
        for (auto &[obj, flags] : survivors)
            EXPECT_EQ(obj->rawFlags(), flags)
                << "the sweep never writes a survivor";
        heap.forEachObject([&](Object *obj) {
            EXPECT_FALSE(obj->marked(heap.markEpoch()));
        });
    }
}

TEST(HeapTest, EagerSweepLeavesSurvivorsUntouched)
{
    expectSurvivorsUntouchedBySweep(SweepOptions{});
}

TEST(HeapTest, LazySweepLeavesSurvivorsUntouched)
{
    SweepOptions options;
    options.lazy = true;
    expectSurvivorsUntouchedBySweep(options);
}

TEST(HeapTest, ParallelSweepLeavesSurvivorsUntouched)
{
    SweepOptions options;
    options.threads = 4;
    expectSurvivorsUntouchedBySweep(options);
    options.lazy = true;
    expectSurvivorsUntouchedBySweep(options);
}

TEST(HeapTest, NewObjectsAreUnmarkedInEveryEpoch)
{
    Heap heap(HeapConfig{1024 * 1024, false, 1.5});
    for (int gc = 0; gc < 4; ++gc) {
        Object *small = heap.allocate(0, 1, 8);
        Object *big = heap.allocate(0, 0, 20000);
        EXPECT_FALSE(small->marked(heap.markEpoch())) << "gc " << gc;
        EXPECT_FALSE(big->marked(heap.markEpoch())) << "gc " << gc;
        small->setMarked(heap.markEpoch());
        big->setMarked(heap.markEpoch());
        heap.sweep(nullptr);
    }
    EXPECT_EQ(heap.liveObjects(), 2u) << "each GC kept only its own pair";
}

TEST(HeapTest, SlowPathResumesAtTheHint)
{
    // Fill three blocks of one class in order; with every block
    // before the hint full, the wrap-around scan must hand out the
    // same cells as a scan from the front: the next allocation
    // after a sweep reuses the freed cell of the first block.
    Heap heap(HeapConfig{16 * 1024 * 1024, false, 1.5});
    std::vector<Object *> objects;
    const uint32_t per_block = Block::kBlockBytes / 64;
    for (uint32_t i = 0; i < 3 * per_block; ++i)
        objects.push_back(heap.allocate(0, 0, 40));
    const MarkEpoch epoch = heap.markEpoch();
    for (Object *obj : objects)
        obj->setMarked(epoch);
    objects[5]->clearMarked(epoch);
    objects[per_block + 7]->clearMarked(epoch);
    heap.sweep(nullptr);
    EXPECT_EQ(heap.allocate(0, 0, 40), objects[5]);
    EXPECT_EQ(heap.allocate(0, 0, 40), objects[per_block + 7]);
    Object *fresh = heap.allocate(0, 0, 40);
    for (Object *obj : objects)
        EXPECT_NE(fresh, obj) << "a full heap mints a new block";
}

TEST(HeapTest, EmptyBlocksAreReleased)
{
    Heap heap(HeapConfig{8 * 1024 * 1024, false, 1.5});
    // Fill several blocks of one class, then free everything.
    for (int i = 0; i < 10000; ++i)
        heap.allocate(0, 0, 0);
    SweepStats stats = heap.sweep(nullptr);
    EXPECT_EQ(stats.freedObjects, 10000u);
    EXPECT_GT(stats.releasedBlocks, 0u);
    EXPECT_EQ(heap.usedBytes(), 0u);
}

TEST(HeapTest, ForEachObjectVisitsEverything)
{
    Heap heap(HeapConfig{1024 * 1024, false, 1.5});
    std::unordered_set<Object *> expected;
    for (int i = 0; i < 100; ++i)
        expected.insert(heap.allocate(0, 1, 8));
    expected.insert(heap.allocate(0, 0, 30000));

    std::unordered_set<Object *> seen;
    heap.forEachObject([&](Object *obj) { seen.insert(obj); });
    EXPECT_EQ(seen, expected);
}

TEST(HeapTest, LifetimeTotalsAreMonotonic)
{
    Heap heap(HeapConfig{1024 * 1024, false, 1.5});
    heap.allocate(0, 0, 0);
    heap.allocate(0, 0, 0);
    uint64_t bytes = heap.totalAllocatedBytes();
    EXPECT_EQ(heap.totalAllocatedObjects(), 2u);
    heap.sweep(nullptr);
    heap.allocate(0, 0, 0);
    EXPECT_EQ(heap.totalAllocatedObjects(), 3u);
    EXPECT_GT(heap.totalAllocatedBytes(), 0u);
    EXPECT_GE(heap.totalAllocatedBytes(), bytes);
}

TEST(HeapTest, MixedSizeClassesCoexist)
{
    Heap heap(HeapConfig{16 * 1024 * 1024, false, 1.5});
    std::vector<Object *> objects;
    for (uint32_t refs = 0; refs < 64; refs += 7)
        for (uint32_t scalars = 0; scalars < 4000; scalars += 997)
            objects.push_back(heap.allocate(1, refs, scalars));
    for (Object *obj : objects) {
        ASSERT_NE(obj, nullptr);
        EXPECT_TRUE(heap.contains(obj));
    }
    EXPECT_EQ(heap.liveObjects(), objects.size());
}

} // namespace
} // namespace gcassert
