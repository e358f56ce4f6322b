/**
 * @file
 * Fixed-size allocation blocks for the small-object space.
 *
 * A Block is a 64 KiB aligned slab carved into equal cells of one
 * size class. A free list threads through the first word of each
 * free cell; a side bitmap records which cells are live so the sweep
 * can iterate allocated objects without reading freed memory.
 *
 * Blocks are the unit of sweep parallelism (each block is swept by
 * exactly one worker, so no block state needs synchronization), the
 * unit of lazy reclamation (a block flagged sweep-pending defers its
 * mark-bit clearing and free-list threading until the next
 * allocation touches it), and the unit of TLAB leasing (a leased
 * block is allocated from by exactly one mutator, outside the global
 * heap lock).
 */

#ifndef GCASSERT_HEAP_BLOCK_H
#define GCASSERT_HEAP_BLOCK_H

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "heap/object.h"

namespace gcassert {

/**
 * One slab of cells belonging to a single size class.
 */
class Block {
  public:
    /** Slab size; cells never span blocks. */
    static constexpr size_t kBlockBytes = 64 * 1024;

    /**
     * Create an empty block whose cells are @p cell_bytes wide.
     * All cells start on the free list.
     */
    explicit Block(uint32_t cell_bytes);

    ~Block();

    Block(const Block &) = delete;
    Block &operator=(const Block &) = delete;

    /** Cell width for this block. */
    uint32_t cellBytes() const { return cellBytes_; }

    /** Total cells in the block. */
    uint32_t numCells() const { return numCells_; }

    /** Currently allocated cells. */
    uint32_t liveCells() const { return liveCells_; }

    /** @return true when no cell is allocated. */
    bool empty() const { return liveCells_ == 0; }

    /** @return true when every cell is allocated. */
    bool full() const { return liveCells_ == numCells_; }

    /**
     * Pop a free cell. The returned memory is uninitialized; the
     * heap formats it as an Object. A sweep-pending block finishes
     * its deferred reclamation first, so lazily swept cells become
     * allocatable the moment allocation reaches their block.
     *
     * @return Cell address, or nullptr when the block is full.
     */
    void *allocateCell();

    /** @return true if @p p points into this block's slab. */
    bool contains(const void *p) const;

    /**
     * @return true if @p p is the base address of a currently
     * allocated cell (used-bit precision, not just slab range).
     */
    bool isAllocatedCell(const void *p) const;

    /**
     * Eager sweep with statically dispatched dead-object callback:
     * for every allocated cell, clear the mark bit if set, otherwise
     * invoke @p on_dead and release the cell back to the free list.
     * The template keeps the per-object hot loop free of
     * std::function dispatch (and of its null check).
     *
     * @return Number of bytes freed.
     */
    template <typename OnDead>
    uint64_t
    sweepWith(OnDead &&on_dead)
    {
        uint64_t freed = 0;
        for (uint32_t word = 0; word < usedBits_.size(); ++word) {
            uint64_t bits = usedBits_[word];
            while (bits) {
                uint32_t bit =
                    static_cast<uint32_t>(__builtin_ctzll(bits));
                bits &= bits - 1;
                uint32_t cell = word * 64 + bit;
                prefetchAhead(cell);
                Object *obj = objectAt(cell);
                if (obj->marked()) {
                    obj->clearFlag(kMarkBit);
                } else {
                    on_dead(obj);
                    clearUsedBit(cell);
                    pushFreeCell(obj);
                    --liveCells_;
                    freed += cellBytes_;
                }
            }
        }
        return freed;
    }

    /**
     * Parallel-sweep identification pass: clear the mark bit of live
     * cells and report dead cells through @p on_dead *without*
     * mutating them, so a buffered on_free callback can still read
     * their intact headers after the workers join. Pair with
     * releaseCell() on each reported object to finish the sweep.
     */
    template <typename OnDead>
    void
    identifyDead(OnDead &&on_dead)
    {
        for (uint32_t word = 0; word < usedBits_.size(); ++word) {
            uint64_t bits = usedBits_[word];
            while (bits) {
                uint32_t bit =
                    static_cast<uint32_t>(__builtin_ctzll(bits));
                bits &= bits - 1;
                uint32_t cell = word * 64 + bit;
                prefetchAhead(cell);
                Object *obj = objectAt(cell);
                if (obj->marked())
                    obj->clearFlag(kMarkBit);
                else
                    on_dead(obj);
            }
        }
    }

    /**
     * Lazy sweep: report and un-account dead cells (used bit, live
     * count) but defer both the mark-bit clearing of survivors and
     * the free-list threading of corpses to finishLazySweep(). The
     * dead objects' memory is untouched, so buffered callbacks may
     * still read them after this returns. Flags the block
     * sweep-pending.
     *
     * @return Number of bytes freed (reclaimable immediately for
     *         accounting purposes; the cells become allocatable when
     *         the block is finished).
     */
    template <typename OnDead>
    uint64_t
    lazySweep(OnDead &&on_dead)
    {
        uint64_t freed = 0;
        for (uint32_t word = 0; word < usedBits_.size(); ++word) {
            uint64_t bits = usedBits_[word];
            while (bits) {
                uint32_t bit =
                    static_cast<uint32_t>(__builtin_ctzll(bits));
                bits &= bits - 1;
                uint32_t cell = word * 64 + bit;
                prefetchAhead(cell);
                Object *obj = objectAt(cell);
                if (obj->marked())
                    continue; // mark cleared on finish
                on_dead(obj);
                clearUsedBit(cell);
                --liveCells_;
                freed += cellBytes_;
            }
        }
        lazyPending_ = true;
        return freed;
    }

    /**
     * Finish a deferred (lazy) sweep: clear the stale mark bits of
     * survivors and rebuild the free list, in ascending address
     * order, from the used-bit complement. No-op unless the block is
     * sweep-pending. Must run before the next mark phase (the
     * collector finishes all pending blocks at GC start; allocation
     * finishes a block on first touch).
     */
    void finishLazySweep();

    /** @return true while a lazy sweep is deferred on this block. */
    bool lazyPending() const { return lazyPending_; }

    /**
     * Release one dead cell identified by identifyDead(): clear its
     * used bit and thread it onto the free list.
     *
     * @return Bytes freed (the cell size).
     */
    uint64_t releaseCell(Object *obj);

    /**
     * Sweep the block (dynamic-dispatch convenience wrapper over
     * sweepWith, kept for tests and tools).
     */
    uint64_t
    sweep(const std::function<void(Object *)> &on_free)
    {
        if (on_free)
            return sweepWith([&](Object *obj) { on_free(obj); });
        return sweepWith([](Object *) {});
    }

    /**
     * Visit every allocated object in the block (live or not-yet-
     * swept). Used by detectors and debugging dumps.
     */
    void forEachObject(const std::function<void(Object *)> &visit) const;

    /** @name TLAB leasing
     *
     * A leased block is allocated from exclusively by one mutator
     * (outside the global heap lock), is skipped by the shared
     * allocation path, and is never released even when empty.
     *  @{ */
    bool leased() const { return leased_; }
    void setLeased(bool leased) { leased_ = leased; }
    /** @} */

    /** Base address of the slab (for address-ordered diagnostics). */
    const char *base() const { return memory_.get(); }

  private:
    /**
     * Sweep read-ahead distance, in cells. The sweeps visit cells in
     * address order, so the header this many cells on is one they
     * will read shortly; fetching it now overlaps its miss with the
     * work on the cells in between.
     */
    static constexpr uint32_t kSweepPrefetchCells = 64;

    /** Prefetch the header kSweepPrefetchCells past @p cell, if that
     *  cell is still inside this block. */
    void
    prefetchAhead(uint32_t cell) const
    {
        if (cell + kSweepPrefetchCells < numCells_)
            __builtin_prefetch(objectAt(cell + kSweepPrefetchCells));
    }

    /** Index of the cell containing @p p. @pre contains(p). */
    uint32_t cellIndexOf(const void *p) const;

    /** Object view of cell @p cell. */
    Object *
    objectAt(uint32_t cell) const
    {
        return reinterpret_cast<Object *>(
            const_cast<char *>(memory_.get()) +
            size_t{cell} * cellBytes_);
    }

    /** Thread a (dead, unused) cell onto the free list head. */
    void pushFreeCell(void *cell);

    bool
    usedBit(uint32_t cell) const
    {
        return (usedBits_[cell / 64] >> (cell % 64)) & 1;
    }

    void
    setUsedBit(uint32_t cell)
    {
        usedBits_[cell / 64] |= uint64_t{1} << (cell % 64);
    }

    void
    clearUsedBit(uint32_t cell)
    {
        usedBits_[cell / 64] &= ~(uint64_t{1} << (cell % 64));
    }

    std::unique_ptr<char[]> memory_;
    uint32_t cellBytes_;
    uint32_t numCells_;
    uint32_t liveCells_;
    void *freeHead_;
    /** A lazy sweep ran; marks stale and free list incomplete. */
    bool lazyPending_ = false;
    /** Exclusively held by one mutator's TLAB. */
    bool leased_ = false;
    std::vector<uint64_t> usedBits_;
};

} // namespace gcassert

#endif // GCASSERT_HEAP_BLOCK_H
