/**
 * @file
 * Fixed-size allocation blocks for the small-object space.
 *
 * A Block is a 64 KiB slab carved into equal cells of one size class.
 * A free list threads through the first word of each free cell; a
 * side bitmap records which cells are in use, so the sweep iterates
 * allocated objects without reading freed memory. The sweep reads
 * the mark of every allocated cell but writes only the dead ones:
 * marks are epoch-relative (MarkEpoch), so survivors need no
 * clearing.
 *
 * Blocks are the unit of sweep parallelism (each block is swept by
 * exactly one worker, so no block state needs synchronization), the
 * unit of lazy reclamation (a block flagged sweep-pending defers its
 * free-list threading until the next allocation touches it), and the
 * unit of TLAB leasing (a leased block is allocated from by exactly
 * one mutator, outside the global heap lock).
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
     * every allocated cell not marked in @p epoch is passed to
     * @p on_dead and released to the free list, in ascending address
     * order. Survivors are read, never written. The template keeps
     * the per-object hot loop free of std::function dispatch (and of
     * its null check).
     *
     * @return Number of bytes freed.
     */
    template <typename OnDead>
    uint64_t
    sweepWith(MarkEpoch epoch, OnDead &&on_dead)
    {
        uint32_t freed = sweepWords(
            epoch,
            [&](Object *obj) {
                on_dead(obj);
                pushFreeCell(obj);
            },
            true);
        liveCells_ -= freed;
        return uint64_t{freed} * cellBytes_;
    }

    /**
     * Parallel-sweep identification pass: report the cells not
     * marked in @p epoch through @p on_dead *without* mutating them,
     * so a buffered on_free callback can still read their intact
     * headers after the workers join. Pair with releaseCell() on each
     * reported object to finish the sweep.
     */
    template <typename OnDead>
    void
    identifyDead(MarkEpoch epoch, OnDead &&on_dead)
    {
        sweepWords(epoch, on_dead, false);
    }

    /**
     * Lazy sweep: report and un-account the cells not marked in
     * @p epoch (used bit, live count) but defer their free-list
     * threading to finishLazySweep(). The dead objects' memory is
     * untouched, so buffered callbacks may still read them after
     * this returns. Flags the block sweep-pending.
     *
     * @return Number of bytes freed (reclaimable immediately for
     *         accounting purposes; the cells become allocatable when
     *         the block is finished).
     */
    template <typename OnDead>
    uint64_t
    lazySweep(MarkEpoch epoch, OnDead &&on_dead)
    {
        uint32_t freed = sweepWords(epoch, on_dead, true);
        liveCells_ -= freed;
        lazyPending_ = true;
        return uint64_t{freed} * cellBytes_;
    }

    /**
     * Finish a deferred (lazy) sweep: rebuild the free list, in
     * ascending address order, from the used-bit complement. No-op
     * unless the block is sweep-pending. Allocation finishes a block
     * on first touch. A sweep may run on a pending block first: the
     * cells it frees leave the used bitmap, so the rebuild discards
     * whatever it pushed onto the incomplete list and loses nothing.
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
    sweep(const std::function<void(Object *)> &on_free, MarkEpoch epoch)
    {
        if (on_free)
            return sweepWith(epoch, [&](Object *obj) { on_free(obj); });
        return sweepWith(epoch, [](Object *) {});
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

    /**
     * The sweep loop all three sweeps share. For each used-bitmap
     * word (64 cells) in ascending order: find the allocated cells
     * not marked in @p epoch, call @p on_dead on them in ascending
     * address order, and, when @p unuse, drop them from the used
     * bitmap. Survivors are read, never written.
     *
     * Each word takes one of two loops, chosen by how the previous
     * word split. When it was mixed, a branch on every mark would
     * mispredict often, so the marks are first gathered into a dead
     * mask without branching and the dead cells are visited after.
     * When nearly all of it died or nearly all of it lived, the
     * branch predicts well, and one pass that frees each dead cell
     * as it reads it overlaps the next header's miss with that work.
     *
     * @return Number of dead cells.
     */
    template <typename OnDead>
    uint32_t
    sweepWords(MarkEpoch epoch, OnDead &&on_dead, bool unuse)
    {
        uint32_t dead_cells = 0;
        bool skewed = false;
        for (uint32_t word = 0; word < usedBits_.size(); ++word) {
            uint64_t used = usedBits_[word];
            uint64_t dead = 0;
            if (skewed) {
                for (uint64_t bits = used; bits; bits &= bits - 1) {
                    uint32_t bit =
                        static_cast<uint32_t>(__builtin_ctzll(bits));
                    prefetchAhead(word * 64 + bit);
                    Object *obj = objectAt(word * 64 + bit);
                    if (!obj->marked(epoch)) {
                        dead |= uint64_t{1} << bit;
                        on_dead(obj);
                    }
                }
            } else {
                for (uint64_t bits = used; bits; bits &= bits - 1) {
                    uint32_t bit =
                        static_cast<uint32_t>(__builtin_ctzll(bits));
                    prefetchAhead(word * 64 + bit);
                    uint32_t flags = objectAt(word * 64 + bit)->rawFlags();
                    dead |= uint64_t{!epoch.isMarked(flags)} << bit;
                }
                for (uint64_t bits = dead; bits; bits &= bits - 1) {
                    uint32_t bit =
                        static_cast<uint32_t>(__builtin_ctzll(bits));
                    on_dead(objectAt(word * 64 + bit));
                }
            }
            if (unuse)
                usedBits_[word] = used & ~dead;
            auto n_used = static_cast<uint32_t>(__builtin_popcountll(used));
            auto n_dead = static_cast<uint32_t>(__builtin_popcountll(dead));
            dead_cells += n_dead;
            skewed = n_dead * 8 <= n_used || n_dead * 8 >= n_used * 7;
        }
        return dead_cells;
    }

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
    /** A lazy sweep ran; the free list is incomplete. */
    bool lazyPending_ = false;
    /** Exclusively held by one mutator's TLAB. */
    bool leased_ = false;
    std::vector<uint64_t> usedBits_;
};

} // namespace gcassert

#endif // GCASSERT_HEAP_BLOCK_H
