/**
 * @file
 * Mutator thread contexts.
 *
 * The paper's assert-alldead regions are per-thread: each thread has
 * a boolean "in region" flag and a queue of objects allocated while
 * the region is active (section 2.3.2). MutatorContext carries that
 * state; the Runtime checks the flag on every allocation.
 */

#ifndef GCASSERT_GC_MUTATOR_H
#define GCASSERT_GC_MUTATOR_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "heap/heap.h"
#include "heap/object.h"

namespace gcassert {

/**
 * Per-thread mutator state.
 */
class MutatorContext {
  public:
    explicit MutatorContext(std::string name) : name_(std::move(name)) {}

    MutatorContext(const MutatorContext &) = delete;
    MutatorContext &operator=(const MutatorContext &) = delete;

    const std::string &name() const { return name_; }

    /** True between start-region and assert-alldead. */
    bool inRegion() const { return inRegion_; }

    /**
     * Label of the active region ("" for an unlabeled region). Set
     * by start-region so a later assert-alldead violation can name
     * the region it came from (e.g. a server request id).
     */
    const std::string &regionLabel() const { return regionLabel_; }

    /**
     * Allocation hook: record @p obj on the region queue when a
     * region is active. Called by the Runtime on every allocation
     * made by this mutator — this check is the per-allocation time
     * overhead the paper describes for assert-alldead.
     */
    void
    noteAllocation(Object *obj)
    {
        if (inRegion_) {
            obj->setFlag(kRegionBit);
            regionQueue_.push_back(obj);
        }
    }

    /** Objects allocated so far in the active region. */
    const std::vector<Object *> &regionQueue() const
    {
        return regionQueue_;
    }

    /**
     * This mutator's allocation buffer (blocks leased from the
     * heap). Only the owning thread and the (stop-the-world) heap
     * slow path touch it.
     */
    Heap::TlabCache &tlab() { return tlab_; }

    /**
     * Thread-local GC roots: objects handed out by the lock-free
     * allocation fast path are retained here so a collection
     * triggered by another thread cannot sweep them before the
     * owning thread publishes them. Scanned (and mutated — dead
     * assertion reactions may null entries) by the collector.
     */
    std::vector<Object *> &localRoots() { return localRoots_; }

    /** Pin @p obj as a thread-local root. */
    void retainLocal(Object *obj) { localRoots_.push_back(obj); }

    /** Release every thread-local root. */
    void dropLocalRoots() { localRoots_.clear(); }

  private:
    friend class AssertionEngine;

    /** Engine-side: flip the region flag. */
    void setInRegion(bool in_region) { inRegion_ = in_region; }

    /** Engine-side: flush and clear the queue. */
    std::vector<Object *>
    takeRegionQueue()
    {
        std::vector<Object *> queue;
        queue.swap(regionQueue_);
        return queue;
    }

    /** Collector-side: drop queue entries that died in this GC (not
     *  marked in @p epoch). */
    void
    pruneRegionQueue(MarkEpoch epoch)
    {
        size_t kept = 0;
        for (Object *obj : regionQueue_)
            if (obj->marked(epoch))
                regionQueue_[kept++] = obj;
        regionQueue_.resize(kept);
    }

    friend class Collector;

    std::string name_;
    bool inRegion_ = false;
    std::string regionLabel_;
    std::vector<Object *> regionQueue_;
    Heap::TlabCache tlab_;
    std::vector<Object *> localRoots_;
};

/**
 * Registry of all mutator contexts. The runtime creates a "main"
 * context up front; worker threads register their own.
 */
class MutatorRegistry {
  public:
    MutatorRegistry();

    /** The implicit main-thread context. */
    MutatorContext &main() { return *mutators_.front(); }

    /** Create a context for a new thread. */
    MutatorContext &create(const std::string &name);

    /** Visit every context. */
    void forEach(const std::function<void(MutatorContext &)> &visit);

    size_t size() const { return mutators_.size(); }

  private:
    std::vector<std::unique_ptr<MutatorContext>> mutators_;
};

} // namespace gcassert

#endif // GCASSERT_GC_MUTATOR_H
