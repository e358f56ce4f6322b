/**
 * @file
 * Owner/ownee bookkeeping for assert-ownedby (paper section 2.5.2).
 *
 * The metadata is a pair of parallel arrays — owners, and one sorted
 * array of ownees per owner — giving one word per owner or ownee, as
 * in the paper. Ownee membership tests are binary searches by
 * address (the heap is non-moving, so addresses are stable keys).
 */

#ifndef GCASSERT_ASSERTIONS_OWNERSHIP_H
#define GCASSERT_ASSERTIONS_OWNERSHIP_H

#include <cstddef>
#include <functional>
#include <vector>

#include "heap/object.h"

namespace gcassert {

/**
 * The owner/ownee pair table.
 */
class OwnershipTable {
  public:
    /**
     * Register an owner/ownee pair. Sets the kOwnerBit/kOwneeBit
     * header flags so the trace loop can test membership in O(1)
     * before doing any binary search. Duplicate pairs are ignored.
     *
     * @pre owner != ownee, both non-null.
     */
    void addPair(Object *owner, Object *ownee);

    /** @return true when no pairs are registered. */
    bool empty() const { return owners_.empty(); }

    size_t ownerCount() const { return owners_.size(); }

    /** Total ownees across all owners. */
    size_t owneeCount() const;

    /** @return true if @p ownee is registered under @p owner. */
    bool isOwneeOf(const Object *owner, const Object *ownee) const;

    /**
     * Header tag value (owner index + 1) for @p owner, or 0 if the
     * owner is not registered. The ownership scan compares this
     * against Object::ownerTag() for an O(1) membership test.
     */
    uint32_t ownerTagOf(const Object *owner) const;

    /**
     * Find the owner @p ownee is registered under.
     * @return The owner, or nullptr if @p ownee is not registered
     *         (possible when its kOwneeBit is stale).
     */
    Object *ownerOf(const Object *ownee) const;

    /** Visit each owner with its sorted ownee array. */
    void forEachOwner(
        const std::function<void(Object *, const std::vector<Object *> &)>
            &visit) const;

    /** Result of the post-trace prune. */
    struct PruneResult {
        /** Live ownees whose owner died in this collection. */
        std::vector<Object *> orphanedOwnees;
        /** Ownees removed because they died (assertions satisfied). */
        size_t deadOwnees = 0;
        /** Owners removed because they died. */
        size_t deadOwners = 0;
    };

    /**
     * Post-trace maintenance (run before sweep, while mark bits are
     * valid): drop dead ownees (not marked in @p epoch), and drop
     * owners that are about to be reclaimed, returning their
     * surviving ownees so the engine can flag them as having outlived
     * their owner.
     */
    PruneResult prune(MarkEpoch epoch);

    /** Remove every pair (used on engine reset). */
    void clear();

  private:
    size_t indexOfOwner(const Object *owner) const;

    /**
     * Sort (and deduplicate) the per-owner arrays if registrations
     * arrived since the last sort. Registration appends in O(1);
     * lookups amortize one O(n log n) sort per batch.
     */
    void ensureSorted() const;

    std::vector<Object *> owners_;
    /** Sorted ascending by address whenever dirty_ is false. */
    mutable std::vector<std::vector<Object *>> ownees_;
    mutable bool dirty_ = false;
};

} // namespace gcassert

#endif // GCASSERT_ASSERTIONS_OWNERSHIP_H
