#include "assertions/ownership.h"

#include <algorithm>

#include "support/logging.h"

namespace gcassert {

namespace {

/** Sorted lookup by address. @pre sorted ascending. */
bool
containsSorted(const std::vector<Object *> &sorted, const Object *obj)
{
    auto it = std::lower_bound(sorted.begin(), sorted.end(), obj,
                               [](const Object *a, const Object *b) {
                                   return a < b;
                               });
    return it != sorted.end() && *it == obj;
}

/**
 * Take @p ownee out of the ownership protocol: its ownee bit, owner
 * tag and per-GC owned bit. The owned bit is otherwise reset only
 * for table members at GC start, so a departing ownee must not keep
 * it.
 */
void
dropOwneeState(Object *ownee)
{
    ownee->clearFlag(kOwneeBit);
    ownee->clearFlag(kOwnedBit);
    ownee->setOwnerTag(0);
}

} // namespace

void
OwnershipTable::addPair(Object *owner, Object *ownee)
{
    if (!owner || !ownee)
        fatal("assert-ownedby requires non-null owner and ownee");
    if (owner == ownee)
        fatal("assert-ownedby: an object cannot own itself");

    size_t idx = indexOfOwner(owner);
    if (idx == owners_.size()) {
        if (owners_.size() + 1 > kMaxOwnerTag)
            fatal("assert-ownedby: too many distinct owners");
        owners_.push_back(owner);
        ownees_.emplace_back();
        owner->setFlag(kOwnerBit);
    }
    // Registration is append-only: the per-owner arrays are sorted
    // lazily (once per GC or query batch), so the mutator-side cost
    // of assert-ownedby stays O(1) no matter how large the
    // container is. Duplicates are folded in by the sort.
    ownees_[idx].push_back(ownee);
    ownee->setFlag(kOwneeBit);
    // The header tag is the O(1) belongs-to-this-owner test used by
    // the ownership scan. Re-registration under another owner
    // retargets the tag (owner regions must be disjoint anyway).
    ownee->setOwnerTag(static_cast<uint32_t>(idx) + 1);
    dirty_ = true;
}

void
OwnershipTable::ensureSorted() const
{
    if (!dirty_)
        return;
    for (auto &list : ownees_) {
        std::sort(list.begin(), list.end());
        list.erase(std::unique(list.begin(), list.end()), list.end());
    }
    dirty_ = false;
}

size_t
OwnershipTable::owneeCount() const
{
    ensureSorted();
    size_t total = 0;
    for (const auto &list : ownees_)
        total += list.size();
    return total;
}

size_t
OwnershipTable::indexOfOwner(const Object *owner) const
{
    for (size_t i = 0; i < owners_.size(); ++i)
        if (owners_[i] == owner)
            return i;
    return owners_.size();
}

bool
OwnershipTable::isOwneeOf(const Object *owner, const Object *ownee) const
{
    ensureSorted();
    size_t idx = indexOfOwner(owner);
    if (idx == owners_.size())
        return false;
    return containsSorted(ownees_[idx], ownee);
}

uint32_t
OwnershipTable::ownerTagOf(const Object *owner) const
{
    size_t idx = indexOfOwner(owner);
    return idx == owners_.size() ? 0 : static_cast<uint32_t>(idx) + 1;
}

Object *
OwnershipTable::ownerOf(const Object *ownee) const
{
    ensureSorted();
    for (size_t i = 0; i < owners_.size(); ++i)
        if (containsSorted(ownees_[i], ownee))
            return owners_[i];
    return nullptr;
}

void
OwnershipTable::forEachOwner(
    const std::function<void(Object *, const std::vector<Object *> &)>
        &visit) const
{
    ensureSorted();
    for (size_t i = 0; i < owners_.size(); ++i)
        visit(owners_[i], ownees_[i]);
}

OwnershipTable::PruneResult
OwnershipTable::prune(MarkEpoch epoch)
{
    ensureSorted();
    PruneResult result;
    size_t kept = 0;
    bool owners_moved = false;
    for (size_t i = 0; i < owners_.size(); ++i) {
        Object *owner = owners_[i];
        auto &list = ownees_[i];

        // Drop ownees that died: their assertion is satisfied.
        // Compaction preserves the sorted order.
        size_t live = 0;
        for (Object *ownee : list) {
            if (ownee->marked(epoch)) {
                list[live++] = ownee;
            } else {
                ownee->clearFlag(kOwneeBit);
                ++result.deadOwnees;
            }
        }
        list.resize(live);

        if (!owner->marked(epoch)) {
            // Owner dies in this collection: its surviving ownees
            // have outlived it.
            owner->clearFlag(kOwnerBit);
            ++result.deadOwners;
            for (Object *ownee : list) {
                dropOwneeState(ownee);
                result.orphanedOwnees.push_back(ownee);
            }
            owners_moved = true;
            continue;
        }
        if (list.empty()) {
            // Nothing left to check for this owner.
            owner->clearFlag(kOwnerBit);
            owners_moved = true;
            continue;
        }
        if (kept != i) {
            owners_[kept] = owner;
            ownees_[kept] = std::move(list);
        }
        ++kept;
    }
    owners_.resize(kept);
    ownees_.resize(kept);
    // Owner compaction invalidates the header tags; reassign them.
    // In the steady state (no owner died) nothing moved and the
    // pass is skipped entirely. An object registered under two
    // owners that was just orphaned by one of them is no longer an
    // ownee and stays untagged.
    if (owners_moved)
        for (size_t i = 0; i < owners_.size(); ++i)
            for (Object *ownee : ownees_[i])
                if (ownee->testFlag(kOwneeBit))
                    ownee->setOwnerTag(static_cast<uint32_t>(i) + 1);
    return result;
}

void
OwnershipTable::clear()
{
    for (size_t i = 0; i < owners_.size(); ++i) {
        owners_[i]->clearFlag(kOwnerBit);
        for (Object *ownee : ownees_[i])
            dropOwneeState(ownee);
    }
    owners_.clear();
    ownees_.clear();
    dirty_ = false;
}

} // namespace gcassert
