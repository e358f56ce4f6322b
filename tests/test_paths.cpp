/**
 * @file
 * Tests for full-path violation reporting (paper section 2.7 and
 * Figure 1): the tagged-worklist path reconstruction, root
 * attribution, and report formatting.
 */

#include "test_util.h"

namespace gcassert {
namespace {

using testutil::RuntimeTest;

class PathTest : public RuntimeTest {};

/** Types of the hops of a violation path, in order. */
std::vector<std::string>
pathTypes(const Violation &v)
{
    std::vector<std::string> out;
    for (const auto &entry : v.path)
        out.push_back(entry.typeName);
    return out;
}

TEST_F(PathTest, LinearChainPathIsExact)
{
    Handle root = rootedNode(0, "chain-root");
    Object *a = node(1);
    Object *b = node(2);
    Object *c = node(3);
    root->setRef(0, a);
    a->setRef(0, b);
    b->setRef(0, c);
    runtime_->assertDead(c);
    runtime_->collect();
    ASSERT_EQ(violations().size(), 1u);
    const Violation &v = violations()[0];
    ASSERT_EQ(v.path.size(), 4u);
    EXPECT_EQ(v.rootName, "chain-root");
    EXPECT_EQ(v.path[0].address, root.get());
    EXPECT_EQ(v.path[1].address, a);
    EXPECT_EQ(v.path[2].address, b);
    EXPECT_EQ(v.path[3].address, c);
}

TEST_F(PathTest, PathIsValidEdgeSequence)
{
    // Build a random-ish DAG and verify the reported path follows
    // real edges from a root to the offending object.
    Handle root = rootedNode(0, "dag-root");
    std::vector<Object *> layer{root.get()};
    std::vector<Object *> all{root.get()};
    for (int depth = 0; depth < 5; ++depth) {
        std::vector<Object *> next;
        for (Object *parent : layer) {
            for (uint32_t slot = 0; slot < 2; ++slot) {
                Object *child = node(depth * 100 + slot);
                parent->setRef(slot, child);
                next.push_back(child);
                all.push_back(child);
            }
        }
        layer = next;
    }
    Object *target = layer[layer.size() / 2];
    runtime_->assertDead(target);
    runtime_->collect();
    ASSERT_EQ(violations().size(), 1u);
    const Violation &v = violations()[0];
    ASSERT_GE(v.path.size(), 2u);
    EXPECT_EQ(v.path.back().address, target);
    // Each consecutive pair must be connected by a real reference.
    for (size_t i = 0; i + 1 < v.path.size(); ++i) {
        const auto *parent =
            static_cast<const Object *>(v.path[i].address);
        const auto *child =
            static_cast<const Object *>(v.path[i + 1].address);
        bool edge = false;
        for (uint32_t slot = 0; slot < parent->numRefs(); ++slot)
            edge |= parent->ref(slot) == child;
        EXPECT_TRUE(edge) << "hop " << i << " is not a real edge";
    }
    // And the first hop must be the registered root object.
    EXPECT_EQ(v.path.front().address, root.get());
}

TEST_F(PathTest, PathThroughArraysShowsArrayType)
{
    Handle root = rootedNode(0, "array-root");
    Object *arr = runtime_->allocArrayRaw(arrayType_, 4);
    root->setRef(0, arr);
    Object *victim = node(7);
    arr->setRef(2, victim);
    runtime_->assertDead(victim);
    runtime_->collect();
    ASSERT_EQ(violations().size(), 1u);
    EXPECT_EQ(pathTypes(violations()[0]),
              (std::vector<std::string>{"Node", "Array", "Node"}));
}

TEST_F(PathTest, SecondPathReportedForUnshared)
{
    Handle root = rootedNode(0, "share-root");
    Object *p1 = node(1);
    Object *p2 = node(2);
    Object *shared = node(3);
    root->setRef(0, p1);
    root->setRef(1, p2);
    p1->setRef(0, shared);
    p2->setRef(0, shared);
    runtime_->assertUnshared(shared);
    runtime_->collect();
    ASSERT_EQ(violations().size(), 1u);
    const Violation &v = violations()[0];
    // The report shows the path of the *second* encounter; either
    // parent qualifies depending on scan order, but the path must
    // end at the shared object and route through one parent.
    ASSERT_EQ(v.path.size(), 3u);
    EXPECT_EQ(v.path.back().address, shared);
    const void *mid = v.path[1].address;
    EXPECT_TRUE(mid == p1 || mid == p2);
}

TEST_F(PathTest, FigureOneShapedReport)
{
    // Rebuild the paper's Figure 1 path shape:
    // Company -> Object[] -> Warehouse -> Object[] -> District ->
    // longBTree -> longBTreeNode -> Object[] -> Order.
    auto &types = runtime_->types();
    TypeId company = types.define("Company").refs({"warehouses"}).build();
    TypeId objarr = types.define("Object[]").array().build();
    TypeId warehouse =
        types.define("Warehouse").refs({"districts"}).build();
    TypeId district = types.define("District").refs({"orderTable"}).build();
    TypeId btree = types.define("longBTree").refs({"root"}).build();
    TypeId btnode = types.define("longBTreeNode").refs({"slots"}).build();
    TypeId order = types.define("Order").refCount(0).scalars(8).build();

    Handle c(*runtime_, runtime_->allocRaw(company), "jbb-company");
    Object *warr = runtime_->allocArrayRaw(objarr, 2);
    c->setRef(0, warr);
    Object *w = runtime_->allocRaw(warehouse);
    warr->setRef(0, w);
    Object *darr = runtime_->allocArrayRaw(objarr, 2);
    w->setRef(0, darr);
    Object *d = runtime_->allocRaw(district);
    darr->setRef(0, d);
    Object *t = runtime_->allocRaw(btree);
    d->setRef(0, t);
    Object *n = runtime_->allocRaw(btnode);
    t->setRef(0, n);
    Object *slots = runtime_->allocArrayRaw(objarr, 4);
    n->setRef(0, slots);
    Object *o = runtime_->allocRaw(order);
    slots->setRef(1, o);

    runtime_->assertDead(o);
    runtime_->collect();
    ASSERT_EQ(violations().size(), 1u);
    const Violation &v = violations()[0];
    EXPECT_EQ(v.offendingType, "Order");
    EXPECT_EQ(pathTypes(v),
              (std::vector<std::string>{
                  "Company", "Object[]", "Warehouse", "Object[]",
                  "District", "longBTree", "longBTreeNode", "Object[]",
                  "Order"}));
    // The rendered report mirrors the paper's format.
    std::string report = v.toString();
    EXPECT_NE(report.find("Warning: an object that was asserted dead"),
              std::string::npos);
    EXPECT_NE(report.find("Type: Order"), std::string::npos);
    EXPECT_NE(report.find("Path to object:"), std::string::npos);
    EXPECT_NE(report.find("Company"), std::string::npos);
}

TEST_F(PathTest, SwapLeakShapedReport)
{
    // The section 3.2.3 path: SArray -> SObject -> SObject$Rep ->
    // SObject.
    auto &types = runtime_->types();
    TypeId sobject = types.define("SObject").refs({"rep"}).build();
    TypeId rep = types.define("SObject$Rep").refs({"this$0"}).build();
    TypeId sarray = types.define("SArray").array().build();

    Handle arr(*runtime_, runtime_->allocArrayRaw(sarray, 2), "sarray");
    Object *in_array = runtime_->allocRaw(sobject);
    arr->setRef(0, in_array);
    Object *fresh = runtime_->allocRaw(sobject);
    Object *fresh_rep = runtime_->allocRaw(rep);
    fresh_rep->setRef(0, fresh);
    // After swap(): the array element holds the fresh object's Rep.
    in_array->setRef(0, fresh_rep);

    runtime_->assertDead(fresh);
    runtime_->collect();
    ASSERT_EQ(violations().size(), 1u);
    EXPECT_EQ(pathTypes(violations()[0]),
              (std::vector<std::string>{"SArray", "SObject",
                                        "SObject$Rep", "SObject"}));
}

TEST_F(PathTest, NoPathsWhenRecordingDisabled)
{
    RuntimeConfig config = defaultConfig();
    config.recordPaths = false;
    Runtime runtime(config);
    TypeId t = runtime.types().define("N").refCount(1).build();
    Handle root(runtime, runtime.allocRaw(t), "root");
    Object *obj = runtime.allocRaw(t);
    root->setRef(0, obj);
    runtime.assertDead(obj);
    runtime.collect();
    ASSERT_EQ(runtime.violations().size(), 1u);
    EXPECT_TRUE(runtime.violations()[0].path.empty())
        << "violation still detected, just without the path";
}

TEST_F(PathTest, PathForCyclicStructureTerminates)
{
    Handle root = rootedNode(0, "cycle-root");
    Object *a = node(1);
    Object *b = node(2);
    root->setRef(0, a);
    a->setRef(0, b);
    b->setRef(0, a);
    runtime_->assertDead(b);
    runtime_->collect();
    ASSERT_EQ(violations().size(), 1u);
    const Violation &v = violations()[0];
    EXPECT_LE(v.path.size(), 3u);
    EXPECT_EQ(v.path.back().address, b);
}

TEST_F(PathTest, DeepPathIsComplete)
{
    Handle root = rootedNode(0, "deep-root");
    Object *current = root.get();
    for (int i = 0; i < 500; ++i) {
        Object *next = node(i);
        current->setRef(0, next);
        current = next;
    }
    runtime_->assertDead(current);
    runtime_->collect();
    ASSERT_EQ(violations().size(), 1u);
    // Path = rooted head + 500 chained nodes.
    EXPECT_EQ(violations()[0].path.size(), 501u);
}

TEST_F(PathTest, OwnershipScanViolationsNameTheirScanOrigin)
{
    // A dead-asserted object discovered during the ownership phase
    // is attributed to the owner (or ownee) scan that reached it,
    // not to a regular root.
    Handle owner = rootedNode(0, "owner-root");
    Object *interior = node(1);
    Object *victim = node(2);
    owner->setRef(0, interior);
    interior->setRef(0, victim);
    Object *ownee = node(3);
    owner->setRef(1, ownee);
    runtime_->assertOwnedBy(owner.get(), ownee);
    runtime_->assertDead(victim);
    runtime_->collect();

    ASSERT_GE(violations().size(), 1u);
    const Violation *dead = nullptr;
    for (const auto &v : violations())
        if (v.kind == AssertionKind::Dead)
            dead = &v;
    ASSERT_NE(dead, nullptr);
    EXPECT_NE(dead->rootName.find("ownership scan"), std::string::npos)
        << dead->rootName;
    EXPECT_NE(dead->rootName.find("owner "), std::string::npos);
    EXPECT_EQ(dead->path.back().address, victim);
}

TEST_F(PathTest, OwneeSubtreeViolationsNameTheOwneeScan)
{
    // The victim hangs off the ownee, so it is reached by the
    // deferred ownee-subtree scan.
    Handle owner = rootedNode(0, "owner-root");
    Object *ownee = node(1);
    Object *victim = node(2);
    owner->setRef(0, ownee);
    ownee->setRef(0, victim);
    runtime_->assertOwnedBy(owner.get(), ownee);
    runtime_->assertDead(victim);
    runtime_->collect();

    const Violation *dead = nullptr;
    for (const auto &v : violations())
        if (v.kind == AssertionKind::Dead)
            dead = &v;
    ASSERT_NE(dead, nullptr);
    EXPECT_NE(dead->rootName.find("ownee "), std::string::npos)
        << dead->rootName;
}

TEST_F(PathTest, ViolationsCarryTheCollectionNumber)
{
    Handle root = rootedNode(0);
    runtime_->collect();
    runtime_->collect();
    Object *obj = node(1);
    root->setRef(0, obj);
    runtime_->assertDead(obj);
    runtime_->collect();
    ASSERT_EQ(violations().size(), 1u);
    EXPECT_EQ(violations()[0].gcNumber, 3u);
}

TEST_F(PathTest, RootNameAttributionPerRoot)
{
    Handle r1 = rootedNode(1, "first-root");
    Handle r2 = rootedNode(2, "second-root");
    Object *under_r2 = node(3);
    r2->setRef(0, under_r2);
    runtime_->assertDead(under_r2);
    runtime_->collect();
    ASSERT_EQ(violations().size(), 1u);
    EXPECT_EQ(violations()[0].rootName, "second-root");
}

/**
 * Violations at and below wide fans of leaf objects (no reference
 * slots). The trace never pushes a leaf and prefetches a whole fan
 * before visiting it, yet every check must still fire during the
 * fan's in-order visit, so each test pins the exact report order,
 * path hops and message.
 */
class LeafFanPathTest : public RuntimeTest {
  protected:
    static constexpr uint32_t kFan = 96;

    LeafFanPathTest()
    {
        leafType_ =
            runtime_->types().define("Leaf").refCount(0).scalars(8).build();
    }

    Object *
    leaf(uint64_t tag = 0)
    {
        Object *obj = runtime_->allocRaw(leafType_);
        obj->setScalar<uint64_t>(0, tag);
        return obj;
    }

    /** An Array of kFan leaves under slot 0 of @p parent; every
     *  seventh slot stays null. */
    Object *
    leafFan(Object *parent)
    {
        Object *fan = runtime_->allocArrayRaw(arrayType_, kFan);
        parent->setRef(0, fan);
        for (uint32_t i = 0; i < kFan; ++i)
            if (i % 7 != 6)
                fan->setRef(i, leaf(i));
        return fan;
    }

    /** Hop addresses of @p v's path. */
    static std::vector<const void *>
    hops(const Violation &v)
    {
        std::vector<const void *> out;
        for (const auto &entry : v.path)
            out.push_back(entry.address);
        return out;
    }

    TypeId leafType_ = kInvalidTypeId;
};

TEST_F(LeafFanPathTest, DeadLeavesReportInSlotOrderWithExactPaths)
{
    Handle root = rootedNode(0, "fan-root");
    Object *fan = leafFan(root.get());
    // A subtree below the fan: slot 64 holds a node whose child is
    // a dead leaf, reported only when the node itself is scanned.
    Object *branch = node(64);
    fan->setRef(64, branch);
    Object *deep = leaf(1000);
    branch->setRef(1, deep);
    Object *first = fan->ref(5);
    Object *last = fan->ref(88);
    runtime_->assertDead(last);
    runtime_->assertDead(deep);
    runtime_->assertDead(first);
    runtime_->collect();

    ASSERT_EQ(violations().size(), 3u);
    const char *msg = "an object that was asserted dead is reachable.";
    for (const Violation &v : violations()) {
        EXPECT_EQ(v.kind, AssertionKind::Dead);
        EXPECT_EQ(v.message, msg);
        EXPECT_EQ(v.rootName, "fan-root");
        EXPECT_EQ(v.offendingType, "Leaf");
    }
    // Both fan leaves are reported during the fan's own visit loop,
    // in slot order; the subtree leaf only after the loop ends.
    EXPECT_EQ(hops(violations()[0]),
              (std::vector<const void *>{root.get(), fan, first}));
    EXPECT_EQ(hops(violations()[1]),
              (std::vector<const void *>{root.get(), fan, last}));
    EXPECT_EQ(hops(violations()[2]),
              (std::vector<const void *>{root.get(), fan, branch, deep}));
    EXPECT_EQ(pathTypes(violations()[2]),
              (std::vector<std::string>{"Node", "Array", "Node", "Leaf"}));
}

TEST_F(LeafFanPathTest, UnsharedLeafReachedTwiceShowsTheSecondPath)
{
    Handle root = rootedNode(0, "fan-root");
    Object *fan = leafFan(root.get());
    // Shared within the fan: the second encounter is slot 70.
    Object *twice = fan->ref(10);
    fan->setRef(70, twice);
    // Shared below the fan: nodes at slots 20 and 80 both hold it.
    // The worklist is LIFO, so slot 80's node is scanned first and
    // the report names slot 20's node.
    Object *left = node(20);
    Object *right = node(80);
    fan->setRef(20, left);
    fan->setRef(80, right);
    Object *below = leaf(2000);
    left->setRef(0, below);
    right->setRef(1, below);
    runtime_->assertUnshared(below);
    runtime_->assertUnshared(twice);
    runtime_->collect();

    ASSERT_EQ(violations().size(), 2u);
    for (const Violation &v : violations()) {
        EXPECT_EQ(v.kind, AssertionKind::Unshared);
        EXPECT_EQ(v.message,
                  "an object that was asserted unshared has more than one "
                  "incoming reference (second path shown).");
        EXPECT_EQ(v.rootName, "fan-root");
    }
    EXPECT_EQ(hops(violations()[0]),
              (std::vector<const void *>{root.get(), fan, twice}));
    EXPECT_EQ(hops(violations()[1]),
              (std::vector<const void *>{root.get(), fan, left, below}));
}

TEST_F(LeafFanPathTest, RegionLeafNamesItsRegion)
{
    Handle root = rootedNode(0, "fan-root");
    Object *fan = leafFan(root.get());
    runtime_->startRegion(nullptr, "request-7");
    Object *escaped = nullptr;
    for (uint32_t i = 0; i < kFan; ++i) {
        Object *scratch = leaf(3000 + i);
        if (i == 65)
            escaped = scratch;
    }
    fan->setRef(65, escaped);
    runtime_->assertAllDead();
    runtime_->collect();

    ASSERT_EQ(violations().size(), 1u);
    const Violation &v = violations()[0];
    EXPECT_EQ(v.kind, AssertionKind::AllDead);
    EXPECT_EQ(v.message, "an object allocated in assert-alldead region "
                         "'request-7' is reachable.");
    EXPECT_EQ(v.rootName, "fan-root");
    EXPECT_EQ(hops(v),
              (std::vector<const void *>{root.get(), fan, escaped}));
}

TEST_F(LeafFanPathTest, OwneeLeavesInTheOwnerScanReportInOrder)
{
    Handle owner = rootedNode(0, "owner-root");
    Handle other = rootedNode(1, "other-owner");
    Object *fan = leafFan(owner.get());
    // Owned leaves in the fan: silent.
    runtime_->assertOwnedBy(owner.get(), fan->ref(3));
    runtime_->assertOwnedBy(owner.get(), fan->ref(71));
    // A leaf of the other owner inside this owner's fan: the owner
    // regions overlap.
    Object *foreign = fan->ref(66);
    runtime_->assertOwnedBy(other.get(), foreign);
    // A dead leaf further along the same fan.
    Object *dead = fan->ref(75);
    runtime_->assertDead(dead);
    // An owned node in the fan whose child is an ownee leaf that is
    // reachable only through that node: found by the deferred ownee
    // scan, and not owned.
    Object *holder = node(40);
    fan->setRef(40, holder);
    runtime_->assertOwnedBy(owner.get(), holder);
    Object *stray = leaf(4000);
    holder->setRef(0, stray);
    runtime_->assertOwnedBy(owner.get(), stray);
    runtime_->collect();

    ASSERT_EQ(violations().size(), 3u);
    const Violation &misuse = violations()[0];
    EXPECT_EQ(misuse.kind, AssertionKind::OwnershipMisuse);
    EXPECT_EQ(misuse.message,
              "improper use of assert-ownedby: an ownee of a Node was "
              "reached while scanning from a Node (owner regions must be "
              "disjoint).");
    EXPECT_EQ(misuse.rootName, "owner Node (ownership scan)");
    EXPECT_EQ(hops(misuse), (std::vector<const void *>{fan, foreign}));

    const Violation &dead_v = violations()[1];
    EXPECT_EQ(dead_v.kind, AssertionKind::Dead);
    EXPECT_EQ(dead_v.message,
              "an object that was asserted dead is reachable.");
    EXPECT_EQ(dead_v.rootName, "owner Node (ownership scan)");
    EXPECT_EQ(hops(dead_v), (std::vector<const void *>{fan, dead}));

    const Violation &owned = violations()[2];
    EXPECT_EQ(owned.kind, AssertionKind::OwnedBy);
    EXPECT_EQ(owned.message,
              "an object asserted to be owned by a Node is reachable "
              "without passing through its owner.");
    EXPECT_EQ(owned.rootName, "ownee Node (ownership scan)");
    EXPECT_EQ(hops(owned), (std::vector<const void *>{stray}));
}

} // namespace
} // namespace gcassert
