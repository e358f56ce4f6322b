/**
 * @file
 * Tests for the heap verifier: a healthy heap passes, and each
 * corruption class is detected.
 */

#include "heap/verifier.h"
#include "test_util.h"

namespace gcassert {
namespace {

class VerifierTest : public testutil::RuntimeTest {
  protected:
    VerifierTest() : verifier_(*runtime_) {}

    HeapVerifier verifier_;
};

TEST_F(VerifierTest, HealthyHeapHasNoIssues)
{
    Handle root = rootedNode(0);
    Object *a = node(1);
    root->setRef(0, a);
    a->setRef(0, root.get());
    runtime_->collect();
    EXPECT_TRUE(verifier_.verify().empty());
    verifier_.verifyOrPanic();
}

TEST_F(VerifierTest, HealthyAfterAssertionActivity)
{
    Handle owner = rootedNode(0, "owner");
    Object *ownee = node(1);
    owner->setRef(0, ownee);
    runtime_->assertOwnedBy(owner.get(), ownee);
    runtime_->assertUnshared(ownee);
    runtime_->assertInstances(nodeType_, 100);
    runtime_->startRegion();
    node(2);
    runtime_->assertAllDead();
    runtime_->collect();
    EXPECT_TRUE(verifier_.verify().empty());
}

TEST_F(VerifierTest, DetectsStaleMarkBit)
{
    Handle root = rootedNode(0);
    root->setMarked(runtime_->heap().markEpoch()); // simulated corruption
    auto issues = verifier_.verify();
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_NE(issues[0].what.find("stale mark bit"), std::string::npos);
    root->clearMarked(runtime_->heap().markEpoch());
}

TEST_F(VerifierTest, DetectsStaleOwnedBit)
{
    Handle root = rootedNode(0);
    root->setFlag(kOwnedBit);
    auto issues = verifier_.verify();
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_NE(issues[0].what.find("owned bit"), std::string::npos);
    root->clearFlag(kOwnedBit);
}

TEST_F(VerifierTest, DetectsOwnerTagOnNonOwnee)
{
    Handle root = rootedNode(0);
    root->setOwnerTag(3);
    auto issues = verifier_.verify();
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_NE(issues[0].what.find("owner tag"), std::string::npos);
    root->setOwnerTag(0);
}

TEST_F(VerifierTest, DetectsOrphanWithoutDead)
{
    Handle root = rootedNode(0);
    root->setFlag(kOrphanBit);
    auto issues = verifier_.verify();
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_NE(issues[0].what.find("orphan bit"), std::string::npos);
    root->clearFlag(kOrphanBit);
}

TEST_F(VerifierTest, VerifyOrPanicThrowsOnCorruption)
{
    Handle root = rootedNode(0);
    root->setMarked(runtime_->heap().markEpoch());
    EXPECT_THROW(verifier_.verifyOrPanic(), PanicError);
    root->clearMarked(runtime_->heap().markEpoch());
}

TEST_F(VerifierTest, DetectsStaleLargeObjectMark)
{
    Handle big(*runtime_, runtime_->allocArrayRaw(arrayType_, 4096),
               "big");
    ASSERT_GT(big->sizeBytes(), maxSmallObjectBytes());
    big->setMarked(runtime_->heap().markEpoch());
    auto issues = verifier_.verify();
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_NE(issues[0].what.find("stale mark bit"), std::string::npos);
    big->clearMarked(runtime_->heap().markEpoch());
    EXPECT_TRUE(verifier_.verify().empty());
}

TEST_F(VerifierTest, HealthyInBothMarkEpochs)
{
    Handle root = rootedNode(0);
    root->setRef(0, node(1));
    for (int gc = 0; gc < 3; ++gc) {
        MarkEpoch before = runtime_->heap().markEpoch();
        runtime_->collect();
        EXPECT_EQ(runtime_->heap().markEpoch(), before.next());
        EXPECT_TRUE(verifier_.verify().empty()) << "gc " << gc;
    }
}

TEST(VerifyHeapKnob, VerifiesAfterEveryFullAndMinorCollection)
{
    CaptureLogSink capture;
    RuntimeConfig config;
    config.heap.budgetBytes = testutil::kTestHeapBytes;
    config.generational = true;
    config.verifyHeap = true;
    Runtime rt(config);
    TypeId node = rt.types().define("Node").refs({"next"}).build();
    Handle root(rt, rt.allocRaw(node), "root");
    for (int i = 0; i < 1000; ++i)
        rt.allocRaw(node);
    rt.collectMinor();
    rt.collect(); // a healthy heap verifies clean

    root->setOwnerTag(3); // corruption no collection repairs
    EXPECT_THROW(rt.collectMinor(), PanicError);
    EXPECT_THROW(rt.collect(), PanicError);
    root->setOwnerTag(0);
    rt.collect();
}

TEST_F(VerifierTest, CleanAcrossWorkloadStyleChurn)
{
    // Exercise allocation, GC, assertions, regions, weak refs and
    // finalizers together, verifying after every collection.
    TypeId weak_type = runtime_->types()
                           .define("W")
                           .refs({"referent"})
                           .weak()
                           .build();
    Handle keeper(*runtime_, runtime_->allocArrayRaw(arrayType_, 64),
                  "keeper");
    for (int round = 0; round < 5; ++round) {
        for (uint32_t i = 0; i < 64; ++i) {
            Object *obj = node(i);
            if (i % 2 == 0)
                keeper->setRef(i, obj);
            if (i % 8 == 0) {
                Object *weak = runtime_->allocRaw(weak_type);
                weak->setRef(0, obj);
                keeper->setRef(i + 1, weak);
            }
            if (i % 16 == 0)
                runtime_->setFinalizer(node(100 + i), [](Object *) {});
        }
        runtime_->startRegion();
        for (int i = 0; i < 32; ++i)
            node(200 + i);
        runtime_->assertAllDead();
        runtime_->collect();
        EXPECT_TRUE(verifier_.verify().empty()) << "round " << round;
    }
}

} // namespace
} // namespace gcassert
