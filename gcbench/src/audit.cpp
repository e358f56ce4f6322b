/**
 * @file
 * The `audit` workload: one mutator over a long-lived heap of about
 * half a million objects, with every assertion kind armed on parts
 * of it, so the collector and its assertion checks dominate the run
 * while the runtime lock sits idle.
 *
 * The heap is a bank of branches holding accounts; each account has
 * a profile, a blob and a ring of history entries. Armed on it:
 *  - assert-instances on accounts and assert-volume on blobs;
 *  - assert-unshared on every profile;
 *  - assert-ownedby from one branch in eight to its accounts. Only
 *    that eighth of the heap is owned, so the ownership scan and the
 *    ordinary mark phase both do real tracing;
 *  - assert-dead on every entry, profile and blob a transaction
 *    replaces (the stores go into old objects, not fresh scratch);
 *  - assert-alldead on each transaction's receipt, built in a region.
 *
 * One operation in every kEventEvery is a seeded violation instead
 * of a transaction: it breaks one assertion, collects, and repairs
 * the heap, so it must yield exactly one verdict of its kind.
 */

#include <array>
#include <utility>
#include <vector>

#include "bench.h"
#include "calls.h"
#include "support/rng.h"

namespace gcbench {

using gcassert::AssertionKind;
using gcassert::Handle;
using gcassert::Object;
using gcassert::Rng;
using gcassert::Runtime;
using gcassert::TypeId;

namespace {

constexpr uint32_t kBranches = 1024;
constexpr uint32_t kAccountsPerBranch = 16;
constexpr uint32_t kAccounts = kBranches * kAccountsPerBranch;
constexpr uint32_t kHistory = 26;
/** Branches whose index is a multiple of this own their accounts. */
constexpr uint32_t kOwnerStride = 8;
constexpr uint32_t kBlobBytes = 192;
/** One seeded violation per this many operations. */
constexpr uint64_t kEventEvery = 400000;
/** Heap budget: the ~31 MB live heap plus room for the garbage of
 *  some thirty thousand transactions between full collections. */
constexpr uint64_t kBudgetBytes = 40ull << 20;

/** Account slots. */
constexpr uint32_t kProfile = 0;
constexpr uint32_t kHistorySlot = 1;
constexpr uint32_t kBlob = 2;

/** The seeded violations, one kind per event in turn. */
constexpr std::array<AssertionKind, 6> kEventKinds = {
    AssertionKind::Dead,      AssertionKind::AllDead,
    AssertionKind::Instances, AssertionKind::Volume,
    AssertionKind::Unshared,  AssertionKind::OwnedBy,
};

class Audit : public Workload {
  public:
    explicit Audit(const RunOptions &options) : options_(options) {}

    uint32_t mutators() const override { return 1; }

    uint64_t heapBudgetBytes() const override { return kBudgetBytes; }

    void
    build(Runtime &rt) override
    {
        auto &types = rt.types();
        bankType_ = types.define("Bank").array().build();
        branchType_ = types.define("Branch").array().build();
        accountType_ = types.define("Account")
                           .refs({"profile", "history", "blob"})
                           .scalars(16)
                           .build();
        historyType_ = types.define("History").array().build();
        entryType_ = types.define("Entry").scalars(24).build();
        profileType_ = types.define("AccountProfile").scalars(40).build();
        blobType_ = types.define("Blob").scalars(kBlobBytes).build();
        receiptType_ =
            types.define("Receipt").refs({"first"}).scalars(8).build();
        lineType_ = types.define("Line").refs({"next"}).scalars(16).build();
        stashType_ = types.define("Stash").array().build();

        // Every new object is stored into an already reachable one
        // before the next allocation, so none is ever unrooted
        // across a collection.
        Api api(rt, nullptr, nullptr);
        bank_ = Handle(rt, rt.allocArrayRaw(bankType_, kBranches), "bank");
        stash_ = Handle(rt, rt.allocArrayRaw(stashType_, 1), "stash");
        entryStamp_.assign(uint64_t{kAccounts} * kHistory, 0);
        profileStamp_.assign(kAccounts, 0);
        accounts_.clear();
        for (uint32_t b = 0; b < kBranches; ++b) {
            Object *branch = rt.allocArrayRaw(branchType_, kAccountsPerBranch);
            api.writeRef(bank_.get(), b, branch);
            for (uint32_t i = 0; i < kAccountsPerBranch; ++i) {
                uint64_t a = accounts_.size();
                Object *acc = api.allocRaw(accountType_);
                api.writeRef(branch, i, acc);
                acc->setScalar<uint64_t>(0, a);
                accounts_.push_back(acc);
                Object *hist = rt.allocArrayRaw(historyType_, kHistory);
                api.writeRef(acc, kHistorySlot, hist);
            }
        }

        // Profiles, blobs and entries are the objects transactions
        // replace, and after some seconds of transactions each sits
        // wherever a free slot was. Allocating them in a random order
        // starts the heap in that state. Built account by account,
        // the heap made the first seconds' collections up to twice
        // as fast as later ones, and the run's median pause then
        // depended on how much of the run they made up.
        constexpr uint32_t kItems = kHistory + 2;
        std::vector<uint32_t> order(uint64_t{kAccounts} * kItems);
        for (uint32_t i = 0; i < order.size(); ++i)
            order[i] = i;
        Rng shuffle(subSeed(options_.seed, 9));
        for (size_t i = order.size() - 1; i > 0; --i)
            std::swap(order[i], order[shuffle.below(i + 1)]);
        uint64_t blob_bytes = 0;
        for (uint32_t item : order) {
            uint32_t a = item / kItems;
            uint32_t j = item % kItems;
            Object *acc = accounts_[a];
            if (j < kHistory) {
                Object *e = api.allocRaw(entryType_);
                api.writeRef(acc->ref(kHistorySlot), j, e);
                e->setScalar<uint64_t>(0, 0);
                e->setScalar<uint64_t>(8, a);
            } else if (j == kHistory) {
                Object *profile = api.allocRaw(profileType_);
                api.writeRef(acc, kProfile, profile);
                profile->setScalar<uint64_t>(0, a);
                profile->setScalar<uint64_t>(8, 0);
            } else {
                Object *blob = api.allocRaw(blobType_);
                api.writeRef(acc, kBlob, blob);
                blob_bytes += blob->sizeBytes();
            }
        }

        rt.assertInstances(accountType_, kAccounts);
        rt.assertVolume(blobType_, blob_bytes);
        for (uint32_t b = 0; b < kBranches; ++b) {
            Object *branch = bank_->ref(b);
            for (uint32_t i = 0; i < kAccountsPerBranch; ++i) {
                Object *acc = branch->ref(i);
                rt.assertUnshared(acc->ref(kProfile));
                if (b % kOwnerStride == 0)
                    rt.assertOwnedBy(branch, acc);
            }
        }
    }

    void
    warmUp(Runtime &rt) override
    {
        Outcome scratch;
        run(rt, 0.0, nullptr, scratch, /*warm=*/true);
    }

    void
    measure(Runtime &rt, double seconds, CallTrace *trace,
            Outcome &out) override
    {
        run(rt, seconds, trace, out, /*warm=*/false);
    }

    void
    verify(Runtime &rt, Outcome &out) override
    {
        rt.collect();
        out.verdictsExpected = expectedVerdicts_;
        out.verdictsSeen = rt.violations().size();
        if (out.verdictsSeen != expectedVerdicts_)
            out.fail("verdicts outside the seeded set: " +
                     std::to_string(out.verdictsSeen) + " seen, " +
                     std::to_string(expectedVerdicts_) + " expected");
    }

  private:
    void
    run(Runtime &rt, double seconds, CallTrace *trace, Outcome &out,
        bool warm)
    {
        Api api(rt, nullptr, trace ? &trace->newLog() : nullptr);
        Rng rng(subSeed(options_.seed, warm ? 1000 : 0));
        // Which kind the first event seeds, and where in each block of
        // kEventEvery operations the event falls.
        uint64_t phase = subSeed(options_.seed, 7) % kEventEvery;
        size_t first_kind = subSeed(options_.seed, 8) % kEventKinds.size();
        uint64_t t0 = nowNanos();
        uint64_t t1 = t0 + static_cast<uint64_t>(seconds * 1e9);
        uint64_t due = t0;
        uint64_t k = 0;
        Samples samples(1);
        out.gcBefore = readGc(rt);
        while (true) {
            uint64_t start = nowNanos();
            if (warm ? rt.collections() > 0 : start >= t1)
                break;
            ++k;
            uint64_t id = ++ops_;
            uint64_t gc0 = rt.collections();
            ++out.attempted;
            api.beginRequest(id, start);
            if (!warm && k % kEventEvery == phase)
                seedViolation(
                    api, kEventKinds[(first_kind + events_++) %
                                     kEventKinds.size()],
                    id, rng, out);
            else
                transact(api, id, rng, out);
            uint64_t end = nowNanos();
            api.endRequest(end);
            uint64_t gc1 = rt.collections();
            if (end <= t1)
                ++out.completedInWindow;
            samples.add(end - due, start - due, windowOf(due, t0));
            out.serviceNanos += end - start;
            if (gc1 != gc0)
                out.gcReadings.push_back(readGc(rt));
            due = end;
        }
        out.gcAfter = readGc(rt);
        out.windowSeconds = seconds;
        out.addSamples(samples);
    }

    /** A replaced object must be the one the shadow copy expects. */
    void
    expectStamp(Object *obj, uint64_t want, const char *what, Outcome &out)
    {
        if (obj->scalar<uint64_t>(0) != want)
            out.fail(std::string(what) + " corrupted");
    }

    void
    transact(Api &api, uint64_t id, Rng &rng, Outcome &out)
    {
        Runtime &rt = api.runtime();
        uint64_t a = rng.below(kAccounts);
        Object *acc = accounts_[a];
        if (acc->scalar<uint64_t>(0) != a)
            out.fail("account " + std::to_string(a) + " corrupted");

        uint64_t cursor = acc->scalar<uint64_t>(8);
        uint32_t slot = static_cast<uint32_t>(cursor % kHistory);
        Object *hist = acc->ref(kHistorySlot);
        Object *old = hist->ref(slot);
        uint64_t &stamp = entryStamp_[a * kHistory + slot];
        expectStamp(old, stamp, "history entry", out);
        Object *entry = api.allocRaw(entryType_);
        entry->setScalar<uint64_t>(0, id);
        entry->setScalar<uint64_t>(8, a);
        api.writeRef(hist, slot, entry);
        stamp = id;
        rt.assertDead(old);
        acc->setScalar<uint64_t>(8, cursor + 1);

        if (rng.chance(0.1)) {
            Object *prev = acc->ref(kProfile);
            expectStamp(prev, a, "profile", out);
            if (prev->scalar<uint64_t>(8) != profileStamp_[a])
                out.fail("profile stamp corrupted");
            Object *profile = api.allocRaw(profileType_);
            profile->setScalar<uint64_t>(0, a);
            profile->setScalar<uint64_t>(8, id);
            api.writeRef(acc, kProfile, profile);
            profileStamp_[a] = id;
            rt.assertUnshared(profile);
            rt.assertDead(prev);
        }
        if (rng.chance(0.02)) {
            Object *prev = acc->ref(kBlob);
            Object *blob = api.allocRaw(blobType_);
            api.writeRef(acc, kBlob, blob);
            rt.assertDead(prev);
        }

        // The receipt: scratch that must all be dead once issued.
        api.startRegion({});
        buildReceipt(api, id, rng, out);
        api.dropLocalRoots();
        api.assertAllDead();
    }

    /** Build a receipt of 2-5 lines; returns its last line. */
    Object *
    buildReceipt(Api &api, uint64_t id, Rng &rng, Outcome &out)
    {
        Object *receipt = api.allocLocal(receiptType_);
        receipt->setScalar<uint64_t>(0, id);
        uint32_t lines = 2 + static_cast<uint32_t>(rng.below(4));
        Object *tail = nullptr;
        for (uint32_t i = 0; i < lines; ++i) {
            Object *line = api.allocLocal(lineType_);
            line->setScalar<uint64_t>(0, id);
            line->setScalar<uint64_t>(8, i);
            api.writeRef(line, 0, receipt->ref(0));
            api.writeRef(receipt, 0, line);
            if (!tail)
                tail = line;
        }
        uint32_t n = 0;
        for (Object *line = receipt->ref(0); line; line = line->ref(0)) {
            if (line->scalar<uint64_t>(0) != id ||
                line->scalar<uint64_t>(8) != lines - 1 - n)
                break;
            ++n;
        }
        if (n != lines)
            out.fail("receipt " + std::to_string(id) + " corrupted");
        return tail;
    }

    /**
     * Break one assertion of @p kind, collect, check that exactly
     * that verdict came out, and repair the heap.
     */
    void
    seedViolation(Api &api, AssertionKind kind, uint64_t id, Rng &rng,
                  Outcome &out)
    {
        Runtime &rt = api.runtime();
        Object *stash = stash_.get();
        size_t before = rt.violations().size();
        if (before != expectedVerdicts_)
            out.fail("unexpected verdict before event " + std::to_string(id));
        uint64_t a = rng.below(kAccounts);
        Object *acc = accounts_[a];
        std::string label;
        std::string type;
        Object *branch = nullptr;
        uint32_t slot = 0;
        switch (kind) {
        case AssertionKind::Dead: {
            // A replaced profile that is still referenced.
            Object *prev = acc->ref(kProfile);
            Object *profile = api.allocRaw(profileType_);
            profile->setScalar<uint64_t>(0, a);
            profile->setScalar<uint64_t>(8, id);
            api.writeRef(acc, kProfile, profile);
            profileStamp_[a] = id;
            rt.assertUnshared(profile);
            rt.assertDead(prev);
            api.writeRef(stash, 0, prev);
            type = "AccountProfile";
            break;
        }
        case AssertionKind::AllDead: {
            // One receipt line escapes its region.
            label = "leak/t" + std::to_string(id);
            api.startRegion(label);
            Object *tail = buildReceipt(api, id, rng, out);
            api.writeRef(stash, 0, tail);
            api.dropLocalRoots();
            api.assertAllDead();
            type = "Line";
            break;
        }
        case AssertionKind::Instances:
            api.writeRef(stash, 0, api.allocRaw(accountType_));
            type = "Account";
            break;
        case AssertionKind::Volume:
            api.writeRef(stash, 0, api.allocRaw(blobType_));
            type = "Blob";
            break;
        case AssertionKind::Unshared:
            // A second reference to a profile.
            api.writeRef(stash, 0, acc->ref(kProfile));
            type = "AccountProfile";
            break;
        default:
            // An owned account reachable only around its owner.
            branch = bank_->ref(static_cast<uint32_t>(
                rng.below(kBranches / kOwnerStride) * kOwnerStride));
            slot = static_cast<uint32_t>(rng.below(kAccountsPerBranch));
            api.writeRef(stash, 0, branch->ref(slot));
            api.writeRef(branch, slot, nullptr);
            type = "Account";
            break;
        }
        rt.collect();
        const auto &vs = rt.violations();
        if (vs.size() != before + 1) {
            out.fail("event " + std::to_string(id) + ": " +
                     std::to_string(vs.size() - before) + " verdicts");
        } else {
            const gcassert::Violation &v = vs.back();
            bool named = label.empty() ||
                         v.message.find("'" + label + "'") != std::string::npos;
            if (v.kind != kind || v.offendingType != type || !named)
                out.fail("event " + std::to_string(id) + ": wrong verdict: " +
                         v.message);
        }
        expectedVerdicts_ = before + 1;
        if (branch)
            api.writeRef(branch, slot, stash->ref(0));
        api.writeRef(stash, 0, nullptr);
    }

    RunOptions options_;
    TypeId bankType_ = gcassert::kInvalidTypeId;
    TypeId branchType_ = gcassert::kInvalidTypeId;
    TypeId accountType_ = gcassert::kInvalidTypeId;
    TypeId historyType_ = gcassert::kInvalidTypeId;
    TypeId entryType_ = gcassert::kInvalidTypeId;
    TypeId profileType_ = gcassert::kInvalidTypeId;
    TypeId blobType_ = gcassert::kInvalidTypeId;
    TypeId receiptType_ = gcassert::kInvalidTypeId;
    TypeId lineType_ = gcassert::kInvalidTypeId;
    TypeId stashType_ = gcassert::kInvalidTypeId;
    Handle bank_;
    Handle stash_;
    /** Accounts never move or die (the heap is non-moving). */
    std::vector<Object *> accounts_;
    /** Shadow copies: the stamp each live entry and profile holds. */
    std::vector<uint64_t> entryStamp_;
    std::vector<uint64_t> profileStamp_;
    uint64_t ops_ = 0;
    uint64_t events_ = 0;
    uint64_t expectedVerdicts_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeAudit(const RunOptions &options)
{
    return std::make_unique<Audit>(options);
}

} // namespace gcbench
