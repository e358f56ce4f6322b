/**
 * @file
 * The `serve` and `saturate` workloads: one request handler, run
 * either as an open loop on a fixed schedule (serve) or as a closed
 * loop with its mutator always busy (saturate).
 *
 * A request touches a long-lived session (2% replace its profile,
 * leaving garbage in the mature heap), then builds a 6-13 node
 * scratch chain. In `serve` the chain is built inside a labeled
 * start-region / assert-alldead region (paper section 2.3.2) and one
 * request in every kLeakEvery leaks its chain head into a rooted
 * list; the next full collection must report that leak once, naming
 * the request. `saturate` arms nothing: it measures the assertion
 * infrastructure's base cost on the mutator's fast path.
 *
 * `serve`'s mutators are a worker pool on one shared schedule:
 * whichever mutator is free takes the next request once it is due.
 * A mutator the host deschedules then delays only the request it
 * holds, while a full collection, which stops every mutator, delays
 * all requests due during it.
 */

#include <atomic>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench.h"
#include "calls.h"

namespace gcbench {

using gcassert::Handle;
using gcassert::MutatorContext;
using gcassert::Object;
using gcassert::Runtime;
using gcassert::TypeId;

namespace {

/**
 * Long-lived sessions requests are routed across. serve's 16384
 * (about 2 MB live) make the full-GC pause mostly tracing and
 * sweeping, whose cost stays the same through a run. With 1024, most
 * of it was the end-of-trace region work, which grew two- to
 * fourfold in the course of a 30 s run.
 */
constexpr uint32_t kServeSessions = 16384;
constexpr uint32_t kSaturateSessions = 1024;
/** Locks guarding the sessions, by session index. */
constexpr uint32_t kStripes = 64;
/**
 * serve: offered load, requests per second over all mutators. Well
 * below what they sustain in a closed loop, so that the backlog a
 * full collection leaves behind drains within about one pause
 * whatever state the runtime lock's convoy is in.
 */
constexpr double kServeRate = 30000.0;
/** serve: one injected leak per this many requests. */
constexpr uint64_t kLeakEvery = 4000;

/**
 * One request's random inputs: SplitMix64 from a per-request seed,
 * so a request's inputs do not depend on which mutator serves it.
 */
class Draw {
  public:
    explicit Draw(uint64_t seed) : state_(seed) {}

    uint64_t
    next()
    {
        state_ += 0x9E3779B97F4A7C15ull;
        return subSeed(state_, 0);
    }

    uint64_t below(uint64_t bound) { return next() % bound; }

    /** Uniform in [0, 1). */
    double real() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

    bool chance(double p) { return real() < p; }

  private:
    uint64_t state_;
};

/** Tell the core this thread is spinning. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

/**
 * Heap budgets. serve's gives some forty full collections a second
 * at its rate, so a run has over a thousand pauses and the requests
 * that full-GC stalls delay make up several percent of all.
 * saturate's keeps the collector a small share of its time.
 */
constexpr uint64_t kServeBudgetBytes = 1536ull << 10;
constexpr uint64_t kSaturateBudgetBytes = 4ull << 20;

class ServerLoad : public Workload {
  public:
    ServerLoad(const RunOptions &options, bool open)
        : options_(options), open_(open), threads_(threadCount(open)),
          sessions_(open ? kServeSessions : kSaturateSessions)
    {
    }

    uint32_t mutators() const override { return threads_; }

    uint64_t
    heapBudgetBytes() const override
    {
        return open_ ? kServeBudgetBytes : kSaturateBudgetBytes;
    }

    void
    build(Runtime &rt) override
    {
        auto &types = rt.types();
        sessionType_ =
            types.define("Session").refs({"profile"}).scalars(24).build();
        profileType_ = types.define("Profile").scalars(48).build();
        tableType_ = types.define("SessionTable").array().build();
        requestType_ =
            types.define("Request").refs({"first"}).scalars(16).build();
        nodeType_ = types.define("Node").refs({"next"}).scalars(24).build();
        leakType_ = types.define("LeakList").refs({"head"}).build();

        Api api(rt, nullptr, nullptr);
        table_ = Handle(rt, rt.allocArrayRaw(tableType_, sessions_),
                        "sessions");
        for (uint32_t i = 0; i < sessions_; ++i) {
            Object *session = api.allocRaw(sessionType_);
            session->setScalar<uint64_t>(0, i);
            api.writeRef(table_.get(), i, session);
        }
        // Profiles are what requests replace, so after a while each
        // sits wherever a free slot was. Allocating them in a random
        // order starts the heap in that state, instead of with a
        // layout that tracing walks faster for the first part of a
        // run.
        std::vector<uint32_t> order(sessions_);
        for (uint32_t i = 0; i < sessions_; ++i)
            order[i] = i;
        Draw shuffle(subSeed(options_.seed, 9));
        for (uint32_t i = sessions_ - 1; i > 0; --i)
            std::swap(order[i], order[shuffle.below(i + 1)]);
        for (uint32_t i : order) {
            Object *profile = api.allocRaw(profileType_);
            profile->setScalar<uint64_t>(0, i);
            api.writeRef(table_->ref(i), 0, profile);
        }
        leaks_ = Handle(rt, api.allocRaw(leakType_), "leaks");
        for (uint32_t t = 0; t < threads_; ++t) {
            workers_.push_back(Worker{});
            workers_.back().mutator =
                &rt.registerMutator("worker-" + std::to_string(t));
        }
    }

    void
    warmUp(Runtime &rt) override
    {
        Outcome scratch;
        run(rt, /*seconds=*/0.0, nullptr, scratch, /*warm=*/true);
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
        // Flush the verdicts of every region closed so far.
        rt.collect();
        std::unordered_map<std::string, int> seen;
        for (const Worker &w : workers_)
            for (const std::string &label : w.leaked)
                seen.emplace(label, 0);
        out.verdictsExpected = seen.size();
        for (const gcassert::Violation &v : rt.violations()) {
            ++out.verdictsSeen;
            std::string label = labelOf(v);
            auto it = seen.find(label);
            if (v.kind != gcassert::AssertionKind::AllDead ||
                it == seen.end()) {
                out.fail("verdict against a clean request: " + v.message);
                continue;
            }
            if (++it->second > 1)
                out.fail("leak reported twice: " + label);
        }
        for (const auto &[label, count] : seen)
            if (count == 0)
                out.fail("leak not reported: " + label);
    }

  private:
    struct Worker {
        MutatorContext *mutator = nullptr;
        /** saturate: requests this worker has started, over all
         *  windows. */
        uint64_t seq = 0;
        std::vector<std::string> leaked;
    };

    /** Per-thread results of one window, merged after the join. */
    struct ThreadResult {
        explicit ThreadResult(uint32_t mutators) : samples(mutators) {}

        Outcome out;
        Samples samples;
        uint64_t completed = 0;
    };

    /** The region label a request's alldead verdict names. */
    static std::string
    labelOf(const gcassert::Violation &v)
    {
        const std::string open = "region '";
        size_t a = v.message.find(open);
        if (a == std::string::npos)
            return {};
        a += open.size();
        size_t b = v.message.find('\'', a);
        return b == std::string::npos ? std::string{}
                                      : v.message.substr(a, b - a);
    }

    /** Serve one request, recording in @p out anything it got wrong. */
    void
    handle(Api &api, Worker &w, uint64_t seq, bool leak, Draw &rng,
           Outcome &out)
    {
        uint32_t s = static_cast<uint32_t>(rng.below(sessions_));
        {
            std::lock_guard<std::mutex> guard(stripes_[s % kStripes]);
            Object *session = table_->ref(s);
            Object *profile = session->ref(0);
            if (session->scalar<uint64_t>(0) != s ||
                profile->scalar<uint64_t>(0) != s) {
                out.fail("session " + std::to_string(s) + " corrupted");
            }
            session->setScalar<uint64_t>(
                8, session->scalar<uint64_t>(8) + 1);
            if (rng.chance(0.02)) {
                Object *fresh = api.allocLocal(profileType_);
                fresh->setScalar<uint64_t>(0, s);
                fresh->setScalar<uint64_t>(8, seq);
                api.writeRef(session, 0, fresh);
            }
        }
        api.dropLocalRoots();

        std::string label;
        if (open_) {
            label = "r" + std::to_string(seq);
            api.startRegion(label);
        }
        Object *req = api.allocLocal(requestType_);
        req->setScalar<uint64_t>(0, seq);
        uint32_t chain = 6 + static_cast<uint32_t>(rng.below(8));
        Object *head = nullptr;
        uint64_t digest = 0;
        for (uint32_t i = 0; i < chain; ++i) {
            Object *node = api.allocLocal(nodeType_);
            uint64_t payload = rng.next();
            node->setScalar<uint64_t>(0, seq ^ i);
            node->setScalar<uint64_t>(8, payload);
            digest ^= payload;
            api.writeRef(node, 0, head);
            head = node;
        }
        api.writeRef(req, 0, head);

        // The reply: walk the chain back and check what was built.
        uint32_t n = 0;
        uint64_t check = 0;
        for (Object *node = req->ref(0); node; node = node->ref(0)) {
            if (node->scalar<uint64_t>(0) != (seq ^ (chain - 1 - n)))
                break;
            check ^= node->scalar<uint64_t>(8);
            ++n;
        }
        if (n != chain || check != digest) {
            out.fail("request " + std::to_string(seq) + " chain corrupted");
        }

        if (leak) {
            std::lock_guard<std::mutex> guard(leakLock_);
            api.writeRef(head, 0, leaks_->ref(0));
            api.writeRef(leaks_.get(), 0, head);
            w.leaked.push_back(label);
        }
        // Unpin the scratch before the alldead flush, so a collection
        // in between finds it unreachable rather than pinned.
        api.dropLocalRoots();
        if (open_)
            api.assertAllDead();
    }

    /**
     * One window: a warm-up (until the first full collection) or a
     * measured window of @p seconds.
     */
    void
    run(Runtime &rt, double seconds, CallTrace *trace, Outcome &out,
        bool warm)
    {
        uint32_t threads = threads_;
        // Built in place: a copied Samples would lose its reserve.
        std::vector<ThreadResult> results;
        results.reserve(threads);
        for (uint32_t t = 0; t < threads; ++t)
            results.emplace_back(threads);
        std::vector<CallLog *> logs(threads, nullptr);
        if (trace)
            for (uint32_t t = 0; t < threads; ++t)
                logs[t] = &trace->newLog();
        // Warm-up and measured windows draw from separate streams,
        // so a window's inputs never depend on how long the warm-up
        // took.
        uint64_t stream = warm ? 1000 : 0;
        uint64_t inputs = subSeed(options_.seed, stream);
        uint64_t arrivals = subSeed(options_.seed, stream + 100);
        uint64_t t0 = nowNanos() + 2'000'000;
        uint64_t t1 = t0 + static_cast<uint64_t>(seconds * 1e9);
        // serve's schedule: request i of the window is due at a
        // uniformly drawn point of slot [i, i + 1) of length gap.
        double gap = 1e9 / kServeRate;
        auto dueOf = [&](uint64_t i) {
            double u = static_cast<double>(subSeed(arrivals, i) >> 11) *
                       0x1.0p-53;
            return t0 + static_cast<uint64_t>((static_cast<double>(i) + u) *
                                              gap);
        };
        std::atomic<uint64_t> next{0};
        out.gcBefore = readGc(rt);

        std::vector<std::thread> pool;
        for (uint32_t t = 0; t < threads; ++t) {
            pool.emplace_back([&, t] {
                ThreadResult &r = results[t];
                Worker &w = workers_[t];
                Api api(rt, w.mutator, logs[t]);
                uint64_t k = 0;
                uint64_t last = waitUntil(t0);
                try {
                    while (true) {
                        uint64_t i, due, start, seq;
                        if (open_) {
                            // Take the next request once it is due.
                            i = next.load(std::memory_order_relaxed);
                            due = dueOf(i);
                            if (!warm && due >= t1)
                                break;
                            if (warm && rt.collections() > 0)
                                break;
                            start = nowNanos();
                            if (start < due) {
                                cpuRelax();
                                continue;
                            }
                            if (!next.compare_exchange_weak(i, i + 1))
                                continue;
                            seq = seqBase_ + i + 1;
                        } else {
                            // Closed loop: a request is due when the
                            // previous one completes.
                            due = start = last;
                            if (!warm && start >= t1)
                                break;
                            if (warm && rt.collections() > 0)
                                break;
                            i = (uint64_t{t} << 40) | k;
                            seq = ++w.seq;
                        }
                        ++k;
                        bool leak = open_ && !warm && seq % kLeakEvery == 0;
                        Draw rng(subSeed(inputs, i));
                        uint64_t gc0 = rt.collections();
                        ++r.out.attempted;
                        api.beginRequest(open_ ? seq : (uint64_t{t} << 48) |
                                                          seq,
                                         start);
                        handle(api, w, seq, leak, rng, r.out);
                        uint64_t end = nowNanos();
                        api.endRequest(end);
                        uint64_t gc1 = rt.collections();
                        ++r.completed;
                        if (end <= t1)
                            ++r.out.completedInWindow;
                        r.samples.add(end - due, start - due,
                                      windowOf(due, t0));
                        r.out.serviceNanos += end - start;
                        if (gc1 != gc0)
                            r.out.gcReadings.push_back(readGc(rt));
                        last = end;
                    }
                } catch (const std::exception &e) {
                    r.out.fail(std::string("worker stopped: ") + e.what());
                }
            });
        }
        for (std::thread &th : pool)
            th.join();
        seqBase_ += next.load();
        out.gcAfter = readGc(rt);
        out.windowSeconds = seconds;
        for (ThreadResult &r : results) {
            out.attempted += r.out.attempted;
            out.failed += r.out.failed;
            for (std::string &f : r.out.failures)
                if (out.failures.size() < 8)
                    out.failures.push_back(std::move(f));
            if (r.completed != r.out.attempted)
                out.fail("request lost");
            out.completedInWindow += r.out.completedInWindow;
            out.serviceNanos += r.out.serviceNanos;
            out.addSamples(r.samples);
            out.gcReadings.insert(out.gcReadings.end(),
                                  r.out.gcReadings.begin(),
                                  r.out.gcReadings.end());
        }
    }

    /**
     * Spin until @p due and return the time the wait ended. A
     * mutator that sleeps instead leaves its vCPU idle, and on a
     * shared host the wake-up then waits for the host to run that
     * vCPU again.
     */
    static uint64_t
    waitUntil(uint64_t due)
    {
        uint64_t now = nowNanos();
        while (now < due) {
            cpuRelax();
            now = nowNanos();
        }
        return now;
    }

    /**
     * serve: up to four mutators, on half the host's cores. They spin
     * while they wait, and on a shared 4-vCPU host three spinning
     * mutators raised the hypervisor's steal to 4-13% of CPU time;
     * more than a tenth of all requests then waited over a
     * millisecond, and the latency tail measured the host instead of
     * the runtime.
     *
     * saturate: one mutator. Two in a closed loop collide on the
     * runtime lock so often that a quarter of their requests wait
     * for the kernel to wake them, 40-200 us instead of 2 us; which
     * group the median fell in changed from run to run.
     */
    static uint32_t
    threadCount(bool open)
    {
        unsigned cores = std::thread::hardware_concurrency();
        return open ? std::min(4u, std::max(1u, cores / 2)) : 1;
    }

    RunOptions options_;
    bool open_;
    uint32_t threads_;
    uint32_t sessions_;
    TypeId sessionType_ = gcassert::kInvalidTypeId;
    TypeId profileType_ = gcassert::kInvalidTypeId;
    TypeId tableType_ = gcassert::kInvalidTypeId;
    TypeId requestType_ = gcassert::kInvalidTypeId;
    TypeId nodeType_ = gcassert::kInvalidTypeId;
    TypeId leakType_ = gcassert::kInvalidTypeId;
    Handle table_;
    Handle leaks_;
    std::vector<Worker> workers_;
    /** serve: requests of the windows before this one. */
    uint64_t seqBase_ = 0;
    std::mutex stripes_[kStripes];
    std::mutex leakLock_;
};

} // namespace

std::unique_ptr<Workload>
makeServe(const RunOptions &options)
{
    return std::make_unique<ServerLoad>(options, /*open=*/true);
}

std::unique_ptr<Workload>
makeSaturate(const RunOptions &options)
{
    return std::make_unique<ServerLoad>(options, /*open=*/false);
}

} // namespace gcbench
