/**
 * @file
 * server workload implementation. See server.h for the design.
 */

#include "workloads/server.h"

#include <thread>

#include "observe/metrics.h"
#include "observe/telemetry.h"
#include "support/env.h"
#include "support/stopwatch.h"
#include "workloads/registry.h"

namespace gcassert {

uint32_t
defaultServerThreads()
{
    uint64_t threads = envUint("GCASSERT_SERVER_THREADS", 4);
    if (threads < 1)
        threads = 1;
    if (threads > 64)
        threads = 64;
    return static_cast<uint32_t>(threads);
}

uint32_t
defaultServerLeakEvery()
{
    return static_cast<uint32_t>(
        envUint("GCASSERT_SERVER_LEAK_EVERY", 0));
}

ServerWorkload::ServerWorkload(ServerOptions options)
    : options_(options)
{
    if (options_.threads < 1)
        options_.threads = 1;
    if (options_.sessions < 1)
        options_.sessions = 1;
    if (options_.cacheCapacity < 2)
        options_.cacheCapacity = 2;
    if (options_.bufferBytes < 64)
        options_.bufferBytes = 64;
}

uint64_t
ServerWorkload::minHeapBytes() const
{
    // The live set (sessions + cache + pool) is small; the floor
    // mostly sets the GC cadence — the driver doubles it, and the
    // scratch churn of ~1 KiB per request then triggers a full
    // collection every few thousand requests.
    uint64_t live = uint64_t{options_.sessions} * 192 +
                    uint64_t{options_.cacheCapacity} * 256 +
                    uint64_t{options_.poolBuffers} *
                        (options_.bufferBytes + 64);
    uint64_t floor = 4ull * 1024 * 1024;
    return live > floor ? live : floor;
}

void
ServerWorkload::setup(Runtime &runtime)
{
    workers_.clear();
    cacheIndex_.clear();
    poolFree_.clear();
    cacheSize_ = 0;
    poolCheckouts_ = 0;

    auto &types = runtime.types();
    sessionType_ = types.define("SrvSession")
                       .refs({"user"})
                       .scalars(24)
                       .build();
    userType_ = types.define("SrvUser").scalars(48).build();
    tableType_ = types.define("SrvTable").array().build();
    cacheType_ = types.define("SrvCache")
                     .refs({"head", "tail"})
                     .scalars(8)
                     .build();
    entryType_ = types.define("SrvCacheEntry")
                     .refs({"value", "prev", "next"})
                     .scalars(16)
                     .build();
    valueType_ = types.define("SrvCacheValue").scalars(64).build();
    bufferType_ =
        types.define("SrvBuffer").scalars(options_.bufferBytes).build();
    requestType_ = types.define("SrvRequest")
                       .refs({"first"})
                       .scalars(24)
                       .build();
    nodeType_ = types.define("SrvNode")
                    .refs({"next"})
                    .scalars(24)
                    .build();
    leakListType_ =
        types.define("SrvLeakList").refs({"head"}).scalars(8).build();

    // Named allocation sites: the backgraph's growing-leak reports
    // name these instead of hashed return addresses, so a leak in
    // the request path attributes to "srv.request.node" rather than
    // an anonymous code address. All 0 (untagged) with the backgraph
    // off — allocSite is a no-op then.
    siteUser_ = runtime.allocSite("srv.user.refresh");
    siteCacheEntry_ = runtime.allocSite("srv.cache.entry");
    siteCacheValue_ = runtime.allocSite("srv.cache.value");
    siteBuffer_ = runtime.allocSite("srv.pool.buffer");
    siteRequest_ = runtime.allocSite("srv.request");
    siteRequestNode_ = runtime.allocSite("srv.request.node");

    sessionUserSlot_ = types.get(sessionType_).slotIndex("user");
    cacheHeadSlot_ = types.get(cacheType_).slotIndex("head");
    cacheTailSlot_ = types.get(cacheType_).slotIndex("tail");
    entryValueSlot_ = types.get(entryType_).slotIndex("value");
    entryPrevSlot_ = types.get(entryType_).slotIndex("prev");
    entryNextSlot_ = types.get(entryType_).slotIndex("next");
    requestFirstSlot_ = types.get(requestType_).slotIndex("first");
    nodeNextSlot_ = types.get(nodeType_).slotIndex("next");
    leakHeadSlot_ = types.get(leakListType_).slotIndex("head");

    // Long-lived state, built single-threaded before any worker runs.
    sessionTable_ = Handle(
        runtime, runtime.allocArrayRaw(tableType_, options_.sessions),
        "srv.sessions");
    for (uint32_t i = 0; i < options_.sessions; ++i) {
        Object *session = runtime.allocRaw(sessionType_);
        Handle guard(runtime, session, "srv.session");
        session->setScalar<uint64_t>(0, i);
        // Same site tag as the refresh path: the site names "the
        // session's user profile", so its live count stays pinned at
        // the session count (a refresh replaces, never adds) and the
        // find-leak trend cannot mistake first-refresh churn for
        // monotone growth.
        Object *user = runtime.allocRaw(userType_, nullptr, siteUser_);
        Handle uguard(runtime, user, "srv.user");
        user->setScalar<uint64_t>(0, i);
        runtime.writeRef(session, sessionUserSlot_, user);
        runtime.writeRef(sessionTable_.get(), i, session);
    }

    cache_ =
        Handle(runtime, runtime.allocRaw(cacheType_), "srv.cache");

    pool_ = Handle(
        runtime, runtime.allocArrayRaw(tableType_, options_.poolBuffers),
        "srv.pool");
    for (uint32_t i = 0; i < options_.poolBuffers; ++i) {
        Object *buffer = runtime.allocRaw(bufferType_);
        Handle guard(runtime, buffer, "srv.buffer");
        runtime.writeRef(pool_.get(), i, buffer);
        poolFree_.push_back(i);
    }

    leakList_ =
        Handle(runtime, runtime.allocRaw(leakListType_), "srv.leaks");

    for (uint32_t t = 0; t < options_.threads; ++t)
        workers_.push_back(
            &runtime.registerMutator("server-" + std::to_string(t)));

    if (Telemetry *telemetry = runtime.telemetry()) {
        MetricsRegistry &metrics = telemetry->metrics();
        metrics.gauge("server.requests.completed",
                      [this] { return requestsCompleted(); });
        metrics.gauge("server.requests.per_sec", [this] {
            double secs = busySeconds();
            return secs > 0.0 ? static_cast<uint64_t>(
                                    static_cast<double>(
                                        requestsCompleted()) /
                                    secs)
                              : uint64_t{0};
        });
        metrics.gauge("server.request.latency.p50_nanos", [this] {
            return latencySnapshot().percentile(50.0);
        });
        metrics.gauge("server.request.latency.p99_nanos", [this] {
            return latencySnapshot().percentile(99.0);
        });
        metrics.gauge("server.request.latency.max_nanos",
                      [this] { return latencySnapshot().max(); });
    }
}

void
ServerWorkload::cachePushFront(Runtime &runtime, Object *entry)
{
    Object *old_head = cache_->ref(cacheHeadSlot_);
    runtime.writeRef(entry, entryPrevSlot_, nullptr);
    runtime.writeRef(entry, entryNextSlot_, old_head);
    if (old_head)
        runtime.writeRef(old_head, entryPrevSlot_, entry);
    runtime.writeRef(cache_.get(), cacheHeadSlot_, entry);
    if (!cache_->ref(cacheTailSlot_))
        runtime.writeRef(cache_.get(), cacheTailSlot_, entry);
}

void
ServerWorkload::cacheUnlink(Runtime &runtime, Object *entry)
{
    Object *prev = entry->ref(entryPrevSlot_);
    Object *next = entry->ref(entryNextSlot_);
    if (prev)
        runtime.writeRef(prev, entryNextSlot_, next);
    else
        runtime.writeRef(cache_.get(), cacheHeadSlot_, next);
    if (next)
        runtime.writeRef(next, entryPrevSlot_, prev);
    else
        runtime.writeRef(cache_.get(), cacheTailSlot_, prev);
    runtime.writeRef(entry, entryPrevSlot_, nullptr);
    runtime.writeRef(entry, entryNextSlot_, nullptr);
}

void
ServerWorkload::cacheLookupOrInsert(Runtime &runtime,
                                    MutatorContext &mutator,
                                    uint64_t key)
{
    // Caller holds shared_.
    auto it = cacheIndex_.find(key);
    if (it != cacheIndex_.end()) {
        Object *entry = it->second;
        entry->setScalar<uint64_t>(8, entry->scalar<uint64_t>(8) + 1);
        // Between the unlink and the relink the entry is reachable
        // from nothing the collector sees (cacheIndex_ is not a
        // root), and another worker's allocation may collect right
        // then: pin it for the move.
        Handle pin(runtime, entry, "srv.cache.move");
        cacheUnlink(runtime, entry);
        cachePushFront(runtime, entry);
        return;
    }

    // Miss: a new entry + value join the cache (mature allocations,
    // outside any region); eviction turns the tail into garbage.
    Object *entry =
        runtime.allocLocal(entryType_, &mutator, siteCacheEntry_);
    entry->setScalar<uint64_t>(0, key);
    Object *value =
        runtime.allocLocal(valueType_, &mutator, siteCacheValue_);
    value->setScalar<uint64_t>(0, key);
    runtime.writeRef(entry, entryValueSlot_, value);
    cachePushFront(runtime, entry);
    cacheIndex_[key] = entry;
    ++cacheSize_;

    if (cacheSize_ > options_.cacheCapacity) {
        Object *victim = cache_->ref(cacheTailSlot_);
        // Read the key first: once unlinked, the victim may be
        // reclaimed by another worker's collection.
        cacheIndex_.erase(victim->scalar<uint64_t>(0));
        cacheUnlink(runtime, victim);
        --cacheSize_;
    }
}

void
ServerWorkload::serveRequest(Runtime &runtime, MutatorContext &mutator,
                             uint32_t worker, uint64_t worker_seq,
                             Rng &rng, PauseHistogram &latency)
{
    uint64_t t0 = nowNanos();

    // --- persistent phase: session touch, cache op, pool checkout.
    // Runs before the region opens, so these allocations are never
    // flushed as must-die. shared_ nests outside the runtime lock.
    uint64_t session_idx = rng.below(options_.sessions);
    uint32_t pool_idx = UINT32_MAX;
    Object *buffer = nullptr;
    {
        std::lock_guard<std::mutex> guard(shared_);
        Object *session =
            sessionTable_->ref(static_cast<uint32_t>(session_idx));
        session->setScalar<uint64_t>(8,
                                     session->scalar<uint64_t>(8) + 1);
        session->setScalar<uint64_t>(16, worker_seq);
        if (rng.chance(0.02)) {
            // Profile refresh: the old user object becomes mature
            // garbage for a later full sweep.
            Object *user =
                runtime.allocLocal(userType_, &mutator, siteUser_);
            user->setScalar<uint64_t>(0, worker_seq);
            runtime.writeRef(session, sessionUserSlot_, user);
        }
        if (rng.chance(0.5))
            cacheLookupOrInsert(
                runtime, mutator,
                rng.below(uint64_t{options_.cacheCapacity} * 4));
        if (!poolFree_.empty()) {
            pool_idx = poolFree_.back();
            poolFree_.pop_back();
            ++poolCheckouts_;
            if (poolCheckouts_ % 512 == 0) {
                // Slow pool replacement: retire the checked-out
                // buffer for a fresh one.
                Object *fresh = runtime.allocLocal(
                    bufferType_, &mutator, siteBuffer_);
                runtime.writeRef(pool_.get(), pool_idx, fresh);
            }
            buffer = pool_->ref(pool_idx);
        }
    }
    runtime.dropLocalRoots(&mutator);

    // --- request region: every allocation from here to the reply
    // must be garbage once the request completes.
    bool armed = assertionsEnabled();
    std::string label;
    if (armed) {
        label = "server-" + std::to_string(worker) + "/req-" +
                std::to_string(worker_seq);
        runtime.startRegion(&mutator, label);
    }

    Object *req =
        runtime.allocLocal(requestType_, &mutator, siteRequest_);
    req->setScalar<uint64_t>(0, worker_seq);
    uint32_t chain = 6 + static_cast<uint32_t>(rng.below(8));
    Object *head = nullptr;
    uint64_t digest = worker_seq;
    for (uint32_t i = 0; i < chain; ++i) {
        Object *node =
            runtime.allocLocal(nodeType_, &mutator, siteRequestNode_);
        node->setScalar<uint64_t>(0, worker_seq ^ i);
        uint64_t payload = rng.next();
        node->setScalar<uint64_t>(8, payload);
        digest ^= payload;
        runtime.writeRef(node, nodeNextSlot_, head);
        head = node;
    }
    runtime.writeRef(req, requestFirstSlot_, head);

    // Render the reply into the pooled buffer (exclusively ours
    // until the index is returned).
    if (buffer) {
        uint32_t words = options_.bufferBytes / 8;
        if (words > 16)
            words = 16;
        for (uint32_t i = 0; i < words; ++i)
            buffer->setScalar<uint64_t>(i * 8, digest + i);
    }

    // Injected leak: the chain head escapes the region into the
    // rooted leak list (its next pointer is rewired there, so the
    // rest of the chain still dies). The next full GC reports
    // exactly one alldead violation naming this request.
    if (options_.leakEveryN != 0 && head != nullptr &&
        worker_seq % options_.leakEveryN == 0) {
        std::lock_guard<std::mutex> guard(shared_);
        runtime.writeRef(head, nodeNextSlot_,
                         leakList_->ref(leakHeadSlot_));
        runtime.writeRef(leakList_.get(), leakHeadSlot_, head);
        leaksInjected_.fetch_add(1, std::memory_order_relaxed);
        if (armed) {
            std::lock_guard<std::mutex> sguard(stats_);
            leakedLabels_.push_back(label);
        }
    }

    if (pool_idx != UINT32_MAX) {
        std::lock_guard<std::mutex> guard(shared_);
        poolFree_.push_back(pool_idx);
    }

    // Reply sent: unpin the scratch *before* the alldead flush, so
    // a collection landing in between sees it unreachable (the
    // assertion is then trivially satisfied, never false-positive).
    runtime.dropLocalRoots(&mutator);
    if (armed)
        runtime.assertAllDead(&mutator);

    requestsCompleted_.fetch_add(1, std::memory_order_relaxed);
    latency.record(nowNanos() - t0);
}

void
ServerWorkload::iterate(Runtime &runtime)
{
    ++iterations_;
    Stopwatch busy;
    busy.start();

    std::vector<std::thread> threads;
    threads.reserve(options_.threads);
    for (uint32_t t = 0; t < options_.threads; ++t) {
        threads.emplace_back([this, &runtime, t] {
            MutatorContext &mutator = *workers_[t];
            // SplitMix-style per-thread sub-seed: deterministic and
            // independent per (iteration, thread).
            uint64_t seed =
                (iterations_ * 0x9E3779B97F4A7C15ull) ^
                ((uint64_t{t} + 1) * 0xBF58476D1CE4E5B9ull);
            Rng rng(seed);
            PauseHistogram local;
            uint64_t base =
                (iterations_ - 1) *
                uint64_t{options_.requestsPerThread};
            for (uint32_t k = 1; k <= options_.requestsPerThread;
                 ++k) {
                if (stop_.load(std::memory_order_relaxed))
                    break;
                serveRequest(runtime, mutator, t, base + k, rng,
                             local);
                // Periodic live-endpoint publish: fresh snapshots
                // between full GCs. Outside shared_ (lock order) and
                // a cheap no-op when telemetry is off.
                if (options_.publishEvery != 0 &&
                    k % options_.publishEvery == 0)
                    runtime.publishTelemetry();
            }
            std::lock_guard<std::mutex> guard(stats_);
            latency_.merge(local);
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    busy.stop();
    std::lock_guard<std::mutex> guard(stats_);
    busyNanos_ += busy.elapsedNanos();
}

void
ServerWorkload::teardown(Runtime &runtime)
{
    (void)runtime;
    sessionTable_.reset();
    cache_.reset();
    pool_.reset();
    leakList_.reset();
    cacheIndex_.clear();
    poolFree_.clear();
    workers_.clear();
    cacheSize_ = 0;
}

std::vector<std::string>
ServerWorkload::leakedLabels() const
{
    std::lock_guard<std::mutex> guard(stats_);
    return leakedLabels_;
}

PauseHistogram
ServerWorkload::latencySnapshot() const
{
    std::lock_guard<std::mutex> guard(stats_);
    return latency_;
}

double
ServerWorkload::busySeconds() const
{
    std::lock_guard<std::mutex> guard(stats_);
    return static_cast<double>(busyNanos_) / 1e9;
}

std::unique_ptr<Workload>
makeServer()
{
    return std::make_unique<ServerWorkload>();
}

std::unique_ptr<ServerWorkload>
makeServerWithOptions(const ServerOptions &options)
{
    return std::make_unique<ServerWorkload>(options);
}

} // namespace gcassert
