/**
 * @file
 * Per-layer call timing for traced runs.
 *
 * Workloads reach the runtime only through an Api object. In a
 * measured run the Api forwards each call and records nothing. In a
 * traced run it records, per calling thread, the duration of every
 * call into the runtime and assertion layers, and full spans (name,
 * start, end, parent, request id) for one request in every
 * kSpanSampleEvery. Everything stays in memory until the run ends.
 *
 * A call during which the runtime's public collection count changed
 * was stalled by a full collection. Its self time is its duration
 * minus the part of it that the runtime's own full_gc trace spans
 * cover (same steady clock), computed once the run is over.
 */

#ifndef GCBENCH_CALLS_H
#define GCBENCH_CALLS_H

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "runtime/runtime.h"

namespace gcbench {

/** The public calls the benchmark times. */
enum class Call : uint8_t {
    AllocLocal,
    AllocRaw,
    WriteRef,
    DropLocalRoots,
    StartRegion,
    AssertAllDead,
    /** The whole request or transaction: parent of the others. */
    Request,
};
constexpr size_t kNumCalls = 7;

/** Metric prefix of a call, e.g. "runtime.alloc_local". */
const char *callName(Call call);

/** One recorded span; parent is an index into the same log. */
struct Span {
    uint64_t start = 0;
    uint64_t end = 0;
    uint64_t request = 0;
    int64_t parent = -1;
    Call call = Call::Request;
};

/**
 * Self times of one kind of call on one thread: exact count and sum,
 * and a bounded sample for percentiles. When the sample fills, every
 * other entry is dropped and only every second call is kept from
 * then on, so a long traced run stays within a fixed footprint.
 */
struct Durations {
    static constexpr size_t kCapacity = size_t{1} << 18;

    uint64_t calls = 0;
    uint64_t busyNanos = 0;
    uint64_t stride = 1;
    std::vector<uint32_t> kept;

    void add(uint64_t nanos);
};

/** One thread's records. Only that thread writes it. */
struct CallLog {
    /** Self time of each completed call, by Call. */
    std::array<Durations, kNumCalls> nanos;
    struct Stalled {
        Call call;
        uint64_t start;
        uint64_t end;
    };
    /** Calls that overlapped a full collection, settled later. */
    std::vector<Stalled> stalled;
    std::vector<Span> spans;
    uint64_t request = 0;
    bool sampled = false;
    int64_t requestSpan = -1;

    void record(Call call, uint64_t start, uint64_t end, bool stalled);
};

/** Summary of one call's timings over all threads. */
struct CallStats {
    uint64_t calls = 0;
    uint64_t p50Nanos = 0;
    uint64_t p99Nanos = 0;
    uint64_t busyNanos = 0;
};

/** All threads' call logs for one traced window. */
class CallTrace {
  public:
    /** Requests whose spans are kept: one in this many. */
    static constexpr uint64_t kSpanSampleEvery = 256;

    /** A log for one more thread; call before the threads start. */
    CallLog &newLog();

    /**
     * Turn stalled calls into self time: subtract the overlap with
     * each full-GC interval [start, end) (absolute steady-clock
     * nanoseconds). Call once, after every thread has joined.
     */
    void settle(const std::vector<std::pair<uint64_t, uint64_t>> &gcs);

    CallStats stats(Call call) const;

    /** Calls during which the collection count changed. */
    uint64_t stalledCalls() const;

    /** Write the sampled spans as JSON; false on I/O failure. */
    bool writeSpans(const std::string &path, uint64_t epochNanos) const;

  private:
    std::vector<std::unique_ptr<CallLog>> logs_;
    uint64_t stalledCalls_ = 0;
};

/**
 * The runtime API as one mutator thread uses it. Each method
 * forwards to the Runtime; with a non-null log it also times the
 * call.
 */
class Api {
  public:
    Api(gcassert::Runtime &rt, gcassert::MutatorContext *mutator,
        CallLog *log)
        : rt_(rt), mutator_(mutator), log_(log)
    {
    }

    gcassert::Runtime &runtime() { return rt_; }

    gcassert::Object *
    allocLocal(gcassert::TypeId type)
    {
        Scope scope(*this, Call::AllocLocal);
        return rt_.allocLocal(type, mutator_);
    }

    gcassert::Object *
    allocRaw(gcassert::TypeId type)
    {
        Scope scope(*this, Call::AllocRaw);
        return rt_.allocRaw(type, mutator_);
    }

    void
    writeRef(gcassert::Object *src, uint32_t slot,
             gcassert::Object *target)
    {
        Scope scope(*this, Call::WriteRef);
        rt_.writeRef(src, slot, target);
    }

    void
    dropLocalRoots()
    {
        Scope scope(*this, Call::DropLocalRoots);
        rt_.dropLocalRoots(mutator_);
    }

    void
    startRegion(std::string label)
    {
        Scope scope(*this, Call::StartRegion);
        rt_.startRegion(mutator_, std::move(label));
    }

    void
    assertAllDead()
    {
        Scope scope(*this, Call::AssertAllDead);
        rt_.assertAllDead(mutator_);
    }

    /** Open the parent span of one request (traced runs only). */
    void beginRequest(uint64_t id, uint64_t startNanos);

    /** Close it; @p endNanos is the request's end. */
    void endRequest(uint64_t endNanos);

  private:
    class Scope {
      public:
        Scope(Api &api, Call call) : api_(api), call_(call)
        {
            if (api_.log_) {
                gc_ = api_.rt_.collections();
                start_ = nowNanos();
            }
        }

        ~Scope()
        {
            if (api_.log_)
                api_.log_->record(call_, start_, nowNanos(),
                                  gc_ != api_.rt_.collections());
        }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Api &api_;
        Call call_;
        uint64_t gc_ = 0;
        uint64_t start_ = 0;
    };

    gcassert::Runtime &rt_;
    gcassert::MutatorContext *mutator_;
    CallLog *log_;
};

} // namespace gcbench

#endif // GCBENCH_CALLS_H
