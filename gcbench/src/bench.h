/**
 * @file
 * Shared definitions of the gcassert benchmark: run options, the
 * per-run outcome every workload fills in, and the workload
 * interface.
 *
 * The benchmark drives the runtime only through its public API
 * (Runtime, GcStats, the metrics registry). Every call into the
 * runtime goes through an Api object (calls.h), which times the
 * call when the run is traced and forwards it untouched otherwise.
 */

#ifndef GCBENCH_BENCH_H
#define GCBENCH_BENCH_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/runtime.h"

namespace gcbench {

class CallTrace;

/** How one workload run was asked for on the command line. */
struct RunOptions {
    std::string workload;
    uint64_t seed = 0;
    /** Length of the measured window, in seconds. */
    double seconds = 10.0;
};

/**
 * The runtime's cumulative full-GC time as one operation saw it
 * right after the collection count moved to @p gc. The final
 * readings of consecutive collections give each one's
 * stop-the-world pause.
 */
struct GcReading {
    uint64_t gc = 0;
    uint64_t totalGcNanos = 0;
};

/**
 * Read the collection count and the cumulative full-GC time.
 *
 * The runtime exposes these only as plain fields that a collection
 * writes under its lock; it has no synchronized accessor. The count
 * moves when a collection starts, so a mutator whose request ended
 * without waiting for the lock may read while that collection still
 * runs and get a partial total. The mutator that ran the collection
 * reads after it, so the highest reading per collection number is
 * exact. The next collection cannot start until the mutators have
 * allocated another heap budget, so no reading overlaps it.
 */
inline GcReading
readGc(gcassert::Runtime &rt)
{
    return GcReading{rt.collections(), rt.gcStats().totalGc.elapsedNanos()};
}

/**
 * Per-operation samples (latency and lateness, in nanoseconds, and
 * the window of the run the operation was due in) in a
 * buffer of fixed capacity, so that sample storage neither grows
 * the process nor stalls an operation to reallocate. When the
 * buffer fills, every other sample is dropped and from then on only
 * every stride-th operation is kept: systematic sampling, the same
 * for the same operation sequence.
 */
class Samples {
  public:
    /** Samples kept over all of a run's mutators. */
    static constexpr size_t kTotalCapacity = size_t{1} << 21;

    /** A buffer for one of @p mutators mutators. */
    explicit Samples(uint32_t mutators)
        : capacity_(kTotalCapacity / (mutators ? mutators : 1))
    {
        latency_.reserve(capacity_);
        late_.reserve(capacity_);
        window_.reserve(capacity_);
    }

    void
    add(uint64_t latency, uint64_t late, uint32_t window)
    {
        uint64_t i = seen_++;
        if (i % stride_ != 0)
            return;
        if (latency_.size() == capacity_) {
            for (size_t k = 0; k < capacity_ / 2; ++k) {
                latency_[k] = latency_[2 * k];
                late_[k] = late_[2 * k];
                window_[k] = window_[2 * k];
            }
            latency_.resize(capacity_ / 2);
            late_.resize(capacity_ / 2);
            window_.resize(capacity_ / 2);
            stride_ *= 2;
            if (i % stride_ != 0)
                return;
        }
        latency_.push_back(clamp(latency));
        late_.push_back(clamp(late));
        window_.push_back(window);
    }

    const std::vector<uint32_t> &latency() const { return latency_; }
    const std::vector<uint32_t> &late() const { return late_; }
    const std::vector<uint32_t> &window() const { return window_; }

  private:
    static uint32_t
    clamp(uint64_t nanos)
    {
        return nanos > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(nanos);
    }

    size_t capacity_;
    std::vector<uint32_t> latency_;
    std::vector<uint32_t> late_;
    std::vector<uint32_t> window_;
    uint64_t seen_ = 0;
    uint64_t stride_ = 1;
};

/** What one measured window produced. */
struct Outcome {
    /** Operations started in the window and operations that failed
     *  (lost, wrong output, or a wrong assertion verdict). */
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Operations completed inside the window. */
    uint64_t completedInWindow = 0;
    double windowSeconds = 0.0;
    /** Sampled per-operation latency in nanoseconds: from the due
     *  time for the open loop, from the previous completion for a
     *  closed loop. */
    std::vector<uint32_t> latencyNanos;
    /** Sampled send time minus due time, in nanoseconds. */
    std::vector<uint32_t> lateNanos;
    /** The window (see windowOf) each sample was due in. */
    std::vector<uint32_t> window;
    /** Sum of operation service times (actual start to end). */
    uint64_t serviceNanos = 0;
    /** Readings taken after each operation that saw the collection
     *  count change. */
    std::vector<GcReading> gcReadings;
    /** Readings at the window's start and end (no mutator running). */
    GcReading gcBefore;
    GcReading gcAfter;
    /** Assertion verdicts the workload expected and saw. */
    uint64_t verdictsExpected = 0;
    uint64_t verdictsSeen = 0;
    /** First few failures, for stderr. */
    std::vector<std::string> failures;

    /** Append one thread's samples. */
    void
    addSamples(const Samples &samples)
    {
        latencyNanos.insert(latencyNanos.end(), samples.latency().begin(),
                            samples.latency().end());
        lateNanos.insert(lateNanos.end(), samples.late().begin(),
                         samples.late().end());
        window.insert(window.end(), samples.window().begin(),
                      samples.window().end());
    }

    void
    fail(std::string what)
    {
        ++failed;
        if (failures.size() < 8)
            failures.push_back(std::move(what));
    }
};

/**
 * A benchmark workload. build() and warmUp() are set-up; measure()
 * runs the timed window; verify() runs after it, still on the same
 * runtime, and checks the final verdicts.
 */
class Workload {
  public:
    virtual ~Workload() = default;

    /** Mutator threads the workload runs. */
    virtual uint32_t mutators() const = 0;

    /** Heap budget the runtime is constructed with. */
    virtual uint64_t heapBudgetBytes() const = 0;

    /** Define types and build the long-lived heap. */
    virtual void build(gcassert::Runtime &rt) = 0;

    /** Run the load until the first full collection has happened. */
    virtual void warmUp(gcassert::Runtime &rt) = 0;

    /** Run the timed window. @p trace is null in measured runs. */
    virtual void measure(gcassert::Runtime &rt, double seconds,
                         CallTrace *trace, Outcome &out) = 0;

    /** Check verdicts once the window has drained. */
    virtual void verify(gcassert::Runtime &rt, Outcome &out) = 0;
};

/** A fresh workload, or nullptr for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const RunOptions &options);

std::unique_ptr<Workload> makeServe(const RunOptions &options);
std::unique_ptr<Workload> makeSaturate(const RunOptions &options);
std::unique_ptr<Workload> makeAudit(const RunOptions &options);

/** Steady-clock nanoseconds (the clock the runtime's trace uses). */
uint64_t nowNanos();

/**
 * Length of the windows a run's tail latency is taken over. The host
 * preempts a vCPU in bursts of 4 ms scheduler ticks; a tenth of a
 * second is short enough that most windows hold none of them, and
 * long enough to hold several full collections.
 */
constexpr uint64_t kWindowNanos = 100'000'000;

/** The window of a run starting at @p t0 that @p at falls in. */
inline uint32_t
windowOf(uint64_t at, uint64_t t0)
{
    return at > t0 ? static_cast<uint32_t>((at - t0) / kWindowNanos) : 0;
}

/** Sub-seed for stream @p stream of run seed @p seed (SplitMix64). */
uint64_t subSeed(uint64_t seed, uint64_t stream);

} // namespace gcbench

#endif // GCBENCH_BENCH_H
