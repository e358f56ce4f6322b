#include "calls.h"

#include <algorithm>
#include <cstdio>
#include <limits>

namespace gcbench {

const char *
callName(Call call)
{
    switch (call) {
    case Call::AllocLocal: return "runtime.alloc_local";
    case Call::AllocRaw: return "runtime.alloc_raw";
    case Call::WriteRef: return "runtime.write_ref";
    case Call::DropLocalRoots: return "runtime.drop_local_roots";
    case Call::StartRegion: return "assertions.start_region";
    case Call::AssertAllDead: return "assertions.assert_alldead";
    case Call::Request: return "request";
    }
    return "?";
}

void
Durations::add(uint64_t d)
{
    uint64_t i = calls++;
    busyNanos += d;
    if (i % stride != 0)
        return;
    if (kept.size() == kCapacity) {
        for (size_t k = 0; k < kCapacity / 2; ++k)
            kept[k] = kept[2 * k];
        kept.resize(kCapacity / 2);
        stride *= 2;
        if (i % stride != 0)
            return;
    }
    kept.push_back(static_cast<uint32_t>(
        std::min<uint64_t>(d, std::numeric_limits<uint32_t>::max())));
}

void
CallLog::record(Call call, uint64_t start, uint64_t end, bool wasStalled)
{
    if (wasStalled)
        stalled.push_back(Stalled{call, start, end});
    else
        nanos[static_cast<size_t>(call)].add(end - start);
    if (sampled)
        spans.push_back(Span{start, end, request, requestSpan, call});
}

void
Api::beginRequest(uint64_t id, uint64_t startNanos)
{
    if (!log_)
        return;
    log_->request = id;
    log_->sampled = id % CallTrace::kSpanSampleEvery == 0;
    log_->requestSpan = -1;
    if (log_->sampled) {
        log_->requestSpan = static_cast<int64_t>(log_->spans.size());
        log_->spans.push_back(
            Span{startNanos, startNanos, id, -1, Call::Request});
    }
}

void
Api::endRequest(uint64_t endNanos)
{
    if (!log_ || !log_->sampled)
        return;
    log_->spans[static_cast<size_t>(log_->requestSpan)].end = endNanos;
    log_->sampled = false;
}

CallLog &
CallTrace::newLog()
{
    logs_.push_back(std::make_unique<CallLog>());
    return *logs_.back();
}

void
CallTrace::settle(const std::vector<std::pair<uint64_t, uint64_t>> &gcs)
{
    for (auto &log : logs_) {
        for (const CallLog::Stalled &s : log->stalled) {
            uint64_t covered = 0;
            // gcs is sorted by start; only intervals starting before
            // the call ends can overlap it.
            auto last = std::lower_bound(
                gcs.begin(), gcs.end(), std::make_pair(s.end, uint64_t{0}));
            for (auto it = gcs.begin(); it != last; ++it) {
                uint64_t lo = std::max(it->first, s.start);
                uint64_t hi = std::min(it->second, s.end);
                if (hi > lo)
                    covered += hi - lo;
            }
            uint64_t d = s.end - s.start;
            log->nanos[static_cast<size_t>(s.call)].add(
                d > covered ? d - covered : 0);
            ++stalledCalls_;
        }
        log->stalled.clear();
    }
}

CallStats
CallTrace::stats(Call call) const
{
    std::vector<uint32_t> all;
    CallStats out;
    for (const auto &log : logs_) {
        const Durations &d = log->nanos[static_cast<size_t>(call)];
        all.insert(all.end(), d.kept.begin(), d.kept.end());
        out.calls += d.calls;
        out.busyNanos += d.busyNanos;
    }
    if (all.empty())
        return out;
    auto rank = [&](double p) {
        size_t k = static_cast<size_t>(p * static_cast<double>(all.size()));
        if (k >= all.size())
            k = all.size() - 1;
        std::nth_element(all.begin(), all.begin() + static_cast<long>(k),
                         all.end());
        return uint64_t{all[k]};
    };
    out.p50Nanos = rank(0.50);
    out.p99Nanos = rank(0.99);
    return out;
}

uint64_t
CallTrace::stalledCalls() const
{
    return stalledCalls_;
}

bool
CallTrace::writeSpans(const std::string &path, uint64_t epochNanos) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"clock\":\"steady_ns_since_runtime_start\","
                    "\"sample_every\":%llu,\"spans\":[",
                 static_cast<unsigned long long>(kSpanSampleEvery));
    bool first = true;
    int64_t base = 0;
    for (const auto &log : logs_) {
        for (const Span &s : log->spans) {
            int64_t parent = s.parent < 0 ? -1 : base + s.parent;
            std::fprintf(
                f, "%s\n{\"name\":\"%s\",\"start\":%lld,\"end\":%lld,"
                   "\"parent\":%lld,\"request\":%llu}",
                first ? "" : ",", callName(s.call),
                static_cast<long long>(s.start - epochNanos),
                static_cast<long long>(s.end - epochNanos),
                static_cast<long long>(parent),
                static_cast<unsigned long long>(s.request));
            first = false;
        }
        base += static_cast<int64_t>(log->spans.size());
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace gcbench
