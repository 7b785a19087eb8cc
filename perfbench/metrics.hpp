#pragma once

// The benchmark's own arithmetic, kept free of the workloads so that
// test_metrics.cpp can pin it: nearest-rank percentiles and the tail rule,
// failure accounting for served jobs, and span self time.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------ percentiles

/// 1-based nearest rank of quantile q over `count` sorted samples: the
/// smallest rank r with r >= q * count (clamped to [1, count]). The small
/// slack keeps 0.99 * 1000 at rank 990 despite binary rounding.
inline std::size_t nearestRank(std::size_t count, double q) {
  if (count == 0) return 0;
  const double exact = q * static_cast<double>(count);
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, count);
}

/// Samples strictly above the nearest-rank q-percentile.
inline std::size_t samplesBeyond(std::size_t count, double q) {
  return count - nearestRank(count, q);
}

/// The tail rule: a percentile is reported as such only when at least
/// `min_beyond` samples lie beyond it (p99 needs >= 1000 samples).
inline bool tailSupported(std::size_t count, double q,
                          std::size_t min_beyond = 10) {
  return count > 0 && samplesBeyond(count, q) >= min_beyond;
}

/// The tail the tail rule lets a run report: the nearest-rank q-percentile
/// when at least `min_beyond` samples lie beyond it, else the highest
/// percentile that has `min_beyond` samples beyond it (rank count -
/// min_beyond), else — with too few samples for any — the maximum.
struct Tail {
  double quantile = 0.0;  // the percentile actually reported, in (0, 1]
  double value = 0.0;
};

inline Tail supportedTail(std::vector<double> samples, double q,
                          std::size_t min_beyond = 10) {
  if (samples.empty()) return {};
  std::sort(samples.begin(), samples.end());
  const std::size_t count = samples.size();
  std::size_t rank = nearestRank(count, q);
  if (count - rank < min_beyond)
    rank = count > min_beyond ? count - min_beyond : count;
  return {static_cast<double>(rank) / static_cast<double>(count),
          samples[rank - 1]};
}

/// Median (mean of the two middle samples for an even count, as Python's
/// statistics.median); 0 for an empty sample set.
inline double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  if (samples.size() % 2 == 1) return samples[mid];
  return 0.5 * (samples[mid - 1] + samples[mid]);
}

// ------------------------------------------------------------ served jobs

/// dodad's "busy" error code: the open-job cap refused the submit.
inline constexpr int kBusyErrorCode = -32000;

enum class JobOutcome { kDone, kRefused, kFailed, kMismatched };

/// How a served job ended, from what the client saw: the submit's error
/// code (0 when it was accepted), the state of the job.complete frame and
/// whether its stats matched the offline recomputation.
inline JobOutcome classifyJob(int submit_error, const std::string& state,
                              bool stats_match) {
  if (submit_error == kBusyErrorCode) return JobOutcome::kRefused;
  if (submit_error != 0 || state != "done") return JobOutcome::kFailed;
  return stats_match ? JobOutcome::kDone : JobOutcome::kMismatched;
}

/// Failure accounting over attempted jobs: refused, failed and mismatched
/// jobs all count as failed.
struct JobTally {
  std::size_t attempted = 0;
  std::size_t refused = 0;
  std::size_t failed = 0;
  std::size_t mismatched = 0;

  void add(JobOutcome outcome) {
    ++attempted;
    if (outcome == JobOutcome::kRefused) ++refused;
    if (outcome == JobOutcome::kFailed) ++failed;
    if (outcome == JobOutcome::kMismatched) ++mismatched;
  }
  std::size_t failures() const { return refused + failed + mismatched; }
  double failedShare() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failures()) /
                                static_cast<double>(attempted);
  }
};

// ------------------------------------------------------------------ spans

/// One traced interval: a layer boundary crossed by the benchmark's own
/// call. `parent` indexes the enclosing span in the same log (-1 for a
/// root); `id` is the trial or job the span belongs to; `count` is the
/// work the call did (interactions, queries, bytes), 0 when not counted.
struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t count = 0;

  std::int64_t durationNs() const { return end_ns - start_ns; }
};

/// In-memory span store. Spans are appended (children after or before
/// their parent, as long as the parent index is known) and analysed once
/// at the end of the run.
class SpanLog {
 public:
  /// Appends a span and returns its index.
  std::int64_t add(Span span) {
    spans_.push_back(std::move(span));
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  /// Appends every span of `other`, re-basing its parent indices; a root of
  /// `other` becomes a child of `parent`. Returns the index of the first
  /// appended span.
  std::int64_t append(const SpanLog& other, std::int64_t parent = -1) {
    const auto base = static_cast<std::int64_t>(spans_.size());
    for (Span span : other.spans_) {
      span.parent = span.parent < 0 ? parent : span.parent + base;
      spans_.push_back(std::move(span));
    }
    return base;
  }

  const std::vector<Span>& spans() const { return spans_; }
  std::size_t size() const { return spans_.size(); }

  /// Self time of every span: its duration minus the part of its interval
  /// that its direct children cover (overlapping children are counted
  /// once; children reaching outside the parent are clipped to it).
  std::vector<std::int64_t> selfTimes() const {
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> covered(
        spans_.size());
    for (const Span& span : spans_) {
      if (span.parent < 0) continue;
      const Span& parent = spans_[static_cast<std::size_t>(span.parent)];
      const std::int64_t begin = std::max(span.start_ns, parent.start_ns);
      const std::int64_t end = std::min(span.end_ns, parent.end_ns);
      if (begin < end)
        covered[static_cast<std::size_t>(span.parent)].push_back({begin, end});
    }
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& intervals = covered[i];
      std::sort(intervals.begin(), intervals.end());
      std::int64_t union_ns = 0;
      std::int64_t open_begin = 0;
      std::int64_t open_end = 0;
      bool open = false;
      for (const auto& [begin, end] : intervals) {
        if (open && begin <= open_end) {
          open_end = std::max(open_end, end);
          continue;
        }
        if (open) union_ns += open_end - open_begin;
        open_begin = begin;
        open_end = end;
        open = true;
      }
      if (open) union_ns += open_end - open_begin;
      self[i] = spans_[i].durationNs() - union_ns;
    }
    return self;
  }

 private:
  std::vector<Span> spans_;
};

/// Per-name totals over a span log.
struct SpanTotals {
  std::size_t spans = 0;
  double seconds = 0.0;       // summed durations
  double self_seconds = 0.0;  // summed self times
  std::uint64_t count = 0;    // summed work counts
  std::vector<double> durations_ms;
};

inline std::map<std::string, SpanTotals> totalsByName(const SpanLog& log) {
  const std::vector<std::int64_t> self = log.selfTimes();
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < log.size(); ++i) {
    const Span& span = log.spans()[i];
    SpanTotals& t = totals[span.name];
    ++t.spans;
    t.seconds += static_cast<double>(span.durationNs()) * 1e-9;
    t.self_seconds += static_cast<double>(self[i]) * 1e-9;
    t.count += span.count;
    t.durations_ms.push_back(static_cast<double>(span.durationNs()) * 1e-6);
  }
  return totals;
}

}  // namespace perfbench
