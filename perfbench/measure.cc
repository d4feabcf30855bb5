#include "measure.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const int64_t n = static_cast<int64_t>(v.size());
  int64_t rank = static_cast<int64_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<int64_t>(rank, 1, n);
  return v[rank - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

int64_t SamplesBeyond(int64_t n, double q) {
  if (n <= 0) return 0;
  const int64_t rank =
      std::clamp<int64_t>(static_cast<int64_t>(std::ceil(q * n)), 1, n);
  return n - rank;
}

int64_t MinSamplesFor(double q, int64_t beyond) {
  int64_t n = 1;
  while (SamplesBeyond(n, q) < beyond) ++n;
  return n;
}

double OpTally::error_rate() const {
  return Ratio(static_cast<double>(failed + wrong),
               static_cast<double>(attempted));
}

OpTally Tally(const std::vector<OpRecord>& ops, int64_t wrong) {
  OpTally t;
  t.attempted = static_cast<int64_t>(ops.size());
  for (const OpRecord& op : ops) t.failed += op.failed ? 1 : 0;
  // An op that errored produced no output to check.
  t.wrong = std::min(wrong, t.attempted - t.failed);
  return t;
}

std::vector<double> Latencies(const std::vector<OpRecord>& ops) {
  std::vector<double> out;
  out.reserve(ops.size());
  for (const OpRecord& op : ops) {
    out.push_back(op.failed ? std::numeric_limits<double>::infinity()
                            : op.latency_ms);
  }
  return out;
}

double HalfDrift(const std::vector<double>& latencies) {
  const size_t half = latencies.size() / 2;
  if (half == 0) return 0;
  const double first =
      Median(std::vector<double>(latencies.begin(), latencies.begin() + half));
  const double second =
      Median(std::vector<double>(latencies.end() - half, latencies.end()));
  return std::abs(Ratio(second, first) - 1.0);
}

double HalfCostDrift(double first_cost, int64_t first_ops, double second_cost,
                     int64_t second_ops) {
  if (first_ops <= 0 || second_ops <= 0 || first_cost <= 0) return 0;
  const double first = first_cost / static_cast<double>(first_ops);
  const double second = second_cost / static_cast<double>(second_ops);
  return std::abs(second / first - 1.0);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

void AttachRoots(std::vector<Span>* spans) {
  std::unordered_map<uint32_t, std::vector<size_t>> by_tid;
  for (size_t i = 0; i < spans->size(); ++i) {
    by_tid[(*spans)[i].tid].push_back(i);
  }
  for (auto& [tid, idx] : by_tid) {
    // Outer spans first: earlier start, then later end, then lower id
    // (a span's id is taken when it opens, so the enclosing one is lower).
    std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
      const Span& x = (*spans)[a];
      const Span& y = (*spans)[b];
      if (x.start_us != y.start_us) return x.start_us < y.start_us;
      if (x.end_us() != y.end_us()) return x.end_us() > y.end_us();
      return x.id < y.id;
    });
    std::vector<size_t> open;  // stack of enclosing spans
    for (size_t i : idx) {
      Span& s = (*spans)[i];
      while (!open.empty() && (*spans)[open.back()].end_us() < s.end_us()) {
        open.pop_back();
      }
      if (s.parent == 0 && !open.empty()) s.parent = (*spans)[open.back()].id;
      open.push_back(i);
    }
  }
}

uint64_t CoveredUs(std::vector<std::pair<uint64_t, uint64_t>> intervals,
                   uint64_t lo, uint64_t hi) {
  for (auto& [a, b] : intervals) {
    a = std::clamp(a, lo, hi);
    b = std::clamp(b, lo, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  uint64_t covered = 0;
  uint64_t cur_a = 0, cur_b = 0;
  bool open = false;
  for (const auto& [a, b] : intervals) {
    if (a >= b) continue;
    if (open && a <= cur_b) {
      cur_b = std::max(cur_b, b);
      continue;
    }
    if (open) covered += cur_b - cur_a;
    cur_a = a;
    cur_b = b;
    open = true;
  }
  if (open) covered += cur_b - cur_a;
  return covered;
}

std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    auto it = index.find(s.parent);
    if (s.parent != 0 && it != index.end()) {
      kids[it->second].emplace_back(s.start_us, s.end_us());
    }
  }
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].dur_us -
              CoveredUs(std::move(kids[i]), spans[i].start_us,
                        spans[i].end_us());
  }
  return self;
}

}  // namespace perfbench
