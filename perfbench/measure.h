// The benchmark's own arithmetic: percentiles under the sample-count
// rule, op tallies, zero-safe ratios, the drift guard, and self time over
// a span tree. Kept free of engine state so perfbench_selftest can check
// every rule on synthetic inputs.
#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// ---- percentiles -----------------------------------------------------------

/// Nearest-rank q-quantile (0 < q <= 1) of `v`; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);

/// Median (mean of the two middle values for an even count); 0 if empty.
double Median(std::vector<double> v);

/// Samples that lie above the nearest-rank q-quantile of `n` samples.
int64_t SamplesBeyond(int64_t n, double q);

/// Smallest sample count that leaves at least `beyond` samples above the
/// q-quantile -- a percentile is reported only once this many samples
/// exist (10 beyond p90 needs 100 samples).
int64_t MinSamplesFor(double q, int64_t beyond = 10);

// ---- op accounting -----------------------------------------------------------

/// One client request as the closed loop saw it.
struct OpRecord {
  double start_s = 0;     // offset from the window start
  double latency_ms = 0;  // client-observed, end minus start
  bool failed = false;    // the call returned an error status
};

/// Counts over a window: `wrong` are ops whose output failed its check
/// (found after the window), `failed` those whose call errored.
struct OpTally {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t wrong = 0;

  int64_t correct() const { return attempted - failed - wrong; }
  /// (failed + wrong) / attempted; 0 when nothing was attempted.
  double error_rate() const;
};

/// Tallies `ops` (`wrong` comes from the output check).
OpTally Tally(const std::vector<OpRecord>& ops, int64_t wrong);

/// Op latencies in completion order; a failed op counts as infinitely
/// slow, so failures push the percentiles up instead of vanishing.
std::vector<double> Latencies(const std::vector<OpRecord>& ops);

/// |median(second half) / median(first half) - 1| of the latencies in op
/// order; 0 with fewer than two samples. Reported, not gated: it follows
/// the host's load as much as the program.
double HalfDrift(const std::vector<double>& latencies);

/// Drift guard: |second / first - 1| of a per-op cost (CPU seconds per
/// op) over the two halves of a window, `first_cost` over `first_ops` and
/// `second_cost` over `second_ops`; 0 when either half has no ops.
double HalfCostDrift(double first_cost, int64_t first_ops, double second_cost,
                     int64_t second_ops);

/// num / den, or 0 when the base is zero (the layer did no work).
double Ratio(double num, double den);

// ---- spans -------------------------------------------------------------------

/// A finished span: the engine's trace::SpanRecord fields this file needs.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint32_t tid = 0;
  uint64_t start_us = 0;
  uint64_t dur_us = 0;
  std::string name;
  std::string category;

  uint64_t end_us() const { return start_us + dur_us; }
};

/// Gives each root span (parent 0) the innermost span of the same thread
/// whose interval contains it as parent. The engine opens its stage and
/// compile spans as roots on the calling thread; this hangs them under
/// the benchmark's op span around the call.
void AttachRoots(std::vector<Span>* spans);

/// Microseconds of [lo, hi) covered by the union of `intervals`
/// (half-open [start, end) pairs, clipped to the window, may overlap).
uint64_t CoveredUs(std::vector<std::pair<uint64_t, uint64_t>> intervals,
                   uint64_t lo, uint64_t hi);

/// Self time of every span, index-aligned with `spans`: its duration
/// minus the part of its interval that its children cover.
std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
