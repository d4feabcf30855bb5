// Checks the benchmark's own arithmetic (measure.h) on synthetic inputs.
// run.py builds and runs this before every benchmark run; a failure
// prints the broken rule and exits 1.
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "measure.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "perfbench_selftest: FAILED %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::abs(a - b) < 1e-12; }

void PercentileSampleCountRule() {
  using perfbench::MinSamplesFor;
  using perfbench::SamplesBeyond;
  Check(MinSamplesFor(0.9) == 100, "p90 needs 100 samples for 10 beyond it");
  Check(SamplesBeyond(100, 0.9) == 10, "100 samples leave 10 beyond p90");
  Check(SamplesBeyond(99, 0.9) == 9, "99 samples leave 9 beyond p90");
  Check(MinSamplesFor(0.5) == 20, "p50 needs 20 samples for 10 beyond it");
  Check(MinSamplesFor(0.99) == 1000, "p99 needs 1000 samples");
  Check(SamplesBeyond(0, 0.9) == 0, "no samples, none beyond");

  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  Check(Near(perfbench::Quantile(v, 0.9), 90), "nearest-rank p90 of 1..100");
  Check(Near(perfbench::Quantile(v, 1.0), 100), "p100 is the maximum");
  Check(Near(perfbench::Median(v), 50.5), "even-count median averages");
  Check(Near(perfbench::Median({3, 1, 2}), 2), "odd-count median");
  Check(perfbench::Quantile({}, 0.9) == 0, "empty quantile is 0");
}

void SelfTimeWithOverlappingChildren() {
  using perfbench::Span;
  // op [0,100) on thread 1 holds a stage [10,60) opened as a root (the
  // engine's stage spans have no parent); the stage's two tasks on other
  // threads overlap each other: [20,50) and [30,70) -- the second runs
  // past its stage's end.
  std::vector<Span> spans = {
      {1, 0, 1, 0, 100, "op", "bench"},
      {2, 0, 1, 10, 50, "join", "stage"},
      {3, 2, 2, 20, 30, "join:task[0]", "task"},
      {4, 2, 3, 30, 40, "join:task[1]", "task"},
      {5, 0, 1, 70, 20, "compile", "compile"},
  };
  perfbench::AttachRoots(&spans);
  Check(spans[1].parent == 1, "root stage span attaches to its op span");
  Check(spans[4].parent == 1, "root compile span attaches to its op span");
  Check(spans[0].parent == 0, "the op span stays a root");
  Check(spans[2].parent == 2, "task keeps its explicit parent");

  const std::vector<uint64_t> self = perfbench::SelfTimes(spans);
  // Stage [10,60): tasks cover [20,60) once clipped and merged -> 40.
  Check(self[1] == 10, "stage self time = 50 - union of clipped tasks");
  // Op [0,100): stage [10,60) and compile [70,90) cover 70.
  Check(self[0] == 30, "op self time = 100 - 70 covered by children");
  Check(self[2] == 30 && self[3] == 40, "leaf self time is its duration");

  Check(perfbench::CoveredUs({{0, 10}, {5, 15}, {20, 30}}, 0, 100) == 25,
        "overlapping intervals are counted once");
  Check(perfbench::CoveredUs({{0, 10}, {10, 20}}, 5, 15) == 10,
        "touching intervals merge and clip");
  Check(perfbench::CoveredUs({}, 0, 10) == 0, "no children cover nothing");
  Check(perfbench::CoveredUs({{0, 20}, {5, 10}}, 0, 100) == 20,
        "an interval inside another adds nothing");

  // Nested roots on one thread: the innermost enclosing span wins.
  std::vector<Span> nested = {
      {10, 0, 7, 0, 100, "op", "bench"},
      {11, 0, 7, 5, 50, "bench:checkpoint", "bench"},
      {12, 0, 7, 10, 20, "p:checkpoint", "stage"},
      {13, 0, 8, 10, 20, "elsewhere", "stage"},
      {14, 11, 7, 12, 5, "inline-task", "task"},
  };
  perfbench::AttachRoots(&nested);
  Check(nested[1].parent == 10 && nested[2].parent == 11,
        "roots attach to the innermost enclosing span");
  Check(nested[3].parent == 0, "spans on another thread are not adopted");
  Check(nested[4].parent == 11, "a span with a parent keeps it");
}

void ZeroBaseRatios() {
  Check(perfbench::Ratio(5, 0) == 0, "ratio over a zero base is 0");
  Check(perfbench::Ratio(0, 0) == 0, "0/0 is 0");
  Check(Near(perfbench::Ratio(3, 4), 0.75), "ordinary ratio");
  perfbench::OpTally none;
  Check(none.error_rate() == 0, "error rate of nothing attempted is 0");
}

void OpCountingWithFailures() {
  std::vector<perfbench::OpRecord> ops = {
      {0.0, 10, false}, {0.1, 12, true}, {0.2, 11, false}, {0.3, 9, false}};
  const perfbench::OpTally t = perfbench::Tally(ops, 1);
  Check(t.attempted == 4 && t.failed == 1 && t.wrong == 1,
        "failed and wrong ops are counted apart");
  Check(t.correct() == 2, "correct = attempted - failed - wrong");
  Check(Near(t.error_rate(), 0.5), "error rate counts failed and wrong");
  Check(perfbench::Tally(ops, 9).wrong == 3,
        "wrong ops are capped by the ops that produced output");
  const std::vector<double> lat = perfbench::Latencies(ops);
  Check(std::isinf(lat[1]), "a failed op counts as infinitely slow");
  Check(std::isinf(perfbench::Quantile(lat, 1.0)),
        "a failure reaches the top percentile");
}

void DriftGuard() {
  std::vector<double> steady(100, 10.0);
  Check(perfbench::HalfDrift(steady) == 0, "a steady series has no drift");
  std::vector<double> rising;
  for (int i = 0; i < 50; ++i) rising.push_back(10);
  for (int i = 0; i < 50; ++i) rising.push_back(15);
  Check(Near(perfbench::HalfDrift(rising), 0.5), "second half 50% slower");
  Check(perfbench::HalfDrift({7}) == 0, "one sample cannot drift");
  Check(perfbench::HalfCostDrift(2.0, 100, 1.0, 50) == 0,
        "same CPU per op in both halves");
  Check(Near(perfbench::HalfCostDrift(2.0, 100, 1.5, 50), 0.5),
        "second half costs 50% more per op");
  Check(perfbench::HalfCostDrift(2.0, 100, 1.0, 0) == 0 &&
            perfbench::HalfCostDrift(0, 0, 1.0, 50) == 0,
        "a half without ops cannot drift");
}

}  // namespace

int main() {
  PercentileSampleCountRule();
  SelfTimeWithOverlappingChildren();
  ZeroBaseRatios();
  OpCountingWithFailures();
  DriftGuard();
  if (failures == 0) std::fprintf(stderr, "perfbench_selftest: ok\n");
  return failures == 0 ? 0 : 1;
}
