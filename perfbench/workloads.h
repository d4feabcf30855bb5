// The closed-loop workloads. Each drives the public API (Sac,
// Session, algo::*) on inputs generated from its seed, keeps a seeded
// sample of its outputs, and checks them after the timed window.
// README.md records why each workload exists and how it was sized.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/api/sac.h"

namespace perfbench {

/// The engine shape every workload runs on: 4 executors x 1 core (a
/// 4-thread pool), default_parallelism 8, everything else at its
/// default, with spill and checkpoint files kept under `workdir`.
sac::runtime::ClusterConfig EngineShape(const std::string& workdir);

class Workload {
 public:
  virtual ~Workload() = default;

  /// Closed-loop client threads; each calls RunOp only after its
  /// previous op returned.
  virtual int clients() const { return 1; }

  /// peak_rss_mb is read when this many ops of the window have completed:
  /// a count every host reaches within the window, so the figure does not
  /// follow throughput where memory grows with the ops run.
  virtual int64_t rss_ops() const { return 100; }

  /// Engine construction, input generation, binding, worker start and
  /// one warm-up op per client. Leaves the tracer off.
  virtual sac::Status Setup() = 0;

  /// One client request of client `c`. Distinct clients may call this
  /// concurrently; one client never does.
  virtual sac::Status RunOp(int c) = 0;

  /// Checks the outputs sampled since the last ResetSample(); returns how
  /// many sampled ops produced a wrong output. Runs outside the window.
  virtual sac::Result<int64_t> CheckOutputs() = 0;

  /// Forgets the outputs sampled so far (the warm-up op's, an earlier
  /// window's).
  virtual void ResetSample() = 0;

  /// Mean microseconds of one Sac::ParseAndNormalize over the query
  /// texts this workload sends.
  virtual sac::Result<double> ParseMicros() = 0;

  /// Compile-time predicted shuffle bytes accumulated so far.
  virtual double PredictedShuffleBytes() = 0;

  /// A few of the workload's tiles as (key, tile) rows (spill probe).
  virtual sac::Result<sac::runtime::ValueVec> SampleTiles() = 0;

  virtual sac::Sac& ctx() = 0;
};

/// "service" or "factorize"; nullptr otherwise.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       const std::string& workdir);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
