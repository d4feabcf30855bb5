// perfbench: runs one workload of the repository benchmark and prints its
// metrics. Normally started through perfbench/run.py, which builds it.
//
//   perfbench --workload service --seed 1 --seconds 45 --trace 0
//             [--workdir .bench_build/work]
//
// --trace 0 sets up the workload, measures one untraced window, checks
// the outputs, then sets up a few more times (setup_s is the median) and
// prints the end-to-end metrics.
// --trace 1 sets up once and measures an untraced and a traced window of
// half the length each; the per-layer metrics come from the traced one.
// The last line of stdout is the result object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// and the line before it stamps the machine and engine shape.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <stdexcept>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "measure.h"
#include "src/api/sac.h"
#include "src/common/rng.h"
#include "src/dist/coordinator.h"
#include "src/la/backend.h"
#include "src/storage/spill.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Settings that would change the program under test behind the
// benchmark's back; a run refuses to start while any is set.
constexpr const char* kPinnedEnv[] = {
    "SAC_KERNEL_BACKEND",     "SAC_MEM_BUDGET",        "SAC_SESSION_MEM_BUDGET",
    "SAC_MAX_CONCURRENT",     "SAC_WORKERS",           "SAC_TRANSPORT",
    "SAC_FAULT_PLAN",         "SAC_SHUFFLE_FAST_PATH", "SAC_AUTO_STRATEGY",
    "SAC_TRACE",              "SAC_SAMPLE_INTERVAL_US", "SAC_TILE"};

constexpr double kMiB = 1024.0 * 1024.0;

// Drift guard: an untraced run fails when the process CPU time per op of
// its window's second half differs from the first half's by more than
// this share. Program state that grows with the ops run (lineage, caches,
// leaks) raises the CPU cost of an op. The guard is not on latency, which
// follows the host's load: one 30 s service run on a loaded host saw its
// median latency change by more than 35% between the halves while its
// outputs were right. CPU time per op moves with the host too, less: over
// about 75 runs of 30-45 s on a shared 4-CPU VM its halves differed by up
// to 0.19, so the guard sits at 0.35 rather than at the 0.25 bound of
// cpu_ms_per_op.
constexpr double kDriftBound = 0.35;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string k = argv[i], v = argv[i + 1];
      if (k == "--workload") a->workload = v;
      else if (k == "--seed") a->seed = std::stoull(v);
      else if (k == "--seconds") a->seconds = std::stod(v);
      else if (k == "--trace") a->trace = v == "1";
      else if (k == "--workdir") a->workdir = v;
      else return false;
    }
  } catch (const std::logic_error&) {  // stoull / stod on a non-number
    return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Seconds of CPU time the hypervisor gave to other guests, summed over
/// all CPUs (the "steal" column of /proc/stat); 0 where unavailable.
double StealSeconds() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  uint64_t v[8] = {};
  f >> cpu;
  for (uint64_t& x : v) f >> x;
  return f ? static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK))
           : 0;
}

std::vector<int> AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

int64_t L3Bytes() {
  const long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (v > 0) return v;
  std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index3/size");
  int64_t kib = 0;
  return f >> kib ? kib * 1024 : 0;
}

/// What one measured window saw.
struct Window {
  std::vector<OpRecord> ops;  // in completion order
  double seconds = 0;
  double cpu_seconds = 0;
  double steal_seconds = 0;
  sac::MetricsSnapshot counters;
  std::vector<sac::StageStatsSnapshot> stages;
  std::vector<Span> spans;
  double predicted_shuffle_bytes = 0;
  double mid_s = 0;            // when the first half ended
  double mid_cpu_seconds = 0;  // process CPU time of the first half
  double rss_mb = 0;           // peak RSS when op number rss_ops completed
};

/// Runs the closed loop of every client for `seconds`, then on until at
/// least `min_ops` ops completed (capped at 3x the window), with the
/// engine tracer on or off. Reads the peak RSS when op number `rss_ops`
/// completes (not at all for 0). Counters, stage stats and trace buffers
/// are reset first, so everything in the result belongs to this window.
Window RunWindow(Workload* w, double seconds, int64_t min_ops, bool traced,
                 int64_t rss_ops) {
  sac::Sac& ctx = w->ctx();
  ctx.ResetStats();
  ctx.tracer().set_enabled(traced);
  Window win;
  const double predicted_before = w->PredictedShuffleBytes();
  std::mutex mu;
  std::atomic<int64_t> done{0};
  std::atomic<bool> mid_taken{false};
  const double cpu0 = CpuSeconds();
  const double steal0 = StealSeconds();
  const Clock::time_point t0 = Clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  auto client = [&](int c) {
    std::vector<OpRecord> mine;
    while (elapsed() < seconds ||
           (done.load() < min_ops && elapsed() < 3 * seconds)) {
      OpRecord op;
      const Clock::time_point s = Clock::now();
      op.start_s = std::chrono::duration<double>(s - t0).count();
      {
        sac::trace::ScopedSpan span(&ctx.tracer(), "op", "bench");
        op.failed = !w->RunOp(c).ok();
      }
      const Clock::time_point e = Clock::now();
      op.latency_ms = std::chrono::duration<double, std::milli>(e - s).count();
      mine.push_back(op);
      // One thread each takes the RSS reading and the midpoint split; the
      // fields are read after the join.
      if (done.fetch_add(1) + 1 == rss_ops) win.rss_mb = PeakRssMb();
      if (!mid_taken.load() && elapsed() >= seconds / 2 &&
          !mid_taken.exchange(true)) {
        win.mid_cpu_seconds = CpuSeconds() - cpu0;
        win.mid_s = elapsed();
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    win.ops.insert(win.ops.end(), mine.begin(), mine.end());
  };
  std::vector<std::thread> threads;
  for (int c = 1; c < w->clients(); ++c) threads.emplace_back(client, c);
  client(0);
  for (auto& t : threads) t.join();
  win.seconds = elapsed();
  win.cpu_seconds = CpuSeconds() - cpu0;
  win.steal_seconds = StealSeconds() - steal0;
  std::sort(win.ops.begin(), win.ops.end(),
            [](const OpRecord& a, const OpRecord& b) {
              return a.start_s + a.latency_ms / 1e3 <
                     b.start_s + b.latency_ms / 1e3;
            });
  win.counters = ctx.metrics().Snapshot();
  win.stages = ctx.stages().Snapshot();
  win.predicted_shuffle_bytes = w->PredictedShuffleBytes() - predicted_before;
  if (traced) {
    for (const sac::trace::SpanRecord& r : ctx.tracer().Snapshot()) {
      if (r.instant || r.counter) continue;
      win.spans.push_back(
          Span{r.id, r.parent, r.tid, r.start_us, r.dur_us, r.name, r.category});
    }
  }
  ctx.tracer().set_enabled(false);
  return win;
}

/// Ordered metric name -> (value, unit).
using MetricList = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

// ---- per-layer metrics -------------------------------------------------------

/// Single-thread GFLOP/s of the engine's kernel backend on one 128^3
/// GemmAccum tile triple: the ceiling for la.task_gflops.
double GemmTileGflops(const sac::la::KernelBackend& backend, uint64_t seed) {
  constexpr int64_t kT = 128;
  constexpr int kReps = 20;
  sac::Rng rng(seed);
  sac::la::Tile a(kT, kT), b(kT, kT), c(kT, kT);
  a.FillRandom(&rng, 0, 1);
  b.FillRandom(&rng, 0, 1);
  backend.GemmAccum(a, b, &c);
  std::vector<double> gflops;
  for (int round = 0; round < 9; ++round) {
    const Clock::time_point t0 = Clock::now();
    for (int r = 0; r < kReps; ++r) backend.GemmAccum(a, b, &c);
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    gflops.push_back(2.0 * kT * kT * kT * kReps / s / 1e9);
  }
  return Median(gflops);
}

/// Timed storage::WriteSpill / ReadSpill of the workload's tiles, MB/s.
sac::Status SpillRates(Workload* w, const std::string& dir, double* write_mb_s,
                       double* read_mb_s) {
  SAC_ASSIGN_OR_RETURN(sac::runtime::ValueVec rows, w->SampleTiles());
  const std::string path = dir + "/perfbench-probe.spill";
  std::vector<double> wr, rd;
  for (int r = 0; r < 9; ++r) {
    Clock::time_point t0 = Clock::now();
    SAC_ASSIGN_OR_RETURN(uint64_t bytes, sac::storage::WriteSpill(path, rows));
    const double ws = std::chrono::duration<double>(Clock::now() - t0).count();
    t0 = Clock::now();
    SAC_ASSIGN_OR_RETURN(sac::runtime::ValueVec back,
                         sac::storage::ReadSpill(path));
    const double rs = std::chrono::duration<double>(Clock::now() - t0).count();
    if (back.size() != rows.size()) {
      return sac::Status::RuntimeError("spill probe read back a wrong row count");
    }
    wr.push_back(static_cast<double>(bytes) / kMiB / ws);
    rd.push_back(static_cast<double>(bytes) / kMiB / rs);
  }
  sac::storage::RemoveSpill(path);
  *write_mb_s = Median(wr);
  *read_mb_s = Median(rd);
  return sac::Status::OK();
}

/// Median microseconds of one put + get of a tile-sized bucket through
/// the coordinator to an in-process worker; 0 without workers.
sac::Result<double> RoundtripMicros(sac::Sac& ctx, size_t bucket_bytes) {
  sac::dist::Coordinator* coord = ctx.engine().coordinator();
  if (coord == nullptr) return 0.0;
  const std::vector<uint8_t> bytes(bucket_bytes, 0x5a);
  const uint64_t sid = coord->NextShuffleId();
  const int executors = ctx.engine().config().num_executors;
  std::vector<double> us;
  for (int r = 0; r < 200; ++r) {
    const sac::dist::BucketId id{sid, 0, r, r % executors};
    const Clock::time_point t0 = Clock::now();
    SAC_RETURN_NOT_OK(coord->PushBucket(nullptr, id, id.dest, bytes));
    SAC_ASSIGN_OR_RETURN(std::vector<uint8_t> back,
                         coord->FetchBucket(nullptr, id, id.dest));
    us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    if (back != bytes) {
      coord->DropShuffle(sid);
      return sac::Status::RuntimeError("roundtrip probe read back other bytes");
    }
  }
  coord->DropShuffle(sid);
  return Median(us);
}

sac::Status LayerMetrics(Workload* w, const Args& args, const Window& plain,
                         const Window& traced, int64_t ops, MetricList* m) {
  sac::Sac& ctx = w->ctx();
  const sac::MetricsSnapshot& k = traced.counters;
  const double n = static_cast<double>(ops);
  auto per_op = [&](double v) { return Ratio(v, n); };
  auto add = [&](const std::string& name, double v, const std::string& unit) {
    m->push_back({name, {v, unit}});
  };

  // Spans: the engine's, with its root stage/compile spans hung under
  // the benchmark's op span on the same thread.
  std::vector<Span> spans = traced.spans;
  AttachRoots(&spans);
  const std::vector<uint64_t> self = SelfTimes(spans);
  double compile_self = 0, stage_self = 0, task_us = 0, collect_us = 0;
  double checkpoint_us = 0, op_self = 0, op_us = 0;
  auto ends_with = [](const std::string& s, const std::string& tail) {
    return s.size() >= tail.size() &&
           s.compare(s.size() - tail.size(), tail.size(), tail) == 0;
  };
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.category == "compile") compile_self += self[i];
    if (s.category == "stage") stage_self += self[i];
    if (s.category == "task") task_us += s.dur_us;
    if (s.name.rfind("collect:", 0) == 0) collect_us += s.dur_us;
    if (ends_with(s.name, ":checkpoint")) checkpoint_us += s.dur_us;
    if (s.category == "bench" && s.name == "op") {
      op_self += self[i];
      op_us += s.dur_us;
    }
  }

  // Partition skew: per-stage max/mean task time, weighted by stage time.
  double skew_weighted = 0, skew_weight = 0;
  for (const sac::StageStatsSnapshot& st : traced.stages) {
    if (st.task_us.count == 0) continue;
    skew_weighted += st.wall_ms * Ratio(static_cast<double>(st.task_us.max),
                                        st.task_us.Mean());
    skew_weight += st.wall_ms;
  }

  const double flops = static_cast<double>(k.flops_generic + k.flops_packed +
                                           k.flops_jvmlike);
  const double threads =
      static_cast<double>(ctx.engine().pool().num_threads());

  SAC_ASSIGN_OR_RETURN(double parse_us, w->ParseMicros());
  add("comp.parse_us", parse_us, "us");
  add("planner.compile_ms_per_op", per_op(compile_self / 1e3), "ms");
  add("planner.cache_hit_ratio",
      Ratio(k.plan_cache_hits, k.plan_cache_hits + k.plan_cache_misses),
      "ratio");
  add("planner.cache_evictions_per_op", per_op(k.plan_cache_evictions), "count");
  add("analysis.shuffle_pred_ratio",
      Ratio(traced.predicted_shuffle_bytes,
            static_cast<double>(k.shuffle_bytes + k.local_shuffle_bytes)),
      "ratio");
  add("runtime.stage_self_ms_per_op", per_op(stage_self / 1e3), "ms");
  add("runtime.task_ms_per_op", per_op(task_us / 1e3), "ms");
  add("runtime.tasks_per_op", per_op(k.tasks_run), "count");
  add("runtime.task_skew", Ratio(skew_weighted, skew_weight), "ratio");
  add("runtime.pool_busy_ratio",
      Ratio(task_us / 1e6, traced.seconds * threads), "ratio");
  add("runtime.shuffle_mb_per_op", per_op(k.shuffle_bytes / kMiB), "MB");
  add("runtime.cross_executor_mb_per_op",
      per_op(k.cross_executor_bytes / kMiB), "MB");
  add("runtime.local_shuffle_mb_per_op", per_op(k.local_shuffle_bytes / kMiB),
      "MB");
  add("runtime.shuffle_records_per_op", per_op(k.shuffle_records), "count");
  add("runtime.collect_ms_per_op", per_op(collect_us / 1e3), "ms");
  add("runtime.retries_per_op", per_op(k.tasks_retried + k.tasks_recomputed),
      "count");
  add("session.queued_ratio", Ratio(k.queries_queued, k.queries_admitted),
      "ratio");
  add("session.unspanned_ms_per_op", per_op(op_self / 1e3), "ms");
  add("memory.peak_resident_mb", k.peak_resident_bytes / kMiB, "MB");
  add("memory.evictions_per_op", per_op(k.evictions), "count");
  add("memory.evicted_mb_per_op", per_op(k.bytes_evicted / kMiB), "MB");
  add("memory.reloaded_mb_per_op", per_op(k.bytes_reloaded / kMiB), "MB");
  add("memory.reload_recomputes_per_op", per_op(k.reload_recomputes), "count");
  add("storage.checkpoint_ms_per_op", per_op(checkpoint_us / 1e3), "ms");
  add("storage.checkpoint_mb_per_op", per_op(k.checkpoint_bytes / kMiB), "MB");
  double spill_w = 0, spill_r = 0;
  SAC_RETURN_NOT_OK(SpillRates(w, args.workdir, &spill_w, &spill_r));
  add("storage.spill_write_mb_s", spill_w, "MB/s");
  add("storage.spill_read_mb_s", spill_r, "MB/s");
  add("la.gflop_per_op", per_op(flops / 1e9), "GFLOP");
  add("la.task_gflops", Ratio(flops / 1e9, task_us / 1e6), "GFLOP/s");
  add("la.gemm_tile_gflops",
      GemmTileGflops(*ctx.engine().kernel_backend(), args.seed), "GFLOP/s");
  add("la.tile_allocs_per_op", per_op(k.tile_allocs), "count");
  add("dist.sent_mb_per_op", per_op(k.dist_bytes_sent / kMiB), "MB");
  add("dist.received_mb_per_op", per_op(k.dist_bytes_received / kMiB), "MB");
  add("dist.reexecuted_per_op", per_op(k.partitions_reexecuted), "count");
  add("dist.workers_lost", static_cast<double>(k.workers_lost), "count");
  SAC_ASSIGN_OR_RETURN(double rt_us, RoundtripMicros(ctx, 64 * 64 * 8));
  add("net.roundtrip_us", rt_us, "us");
  const double plain_rate = Ratio(plain.ops.size(), plain.seconds);
  const double traced_rate = Ratio(traced.ops.size(), traced.seconds);
  add("trace.overhead_pct", 100.0 * (Ratio(plain_rate, traced_rate) - 1.0),
      "%");
  add("trace.dropped_events",
      static_cast<double>(ctx.tracer().dropped_events()), "count");
  add("trace.span_coverage", op_us > 0 ? 1.0 - op_self / op_us : 0, "ratio");
  return sac::Status::OK();
}

/// Builds a workload and times its set-up.
sac::Result<std::unique_ptr<Workload>> TimedSetup(const Args& args,
                                                  double* seconds) {
  std::unique_ptr<Workload> w =
      MakeWorkload(args.workload, args.seed, args.workdir);
  const Clock::time_point t0 = Clock::now();
  SAC_RETURN_NOT_OK(w->Setup());
  *seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return w;
}

/// The drift guard's figure: CPU time per op of the window's second half
/// against its first half.
double CpuDrift(const Window& win) {
  int64_t first = 0;
  for (const OpRecord& op : win.ops) {
    if (op.start_s + op.latency_ms / 1e3 <= win.mid_s) ++first;
  }
  const int64_t second = static_cast<int64_t>(win.ops.size()) - first;
  return HalfCostDrift(win.mid_cpu_seconds, first,
                       win.cpu_seconds - win.mid_cpu_seconds, second);
}

std::string Stamp(const Args& args, Workload& w, const Window& win,
                  const OpTally& tally, double drift, double latency_drift) {
  sac::Sac& ctx = w.ctx();
  const sac::runtime::ClusterConfig& cfg = ctx.engine().config();
  std::ostringstream s;
  s << "{\"stamp\": {\"workload\": \"" << args.workload
    << "\", \"seed\": " << args.seed << ", \"trace\": " << args.trace
    << ", \"samples\": " << win.ops.size()
    << ", \"window_s\": " << Num(win.seconds)
    << ", \"steal_s\": " << Num(win.steal_seconds)
    << ", \"error_rate\": " << Num(tally.error_rate())
    << ", \"drift\": " << Num(drift)
    << ", \"latency_drift\": " << Num(latency_drift)
    << ", \"affinity_cpus\": [";
  const std::vector<int> cpus = AffinityCpus();
  for (size_t i = 0; i < cpus.size(); ++i) s << (i ? ", " : "") << cpus[i];
  s << "], \"l3_bytes\": " << L3Bytes() << ", \"engine\": {"
    << "\"executors\": " << cfg.num_executors
    << ", \"cores_per_executor\": " << cfg.cores_per_executor
    << ", \"pool_threads\": " << ctx.engine().pool().num_threads()
    << ", \"default_parallelism\": " << cfg.default_parallelism
    << ", \"kernel_backend\": \"" << cfg.kernel_backend << "\""
    << ", \"auto_strategy\": " << ctx.options().auto_strategy
    << ", \"fusion\": " << ctx.options().fuse_elementwise
    << ", \"shuffle_fast_path\": " << ctx.engine().shuffle_fast_path()
    << ", \"max_concurrent_queries\": " << cfg.max_concurrent_queries
    << ", \"memory_budget_bytes\": " << cfg.memory_budget_bytes
    << ", \"workers\": \"" << cfg.workers << "\", \"transport\": \""
    << cfg.transport << "\", \"clients\": " << w.clients() << "}}}";
  return s.str();
}

int Run(const Args& args) {
  for (const char* var : kPinnedEnv) {
    if (std::getenv(var) != nullptr) {
      std::cerr << "perfbench: refusing to run with " << var
                << " set; it changes the program under test\n";
      return 2;
    }
  }
  if (MakeWorkload(args.workload, args.seed, args.workdir) == nullptr) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  if (sac::Status st = sac::storage::EnsureSpillDir(args.workdir); !st.ok()) {
    std::cerr << "perfbench: " << st.ToString() << "\n";
    return 1;
  }
  auto fail = [](const std::string& what, const sac::Status& st) {
    std::cerr << "perfbench: " << what << ": " << st.ToString() << "\n";
    return 1;
  };

  // Set-up: engine, inputs, bindings, workers, one warm-up op.
  std::vector<double> setup_s(1);
  sac::Result<std::unique_ptr<Workload>> made = TimedSetup(args, &setup_s[0]);
  if (!made.ok()) return fail("setup", made.status());
  std::unique_ptr<Workload> w = std::move(made).value();
  w->ResetSample();

  const int64_t min_ops = MinSamplesFor(0.9);
  MetricList metrics;
  std::vector<OpRecord> all_ops;
  Window main_window;
  if (!args.trace) {
    main_window = RunWindow(w.get(), args.seconds,
                            std::max(min_ops, w->rss_ops()), false,
                            w->rss_ops());
    all_ops = main_window.ops;
  } else {
    const Window plain = RunWindow(w.get(), args.seconds / 2, 0, false, 0);
    main_window = RunWindow(w.get(), args.seconds / 2, 0, true, 0);
    all_ops = plain.ops;
    all_ops.insert(all_ops.end(), main_window.ops.begin(),
                   main_window.ops.end());
    const int64_t ok_ops = Tally(main_window.ops, 0).correct();
    if (sac::Status st =
            LayerMetrics(w.get(), args, plain, main_window, ok_ops, &metrics);
        !st.ok()) {
      return fail("layer probes", st);
    }
  }

  const Clock::time_point c0 = Clock::now();
  sac::Result<int64_t> wrong = w->CheckOutputs();
  if (!wrong.ok()) return fail("output check", wrong.status());
  const double check_s =
      std::chrono::duration<double>(Clock::now() - c0).count();

  const OpTally tally = Tally(all_ops, wrong.value());
  const std::vector<double> lat = Latencies(main_window.ops);
  const double drift = CpuDrift(main_window);
  const double latency_drift = HalfDrift(lat);
  const bool enough = static_cast<int64_t>(lat.size()) >= min_ops;
  bool correct = tally.failed == 0 && tally.wrong == 0;
  const std::string stamp =
      Stamp(args, *w, main_window, tally, drift, latency_drift);

  if (!args.trace) {
    // More set-ups, after the window so they do not disturb it: at least
    // kMinSetups in all and on until set-up has taken kSetupBudgetS (at
    // most kMaxSetups); setup_s is the median.
    constexpr size_t kMinSetups = 3, kMaxSetups = 40;
    constexpr double kSetupBudgetS = 1.5;
    w.reset();
    double total = setup_s[0];
    while (setup_s.size() < kMaxSetups &&
           (setup_s.size() < kMinSetups || total < kSetupBudgetS)) {
      double s = 0;
      if (sac::Result<std::unique_ptr<Workload>> again = TimedSetup(args, &s);
          !again.ok()) {
        return fail("setup", again.status());
      }
      setup_s.push_back(s);
      total += s;
    }

    correct = correct && enough && drift <= kDriftBound;
    const double ok_ops = static_cast<double>(
        Tally(main_window.ops, 0).correct() - tally.wrong);
    metrics = {
        {"ops_per_s", {Ratio(ok_ops, main_window.seconds), "1/s"}},
        {"latency_p50_ms", {Median(lat), "ms"}},
        {"latency_p90_ms", {Quantile(lat, 0.9), "ms"}},
        {"cpu_ms_per_op", {Ratio(main_window.cpu_seconds * 1e3, ok_ops), "ms"}},
        {"peak_rss_mb", {main_window.rss_mb, "MB"}},
        {"setup_s", {Median(setup_s), "s"}},
        {"correct_ratio",
         {Ratio(static_cast<double>(tally.correct()),
                static_cast<double>(tally.attempted)),
          "ratio"}},
    };
  }

  // Human-readable summary on stderr; the stamp and result on stdout.
  std::cerr << "perfbench " << args.workload << " seed=" << args.seed
            << " trace=" << args.trace << " samples=" << lat.size()
            << " window_s=" << main_window.seconds
            << " error_rate=" << tally.error_rate() << " drift=" << drift
            << " latency_drift=" << latency_drift
            << " peak_rss_end_mb=" << PeakRssMb()
            << " check_s=" << check_s << " setups=" << setup_s.size() << "\n";
  for (const auto& [name, vu] : metrics) {
    std::cerr << "  " << name << " = " << Num(vu.first) << " " << vu.second
              << "\n";
  }
  if (!args.trace && !enough) {
    std::cerr << "perfbench: only " << lat.size() << " samples; p90 needs "
              << min_ops << "\n";
  }
  if (!args.trace && drift > kDriftBound) {
    std::cerr << "perfbench: CPU time per op drifted " << drift
              << " between the window's halves (bound " << kDriftBound
              << ")\n";
  }

  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << tally.attempted
      << ", \"failed\": " << tally.failed + tally.wrong << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].first
        << "\": {\"value\": " << Num(metrics[i].second.first)
        << ", \"unit\": \"" << metrics[i].second.second << "\"}";
  }
  out << "}}";
  std::cout << stamp << "\n" << out.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--workdir DIR]\n";
    return 2;
  }
  return perfbench::Run(args);
}
