#include "workloads.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <utility>

#include "measure.h"
#include "src/api/algorithms.h"
#include "src/common/rng.h"
#include "src/common/trace.h"

namespace perfbench {

using sac::Result;
using sac::Rng;
using sac::Sac;
using sac::Status;
using sac::la::Tile;
using sac::storage::BlockVector;
using sac::storage::TiledMatrix;

namespace {

// The comprehensions algo::Multiply and algo::FactorizationStep send
// (src/api/algorithms.cc), over the same reserved binding names, so
// comp.parse_us times the texts the engine really parses.
constexpr const char* kAlgoSub =
    "tiled(__n,__m)[ ((i,j),x-y) | ((i,j),x) <- __a, ((ii,jj),y) <- __b,"
    " ii == i, jj == j ]";
constexpr const char* kAlgoMultiply =
    "tiled(__n,__m)[ ((i,j),+/v) | ((i,k),x) <- __a, ((kk,j),y) <- __b,"
    " kk == k, let v = x*y, group by (i,j) ]";
constexpr const char* kAlgoMultiplyBt =
    "tiled(__n,__m)[ ((i,j),+/v) | ((i,k),x) <- __a, ((j,kk),y) <- __b,"
    " kk == k, let v = x*y, group by (i,j) ]";
constexpr const char* kAlgoMultiplyAt =
    "tiled(__n,__m)[ ((i,j),+/v) | ((k,i),x) <- __a, ((kk,j),y) <- __b,"
    " kk == k, let v = x*y, group by (i,j) ]";
constexpr const char* kAlgoUpdateP =
    "tiled(__n,__k)[ ((i,j), __gl*p + __tg*g) | ((i,j),p) <- __p,"
    " ((ii,jj),g) <- __eq, ii == i, jj == j ]";
constexpr const char* kAlgoUpdateQ =
    "tiled(__m,__k)[ ((i,j), __gl*q + __tg*g) | ((i,j),q) <- __q,"
    " ((ii,jj),g) <- __etp, ii == i, jj == j ]";

// Queries the service workload sends by text.
constexpr const char* kMultiply =
    "tiled(n,n)[ ((i,j),+/v) | ((i,k),x) <- A, ((kk,j),y) <- B, kk == k,"
    " let v = x*y, group by (i,j) ]";
constexpr const char* kAdd =
    "tiled(n,n)[ ((i,j),x+y) | ((i,j),x) <- A, ((ii,jj),y) <- B,"
    " ii == i, jj == j ]";
constexpr const char* kTotal = "+/[ x | ((i,j),x) <- A ]";
constexpr const char* kRowSums =
    "tiled(n)[ (i, +/x) | ((i,j),x) <- A, group by i ]";

/// `c*A+B` with a literal the plan cache has never seen.
std::string ScaledAdd(double c) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9f", c);
  return std::string("tiled(n,n)[ ((i,j),") + buf +
         "*x+y) | ((i,j),x) <- A, ((ii,jj),y) <- B, ii == i, jj == j ]";
}

/// Keeps a uniform seeded sample of at most `k` of the items offered.
template <typename T>
class Reservoir {
 public:
  Reservoir(size_t k, uint64_t seed) : k_(k), rng_(seed) {}

  void Offer(T item) {
    ++seen_;
    if (items_.size() < k_) {
      items_.push_back(std::move(item));
    } else if (const uint64_t j = rng_.NextBelow(seen_); j < k_) {
      items_[j] = std::move(item);
    }
  }
  void Clear() {
    items_.clear();
    seen_ = 0;
  }
  const std::vector<T>& items() const { return items_; }

 private:
  size_t k_;
  Rng rng_;
  uint64_t seen_ = 0;
  std::vector<T> items_;
};

bool Close(double got, double want) {
  return std::abs(got - want) <= 1e-9 * std::max(1.0, std::abs(want));
}

/// Binds the given names at Sac level for the duration of a probe.
class ScopedBinds {
 public:
  explicit ScopedBinds(Sac* ctx) : ctx_(ctx) {}
  ~ScopedBinds() {
    for (const auto& n : names_) ctx_->Unbind(n);
  }
  ScopedBinds(const ScopedBinds&) = delete;
  ScopedBinds& operator=(const ScopedBinds&) = delete;

  void Bind(const std::string& n, const TiledMatrix& m) {
    ctx_->Bind(n, m);
    names_.push_back(n);
  }
  void Scalar(const std::string& n, int64_t v) {
    ctx_->BindScalar(n, v);
    names_.push_back(n);
  }
  void Scalar(const std::string& n, double v) {
    ctx_->BindScalar(n, v);
    names_.push_back(n);
  }

 private:
  Sac* ctx_;
  std::vector<std::string> names_;
};

/// Mean microseconds per ParseAndNormalize over `texts`, the median of
/// 15 rounds.
Result<double> TimeParse(Sac* ctx, const std::vector<std::string>& texts) {
  std::vector<double> rounds;
  for (int r = 0; r < 15; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& t : texts) {
      SAC_RETURN_NOT_OK(ctx->ParseAndNormalize(t).status());
    }
    const std::chrono::duration<double, std::micro> us =
        std::chrono::steady_clock::now() - t0;
    rounds.push_back(us.count() / static_cast<double>(texts.size()));
  }
  return Median(rounds);
}

double SumBytes(const std::map<std::string, double>& per_label) {
  double s = 0;
  for (const auto& [label, bytes] : per_label) s += bytes;
  return s;
}

/// The first `max_rows` (key, tile) rows of `m`.
Result<sac::runtime::ValueVec> FirstTiles(Sac* ctx, const TiledMatrix& m,
                                          size_t max_rows) {
  SAC_ASSIGN_OR_RETURN(sac::runtime::ValueVec rows,
                       ctx->engine().Collect(m.tiles));
  if (rows.size() > max_rows) rows.resize(max_rows);
  return rows;
}

// ---- service ---------------------------------------------------------------

/// Four client threads, each on its own Session, against two admission
/// slots, sending a seeded mix of cached, uncached, reducing and writing
/// requests over n=256 matrices with 64x64 tiles.
class Service final : public Workload {
 public:
  Service(uint64_t seed, std::string workdir)
      : seed_(seed), workdir_(std::move(workdir)) {}

  int clients() const override { return kClients; }

  // The engine keeps every stage's stats until ResetStats, so RSS grows
  // by about 23 KB per request; 4000 requests take 6-10 s on a 4-CPU VM.
  int64_t rss_ops() const override { return 4000; }

  Status Setup() override {
    sac::runtime::ClusterConfig cfg = EngineShape(workdir_);
    cfg.max_concurrent_queries = 2;
    ctx_ = std::make_unique<Sac>(cfg);
    ctx_->tracer().set_enabled(false);
    for (int c = 0; c < kClients; ++c) {
      auto cl = std::make_unique<Client>(seed_, c);
      cl->session = ctx_->OpenSession("client" + std::to_string(c));
      SAC_ASSIGN_OR_RETURN(cl->a, cl->session->RandomMatrix(
                                      kN, kN, kBlock, cl->rng.NextU64()));
      SAC_ASSIGN_OR_RETURN(cl->b, cl->session->RandomMatrix(
                                      kN, kN, kBlock, cl->rng.NextU64()));
      cl->session->Bind("A", cl->a);
      cl->session->Bind("B", cl->b);
      cl->session->BindScalar("n", kN);
      clients_.push_back(std::move(cl));
    }
    // The warm-up op is the repeated product for every seed, so set-up
    // time does not depend on which request a seed would draw first.
    for (auto& cl : clients_) {
      SAC_RETURN_NOT_OK(cl->session->EvalTiled(kMultiply).status());
    }
    return Status::OK();
  }

  Status RunOp(int c) override {
    Client& cl = *clients_[c];
    sac::Session& s = *cl.session;
    const double u = cl.rng.NextDouble();
    Sampled rec{Kind::kMultiply, cl.a, cl.b, 0, {}, {}, 0};
    if (u < 0.4) {  // repeated multiply / add: plan-cache hits
      rec.kind = cl.rng.NextBelow(2) == 0 ? Kind::kMultiply : Kind::kAdd;
      SAC_ASSIGN_OR_RETURN(rec.matrix,
                           s.EvalTiled(rec.kind == Kind::kMultiply ? kMultiply
                                                                   : kAdd));
    } else if (u < 0.7) {  // c*A+B with a fresh literal: misses, evictions
      rec.kind = Kind::kScaledAdd;
      rec.literal = c + 1 + static_cast<double>(++cl.literals) * 1e-6;
      SAC_ASSIGN_OR_RETURN(rec.matrix, s.EvalTiled(ScaledAdd(rec.literal)));
    } else if (u < 0.9) {  // reductions through the collect path
      if (cl.rng.NextBelow(2) == 0) {
        rec.kind = Kind::kTotal;
        SAC_ASSIGN_OR_RETURN(rec.scalar, s.EvalScalar(kTotal));
      } else {
        rec.kind = Kind::kRowSums;
        SAC_ASSIGN_OR_RETURN(rec.vector, s.EvalVector(kRowSums));
      }
    } else {  // write: rebinding A invalidates this client's cached plans
      SAC_ASSIGN_OR_RETURN(cl.a,
                           s.RandomMatrix(kN, kN, kBlock, cl.rng.NextU64()));
      s.Bind("A", cl.a);
      return Status::OK();
    }
    cl.kept[static_cast<int>(rec.kind)].Offer(std::move(rec));
    return Status::OK();
  }

  void ResetSample() override {
    for (auto& cl : clients_) {
      for (auto& r : cl->kept) r.Clear();
    }
  }

  // Each sampled request is re-evaluated by Sac::ReferenceEval on the
  // matrices it read, at one seeded cell (or row, or the total): the
  // reference evaluator joins by nested loops, so the cell's coordinates
  // are fixed right after the first generator.
  Result<int64_t> CheckOutputs() override {
    Rng pick(seed_ ^ 0x5e7);
    int64_t wrong = 0;
    for (auto& cl : clients_) {
      for (auto& r : cl->kept) {
        for (const Sampled& rec : r.items()) {
          const int64_t i = static_cast<int64_t>(pick.NextBelow(kN));
          const int64_t j = static_cast<int64_t>(pick.NextBelow(kN));
          SAC_ASSIGN_OR_RETURN(bool ok, CheckOne(rec, i, j));
          wrong += ok ? 0 : 1;
        }
      }
    }
    return wrong;
  }

  Result<double> ParseMicros() override {
    ScopedBinds b(ctx_.get());
    b.Bind("A", clients_[0]->a);
    b.Bind("B", clients_[0]->b);
    b.Scalar("n", kN);
    return TimeParse(ctx_.get(), {kMultiply, kAdd, ScaledAdd(1.5), kTotal,
                                  kRowSums});
  }

  double PredictedShuffleBytes() override {
    double s = 0;
    for (const auto& cl : clients_) {
      s += SumBytes(cl->session->predicted_shuffle_bytes());
    }
    return s;
  }

  Result<sac::runtime::ValueVec> SampleTiles() override {
    return FirstTiles(ctx_.get(), clients_[0]->b, 16);
  }

  Sac& ctx() override { return *ctx_; }

 private:
  static constexpr int kClients = 4;
  static constexpr int64_t kN = 256;
  static constexpr int64_t kBlock = 64;

  enum class Kind { kMultiply, kAdd, kScaledAdd, kTotal, kRowSums, kCount };

  struct Sampled {
    Kind kind;
    TiledMatrix a, b;  // the inputs the request read
    double literal;
    TiledMatrix matrix;
    BlockVector vector;
    double scalar;
  };

  struct Client {
    Client(uint64_t seed, int c)
        : rng(Rng(seed).Split(static_cast<uint64_t>(c) + 1)) {
      for (int k = 0; k < static_cast<int>(Kind::kCount); ++k) {
        kept.emplace_back(1, rng.NextU64());
      }
    }
    Rng rng;
    std::unique_ptr<sac::Session> session;
    TiledMatrix a, b;
    uint64_t literals = 0;
    std::vector<Reservoir<Sampled>> kept;  // one per Kind
  };

  Result<bool> CheckOne(const Sampled& rec, int64_t i, int64_t j) {
    ScopedBinds binds(ctx_.get());
    binds.Bind("A", rec.a);
    binds.Bind("B", rec.b);
    const std::string I = std::to_string(i), J = std::to_string(j);
    std::string query;
    double got = 0;
    switch (rec.kind) {
      case Kind::kMultiply: {
        // Column J of B as a local (k, y) list: joined by nested loops
        // against all of B, one cell costs n^3 steps instead of n^2.
        SAC_ASSIGN_OR_RETURN(Tile b, ctx_->ToLocal(rec.b));
        sac::runtime::ValueVec col;
        for (int64_t k = 0; k < kN; ++k) {
          col.push_back(sac::runtime::VPair(sac::runtime::Value::Int(k),
                                            sac::runtime::Value::Double(b.At(k, j))));
        }
        ctx_->BindLocal("Bcol", sac::runtime::Value::List(std::move(col)));
        query = "+/[ x*y | ((i,k),x) <- A, i == " + I +
                ", (kk,y) <- Bcol, kk == k ]";
        break;
      }
      case Kind::kAdd:
      case Kind::kScaledAdd: {
        char c[64];
        std::snprintf(c, sizeof(c), "%.9f",
                      rec.kind == Kind::kAdd ? 1.0 : rec.literal);
        query = std::string("+/[ ") + c + "*x+y | ((i,j),x) <- A, i == " + I +
                ", j == " + J + ", ((ii,jj),y) <- B, ii == i, jj == j ]";
        break;
      }
      case Kind::kTotal:
        query = kTotal;
        break;
      case Kind::kRowSums:
        query = "+/[ x | ((i,j),x) <- A, i == " + I + " ]";
        break;
      case Kind::kCount:
        break;
    }
    if (rec.kind == Kind::kTotal) {
      got = rec.scalar;
    } else if (rec.kind == Kind::kRowSums) {
      SAC_ASSIGN_OR_RETURN(std::vector<double> v, ctx_->ToLocal(rec.vector));
      if (static_cast<int64_t>(v.size()) != kN) return false;
      got = v[i];
    } else {
      SAC_ASSIGN_OR_RETURN(Tile t, ctx_->ToLocal(rec.matrix));
      if (t.rows() != kN || t.cols() != kN) return false;
      got = t.At(i, j);
    }
    Result<sac::runtime::Value> want = ctx_->ReferenceEval(query);
    if (rec.kind == Kind::kMultiply) ctx_->Unbind("Bcol");
    SAC_RETURN_NOT_OK(want.status());
    return Close(got, want.value().AsDouble());
  }

  uint64_t seed_;
  std::string workdir_;
  std::unique_ptr<Sac> ctx_;
  std::vector<std::unique_ptr<Client>> clients_;
};

// ---- factorize -------------------------------------------------------------

/// Fig. 4c gradient descent on a sparse R (n=512, 10% nonzero, k=64,
/// 64x64 tiles) under a 16 MiB memory budget, with shuffle buckets on
/// three in-process workers over tcp and P, Q checkpointed every 5
/// iterations.
class Factorize final : public Workload {
 public:
  Factorize(uint64_t seed, std::string workdir)
      : seed_(seed), workdir_(std::move(workdir)) {}

  Status Setup() override {
    sac::runtime::ClusterConfig cfg = EngineShape(workdir_);
    cfg.memory_budget_bytes = 16ull << 20;
    cfg.workers = "3";
    cfg.transport = "tcp";
    ctx_ = std::make_unique<Sac>(cfg);
    ctx_->tracer().set_enabled(false);
    SAC_RETURN_NOT_OK(Inputs(ctx_.get(), &r_, &state_));
    iterations_ = 0;
    return RunOp(0);
  }

  Status RunOp(int) override { return Step(ctx_.get(), r_, &state_, &iterations_); }

  void ResetSample() override {}

  // The final P and Q must be byte-identical to a single-process,
  // unlimited-budget run of the same number of iterations.
  Result<int64_t> CheckOutputs() override {
    Sac ref(EngineShape(workdir_));
    ref.tracer().set_enabled(false);
    TiledMatrix r;
    sac::algo::Factorization st;
    SAC_RETURN_NOT_OK(Inputs(&ref, &r, &st));
    int64_t done = 0;
    while (done < iterations_) SAC_RETURN_NOT_OK(Step(&ref, r, &st, &done));
    SAC_ASSIGN_OR_RETURN(bool p_same, SameBytes(ref, st.p, state_.p));
    SAC_ASSIGN_OR_RETURN(bool q_same, SameBytes(ref, st.q, state_.q));
    // The final state depends on every iteration, so a mismatch makes
    // every op of the window wrong.
    return p_same && q_same ? 0 : iterations_;
  }

  Result<double> ParseMicros() override {
    ScopedBinds b(ctx_.get());
    b.Bind("__a", r_);
    b.Bind("__b", state_.q);
    b.Bind("__p", state_.p);
    b.Bind("__q", state_.q);
    b.Bind("__eq", state_.p);
    b.Bind("__etp", state_.q);
    b.Scalar("__n", kN);
    b.Scalar("__m", kN);
    b.Scalar("__k", kK);
    b.Scalar("__gl", 1.0 - kGamma * kLambda);
    b.Scalar("__tg", 2.0 * kGamma);
    return TimeParse(ctx_.get(), {kAlgoMultiplyBt, kAlgoSub, kAlgoMultiply,
                                  kAlgoUpdateP, kAlgoMultiplyAt, kAlgoUpdateQ});
  }

  double PredictedShuffleBytes() override {
    return SumBytes(ctx_->predicted_shuffle_bytes());
  }

  Result<sac::runtime::ValueVec> SampleTiles() override {
    return FirstTiles(ctx_.get(), r_, 16);
  }

  Sac& ctx() override { return *ctx_; }

 private:
  static constexpr int64_t kN = 512;
  static constexpr int64_t kK = 64;
  static constexpr int64_t kBlock = 64;
  static constexpr double kGamma = 0.002;
  static constexpr double kLambda = 0.02;
  // Without checkpoints the lineage of P and Q grows by one step per
  // iteration: in probing, RSS reached 1.2-1.4 GB within 200 iterations
  // and p50 drifted from 32 to 48 ms.
  static constexpr int64_t kCheckpointEvery = 5;

  Status Inputs(Sac* ctx, TiledMatrix* r, sac::algo::Factorization* st) {
    SAC_ASSIGN_OR_RETURN(*r, ctx->RandomSparseMatrix(kN, kN, kBlock,
                                                     seed_ * 4 + 1, 0.1, 5));
    SAC_ASSIGN_OR_RETURN(st->p,
                         ctx->RandomMatrix(kN, kK, kBlock, seed_ * 4 + 2, 0, 1));
    SAC_ASSIGN_OR_RETURN(st->q,
                         ctx->RandomMatrix(kN, kK, kBlock, seed_ * 4 + 3, 0, 1));
    return Status::OK();
  }

  static Status Step(Sac* ctx, const TiledMatrix& r,
                     sac::algo::Factorization* st, int64_t* done) {
    SAC_ASSIGN_OR_RETURN(*st, sac::algo::FactorizationStep(ctx, r, *st, kGamma,
                                                           kLambda));
    if (++*done % kCheckpointEvery == 0) {
      sac::trace::ScopedSpan span(&ctx->tracer(), "bench:checkpoint", "bench");
      SAC_RETURN_NOT_OK(ctx->Checkpoint(st->p));
      SAC_RETURN_NOT_OK(ctx->Checkpoint(st->q));
    }
    return Status::OK();
  }

  Result<bool> SameBytes(Sac& ref, const TiledMatrix& want,
                         const TiledMatrix& got) {
    SAC_ASSIGN_OR_RETURN(Tile w, ref.ToLocal(want));
    SAC_ASSIGN_OR_RETURN(Tile g, ctx_->ToLocal(got));
    return w.rows() == g.rows() && w.cols() == g.cols() &&
           std::memcmp(w.data(), g.data(), sizeof(double) * w.size()) == 0;
  }

  uint64_t seed_;
  std::string workdir_;
  std::unique_ptr<Sac> ctx_;
  TiledMatrix r_;
  sac::algo::Factorization state_;
  int64_t iterations_ = 0;
};

}  // namespace

sac::runtime::ClusterConfig EngineShape(const std::string& workdir) {
  sac::runtime::ClusterConfig c;
  c.num_executors = 4;
  c.cores_per_executor = 1;
  c.default_parallelism = 8;
  c.spill_dir = workdir;
  c.checkpoint_dir = workdir;
  return c;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       const std::string& workdir) {
  if (name == "service") return std::make_unique<Service>(seed, workdir);
  if (name == "factorize") return std::make_unique<Factorize>(seed, workdir);
  return nullptr;
}

}  // namespace perfbench
