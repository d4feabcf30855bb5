// Tests for narrow steps pipelined into shuffles (runtime::Pipeline): the
// engine's fused operators and the planner's fused 5.1/5.3/5.4 plans must
// be byte-identical to the same steps composed by hand as separate
// Map -> shuffle -> Map datasets, while registering fewer blocks and
// running fewer tasks for the same shuffle traffic; and fused stages must
// survive injected faults, lost partitions and a tight memory budget.
#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/cost.h"
#include "src/analysis/lint.h"
#include "src/analysis/verify.h"
#include "src/api/algorithms.h"
#include "src/api/sac.h"
#include "src/la/backend.h"
#include "src/la/kernels.h"
#include "src/runtime/engine.h"
#include "src/runtime/recovery.h"

namespace sac {
namespace {

using runtime::ClusterConfig;
using runtime::Dataset;
using runtime::Engine;
using runtime::Pipeline;
using runtime::Value;
using runtime::ValueVec;
using runtime::VInt;
using runtime::VPair;
using runtime::VTuple;
using storage::BlockVector;
using storage::TiledMatrix;

constexpr int64_t kN = 48;
constexpr int64_t kBlock = 8;

// ---------------------------------------------------------------------------
// Engine level
// ---------------------------------------------------------------------------

ValueVec Ints(int n) {
  ValueVec out;
  for (int i = 0; i < n; ++i) out.push_back(VInt(i));
  return out;
}

/// Serialized bytes of every row, in collect order.
std::vector<uint8_t> Bytes(Engine* eng, const Dataset& ds) {
  const ValueVec rows = eng->Collect(ds).value();
  std::vector<uint8_t> out;
  ByteWriter writer(&out);
  for (const Value& row : rows) row.Serialize(&writer);
  return out;
}

const runtime::MapFn kKeyMod7 = [](const Value& v) {
  return VPair(VInt(v.AsInt() % 7), VInt(v.AsInt() * v.AsInt()));
};
const runtime::MapFn kKeyMod5 = [](const Value& v) {
  return VPair(VInt(v.AsInt() % 5), VInt(v.AsInt() + 1000));
};
const runtime::FlatMapFn kFanOut = [](const Value& v, ValueVec* out) {
  out->push_back(VPair(VInt(v.AsInt() % 3), VInt(1)));
  out->push_back(VPair(VInt(v.AsInt() % 4 + 100), v));
};

TEST(PipelineEngineTest, FusedJoinMatchesHandComposedMapJoinMap) {
  Engine eng(ClusterConfig{2, 2, 6});
  Dataset a = eng.Parallelize(Ints(90), 6);
  Dataset b = eng.Parallelize(Ints(40), 4);
  const runtime::MapFn join_row = [](const Value& row) {
    return VPair(row.At(0), VInt(row.At(1).At(0).AsInt() -
                                 row.At(1).At(1).AsInt()));
  };

  Dataset ka = eng.Map(a, kKeyMod7, "keyA").value();
  Dataset kb = eng.Map(b, kKeyMod5, "keyB").value();
  Dataset joined = eng.Join(ka, kb).value();
  Dataset hand = eng.Map(joined, join_row, "post").value();
  const MetricsSnapshot after_hand = eng.metrics().Snapshot();

  eng.ResetStats();
  Dataset fused =
      eng.Join(a, b, -1,
               {{runtime::MapRows(kKeyMod7), runtime::MapRows(kKeyMod5)},
                runtime::MapRows(join_row)})
          .value();
  const MetricsSnapshot after_fused = eng.metrics().Snapshot();

  EXPECT_EQ(Bytes(&eng, hand), Bytes(&eng, fused));
  EXPECT_TRUE(eng.VerifyLineage(fused).ok());
  // Same rows crossed the shuffle; the narrow stages' tasks are gone.
  EXPECT_EQ(after_fused.shuffle_bytes, after_hand.shuffle_bytes);
  EXPECT_EQ(after_fused.local_shuffle_bytes, after_hand.local_shuffle_bytes);
  EXPECT_EQ(after_fused.cross_executor_bytes,
            after_hand.cross_executor_bytes);
  EXPECT_EQ(after_fused.shuffle_records, after_hand.shuffle_records);
  EXPECT_LT(after_fused.tasks_run, after_hand.tasks_run);
}

TEST(PipelineEngineTest, FusedReduceGroupAndCoGroupMatchHandComposed) {
  Engine eng(ClusterConfig{2, 2, 5});
  Dataset src = eng.Parallelize(Ints(120), 5);
  Dataset other = eng.Parallelize(Ints(30), 3);
  const runtime::CombineFn add = [](const Value& x, const Value& y) {
    return VInt(x.AsInt() + y.AsInt());
  };
  const runtime::MapFn tag = [](const Value& row) {
    return VPair(row.At(0), VTuple({row.At(1), VInt(7)}));
  };

  // reduceByKey: flatMap pre (only one parent), map post.
  Dataset fanned = eng.FlatMap(src, kFanOut).value();
  Dataset hand_rbk =
      eng.Map(eng.ReduceByKey(fanned, add, 3).value(), tag).value();
  Dataset fused_rbk =
      eng.ReduceByKey(src, add, 3,
                      {{runtime::FlatMapRows(kFanOut)}, runtime::MapRows(tag)})
          .value();
  EXPECT_EQ(Bytes(&eng, hand_rbk), Bytes(&eng, fused_rbk));

  // groupByKey: pre only.
  Dataset keyed = eng.Map(src, kKeyMod7).value();
  EXPECT_EQ(Bytes(&eng, eng.GroupByKey(keyed).value()),
            Bytes(&eng, eng.GroupByKey(src, -1, {{runtime::MapRows(kKeyMod7)},
                                                 nullptr})
                            .value()));

  // cogroup: pre on the second parent only, no post.
  Dataset other_keyed = eng.Map(other, kKeyMod5).value();
  EXPECT_EQ(Bytes(&eng, eng.CoGroup(keyed, other_keyed).value()),
            Bytes(&eng, eng.CoGroup(keyed, other, -1,
                                    {{nullptr, runtime::MapRows(kKeyMod5)},
                                     nullptr})
                            .value()));
}

TEST(PipelineEngineTest, PreStepErrorsSurfaceUnretried) {
  Engine eng(ClusterConfig{2, 2, 4});
  Dataset a = eng.Parallelize(Ints(20), 4);
  // The pre step emits unkeyed rows: the shuffle rejects them as a real
  // error, not an injected fault, so nothing is retried.
  auto r = eng.GroupByKey(
      a, -1, {{runtime::MapRows([](const Value& v) { return v; })}, nullptr});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("(key, value)"), std::string::npos)
      << r.status().ToString();
  EXPECT_EQ(eng.metrics().Snapshot().tasks_retried, 0u);
}

// ---------------------------------------------------------------------------
// Planner level: fused plans vs the same operators composed by hand
// ---------------------------------------------------------------------------

/// A bound pair of seeded 48x48 matrices (8x8 tiles) and a 48-vector.
struct Inputs {
  explicit Inputs(planner::PlannerOptions opts = planner::PlannerOptions())
      : ctx(ClusterConfig{2, 2, 4}, std::move(opts)) {
    a = ctx.RandomMatrix(kN, kN, kBlock, 40).value();
    b = ctx.RandomMatrix(kN, kN, kBlock, 41).value();
    x = ctx.RandomVector(kN, kBlock, 42).value();
    ctx.Bind("A", a);
    ctx.Bind("B", b);
    ctx.Bind("x", x);
    ctx.BindScalar("n", kN);
  }
  Engine* eng() { return &ctx.engine(); }
  const la::KernelBackend* kernels() { return ctx.engine().kernel_backend(); }

  Sac ctx;
  TiledMatrix a, b;
  BlockVector x;
};

/// What one run cost: blocks the result keeps registered through its
/// lineage, tasks run, and shuffle traffic.
struct RunCost {
  size_t blocks = 0;
  MetricsSnapshot m;
};

/// Runs `fn` (which returns the result dataset) from clean stats and
/// measures it while the result is still alive.
template <typename Fn>
RunCost Measure(Inputs* in, Fn fn, Dataset* keep) {
  in->eng()->ResetStats();
  const size_t before = in->eng()->block_store().registered_blocks();
  *keep = fn();
  RunCost c;
  c.blocks = in->eng()->block_store().registered_blocks() - before;
  c.m = in->eng()->metrics().Snapshot();
  return c;
}

void ExpectSameShuffleFewerBlocksAndTasks(const RunCost& hand,
                                          const RunCost& fused) {
  EXPECT_EQ(fused.m.shuffle_bytes, hand.m.shuffle_bytes);
  EXPECT_EQ(fused.m.local_shuffle_bytes, hand.m.local_shuffle_bytes);
  EXPECT_EQ(fused.m.cross_executor_bytes, hand.m.cross_executor_bytes);
  EXPECT_EQ(fused.m.shuffle_records, hand.m.shuffle_records);
  EXPECT_LT(fused.blocks, hand.blocks);
  EXPECT_LT(fused.m.tasks_run, hand.m.tasks_run);
}

/// 5.1 elementwise add, B optionally read transposed ((jj,ii) <- B).
void CheckTileAdd(bool transposed_b) {
  Inputs in;
  Engine* eng = in.eng();
  const la::KernelBackend* kbk = in.kernels();
  const std::string src =
      transposed_b ? "tiled(n,n)[ ((i,j),a+b) | ((i,j),a) <- A,"
                     " ((jj,ii),b) <- B, ii == i, jj == j ]"
                   : "tiled(n,n)[ ((i,j),a+b) | ((i,j),a) <- A,"
                     " ((ii,jj),b) <- B, ii == i, jj == j ]";
  ASSERT_EQ(in.ctx.Compile(src).value().strategy,
            planner::Strategy::kTilingPreserving);

  const runtime::MapFn key_a = [](const Value& row) {
    const ValueVec& c = row.At(0).AsTuple();
    return VPair(VTuple({c[0], c[1]}), row.At(1));
  };
  const runtime::MapFn key_b = [transposed_b](const Value& row) {
    const ValueVec& c = row.At(0).AsTuple();
    return VPair(transposed_b ? VTuple({c[1], c[0]}) : VTuple({c[0], c[1]}),
                 row.At(1));
  };
  const runtime::MapFn zip = [=](const Value& row) {
    la::Tile b = row.At(1).At(1).AsTile();
    if (transposed_b) {
      la::Tile t;
      kbk->Transpose(b, &t);
      b = std::move(t);
    }
    la::Tile sum;
    kbk->Add(row.At(1).At(0).AsTile(), b, &sum);
    return VPair(row.At(0), Value::TileVal(std::move(sum)));
  };
  Dataset hand_ds;
  const RunCost hand = Measure(&in, [&] {
    Dataset joined = eng->Join(eng->Map(in.a.tiles, key_a).value(),
                               eng->Map(in.b.tiles, key_b).value())
                         .value();
    return eng->Map(joined, zip).value();
  }, &hand_ds);

  Dataset fused_ds;
  const RunCost fused = Measure(&in, [&] {
    return in.ctx.EvalTiled(src).value().tiles;
  }, &fused_ds);

  EXPECT_TRUE(in.ctx.ToLocal(TiledMatrix{kN, kN, kBlock, hand_ds}).value() ==
              in.ctx.ToLocal(TiledMatrix{kN, kN, kBlock, fused_ds}).value());
  ExpectSameShuffleFewerBlocksAndTasks(hand, fused);
}

TEST(PipelinePlanTest, TileAddMatchesHandComposed) { CheckTileAdd(false); }

TEST(PipelinePlanTest, TileAddWithTransposedOperandMatchesHandComposed) {
  CheckTileAdd(true);
}

la::Tile Zeros(int64_t rows, int64_t cols) {
  la::Tile t(rows, cols);
  std::fill(t.data(), t.data() + t.size(), 0.0);
  return t;
}

/// The 5.3 tile-monoid combine on single-aggregate tuples.
Value AddTuples(const Value& p, const Value& q) {
  Value acc = p.At(0);
  la::AddInPlace(acc.MutableTile(), q.At(0).AsTile());
  return VTuple({std::move(acc)});
}

/// The 5.3 finalize step for a single sum: (key, (tile)) -> (key, tile).
Value FirstAggregate(const Value& row) {
  return VPair(row.At(0), row.At(1).At(0));
}

TEST(PipelinePlanTest, MatrixMultiply53MatchesHandComposed) {
  planner::PlannerOptions opts;
  opts.enable_group_by_join = false;
  Inputs in(opts);
  Engine* eng = in.eng();
  const la::KernelBackend* kbk = in.kernels();
  const std::string src =
      "tiled(n,n)[ ((i,j),+/v) | ((i,k),a) <- A, ((kk,j),b) <- B,"
      " kk == k, let v = a*b, group by (i,j) ]";
  ASSERT_EQ(in.ctx.Compile(src).value().strategy,
            planner::Strategy::kReduceByKey);

  // keyByJoinDim: A (i,k) by k, B (k,j) by k.
  const runtime::MapFn key_a = [](const Value& row) {
    const ValueVec& c = row.At(0).AsTuple();
    return VPair(c[1], VPair(c[0], row.At(1)));
  };
  const runtime::MapFn key_b = [](const Value& row) {
    const ValueVec& c = row.At(0).AsTuple();
    return VPair(c[0], VPair(c[1], row.At(1)));
  };
  const runtime::MapFn partial_product = [=](const Value& row) {
    const Value& av = row.At(1).At(0);
    const Value& bv = row.At(1).At(1);
    const la::Tile& a = av.At(1).AsTile();
    const la::Tile& b = bv.At(1).AsTile();
    la::Tile acc = Zeros(a.rows(), b.cols());
    kbk->GemmAccum(a, b, &acc);
    return VPair(VTuple({av.At(0), bv.At(0)}),
                 VTuple({Value::TileVal(std::move(acc))}));
  };
  Dataset hand_ds;
  const RunCost hand = Measure(&in, [&] {
    Dataset joined = eng->Join(eng->Map(in.a.tiles, key_a).value(),
                               eng->Map(in.b.tiles, key_b).value())
                         .value();
    Dataset partials = eng->Map(joined, partial_product).value();
    Dataset reduced = eng->ReduceByKey(partials, AddTuples).value();
    return eng->Map(reduced, FirstAggregate).value();
  }, &hand_ds);

  Dataset fused_ds;
  const RunCost fused = Measure(&in, [&] {
    return in.ctx.EvalTiled(src).value().tiles;
  }, &fused_ds);

  EXPECT_TRUE(in.ctx.ToLocal(TiledMatrix{kN, kN, kBlock, hand_ds}).value() ==
              in.ctx.ToLocal(TiledMatrix{kN, kN, kBlock, fused_ds}).value());
  ExpectSameShuffleFewerBlocksAndTasks(hand, fused);
}

TEST(PipelinePlanTest, MatrixVectorMultiply53MatchesHandComposed) {
  Inputs in;
  Engine* eng = in.eng();
  const std::string src =
      "tiled(n)[ (i, +/c) | ((i,k),m) <- A, (kk,v) <- x, kk == k,"
      " let c = m*v, group by i ]";
  ASSERT_EQ(in.ctx.Compile(src).value().strategy,
            planner::Strategy::kReduceByKey);

  const runtime::MapFn key_a = [](const Value& row) {
    const ValueVec& c = row.At(0).AsTuple();
    return VPair(c[1], VPair(c[0], row.At(1)));
  };
  const runtime::MapFn partial_product = [](const Value& row) {
    const Value& av = row.At(1).At(0);
    const la::Tile& a = av.At(1).AsTile();
    const la::Tile& v = row.At(1).At(1).AsTile();
    la::Tile acc = Zeros(1, a.rows());
    for (int64_t i = 0; i < a.rows(); ++i) {
      double cell = acc.At(0, i);
      for (int64_t k = 0; k < a.cols(); ++k) cell += a.At(i, k) * v.At(0, k);
      acc.Set(0, i, cell);
    }
    return VPair(av.At(0), VTuple({Value::TileVal(std::move(acc))}));
  };
  Dataset hand_ds;
  const RunCost hand = Measure(&in, [&] {
    Dataset joined =
        eng->Join(eng->Map(in.a.tiles, key_a).value(), in.x.blocks).value();
    Dataset partials = eng->Map(joined, partial_product).value();
    Dataset reduced = eng->ReduceByKey(partials, AddTuples).value();
    return eng->Map(reduced, FirstAggregate).value();
  }, &hand_ds);

  Dataset fused_ds;
  const RunCost fused = Measure(&in, [&] {
    return in.ctx.EvalVector(src).value().blocks;
  }, &fused_ds);

  EXPECT_EQ(in.ctx.ToLocal(BlockVector{kN, kBlock, hand_ds}).value(),
            in.ctx.ToLocal(BlockVector{kN, kBlock, fused_ds}).value());
  ExpectSameShuffleFewerBlocksAndTasks(hand, fused);
}

TEST(PipelinePlanTest, MatrixMultiply54MatchesHandComposed) {
  planner::PlannerOptions opts;
  opts.auto_strategy = false;  // the 5.4 translation, whatever the extents
  Inputs in(opts);
  Engine* eng = in.eng();
  const la::KernelBackend* kbk = in.kernels();
  const std::string src =
      "tiled(n,n)[ ((i,j),+/v) | ((i,k),a) <- A, ((kk,j),b) <- B,"
      " kk == k, let v = a*b, group by (i,j) ]";
  ASSERT_EQ(in.ctx.Compile(src).value().strategy,
            planner::Strategy::kGroupByJoin);
  const int64_t panels = kN / kBlock;

  // replicateA / replicateB: each tile to every output panel it feeds.
  const runtime::FlatMapFn replicate_a = [=](const Value& row, ValueVec* out) {
    const ValueVec& c = row.At(0).AsTuple();
    for (int64_t q = 0; q < panels; ++q) {
      out->push_back(VPair(VTuple({c[0], VInt(q)}), VPair(c[1], row.At(1))));
    }
  };
  const runtime::FlatMapFn replicate_b = [=](const Value& row, ValueVec* out) {
    const ValueVec& c = row.At(0).AsTuple();
    for (int64_t q = 0; q < panels; ++q) {
      out->push_back(VPair(VTuple({VInt(q), c[1]}), VPair(c[0], row.At(1))));
    }
  };
  const runtime::MapFn summa = [=](const Value& row) {
    std::unordered_map<int64_t, std::vector<const Value*>> b_by_k;
    for (const Value& bv : row.At(1).At(1).AsList()) {
      b_by_k[bv.At(0).AsInt()].push_back(&bv);
    }
    la::Tile acc = Zeros(kBlock, kBlock);
    for (const Value& av : row.At(1).At(0).AsList()) {
      for (const Value* bv : b_by_k[av.At(0).AsInt()]) {
        kbk->GemmAccum(av.At(1).AsTile(), bv->At(1).AsTile(), &acc);
      }
    }
    return VPair(row.At(0), Value::TileVal(std::move(acc)));
  };
  Dataset hand_ds;
  const RunCost hand = Measure(&in, [&] {
    Dataset cg = eng->CoGroup(eng->FlatMap(in.a.tiles, replicate_a).value(),
                              eng->FlatMap(in.b.tiles, replicate_b).value())
                     .value();
    return eng->Map(cg, summa).value();
  }, &hand_ds);

  Dataset fused_ds;
  const RunCost fused = Measure(&in, [&] {
    return in.ctx.EvalTiled(src).value().tiles;
  }, &fused_ds);

  EXPECT_TRUE(in.ctx.ToLocal(TiledMatrix{kN, kN, kBlock, hand_ds}).value() ==
              in.ctx.ToLocal(TiledMatrix{kN, kN, kBlock, fused_ds}).value());
  ExpectSameShuffleFewerBlocksAndTasks(hand, fused);
}

// ---------------------------------------------------------------------------
// Faults, lost partitions and memory pressure on fused stages
// ---------------------------------------------------------------------------

const char* kAdd =
    "tiled(n,n)[ ((i,j),a+b) | ((i,j),a) <- A, ((ii,jj),b) <- B,"
    " ii == i, jj == j ]";
const char* kMultiply =
    "tiled(n,n)[ ((i,j),+/v) | ((i,k),a) <- A, ((kk,j),b) <- B,"
    " kk == k, let v = a*b, group by (i,j) ]";

TEST(PipelineRecoveryTest, FaultsInFusedStagesRetryToTheSameResult) {
  for (const char* src : {kAdd, kMultiply}) {
    Inputs clean;
    const la::Tile expected =
        clean.ctx.ToLocal(clean.ctx.EvalTiled(src).value()).value();

    Inputs faulty;
    // The join's shuffle-write tasks run the pipelined keying steps: the
    // mid-map point fires after them, shuffle-serialize while bucketing.
    faulty.eng()->set_fault_plan(
        runtime::recovery::FaultPlan::Parse(
            "seed=5;mid-map@*:part=1:count=1;"
            "shuffle-serialize@*:part=2:count=1")
            .value());
    const la::Tile got =
        faulty.ctx.ToLocal(faulty.ctx.EvalTiled(src).value()).value();
    EXPECT_TRUE(got == expected) << src;
    const runtime::recovery::FaultPlan& plan = faulty.eng()->fault_plan();
    EXPECT_GT(plan.injected(runtime::recovery::FaultPoint::kMidMap), 0u)
        << src;
    EXPECT_GT(plan.injected(runtime::recovery::FaultPoint::kShuffleSerialize),
              0u)
        << src;
    EXPECT_GT(faulty.ctx.metrics().Snapshot().tasks_retried, 0u) << src;
  }
}

TEST(PipelineRecoveryTest, LostFusedPartitionsRecomputeFromLineage) {
  // Each result is the output of a stage whose pre steps re-key or
  // replicate its parents' rows, so recomputing it without replaying
  // them would shuffle the wrong rows: B read transposed by a 5.1 join,
  // and the 5.4 replicate + cogroup.
  planner::PlannerOptions summa;
  summa.auto_strategy = false;
  const std::pair<const char*, planner::PlannerOptions> cases[] = {
      {"tiled(n,n)[ ((i,j),a+b) | ((i,j),a) <- A, ((jj,ii),b) <- B,"
       " ii == i, jj == j ]",
       planner::PlannerOptions()},
      {kMultiply, summa}};
  for (const auto& [src, opts] : cases) {
    Inputs in(opts);
    const TiledMatrix out = in.ctx.EvalTiled(src).value();
    const la::Tile expected = in.ctx.ToLocal(out).value();
    for (int p = 0; p < out.tiles->num_partitions(); p += 2) {
      out.tiles->InvalidatePartition(p);
    }
    EXPECT_TRUE(in.ctx.ToLocal(out).value() == expected) << src;
    EXPECT_GT(in.ctx.metrics().Snapshot().tasks_recomputed, 0u) << src;
    EXPECT_TRUE(in.eng()->VerifyLineage(out.tiles).ok()) << src;
  }
}

TEST(PipelineRecoveryTest, LostEnginePartitionReplaysPreAndPostSteps) {
  Engine eng(ClusterConfig{2, 2, 6});
  Dataset a = eng.Parallelize(Ints(90), 6);
  Dataset b = eng.Parallelize(Ints(40), 4);
  const runtime::MapFn join_row = [](const Value& row) {
    return VPair(row.At(0), VInt(row.At(1).At(0).AsInt() -
                                 row.At(1).At(1).AsInt()));
  };
  Dataset fused =
      eng.Join(a, b, -1,
               {{runtime::MapRows(kKeyMod7), runtime::MapRows(kKeyMod5)},
                runtime::MapRows(join_row)})
          .value();
  const std::vector<uint8_t> expected = Bytes(&eng, fused);
  for (int p = 0; p < fused->num_partitions(); ++p) {
    fused->InvalidatePartition(p);
  }
  EXPECT_EQ(Bytes(&eng, fused), expected);
  EXPECT_GT(eng.metrics().Snapshot().tasks_recomputed, 0u);
}

TEST(PipelineMemoryTest, QuarterBudgetMultiplyEvictsReloadsAndMatches) {
  for (const bool gbj : {false, true}) {
    planner::PlannerOptions opts;
    opts.auto_strategy = false;
    opts.enable_group_by_join = gbj;
    la::Tile expected;
    uint64_t peak = 0;
    {
      Sac ctx(ClusterConfig{2, 2, 4}, opts);
      auto a = ctx.RandomMatrix(96, 96, 16, 1).value();
      auto b = ctx.RandomMatrix(96, 96, 16, 2).value();
      auto c = algo::Multiply(&ctx, a, b);
      ASSERT_TRUE(c.ok()) << c.status().ToString();
      expected = ctx.ToLocal(c.value()).value();
      peak = ctx.engine().block_store().peak_resident_bytes();
    }
    ClusterConfig tight{2, 2, 4};
    tight.memory_budget_bytes = peak / 4;
    Sac ctx(tight, opts);
    auto a = ctx.RandomMatrix(96, 96, 16, 1).value();
    auto b = ctx.RandomMatrix(96, 96, 16, 2).value();
    auto c = algo::Multiply(&ctx, a, b);
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    EXPECT_TRUE(ctx.ToLocal(c.value()).value() == expected) << "gbj=" << gbj;
    EXPECT_GT(ctx.metrics().Snapshot().evictions, 0u) << "gbj=" << gbj;
    EXPECT_GT(ctx.metrics().Snapshot().bytes_reloaded, 0u) << "gbj=" << gbj;
  }
}

// ---------------------------------------------------------------------------
// Analysis: the symbolic plan marks what the runtime pipelines
// ---------------------------------------------------------------------------

using planner::PlanBuilder;
using planner::PlanNode;
using planner::PlanNodePtr;

/// source -> map -> reduceByKey -> map over a 512x512 matrix (2 MiB),
/// with both maps pipelined into the shuffle when `fused`.
struct KeyReduceFinalizePlan {
  explicit KeyReduceFinalizePlan(bool fused) {
    binds.emplace("A", planner::Binding::Tiled(
                           TiledMatrix{512, 512, 64, nullptr}));
    PlanBuilder pb;
    PlanNodePtr src = pb.Source("A", 2);
    PlanNodePtr key = pb.Narrow(PlanNode::Op::kMap, "key", src, 2);
    PlanNodePtr red = pb.Shuffle(PlanNode::Op::kReduceByKey, "red", {key}, 2);
    root = pb.Narrow(PlanNode::Op::kMap, "fin", red, 2,
                     /*preserves_partitioning=*/true);
    if (fused) {
      key->fusion = PlanNode::Fusion::kPre;
      root->fusion = PlanNode::Fusion::kPost;
    }
    nodes = pb.TakeNodes();
  }
  analysis::PlanGraph Graph(uint64_t budget = 0) const {
    return analysis::PlanGraph{root, nodes, &binds, budget};
  }
  planner::Bindings binds;
  PlanNodePtr root;
  std::vector<PlanNodePtr> nodes;
};

TEST(PipelineAnalysisTest, CostSkipsPipelinedTasksAndResidentBytes) {
  const KeyReduceFinalizePlan eager(false), fused(true);
  ASSERT_TRUE(analysis::VerifyPlan(fused.Graph()).ok());
  const analysis::CostEstimate e = analysis::EstimateCost(eager.Graph());
  const analysis::CostEstimate f = analysis::EstimateCost(fused.Graph());
  ASSERT_TRUE(e.exact && f.exact);
  // Same shuffle; the two narrow stages' tasks and the key and raw
  // reduce outputs are gone from the estimate.
  EXPECT_EQ(f.totals.shuffle_bytes, e.totals.shuffle_bytes);
  EXPECT_LT(f.totals.tasks, e.totals.tasks);
  EXPECT_LT(f.resident_bytes, e.resident_bytes);
  EXPECT_LT(f.est_ms, e.est_ms);
}

TEST(PipelineAnalysisTest, ResidentSetLintSkipsPipelinedNodes) {
  // Eager: source + key + shuffle + fin ~ 8 MiB against 5 MiB; pipelined:
  // source + fin ~ 4 MiB fits.
  const uint64_t budget = 5ull << 20;
  std::vector<analysis::Diagnostic> eager_ds, fused_ds;
  analysis::LintPlan(KeyReduceFinalizePlan(false).Graph(budget), &eager_ds);
  analysis::LintPlan(KeyReduceFinalizePlan(true).Graph(budget), &fused_ds);
  auto has_w06 = [](const std::vector<analysis::Diagnostic>& ds) {
    return std::any_of(ds.begin(), ds.end(), [](const analysis::Diagnostic& d) {
      return d.code == "SAC-W06";
    });
  };
  EXPECT_TRUE(has_w06(eager_ds));
  EXPECT_FALSE(has_w06(fused_ds));
}

TEST(PipelineAnalysisTest, VerifierRejectsMisplacedPipelineMarks) {
  {
    // A pre step must feed a shuffle.
    KeyReduceFinalizePlan p(true);
    p.root->fusion = PlanNode::Fusion::kNone;
    p.root->inputs[0] = p.root->inputs[0]->inputs[0];  // fin reads key
    EXPECT_FALSE(analysis::VerifyPlan(p.Graph()).ok());
  }
  {
    // A post step must follow a shuffle (or another post step).
    KeyReduceFinalizePlan p(false);
    p.root->inputs[0]->inputs[0]->fusion = PlanNode::Fusion::kPost;
    EXPECT_FALSE(analysis::VerifyPlan(p.Graph()).ok());
  }
  {
    // Only narrow nodes are pipelined.
    KeyReduceFinalizePlan p(false);
    p.root->inputs[0]->fusion = PlanNode::Fusion::kPre;
    EXPECT_FALSE(analysis::VerifyPlan(p.Graph()).ok());
  }
}

TEST(PipelineAnalysisTest, PlannerMarksThePipelinedSteps) {
  Inputs in;
  for (const char* src : {
           "tiled(n,n)[ ((i,j),a+b) | ((i,j),a) <- A, ((ii,jj),b) <- B,"
           " ii == i, jj == j ]",
           "tiled(n,n)[ ((i,j),+/v) | ((i,k),a) <- A, ((kk,j),b) <- B,"
           " kk == k, let v = a*b, group by (i,j) ]",
           "tiled(n)[ (i, +/x) | ((i,j),x) <- A, group by i ]"}) {
    const planner::CompiledQuery q = in.ctx.Compile(src).value();
    ASSERT_TRUE(analysis::VerifyPlan(analysis::PlanGraph::FromQuery(q)).ok())
        << src;
    // Every narrow node next to a shuffle is pipelined: no stage of the
    // run is a bare narrow operator.
    for (const PlanNodePtr& n : q.plan_nodes) {
      if (n->op == PlanNode::Op::kSource || n->is_shuffle()) continue;
      EXPECT_NE(n->fusion, PlanNode::Fusion::kNone)
          << src << ": " << n->ToString();
    }
  }
}

}  // namespace
}  // namespace sac
