// General translation strategies:
//   Section 5.2 -- queries that do not preserve tiling: replication sets
//                  I_f(K) + groupByKey over shuffled tiles
//   Section 4   -- coordinate-format (element-level) translation, also the
//                  DIABLO-style baseline used by the COO ablation
//   local fallback -- collect + reference evaluation for small inputs
#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "src/comp/eval.h"
#include "src/exec/scalar_fn.h"
#include "src/la/kernels.h"
#include "src/planner/planner.h"

namespace sac::planner {

using comp::Expr;
using comp::ExprPtr;
using comp::ReduceOp;
using exec::ConstEnv;
using exec::IntFn;
using exec::PredFn;
using exec::ScalarFn;
using runtime::Dataset;
using runtime::Engine;
using runtime::Value;
using runtime::ValueVec;
using runtime::VInt;
using runtime::VPair;
using storage::TiledMatrix;

namespace {

Status NotApplicable(const std::string& rule, const std::string& why) {
  return Status::PlanError(rule + " does not apply: " + why);
}

}  // namespace

// ===========================================================================
// Section 5.2: queries that do not preserve tiling
// ===========================================================================

Result<CompiledQuery> TryReplication(const QueryShape& shape,
                                     const Bindings& binds,
                                     const PlannerOptions& opts) {
  static const char* kRule = "replication (5.2)";
  if (shape.has_group_by) return NotApplicable(kRule, "query has group-by");
  if (shape.gens.size() != 1) {
    return NotApplicable(kRule, "needs exactly one generator");
  }
  if (!shape.index_eqs.empty()) {
    return NotApplicable(kRule, "index equalities present");
  }
  const GenInfo& gen = shape.gens[0];
  if (gen.idx.size() != 2 || gen.val.empty()) {
    return NotApplicable(kRule, "needs a matrix generator");
  }
  auto it = binds.find(gen.source);
  if (it == binds.end() || it->second.kind != Binding::Kind::kTiled) {
    return NotApplicable(kRule, "source is not a tiled matrix");
  }
  if (shape.builder != "tiled" || shape.builder_args.size() != 2) {
    return NotApplicable(kRule, "needs a tiled matrix output");
  }
  if (shape.head_key->kind != Expr::Kind::kTuple ||
      shape.head_key->children.size() != 2) {
    return NotApplicable(kRule, "head key is not an index pair");
  }

  ConstEnv consts;
  CollectScalarConsts(binds, &consts);
  // Output index functions f1, f2 over the input indices (integer
  // arithmetic, so % and / behave like the paper's examples).
  SAC_ASSIGN_OR_RETURN(
      IntFn f1, exec::CompileIntFn(
                    shape.InlineLets(shape.head_key->children[0]), gen.idx,
                    consts));
  SAC_ASSIGN_OR_RETURN(
      IntFn f2, exec::CompileIntFn(
                    shape.InlineLets(shape.head_key->children[1]), gen.idx,
                    consts));
  std::vector<PredFn> preds;
  for (const auto& g : shape.guards) {
    SAC_ASSIGN_OR_RETURN(PredFn p, exec::CompileIntPred(shape.InlineLets(g),
                                                        gen.idx, consts));
    preds.push_back(std::move(p));
  }
  // Element value function over (i, j, v).
  std::vector<std::string> vargs = gen.idx;
  vargs.push_back(gen.val);
  SAC_ASSIGN_OR_RETURN(ScalarFn fv,
                       exec::CompileScalarFn(shape.InlineLets(shape.head_val),
                                             vargs, consts));

  SAC_ASSIGN_OR_RETURN(int64_t out_rows,
                       EvalScalarInt(shape.builder_args[0], binds));
  SAC_ASSIGN_OR_RETURN(int64_t out_cols,
                       EvalScalarInt(shape.builder_args[1], binds));
  const TiledMatrix A = it->second.tiled;
  const int64_t N = A.block;

  CompiledQuery q;
  q.strategy = Strategy::kReplication;
  q.explanation =
      "5.2 replication: each tile is shuffled to the output tiles in its "
      "index image I_f(K), then grouped";
  {
    PlanBuilder pb(shape.pos);
    PlanNodePtr src_n = pb.Source(gen.source, 2, gen.pos);
    PlanNodePtr rep = pb.Narrow(PlanNode::Op::kFlatMap, "replicateToImage",
                                src_n, 2);
    PlanNodePtr grouped =
        pb.Shuffle(PlanNode::Op::kGroupByKey, "groupByDestTile", {rep}, 2);
    // Assembly places each gathered element structurally -- not an
    // associative fold, so SAC-W01 must not suggest reduceByKey here.
    q.plan = pb.Narrow(PlanNode::Op::kMap, "assembleShiftedTiles", grouped, 2,
                       /*preserves_partitioning=*/true);
    rep->fusion = PlanNode::Fusion::kPre;
    q.plan->fusion = PlanNode::Fusion::kPost;
    q.plan_nodes = pb.TakeNodes();
  }
  q.run = [=](Engine* eng) -> Result<QueryResult> {
    // Map side: compute each tile's destination set I_f(K) by evaluating
    // the index functions over the tile's elements (the paper's set
    // comprehension), then replicate the tile to those destinations.
    const runtime::PartitionFn replicate =
    runtime::FlatMapRows([=](const Value& row, ValueVec* out) {
          const int64_t bi = row.At(0).At(0).AsInt();
          const int64_t bj = row.At(0).At(1).AsInt();
          const la::Tile& t = row.At(1).AsTile();
          std::unordered_set<Value, runtime::ValueHash,
                             runtime::ValueEq>
              dests;
          for (int64_t i = 0; i < t.rows(); ++i) {
            for (int64_t j = 0; j < t.cols(); ++j) {
              int64_t iargs[2] = {bi * N + i, bj * N + j};
              bool pass = true;
              for (const auto& p : preds) {
                if (!p(iargs)) {
                  pass = false;
                  break;
                }
              }
              if (!pass) continue;
              const int64_t o1 = f1(iargs), o2 = f2(iargs);
              if (o1 < 0 || o1 >= out_rows || o2 < 0 || o2 >= out_cols) {
                continue;
              }
              dests.insert(runtime::VIdx2(o1 / N, o2 / N));
            }
          }
          for (const Value& d : dests) {
            out->push_back(VPair(d, VPair(row.At(0), row.At(1))));
          }
        });
    // Reduce side: assemble each output tile from the gathered inputs.
    const runtime::PartitionFn assemble =
    runtime::MapRows([=](const Value& row) {
          const int64_t K1 = row.At(0).At(0).AsInt();
          const int64_t K2 = row.At(0).At(1).AsInt();
          la::Tile ot(std::min(N, out_rows - K1 * N),
                      std::min(N, out_cols - K2 * N));
          for (const Value& src : row.At(1).AsList()) {
            const int64_t bi = src.At(0).At(0).AsInt();
            const int64_t bj = src.At(0).At(1).AsInt();
            const la::Tile& t = src.At(1).AsTile();
            for (int64_t i = 0; i < t.rows(); ++i) {
              for (int64_t j = 0; j < t.cols(); ++j) {
                int64_t iargs[2] = {bi * N + i, bj * N + j};
                bool pass = true;
                for (const auto& p : preds) {
                  if (!p(iargs)) {
                    pass = false;
                    break;
                  }
                }
                if (!pass) continue;
                const int64_t o1 = f1(iargs), o2 = f2(iargs);
                if (o1 / N != K1 || o2 / N != K2) continue;
                if (o1 < 0 || o1 >= out_rows || o2 < 0 ||
                    o2 >= out_cols) {
                  continue;
                }
                const double dv[3] = {static_cast<double>(iargs[0]),
                                      static_cast<double>(iargs[1]),
                                      t.At(i, j)};
                ot.Set(o1 % N, o2 % N, fv(dv));
              }
            }
          }
          return VPair(row.At(0), Value::TileVal(std::move(ot)));
        });
    // replicateToImage runs inside the groupByKey's map-side tasks and
    // assembleShiftedTiles inside its reduce tasks.
    SAC_ASSIGN_OR_RETURN(
        Dataset out, eng->GroupByKey(A.tiles, -1, {{replicate}, assemble}));
    QueryResult r;
    r.kind = QueryResult::Kind::kTiled;
    r.tiled = TiledMatrix{out_rows, out_cols, N, out};
    return r;
  };
  return q;
}

// ===========================================================================
// Section 4: coordinate-format translation
// ===========================================================================

namespace {

/// Element-level view of a bound array: rows ((i,j),v) or (i,v).
Result<Dataset> Elements(Engine* eng, const Binding& b) {
  switch (b.kind) {
    case Binding::Kind::kTiled: {
      SAC_ASSIGN_OR_RETURN(storage::CooMatrix coo,
                           storage::ToCoo(eng, b.tiled));
      return coo.entries;
    }
    case Binding::Kind::kCoo:
      return b.coo.entries;
    case Binding::Kind::kBlockVector: {
      const int64_t block = b.vec.block;
      return eng->FlatMap(
          b.vec.blocks,
          [block](const Value& row, ValueVec* out) {
            const int64_t bi = row.At(0).AsInt();
            const la::Tile& t = row.At(1).AsTile();
            for (int64_t j = 0; j < t.cols(); ++j) {
              out->push_back(
                  VPair(VInt(bi * block + j), Value::Double(t.At(0, j))));
            }
          },
          "sparsifyVector");
    }
    default:
      return Status::PlanError("binding has no element view");
  }
}

double ScalarMonoidApply(ReduceOp op, double a, double b) {
  switch (op) {
    case ReduceOp::kProd:
      return a * b;
    case ReduceOp::kMin:
      return std::min(a, b);
    case ReduceOp::kMax:
      return std::max(a, b);
    default:
      return a + b;
  }
}

}  // namespace

Result<CompiledQuery> TryCoo(const QueryShape& shape, const Bindings& binds,
                             const PlannerOptions& opts) {
  static const char* kRule = "coordinate translation (4)";
  if (shape.gens.empty() || shape.gens.size() > 2) {
    return NotApplicable(kRule, "needs one or two generators");
  }
  if (shape.builder != "tiled" && shape.builder != "rdd") {
    return NotApplicable(kRule, "unsupported builder");
  }
  const bool out_is_rdd = shape.builder == "rdd";
  const bool out_is_vector =
      !out_is_rdd && shape.builder_args.size() == 1;
  int64_t out_rows = 0, out_cols = 1;
  if (!out_is_rdd) {
    SAC_ASSIGN_OR_RETURN(out_rows, EvalScalarInt(shape.builder_args[0],
                                                 binds));
    if (!out_is_vector) {
      SAC_ASSIGN_OR_RETURN(out_cols, EvalScalarInt(shape.builder_args[1],
                                                   binds));
    }
  }

  // Common block size for the output (defaults to 64 for pure-COO inputs).
  int64_t block = 64;
  for (const GenInfo& g : shape.gens) {
    auto it = binds.find(g.source);
    if (it == binds.end()) return NotApplicable(kRule, "unbound source");
    if (!it->second.is_distributed()) {
      return NotApplicable(kRule, "source is not distributed");
    }
    if (it->second.kind == Binding::Kind::kTiled) {
      block = it->second.tiled.block;
    } else if (it->second.kind == Binding::Kind::kBlockVector) {
      block = it->second.vec.block;
    }
  }

  ConstEnv consts;
  CollectScalarConsts(binds, &consts);

  // Element variables of all generators (indices then value, per gen).
  std::vector<std::string> all_vars;
  for (const GenInfo& g : shape.gens) {
    for (const auto& v : g.idx) all_vars.push_back(v);
    if (g.val.empty()) return NotApplicable(kRule, "wildcard value");
    all_vars.push_back(g.val);
  }

  // Key expressions (integers over all element vars -- the value vars are
  // not allowed in keys, which CompileIntFn enforces by failing).
  std::vector<ExprPtr> key_exprs;
  if (shape.head_key->kind == Expr::Kind::kTuple) {
    for (const auto& c : shape.head_key->children) {
      key_exprs.push_back(shape.InlineLets(c));
    }
  } else {
    key_exprs.push_back(shape.InlineLets(shape.head_key));
  }
  if (!out_is_rdd && key_exprs.size() != (out_is_vector ? 1u : 2u)) {
    return NotApplicable(kRule, "key arity mismatch");
  }
  std::vector<std::string> int_vars;
  for (const GenInfo& g : shape.gens) {
    for (const auto& v : g.idx) int_vars.push_back(v);
  }
  std::vector<IntFn> key_fns;
  for (const auto& ke : key_exprs) {
    SAC_ASSIGN_OR_RETURN(IntFn f,
                         exec::CompileIntFn(ke, int_vars, consts));
    key_fns.push_back(std::move(f));
  }
  std::vector<PredFn> preds;
  for (const auto& g : shape.guards) {
    SAC_ASSIGN_OR_RETURN(PredFn p, exec::CompileIntPred(shape.InlineLets(g),
                                                        int_vars, consts));
    preds.push_back(std::move(p));
  }

  // Aggregations (if grouped) or a plain value function.
  struct CooAgg {
    ReduceOp op;
    ScalarFn g;
  };
  std::vector<CooAgg> aggs;
  ScalarFn finalize_fn;
  bool finalize_identity = true;
  ScalarFn value_fn;
  if (shape.has_group_by) {
    // The head key must equal the group-by key vars.
    std::vector<std::string> key_vars;
    for (const auto& ke : key_exprs) {
      if (ke->kind != Expr::Kind::kVar) {
        return NotApplicable(kRule, "grouped key must be variables");
      }
      key_vars.push_back(ke->str_val);
    }
    if (key_vars != shape.group_key_vars) {
      return NotApplicable(kRule, "head key differs from group key");
    }
    // Decompose aggregates (same analysis as 5.3, at scalar level).
    ExprPtr hv = shape.InlineLets(shape.head_val);
    std::function<Result<ExprPtr>(const ExprPtr&)> extract =
        [&](const ExprPtr& e) -> Result<ExprPtr> {
      if (e->kind == Expr::Kind::kReduce) {
        ReduceOp op = e->reduce_op;
        ExprPtr operand = e->children[0];
        if (op == ReduceOp::kCount) {
          op = ReduceOp::kSum;
          operand = Expr::Int(1, e->pos);
        }
        if (op != ReduceOp::kSum && op != ReduceOp::kProd &&
            op != ReduceOp::kMin && op != ReduceOp::kMax) {
          return Status::PlanError("unsupported monoid in COO plan");
        }
        SAC_ASSIGN_OR_RETURN(ScalarFn g, exec::CompileScalarFn(
                                             operand, all_vars, consts));
        const size_t k = aggs.size();
        aggs.push_back(CooAgg{op, std::move(g)});
        return Expr::Var("$agg" + std::to_string(k), e->pos);
      }
      if (e->children.empty()) return e;
      auto copy = std::make_shared<Expr>(*e);
      for (auto& c : copy->children) {
        SAC_ASSIGN_OR_RETURN(c, extract(c));
      }
      return ExprPtr(copy);
    };
    SAC_ASSIGN_OR_RETURN(ExprPtr fin_expr, extract(hv));
    if (aggs.empty()) return NotApplicable(kRule, "group-by without aggregate");
    std::vector<std::string> agg_args;
    for (size_t k = 0; k < aggs.size(); ++k) {
      agg_args.push_back("$agg" + std::to_string(k));
    }
    SAC_ASSIGN_OR_RETURN(finalize_fn, exec::CompileScalarFn(fin_expr,
                                                            agg_args,
                                                            consts));
    finalize_identity = aggs.size() == 1 &&
                        fin_expr->kind == Expr::Kind::kVar &&
                        fin_expr->str_val == "$agg0";
  } else {
    SAC_ASSIGN_OR_RETURN(value_fn, exec::CompileScalarFn(
                                       shape.InlineLets(shape.head_val),
                                       all_vars, consts));
  }

  // Join analysis for two generators: every cross-generator equality
  // becomes one component of a composite join key (rule 14 generalized).
  std::vector<std::pair<size_t, size_t>> join_pos;  // (pos in A, pos in B)
  if (shape.gens.size() == 2) {
    auto pos_in = [&](size_t g, const std::string& v) -> int {
      for (size_t p = 0; p < shape.gens[g].idx.size(); ++p) {
        if (shape.gens[g].idx[p] == v) return static_cast<int>(p);
      }
      return -1;
    };
    for (const auto& [ea, eb] : shape.index_eqs) {
      int a0 = pos_in(0, ea), b1 = pos_in(1, eb);
      int a1 = pos_in(0, eb), b0 = pos_in(1, ea);
      if (a0 >= 0 && b1 >= 0) {
        join_pos.emplace_back(a0, b1);
      } else if (a1 >= 0 && b0 >= 0) {
        join_pos.emplace_back(a1, b0);
      } else {
        return NotApplicable(kRule, "equality does not join the generators");
      }
    }
    if (join_pos.empty()) {
      return NotApplicable(kRule, "no join equality between the generators");
    }
  } else if (!shape.index_eqs.empty()) {
    // Single-generator equalities become guards.
    for (const auto& [a, b] : shape.index_eqs) {
      SAC_ASSIGN_OR_RETURN(
          PredFn p,
          exec::CompileIntPred(
              Expr::Binary(comp::BinOp::kEq, Expr::Var(a), Expr::Var(b),
                           shape.pos),
              int_vars, consts));
      preds.push_back(std::move(p));
    }
  }

  const QueryShape sh = shape;  // captured copies
  const Bindings bnds = binds;
  const std::vector<CooAgg> aggs_c = aggs;
  const std::vector<IntFn> key_fns_c = key_fns;
  const std::vector<PredFn> preds_c = preds;
  const std::vector<std::pair<size_t, size_t>> jpos = join_pos;
  const ScalarFn value_fn_c = value_fn;
  const ScalarFn finalize_c = finalize_fn;
  const bool fin_id = finalize_identity;

  CompiledQuery q;
  q.strategy = Strategy::kCoo;
  q.explanation =
      "Section 4 coordinate format: element-level " +
      std::string(shape.gens.size() == 2 ? "join" : "map") +
      (shape.has_group_by ? " + reduceByKey" : "") + ", then re-tile";
  {
    PlanBuilder pb(shape.pos);
    auto elem = [&](size_t g) {
      return pb.Source(shape.gens[g].source,
                       shape.gens[g].idx.size() == 1 ? 1 : 2,
                       shape.gens[g].pos);
    };
    // computeElements builds each row's (idx..., val, ...) environment
    // itself, so it reads the element rows or the join's pairs directly.
    const int out_key = static_cast<int>(key_exprs.size());
    PlanNodePtr result;
    if (shape.gens.size() == 1) {
      result = pb.Narrow(PlanNode::Op::kFlatMap, "computeElements", elem(0),
                         out_key);
      if (shape.has_group_by) result->fusion = PlanNode::Fusion::kPre;
    } else {
      PlanNodePtr ka = pb.Narrow(PlanNode::Op::kMap, "keyByJoinIndex",
                                 elem(0), 1);
      PlanNodePtr kb = pb.Narrow(PlanNode::Op::kMap, "keyByJoinIndex",
                                 elem(1), 1);
      PlanNodePtr joined =
          pb.Shuffle(PlanNode::Op::kJoin, "joinElements", {ka, kb}, 1);
      result = pb.Narrow(PlanNode::Op::kFlatMap, "computeElements", joined,
                         out_key);
      ka->fusion = kb->fusion = PlanNode::Fusion::kPre;
      result->fusion = PlanNode::Fusion::kPost;
    }
    if (shape.has_group_by) {
      PlanNodePtr reduced = pb.Shuffle(PlanNode::Op::kReduceByKey,
                                       "reduceElements", {result}, out_key);
      result = pb.Narrow(PlanNode::Op::kMap, "finalizeElements", reduced,
                         out_key, /*preserves_partitioning=*/true);
      result->fusion = PlanNode::Fusion::kPost;
    }
    PlanNodePtr keyed_blocks;
    if (out_is_rdd) {
      q.plan = pb.Collect({result});
    } else if (out_is_vector) {
      keyed_blocks = pb.Narrow(PlanNode::Op::kMap, "keyByBlock", result, 1);
      PlanNodePtr gp = pb.Shuffle(PlanNode::Op::kGroupByKey, "groupByBlock",
                                  {keyed_blocks}, 1);
      q.plan = pb.Narrow(PlanNode::Op::kMap, "buildBlocks", gp, 1,
                         /*preserves_partitioning=*/true);
    } else {
      keyed_blocks = pb.Narrow(PlanNode::Op::kMap, "keyByTile", result, 2);
      PlanNodePtr gp = pb.Shuffle(PlanNode::Op::kGroupByKey, "groupByTile",
                                  {keyed_blocks}, 2);
      q.plan = pb.Narrow(PlanNode::Op::kMap, "buildTiles", gp, 2,
                         /*preserves_partitioning=*/true);
    }
    if (keyed_blocks) {
      keyed_blocks->fusion = PlanNode::Fusion::kPre;
      q.plan->fusion = PlanNode::Fusion::kPost;
    }
    q.plan_nodes = pb.TakeNodes();
  }
  q.run = [=](Engine* eng) -> Result<QueryResult> {
    // Each element row (or joined pair of rows) maps to a flat tuple
    // (idx..., val, idx..., val) environment.
    auto flatten1 = [](const Value& row, size_t nidx, ValueVec* env) {
      if (nidx == 1) {
        env->push_back(row.At(0));
      } else {
        env->push_back(row.At(0).At(0));
        env->push_back(row.At(0).At(1));
      }
      env->push_back(row.At(1));
    };
    const size_t nidx0 = sh.gens[0].idx.size();
    const size_t nidx1 = sh.gens.size() == 2 ? sh.gens[1].idx.size() : 0;
    auto env_of = [flatten1, nidx0, nidx1](const Value& row) {
      ValueVec env;
      if (nidx1 == 0) {
        flatten1(row, nidx0, &env);
      } else {
        flatten1(row.At(1).At(0), nidx0, &env);
        flatten1(row.At(1).At(1), nidx1, &env);
      }
      return env;
    };

    // computeElements: each environment row to (outkey, value-or-partials).
    const bool grouped = sh.has_group_by;
    const runtime::PartitionFn compute_elements = runtime::FlatMapRows(
        [=](const Value& row, ValueVec* out) {
          const ValueVec env = env_of(row);
          // Integer args: indices per generator order; double args:
          // everything.
          int64_t iargs[4];
          double dargs[6];
          size_t ii = 0;
          for (size_t g = 0, e = 0; g < sh.gens.size(); ++g) {
            for (size_t p = 0; p < sh.gens[g].idx.size(); ++p, ++e) {
              iargs[ii++] = env[e + g].AsInt();
            }
          }
          for (size_t e = 0; e < env.size(); ++e) {
            dargs[e] = env[e].AsDouble();
          }
          for (const auto& p : preds_c) {
            if (!p(iargs)) return;
          }
          ValueVec key;
          for (const auto& f : key_fns_c) {
            key.push_back(VInt(f(iargs)));
          }
          Value key_v = key.size() == 1 ? key[0]
                                        : runtime::VTuple(std::move(key));
          if (grouped) {
            ValueVec partials;
            for (const auto& a : aggs_c) {
              partials.push_back(runtime::VDouble(a.g(dargs)));
            }
            out->push_back(
                VPair(key_v, runtime::VTuple(std::move(partials))));
          } else {
            out->push_back(
                VPair(key_v, runtime::VDouble(value_fn_c(dargs))));
          }
        });

    // `input` feeds the optional reduceByKey with computeElements as its
    // pre step (single generator), or is already computeElements' output
    // (the join runs it in its reduce tasks).
    SAC_ASSIGN_OR_RETURN(Dataset input,
                         Elements(eng, bnds.at(sh.gens[0].source)));
    runtime::PartitionFn pending = compute_elements;
    if (sh.gens.size() == 2) {
      SAC_ASSIGN_OR_RETURN(Dataset e1,
                           Elements(eng, bnds.at(sh.gens[1].source)));
      // Rule (14): key both sides by the (composite) join index, then join.
      auto key_by = [&](size_t nidx, bool left) {
        std::vector<size_t> positions;
        for (const auto& [pa, pb] : jpos) {
          positions.push_back(left ? pa : pb);
        }
        return runtime::MapRows([nidx, positions](const Value& row) {
          ValueVec key;
          for (size_t p : positions) {
            key.push_back(nidx == 1 ? row.At(0) : row.At(0).AsTuple()[p]);
          }
          Value k = key.size() == 1 ? key[0] : runtime::VTuple(std::move(key));
          return VPair(std::move(k), row);
        });
      };
      SAC_ASSIGN_OR_RETURN(
          input, eng->Join(input, e1, -1,
                           {{key_by(nidx0, true), key_by(nidx1, false)},
                            compute_elements}));
      pending = nullptr;
    }

    Dataset result_elems;
    if (grouped) {
      const runtime::PartitionFn finalize =
          runtime::MapRows([finalize_c, fin_id](const Value& row) {
            if (fin_id) return VPair(row.At(0), row.At(1).At(0));
            std::vector<double> args;
            for (const Value& v : row.At(1).AsTuple()) {
              args.push_back(v.AsDouble());
            }
            return VPair(row.At(0),
                         runtime::VDouble(finalize_c(args.data())));
          });
      SAC_ASSIGN_OR_RETURN(
          result_elems,
          eng->ReduceByKey(
              input,
              [aggs_c](const Value& a, const Value& b) {
                ValueVec out;
                for (size_t k = 0; k < aggs_c.size(); ++k) {
                  out.push_back(runtime::VDouble(
                      ScalarMonoidApply(aggs_c[k].op, a.At(k).AsDouble(),
                                        b.At(k).AsDouble())));
                }
                return runtime::VTuple(std::move(out));
              },
              -1, {{pending}, finalize}));
    } else if (pending) {
      SAC_ASSIGN_OR_RETURN(
          result_elems,
          eng->MapPartitions(input, pending, "computeElements"));
    } else {
      result_elems = input;
    }

    QueryResult r;
    if (out_is_rdd) {
      SAC_ASSIGN_OR_RETURN(ValueVec rows, eng->Collect(result_elems));
      r.kind = QueryResult::Kind::kValue;
      r.value = Value::List(std::move(rows));
      return r;
    }
    if (out_is_vector) {
      // Assemble blocks: (i, v) -> (i/N, offsets) via groupByKey, keying
      // in its map-side tasks and building in its reduce tasks.
      const int64_t N = block, size = out_rows;
      const runtime::PartitionFn key_by_block =
          runtime::MapRows([N](const Value& row) {
            const int64_t i = row.At(0).AsInt();
            return VPair(VInt(i / N), VPair(VInt(i % N), row.At(1)));
          });
      const runtime::PartitionFn build_blocks =
          runtime::MapRows([N, size](const Value& row) {
            const int64_t bi = row.At(0).AsInt();
            la::Tile t(1, std::min(N, size - bi * N));
            for (const Value& kv : row.At(1).AsList()) {
              const int64_t off = kv.At(0).AsInt();
              if (off >= 0 && off < t.cols()) {
                t.Set(0, off, kv.At(1).AsDouble());
              }
            }
            return VPair(row.At(0), Value::TileVal(std::move(t)));
          });
      SAC_ASSIGN_OR_RETURN(
          Dataset blocks, eng->GroupByKey(result_elems, -1,
                                          {{key_by_block}, build_blocks}));
      r.kind = QueryResult::Kind::kBlockVector;
      r.vec = storage::BlockVector{out_rows, block, blocks};
      return r;
    }
    storage::CooMatrix coo{out_rows, out_cols, result_elems};
    SAC_ASSIGN_OR_RETURN(TiledMatrix m,
                         storage::TiledFromCoo(eng, coo, block));
    r.kind = QueryResult::Kind::kTiled;
    r.tiled = std::move(m);
    return r;
  };
  return q;
}

// ===========================================================================
// Local fallback
// ===========================================================================

Result<CompiledQuery> LocalFallbackPlan(const comp::ExprPtr& query,
                                        const Bindings& binds,
                                        const PlannerOptions& opts) {
  // Total cells across the distributed inputs this query mentions.
  int64_t cells = 0;
  for (const std::string& v : comp::FreeVars(query)) {
    auto it = binds.find(v);
    if (it == binds.end()) continue;
    switch (it->second.kind) {
      case Binding::Kind::kTiled:
        cells += it->second.tiled.rows * it->second.tiled.cols;
        break;
      case Binding::Kind::kBlockVector:
        cells += it->second.vec.size;
        break;
      case Binding::Kind::kCoo:
        cells += it->second.coo.rows * it->second.coo.cols;
        break;
      default:
        break;
    }
  }
  if (cells > opts.local_fallback_max_cells) {
    return Status::PlanError(
        "local fallback refused: inputs have " + std::to_string(cells) +
        " cells (limit " + std::to_string(opts.local_fallback_max_cells) +
        ")");
  }

  const Bindings bnds = binds;
  const comp::ExprPtr qy = query;
  CompiledQuery q;
  q.strategy = Strategy::kLocalFallback;
  q.explanation = "collected distributed inputs and ran the reference "
                  "evaluator (inputs small enough)";
  {
    PlanBuilder pb(query->pos);
    std::vector<PlanNodePtr> srcs;
    for (const std::string& v : comp::FreeVars(query)) {
      auto bit = binds.find(v);
      if (bit == binds.end() || !bit->second.is_distributed()) continue;
      const int key = bit->second.kind == Binding::Kind::kBlockVector ? 1 : 2;
      srcs.push_back(pb.Source(v, key, query->pos));
    }
    if (!srcs.empty()) {
      q.plan = pb.Collect(std::move(srcs));
      q.plan_nodes = pb.TakeNodes();
    }
  }
  q.run = [qy, bnds](Engine* eng) -> Result<QueryResult> {
    comp::Evaluator ev;
    int64_t block = 64;
    for (const auto& [name, b] : bnds) {
      switch (b.kind) {
        case Binding::Kind::kScalar:
        case Binding::Kind::kLocal:
          ev.Bind(name, b.value);
          break;
        case Binding::Kind::kTiled: {
          SAC_ASSIGN_OR_RETURN(ValueVec rows,
                               storage::SparsifyLocal(eng, b.tiled));
          ev.Bind(name, Value::List(std::move(rows)));
          block = b.tiled.block;
          break;
        }
        case Binding::Kind::kBlockVector: {
          SAC_ASSIGN_OR_RETURN(std::vector<double> vec,
                               storage::ToLocalVector(eng, b.vec));
          ValueVec rows;
          for (size_t i = 0; i < vec.size(); ++i) {
            rows.push_back(VPair(VInt(static_cast<int64_t>(i)),
                                 runtime::VDouble(vec[i])));
          }
          ev.Bind(name, Value::List(std::move(rows)));
          block = b.vec.block;
          break;
        }
        case Binding::Kind::kCoo: {
          SAC_ASSIGN_OR_RETURN(ValueVec rows, eng->Collect(b.coo.entries));
          ev.Bind(name, Value::List(std::move(rows)));
          break;
        }
      }
    }
    SAC_ASSIGN_OR_RETURN(Value v, ev.Eval(qy));
    QueryResult r;
    // Re-distribute tiled results so callers see the declared storage.
    if (qy->kind == Expr::Kind::kBuild && qy->str_val == "tiled") {
      if (v.is_tile()) {
        SAC_ASSIGN_OR_RETURN(TiledMatrix m,
                             storage::FromLocal(eng, v.AsTile(), block));
        r.kind = QueryResult::Kind::kTiled;
        r.tiled = std::move(m);
        return r;
      }
      if (v.is_list()) {
        std::vector<double> dense(v.AsList().size());
        for (size_t i = 0; i < dense.size(); ++i) {
          dense[i] = v.AsList()[i].At(1).AsDouble();
        }
        SAC_ASSIGN_OR_RETURN(storage::BlockVector bv,
                             storage::VectorFromLocal(eng, dense, block));
        r.kind = QueryResult::Kind::kBlockVector;
        r.vec = std::move(bv);
        return r;
      }
    }
    r.kind = QueryResult::Kind::kValue;
    r.value = std::move(v);
    return r;
  };
  return q;
}

}  // namespace sac::planner
