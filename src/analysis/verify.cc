#include "src/analysis/verify.h"

#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace sac::analysis {

using planner::PlanNode;
using planner::PlanNodePtr;

namespace {

std::string NodeDesc(const PlanNode& n) {
  std::string s = planner::PlanOpName(n.op);
  if (n.op == PlanNode::Op::kSource) return s + "[" + n.source + "]";
  if (!n.label.empty()) return s + "[" + n.label + "]";
  return s;
}

Status Violation(const PlanNode& n, const std::string& what) {
  return Status::PlanError("plan invariant violated at " + NodeDesc(n) +
                           ": " + what);
}

/// Expected input count: {min, max}.
std::pair<int, int> InputArity(PlanNode::Op op) {
  switch (op) {
    case PlanNode::Op::kSource:
      return {0, 0};
    case PlanNode::Op::kMap:
    case PlanNode::Op::kFlatMap:
    case PlanNode::Op::kFilter:
    case PlanNode::Op::kMapPartitions:
    case PlanNode::Op::kReduceByKey:
    case PlanNode::Op::kGroupByKey:
    case PlanNode::Op::kPartitionBy:
      return {1, 1};
    case PlanNode::Op::kJoin:
    case PlanNode::Op::kCoGroup:
    case PlanNode::Op::kUnion:
      return {2, 2};
    case PlanNode::Op::kCollect:
      return {1, 1 << 20};
  }
  return {0, 1 << 20};
}

bool IsNarrow(PlanNode::Op op) {
  return op == PlanNode::Op::kMap || op == PlanNode::Op::kFlatMap ||
         op == PlanNode::Op::kFilter || op == PlanNode::Op::kMapPartitions;
}

/// DFS cycle detection with an explicit stack (0 = white, 1 = on the
/// current path, 2 = done).
Status CheckAcyclic(const std::vector<PlanNodePtr>& roots) {
  std::unordered_map<const PlanNode*, int> color;
  for (const PlanNodePtr& root : roots) {
    if (root == nullptr || color[root.get()] == 2) continue;
    struct Frame {
      const PlanNode* node;
      size_t next_input;
    };
    std::vector<Frame> stack{{root.get(), 0}};
    color[root.get()] = 1;
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (f.next_input >= f.node->inputs.size()) {
        color[f.node] = 2;
        stack.pop_back();
        continue;
      }
      const PlanNode* in = f.node->inputs[f.next_input++].get();
      if (in == nullptr) continue;
      const int c = color[in];
      if (c == 1) {
        return Violation(*f.node, "cycle through input " + NodeDesc(*in));
      }
      if (c == 0) {
        color[in] = 1;
        stack.push_back(Frame{in, 0});
      }
    }
  }
  return Status::OK();
}

}  // namespace

Status VerifyPlan(const PlanGraph& g) {
  if (g.root == nullptr) {
    if (!g.nodes.empty()) {
      return Status::PlanError(
          "plan invariant violated: creation record has " +
          std::to_string(g.nodes.size()) + " nodes but the plan has no root");
    }
    return Status::OK();
  }

  SAC_RETURN_NOT_OK(CheckAcyclic({g.root}));
  SAC_RETURN_NOT_OK(CheckAcyclic(g.nodes));

  std::unordered_set<const PlanNode*> recorded;
  for (const PlanNodePtr& n : g.nodes) recorded.insert(n.get());

  // Walk everything reachable from the root plus all recorded nodes.
  std::unordered_set<const PlanNode*> seen;
  std::vector<const PlanNode*> stack{g.root.get()};
  for (const PlanNodePtr& n : g.nodes) stack.push_back(n.get());
  while (!stack.empty()) {
    const PlanNode* n = stack.back();
    stack.pop_back();
    if (!seen.insert(n).second) continue;

    if (recorded.count(n) == 0) {
      return Violation(*n, "node is reachable but missing from the plan's "
                           "creation record");
    }
    const auto [min_in, max_in] = InputArity(n->op);
    const int nin = static_cast<int>(n->inputs.size());
    if (nin < min_in || nin > max_in) {
      return Violation(*n, "expected " + std::to_string(min_in) +
                               (max_in > min_in ? "+" : "") + " input(s), has " +
                               std::to_string(nin));
    }
    for (const PlanNodePtr& in : n->inputs) {
      if (in == nullptr) return Violation(*n, "null input");
      // A pipelined pre step's rows only exist inside a shuffle-write
      // task (runtime::Pipeline), so only a shuffle can consume them.
      if (in->fusion == PlanNode::Fusion::kPre && !n->is_shuffle()) {
        return Violation(*n, "consumes pipelined pre step " + NodeDesc(*in) +
                                 " without being a shuffle");
      }
      stack.push_back(in.get());
    }
    if (n->fusion != PlanNode::Fusion::kNone && !IsNarrow(n->op)) {
      return Violation(*n, "pipelined into a shuffle but not narrow");
    }
    if (n->fusion == PlanNode::Fusion::kPre && n == g.root.get()) {
      return Violation(*n, "pipelined pre step is the plan's result");
    }
    if (n->fusion == PlanNode::Fusion::kPost &&
        !(n->inputs[0]->is_shuffle() ||
          n->inputs[0]->fusion == PlanNode::Fusion::kPost)) {
      return Violation(*n, "pipelined post step does not follow a shuffle");
    }

    if (n->op == PlanNode::Op::kSource && n->source.empty()) {
      return Violation(*n, "source node without a binding name");
    }
    if (n->key_arity < 0) {
      return Violation(*n, "negative key arity");
    }
    if (n->is_shuffle()) {
      if (n->key_arity < 1) {
        return Violation(*n, "shuffle with unkeyed rows (key_arity == 0)");
      }
      for (const PlanNodePtr& in : n->inputs) {
        if (in->key_arity != n->key_arity) {
          return Violation(
              *n, "key arity " + std::to_string(n->key_arity) +
                      " disagrees with input " + NodeDesc(*in) + " (key " +
                      std::to_string(in->key_arity) + ")");
        }
      }
    }
    if (n->preserves_partitioning && !IsNarrow(n->op)) {
      return Violation(*n, "preserves_partitioning on a non-narrow operator");
    }
    if (n->folds_group) {
      bool grouped_input = false;
      for (const PlanNodePtr& in : n->inputs) {
        if (in->op == PlanNode::Op::kGroupByKey ||
            in->op == PlanNode::Op::kCoGroup) {
          grouped_input = true;
        }
      }
      if (!grouped_input) {
        return Violation(*n, "folds_group without a groupByKey/cogroup input");
      }
    }
  }
  return Status::OK();
}

}  // namespace sac::analysis
