// Centralized FAQ solvers:
//
//  * BruteForceSolve — joins everything, then eliminates bound variables in
//    the canonical innermost-first order of Eq. (4). Exponential; the
//    ground-truth oracle for tests.
//  * YannakakisSolve — the GHD message-passing upward pass of Theorem G.3:
//    O~(N) for acyclic H, with aggregate push-down (Corollary G.2) at every
//    node, run by internal::UpwardPass — the executor StandingQuery
//    (ivm/standing_query.h) shares. A synthetic core root (Construction
//    2.8) is finished by JoinAndEliminate, like the distributed protocol's
//    sink, so a cyclic core runs through the worst-case-optimal
//    MultiwayJoin (relation/multiway.h) and peaks at its output, not at a
//    pairwise intermediate; every other node joins pairwise.
//
// Every solver threads one ExecContext through the sorted-relation kernel
// (relation/ops.h): operators reuse the context's scratch buffers and
// consume their inputs through typed column views (columnar storage,
// docs/kernel.md — Eliminate in particular never copies or even reads the
// eliminated columns), bound variables are eliminated in batches (one
// group-by per aggregate run instead of one per variable), and callers can
// read operator statistics off the context afterwards. Passing nullptr uses
// a thread-local context.
// Setting ctx->parallelism > 1 (or TOPOFAQ_PARALLELISM, which both the
// explicit and the thread-local context inherit) makes every pass's large
// joins and eliminations morsel-parallel with bit-identical results
// (docs/kernel.md, "Morsel-parallel execution").
#ifndef TOPOFAQ_FAQ_SOLVERS_H_
#define TOPOFAQ_FAQ_SOLVERS_H_

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "faq/query.h"
#include "ghd/plan_cache.h"
#include "ghd/width.h"
#include "relation/exec.h"
#include "relation/multiway.h"

namespace topofaq {

namespace internal {

/// Unit relation: empty schema, single empty tuple annotated 1.
template <CommutativeSemiring S>
Relation<S> UnitRelation() {
  Relation<S> r{Schema(std::vector<VarId>{})};
  r.Add(std::initializer_list<Value>{}, S::One());
  r.Canonicalize();  // one row, trivially sorted — certify so the unit can
                     // flow anywhere a canonical relation is required
  return r;
}

/// Eliminates `vars` from r with each variable's own aggregate, batched:
/// Eliminate() orders them descending (the Eq. (4) innermost-first order
/// restricted to this bag) and groups once per run of equal aggregates.
template <CommutativeSemiring S>
Relation<S> EliminateAll(const Relation<S>& r, std::vector<VarId> vars,
                         const FaqQuery<S>& q, ExecContext* ctx = nullptr) {
  std::vector<VarOp> ops;
  ops.reserve(vars.size());
  for (VarId v : vars) ops.push_back(q.OpFor(v));
  return Eliminate(r, std::move(vars), std::move(ops), ctx);
}

/// Eliminates every variable of r that is not in `keep`: with keep = F, the
/// bound ones; with keep = a GHD node's parent bag, those private to the
/// node's subtree (RIP: they occur nowhere above it).
template <CommutativeSemiring S>
Relation<S> EliminateOutside(const Relation<S>& r,
                             const std::vector<VarId>& keep,
                             const FaqQuery<S>& q, ExecContext* ctx = nullptr) {
  std::vector<VarId> drop;
  for (VarId x : r.schema().vars())
    if (std::find(keep.begin(), keep.end(), x) == keep.end()) drop.push_back(x);
  return EliminateAll(r, std::move(drop), q, ctx);
}

/// Joins a bag of relations and eliminates their bound variables, working
/// one variable-connected component at a time.
///
/// Correctness of the component reordering (Theorem G.1): components share
/// no variables (hence no relations), so the ⊗-product of the inputs
/// factorizes over components, every bound-variable aggregate ⊕(i) commutes
/// past the factors that do not mention variable i (the Theorem G.1
/// push-down condition, trivially met across components), and the final
/// cross-combination of the reduced components is the same function as
/// joining everything first and eliminating afterwards — without ever
/// materializing cross products of unreduced inputs.
///
/// Within a component the join plan is routed by shape: a component of >= 3
/// relations goes through the worst-case-optimal MultiwayJoin, whose peak
/// materialization is its output (every *cyclic* component has >= 3 edges —
/// any two-edge hypergraph is GYO-reducible — so cyclic cores never pay the
/// pairwise chain's super-AGM intermediates). One- and two-relation
/// components keep the pairwise sort-merge Join, which also survives as the
/// differential-test oracle for the multiway path (tests/multiway_test.cc).
template <CommutativeSemiring S>
Relation<S> JoinAndEliminate(std::vector<Relation<S>> parts,
                             const FaqQuery<S>& q, ExecContext* ctx = nullptr) {
  // Union-find over parts keyed by variable: each variable remembers the
  // first part it appeared in and every later occurrence unions with it —
  // O(total arity) pairings instead of the old O(parts²) pairwise
  // schema-intersection scan.
  std::vector<int> comp(parts.size());
  for (size_t i = 0; i < parts.size(); ++i) comp[i] = static_cast<int>(i);
  std::function<int(int)> find = [&](int x) {
    return comp[x] == x ? x : comp[x] = find(comp[x]);
  };
  std::unordered_map<VarId, int> var_part;
  var_part.reserve(parts.size() * 2);
  for (size_t i = 0; i < parts.size(); ++i)
    for (VarId v : parts[i].schema().vars()) {
      auto [it, inserted] = var_part.emplace(v, static_cast<int>(i));
      if (!inserted) comp[find(static_cast<int>(i))] = find(it->second);
    }

  Relation<S> acc = UnitRelation<S>();
  for (size_t root = 0; root < parts.size(); ++root) {
    if (find(static_cast<int>(root)) != static_cast<int>(root)) continue;
    std::vector<Relation<S>> members;
    for (size_t i = 0; i < parts.size(); ++i)
      if (find(static_cast<int>(i)) == static_cast<int>(root))
        members.push_back(std::move(parts[i]));
    Relation<S> part;
    if (members.size() >= 3) {
      part = MultiwayJoin(std::move(members), ctx);
    } else {
      part = UnitRelation<S>();
      for (Relation<S>& m : members) part = Join(part, m, ctx);
    }
    part = EliminateOutside(part, q.free_vars, q, ctx);
    acc = Join(acc, part, ctx);  // disjoint schemas: scalar/cross combination
  }
  return acc;
}

/// The per-node step: node v's base (its hyperedge's relation; the unit
/// scalar for a synthetic bag) joined pairwise with its children's messages,
/// then every variable outside `keep` eliminated (Corollary G.2). `release`
/// drops each child's message once it has been joined.
template <CommutativeSemiring S>
Relation<S> NodeStep(const FaqQuery<S>& q, const Ghd& ghd, int v,
                     const std::vector<VarId>& keep,
                     std::vector<Relation<S>>* msgs, bool release,
                     ExecContext* ctx) {
  const GhdNode& node = ghd.node(v);
  const Relation<S> unit =
      node.edge_id < 0 ? UnitRelation<S>() : Relation<S>();
  const Relation<S>* acc =
      node.edge_id < 0 ? &unit
                       : &q.relations[static_cast<size_t>(node.edge_id)];
  Relation<S> joined;
  for (int c : node.children) {
    joined = Join(*acc, (*msgs)[static_cast<size_t>(c)], ctx);
    acc = &joined;
    if (release) (*msgs)[static_cast<size_t>(c)] = Relation<S>();
  }
  return EliminateOutside(*acc, keep, q, ctx);
}

/// The root finisher: a synthetic core root (edge_id < 0) hands its
/// children's messages to JoinAndEliminate, so a cyclic core runs multiway;
/// a root carrying a real edge (acyclic H) takes the pairwise per-node step.
template <CommutativeSemiring S>
Relation<S> FinishRoot(const FaqQuery<S>& q, const Ghd& ghd,
                       std::vector<Relation<S>>* msgs, bool release,
                       ExecContext* ctx) {
  const GhdNode& root = ghd.node(ghd.root());
  if (root.edge_id >= 0)
    return Project(
        NodeStep(q, ghd, ghd.root(), q.free_vars, msgs, release, ctx),
        q.free_vars, ctx);
  std::vector<Relation<S>> parts;
  parts.reserve(root.children.size());
  for (int c : root.children) {
    Relation<S>& m = (*msgs)[static_cast<size_t>(c)];
    parts.push_back(release ? std::move(m) : m);
  }
  return Project(JoinAndEliminate(std::move(parts), q, ctx), q.free_vars,
                 ctx);
}

/// IVM's hook into UpwardPass: a caller-owned cache of one message per GHD
/// node, kept after the pass, and `reuse(v)` — true when node v's cached
/// message is still valid (null: recompute every node).
template <CommutativeSemiring S>
struct MessageCache {
  std::vector<Relation<S>>* msgs = nullptr;
  std::function<bool(int)> reuse;
};

/// The Theorem G.3 upward pass: bottom-up, each non-root node's message is
/// its per-node step keeping the parent's bag; then the root finisher.
/// Without a cache a message lives only until its parent has joined it.
/// Fails when F ⊈ χ(root) (Appendix G.5), and with Status::Cancelled when
/// the context's token fires: checked at every node boundary (a node is the
/// pass's natural morsel; parallel operators also check per morsel), so
/// right before the root finisher, and after it.
template <CommutativeSemiring S>
Result<Relation<S>> UpwardPass(const FaqQuery<S>& q, const Ghd& ghd,
                               ExecContext* ctx,
                               const MessageCache<S>* cache = nullptr) {
  const auto& root_chi = ghd.node(ghd.root()).chi;
  for (VarId v : q.free_vars)
    if (!std::binary_search(root_chi.begin(), root_chi.end(), v))
      return Status::FailedPrecondition(
          "free variable " + std::to_string(v) +
          " outside V(C(H)): unsupported choice of F (Appendix G.5)");
  ExecContext& cx = ExecContext::Resolve(ctx);
  std::vector<Relation<S>> local;
  std::vector<Relation<S>>* msgs = cache != nullptr ? cache->msgs : &local;
  msgs->resize(static_cast<size_t>(ghd.num_nodes()));
  for (int v : ghd.BottomUpOrder()) {
    if (cx.cancelled()) return Status::Cancelled("query cancelled mid-pass");
    if (v == ghd.root()) break;  // the root comes last
    if (cache != nullptr && cache->reuse && cache->reuse(v)) continue;
    (*msgs)[static_cast<size_t>(v)] =
        NodeStep(q, ghd, v, ghd.node(ghd.node(v).parent).chi, msgs,
                 cache == nullptr, ctx);
  }
  Relation<S> answer = FinishRoot(q, ghd, msgs, cache == nullptr, ctx);
  if (cx.cancelled()) return Status::Cancelled("query cancelled mid-pass");
  return answer;
}

}  // namespace internal

/// Ground-truth solver. Returns a relation over exactly `free_vars`.
/// Cooperative cancellation: when the context carries a fired cancel token
/// (server/engine.h), returns Status::Cancelled — checked between operator
/// calls, plus at every morsel boundary inside parallel operators.
template <CommutativeSemiring S>
Result<Relation<S>> BruteForceSolve(const FaqQuery<S>& q,
                                    ExecContext* ctx = nullptr) {
  TOPOFAQ_RETURN_IF_ERROR(q.Validate());
  ExecContext& cx = ExecContext::Resolve(ctx);
  if (cx.cancelled()) return Status::Cancelled("query cancelled before solve");
  Relation<S> acc = internal::JoinAndEliminate(q.relations, q, ctx);
  if (cx.cancelled()) return Status::Cancelled("query cancelled mid-solve");
  return Project(acc, q.free_vars, ctx);
}

/// Theorem G.3 solver over a supplied decomposition; free variables must lie
/// in the root bag (F ⊆ V(C(H)), the Appendix G.5 restriction). Every join
/// and batched elimination of the pass shares `ctx`'s scratch buffers.
template <CommutativeSemiring S>
Result<Relation<S>> YannakakisSolveOn(const FaqQuery<S>& q, const GyoGhd& gg,
                                      ExecContext* ctx = nullptr) {
  TOPOFAQ_RETURN_IF_ERROR(q.Validate());
  return internal::UpwardPass(q, gg.ghd, ctx);
}

/// Theorem G.3 solver using the canonical minimized decomposition; when F is
/// non-empty the decomposition is re-rooted so that F ⊆ χ(root) whenever the
/// query shape permits it. Decompositions come from the process-wide
/// PlanCache (ghd/plan_cache.h), so repeated query shapes skip the
/// GYO/width search entirely — both lookup paths are deterministic, hence a
/// cache hit produces bit-identical plans and answers; the cache's
/// hit/miss counters are the observability surface (PlanCache::stats).
template <CommutativeSemiring S>
Result<Relation<S>> YannakakisSolve(const FaqQuery<S>& q,
                                    ExecContext* ctx = nullptr) {
  auto w = PlanCache::Shared().PlanFor(q.hypergraph, q.free_vars);
  if (!w.ok()) return w.status();
  return YannakakisSolveOn(q, w->decomposition, ctx);
}

/// Convenience for BCQ: true iff the query is satisfiable.
inline Result<bool> SolveBcq(const FaqQuery<BooleanSemiring>& q,
                             ExecContext* ctx = nullptr) {
  auto r = YannakakisSolve(q, ctx);
  if (!r.ok()) return r.status();
  return !r->empty();
}

}  // namespace topofaq

#endif  // TOPOFAQ_FAQ_SOLVERS_H_
