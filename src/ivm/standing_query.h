// StandingQuery — incremental view maintenance over the Theorem G.3 pass.
//
// A standing query materializes the GHD upward pass once — the executor
// YannakakisSolve runs (internal::UpwardPass, faq/solvers.h), with the
// post-elimination message each non-root node sends its parent kept in a
// message cache — then keeps the answer current under batched base-relation
// deltas (ivm/delta.h) at a cost proportional to the delta and the key runs
// it touches, not the database. Two maintenance modes, chosen per query at
// creation:
//
//  * Ring propagation (exact rings — Natural, GF2 — with all-⊕ bound
//    variables): the delta's net change C (base_new = base_old ⊕ C) is
//    pushed along the touched node's root path. Every operator in the pass
//    is ⊕-linear in each argument — Join(A ⊕ C, B) = Join(A, B) ⊕
//    Join(C, B) by distributivity, Eliminate/Project commute with ⊕ — so at
//    each node the incremental term is Join(Δchild, every *other* input at
//    its current value), eliminated exactly as the full pass would, folded
//    into the stored message, and forwarded. One root-to-leaf path of
//    delta-sized joins; untouched subtrees are never visited. Bit-identity
//    vs full recompute holds because ⊕/⊗ in these rings are exact and
//    order-free, and every materialized state stays in canonical form.
//
//  * Affected-subtree recompute (everything else — idempotent semirings
//    like Boolean/MinPlus/MaxProduct, inexact Counting, or min/max bound
//    aggregates): deletions have no additive inverse (or no exact one), so
//    the nodes on the touched root path rerun through the same executor
//    (per-node step, then the root finisher), reusing the cached messages
//    of every clean subtree. Identical ops on byte-identical inputs give
//    byte-identical outputs — bit-identity is unconditional here.
//
// Delta application is deliberately NOT cancellable: a cancel observed
// mid-propagation would leave messages half-updated. Deltas are small by
// admission (server/subscribe.h); cancellation stays a one-shot-query
// feature, and contexts passed to ApplyDelta must carry no cancel token
// (the engine clears it).
#ifndef TOPOFAQ_IVM_STANDING_QUERY_H_
#define TOPOFAQ_IVM_STANDING_QUERY_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "faq/solvers.h"
#include "ivm/delta.h"

namespace topofaq {

/// Maintenance counters, cumulative over the standing query's lifetime.
struct StandingStats {
  int64_t deltas_applied = 0;    ///< non-empty deltas admitted and applied
  int64_t ring_deltas = 0;       ///< took the ring propagation path
  int64_t recompute_deltas = 0;  ///< took the affected-subtree recompute
  int64_t nodes_updated = 0;     ///< GHD nodes whose state was recomputed/folded
  int64_t nodes_reused = 0;      ///< clean nodes whose cached message was reused
};

template <CommutativeSemiring S>
class StandingQuery {
 public:
  using Semiring = S;

  /// Plans q through the shared PlanCache (identical keys to
  /// YannakakisSolve — a standing query warms the same plan one-shot
  /// queries hit) and runs the full pass once. Fails with
  /// FailedPrecondition when F ⊈ V(C(H)) (Appendix G.5): standing queries
  /// have no brute-force fallback, because only the GHD pass has
  /// incrementally maintainable state.
  static Result<StandingQuery> Create(FaqQuery<S> q,
                                      ExecContext* ctx = nullptr) {
    TOPOFAQ_RETURN_IF_ERROR(q.Validate());
    auto w = PlanCache::Shared().PlanFor(q.hypergraph, q.free_vars);
    if (!w.ok()) return w.status();
    StandingQuery sq;
    sq.q_ = std::move(q);
    sq.gg_ = std::move(w->decomposition);
    const Ghd& ghd = sq.gg_.ghd;
    sq.node_of_relation_.assign(sq.q_.relations.size(), -1);
    for (int v = 0; v < ghd.num_nodes(); ++v) {
      const int e = ghd.node(v).edge_id;
      if (e >= 0) sq.node_of_relation_[static_cast<size_t>(e)] = v;
    }
    for (int node : sq.node_of_relation_)
      if (node < 0)
        return Status::Internal("decomposition covers no node for an edge");
    // Ring propagation needs exact additive inverses AND ⊕-linear
    // eliminations: any bound min/max aggregate forces recompute mode.
    sq.ring_mode_ = RingTraits<S>::kIsRing && RingTraits<S>::kExact;
    if (sq.ring_mode_) {
      for (VarId v = 0;
           v < static_cast<VarId>(sq.q_.hypergraph.num_vertices()); ++v) {
        const bool is_free =
            std::find(sq.q_.free_vars.begin(), sq.q_.free_vars.end(), v) !=
            sq.q_.free_vars.end();
        if (!is_free && sq.q_.hypergraph.Degree(v) > 0 &&
            sq.q_.OpFor(v) != VarOp::kSemiringSum)
          sq.ring_mode_ = false;
      }
    }
    TOPOFAQ_RETURN_IF_ERROR(sq.Recompute(-1, ctx));
    return sq;
  }

  /// The current answer over F, canonical. Repeatable; never recomputes.
  const Relation<S>& Current() const { return answer_; }

  const FaqQuery<S>& query() const { return q_; }
  bool ring_mode() const { return ring_mode_; }
  const StandingStats& stats() const { return stats_; }
  const GyoGhd& decomposition() const { return gg_; }

  /// Applies one batched delta to relation `relation_id` and brings the
  /// answer current. Both halves are canonicalized here; empty deltas are
  /// free. NOT thread-safe: callers serialize (server/subscribe.h holds a
  /// per-session mutex).
  Status ApplyDelta(int relation_id, Delta<S> d, ExecContext* ctx = nullptr) {
    if (relation_id < 0 ||
        relation_id >= static_cast<int>(q_.relations.size()))
      return Status::InvalidArgument("delta targets unknown relation " +
                                     std::to_string(relation_id));
    Relation<S>& base = q_.relations[static_cast<size_t>(relation_id)];
    d.removes.Canonicalize(ctx);
    d.adds.Canonicalize(ctx);
    if (!d.removes.empty() && !(d.removes.schema() == base.schema()))
      return Status::InvalidArgument("delta removes schema != base schema");
    if (!d.adds.empty() && !(d.adds.schema() == base.schema()))
      return Status::InvalidArgument("delta adds schema != base schema");
    if (d.empty()) return Status::Ok();
    ++stats_.deltas_applied;

    const int node = node_of_relation_[static_cast<size_t>(relation_id)];
    if constexpr (RingTraits<S>::kIsRing && RingTraits<S>::kExact) {
      if (ring_mode_) {
        // Net change first (it reads the pre-delta annotations), then the
        // shared base update, then push the change up the root path.
        Relation<S> change = NetChange(base, d.removes, d.adds, ctx);
        EraseMatching(&base, d.removes);
        AddInto(&base, d.adds, ctx);
        ++stats_.ring_deltas;
        if (change.empty()) return Status::Ok();
        PropagateRing(std::move(change), node, ctx);
        return Status::Ok();
      }
    }
    EraseMatching(&base, d.removes);
    AddInto(&base, d.adds, ctx);
    ++stats_.recompute_deltas;
    const Status st = Recompute(node, ctx);
    TOPOFAQ_CHECK_MSG(st.ok(), "delta application is not cancellable");
    return st;
  }

 private:
  StandingQuery() = default;

  /// The node's own input: its hyperedge's relation, or the unit scalar for
  /// the synthetic root.
  const Relation<S>& BaseOf(int v) {
    const int e = gg_.ghd.node(v).edge_id;
    if (e >= 0) return q_.relations[static_cast<size_t>(e)];
    if (unit_.empty()) unit_ = internal::UnitRelation<S>();
    return unit_;
  }

  /// Ring mode: walk the touched node's root path once. At each node the
  /// incremental term is the delta joined with every *other* input at its
  /// current value (⊕-linearity in the dirty argument); eliminate exactly
  /// as the full pass would, fold into the stored message, forward. Stops
  /// early when a term annihilates (⊕-cancellation or empty join).
  void PropagateRing(Relation<S> cur, int node, ExecContext* ctx) {
    const Ghd& ghd = gg_.ghd;
    int v = node;
    int from = -1;  // child the delta arrived from; -1 = v's own base
    for (;;) {
      ++stats_.nodes_updated;
      Relation<S> term = std::move(cur);
      if (from >= 0) term = Join(term, BaseOf(v), ctx);
      for (int c : ghd.node(v).children) {
        if (c == from) continue;
        term = Join(term, msgs_[static_cast<size_t>(c)], ctx);
      }
      if (v == ghd.root()) {
        term = internal::EliminateOutside(term, q_.free_vars, q_, ctx);
        AddInto(&answer_, Project(term, q_.free_vars, ctx), ctx);
        return;
      }
      term = internal::EliminateOutside(
          term, ghd.node(ghd.node(v).parent).chi, q_, ctx);
      if (term.empty()) return;  // nothing survives to the parent
      ReorderTo(&term, msgs_[static_cast<size_t>(v)].schema(), ctx);
      AddInto(&msgs_[static_cast<size_t>(v)], term, ctx);
      cur = std::move(term);
      from = v;
      v = ghd.node(v).parent;
    }
  }

  /// Runs the solver's executor over the message cache: every node when
  /// `touched` < 0 (creation); otherwise, in fallback mode, only the touched
  /// node's root path, reusing the cached message of every clean node —
  /// identical deterministic operators on byte-identical inputs.
  Status Recompute(int touched, ExecContext* ctx) {
    const Ghd& ghd = gg_.ghd;
    std::vector<char> dirty(static_cast<size_t>(ghd.num_nodes()), 0);
    for (int v = touched; v >= 0; v = ghd.node(v).parent)
      dirty[static_cast<size_t>(v)] = 1;
    const internal::MessageCache<S> cache{&msgs_, [&](int v) {
      if (touched < 0) return false;
      const bool clean = !dirty[static_cast<size_t>(v)];
      ++(clean ? stats_.nodes_reused : stats_.nodes_updated);
      return clean;
    }};
    if (touched >= 0) ++stats_.nodes_updated;  // the root always reruns
    auto answer = internal::UpwardPass(q_, ghd, ctx, &cache);
    if (!answer.ok()) return answer.status();
    answer_ = *std::move(answer);
    return Status::Ok();
  }

  FaqQuery<S> q_;  // relations mutate under deltas; shape is fixed
  GyoGhd gg_;
  std::vector<int> node_of_relation_;  // hyperedge id -> GHD node
  /// Post-elimination message per non-root node (root slot empty).
  std::vector<Relation<S>> msgs_;
  Relation<S> answer_;
  Relation<S> unit_;  // lazily built unit scalar for synthetic nodes
  bool ring_mode_ = false;
  StandingStats stats_;
};

}  // namespace topofaq

#endif  // TOPOFAQ_IVM_STANDING_QUERY_H_
