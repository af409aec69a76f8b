// A bound query of one request kind, its reference answer, and the direct
// layer calls the traced run compares the engine against.
#ifndef E2EBENCH_KINDS_H_
#define E2EBENCH_KINDS_H_

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "faq/solvers.h"
#include "server/engine.h"

namespace e2e {

class BoundKind {
 public:
  BoundKind(std::string name, bool cyclic)
      : name_(std::move(name)), cyclic_(cyclic) {}
  virtual ~BoundKind() = default;
  BoundKind(const BoundKind&) = delete;
  BoundKind& operator=(const BoundKind&) = delete;

  const std::string& name() const { return name_; }
  bool cyclic() const { return cyclic_; }
  /// Makes every later Matches() compare a corrupted copy of the answer.
  void set_corrupt(bool c) { corrupt_ = c; }

  /// A request carrying a copy of the bound query.
  virtual topofaq::QueryRequest Request() const = 0;
  /// Byte-compares an engine answer with the reference.
  virtual bool Matches(const topofaq::QueryResult& r) const = 0;
  /// The reference, by a different route than the engine's GHD pass:
  /// MultiwayJoin + Eliminate for cyclic shapes, atom-order variable
  /// elimination (Join + Eliminate) for acyclic ones.
  virtual void ComputeReference(int parallelism) = 0;
  /// Direct YannakakisSolve at `parallelism`; checks the answer.
  virtual double DirectSolveMs(int parallelism, bool* ok) const = 0;
  /// Direct MultiwayJoin + Eliminate at `parallelism`; checks the answer.
  virtual double DirectBestMs(int parallelism, bool* ok) const = 0;
  virtual const topofaq::Hypergraph& hypergraph() const = 0;
  virtual const std::vector<topofaq::VarId>& free_vars() const = 0;

 protected:
  std::string name_;
  bool cyclic_;
  bool corrupt_ = false;
};

template <topofaq::CommutativeSemiring S>
class TypedKind : public BoundKind {
 public:
  TypedKind(std::string name, bool cyclic, topofaq::FaqQuery<S> q)
      : BoundKind(std::move(name), cyclic), q_(std::move(q)) {}

  const topofaq::FaqQuery<S>& query() const { return q_; }
  const topofaq::Relation<S>& reference() const { return ref_; }

  topofaq::QueryRequest Request() const override {
    topofaq::QueryRequest req;
    req.query = q_;
    return req;
  }

  bool Matches(const topofaq::QueryResult& r) const override {
    const auto* ans = std::get_if<topofaq::Relation<S>>(&r.answer);
    return ans != nullptr && MatchesRelation(*ans);
  }

  bool MatchesRelation(const topofaq::Relation<S>& ans) const {
    return CheckAnswer(ans, ref_, corrupt_);
  }

  void ComputeReference(int parallelism) override {
    topofaq::ExecContext ctx;
    ctx.parallelism = parallelism;
    ref_ = cyclic_ ? MultiwayRoute(&ctx) : EliminationRoute(&ctx);
  }

  double DirectSolveMs(int parallelism, bool* ok) const override {
    topofaq::ExecContext ctx;
    ctx.parallelism = parallelism;
    const TimePoint t0 = Clock::now();
    auto r = topofaq::YannakakisSolve(q_, &ctx);
    const double ms = MsBetween(t0, Clock::now());
    *ok = r.ok() && BytesEqual(*r, ref_);
    return ms;
  }

  double DirectBestMs(int parallelism, bool* ok) const override {
    topofaq::ExecContext ctx;
    ctx.parallelism = parallelism;
    const TimePoint t0 = Clock::now();
    topofaq::Relation<S> r = MultiwayRoute(&ctx);
    const double ms = MsBetween(t0, Clock::now());
    *ok = BytesEqual(r, ref_);
    return ms;
  }

  const topofaq::Hypergraph& hypergraph() const override {
    return q_.hypergraph;
  }
  const std::vector<topofaq::VarId>& free_vars() const override {
    return q_.free_vars;
  }

 private:
  bool IsFree(topofaq::VarId v) const {
    return std::find(q_.free_vars.begin(), q_.free_vars.end(), v) !=
           q_.free_vars.end();
  }

  topofaq::Relation<S> EliminateBound(topofaq::Relation<S> r,
                                      const std::vector<topofaq::VarId>& keep,
                                      topofaq::ExecContext* ctx) const {
    std::vector<topofaq::VarId> vars;
    std::vector<topofaq::VarOp> ops;
    for (topofaq::VarId v : r.schema().vars())
      if (!IsFree(v) &&
          std::find(keep.begin(), keep.end(), v) == keep.end()) {
        vars.push_back(v);
        ops.push_back(q_.OpFor(v));
      }
    if (vars.empty()) return r;
    return topofaq::Eliminate(r, std::move(vars), std::move(ops), ctx);
  }

  topofaq::Relation<S> MultiwayRoute(topofaq::ExecContext* ctx) const {
    topofaq::Relation<S> all = topofaq::MultiwayJoin(q_.relations, ctx);
    all = EliminateBound(std::move(all), {}, ctx);
    return topofaq::Project(all, q_.free_vars, ctx);
  }

  /// Joins atoms in written order, eliminating each bound variable as soon
  /// as no later atom mentions it.
  topofaq::Relation<S> EliminationRoute(topofaq::ExecContext* ctx) const {
    const int m = q_.hypergraph.num_edges();
    topofaq::Relation<S> acc = q_.relations[0];
    for (int e = 0; e < m; ++e) {
      if (e > 0) acc = topofaq::Join(acc, q_.relations[e], ctx);
      std::vector<topofaq::VarId> later;
      for (int f = e + 1; f < m; ++f)
        for (topofaq::VarId v : q_.hypergraph.edge(f)) later.push_back(v);
      acc = EliminateBound(std::move(acc), later, ctx);
    }
    return topofaq::Project(acc, q_.free_vars, ctx);
  }

  topofaq::FaqQuery<S> q_;
  topofaq::Relation<S> ref_;
};

/// Binds `rels` to `parsed` through InstantiateQuery and wraps the result;
/// `instantiate_ms` receives the InstantiateQuery time.
template <topofaq::CommutativeSemiring S>
std::unique_ptr<TypedKind<S>> BindKind(const std::string& name, bool cyclic,
                                       const topofaq::ParsedQuery& parsed,
                                       std::vector<topofaq::Relation<S>> rels,
                                       double* instantiate_ms) {
  const TimePoint t0 = Clock::now();
  auto q = topofaq::InstantiateQuery<S>(parsed, std::move(rels));
  *instantiate_ms = MsBetween(t0, Clock::now());
  if (!q.ok()) {
    std::fprintf(stderr, "binding %s failed: %s\n", name.c_str(),
                 q.status().ToString().c_str());
    std::exit(3);
  }
  return std::make_unique<TypedKind<S>>(name, cyclic, *std::move(q));
}

}  // namespace e2e

#endif  // E2EBENCH_KINDS_H_
