// Workload `analytic`: one closed-loop client, engine parallelism = nproc,
// cycling through five query shapes bound once at setup. Each request
// submits a copy of a bound query to Engine::Solve; the relation kernel does
// nearly all the work, so this is where join, multiway, eliminate and sort
// changes show.
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ghd/plan_cache.h"
#include "kinds.h"
#include "layers.h"
#include "workloads.h"

namespace e2e {

using topofaq::BooleanSemiring;
using topofaq::NaturalSemiring;

namespace {

struct ShapeSpec {
  const char* kind;
  const char* text;
  bool boolean;  ///< Boolean semiring (BCQ) instead of Natural (counting)
  bool cyclic;
  size_t rows;
  /// Per atom, per written column: domain size and skew exponent.
  std::vector<std::vector<uint64_t>> domains;
  std::vector<std::vector<double>> skews;
};

std::vector<ShapeSpec> Specs(bool small) {
  const size_t n = small ? 10000 : 100000;
  const uint64_t s = small ? 10 : 1;  // domain divisor for small runs
  auto same = [](size_t atoms, std::vector<uint64_t> d) {
    return std::vector<std::vector<uint64_t>>(atoms, d);
  };
  auto flat = [](size_t atoms, size_t arity) {
    return std::vector<std::vector<double>>(atoms,
                                            std::vector<double>(arity, 1.0));
  };
  std::vector<ShapeSpec> v;
  // Skewed triangle: power-law on every column, so heavy keys meet heavy
  // keys and the pairwise intermediate grows super-linearly.
  v.push_back({"tri", "q() :- R(A,B), S(B,C), T(A,C)", false, true, n,
               same(3, {60000 / s, 60000 / s}),
               std::vector<std::vector<double>>(3, {2.0, 2.0})});
  v.push_back({"cycle4", "q() :- R(A,B), S(B,C), T(C,D), U(D,A)", true, true, n,
               same(4, {60000 / s, 60000 / s}), flat(4, 2)});
  v.push_back({"lw4",
               "q() :- R(A,B,C), S(B,C,D), T(A,C,D), U(A,B,D)", false, true, n,
               same(4, {small ? 46u : 160u, small ? 46u : 160u,
                        small ? 46u : 160u}),
               flat(4, 3)});
  v.push_back({"path", "q(D) :- R(A,B), S(B,C), T(C,D)", false, false, n,
               same(3, {10000 / s, 10000 / s}), flat(3, 2)});
  // Skewed free centre A, prefix-ordered and sort-free: the control.
  v.push_back({"star", "q(A) :- R(A,B), S(A,C), T(A,D)", false, false, n,
               same(3, {10000 / s, 100000 / s}),
               std::vector<std::vector<double>>(3, {2.0, 1.0})});
  return v;
}

using Kinds = std::vector<std::unique_ptr<BoundKind>>;

struct LoopResult {
  std::vector<KindSamples> samples;
  std::vector<double> gaps_ms;  ///< client time between answer and next submit
  int64_t completed = 0;
  int64_t heavy_done = 0;
  double elapsed_s = 0.0;
};

/// Closed loop over the shapes, round-robin, each shape capped at an equal
/// share of `seconds`. With `tr`, every request is tagged and logged.
LoopResult RunLoop(topofaq::Engine& engine, const Kinds& kinds, double seconds,
                   TracedRun* tr, Report* rep) {
  LoopResult out;
  const size_t nk = kinds.size();
  out.samples.resize(nk);
  for (size_t k = 0; k < nk; ++k) out.samples[k].kind = kinds[k]->name();
  const double share_ms = 1000.0 * seconds / static_cast<double>(nk);
  std::vector<double> used(nk, 0.0);
  const TimePoint begin = Clock::now();
  TimePoint prev_done = begin;
  static int64_t next_id = 0;
  for (size_t turn = 0;; ++turn) {
    size_t k = nk;
    for (size_t j = 0; j < nk; ++j) {
      const size_t c = (turn + j) % nk;
      if (used[c] < share_ms) {
        k = c;
        turn += j;
        break;
      }
    }
    if (k == nk) break;
    topofaq::QueryRequest req = kinds[k]->Request();
    const int64_t id = ++next_id;
    if (tr != nullptr) req.tag = "a" + std::to_string(id);
    const std::string tag = req.tag;
    const TimePoint t0 = Clock::now();
    out.gaps_ms.push_back(MsBetween(prev_done, t0));
    auto r = engine.Solve(std::move(req));
    const TimePoint t1 = Clock::now();
    prev_done = t1;
    const double ms = MsBetween(t0, t1);
    used[k] += ms;
    ++rep->attempted;
    if (!r.ok()) {
      ++rep->failed;
      continue;
    }
    ++out.completed;
    if (r->klass == topofaq::QueueClass::kHeavy) ++out.heavy_done;
    out.samples[k].ms.push_back(ms);
    if (!kinds[k]->Matches(*r))
      rep->Fail("analytic: " + kinds[k]->name() + " answer differs from reference");
    if (tr != nullptr) {
      TracedRequest t;
      t.id = id;
      t.kind = kinds[k]->name();
      t.tag = tag;
      t.primary = true;
      t.start = t0;
      t.end = t1;
      tr->log.Add(std::move(t));
      tr->kernels.push_back(r->kernel);
    }
  }
  out.elapsed_s = SecondsSince(begin);
  return out;
}

double MedianOf(int reps, const std::function<double()>& f) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) v.push_back(f());
  return Median(v);
}

}  // namespace

Report RunAnalytic(const Options& opt) {
  Report rep;
  const std::vector<ShapeSpec> specs = Specs(opt.small);
  topofaq::Rng rng(opt.seed);
  std::vector<std::vector<RawRelation>> raws;
  for (const ShapeSpec& sp : specs) {
    raws.emplace_back();
    const size_t atoms = sp.domains.size();
    for (size_t a = 0; a < atoms; ++a)
      raws.back().push_back(GenRelation(&rng, sp.rows, sp.domains[a], sp.skews[a]));
  }

  // Set-up: ingest, parse + bind, engine start, one cold request per shape.
  // Repeated (cold plan cache each time) and reported as the median.
  Kinds kinds;
  std::unique_ptr<topofaq::Engine> engine;
  std::vector<double> setups_s, canon_ms, parse_us, inst_ms;
  const int setup_reps = opt.trace ? 1 : 5;
  for (int rep_i = 0; rep_i < setup_reps; ++rep_i) {
    engine.reset();
    kinds.clear();
    topofaq::PlanCache::Shared().Clear();
    const TimePoint t0 = Clock::now();
    double canon = 0.0;
    for (size_t i = 0; i < specs.size(); ++i) {
      const ShapeSpec& sp = specs[i];
      TimePoint tp = Clock::now();
      const topofaq::ParsedQuery parsed = MustParse(sp.text);
      parse_us.push_back(1000.0 * MsBetween(tp, Clock::now()));
      double ims = 0.0;
      if (sp.boolean) {
        std::vector<topofaq::Relation<BooleanSemiring>> rels;
        tp = Clock::now();
        for (const RawRelation& raw : raws[i]) rels.push_back(Ingest<BooleanSemiring>(raw));
        canon += MsBetween(tp, Clock::now());
        kinds.push_back(BindKind<BooleanSemiring>(sp.kind, sp.cyclic, parsed,
                                                  std::move(rels), &ims));
      } else {
        std::vector<topofaq::Relation<NaturalSemiring>> rels;
        tp = Clock::now();
        for (const RawRelation& raw : raws[i]) rels.push_back(Ingest<NaturalSemiring>(raw));
        canon += MsBetween(tp, Clock::now());
        kinds.push_back(BindKind<NaturalSemiring>(sp.kind, sp.cyclic, parsed,
                                                  std::move(rels), &ims));
      }
      inst_ms.push_back(ims);
    }
    canon_ms.push_back(canon);
    topofaq::EngineOptions eo;
    eo.parallelism = opt.nproc;
    engine = std::make_unique<topofaq::Engine>(eo);
    for (const auto& k : kinds) {
      auto r = engine->Solve(k->Request());
      if (!r.ok()) {
        std::fprintf(stderr, "analytic warm-up %s failed: %s\n",
                     k->name().c_str(), r.status().ToString().c_str());
        std::exit(3);
      }
    }
    setups_s.push_back(SecondsSince(t0));
  }
  for (const auto& k : kinds) {
    k->ComputeReference(opt.nproc);
    k->set_corrupt(opt.corrupt);
  }

  if (!opt.trace) {
    const LoopResult lr = RunLoop(*engine, kinds, opt.seconds, nullptr, &rep);
    AddEndToEnd(&rep, lr.samples,
                static_cast<double>(lr.completed) / lr.elapsed_s, setups_s);
    return rep;
  }

  // Traced mode: untraced half, traced half, then the direct layer calls.
  Layers L;
  const topofaq::EngineStats before = engine->stats();
  const LoopResult plain = RunLoop(*engine, kinds, opt.seconds / 2, nullptr, &rep);
  TracedRun tr;
  tr.parallelism = opt.nproc;
  engine->EnableTracing();
  const LoopResult traced = RunLoop(*engine, kinds, opt.seconds / 2, &tr, &rep);
  tr.session = engine->DisableTracing();
  const topofaq::EngineStats after = engine->stats();
  FinishTraced(&rep, &L, &tr, opt.out_dir + "/analytic_spans.json");

  std::vector<double> overhead, over_direct, speedup, miss_us, forest_ms;
  for (size_t k = 0; k < kinds.size(); ++k) {
    const BoundKind& kind = *kinds[k];
    const double engine_ms = Median(plain.samples[k].ms);
    overhead.push_back(Median(traced.samples[k].ms) / engine_ms);
    bool ok = true;
    const double direct = MedianOf(3, [&] {
      bool o = true;
      const double ms = kind.DirectSolveMs(opt.nproc, &o);
      ok = ok && o;
      return ms;
    });
    const double serial = MedianOf(3, [&] {
      bool o = true;
      const double ms = kind.DirectSolveMs(1, &o);
      ok = ok && o;
      return ms;
    });
    over_direct.push_back(engine_ms / direct);
    speedup.push_back(serial / direct);
    rep.Named("faq.e2e_over_direct." + kind.name(), engine_ms / direct, "ratio");
    rep.Named("relation.par_speedup." + kind.name(), serial / direct, "ratio");
    if (kind.cyclic()) {
      const double best = MedianOf(3, [&] {
        bool o = true;
        const double ms = kind.DirectBestMs(opt.nproc, &o);
        ok = ok && o;
        return ms;
      });
      rep.Named("relation.e2e_over_best." + kind.name(), engine_ms / best,
                "ratio", "engine " + std::to_string(engine_ms) + " ms");
      if (kind.name() == "tri") L.relation_e2e_over_best_tri = engine_ms / best;
    }
    if (!ok) rep.Fail("analytic: direct route of " + kind.name() + " differs");
    for (int i = 0; i < 3; ++i)
      TimePlanning(kind.hypergraph(), kind.free_vars(), &miss_us, &forest_ms);
  }
  std::vector<double> gaps = plain.gaps_ms;
  gaps.insert(gaps.end(), traced.gaps_ms.begin(), traced.gaps_ms.end());
  L.loadgen_lag_p99_ms = Percentile(gaps, 99);
  L.faq_parse_us = Median(parse_us);
  L.faq_instantiate_ms = Median(inst_ms);
  L.faq_e2e_over_direct = Geomean(over_direct);
  L.relation_par_speedup = Geomean(speedup);
  L.relation_canonicalize_ms = Median(canon_ms);
  L.ghd_plan_miss_us = Median(miss_us);
  L.ghd_core_forest_ms = Median(forest_ms);
  const double hits = static_cast<double>(after.plan_cache.hits - before.plan_cache.hits);
  const double misses =
      static_cast<double>(after.plan_cache.misses - before.plan_cache.misses);
  L.ghd_plan_hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  L.server_heavy_done = static_cast<double>(plain.heavy_done + traced.heavy_done) /
                        (plain.elapsed_s + traced.elapsed_s);
  L.obs_trace_overhead_frac = Geomean(overhead) - 1.0;
  EmitLayers(&rep, L);
  return rep;
}

}  // namespace e2e
