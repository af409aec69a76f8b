// Workload `protocol_sim`: one client runs a fixed list of paper instances
// (query family × topology, after the rows of the paper's Table 1)
// sequentially, each through the synchronous round ledger
// (RunCoreForestProtocol) and the event-driven simulator
// (RunCoreForestProtocolAsync) with a page budget small enough that
// backpressure engages. Instance shapes and topologies are fixed; the seed
// picks the data. Both answers must equal the engine's answer to the same
// query text.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "ghd/plan_cache.h"
#include "graphalg/topologies.h"
#include "hypergraph/generators.h"
#include "kinds.h"
#include "layers.h"
#include "lowerbounds/bounds.h"
#include "protocols/async.h"
#include "protocols/distributed.h"
#include "workloads.h"

namespace e2e {

using topofaq::BooleanSemiring;
using topofaq::NaturalSemiring;

namespace {

/// One fixed instance: a query shape (as text), its topology, and how its
/// data is drawn.
struct InstanceSpec {
  std::string name;
  std::string text;
  bool boolean;
  bool cyclic;
  topofaq::Graph topology;
  uint64_t domain;
  double skew;
};

/// Query text for hypergraph `h` with free variables `free`: atom i is
/// "E<i>" over its edge's variables "V<v>".
std::string TextFor(const topofaq::Hypergraph& h, const std::vector<int>& free) {
  auto var = [](int v) { return "V" + std::to_string(v); };
  std::string t = "q(";
  for (size_t i = 0; i < free.size(); ++i) t += (i ? "," : "") + var(free[i]);
  t += ") :- ";
  for (int e = 0; e < h.num_edges(); ++e) {
    t += (e ? ", E" : "E") + std::to_string(e) + "(";
    const auto& vs = h.edge(e);
    for (size_t j = 0; j < vs.size(); ++j) t += (j ? "," : "") + var(static_cast<int>(vs[j]));
    t += ")";
  }
  return t;
}

std::vector<InstanceSpec> Specs(bool small) {
  const uint64_t d = small ? 1000 : 50000;
  topofaq::Rng shapes(0x7ab1e1);  // fixed: the instance list never changes
  std::vector<InstanceSpec> v;
  // Ex. 2.1/2.2: the star query H1 on the line G1 — the Θ(N)-round row.
  v.push_back({"star_line", "q() :- R(A,B), S(A,C), T(A,D), U(A,E)", false, false,
               topofaq::LineTopology(5), d, 1.0});
  // Table 1 row 3: a d-degenerate BCQ on a grid.
  const topofaq::Hypergraph degen = topofaq::RandomDDegenerate(6, 2, &shapes);
  v.push_back({"degenerate_grid", TextFor(degen, {}), true, true,
               topofaq::GridTopology(3, 3), d, 1.0});
  // Table 1 row 2: an acyclic FAQ with a free variable on a random graph.
  const topofaq::Hypergraph acyc = topofaq::RandomAcyclicHypergraph(6, 3, &shapes);
  v.push_back({"acyclic_random", TextFor(acyc, {static_cast<int>(acyc.edge(0)[0])}),
               false, false, topofaq::RandomConnectedTopology(8, 4, &shapes), d, 1.0});
  // A triangle on a clique: the cyclic core at its smallest.
  v.push_back({"tri_clique", "q() :- R(A,B), S(B,C), T(A,C)", false, true,
               topofaq::CliqueTopology(4), 2 * d, 1.5});
  return v;
}

/// Protocol runs of one instance, type-erased over the semiring.
class Instance {
 public:
  virtual ~Instance() = default;
  virtual const BoundKind& kind() const = 0;
  /// Runs one protocol and fills `st`; `ran` reports whether it returned an
  /// answer, `match` whether that answer equals the reference.
  virtual double Run(bool async, topofaq::ProtocolStats* st, bool* ran,
                     bool* match) const = 0;
  /// The engine's answer, taken as the reference both protocols must match.
  virtual bool SetReference(const topofaq::QueryResult& r) = 0;
  virtual int64_t LowerBound() const = 0;
};

/// Pages of 256 rows under a budget of two pages per node, so the async
/// transport's backpressure engages.
topofaq::AsyncProtocolOptions AsyncOptions(int parallelism) {
  topofaq::AsyncProtocolOptions o;
  o.parallelism = parallelism;
  o.stream.page_rows = 256;
  o.stream.node_page_budget = 2;
  return o;
}

topofaq::CoreForestOptions SyncOptions(int parallelism) {
  topofaq::CoreForestOptions o;
  o.parallelism = parallelism;
  return o;
}

template <topofaq::CommutativeSemiring S>
class TypedInstance : public Instance {
 public:
  TypedInstance(std::unique_ptr<TypedKind<S>> kind, const topofaq::Graph& g,
                int parallelism, bool corrupt)
      : kind_(std::move(kind)), parallelism_(parallelism), corrupt_(corrupt) {
    inst_.query = kind_->query();
    inst_.topology = g;
    const int m = inst_.query.hypergraph.num_edges();
    const int players = std::min(m, g.num_nodes() - 1);
    inst_.owners = topofaq::RoundRobinOwners(m, players);
    inst_.sink = g.num_nodes() - 1;
  }

  const BoundKind& kind() const override { return *kind_; }

  double Run(bool async, topofaq::ProtocolStats* st, bool* ran,
             bool* match) const override {
    const TimePoint t0 = Clock::now();
    auto r = async
                 ? topofaq::RunCoreForestProtocolAsync(inst_, AsyncOptions(parallelism_))
                 : topofaq::RunCoreForestProtocol(inst_, SyncOptions(parallelism_));
    const double ms = MsBetween(t0, Clock::now());
    *ran = r.ok();
    *match = r.ok() && CheckAnswer(r->answer, ref_, corrupt_);
    if (r.ok()) *st = r->stats;
    return ms;
  }

  bool SetReference(const topofaq::QueryResult& r) override {
    const auto* a = std::get_if<topofaq::Relation<S>>(&r.answer);
    if (a == nullptr) return false;
    ref_ = *a;
    kind_->ComputeReference(1);
    return BytesEqual(ref_, kind_->reference());
  }

  int64_t LowerBound() const override {
    return topofaq::ComputeBounds(inst_.query.hypergraph, inst_.topology,
                                  inst_.Players(), inst_.query.MaxRelationSize())
        .lower_bound;
  }

 private:
  std::unique_ptr<TypedKind<S>> kind_;
  topofaq::DistInstance<S> inst_;
  topofaq::Relation<S> ref_;
  int parallelism_;
  bool corrupt_;
};

struct PassResult {
  std::vector<KindSamples> samples;  ///< per instance × {sync, async}
  std::vector<topofaq::ProtocolStats> last;  ///< per kind, last run
  int64_t runs = 0;
  double elapsed_s = 0.0;
  std::vector<double> pass_s;
  std::vector<double> gaps_ms;  ///< client time between one run and the next
};

/// Passes over the instance list until `seconds` have elapsed (at least one
/// full pass). With `tr`, every protocol call is logged as a request, and
/// one engine Solve per instance per pass rides along as the primary
/// (engine-path) request.
PassResult RunPasses(const std::vector<std::unique_ptr<Instance>>& insts,
                     topofaq::Engine& engine, double seconds, TracedRun* tr,
                     Report* rep) {
  PassResult out;
  for (const auto& in : insts)
    for (const char* mode : {"sync", "async"})
      out.samples.push_back({in->kind().name() + "." + mode, {}});
  out.last.resize(out.samples.size());
  static int64_t next_id = 0;
  const TimePoint begin = Clock::now();
  TimePoint prev = begin;
  do {
    const TimePoint p0 = Clock::now();
    for (size_t i = 0; i < insts.size(); ++i) {
      for (int a = 0; a < 2; ++a) {
        const size_t k = 2 * i + static_cast<size_t>(a);
        bool ran = false, match = false;
        const TimePoint t0 = Clock::now();
        const double ms = insts[i]->Run(a == 1, &out.last[k], &ran, &match);
        const TimePoint t1 = Clock::now();
        out.gaps_ms.push_back(MsBetween(prev, t0));
        prev = t1;
        ++rep->attempted;
        if (!ran) {
          ++rep->failed;
          continue;
        }
        ++out.runs;
        if (!match)
          rep->Fail("protocol_sim: " + out.samples[k].kind + " answer differs from the engine's");
        out.samples[k].ms.push_back(ms);
        if (tr != nullptr) {
          TracedRequest t;
          t.id = ++next_id;
          t.kind = out.samples[k].kind;
          t.start = t0;
          t.end = t1;
          t.spans = {{"protocols", a ? "protocols.async" : "protocols.sync", t0, t1}};
          tr->log.Add(std::move(t));
        }
      }
      if (tr != nullptr) {
        topofaq::QueryRequest req = insts[i]->kind().Request();
        const int64_t id = ++next_id;
        req.tag = "e" + std::to_string(id);
        const std::string tag = req.tag;
        const TimePoint t0 = Clock::now();
        auto r = engine.Solve(std::move(req));
        const TimePoint t1 = Clock::now();
        ++rep->attempted;
        if (!r.ok()) {
          ++rep->failed;
          continue;
        }
        if (!insts[i]->kind().Matches(*r)) rep->Fail("protocol_sim: engine answer changed");
        TracedRequest t;
        t.id = id;
        t.kind = insts[i]->kind().name() + ".engine";
        t.tag = tag;
        t.primary = true;
        t.start = t0;
        t.end = t1;
        tr->log.Add(std::move(t));
        tr->kernels.push_back(r->kernel);
        prev = Clock::now();
      }
    }
    out.pass_s.push_back(SecondsSince(p0));
  } while (SecondsSince(begin) < seconds);
  out.elapsed_s = SecondsSince(begin);
  return out;
}

}  // namespace

Report RunProtocolSim(const Options& opt) {
  Report rep;
  const std::vector<InstanceSpec> specs = Specs(opt.small);
  const size_t rows = opt.small ? 1000 : 50000;
  topofaq::Rng rng(opt.seed);
  std::vector<topofaq::ParsedQuery> parsed;
  std::vector<std::vector<RawRelation>> raws;
  for (const InstanceSpec& sp : specs) {
    parsed.push_back(MustParse(sp.text));
    raws.emplace_back();
    for (const auto& atom : parsed.back().atoms)
      raws.back().push_back(GenRelation(&rng, rows,
                                        std::vector<uint64_t>(atom.vars.size(), sp.domain),
                                        std::vector<double>(atom.vars.size(), sp.skew)));
  }

  std::vector<std::unique_ptr<Instance>> insts;
  std::unique_ptr<topofaq::Engine> engine;
  std::vector<double> setups_s, canon_ms, parse_us, inst_ms;
  std::vector<topofaq::QueryResult> refs;
  const int setup_reps = opt.trace ? 1 : 5;
  for (int rep_i = 0; rep_i < setup_reps; ++rep_i) {
    engine.reset();
    insts.clear();
    refs.clear();
    topofaq::PlanCache::Shared().Clear();
    const TimePoint t0 = Clock::now();
    double canon = 0.0;
    for (size_t i = 0; i < specs.size(); ++i) {
      const InstanceSpec& sp = specs[i];
      TimePoint tp = Clock::now();
      const topofaq::ParsedQuery p = MustParse(sp.text);
      parse_us.push_back(1000.0 * MsBetween(tp, Clock::now()));
      double ims = 0.0;
      tp = Clock::now();
      if (sp.boolean) {
        std::vector<topofaq::Relation<BooleanSemiring>> rels;
        for (const RawRelation& raw : raws[i]) rels.push_back(Ingest<BooleanSemiring>(raw));
        canon += MsBetween(tp, Clock::now());
        insts.push_back(std::make_unique<TypedInstance<BooleanSemiring>>(
            BindKind<BooleanSemiring>(sp.name, sp.cyclic, p, std::move(rels), &ims),
            sp.topology, opt.nproc, opt.corrupt));
      } else {
        std::vector<topofaq::Relation<NaturalSemiring>> rels;
        for (const RawRelation& raw : raws[i]) rels.push_back(Ingest<NaturalSemiring>(raw));
        canon += MsBetween(tp, Clock::now());
        insts.push_back(std::make_unique<TypedInstance<NaturalSemiring>>(
            BindKind<NaturalSemiring>(sp.name, sp.cyclic, p, std::move(rels), &ims),
            sp.topology, opt.nproc, opt.corrupt));
      }
      inst_ms.push_back(ims);
    }
    canon_ms.push_back(canon);
    topofaq::EngineOptions eo;
    eo.parallelism = opt.nproc;
    engine = std::make_unique<topofaq::Engine>(eo);
    for (const auto& in : insts) {
      auto r = engine->Solve(in->kind().Request());
      if (!r.ok()) {
        std::fprintf(stderr, "protocol_sim: engine failed on %s: %s\n",
                     in->kind().name().c_str(), r.status().ToString().c_str());
        std::exit(3);
      }
      refs.push_back(*std::move(r));
    }
    setups_s.push_back(SecondsSince(t0));
  }
  // The engine answer is the reference; it must itself agree with the
  // kinds' own route (MultiwayJoin + Eliminate, or atom-order elimination).
  for (size_t i = 0; i < insts.size(); ++i)
    if (!insts[i]->SetReference(refs[i]))
      rep.Fail("protocol_sim: engine answer for " + insts[i]->kind().name() +
               " differs from the direct route");

  auto sums = [&](const PassResult& pr, Layers* L) {
    double rounds = 0, makespan = 0, pages = 0, bits = 0, peak = 0, enc = 0, plain = 0,
           util = 0, rows_out = 0;
    std::vector<double> over_lb, async_over_sync;
    for (size_t i = 0; i < insts.size(); ++i) {
      const topofaq::ProtocolStats& s = pr.last[2 * i];
      const topofaq::ProtocolStats& a = pr.last[2 * i + 1];
      rounds += static_cast<double>(s.rounds);
      makespan += a.makespan;
      pages += static_cast<double>(a.pages);
      bits += static_cast<double>(a.total_bits);
      peak = std::max(peak, static_cast<double>(a.max_in_flight_pages));
      enc += static_cast<double>(a.payload_bits_encoded);
      plain += static_cast<double>(a.payload_bits_plain);
      util = std::max(util, a.max_edge_utilization);
      rows_out += static_cast<double>(s.kernel.rows_out + a.kernel.rows_out);
      const int64_t lb = insts[i]->LowerBound();
      if (lb > 0) over_lb.push_back(static_cast<double>(s.rounds) / static_cast<double>(lb));
      async_over_sync.push_back(Median(pr.samples[2 * i + 1].ms) /
                                Median(pr.samples[2 * i].ms));
    }
    rep.Named("rounds_sum", rounds, "rounds", "sync ledger");
    rep.Named("makespan_sum", makespan, "simtime", "async simulator");
    if (L == nullptr) return;
    L->protocols_rounds_sum = rounds;
    L->protocols_rounds_over_lb = Geomean(over_lb);
    L->protocols_kernel_rows_out = rows_out;
    L->protocols_async_over_sync = Geomean(async_over_sync);
    L->network_makespan_sum = makespan;
    L->network_pages = pages;
    L->network_total_bits = bits;
    L->network_max_in_flight_pages = peak;
    L->network_payload_ratio = plain > 0 ? enc / plain : 0.0;
    L->network_max_edge_util = util;
  };

  if (!opt.trace) {
    const PassResult pr = RunPasses(insts, *engine, opt.seconds, nullptr, &rep);
    rep.Named("sim_pass_s", Median(pr.pass_s), "s", "n=" + std::to_string(pr.pass_s.size()));
    sums(pr, nullptr);
    AddEndToEnd(&rep, pr.samples, static_cast<double>(pr.runs) / pr.elapsed_s, setups_s);
    return rep;
  }

  Layers L;
  const topofaq::EngineStats before = engine->stats();
  const PassResult plain = RunPasses(insts, *engine, opt.seconds / 2, nullptr, &rep);
  TracedRun tr;
  tr.parallelism = opt.nproc;
  engine->EnableTracing();
  const PassResult traced = RunPasses(insts, *engine, opt.seconds / 2, &tr, &rep);
  tr.session = engine->DisableTracing();
  const topofaq::EngineStats after = engine->stats();
  FinishTraced(&rep, &L, &tr, opt.out_dir + "/protocol_sim_spans.json");
  sums(plain, &L);

  std::vector<double> overhead;
  for (size_t k = 0; k < plain.samples.size(); ++k)
    overhead.push_back(Median(traced.samples[k].ms) / Median(plain.samples[k].ms));
  L.obs_trace_overhead_frac = Geomean(overhead) - 1.0;

  bool ok = true;
  std::vector<double> over_direct, speedup, miss_us, forest_ms;
  for (const auto& in : insts) {
    const BoundKind& kind = in->kind();
    std::vector<double> eng, direct, serial;
    for (int r = 0; r < 3; ++r) {
      const TimePoint t0 = Clock::now();
      auto res = engine->Solve(kind.Request());
      eng.push_back(MsBetween(t0, Clock::now()));
      ok = ok && res.ok() && kind.Matches(*res);
      bool o1 = true, o2 = true;
      direct.push_back(kind.DirectSolveMs(opt.nproc, &o1));
      serial.push_back(kind.DirectSolveMs(1, &o2));
      ok = ok && o1 && o2;
    }
    over_direct.push_back(Median(eng) / Median(direct));
    speedup.push_back(Median(serial) / Median(direct));
    if (kind.name() == "tri_clique") {
      std::vector<double> best;
      for (int r = 0; r < 3; ++r) {
        bool o = true;
        best.push_back(kind.DirectBestMs(opt.nproc, &o));
        ok = ok && o;
      }
      L.relation_e2e_over_best_tri = Median(eng) / Median(best);
      rep.Named("relation.e2e_over_best.tri", L.relation_e2e_over_best_tri, "ratio",
                "tri_clique through the engine");
    }
    for (int r = 0; r < 3; ++r)
      TimePlanning(kind.hypergraph(), kind.free_vars(), &miss_us, &forest_ms);
  }
  if (!ok) rep.Fail("protocol_sim: a direct route disagrees with the reference");
  std::vector<double> gaps = plain.gaps_ms;
  gaps.insert(gaps.end(), traced.gaps_ms.begin(), traced.gaps_ms.end());
  L.loadgen_lag_p99_ms = Percentile(gaps, 99);
  L.faq_parse_us = Median(parse_us);
  L.faq_instantiate_ms = Median(inst_ms);
  L.faq_e2e_over_direct = Geomean(over_direct);
  L.relation_canonicalize_ms = Median(canon_ms);
  L.relation_par_speedup = Geomean(speedup);
  L.ghd_plan_miss_us = Median(miss_us);
  L.ghd_core_forest_ms = Median(forest_ms);
  const double hits = static_cast<double>(after.plan_cache.hits - before.plan_cache.hits);
  const double misses =
      static_cast<double>(after.plan_cache.misses - before.plan_cache.misses);
  L.ghd_plan_hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  EmitLayers(&rep, L);
  return rep;
}

}  // namespace e2e
