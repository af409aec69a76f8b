// Workload `serve`: engine parallelism 1, 2 dispatchers, 1 heavy slot, and
// three concurrent streams in one process:
//
//  1. open-loop point lookups: query text bound to stored relations on every
//     request (parse → InstantiateQuery → Solve), shapes drawn Zipf-wise
//     from a pool larger than the PlanCache (128 entries);
//  2. open-loop StandingSession::ApplyDelta batches on one Natural-ring
//     path-4 subscription, alternating the root relation and the far leaf;
//  3. one closed-loop client keeping a heavy cyclic query (a skewed
//     triangle) in flight.
//
// Latencies are timed from each request's due time. After a main phase at
// fixed rates, closed-loop clients saturate the point path to measure its
// throughput, with the delta and heavy streams still running.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ghd/plan_cache.h"
#include "kinds.h"
#include "layers.h"
#include "workloads.h"

namespace e2e {

using topofaq::NaturalSemiring;
using NRel = topofaq::Relation<NaturalSemiring>;

namespace {

struct Sizes {
  int store_rels = 8;
  size_t store_rows = 20000;
  uint64_t store_domain = 20000;
  int pool = 256;
  size_t sub_rows = 25000;
  uint64_t sub_domain = 25000;
  size_t heavy_rows = 100000;
  uint64_t heavy_domain = 60000;
  /// Main-phase rates, low enough that the dispatcher serving points and
  /// deltas stays under a fifth busy: a root delta's median and tail then
  /// stay in the no-wait mode instead of flipping between waiting and not
  /// waiting from run to run, and queueing does not amplify machine noise.
  double point_rate = 15.0;  ///< point lookups per second
  double delta_rate = 6.0;   ///< delta batches per second
  size_t delta_half = 50;    ///< removes and adds per batch
  int clients = 8;
};

Sizes SizesFor(bool small) {
  Sizes s;
  if (small) {
    s.store_rows = 2000;
    s.store_domain = 2000;
    s.pool = 160;
    s.sub_rows = 2500;
    s.sub_domain = 2500;
    s.heavy_rows = 10000;
    s.heavy_domain = 6000;
  }
  return s;
}

const char* const kSubText = "q(A) :- R0(A,B), R1(B,C), R2(C,D), R3(D,E)";
const char* const kHeavyText = "q() :- R(A,B), S(B,C), T(A,C)";
constexpr int kRootRel = 0;  // R0 holds the free variable: the root bag
constexpr int kLeafRel = 3;  // R3: the far leaf

/// One pool shape: a random tree-shaped count query (F = ∅) over the store.
struct PoolEntry {
  std::string text;
  std::vector<int> store_ids;  ///< per atom
  NRel ref;
};

/// A random tree of `atoms` binary atoms, written in a connected order with
/// random column orientation, over randomly chosen stored relations.
PoolEntry RandomTreeQuery(topofaq::Rng* rng, int atoms, int store_rels) {
  PoolEntry e;
  e.text = "q() :- ";
  for (int v = 1; v <= atoms; ++v) {
    const int parent = static_cast<int>(rng->NextU64(static_cast<uint64_t>(v)));
    const int rel = static_cast<int>(rng->NextU64(static_cast<uint64_t>(store_rels)));
    e.store_ids.push_back(rel);
    std::string a = "V" + std::to_string(parent), b = "V" + std::to_string(v);
    if (rng->NextBool()) std::swap(a, b);
    if (v > 1) e.text += ", ";
    e.text += "P" + std::to_string(rel) + "(" + a + "," + b + ")";
  }
  return e;
}

/// Tuples of one subscription relation, mirrored so the final answer can be
/// recomputed from scratch.
struct Mirror {
  std::unordered_map<uint64_t, uint64_t> counts;  ///< (a << 32 | b) → annot
  std::vector<uint64_t> keys;                     ///< may hold erased keys
};

uint64_t Key(topofaq::Value a, topofaq::Value b) { return (a << 32) | b; }

NRel FromMirror(const Mirror& m, const topofaq::Schema& schema) {
  NRel r{schema};
  for (const auto& [k, c] : m.counts) r.Add({k >> 32, k & 0xffffffffu}, c);
  r.Canonicalize();
  return r;
}

struct PointRecord {
  size_t entry = 0;
  TimePoint due, done;
  double solve_ms = 0.0;  ///< Submit → answer
  double exec_ms = 0.0;   ///< QueryResult::exec_ms: the dispatcher's time
  double lag_ms = 0.0;    ///< due → picked up by a client thread
  double parse_us = 0.0;
  double inst_ms = 0.0;
  bool ok = false;
};

struct DeltaRecord {
  int rel = 0;
  TimePoint due, done;
  double call_ms = 0.0;  ///< ApplyDelta call → return
  bool ok = false;
};

struct HeavyRecord {
  TimePoint start;
  double ms = 0.0;
  bool ok = false;
};

/// Everything the streams share.
struct Serve {
  const Options* opt = nullptr;
  Sizes sz;
  std::vector<NRel> store;
  std::vector<PoolEntry> pool;
  std::vector<double> zipf_cdf;     ///< over ranks
  std::vector<size_t> rank_to_entry;
  std::unique_ptr<TypedKind<NaturalSemiring>> heavy;
  std::unique_ptr<topofaq::Engine> engine;
  std::shared_ptr<topofaq::StandingSession> sub;
  topofaq::FaqQuery<NaturalSemiring> sub_query;  ///< as bound at subscribe
  Mirror mirror[2];            ///< R0 and R3
  Report* rep = nullptr;
  std::mutex rep_mu;           ///< guards rep->Fail from stream threads
  std::atomic<TracedRun*> tr{nullptr};  ///< non-null while tracing
  std::atomic<int64_t> next_id{0};

  void Fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(rep_mu);
    rep->Fail(what);
  }
};

/// One point lookup, end to end: parse, bind copies of the stored
/// relations, Solve, check.
PointRecord RunPoint(Serve& sv, size_t entry, TimePoint due) {
  PointRecord rec;
  rec.entry = entry;
  rec.due = due;
  const PoolEntry& pe = sv.pool[entry];
  const TimePoint pick = Clock::now();
  auto parsed = topofaq::ParseQuery(pe.text);
  const TimePoint t_parse = Clock::now();
  std::vector<NRel> rels;
  for (int id : pe.store_ids) rels.push_back(sv.store[static_cast<size_t>(id)]);
  const TimePoint t_copy = Clock::now();
  auto q = topofaq::InstantiateQuery<NaturalSemiring>(*parsed, std::move(rels));
  const TimePoint t_inst = Clock::now();
  rec.lag_ms = MsBetween(due, pick);
  rec.parse_us = 1000.0 * MsBetween(pick, t_parse);
  rec.inst_ms = MsBetween(t_copy, t_inst);
  topofaq::QueryRequest req;
  req.query = *std::move(q);
  const int64_t id = ++sv.next_id;
  TracedRun* tr = sv.tr.load();
  if (tr != nullptr) req.tag = "p" + std::to_string(id);
  const std::string tag = req.tag;
  const TimePoint submit = Clock::now();
  auto r = sv.engine->Solve(std::move(req));
  rec.done = Clock::now();
  rec.solve_ms = MsBetween(submit, rec.done);
  rec.ok = r.ok();
  if (r.ok()) rec.exec_ms = r->exec_ms;
  if (r.ok() && !CheckAnswer(r->answer_as<NaturalSemiring>(), pe.ref, sv.opt->corrupt))
    sv.Fail("serve: point answer differs from reference for '" + pe.text + "'");
  if (tr != nullptr && r.ok()) {
    TracedRequest t;
    t.id = id;
    t.kind = "point";
    t.tag = tag;
    t.primary = true;
    t.start = due;
    t.end = rec.done;
    t.anchor = submit;
    t.spans = {{"loadgen", "loadgen.lag", due, pick},
               {"faq", "faq.parse", pick, t_parse},
               {"faq", "faq.copy_inputs", t_parse, t_copy},
               {"faq", "faq.instantiate", t_copy, t_inst}};
    {
      std::lock_guard<std::mutex> lock(sv.rep_mu);
      tr->kernels.push_back(r->kernel);
    }
    tr->log.Add(std::move(t));
  }
  return rec;
}

struct PointPhase {
  std::vector<PointRecord> recs;
  TimePoint end;
};

/// `n` pool entries drawn Zipf-wise from the seed and `stream`.
std::vector<size_t> DrawEntries(const Serve& sv, size_t n, uint64_t stream) {
  topofaq::Rng rng(sv.opt->seed * 1000003u + stream);
  std::vector<size_t> entries(n);
  for (size_t& e : entries) {
    const double u = rng.NextDouble();
    const size_t rank = static_cast<size_t>(
        std::lower_bound(sv.zipf_cdf.begin(), sv.zipf_cdf.end(), u) -
        sv.zipf_cdf.begin());
    e = sv.rank_to_entry[std::min(rank, sv.rank_to_entry.size() - 1)];
  }
  return entries;
}

/// Open-loop point lookups at `rate` for `seconds`: a generator releases
/// requests at their due times to a pool of client threads.
PointPhase RunPoints(Serve& sv, double rate, double seconds, uint64_t stream) {
  PointPhase out;
  const size_t n = static_cast<size_t>(rate * seconds);
  const std::vector<size_t> entries = DrawEntries(sv, n, stream);

  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<size_t, TimePoint>> queue;
  bool closed = false;
  std::vector<PointRecord> recs;
  auto worker = [&] {
    for (;;) {
      std::pair<size_t, TimePoint> job;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return closed || !queue.empty(); });
        if (queue.empty()) return;
        job = queue.front();
        queue.pop_front();
      }
      PointRecord rec = RunPoint(sv, job.first, job.second);
      std::lock_guard<std::mutex> lock(mu);
      recs.push_back(rec);
    }
  };
  std::vector<std::thread> clients;
  for (int i = 0; i < sv.sz.clients; ++i) clients.emplace_back(worker);

  const TimePoint t0 = Clock::now() + std::chrono::milliseconds(2);
  const auto step = std::chrono::duration<double>(1.0 / rate);
  for (size_t i = 0; i < n; ++i) {
    const TimePoint due =
        t0 + std::chrono::duration_cast<Clock::duration>(step * static_cast<double>(i));
    std::this_thread::sleep_until(due);
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.emplace_back(entries[i], due);
    }
    cv.notify_one();
  }
  out.end = t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
  std::this_thread::sleep_until(out.end);
  {
    std::lock_guard<std::mutex> lock(mu);
    closed = true;
  }
  cv.notify_all();
  for (std::thread& t : clients) t.join();
  out.recs = std::move(recs);
  return out;
}

/// The delta stream: open loop at sz.delta_rate until `stop`, alternating
/// root and leaf batches of sz.delta_half removes + sz.delta_half adds.
void DeltaStream(Serve& sv, std::atomic<bool>* stop, uint64_t stream,
                 std::vector<DeltaRecord>* out) {
  topofaq::Rng rng(sv.opt->seed * 7919u + stream);
  const auto step = std::chrono::duration<double>(1.0 / sv.sz.delta_rate);
  const TimePoint t0 = Clock::now();
  for (size_t i = 0; !stop->load(); ++i) {
    const int slot = static_cast<int>(i % 2);
    const int rel = slot == 0 ? kRootRel : kLeafRel;
    Mirror& m = sv.mirror[slot];
    const topofaq::Schema schema =
        sv.sub_query.relations[static_cast<size_t>(rel)].schema();
    topofaq::Delta<NaturalSemiring> d;
    d.removes = NRel{schema};
    d.adds = NRel{schema};
    std::vector<uint64_t> removed, added;
    std::unordered_set<uint64_t> chosen;
    while (removed.size() < sv.sz.delta_half) {
      const uint64_t k = m.keys[rng.NextU64(m.keys.size())];
      if (m.counts.count(k) == 0 || !chosen.insert(k).second) continue;
      removed.push_back(k);
      d.removes.Add({k >> 32, k & 0xffffffffu}, 1);
    }
    for (size_t j = 0; j < sv.sz.delta_half; ++j) {
      const uint64_t k = Key(rng.NextU64(sv.sz.sub_domain), rng.NextU64(sv.sz.sub_domain));
      added.push_back(k);
      d.adds.Add({k >> 32, k & 0xffffffffu}, 1);
    }
    d.removes.Canonicalize();
    d.adds.Canonicalize();

    DeltaRecord rec;
    rec.rel = rel;
    rec.due = t0 + std::chrono::duration_cast<Clock::duration>(step * static_cast<double>(i));
    std::this_thread::sleep_until(rec.due);
    const TimePoint call = Clock::now();
    TracedRun* tr = sv.tr.load();
    auto r = sv.sub->ApplyDelta<NaturalSemiring>(rel, std::move(d));
    rec.done = Clock::now();
    rec.call_ms = MsBetween(call, rec.done);
    rec.ok = r.ok();
    out->push_back(rec);
    if (!r.ok()) continue;
    for (uint64_t k : removed) m.counts.erase(k);
    for (uint64_t k : added)
      if (m.counts[k]++ == 0) m.keys.push_back(k);
    if (tr != nullptr) {
      TracedRequest t;
      t.id = ++sv.next_id;
      t.kind = slot == 0 ? "delta_root" : "delta_leaf";
      t.delta = true;
      t.start = rec.due;
      t.end = rec.done;
      t.anchor = call;
      t.spans = {{"loadgen", "loadgen.lag", rec.due, call}};
      tr->log.Add(std::move(t));
    }
  }
}

/// The heavy stream: one closed-loop client until `stop`.
void HeavyStream(Serve& sv, std::atomic<bool>* stop, std::vector<HeavyRecord>* out) {
  while (!stop->load()) {
    topofaq::QueryRequest req = sv.heavy->Request();
    const int64_t id = ++sv.next_id;
    TracedRun* tr = sv.tr.load();
    if (tr != nullptr) req.tag = "h" + std::to_string(id);
    const std::string tag = req.tag;
    HeavyRecord rec;
    rec.start = Clock::now();
    auto r = sv.engine->Solve(std::move(req));
    const TimePoint done = Clock::now();
    rec.ms = MsBetween(rec.start, done);
    rec.ok = r.ok();
    out->push_back(rec);
    if (r.ok() && !sv.heavy->Matches(*r)) sv.Fail("serve: heavy answer differs");
    if (tr != nullptr && r.ok()) {
      TracedRequest t;
      t.id = id;
      t.kind = "heavy";
      t.tag = tag;
      t.start = rec.start;
      t.end = done;
      tr->log.Add(std::move(t));
    }
  }
}

/// Background streams (deltas + heavy) for the lifetime of this object.
class Background {
 public:
  Background(Serve& sv, uint64_t stream) {
    delta_ = std::thread([&sv, this, stream] { DeltaStream(sv, &stop_, stream, &deltas_); });
    heavy_ = std::thread([&sv, this] { HeavyStream(sv, &stop_, &heavies_); });
  }
  ~Background() { Stop(); }
  Background(const Background&) = delete;
  Background& operator=(const Background&) = delete;

  void Stop() {
    stop_.store(true);
    if (delta_.joinable()) delta_.join();
    if (heavy_.joinable()) heavy_.join();
  }
  const std::vector<DeltaRecord>& deltas() const { return deltas_; }
  const std::vector<HeavyRecord>& heavies() const { return heavies_; }

 private:
  std::atomic<bool> stop_{false};
  std::vector<DeltaRecord> deltas_;
  std::vector<HeavyRecord> heavies_;
  std::thread delta_;
  std::thread heavy_;
};

/// Latency samples of one phase, per kind: the phase's points, and the
/// background requests that started in [from, to).
std::vector<KindSamples> PhaseSamples(const PointPhase& pts, const Background& bg,
                                      TimePoint from, TimePoint to) {
  std::vector<KindSamples> k = {{"point", {}}, {"delta_root", {}},
                                {"delta_leaf", {}}, {"heavy", {}}};
  for (const PointRecord& r : pts.recs)
    if (r.ok) k[0].ms.push_back(MsBetween(r.due, r.done));
  for (const DeltaRecord& r : bg.deltas())
    if (r.ok && !(r.due < from) && r.due < to)
      k[r.rel == kRootRel ? 1 : 2].ms.push_back(MsBetween(r.due, r.done));
  for (const HeavyRecord& r : bg.heavies())
    if (r.ok && !(r.start < from) && r.start < to) k[3].ms.push_back(r.ms);
  return k;
}

/// Every background operation counts as attempted (and failed when it did).
void CountBackground(const Background& bg, Report* rep) {
  for (const DeltaRecord& r : bg.deltas()) {
    ++rep->attempted;
    if (!r.ok) ++rep->failed;
  }
  for (const HeavyRecord& r : bg.heavies()) {
    ++rep->attempted;
    if (!r.ok) ++rep->failed;
  }
}

void CountPoints(const PointPhase& ph, Report* rep) {
  for (const PointRecord& r : ph.recs) {
    ++rep->attempted;
    if (!r.ok) ++rep->failed;
  }
}

/// Point throughput at saturation: `clients` closed-loop client threads
/// issue point lookups back to back (shapes drawn from the same Zipf pool)
/// for `seconds`; returns the lookups answered per second within the
/// window. Deltas and the heavy stream keep running.
double SaturationRate(Serve& sv, double seconds, Report* rep) {
  const std::vector<size_t> entries = DrawEntries(sv, 1u << 16, 99u);
  std::atomic<size_t> next{0};
  std::mutex mu;
  PointPhase ph;
  const TimePoint t0 = Clock::now();
  ph.end = t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
  auto client = [&] {
    while (Clock::now() < ph.end) {
      const size_t i = next++ % entries.size();
      PointRecord rec = RunPoint(sv, entries[i], Clock::now());
      std::lock_guard<std::mutex> lock(mu);
      ph.recs.push_back(rec);
    }
  };
  std::vector<std::thread> clients;
  for (int i = 0; i < sv.sz.clients; ++i) clients.emplace_back(client);
  for (std::thread& t : clients) t.join();
  CountPoints(ph, rep);
  int64_t answered = 0;
  for (const PointRecord& r : ph.recs)
    if (r.ok && !(r.done > ph.end)) ++answered;
  return static_cast<double>(answered) / seconds;
}

}  // namespace

Report RunServe(const Options& opt) {
  Report rep;
  Serve sv;
  sv.opt = &opt;
  sv.sz = SizesFor(opt.small);
  sv.rep = &rep;
  const Sizes& sz = sv.sz;

  // Inputs from the seed.
  topofaq::Rng rng(opt.seed);
  std::vector<RawRelation> store_raw, sub_raw, heavy_raw;
  for (int i = 0; i < sz.store_rels; ++i)
    store_raw.push_back(GenRelation(&rng, sz.store_rows,
                                    {sz.store_domain, sz.store_domain}, {1.0, 1.0}));
  for (int i = 0; i < 4; ++i)
    sub_raw.push_back(GenRelation(&rng, sz.sub_rows, {sz.sub_domain, sz.sub_domain},
                                  {1.0, 1.0}));
  for (int i = 0; i < 3; ++i)
    heavy_raw.push_back(GenRelation(&rng, sz.heavy_rows,
                                    {sz.heavy_domain, sz.heavy_domain}, {2.0, 2.0}));
  {
    std::unordered_set<std::string> seen;
    for (int tries = 0; static_cast<int>(sv.pool.size()) < sz.pool && tries < 100000;
         ++tries) {
      PoolEntry e = RandomTreeQuery(&rng, 3 + static_cast<int>(rng.NextU64(3)),
                                    sz.store_rels);
      const topofaq::ParsedQuery p = MustParse(e.text);
      if (seen.insert(topofaq::PlanCache::Fingerprint(p.ToHypergraph(), {}, -1, 0)).second)
        sv.pool.push_back(std::move(e));
    }
    double acc = 0.0;
    for (size_t r = 0; r < sv.pool.size(); ++r) {
      acc += 1.0 / static_cast<double>(r + 1);
      sv.zipf_cdf.push_back(acc);
    }
    for (double& c : sv.zipf_cdf) c /= acc;
    sv.rank_to_entry.resize(sv.pool.size());
    for (size_t i = 0; i < sv.pool.size(); ++i) sv.rank_to_entry[i] = i;
    rng.Shuffle(&sv.rank_to_entry);
  }

  // Set-up, repeated: ingest, bind, engine start, Subscribe, one heavy solve.
  std::vector<double> setups_s, canon_ms, subscribe_ms;
  const int setup_reps = opt.trace ? 1 : 5;
  for (int rep_i = 0; rep_i < setup_reps; ++rep_i) {
    sv.sub.reset();
    sv.engine.reset();
    sv.heavy.reset();
    sv.store.clear();
    topofaq::PlanCache::Shared().Clear();
    const TimePoint t0 = Clock::now();
    TimePoint tp = Clock::now();
    for (const RawRelation& raw : store_raw) sv.store.push_back(Ingest<NaturalSemiring>(raw));
    std::vector<NRel> sub_rels, heavy_rels;
    for (const RawRelation& raw : sub_raw) sub_rels.push_back(Ingest<NaturalSemiring>(raw));
    for (const RawRelation& raw : heavy_raw) heavy_rels.push_back(Ingest<NaturalSemiring>(raw));
    canon_ms.push_back(MsBetween(tp, Clock::now()));
    double ims = 0.0;
    sv.heavy = BindKind<NaturalSemiring>("heavy", true, MustParse(kHeavyText),
                                         std::move(heavy_rels), &ims);
    auto sub_q = topofaq::InstantiateQuery<NaturalSemiring>(MustParse(kSubText),
                                                            std::move(sub_rels));
    sv.sub_query = *sub_q;
    topofaq::EngineOptions eo;
    eo.parallelism = 1;
    eo.dispatchers = 2;
    eo.heavy_slots = 1;
    sv.engine = std::make_unique<topofaq::Engine>(eo);
    tp = Clock::now();
    topofaq::QueryRequest sreq;
    sreq.query = *std::move(sub_q);
    auto sub = sv.engine->Subscribe(std::move(sreq));
    subscribe_ms.push_back(MsBetween(tp, Clock::now()));
    if (!sub.ok()) {
      std::fprintf(stderr, "serve: Subscribe failed: %s\n", sub.status().ToString().c_str());
      std::exit(3);
    }
    sv.sub = *std::move(sub);
    auto warm = sv.engine->Solve(sv.heavy->Request());
    if (!warm.ok()) {
      std::fprintf(stderr, "serve: heavy warm-up failed\n");
      std::exit(3);
    }
    setups_s.push_back(SecondsSince(t0));
  }
  for (int slot = 0; slot < 2; ++slot) {
    const NRel& base = sv.sub_query.relations[slot == 0 ? kRootRel : kLeafRel];
    for (size_t i = 0; i < base.size(); ++i) {
      const uint64_t k = Key(base.at(i, 0), base.at(i, 1));
      sv.mirror[slot].counts[k] = base.annot(i);
      sv.mirror[slot].keys.push_back(k);
    }
  }
  // References (outside every timed interval).
  sv.heavy->ComputeReference(opt.nproc);
  sv.heavy->set_corrupt(opt.corrupt);
  for (PoolEntry& e : sv.pool) {
    std::vector<NRel> rels;
    for (int id : e.store_ids) rels.push_back(sv.store[static_cast<size_t>(id)]);
    double ims = 0.0;
    auto k = BindKind<NaturalSemiring>("point", false, MustParse(e.text),
                                       std::move(rels), &ims);
    k->ComputeReference(1);
    e.ref = k->reference();
  }

  const double main_s = opt.seconds / 2;
  const topofaq::EngineStats before = sv.engine->stats();
  Background bg(sv, 1);
  const TimePoint m0 = Clock::now();
  const PointPhase main_pts = RunPoints(sv, sz.point_rate, main_s, 1);
  const TimePoint m1 = Clock::now();
  PointPhase traced_pts;
  TracedRun tr;
  TimePoint t1 = m1;
  double saturation = 0.0;  // point lookups per second
  if (opt.trace) {
    sv.engine->EnableTracing();
    sv.tr.store(&tr);
    traced_pts = RunPoints(sv, sz.point_rate, opt.seconds / 2, 2);
    t1 = Clock::now();
  } else {
    saturation = SaturationRate(sv, opt.seconds - main_s, &rep);
  }
  bg.Stop();
  sv.tr.store(nullptr);
  tr.session = sv.engine->DisableTracing();
  const topofaq::EngineStats after = sv.engine->stats();

  // The subscription must equal a fresh Solve over the final relations.
  {
    topofaq::FaqQuery<NaturalSemiring> q = sv.sub_query;
    q.relations[kRootRel] = FromMirror(sv.mirror[0], q.relations[kRootRel].schema());
    q.relations[kLeafRel] = FromMirror(sv.mirror[1], q.relations[kLeafRel].schema());
    topofaq::QueryRequest req;
    req.query = std::move(q);
    auto fresh = sv.engine->Solve(std::move(req));
    if (!fresh.ok() ||
        !CheckAnswer(sv.sub->Current<NaturalSemiring>(),
                     fresh->answer_as<NaturalSemiring>(), opt.corrupt))
      rep.Fail("serve: subscription answer differs from a fresh Solve");
  }

  CountBackground(bg, &rep);
  CountPoints(main_pts, &rep);
  CountPoints(traced_pts, &rep);
  std::vector<KindSamples> main_k = PhaseSamples(main_pts, bg, m0, m1);
  rep.Named("ivm.subscribe_ms", Median(subscribe_ms), "ms");
  if (!opt.trace) {
    rep.Named("point_saturation_qps", saturation, "1/s",
              std::to_string(sz.clients) + " closed-loop clients");
    AddEndToEnd(&rep, main_k, saturation, setups_s);
    return rep;
  }

  Layers L;
  std::vector<KindSamples> traced_k = PhaseSamples(traced_pts, bg, m1, t1);
  tr.parallelism = 1;
  FinishTraced(&rep, &L, &tr, opt.out_dir + "/serve_spans.json");
  std::vector<double> overhead;
  for (size_t k = 0; k < main_k.size(); ++k)
    if (!main_k[k].ms.empty() && !traced_k[k].ms.empty())
      overhead.push_back(Median(traced_k[k].ms) / Median(main_k[k].ms));
  L.obs_trace_overhead_frac = Geomean(overhead) - 1.0;

  std::vector<double> lag, parse_us, inst_ms, solve_ms;
  for (const PointPhase* ph : std::vector<const PointPhase*>{&main_pts, &traced_pts})
    for (const PointRecord& r : ph->recs) {
      lag.push_back(r.lag_ms);
      parse_us.push_back(r.parse_us);
      inst_ms.push_back(r.inst_ms);
      if (ph == &main_pts) solve_ms.push_back(r.solve_ms);
    }
  L.loadgen_lag_p99_ms = Percentile(lag, 99);
  L.faq_parse_us = Median(parse_us);
  L.faq_instantiate_ms = Median(inst_ms);
  L.relation_canonicalize_ms = Median(canon_ms);

  // Direct layer calls: a sample of point shapes, and the heavy query.
  bool ok = true;
  std::vector<double> direct_ms, miss_us, forest_ms, speedup;
  for (size_t i = 0; i < 8 && i < sv.pool.size(); ++i) {
    const PoolEntry& e = sv.pool[sv.rank_to_entry[i]];
    std::vector<NRel> rels;
    for (int id : e.store_ids) rels.push_back(sv.store[static_cast<size_t>(id)]);
    double ims = 0.0;
    auto k = BindKind<NaturalSemiring>("point", false, MustParse(e.text),
                                       std::move(rels), &ims);
    k->ComputeReference(1);
    std::vector<double> v;
    for (int r = 0; r < 3; ++r) {
      bool o = true;
      v.push_back(k->DirectSolveMs(1, &o));
      ok = ok && o;
    }
    direct_ms.push_back(Median(v));
    TimePlanning(k->hypergraph(), k->free_vars(), &miss_us, &forest_ms);
  }
  L.faq_e2e_over_direct = Median(solve_ms) / Median(direct_ms);
  std::vector<double> best, serial, par;
  for (int r = 0; r < 3; ++r) {
    bool o1 = true, o2 = true, o3 = true;
    best.push_back(sv.heavy->DirectBestMs(1, &o1));
    serial.push_back(sv.heavy->DirectSolveMs(1, &o2));
    par.push_back(sv.heavy->DirectSolveMs(opt.nproc, &o3));
    ok = ok && o1 && o2 && o3;
  }
  if (!ok) rep.Fail("serve: a direct route disagrees with the reference");
  L.relation_e2e_over_best_tri = Median(main_k[3].ms) / Median(best);
  rep.Named("relation.e2e_over_best.tri", L.relation_e2e_over_best_tri, "ratio",
            "heavy triangle at parallelism 1");
  L.relation_par_speedup = Median(serial) / Median(par);
  TimePlanning(sv.heavy->hypergraph(), sv.heavy->free_vars(), &miss_us, &forest_ms);
  L.ghd_plan_miss_us = Median(miss_us);
  L.ghd_core_forest_ms = Median(forest_ms);
  const double hits = static_cast<double>(after.plan_cache.hits - before.plan_cache.hits);
  const double misses =
      static_cast<double>(after.plan_cache.misses - before.plan_cache.misses);
  L.ghd_plan_hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  L.server_heavy_done = static_cast<double>(main_k[3].ms.size() + traced_k[3].ms.size()) /
                        SecondsSince(m0);

  std::vector<double> root_ms, leaf_ms;
  for (const DeltaRecord& r : bg.deltas())
    if (r.ok) (r.rel == kRootRel ? root_ms : leaf_ms).push_back(r.call_ms);
  L.ivm_leaf_over_root = Median(leaf_ms) / Median(root_ms);
  rep.Named("ivm.apply_ms.root", Median(root_ms), "ms", "n=" + std::to_string(root_ms.size()));
  rep.Named("ivm.apply_ms.leaf", Median(leaf_ms), "ms", "n=" + std::to_string(leaf_ms.size()));
  const topofaq::StandingStats st = sv.sub->stats();
  L.ivm_deltas = static_cast<double>(st.deltas_applied);
  L.ivm_ring_frac = st.deltas_applied > 0
                        ? static_cast<double>(st.ring_deltas) / st.deltas_applied
                        : 0.0;
  const double nodes = static_cast<double>(st.nodes_reused + st.nodes_updated);
  L.ivm_nodes_reused_frac = nodes > 0 ? st.nodes_reused / nodes : 0.0;
  EmitLayers(&rep, L);
  return rep;
}

}  // namespace e2e
