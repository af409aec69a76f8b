// Shared machinery of the end-to-end benchmark (README.md in this
// directory): options, statistics, the benchmark's own span log, the
// traced-run attribution, byte-level answer comparison, data generation and
// the report every workload fills in.
//
// The benchmark drives the library from outside: it times calls into public
// functions and reads what the library already exposes (QueryResult,
// EngineStats, StandingSession::stats(), ProtocolStats and the engine's
// TraceSession). Nothing here changes library behaviour.
#ifndef E2EBENCH_COMMON_H_
#define E2EBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "faq/parse.h"
#include "obs/trace.h"
#include "relation/relation.h"
#include "util/rng.h"

namespace e2e {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

inline double MsBetween(TimePoint a, TimePoint b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double SecondsSince(TimePoint a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test sizes: every input shrinks so a whole run takes seconds.
  bool small = false;
  /// Deliberately corrupts one answer before the correctness check (the
  /// self-test proves the check catches it).
  bool corrupt = false;
  int nproc = 1;
  /// Where the traced run writes its spans at exit.
  std::string out_dir = ".";
};

// ---------------------------------------------------------------------------
// Statistics

double Median(std::vector<double> v);
double Geomean(const std::vector<double>& v);
/// Nearest-rank percentile, pct in (0, 100].
double Percentile(std::vector<double> v, double pct);

/// The highest percentile of {99.9, 99, 95, 90, 75, 50} with at least ten
/// samples beyond it (nearest rank); falls back to the maximum when there
/// are fewer than 20 samples.
struct Tail {
  double value = 0.0;
  double pct = 100.0;
};
Tail TailOf(std::vector<double> v);
std::string PctName(double pct);

/// Latency samples of one request kind.
struct KindSamples {
  std::string kind;
  std::vector<double> ms;
};

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

// ---------------------------------------------------------------------------
// Report

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One row of the traced-run attribution table.
struct AttrRow {
  std::string layer;
  double self_ms = 0.0;
};

struct Report {
  bool correct = true;
  std::string mismatch;  ///< first correctness failure, for the log
  int64_t attempted = 0;
  int64_t failed = 0;
  /// The BENCHMARK.json metrics for this run's mode.
  std::vector<Metric> metrics;
  /// Workload-specific named figures (per shape, per stream), printed in
  /// the log with their units and sample counts.
  std::vector<std::string> named;
  /// Traced runs: per-layer self time, ending in "unattributed".
  std::vector<AttrRow> attribution;
  std::vector<AttrRow> attribution_detail;  ///< per span name
  double traced_wall_ms = 0.0;
  int64_t traced_requests = 0;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Named(const std::string& name, double value, const std::string& unit,
             const std::string& note = {});
  void Fail(const std::string& what) {
    if (correct) mismatch = what;
    correct = false;
  }
};

/// The end-to-end metrics every workload reports: per-kind latencies
/// summarized as geometric means over kinds, plus throughput and set-up.
void AddEndToEnd(Report* rep, const std::vector<KindSamples>& kinds,
                 double throughput_per_s, const std::vector<double>& setups_s);

// ---------------------------------------------------------------------------
// The benchmark's own spans and the traced-run attribution.

/// One interval of a request's timeline, attributed to `layer`.
struct Interval {
  std::string layer;  ///< faq | server | ghd | relation | ivm | protocols | loadgen
  std::string name;   ///< e.g. "faq.parse", "server.queue_wait"
  TimePoint start;
  TimePoint end;
};

/// A traced request: its wall window and every span inside it.
struct TracedRequest {
  int64_t id = 0;
  std::string kind;
  /// Engine queries only: the engine track name (QueryRequest::tag) its
  /// spans land on. Delta jobs are matched by time instead: deltas on one
  /// session are applied one call at a time, so a delta's engine spans
  /// belong to the last delta whose call began before them.
  std::string tag;
  bool delta = false;
  bool primary = false;  ///< counts toward the per-request layer metrics
  TimePoint start;   ///< window start (the due time for open-loop requests)
  TimePoint end;     ///< answer received
  TimePoint anchor;  ///< when the call into the engine began (deltas)
  std::vector<Interval> spans;
};

/// Thread-safe log of traced requests (kept in memory; written at exit).
class SpanLog {
 public:
  void Add(TracedRequest r) {
    std::lock_guard<std::mutex> lock(mu_);
    reqs_.push_back(std::move(r));
  }
  /// Unsynchronized: call only after every writer has finished.
  std::vector<TracedRequest>& requests() { return reqs_; }

 private:
  std::mutex mu_;
  std::vector<TracedRequest> reqs_;
};

/// Moves the engine session's wall spans onto the requests they belong to
/// (by track name = request tag, or by time for delta jobs). Engine spans
/// map to layers: plan → ghd; join/semijoin/project/eliminate/multiway →
/// relation; every other pipeline stage → server, except a delta job's
/// execute self time, which is the IVM propagation → ivm.
/// Returns the morsel spans (worker tracks), which belong to no one request.
std::vector<Interval> ImportEngineSpans(const topofaq::obs::TraceSession& session,
                                        std::vector<TracedRequest>* reqs);

/// Total time of `spans` inside [start, end].
double OverlapMs(const std::vector<Interval>& spans, TimePoint start,
                 TimePoint end);

/// Sweep-line self time: each instant of a request's window is charged to
/// the innermost span covering it (latest start wins), or to
/// "unattributed" — so a span's self time is its duration minus the part
/// its children cover, and the rows sum to the requests' wall time.
struct Attribution {
  std::map<std::string, double> layer_ms;  ///< includes "unattributed"
  std::map<std::string, double> name_ms;
  double wall_ms = 0.0;
  int64_t requests = 0;
};
Attribution Attribute(const std::vector<TracedRequest>& reqs,
                      bool primary_only);
/// Fills rep->attribution (per layer, ending in "unattributed") and
/// rep->attribution_detail (per span name).
void FillAttribution(Report* rep, const Attribution& all);

/// Writes the traced requests as Chrome trace JSON (one track per request).
void WriteSpansJson(const std::vector<TracedRequest>& reqs,
                    const std::string& path);

// ---------------------------------------------------------------------------
// Answers

/// Byte equality: same schema, same decoded columns, same annotation bits.
template <topofaq::CommutativeSemiring S>
bool BytesEqual(const topofaq::Relation<S>& a, const topofaq::Relation<S>& b) {
  if (!(a.schema() == b.schema()) || a.size() != b.size()) return false;
  if (a.columns() != b.columns()) return false;
  return a.annots().empty() ||
         std::memcmp(a.annots().data(), b.annots().data(),
                     a.annots().size() * sizeof(typename S::Value)) == 0;
}

/// Flips the lowest bit of the first annotation (the --corrupt self-test).
template <topofaq::CommutativeSemiring S>
void CorruptAnswer(topofaq::Relation<S>* r) {
  if (r->empty()) {
    r->Add(std::vector<topofaq::Value>(r->arity(), 0), S::One());
    return;
  }
  typename S::Value v = r->annot(0);
  unsigned char bytes[sizeof(v)];
  std::memcpy(bytes, &v, sizeof(v));
  bytes[0] ^= 1;
  std::memcpy(&v, bytes, sizeof(v));
  r->set_annot(0, v);
}

/// The correctness check: `ans` must byte-equal `ref`. With `corrupt` (the
/// self-test), a corrupted copy of `ans` is compared instead, so a working
/// check must report a mismatch.
template <topofaq::CommutativeSemiring S>
bool CheckAnswer(const topofaq::Relation<S>& ans, const topofaq::Relation<S>& ref,
                 bool corrupt) {
  if (!corrupt) return BytesEqual(ans, ref);
  topofaq::Relation<S> bad = ans;
  CorruptAnswer(&bad);
  return BytesEqual(bad, ref);
}

// ---------------------------------------------------------------------------
// Data

/// Raw rows of one relation in written-atom column order (un-canonicalized,
/// possibly with duplicates) — what ingest turns into a Relation.
struct RawRelation {
  size_t arity = 0;
  std::vector<topofaq::Value> cells;  ///< row-major
  size_t rows() const { return arity == 0 ? 0 : cells.size() / arity; }
};

/// Value in [0, domain). skew = 1 is uniform; skew > 1 draws
/// floor(domain · u^skew), a power-law concentration on small values.
topofaq::Value Draw(topofaq::Rng* rng, uint64_t domain, double skew);

RawRelation GenRelation(topofaq::Rng* rng, size_t rows,
                        const std::vector<uint64_t>& domains,
                        const std::vector<double>& skews);

/// Ingest: rows → canonical relation over schema (0..arity-1). The atom's
/// variables are bound later by InstantiateQuery.
template <topofaq::CommutativeSemiring S>
topofaq::Relation<S> Ingest(const RawRelation& raw) {
  std::vector<topofaq::VarId> vars(raw.arity);
  for (size_t j = 0; j < raw.arity; ++j) vars[j] = static_cast<topofaq::VarId>(j);
  topofaq::Relation<S> r{topofaq::Schema(vars)};
  const size_t n = raw.rows();
  for (size_t i = 0; i < n; ++i)
    r.Add(std::span<const topofaq::Value>(&raw.cells[i * raw.arity], raw.arity),
          S::One());
  r.Canonicalize();
  return r;
}

/// Parses `text` or aborts the run (query texts are the benchmark's own).
topofaq::ParsedQuery MustParse(const std::string& text);

/// Host facts every output records.
std::string HostLine(const Options& opt);

}  // namespace e2e

#endif  // E2EBENCH_COMMON_H_
