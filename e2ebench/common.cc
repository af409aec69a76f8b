#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <unordered_map>

#include "relation/simd.h"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {

using topofaq::obs::ClockDomain;
using topofaq::obs::TraceEvent;
using topofaq::obs::TraceSession;

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += std::log(std::max(x, 1e-12));
  return std::exp(s / static_cast<double>(v.size()));
}

double Percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(v.size()));
  return v[static_cast<size_t>(std::max(1.0, rank)) - 1];
}

Tail TailOf(std::vector<double> v) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    // Nearest rank: the sample at index ceil(p·n) - 1.
    const size_t idx = static_cast<size_t>(
        std::max(1.0, std::ceil(pct / 100.0 * static_cast<double>(n)))) - 1;
    if (n - 1 - idx >= 10) {
      t.value = v[idx];
      t.pct = pct;
      return t;
    }
  }
  t.value = v.back();
  t.pct = 100.0;
  return t;
}

std::string PctName(double pct) {
  char buf[32];
  if (pct == std::floor(pct))
    std::snprintf(buf, sizeof(buf), "p%.0f", pct);
  else
    std::snprintf(buf, sizeof(buf), "p%.1f", pct);
  return buf;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Report::Named(const std::string& name, double value,
                   const std::string& unit, const std::string& note) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-34s %14.4f %-6s %s", name.c_str(), value,
                unit.c_str(), note.c_str());
  named.emplace_back(buf);
}

void AddEndToEnd(Report* rep, const std::vector<KindSamples>& kinds,
                 double throughput_per_s, const std::vector<double>& setups_s) {
  std::vector<double> p50s, tails;
  for (const KindSamples& k : kinds) {
    if (k.ms.empty()) continue;
    const double p50 = Median(k.ms);
    const Tail t = TailOf(k.ms);
    p50s.push_back(p50);
    tails.push_back(t.value);
    const std::string n = "n=" + std::to_string(k.ms.size());
    rep->Named(k.kind + "_p50_ms", p50, "ms", n);
    rep->Named(k.kind + "_tail_ms", t.value, "ms", PctName(t.pct) + " " + n);
  }
  rep->Add("setup_s", Median(setups_s), "s");
  rep->Add("peak_rss_mb", PeakRssMb(), "MB");
  rep->Add("p50_ms", Geomean(p50s), "ms");
  rep->Add("tail_ms", Geomean(tails), "ms");
  rep->Add("throughput_per_s", throughput_per_s, "1/s");
}

// ---------------------------------------------------------------------------
// Engine span import and attribution

namespace {

/// Maps the session's relative microseconds back onto steady_clock.
struct SessionClock {
  TimePoint base;
  explicit SessionClock(const TraceSession& s) {
    const TimePoint now = Clock::now();
    base = now - std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::micro>(s.TimeUs(now)));
  }
  TimePoint At(double us) const {
    return base + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::micro>(us));
  }
};

/// Track id → track name, read from the Chrome export's metadata block
/// (the session exposes names only there).
std::vector<std::string> TrackNames(const TraceSession& s) {
  std::vector<std::string> names;
  const std::string json = s.ToChromeJson();
  const std::string key = "\"name\":\"thread_name\"";
  for (size_t pos = json.find(key); pos != std::string::npos;
       pos = json.find(key, pos + key.size())) {
    const size_t tid_at = json.find("\"tid\":", pos);
    const size_t name_at = json.find("\"args\":{\"name\":\"", pos);
    if (tid_at == std::string::npos || name_at == std::string::npos) break;
    const size_t tid = std::strtoull(json.c_str() + tid_at + 6, nullptr, 10);
    const size_t b = name_at + 16;
    const size_t e = json.find('"', b);
    if (names.size() <= tid) names.resize(tid + 1);
    names[tid] = json.substr(b, e - b);
  }
  return names;
}

bool IsOperator(const char* n) {
  for (const char* op : {"join", "semijoin", "project", "eliminate", "multiway"})
    if (std::strcmp(n, op) == 0) return true;
  return false;
}

}  // namespace

std::vector<Interval> ImportEngineSpans(const TraceSession& session,
                                        std::vector<TracedRequest>* reqs) {
  const SessionClock clk(session);
  const std::vector<std::string> tracks = TrackNames(session);
  std::unordered_map<std::string, size_t> by_tag;
  std::vector<size_t> deltas;  // indices of delta requests, by start
  for (size_t i = 0; i < reqs->size(); ++i) {
    const TracedRequest& r = (*reqs)[i];
    if (r.delta) deltas.push_back(i);
    else if (!r.tag.empty()) by_tag[r.tag] = i;
  }
  std::sort(deltas.begin(), deltas.end(), [&](size_t a, size_t b) {
    return (*reqs)[a].anchor < (*reqs)[b].anchor;
  });

  std::vector<Interval> morsels;
  for (const TraceEvent& ev : session.events()) {
    if (ev.domain != ClockDomain::kWall) continue;
    const TimePoint s = clk.At(ev.ts_us);
    const TimePoint e = clk.At(ev.ts_us + ev.dur_us);
    if (std::strcmp(ev.name, "morsel") == 0) {
      morsels.push_back({"relation", "relation.morsel", s, e});
      continue;
    }
    const std::string& track = ev.track < tracks.size() ? tracks[ev.track] : "";
    TracedRequest* owner = nullptr;
    if (track.rfind("query ", 0) == 0) {
      auto it = by_tag.find(track.substr(6));
      if (it != by_tag.end()) owner = &(*reqs)[it->second];
    } else if (track.rfind("delta ", 0) == 0) {
      auto it = std::upper_bound(
          deltas.begin(), deltas.end(), s,
          [&](TimePoint t, size_t i) { return t < (*reqs)[i].anchor; });
      if (it != deltas.begin()) owner = &(*reqs)[*(it - 1)];
    }
    if (owner == nullptr) continue;
    std::string layer = "server";
    if (std::strcmp(ev.name, "plan") == 0) layer = "ghd";
    else if (IsOperator(ev.name)) layer = "relation";
    else if (owner->delta && std::strcmp(ev.name, "execute") == 0) layer = "ivm";
    owner->spans.push_back({layer, layer + "." + ev.name, s, e});
  }
  return morsels;
}

double OverlapMs(const std::vector<Interval>& spans, TimePoint start,
                 TimePoint end) {
  double ms = 0.0;
  for (const Interval& iv : spans) {
    const TimePoint a = std::max(iv.start, start);
    const TimePoint b = std::min(iv.end, end);
    if (a < b) ms += MsBetween(a, b);
  }
  return ms;
}

Attribution Attribute(const std::vector<TracedRequest>& reqs,
                      bool primary_only) {
  Attribution out;
  std::vector<TimePoint> cuts;
  for (const TracedRequest& r : reqs) {
    if (primary_only && !r.primary) continue;
    if (!(r.start < r.end)) continue;
    ++out.requests;
    out.wall_ms += MsBetween(r.start, r.end);
    cuts.assign({r.start, r.end});
    for (const Interval& iv : r.spans) {
      if (iv.start > r.start && iv.start < r.end) cuts.push_back(iv.start);
      if (iv.end > r.start && iv.end < r.end) cuts.push_back(iv.end);
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    for (size_t c = 0; c + 1 < cuts.size(); ++c) {
      const TimePoint a = cuts[c], b = cuts[c + 1];
      const Interval* inner = nullptr;
      for (const Interval& iv : r.spans) {
        if (iv.start > a || iv.end < b) continue;
        if (inner == nullptr || iv.start > inner->start ||
            (iv.start == inner->start && iv.end < inner->end))
          inner = &iv;
      }
      const double ms = MsBetween(a, b);
      if (inner == nullptr) {
        out.layer_ms["unattributed"] += ms;
        out.name_ms["unattributed"] += ms;
      } else {
        out.layer_ms[inner->layer] += ms;
        out.name_ms[inner->name] += ms;
      }
    }
  }
  return out;
}

void FillAttribution(Report* rep, const Attribution& all) {
  rep->traced_wall_ms = all.wall_ms;
  rep->traced_requests = all.requests;
  for (const char* layer : {"loadgen", "faq", "server", "ghd", "relation", "ivm",
                            "protocols", "unattributed"}) {
    auto it = all.layer_ms.find(layer);
    rep->attribution.push_back({layer, it == all.layer_ms.end() ? 0.0 : it->second});
  }
  for (const auto& [name, ms] : all.name_ms)
    rep->attribution_detail.push_back({name, ms});
}

void WriteSpansJson(const std::vector<TracedRequest>& reqs,
                    const std::string& path) {
  std::ofstream out(path);
  if (!out) return;
  TimePoint t0 = reqs.empty() ? Clock::now() : reqs.front().start;
  for (const TracedRequest& r : reqs) t0 = std::min(t0, r.start);
  auto us = [&](TimePoint t) {
    return std::chrono::duration<double, std::micro>(t - t0).count();
  };
  out << "{\"traceEvents\":[\n";
  bool first = true;
  char buf[256];
  for (size_t i = 0; i < reqs.size(); ++i) {
    const TracedRequest& r = reqs[i];
    auto emit = [&](const std::string& name, TimePoint s, TimePoint e) {
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                    "\"ts\":%.3f,\"dur\":%.3f}",
                    first ? "" : ",\n", name.c_str(), i, us(s), us(e) - us(s));
      first = false;
      out << buf;
    };
    emit("request " + r.kind, r.start, r.end);
    for (const Interval& iv : r.spans) emit(iv.name, iv.start, iv.end);
  }
  out << "\n]}\n";
}

// ---------------------------------------------------------------------------
// Data

topofaq::Value Draw(topofaq::Rng* rng, uint64_t domain, double skew) {
  if (skew == 1.0) return rng->NextU64(domain);
  const double u = rng->NextDouble();
  const auto v = static_cast<uint64_t>(static_cast<double>(domain) *
                                       std::pow(u, skew));
  return std::min(v, domain - 1);
}

RawRelation GenRelation(topofaq::Rng* rng, size_t rows,
                        const std::vector<uint64_t>& domains,
                        const std::vector<double>& skews) {
  RawRelation r;
  r.arity = domains.size();
  r.cells.resize(rows * r.arity);
  for (size_t i = 0; i < rows; ++i)
    for (size_t j = 0; j < r.arity; ++j)
      r.cells[i * r.arity + j] = Draw(rng, domains[j], skews[j]);
  return r;
}

topofaq::ParsedQuery MustParse(const std::string& text) {
  auto p = topofaq::ParseQuery(text);
  if (!p.ok()) {
    std::fprintf(stderr, "bad benchmark query '%s': %s\n", text.c_str(),
                 p.status().ToString().c_str());
    std::exit(3);
  }
  return *std::move(p);
}

std::string HostLine(const Options& opt) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "# workload=%s seed=%llu seconds=%.3g trace=%d nproc=%d "
                "build=%s avx2=%d simd=%d scale=%s",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                opt.seconds, opt.trace ? 1 : 0, opt.nproc, E2E_BUILD_TYPE,
                __builtin_cpu_supports("avx2") ? 1 : 0,
                topofaq::simd::Available() ? 1 : 0,
                opt.small ? "small" : "full");
  return buf;
}

}  // namespace e2e
