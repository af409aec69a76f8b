#include "layers.h"

#include <algorithm>
#include <map>

#include "ghd/plan_cache.h"
#include "ghd/width.h"

namespace e2e {

namespace {

const char* const kLayerNames[7] = {"loadgen", "faq",  "server",   "ghd",
                                    "relation", "ivm", "protocols"};

double Get(const std::map<std::string, double>& m, const std::string& k) {
  auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

/// Median over primary requests of the summed duration of spans `name`.
double StageMedianMs(const std::vector<TracedRequest>& reqs,
                     const std::string& name) {
  std::vector<double> v;
  for (const TracedRequest& r : reqs) {
    if (!r.primary) continue;
    double ms = 0.0;
    bool seen = false;
    for (const Interval& iv : r.spans)
      if (iv.name == name) {
        ms += MsBetween(iv.start, iv.end);
        seen = true;
      }
    if (seen) v.push_back(ms);
  }
  return Median(v);
}

}  // namespace

void FinishTraced(Report* rep, Layers* L, TracedRun* run,
                  const std::string& spans_path) {
  std::vector<TracedRequest>& reqs = run->log.requests();
  std::vector<Interval> morsels;
  if (run->session != nullptr) morsels = ImportEngineSpans(*run->session, &reqs);

  const Attribution all = Attribute(reqs, /*primary_only=*/false);
  FillAttribution(rep, all);
  if (all.wall_ms > 0) {
    for (int i = 0; i < 7; ++i)
      L->self_frac[i] = Get(all.layer_ms, kLayerNames[i]) / all.wall_ms;
    L->server_unattributed_frac = Get(all.layer_ms, "unattributed") / all.wall_ms;
  }

  const Attribution prim = Attribute(reqs, /*primary_only=*/true);
  if (prim.requests > 0 && prim.wall_ms > 0) {
    L->relation_self_ms =
        Get(prim.layer_ms, "relation") / static_cast<double>(prim.requests);
    L->relation_multiway_frac = Get(prim.name_ms, "relation.multiway") / prim.wall_ms;
    L->relation_join_frac = Get(prim.name_ms, "relation.join") / prim.wall_ms;
    L->relation_semijoin_frac = Get(prim.name_ms, "relation.semijoin") / prim.wall_ms;
    L->relation_eliminate_frac = Get(prim.name_ms, "relation.eliminate") / prim.wall_ms;
    L->relation_project_frac = Get(prim.name_ms, "relation.project") / prim.wall_ms;
  }
  L->server_validate_us = 1000.0 * StageMedianMs(reqs, "server.validate");
  L->server_profile_ms = StageMedianMs(reqs, "server.profile");
  L->server_plan_us = 1000.0 * StageMedianMs(reqs, "ghd.plan");
  L->server_admit_us = 1000.0 * StageMedianMs(reqs, "server.admit");
  L->server_queue_wait_ms = StageMedianMs(reqs, "server.queue_wait");
  L->server_execute_ms = StageMedianMs(reqs, "server.execute");

  if (!run->kernels.empty()) {
    double rows = 0, peak = 0, sorts = 0, seeks = 0, simd = 0, scalar = 0;
    for (const topofaq::OpStats& k : run->kernels) {
      rows += static_cast<double>(k.rows_out);
      peak += static_cast<double>(k.peak_rows);
      sorts += static_cast<double>(k.sorts);
      seeks += static_cast<double>(k.seeks);
      simd += static_cast<double>(k.simd_blocks);
      scalar += static_cast<double>(k.scalar_fallbacks);
    }
    const double n = static_cast<double>(run->kernels.size());
    L->relation_rows_out = rows / n;
    L->relation_peak_rows = peak / n;
    L->relation_sorts = sorts / n;
    L->relation_seeks = seeks / n;
    L->relation_simd_ratio = simd + scalar > 0 ? simd / (simd + scalar) : 0.0;
  }

  double morsel_ms = 0.0, capacity_ms = 0.0;
  for (const TracedRequest& r : reqs) {
    if (!r.primary) continue;
    morsel_ms += OverlapMs(morsels, r.start, r.end);
    capacity_ms += run->parallelism * MsBetween(r.start, r.end);
  }
  L->relation_morsel_busy_frac = capacity_ms > 0 ? morsel_ms / capacity_ms : 0.0;

  if (!spans_path.empty()) WriteSpansJson(reqs, spans_path);
}

void EmitLayers(Report* rep, const Layers& L) {
  rep->Add("loadgen.lag_p99_ms", L.loadgen_lag_p99_ms, "ms");
  rep->Add("loadgen.self_frac", L.self_frac[0], "frac");
  rep->Add("faq.parse_us", L.faq_parse_us, "us");
  rep->Add("faq.instantiate_ms", L.faq_instantiate_ms, "ms");
  rep->Add("faq.e2e_over_direct", L.faq_e2e_over_direct, "ratio");
  rep->Add("faq.self_frac", L.self_frac[1], "frac");
  rep->Add("server.validate_us", L.server_validate_us, "us");
  rep->Add("server.profile_ms", L.server_profile_ms, "ms");
  rep->Add("server.plan_us", L.server_plan_us, "us");
  rep->Add("server.admit_us", L.server_admit_us, "us");
  rep->Add("server.queue_wait_ms", L.server_queue_wait_ms, "ms");
  rep->Add("server.execute_ms", L.server_execute_ms, "ms");
  rep->Add("server.heavy_done", L.server_heavy_done, "count");
  rep->Add("server.unattributed_frac", L.server_unattributed_frac, "frac");
  rep->Add("server.self_frac", L.self_frac[2], "frac");
  rep->Add("ghd.plan_hit_ratio", L.ghd_plan_hit_ratio, "frac");
  rep->Add("ghd.plan_miss_us", L.ghd_plan_miss_us, "us");
  rep->Add("ghd.core_forest_ms", L.ghd_core_forest_ms, "ms");
  rep->Add("ghd.self_frac", L.self_frac[3], "frac");
  rep->Add("relation.self_ms", L.relation_self_ms, "ms");
  rep->Add("relation.multiway_frac", L.relation_multiway_frac, "frac");
  rep->Add("relation.join_frac", L.relation_join_frac, "frac");
  rep->Add("relation.semijoin_frac", L.relation_semijoin_frac, "frac");
  rep->Add("relation.eliminate_frac", L.relation_eliminate_frac, "frac");
  rep->Add("relation.project_frac", L.relation_project_frac, "frac");
  rep->Add("relation.rows_out", L.relation_rows_out, "count");
  rep->Add("relation.peak_rows", L.relation_peak_rows, "count");
  rep->Add("relation.sorts", L.relation_sorts, "count");
  rep->Add("relation.seeks", L.relation_seeks, "count");
  rep->Add("relation.simd_ratio", L.relation_simd_ratio, "frac");
  rep->Add("relation.morsel_busy_frac", L.relation_morsel_busy_frac, "frac");
  rep->Add("relation.e2e_over_best.tri", L.relation_e2e_over_best_tri, "ratio");
  rep->Add("relation.par_speedup", L.relation_par_speedup, "ratio");
  rep->Add("relation.canonicalize_ms", L.relation_canonicalize_ms, "ms");
  rep->Add("relation.self_frac", L.self_frac[4], "frac");
  rep->Add("ivm.leaf_over_root", L.ivm_leaf_over_root, "ratio");
  rep->Add("ivm.ring_frac", L.ivm_ring_frac, "frac");
  rep->Add("ivm.nodes_reused_frac", L.ivm_nodes_reused_frac, "frac");
  rep->Add("ivm.deltas", L.ivm_deltas, "count");
  rep->Add("ivm.self_frac", L.self_frac[5], "frac");
  rep->Add("protocols.rounds_sum", L.protocols_rounds_sum, "count");
  rep->Add("protocols.rounds_over_lb", L.protocols_rounds_over_lb, "ratio");
  rep->Add("protocols.kernel_rows_out", L.protocols_kernel_rows_out, "count");
  rep->Add("protocols.async_over_sync", L.protocols_async_over_sync, "ratio");
  rep->Add("protocols.self_frac", L.self_frac[6], "frac");
  rep->Add("network.makespan_sum", L.network_makespan_sum, "simtime");
  rep->Add("network.pages", L.network_pages, "count");
  rep->Add("network.total_bits", L.network_total_bits, "bits");
  rep->Add("network.max_in_flight_pages", L.network_max_in_flight_pages, "count");
  rep->Add("network.payload_ratio", L.network_payload_ratio, "ratio");
  rep->Add("network.max_edge_util", L.network_max_edge_util, "frac");
  rep->Add("obs.trace_overhead_frac", L.obs_trace_overhead_frac, "frac");
}

void TimePlanning(const topofaq::Hypergraph& h,
                  const std::vector<topofaq::VarId>& free_vars,
                  std::vector<double>* miss_us, std::vector<double>* forest_ms) {
  std::vector<topofaq::VarId> f = free_vars;
  std::sort(f.begin(), f.end());
  topofaq::PlanCache cold;
  TimePoint t0 = Clock::now();
  auto plan = cold.PlanFor(h, f);
  miss_us->push_back(1000.0 * MsBetween(t0, Clock::now()));
  (void)plan;
  t0 = Clock::now();
  if (f.empty()) {
    auto w = topofaq::MinimizeWidth(h, 8, 0xfa0);
    (void)w;
  } else {
    auto w = topofaq::MinimizeWidthWithRoot(h, f, 8, 0xfa0);
    (void)w;
  }
  forest_ms->push_back(MsBetween(t0, Clock::now()));
}

}  // namespace e2e
