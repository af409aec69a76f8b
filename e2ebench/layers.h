// Per-layer metrics: one fixed list (BENCHMARK.json "per_layer") that every
// workload emits in traced runs. A workload fills the fields its layers
// exercise; layers a workload never enters report 0 (their metrics are
// counts, ratios or fractions, never times, for exactly that reason).
#ifndef E2EBENCH_LAYERS_H_
#define E2EBENCH_LAYERS_H_

#include <memory>
#include <vector>

#include "common.h"
#include "relation/exec.h"

namespace e2e {

struct Layers {
  // loadgen
  double loadgen_lag_p99_ms = 0;
  // faq
  double faq_parse_us = 0;
  double faq_instantiate_ms = 0;
  double faq_e2e_over_direct = 0;
  // server (stage medians are filled by FinishTraced)
  double server_validate_us = 0;
  double server_profile_ms = 0;
  double server_plan_us = 0;
  double server_admit_us = 0;
  double server_queue_wait_ms = 0;
  double server_execute_ms = 0;
  double server_heavy_done = 0;
  double server_unattributed_frac = 0;
  // ghd
  double ghd_plan_hit_ratio = 0;
  double ghd_plan_miss_us = 0;
  double ghd_core_forest_ms = 0;
  // relation
  double relation_self_ms = 0;
  double relation_multiway_frac = 0;
  double relation_join_frac = 0;
  double relation_semijoin_frac = 0;
  double relation_eliminate_frac = 0;
  double relation_project_frac = 0;
  double relation_rows_out = 0;
  double relation_peak_rows = 0;
  double relation_sorts = 0;
  double relation_seeks = 0;
  double relation_simd_ratio = 0;
  double relation_morsel_busy_frac = 0;
  double relation_e2e_over_best_tri = 0;
  double relation_par_speedup = 0;
  double relation_canonicalize_ms = 0;
  // ivm
  double ivm_leaf_over_root = 0;
  double ivm_ring_frac = 0;
  double ivm_nodes_reused_frac = 0;
  double ivm_deltas = 0;
  // protocols / network
  double protocols_rounds_sum = 0;
  double protocols_rounds_over_lb = 0;
  double protocols_kernel_rows_out = 0;
  double protocols_async_over_sync = 0;
  double network_makespan_sum = 0;
  double network_pages = 0;
  double network_total_bits = 0;
  double network_max_in_flight_pages = 0;
  double network_payload_ratio = 0;
  double network_max_edge_util = 0;
  // obs
  double obs_trace_overhead_frac = 0;
  // self time share of the traced wall, per layer (FinishTraced)
  double self_frac[7] = {0, 0, 0, 0, 0, 0, 0};
};

/// Everything one traced phase collected.
struct TracedRun {
  SpanLog log;
  /// Kernel counters of the primary traced requests (QueryResult::kernel).
  std::vector<topofaq::OpStats> kernels;
  std::shared_ptr<topofaq::obs::TraceSession> session;
  /// Operator parallelism of the primary requests (morsel busy fraction).
  int parallelism = 1;
};

/// Imports the engine spans, builds the attribution table into `rep`, and
/// fills the traced fields of `L` (server stage medians, relation self time
/// and operator shares, kernel counters, morsel busy fraction, self-time
/// shares, unattributed fraction). Writes the request spans as Chrome JSON
/// to `spans_path` when it is non-empty.
void FinishTraced(Report* rep, Layers* L, TracedRun* run,
                  const std::string& spans_path);

/// Appends every per-layer metric, in the BENCHMARK.json order.
void EmitLayers(Report* rep, const Layers& L);

/// Times a cold plan (a private PlanCache, so every lookup misses) and the
/// protocols' core-forest search (8 restarts) for one query shape.
void TimePlanning(const topofaq::Hypergraph& h,
                  const std::vector<topofaq::VarId>& free_vars,
                  std::vector<double>* miss_us, std::vector<double>* forest_ms);

}  // namespace e2e

#endif  // E2EBENCH_LAYERS_H_
