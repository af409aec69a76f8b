// End-to-end benchmark entry point: query text → answer on the analytic, serve
// and protocol_sim workloads, with a traced run that attributes each
// request's wall time to the library's layers. See README.md.
//
//   e2ebench --workload analytic|serve|protocol_sim --seed N --seconds S
//            --trace 0|1 [--small] [--corrupt] [--out-dir DIR]
//
// The log lines come first; the last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}. Exit code 0 means
// every answer matched its reference.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common.h"
#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload analytic|serve|protocol_sim "
               "--seed N --seconds S --trace 0|1 [--small] [--corrupt] "
               "[--out-dir DIR]\n");
  std::exit(2);
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options opt;
  opt.nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage();
      return argv[++i];
    };
    if (a == "--workload") opt.workload = value();
    else if (a == "--seed") opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (a == "--seconds") opt.seconds = std::atof(value().c_str());
    else if (a == "--trace") { opt.trace = value() == "1"; have_trace = true; }
    else if (a == "--out-dir") opt.out_dir = value();
    else if (a == "--small") opt.small = true;
    else if (a == "--corrupt") opt.corrupt = true;
    else Usage();
  }
  if (opt.workload.empty() || !have_trace || !(opt.seconds > 0)) Usage();

  std::printf("%s\n", e2e::HostLine(opt).c_str());
  std::fflush(stdout);
  e2e::Report rep;
  if (opt.workload == "analytic") rep = e2e::RunAnalytic(opt);
  else if (opt.workload == "serve") rep = e2e::RunServe(opt);
  else if (opt.workload == "protocol_sim") rep = e2e::RunProtocolSim(opt);
  else Usage();

  std::printf("## named figures\n");
  for (const std::string& line : rep.named) std::printf("%s\n", line.c_str());
  std::printf("failed_frac %.6f (%lld of %lld)\n",
              rep.attempted > 0 ? static_cast<double>(rep.failed) /
                                      static_cast<double>(rep.attempted)
                                : 0.0,
              static_cast<long long>(rep.failed),
              static_cast<long long>(rep.attempted));
  if (opt.trace) {
    std::printf("## attribution (traced run: %lld requests, %.3f ms wall)\n",
                static_cast<long long>(rep.traced_requests), rep.traced_wall_ms);
    double sum = 0.0;
    for (const e2e::AttrRow& r : rep.attribution) {
      std::printf("attr %-14s %14.3f ms %7.2f%%\n", r.layer.c_str(), r.self_ms,
                  rep.traced_wall_ms > 0 ? 100.0 * r.self_ms / rep.traced_wall_ms
                                         : 0.0);
      sum += r.self_ms;
    }
    std::printf("attr %-14s %14.3f ms\n", "total", sum);
    for (const e2e::AttrRow& r : rep.attribution_detail)
      std::printf("span %-24s %14.3f ms\n", r.layer.c_str(), r.self_ms);
  }
  if (!rep.correct)
    std::printf("CORRECTNESS FAILURE: %s\n", rep.mismatch.c_str());
  std::printf("## metrics\n");
  for (const e2e::Metric& m : rep.metrics)
    std::printf("metric %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());

  std::string json = "{\"correct\": ";
  json += rep.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(rep.attempted);
  json += ", \"failed\": " + std::to_string(rep.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < rep.metrics.size(); ++i) {
    const e2e::Metric& m = rep.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return rep.correct ? 0 : 1;
}
