// pam_e2e: one workload run of the end-to-end benchmark.
//
//   pam_e2e --workload ycsb-a-durable --seed 7 --seconds 10 --warmup 3
//           --trace 0 --scratch DIR [--smoke 1]
//
// Prints one JSON object on stdout: correctness, op counts, the end-to-end
// metrics of the untraced window, workload-specific extras, and per-layer
// metrics. With --trace 1 a traced window follows the untraced one, and the
// bench spans and the library's obs spans are written to DIR. bench/e2e/run.py
// drives this binary; it exits 1 when any correctness check fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "common.h"
#include "parallel/parallel.h"
#include "util/env.h"

namespace {

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_metrics(const std::map<std::string, e2e::metric>& ms) {
  std::string out = "{";
  for (const auto& [name, m] : ms) {
    if (out.size() > 1) out += ",";
    out += json_str(name) + ":{\"value\":" + json_num(m.value) +
           ",\"samples\":" + std::to_string(m.samples) + "}";
  }
  return out + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: pam_e2e --workload W --seed S --seconds N --warmup N "
               "--trace 0|1 --scratch DIR [--smoke 0|1]\n"
               "workloads: ycsb-a-durable ycsb-b-large scan-sum bulk-kernel\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") opt.workload = v;
    else if (k == "--seed") opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") opt.seconds = std::atof(v.c_str());
    else if (k == "--warmup") opt.warmup = std::atof(v.c_str());
    else if (k == "--trace") opt.trace = v == "1";
    else if (k == "--smoke") opt.smoke = v == "1";
    else if (k == "--scratch") opt.scratch = v;
    else return usage();
  }
  if (argc % 2 == 0 || opt.scratch.empty() || opt.seconds <= 0) return usage();

  e2e::result (*run)(const e2e::options&) = nullptr;
  if (opt.workload == "ycsb-a-durable") run = e2e::run_ycsb_a;
  else if (opt.workload == "ycsb-b-large") run = e2e::run_ycsb_b;
  else if (opt.workload == "scan-sum") run = e2e::run_scan_sum;
  else if (opt.workload == "bulk-kernel") run = e2e::run_bulk_kernel;
  else return usage();

  // The first thread to touch the scheduler becomes worker 0; make it this
  // one, so bulk kernel calls and set_num_workers run from a worker.
  const int workers = pam::num_workers();
  std::filesystem::create_directories(opt.scratch);

  e2e::result r;
  try {
    r = run(opt);
  } catch (const std::exception& e) {
    r.fail(std::string("aborted: ") + e.what());
  }
  r.extra["error_ratio"] = {
      e2e::ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted)),
      r.attempted};
  if (opt.trace) {
    e2e::tracer::get().write(opt.scratch + "/bench_spans.tsv");
    std::ofstream os(opt.scratch + "/obs_trace.json");
    pam::obs::dump_chrome_json(os);
  }

  std::string errors = "[";
  for (const auto& e : r.errors) {
    if (errors.size() > 1) errors += ",";
    errors += json_str(e);
  }
  errors += "]";
  std::string info = "{";
  for (const auto& [k, v] : r.info) {
    if (info.size() > 1) info += ",";
    info += json_str(k) + ":" + json_num(v);
  }
  info += "}";
  std::string knobs = "{";
  for (const pam::env_knob& k : pam::env_knobs()) {
    if (knobs.size() > 1) knobs += ",";
    knobs += json_str(k.name) + ":" + json_str(pam::env_knob_value(k));
  }
  knobs += "}";
  std::printf(
      "{\"workload\":%s,\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
      "\"errors\":%s,\"e2e\":%s,\"extra\":%s,\"layer\":%s,"
      "\"layer_window_ns\":[%llu,%llu],\"info\":%s,"
      "\"provenance\":{\"compiler\":%s,\"num_workers\":%d,"
      "\"hardware_threads\":%u,\"metrics_compiled\":%s,\"knobs\":%s}}\n",
      json_str(opt.workload).c_str(), r.correct ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), errors.c_str(),
      json_metrics(r.e2e).c_str(), json_metrics(r.extra).c_str(),
      json_metrics(r.layer).c_str(),
      static_cast<unsigned long long>(r.layer_t0),
      static_cast<unsigned long long>(r.layer_t1), info.c_str(),
      json_str(__VERSION__).c_str(), workers,
      std::thread::hardware_concurrency(),
      pam::obs::kEnabled ? "true" : "false", knobs.c_str());
  return r.correct ? 0 : 1;
}
