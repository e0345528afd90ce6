#include "workloads.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "coding/simd/dispatch.h"
#include "detect/prepare/simd/dispatch.h"
#include "detect/sphere/simd/dispatch.h"
#include "internal.h"

namespace e2ebench {

namespace {

using detail::LinkWorkload;
using detail::ServeWorkload;

// Why each workload exists is recorded in README.md; the operating points
// (SNR, payload) give every workload a frame error rate high enough that
// the seed-to-seed spread of `fer` stays inside its bound within one run.
constexpr LinkWorkload kLinkWorkloads[] = {
    {"link-hard-geosphere", "geosphere", 64, 18.0, 500, 50, 2.3, 5},
    {"link-soft-sts", "soft-geosphere-sts", 16, 8.0, 100, 10, 1.35, 5},
    {"link-short-mmse-sic", "mmse-sic", 16, 18.0, 100, 250, 3.0, 5},
};

constexpr ServeWorkload kServeWorkloads[] = {
    {"serve-4cell",
     "users=24,load=0.7,detector=geosphere,snr=22,qams=4|16|64;"
     "users=24,load=0.7,detector=geosphere,snr=18,qams=4|16|64;"
     "users=16,load=0.5,detector=mmse,snr=18,qams=4|16;"
     "users=16,load=0.5,detector=mmse,snr=24,qams=16|64",
     2, 20, 1.3, 8},
};

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const LinkWorkload& w : kLinkWorkloads) out.emplace_back(w.name);
    for (const ServeWorkload& w : kServeWorkloads) out.emplace_back(w.name);
    return out;
  }();
  return names;
}

const std::vector<std::string>& end_to_end_metric_names() {
  static const std::vector<std::string> names = {"setup_s", "frames_per_s", "goodput_mbps",
                                                 "fer"};
  return names;
}

const std::vector<std::string>& per_layer_metric_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Metric& m : detail::per_layer_metrics(detail::LayerInputs{}))
      out.push_back(m.name);
    return out;
  }();
  return names;
}

RunResult run_workload(const std::string& name, const RunConfig& config) {
  for (const LinkWorkload& w : kLinkWorkloads)
    if (name == w.name) return detail::run_link_workload(w, config);
  for (const ServeWorkload& w : kServeWorkloads)
    if (name == w.name) return detail::run_serve_workload(w, config);
  throw std::invalid_argument("unknown workload: " + name);
}

std::vector<std::pair<std::string, std::string>> run_stamp(const std::string& workload,
                                                           const RunConfig& config,
                                                           const std::string& commit) {
  std::size_t workers = 1;
  for (const ServeWorkload& w : kServeWorkloads)
    if (workload == w.name) workers = w.workers;
  return {
      {"workload", workload},
      {"seed", std::to_string(config.seed)},
      {"seconds", detail::format_double(config.seconds)},
      {"trace", config.trace ? "1" : "0"},
      {"workers_untraced", std::to_string(workers)},
      {"workers_traced", "1"},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"cpu_model", cpu_model()},
      {"compiler", E2EBENCH_COMPILER},
      {"flags", E2EBENCH_FLAGS},
      {"kernel_sphere", geosphere::sphere::simd::active_kernel().name},
      {"kernel_prepare", geosphere::prepare::simd::active_kernel().name},
      {"kernel_viterbi", geosphere::coding::simd::active_viterbi_kernel().name},
      {"commit", commit},
  };
}

}  // namespace e2ebench

namespace e2ebench::detail {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::size_t fixed_blocks(const RunConfig& config, double blocks_per_s) {
  const double n = config.seconds * blocks_per_s;
  return std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(n)));
}

std::string format_double(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

std::vector<Metric> per_layer_metrics(const LayerInputs& in) {
  const Stage root = in.serve ? Stage::kTti : Stage::kFrame;
  const StageTotals& t = in.totals;
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const auto ns = [&](Stage s) { return static_cast<double>(t.total(s)); };
  const auto per_frame_us = [&](Stage s) { return ratio(ns(s) / 1e3, in.frames); };
  const auto serve_only = [&](double v) { return in.serve ? v : 0.0; };
  const double units = static_cast<double>(in.unit_ns.size());
  const double unit_ns = std::accumulate(in.unit_ns.begin(), in.unit_ns.end(), 0.0);
  const double calls = in.detection_calls;

  return {
      {"channel.draw_us", per_frame_us(Stage::kDraw), "us"},
      {"channel.noise_us", per_frame_us(Stage::kNoise), "us"},
      {"phy.encode_us", per_frame_us(Stage::kEncode), "us"},
      {"detect.prepare_us", per_frame_us(Stage::kPrepare), "us"},
      {"linalg.apply_us", per_frame_us(Stage::kApply), "us"},
      {"detect.solve_us", per_frame_us(Stage::kSolve), "us"},
      {"detect.solve_ns_per_vector", ratio(ns(Stage::kSolve), calls), "ns"},
      {"detect.llr_us", per_frame_us(Stage::kScatter), "us"},
      {"coding.decode_us", per_frame_us(Stage::kDecode), "us"},
      {"coding.decode_ns_per_bit", ratio(ns(Stage::kDecode), in.info_bits), "ns"},
      {"serve.schedule_us", serve_only(ratio(ns(Stage::kSchedule) / 1e3, in.ttis)), "us"},
      {"serve.assemble_us", serve_only(per_frame_us(Stage::kAssemble)), "us"},
      {"serve.deliver_us", serve_only(per_frame_us(Stage::kDeliver)), "us"},
      {"serve.tti_p50_us", serve_only(percentile(in.unit_ns, 0.50) / 1e3), "us"},
      {"serve.tti_p90_us", serve_only(percentile(in.unit_ns, 0.90) / 1e3), "us"},
      {"sim.pool_busy_ratio",
       ratio(ratio(unit_ns / 1e9, units),
             in.untraced_wall_per_unit_s * static_cast<double>(in.workers)),
       "ratio"},
      {"serve.frame_p50_us", in.frame_p50_us, "us"},
      {"serve.frame_p99_us", in.frame_p99_us, "us"},
      {"serve.frame_max_us", in.frame_max_us, "us"},
      {"detect.ped_per_sc", ratio(static_cast<double>(in.detection.ped_computations), calls),
       "count"},
      {"detect.visited_per_sc", ratio(static_cast<double>(in.detection.visited_nodes), calls),
       "count"},
      {"detect.tree_searches_per_vector",
       ratio(static_cast<double>(in.detection.tree_searches), calls), "count"},
      {"detect.vectors_per_frame", ratio(calls, in.frames), "count"},
      {"coding.info_bits_per_frame", ratio(in.info_bits, in.frames), "bits"},
      {"serve.frames_per_tti", serve_only(ratio(in.frames, in.ttis)), "count"},
      {"serve.probe_frames_per_tti", serve_only(ratio(in.probe_frames, in.ttis)), "count"},
      {"serve.backlog_end", in.backlog_end, "count"},
      {"setup.cold_s", in.cold_setup_s, "s"},
      {"trace.unit_us", ratio(unit_ns / 1e3, units), "us"},
      {"trace.glue_ratio", ratio(static_cast<double>(t.self(root)), ns(root)), "ratio"},
      {"trace.overhead", ratio(in.traced_wall_s, in.plain_wall_s) - 1.0, "ratio"},
  };
}

void check_and_note_breakdown(const LayerInputs& in, Stage root, RunResult& result) {
  const StageTotals& t = in.totals;
  const double root_ns = static_cast<double>(t.total(root));
  const double units = static_cast<double>(t.spans(root));
  if (root_ns <= 0.0 || units <= 0.0) {
    result.fail(std::string("trace: no ") + stage_name(root) + " spans recorded");
    return;
  }
  const double glue = static_cast<double>(t.self(root)) / root_ns;
  if (glue > kGlueTolerance)
    result.fail(std::string("trace: ") + stage_name(root) + " self time is " +
                format_double(glue) + " of its duration (tolerance " +
                format_double(kGlueTolerance) + "); stage spans do not account for it");

  // One row per stage: total and self time per unit, and the self time's
  // share of the root span (the shares sum to 100%).
  std::string table = "stage                  total_us/unit    self_us/unit   self_share\n";
  for (std::size_t i = 0; i < kStageCount; ++i) {
    const auto s = static_cast<Stage>(i);
    if (t.spans(s) == 0) continue;
    char row[160];
    std::snprintf(row, sizeof(row), "%-20s %15.2f %15.2f %11.1f%%\n", stage_name(s),
                  static_cast<double>(t.total(s)) / 1e3 / units,
                  static_cast<double>(t.self(s)) / 1e3 / units,
                  100.0 * static_cast<double>(t.self(s)) / root_ns);
    table += row;
  }
  result.notes.emplace_back("breakdown per " + std::string(stage_name(root)), table);
}

void note_quality(double goodput_mbps, double fer, double replica_goodput_mbps,
                  double replica_fer, RunResult& result) {
  result.notes.emplace_back("goodput_mbps", format_double(goodput_mbps));
  result.notes.emplace_back("fer", format_double(fer));
  result.notes.emplace_back("replica goodput_mbps", format_double(replica_goodput_mbps));
  result.notes.emplace_back("replica fer", format_double(replica_fer));
}

void write_span_file(const std::string& workload, const RunConfig& config,
                     const std::vector<Span>& spans, RunResult& result) {
  if (config.out_dir.empty()) return;
  // Spans are recorded unit by unit, so the capped file is a prefix: it
  // ends before the root span of unit kMaxWrittenUnits + 1.
  std::size_t keep = 0;
  for (std::uint32_t roots = 0; keep < spans.size(); ++keep)
    if (spans[keep].parent < 0 && ++roots > kMaxWrittenUnits) break;
  const std::vector<Span> head(spans.begin(), spans.begin() + static_cast<std::ptrdiff_t>(keep));
  const std::string path = config.out_dir + "/spans-" + workload + ".tsv";
  const std::vector<std::pair<std::string, std::string>> header = {
      {"workload", workload},
      {"seed", std::to_string(config.seed)},
      {"spans_written", std::to_string(head.size())},
      {"spans_recorded", std::to_string(spans.size())},
  };
  if (write_spans(path, head, header))
    result.notes.emplace_back("span file", path);
  else
    result.warnings.push_back("could not write span file " + path);
}

}  // namespace e2ebench::detail
