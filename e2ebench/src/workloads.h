// The benchmark's workloads and the metrics they report.
//
// Each workload runs in one of two modes:
//   untraced (trace = false): set up several times (median setup_s), then
//     run fixed, seed-derived blocks of frames (link) or TTIs (serve)
//     through the library's own parallel entry points -- sim::Engine::run_link
//     or serve::Server::run -- for at least `seconds`, and report the
//     end-to-end metrics.
//   traced (trace = true): one set-up, the same fixed blocks through the same
//     entry points, and for every few blocks a replica that calls the layers'
//     public functions one by one from this package, once with tracing off
//     and once with every call in a span. The replica must reproduce the
//     entry point's deterministic counters exactly; the spans give the
//     per-layer metrics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "link/link_simulator.h"
#include "serve/server.h"

namespace e2ebench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Frames (link) or TTIs (serve) per block; 0 keeps the workload's own
  /// size. Smoke tests shrink it.
  std::size_t block = 0;
  /// Directory the traced run writes its span file into; empty: none.
  std::string out_dir;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< MU-MIMO frames processed.
  std::uint64_t failed = 0;     ///< Checks that failed.
  std::vector<Metric> metrics;
  std::vector<std::string> errors;    ///< One line per failed check.
  std::vector<std::string> warnings;  ///< Reported, never fatal.
  /// Extra facts for the log (traced goodput/fer, span file, stage table).
  std::vector<std::pair<std::string, std::string>> notes;

  void fail(const std::string& what) {
    correct = false;
    ++failed;
    errors.push_back(what);
  }
};

/// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// End-to-end (untraced) and per-layer (traced) metric names, in report order.
const std::vector<std::string>& end_to_end_metric_names();
const std::vector<std::string>& per_layer_metric_names();

/// Runs workload `name`; throws std::invalid_argument for an unknown name.
RunResult run_workload(const std::string& name, const RunConfig& config);

/// Replica-match checks: every deterministic counter of the traced replica
/// must equal the untraced run's. Each returns one line per mismatch, empty
/// when all match.
std::vector<std::string> compare_link_stats(const geosphere::link::LinkStats& untraced,
                                            const geosphere::link::LinkStats& traced);
std::vector<std::string> compare_cell_counters(const geosphere::serve::CellCounters& untraced,
                                               const geosphere::serve::CellCounters& traced,
                                               std::size_t cell);

/// What produced a result: host, build, kernel tiers, commit, seed, workers.
std::vector<std::pair<std::string, std::string>> run_stamp(const std::string& workload,
                                                           const RunConfig& config,
                                                           const std::string& commit);

}  // namespace e2ebench
