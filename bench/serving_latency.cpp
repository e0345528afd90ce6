// Engineering benchmark (not a paper figure): end-to-end per-frame
// detection latency of the streaming serve layer (src/serve) on a fixed
// two-cell scenario, at 1, 2 and 4 threads (and all cores when there are
// more). Each record reports the p50/p90/p99/max of the per-frame
// detection latency distribution (TTI dispatch -> the frame's last
// (cell, subcarrier) work item completing), the run's total goodput and
// its wall-clock time (scheduling and rate probes included, which the
// latency histogram leaves out) -- the serving-layer counterpart of
// detector_latency's per-call numbers.
//
// The deterministic counters (goodput, errors, schedule hashes) are
// bit-identical across the thread counts by construction; the bench
// asserts that before reporting, so a latency baseline can never be
// committed from a run whose determinism contract was broken. Emits
// machine-readable BENCH_serving_latency.json (--json=PATH to relocate)
// with the shared "host" block; CI runs it with a small --ttis and checks
// the JSON with tools/check_bench.py.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "serve/server.h"
#include "serve/spec.h"

namespace {

using namespace geosphere;

/// The benched scenario: one loaded geosphere cell and one lighter MMSE
/// cell, so the work-item stream mixes tree-search and linear solves.
const char* kSpec =
    "users=24,antennas=4,load=0.7,detector=geosphere,snr=22,qams=4|16|64;"
    "users=12,antennas=4,load=0.4,detector=mmse,snr=18,qams=4|16";

struct RunRecord {
  std::size_t threads = 0;
  double wall_s = 0.0;  ///< Server::run, start to finish.
  serve::ServeResult result;
};

double total_goodput_mbps(const serve::ServeResult& r) {
  double total = 0.0;
  for (const serve::CellReport& cell : r.cells) total += cell.counters.goodput_mbps();
  return total;
}

void write_json(const std::string& path, const std::vector<RunRecord>& runs,
                std::uint64_t ttis, std::uint64_t seed) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"serving_latency\",\n  \"spec\": \"%s\",\n", kSpec);
  std::fprintf(f, "  \"ttis\": %llu,\n  \"seed\": %llu,\n",
               static_cast<unsigned long long>(ttis),
               static_cast<unsigned long long>(seed));
  bench::write_host_json(f);
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const serve::ServeResult& r = runs[i].result;
    const serve::LatencyRecorder& lat = r.latency;
    std::fprintf(f,
                 "    {\"threads\": %zu, \"frames\": %llu, "
                 "\"p50_ns\": %.1f, \"p90_ns\": %.1f, \"p99_ns\": %.1f, "
                 "\"max_ns\": %llu, \"goodput_mbps\": %.6f, \"wall_s\": %.3f}%s\n",
                 runs[i].threads, static_cast<unsigned long long>(lat.count()),
                 lat.percentile_ns(0.5), lat.percentile_ns(0.9), lat.percentile_ns(0.99),
                 static_cast<unsigned long long>(lat.max_ns()), total_goodput_mbps(r),
                 runs[i].wall_s, i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t ttis = 120;
  std::string json_path = "BENCH_serving_latency.json";
  std::string ttis_text;
  if (geosphere::bench::take_flag(argc, argv, "--ttis", ttis_text)) {
    ttis = static_cast<std::uint64_t>(std::atoll(ttis_text.c_str()));
    if (ttis == 0) {
      std::fprintf(stderr, "error: --ttis expects a positive integer\n");
      return 1;
    }
  }
  geosphere::bench::take_flag(argc, argv, "--json", json_path);
  geosphere::bench::init_common(argc, argv, "--ttis=N --json=PATH");
  const std::uint64_t seed = geosphere::bench::seed_or(1);

  const serve::ServeSpec spec = serve::ServeSpec::parse(kSpec);
  const std::size_t cores = sim::ThreadPool::hardware_threads();
  std::vector<std::size_t> thread_counts = {1, 2, 4};
  if (cores > 4) thread_counts.push_back(cores);

  std::printf("serving latency: %zu cells, %llu TTIs, seed %llu, host cores %zu\n\n",
              spec.cells.size(), static_cast<unsigned long long>(ttis),
              static_cast<unsigned long long>(seed), cores);
  std::printf("%8s %8s %10s %10s %10s %10s %15s %9s\n", "threads", "frames", "p50 (us)",
              "p90 (us)", "p99 (us)", "max (us)", "goodput (Mbps)", "wall (s)");

  std::vector<RunRecord> runs;
  for (const std::size_t threads : thread_counts) {
    serve::Server server(spec, threads);
    RunRecord rec;
    rec.threads = server.threads();
    const auto start = std::chrono::steady_clock::now();
    rec.result = server.run(ttis, seed);
    rec.wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    const serve::LatencyRecorder& lat = rec.result.latency;
    std::printf("%8zu %8llu %10.1f %10.1f %10.1f %10.1f %15.3f %9.3f\n", rec.threads,
                static_cast<unsigned long long>(lat.count()),
                lat.percentile_ns(0.5) / 1000.0, lat.percentile_ns(0.9) / 1000.0,
                lat.percentile_ns(0.99) / 1000.0,
                static_cast<double>(lat.max_ns()) / 1000.0, total_goodput_mbps(rec.result),
                rec.wall_s);
    runs.push_back(std::move(rec));
  }

  // Determinism gate: every run must agree on every deterministic counter.
  for (std::size_t i = 1; i < runs.size(); ++i) {
    for (std::size_t c = 0; c < spec.cells.size(); ++c) {
      const serve::CellCounters& a = runs[0].result.cells[c].counters;
      const serve::CellCounters& b = runs[i].result.cells[c].counters;
      if (a.schedule_hash != b.schedule_hash || a.delivered_bits != b.delivered_bits ||
          a.bit_errors != b.bit_errors || a.user_frames_error != b.user_frames_error) {
        std::fprintf(stderr,
                     "error: deterministic counters diverged between %zu and %zu "
                     "threads (cell %zu) -- refusing to write a baseline\n",
                     runs[0].threads, runs[i].threads, c);
        return 1;
      }
    }
  }
  std::printf("\ndeterministic counters identical across %zu thread configuration(s)\n",
              runs.size());

  write_json(json_path, runs, ttis, seed);
  std::printf("wrote %s (%zu records)\n", json_path.c_str(), runs.size());
  return 0;
}
