// Figure 11: net uplink throughput of zero-forcing vs Geosphere on the
// indoor ensemble, for {2x2, 2x4, 3x4, 4x4} (clients x AP antennas) at
// average per-stream SNRs of 15, 20 and 25 dB (+/-5 dB selection window),
// with ideal rate adaptation over {4, 16, 64}-QAM at code rate 1/2.
//
// Paper claims reproduced here: up to 47% gain in 2x2 and >2x in 4x4;
// modest (~6%) gains in the well-conditioned 2x4/3x4 cases; Geosphere with
// 4 clients beats ZF with 3 clients (up to 36% at 20 dB).
//
// Runs as one declarative sim::SweepSpec per antenna configuration on the
// shared thread-pooled engine: pass --threads=N to use N cores (results
// are bit-identical for any thread count).
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "sim/table.h"

namespace {

using namespace geosphere;

struct Config {
  std::size_t clients;
  std::size_t antennas;
};
const std::vector<Config> kConfigs{{2, 2}, {2, 4}, {3, 4}, {4, 4}};
const std::vector<double> kSnrs{15.0, 20.0, 25.0};

struct Row {
  Config config;
  double snr;
  sim::SweepCell zf;
  sim::SweepCell geo;
};

const std::vector<Row>& results() {
  static const auto rows = [] {
    std::vector<Row> out;
    for (const auto& cfg : kConfigs) {
      // One fully declarative sweep per antenna configuration: the
      // channel is a registry spec string like everything else.
      sim::SweepSpec spec;
      spec.channel = bench::channel_or("indoor");
      spec.clients = cfg.clients;
      spec.antennas = cfg.antennas;
      spec.detectors = {"zf", "geosphere"};
      spec.snr_grid_db = kSnrs;
      spec.frames = bench::frames_or(60);
      spec.seed = bench::seed_or(cfg.clients * 1000 + cfg.antennas * 100);
      const auto cells = bench::engine().run_sweep(spec);

      for (std::size_t si = 0; si < kSnrs.size(); ++si)
        out.push_back({cfg, kSnrs[si], cells[si * 2], cells[si * 2 + 1]});
    }
    return out;
  }();
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  geosphere::bench::init_common(argc, argv);
  geosphere::bench::reject_fixed_dims_channel("fig11_throughput");
  std::cout << "=== Paper Fig. 11: testbed throughput, ZF vs Geosphere ===\n"
               "Ideal rate adaptation over {4,16,64}-QAM, rate-1/2 K=7 coding,\n"
               "48-subcarrier OFDM, per-frame SNR in +/-5 dB window.\n"
            << "Channel: " << geosphere::bench::channel_or("indoor")
            << "  Engine threads: " << geosphere::bench::engine().threads() << "\n\n";

  sim::TablePrinter table({"config", "SNR (dB)", "ZF (Mbps)", "Geosphere (Mbps)",
                           "gain", "ZF QAM", "Geo QAM"});
  for (const auto& row : results())
    table.add_row(
        {std::to_string(row.config.clients) + "x" + std::to_string(row.config.antennas),
         sim::TablePrinter::fmt(row.snr, 0), sim::TablePrinter::fmt(row.zf.throughput_mbps),
         sim::TablePrinter::fmt(row.geo.throughput_mbps),
         sim::TablePrinter::fmt(row.zf.throughput_mbps > 0
                                    ? row.geo.throughput_mbps / row.zf.throughput_mbps
                                    : 0.0),
         std::to_string(row.zf.best_qam), std::to_string(row.geo.best_qam)});
  std::cout << '\n';
  table.print(std::cout);

  // The paper's cross-comparison: Geosphere serving 4 clients vs ZF
  // sacrificing concurrency to serve only 3 (both on a 4-antenna AP).
  double geo4 = 0.0;
  double zf3 = 0.0;
  for (const auto& row : results()) {
    if (row.snr != 20.0) continue;
    if (row.config.clients == 4) geo4 = row.geo.throughput_mbps;
    if (row.config.clients == 3) zf3 = row.zf.throughput_mbps;
  }
  if (zf3 > 0.0)
    std::cout << "\nGeosphere(4 clients) vs ZF(3 clients) at 20 dB: " << geo4 << " vs "
              << zf3 << " Mbps (gain " << sim::TablePrinter::fmt(geo4 / zf3) << "x; paper: up to 1.36x)\n";
  return 0;
}
