// Figure 12: achievable uplink throughput of a four-antenna AP as the
// number of concurrently transmitting clients grows (20 dB SNR, indoor
// ensemble, ideal rate adaptation).
//
// Paper claim reproduced here: Geosphere's throughput scales ~linearly
// with the number of clients, zero-forcing's does not.
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "sim/table.h"

namespace {

using namespace geosphere;

struct Row {
  std::size_t clients;
  sim::SweepCell zf;
  sim::SweepCell geo;
};

const std::vector<Row>& results() {
  static const auto rows = [] {
    std::vector<Row> out;
    for (const std::size_t clients : {1u, 2u, 3u, 4u}) {
      sim::SweepSpec spec;
      spec.channel = bench::channel_or("indoor");
      spec.clients = clients;
      spec.antennas = 4;
      spec.detectors = {"zf", "geosphere"};
      spec.snr_grid_db = {20.0};
      spec.frames = bench::frames_or(60);
      spec.seed = bench::seed_or(100 + clients);
      const auto cells = bench::engine().run_sweep(spec);
      out.push_back({clients, cells[0], cells[1]});
    }
    return out;
  }();
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  geosphere::bench::init_common(argc, argv);
  geosphere::bench::reject_fixed_dims_channel("fig12_scaling");
  std::cout << "=== Paper Fig. 12: throughput vs number of clients (4-antenna AP, 20 dB) ===\n\n";

  sim::TablePrinter table({"clients", "ZF (Mbps)", "Geosphere (Mbps)",
                           "Geo per-client (Mbps)"});
  for (const auto& row : results())
    table.add_row({std::to_string(row.clients),
                   sim::TablePrinter::fmt(row.zf.throughput_mbps),
                   sim::TablePrinter::fmt(row.geo.throughput_mbps),
                   sim::TablePrinter::fmt(row.geo.throughput_mbps /
                                          static_cast<double>(row.clients))});
  std::cout << '\n';
  table.print(std::cout);
  std::cout << "\nExpected shape: Geosphere per-client throughput stays ~flat as\n"
               "clients are added; ZF's sum throughput saturates or regresses.\n";
  return 0;
}
