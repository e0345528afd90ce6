// Ablation (paper Section 6.1): enumeration-strategy comparison. Counts
// the exact-distance computations each enumerator needs to deliver the
// first k sorted children of a node, and compares full decoders built on
// each strategy.
//
// Paper claims reproduced here: Geosphere needs 4 PED calculations to
// identify the third-smallest child where Shabany's scheme needs 5 (25%
// more); Hess/ETH-SD pays sqrt(M) up front per node.
#include <iostream>
#include <limits>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/stats.h"
#include "detect/sphere/enumerators.h"
#include "sim/complexity_experiment.h"
#include "sim/table.h"

namespace {

using namespace geosphere;

constexpr double kInf = std::numeric_limits<double>::infinity();

template <class Enum>
double avg_peds_for_k_children(Enum make, unsigned order, int k, std::uint64_t seed) {
  const Constellation& c = Constellation::qam(order);
  Rng rng(seed);
  RunningStats peds;
  for (int trial = 0; trial < 2000; ++trial) {
    auto e = make;
    e.attach(c);
    DetectionStats stats;
    const double extent = 1.1 * c.pam_levels();
    e.reset(cf64{rng.uniform(-extent, extent), rng.uniform(-extent, extent)}, stats);
    for (int i = 0; i < k; ++i) (void)e.next(kInf, stats);
    peds.add(static_cast<double>(stats.ped_computations));
  }
  return peds.mean();
}

struct EnumRow {
  unsigned order;
  int k;
  double geo;
  double shabany;
  double hess;
};

const std::vector<EnumRow>& enum_results() {
  static const auto rows = [] {
    std::vector<EnumRow> out;
    for (const unsigned order : {16u, 64u, 256u}) {
      for (const int k : {1, 2, 3, 4}) {
        const std::uint64_t seed = bench::seed_or(1);
        out.push_back(
            {order, k,
             avg_peds_for_k_children(
                 sphere::GeoEnumerator({.geometric_pruning = false}), order, k, seed),
             avg_peds_for_k_children(sphere::ShabanyEnumerator{}, order, k, seed),
             avg_peds_for_k_children(sphere::HessEnumerator{}, order, k, seed)});
      }
    }
    return out;
  }();
  return rows;
}

// Full-decoder comparison on one workload.
const std::vector<sim::ComplexityPoint>& decoder_results() {
  static const auto points = [] {
    const channel::ChannelModel& rayleigh = bench::make_channel("rayleigh", 4, 4);
    link::LinkScenario scenario;
    scenario.frame.qam_order = 64;
    scenario.frame.payload_bytes = 250;
    scenario.snr_db = 20.0;
    return sim::measure_complexity(
        bench::engine(), rayleigh, scenario,
        {{"Geosphere", DetectorSpec::parse("geosphere")},
         {"Geosphere-2DZZ", DetectorSpec::parse("geosphere-2dzz")},
         {"Shabany-SD", DetectorSpec::parse("shabany")},
         {"ETH-SD", DetectorSpec::parse("eth-sd")}},
        geosphere::bench::frames_or(30), geosphere::bench::point_seed(1, 5));
  }();
  return points;
}

}  // namespace

int main(int argc, char** argv) {
  geosphere::bench::init_common(argc, argv);
  std::cout << "=== Ablation: enumeration strategies (paper Section 6.1) ===\n\n";

  sim::TablePrinter table({"QAM", "children k", "Geosphere", "Shabany", "Hess (ETH-SD)"});
  for (const auto& row : enum_results())
    table.add_row({std::to_string(row.order), std::to_string(row.k),
                   sim::TablePrinter::fmt(row.geo, 2), sim::TablePrinter::fmt(row.shabany, 2),
                   sim::TablePrinter::fmt(row.hess, 2)});
  std::cout << "\nAverage PED calculations to deliver the first k sorted children:\n";
  table.print(std::cout);

  sim::TablePrinter dec({"decoder", "PED/sc", "nodes/sc"});
  for (const auto& p : decoder_results())
    dec.add_row({p.detector, sim::TablePrinter::fmt(p.avg_ped_per_subcarrier, 1),
                 sim::TablePrinter::fmt(p.avg_visited_nodes, 1)});
  std::cout << "\nFull depth-first decoders, 4x4 64-QAM @ 20 dB (channel "
            << geosphere::bench::channel_or("rayleigh") << "):\n";
  dec.print(std::cout);
  std::cout << "\nPaper's worked example: 3rd child costs Geosphere 4 PEDs,\n"
               "Shabany 5 (25% more); Hess pays sqrt(M) at node expansion.\n";
  return 0;
}
