// Figure 9: CDF of the squared channel condition number kappa^2 (dB)
// across links, OFDM subcarriers and configurations of the indoor
// ensemble.
//
// Paper claims reproduced here: ~60% of 2x2 links exceed 10 dB; 4x4 links
// are almost always poorly conditioned.
#include <iostream>

#include "bench_util.h"
#include "sim/conditioning_experiment.h"
#include "sim/table.h"

namespace {

using namespace geosphere;

const std::vector<sim::ConditioningSeries>& conditioning() {
  static const auto series = [] {
    sim::ConditioningConfig config;
    config.links = bench::frames_or(400);
    config.seed = bench::seed_or(1);
    return sim::run_conditioning(bench::engine(), config);
  }();
  return series;
}

}  // namespace

int main(int argc, char** argv) {
  geosphere::bench::init_common(argc, argv);
  std::cout << "=== Paper Fig. 9: CDF of kappa^2 across testbed links/subcarriers ===\n"
               "Series order: 2x2, 2x4, 3x4, 4x4 (clients x AP antennas).\n"
               "Paper claims: 2x2 above 10 dB for ~60% of links; 4x4 almost always.\n\n";

  // Figure-style CDF table for eyeballing the curves.
  sim::TablePrinter table({"config", "p10", "p25", "p50", "p75", "p90", "P(>10dB)",
                           "samples"});
  for (const auto& s : conditioning())
    table.add_row({std::to_string(s.clients) + "x" + std::to_string(s.antennas),
                   sim::TablePrinter::fmt(s.kappa_sq_db.percentile(0.10), 1),
                   sim::TablePrinter::fmt(s.kappa_sq_db.percentile(0.25), 1),
                   sim::TablePrinter::fmt(s.kappa_sq_db.percentile(0.50), 1),
                   sim::TablePrinter::fmt(s.kappa_sq_db.percentile(0.75), 1),
                   sim::TablePrinter::fmt(s.kappa_sq_db.percentile(0.90), 1),
                   sim::TablePrinter::fmt(s.kappa_sq_db.fraction_above(10.0)),
                   std::to_string(s.kappa_sq_db.count())});
  std::cout << "\nkappa^2 distribution (dB):\n";
  table.print(std::cout);
  return 0;
}
