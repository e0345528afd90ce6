// Figure 10: CDF of Lambda, the worst per-stream SNR degradation caused by
// zero-forcing noise amplification, across the indoor ensemble.
//
// Paper claims reproduced here: Lambda > 5 dB on ~30% of 2x2 and ~90% of
// 4x4 links; with only 2 clients on a 4-antenna AP, degradation is below
// 3 dB for ~90% of links.
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
    config.seed = bench::seed_or(2);
    return sim::run_conditioning(bench::engine(), config);
  }();
  return series;
}

}  // namespace

int main(int argc, char** argv) {
  geosphere::bench::init_common(argc, argv);
  std::cout << "=== Paper Fig. 10: CDF of Lambda (worst-stream ZF SNR degradation) ===\n"
               "Series order: 2x2, 2x4, 3x4, 4x4 (clients x AP antennas).\n"
               "Paper claims: >5 dB on 30% of 2x2 / 90% of 4x4; 2x4 <3 dB for 90%.\n\n";

  sim::TablePrinter table(
      {"config", "p10", "p25", "p50", "p75", "p90", "P(>5dB)", "P(<=3dB)", "samples"});
  for (const auto& s : conditioning())
    table.add_row({std::to_string(s.clients) + "x" + std::to_string(s.antennas),
                   sim::TablePrinter::fmt(s.lambda_db.percentile(0.10), 1),
                   sim::TablePrinter::fmt(s.lambda_db.percentile(0.25), 1),
                   sim::TablePrinter::fmt(s.lambda_db.percentile(0.50), 1),
                   sim::TablePrinter::fmt(s.lambda_db.percentile(0.75), 1),
                   sim::TablePrinter::fmt(s.lambda_db.percentile(0.90), 1),
                   sim::TablePrinter::fmt(s.lambda_db.fraction_above(5.0)),
                   sim::TablePrinter::fmt(s.lambda_db.fraction_at_or_below(3.0)),
                   std::to_string(s.lambda_db.count())});
  std::cout << "\nLambda distribution (dB):\n";
  table.print(std::cout);
  return 0;
}
