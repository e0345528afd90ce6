// Per-worker detector instances for the thread-pooled runners (sim::Engine
// and serve::Server). Detectors are stateful and not thread-safe, so each
// worker owns its own, created on first use for a (spec text, QAM order)
// pair and kept across calls -- short batches and steady-state serve TTIs
// skip detector setup. Reuse is transparent: every frame starts with a
// prepare_batch() that fully overwrites the prepared-channel state.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "detect/spec.h"

namespace geosphere::sim {

class DetectorCache {
 public:
  explicit DetectorCache(std::size_t workers) : per_worker_(workers) {}

  /// Worker `worker`'s instance of `spec` for QAM `qam_order`. Each worker
  /// only touches its own map, so no locking is needed.
  Detector& get(std::size_t worker, const DetectorSpec& spec, unsigned qam_order) {
    auto& slot = per_worker_[worker][spec.text() + "@" + std::to_string(qam_order)];
    if (!slot) slot = spec.create(Constellation::qam(qam_order));
    return *slot;
  }

 private:
  std::vector<std::unordered_map<std::string, std::unique_ptr<Detector>>> per_worker_;
};

}  // namespace geosphere::sim
