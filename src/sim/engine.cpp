#include "sim/engine.h"

#include <atomic>
#include <stdexcept>

#include "coding/spec.h"
#include "link/throughput.h"

namespace geosphere::sim {

const channel::ChannelModel& Engine::channel(const channel::ChannelSpec& spec,
                                             std::size_t clients, std::size_t antennas) {
  // Fixed-dims specs (traces) ignore the requested dimensions, so they
  // share one entry regardless of clients/antennas -- the file is loaded
  // once per engine even across differently-sized sweeps.
  const std::string key =
      spec.fixed_dims()
          ? spec.text()
          : spec.text() + "@" + std::to_string(clients) + "x" + std::to_string(antennas);
  auto& slot = channel_cache_[key];
  if (!slot) slot = spec.create(clients, antennas);
  return *slot;
}

link::LinkStats Engine::run_link(const link::LinkSimulator& sim, const DetectorSpec& spec,
                                 std::size_t frames, std::uint64_t seed) {
  const unsigned qam = sim.scenario().frame.qam_order;
  std::vector<link::LinkStats> partial(pool_.size());
  std::atomic<std::size_t> next{0};
  pool_.run_on_workers([&](std::size_t worker) {
    Detector& detector = detectors_.get(worker, spec, qam);
    link::LinkStats& local = partial[worker];
    for (std::size_t f; (f = next.fetch_add(1, std::memory_order_relaxed)) < frames;) {
      Rng rng = Rng::for_frame(seed, f);
      sim.simulate_frame(detector, spec.decision(), rng, local);
    }
  });

  link::LinkStats total;
  sim.init_stats(total);  // frames == 0 parity with LinkSimulator::run.
  for (const auto& p : partial) total += p;
  return total;
}

link::LinkStats Engine::run_link(const channel::ChannelSpec& chspec, std::size_t clients,
                                 std::size_t antennas, const link::LinkScenario& scenario,
                                 const DetectorSpec& spec, std::size_t frames,
                                 std::uint64_t seed) {
  const link::LinkSimulator sim(channel(chspec, clients, antennas), scenario);
  return run_link(sim, spec, frames, seed);
}

link::FrameBatchRunner Engine::runner() {
  return [this](const link::LinkSimulator& sim, const DetectorSpec& spec,
                std::size_t frames, std::uint64_t seed) {
    return run_link(sim, spec, frames, seed);
  };
}

link::RateChoice Engine::best_rate(const channel::ChannelModel& channel,
                                   link::LinkScenario base, const DetectorSpec& spec,
                                   std::size_t frames, std::uint64_t seed,
                                   const std::vector<unsigned>& candidate_qams) {
  const std::size_t nq = candidate_qams.size();
  std::vector<link::LinkSimulator> sims;
  sims.reserve(nq);
  for (const unsigned qam : candidate_qams) {
    link::LinkScenario scenario = base;
    scenario.frame.qam_order = qam;
    sims.emplace_back(channel, scenario);
  }

  // One flat work pool over (candidate, frame): candidates run
  // concurrently instead of one frame batch after another. Identical
  // draws for every candidate: same seed, per-frame seeding.
  std::vector<std::vector<link::LinkStats>> partial(
      pool_.size(), std::vector<link::LinkStats>(nq));
  std::atomic<std::size_t> next{0};
  const std::size_t total = nq * frames;
  pool_.run_on_workers([&](std::size_t worker) {
    for (std::size_t g; (g = next.fetch_add(1, std::memory_order_relaxed)) < total;) {
      const std::size_t qi = g / frames;
      const std::size_t f = g % frames;
      Detector& detector = detectors_.get(worker, spec, candidate_qams[qi]);
      Rng rng = Rng::for_frame(seed, f);
      sims[qi].simulate_frame(detector, spec.decision(), rng, partial[worker][qi]);
    }
  });

  // Same selection rule as link::best_rate: candidate order, strictly
  // greater throughput wins. Worker-ordered merge keeps the accumulation
  // associative-deterministic (all-integer counters).
  link::RateChoice best;
  for (std::size_t qi = 0; qi < nq; ++qi) {
    link::LinkStats stats;
    sims[qi].init_stats(stats);
    for (const auto& p : partial) stats += p[qi];

    const link::LinkScenario& scenario = sims[qi].scenario();
    const double mbps = link::net_throughput_mbps(
        channel.num_tx(), candidate_qams[qi], scenario.frame.code_rate_value(),
        stats.per_client_fer(), scenario.frame.data_subcarriers);
    if (best.qam_order == 0 || mbps > best.throughput_mbps) {
      best.qam_order = candidate_qams[qi];
      best.code_rate = scenario.frame.code_rate_value();
      best.throughput_mbps = mbps;
      best.stats = stats;
    }
  }
  return best;
}

link::RateChoice Engine::best_rate(const channel::ChannelSpec& chspec,
                                   std::size_t clients, std::size_t antennas,
                                   link::LinkScenario base, const DetectorSpec& spec,
                                   std::size_t frames, std::uint64_t seed,
                                   const std::vector<unsigned>& candidate_qams) {
  return best_rate(channel(chspec, clients, antennas), base, spec, frames, seed,
                   candidate_qams);
}

double Engine::find_snr_for_fer(const channel::ChannelModel& channel,
                                link::LinkScenario base, const DetectorSpec& spec,
                                const link::SnrSearchConfig& config, std::uint64_t seed) {
  return link::find_snr_for_fer(channel, base, spec, config, seed, runner());
}

double Engine::find_snr_for_fer(const channel::ChannelSpec& chspec, std::size_t clients,
                                std::size_t antennas, link::LinkScenario base,
                                const DetectorSpec& spec,
                                const link::SnrSearchConfig& config, std::uint64_t seed) {
  return find_snr_for_fer(channel(chspec, clients, antennas), base, spec, config, seed);
}

std::vector<SweepCell> Engine::run_sweep(const channel::ChannelModel& channel,
                                         const SweepSpec& spec) {
  return run_sweep_impl(channel, spec, "custom");
}

std::vector<SweepCell> Engine::run_sweep(const SweepSpec& spec) {
  const channel::ChannelSpec chspec = channel::ChannelSpec::parse(spec.channel);
  return run_sweep_impl(channel(chspec, spec.clients, spec.antennas), spec,
                        chspec.text());
}

std::vector<SweepCell> Engine::run_sweep_impl(const channel::ChannelModel& channel,
                                              const SweepSpec& spec,
                                              const std::string& channel_label) {
  // Parse and validate every detector (including the decision override)
  // before any work is scheduled.
  std::vector<DetectorSpec> specs;
  specs.reserve(spec.detectors.size());
  for (const std::string& name : spec.detectors) {
    DetectorSpec parsed = DetectorSpec::parse(name);
    if (spec.decision) parsed = parsed.with_decision(*spec.decision);
    specs.push_back(std::move(parsed));
  }

  // Parse the code axis up front too (strict: a typo fails the sweep
  // before any frame is simulated).
  std::vector<coding::CodeSpec> code_specs;
  code_specs.reserve(spec.codes.size());
  for (const std::string& code : spec.codes)
    code_specs.push_back(coding::CodeSpec::parse(code));
  if (code_specs.empty())
    throw std::invalid_argument("SweepSpec: codes must not be empty");

  const std::size_t ns = spec.snr_grid_db.size();
  const std::size_t nd = specs.size();
  const std::size_t nc = code_specs.size();
  const std::size_t nq = spec.candidate_qams.size();
  const std::size_t frames = spec.frames;

  link::LinkScenario base;
  base.frame.payload_bytes = spec.payload_bytes;
  base.frame.viterbi = spec.viterbi;
  base.snr_jitter_db = spec.snr_jitter_db;

  // One LinkSimulator per (SNR point, code, candidate QAM); detectors
  // share it.
  std::vector<link::LinkSimulator> sims;
  sims.reserve(ns * nc * nq);
  for (std::size_t si = 0; si < ns; ++si) {
    for (std::size_t ci = 0; ci < nc; ++ci) {
      for (std::size_t qi = 0; qi < nq; ++qi) {
        link::LinkScenario scenario = base;
        scenario.snr_db = spec.snr_grid_db[si];
        scenario.frame.set_code(code_specs[ci]);
        scenario.frame.qam_order = spec.candidate_qams[qi];
        sims.emplace_back(channel, scenario);
      }
    }
  }

  // One derived seed per SNR point, shared across detectors and codes so
  // their comparison is paired on identical channel/noise draws.
  std::vector<std::uint64_t> point_seeds(ns);
  for (std::size_t si = 0; si < ns; ++si)
    point_seeds[si] = Rng::derive_seed(spec.seed, si);

  // The whole sweep is one flat work pool over (SNR, detector, code,
  // candidate, frame): cells and rate-adaptation candidates parallelize,
  // not just frames within a cell.
  // partial[worker][((si * nd + di) * nc + ci) * nq + qi] accumulates that
  // worker's frames for one (cell, candidate).
  std::vector<std::vector<link::LinkStats>> partial(
      pool_.size(), std::vector<link::LinkStats>(ns * nd * nc * nq));
  std::atomic<std::size_t> next{0};
  const std::size_t total = ns * nd * nc * nq * frames;
  pool_.run_on_workers([&](std::size_t worker) {
    for (std::size_t g; (g = next.fetch_add(1, std::memory_order_relaxed)) < total;) {
      const std::size_t f = g % frames;
      std::size_t rest = g / frames;
      const std::size_t qi = rest % nq;
      rest /= nq;
      const std::size_t ci = rest % nc;
      rest /= nc;
      const std::size_t di = rest % nd;
      const std::size_t si = rest / nd;

      Detector& detector = detectors_.get(worker, specs[di], spec.candidate_qams[qi]);
      Rng rng = Rng::for_frame(point_seeds[si], f);
      sims[(si * nc + ci) * nq + qi].simulate_frame(
          detector, specs[di].decision(), rng,
          partial[worker][((si * nd + di) * nc + ci) * nq + qi]);
    }
  });

  // Assemble cells SNR-major, then detector, then code, applying the same
  // selection rule as best_rate per cell (candidate order, strictly
  // greater wins).
  std::vector<SweepCell> out;
  out.reserve(ns * nd * nc);
  for (std::size_t si = 0; si < ns; ++si) {
    for (std::size_t di = 0; di < nd; ++di) {
      for (std::size_t ci = 0; ci < nc; ++ci) {
        SweepCell cell;
        cell.detector = spec.detectors[di];
        cell.channel = channel_label;
        cell.decision = specs[di].decision();
        cell.snr_db = spec.snr_grid_db[si];
        cell.code = code_specs[ci].text();
        double best_mbps = 0.0;
        for (std::size_t qi = 0; qi < nq; ++qi) {
          const link::LinkSimulator& sim = sims[(si * nc + ci) * nq + qi];
          link::LinkStats stats;
          sim.init_stats(stats);
          for (const auto& p : partial)
            stats += p[((si * nd + di) * nc + ci) * nq + qi];

          const double mbps = link::net_throughput_mbps(
              channel.num_tx(), spec.candidate_qams[qi],
              sim.scenario().frame.code_rate_value(), stats.per_client_fer(),
              sim.scenario().frame.data_subcarriers);
          if (cell.best_qam == 0 || mbps > best_mbps) {
            cell.best_qam = spec.candidate_qams[qi];
            cell.code_rate = sim.scenario().frame.code_rate_value();
            cell.throughput_mbps = mbps;
            cell.stats = stats;
            best_mbps = mbps;
          }
        }
        out.push_back(std::move(cell));
      }
    }
  }
  return out;
}

}  // namespace geosphere::sim
