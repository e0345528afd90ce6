// Link workloads: sim::Engine::run_link untraced, and a traced replica of
// link::LinkSimulator::simulate_frame built from the layers' public calls.
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "channel/noise.h"
#include "channel/spec.h"
#include "internal.h"
#include "link/coded_pipeline.h"
#include "sim/engine.h"

namespace e2ebench::detail {

namespace {

using namespace geosphere;

/// One frame of LinkSimulator::simulate_frame, call for call and in the same
/// RNG draw order, with a span around every layer call.
void replay_frame(const link::LinkSimulator& sim, const phy::FrameCodec& codec,
                  Detector& detector, SoftDetector* soft, Rng& rng, Tracer& tr,
                  std::uint32_t unit, link::CodedPipeline& pipeline,
                  std::vector<link::StreamDecodeResult>& results, link::LinkStats& stats) {
  const Scope frame(tr, Stage::kFrame, unit);
  sim.init_stats(stats);
  const link::LinkScenario& scenario = sim.scenario();
  const std::size_t nc = sim.channel().num_tx();
  const std::size_t na = sim.channel().num_rx();
  const std::size_t nsc = scenario.frame.data_subcarriers;
  const std::size_t ofdm_symbols = codec.ofdm_symbols_per_frame();
  const unsigned q = detector.constellation().bits_per_symbol();

  std::vector<phy::EncodedFrame> tx(nc);
  std::vector<std::vector<unsigned>> rx(soft == nullptr ? nc : 0);
  std::vector<std::vector<double>> rx_conf(soft != nullptr ? nc : 0);

  channel::Link link;
  {
    const Scope s(tr, Stage::kDraw);
    link = sim.channel().draw_link(rng, nsc);
  }
  const double snr_db =
      scenario.snr_db + (scenario.snr_jitter_db > 0.0
                             ? rng.uniform(-scenario.snr_jitter_db, scenario.snr_jitter_db)
                             : 0.0);
  const double n0 = channel::noise_variance_for_snr_db(snr_db);

  for (std::size_t k = 0; k < nc; ++k) {
    {
      const Scope s(tr, Stage::kEncode);
      tx[k] = codec.encode(rng.bits(scenario.frame.payload_bits()));
    }
    if (soft != nullptr)
      rx_conf[k].assign(ofdm_symbols * nsc * q, 0.5);
    else
      rx[k].assign(ofdm_symbols * nsc, 0);
  }

  std::vector<cf64> noise;
  if (n0 > 0.0) {
    const Scope s(tr, Stage::kNoise);
    noise.resize(ofdm_symbols * nsc * na);
    for (auto& v : noise) v = rng.cgaussian(n0);
  }

  CVector x(nc);
  CVector y(na);
  linalg::CMatrix y_batch;
  BatchResult batch;
  SoftBatchResult soft_batch;
  std::vector<double> conf;

  {
    const Scope s(tr, Stage::kPrepare);
    detector.prepare_batch(link.subcarriers, n0);
  }
  ++stats.detection.prepare_batch_calls;

  for (std::size_t sc = 0; sc < nsc; ++sc) {
    const linalg::CMatrix& h = link.subcarriers[sc];
    {
      const Scope s(tr, Stage::kPrepare);
      detector.select_prepared(sc);
    }
    ++stats.detection.preprocess_calls;

    {
      const Scope s(tr, Stage::kApply);
      y_batch.assign_shape(na, ofdm_symbols);
      for (std::size_t sym = 0; sym < ofdm_symbols; ++sym) {
        for (std::size_t k = 0; k < nc; ++k)
          x[k] = detector.constellation().point(tx[k].symbol_at(sym, sc, nsc));
        multiply_into(h, x, y);
        if (n0 > 0.0) {
          const cf64* w = &noise[(sym * nsc + sc) * na];
          for (std::size_t i = 0; i < na; ++i) y[i] += w[i];
        }
        for (std::size_t i = 0; i < na; ++i) y_batch(i, sym) = y[i];
      }
    }

    if (soft != nullptr) {
      {
        const Scope s(tr, Stage::kSolve);
        soft->solve_soft_batch(y_batch, soft_batch);
      }
      stats.detection += soft_batch.stats;
      stats.detection_calls += soft_batch.count;
      const Scope s(tr, Stage::kScatter);
      llrs_to_confidence(soft_batch.llrs, conf);
      for (std::size_t sym = 0; sym < ofdm_symbols; ++sym)
        for (std::size_t k = 0; k < nc; ++k)
          for (unsigned b = 0; b < q; ++b)
            rx_conf[k][(sym * nsc + sc) * q + b] = conf[(sym * nc + k) * q + b];
    } else {
      {
        const Scope s(tr, Stage::kSolve);
        detector.solve_batch(y_batch, batch);
      }
      stats.detection += batch.stats;
      stats.detection_calls += batch.count;
      const Scope s(tr, Stage::kScatter);
      for (std::size_t sym = 0; sym < ofdm_symbols; ++sym)
        for (std::size_t k = 0; k < nc; ++k)
          rx[k][sym * nsc + sc] = batch.indices[sym * nc + k];
    }
  }

  {
    const Scope s(tr, Stage::kDecode);
    if (soft != nullptr)
      pipeline.decode_frame_soft(codec, rx_conf, ofdm_symbols, tx, results);
    else
      pipeline.decode_frame_hard(codec, rx, ofdm_symbols, tx, results);
  }

  for (std::size_t k = 0; k < nc; ++k) {
    const link::StreamDecodeResult& r = results[k];
    stats.bit_errors += r.bit_errors;
    stats.payload_bits += r.payload_bits;
    stats.client_frame_errors[k] += r.bit_errors != 0 ? 1 : 0;
    if (r.crc_ok) {
      ++stats.crc_frames_ok;
      stats.delivered_payload_bits += r.payload_bits;
    } else {
      ++stats.crc_frames_error;
    }
  }
  stats.ofdm_symbol_slots += ofdm_symbols;
  ++stats.frames;
}

/// The replica's own state: detector, codec and decode pipeline, built once.
struct LinkReplica {
  LinkReplica(const link::LinkSimulator& sim, const DetectorSpec& spec)
      : sim(sim),
        codec(sim.scenario().frame),
        detector(spec.create(Constellation::qam(sim.scenario().frame.qam_order))),
        soft(spec.decision() == DecisionMode::kSoft ? detector->soft() : nullptr) {
    if (spec.decision() == DecisionMode::kSoft && soft == nullptr)
      throw std::invalid_argument("detector cannot produce soft decisions");
  }

  /// Replays the block of `frames` frames that Engine::run_link(sim, spec,
  /// frames, seed) runs (frame f draws from Rng::for_frame(seed, f)).
  link::LinkStats replay(std::size_t frames, std::uint64_t seed, std::uint32_t unit_base,
                         Tracer& tr) {
    link::LinkStats stats;
    sim.init_stats(stats);
    for (std::size_t f = 0; f < frames; ++f) {
      Rng rng = Rng::for_frame(seed, f);
      replay_frame(sim, codec, *detector, soft, rng, tr,
                   unit_base + static_cast<std::uint32_t>(f), pipeline, results, stats);
    }
    return stats;
  }

  const link::LinkSimulator& sim;
  phy::FrameCodec codec;
  std::unique_ptr<Detector> detector;
  SoftDetector* soft;
  link::CodedPipeline pipeline;
  std::vector<link::StreamDecodeResult> results;
};

/// Internal consistency of a block's counters.
void check_link_sanity(const link::LinkStats& s, std::size_t frames, std::size_t clients,
                       const phy::FrameCodec& codec, RunResult& result) {
  const std::size_t nsc = codec.config().data_subcarriers;
  const std::size_t vectors = frames * nsc * codec.ofdm_symbols_per_frame();
  if (s.frames != frames) result.fail("link: frame count " + std::to_string(s.frames));
  if (s.crc_frames_ok + s.crc_frames_error != frames * clients)
    result.fail("link: CRC outcomes do not cover every stream");
  if (s.payload_bits != frames * clients * codec.config().payload_bits())
    result.fail("link: payload bit count mismatch");
  if (s.detection_calls != vectors || s.detection.preprocess_calls != frames * nsc)
    result.fail("link: detection call count mismatch");
  if (s.delivered_payload_bits > s.payload_bits)
    result.fail("link: delivered more bits than sent");
}

}  // namespace

RunResult run_link_workload(const LinkWorkload& w, const RunConfig& config) {
  RunResult result;
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kAntennas = 4;

  link::LinkScenario scenario;
  scenario.frame.qam_order = w.qam;
  scenario.frame.payload_bytes = w.payload_bytes;
  scenario.frame.code_rate = coding::CodeRate::kHalf;
  scenario.frame.viterbi = phy::ViterbiImpl::kQuantized;
  scenario.snr_db = w.snr_db;
  scenario.snr_jitter_db = 0.0;
  const channel::ChannelSpec chspec = channel::ChannelSpec::parse("rayleigh");
  const DetectorSpec spec = DetectorSpec::parse(w.detector);

  const std::size_t block = config.block != 0 ? config.block : w.block_frames;
  const std::size_t blocks = fixed_blocks(config, w.blocks_per_s);

  // One set-up: engine, channel, detector (created on the warm-up's first
  // use) and one warm-up frame. The first one is kept for the run.
  std::vector<double> setup_s;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    auto engine = std::make_unique<sim::Engine>(1);
    auto sim = std::make_unique<link::LinkSimulator>(chspec, kClients, kAntennas, scenario);
    engine->run_link(*sim, spec, 1, kWarmupSeed);
    setup_s.push_back(seconds_since(t0));
    return std::make_pair(std::move(engine), std::move(sim));
  };
  const auto kept = set_up();
  sim::Engine& engine = *kept.first;
  const link::LinkSimulator& sim = *kept.second;
  const phy::FrameCodec codec(scenario.frame);
  const auto run_block = [&](std::size_t r) {
    link::LinkStats s = engine.run_link(sim, spec, block, block_seed(config.seed, r));
    check_link_sanity(s, block, kClients, codec, result);
    return s;
  };

  if (!config.trace) {
    // Timed: the fixed blocks, then further blocks until the time is up.
    // Quality counters cover the fixed blocks only, so they depend on
    // (seed, seconds) and never on the host's speed.
    link::LinkStats quality;
    link::LinkStats first;
    std::size_t frames = 0;
    double paused = 0.0;  // Spread set-ups, left out of the timed wall.
    const auto t_run = Clock::now();
    for (std::size_t r = 0; r < blocks || seconds_since(t_run) < config.seconds; ++r) {
      link::LinkStats s = run_block(r);
      frames += block;
      if (r < blocks) {
        quality += s;
        const auto t_pause = Clock::now();
        for (std::size_t k = setups_after_block(r, blocks); k > 0; --k) set_up();
        paused += seconds_since(t_pause);
      }
      if (r == 0) first = std::move(s);
    }
    const double wall = seconds_since(t_run) - paused;
    result.attempted = frames;
    // Determinism: block 0 again on the warmed engine must repeat exactly.
    for (const std::string& m : compare_link_stats(first, run_block(0)))
      result.fail("block 0 rerun: " + m);
    if (quality.goodput_mbps() <= 0.0) result.fail("link: zero goodput");
    result.notes.emplace_back("setup.cold_s", format_double(setup_s.front()));
    result.metrics = {
        {"setup_s", median(setup_s), "s"},
        {"frames_per_s", static_cast<double>(frames) / wall, "1/s"},
        {"goodput_mbps", quality.goodput_mbps(), "Mbps"},
        {"fer", quality.crc_fer(), "ratio"},
    };
    return result;
  }

  // Traced: every fixed block through the engine, as in an untraced run, so
  // the quality counters are the untraced run's. Every trace_stride-th block
  // also goes through the plain and the traced replica, the three passes in
  // rotating order so drift in the host's speed spreads evenly over them;
  // both replicas must match the engine exactly.
  LinkReplica replica(sim, spec);
  Tracer plain(false);
  Tracer traced(true);
  const std::size_t replayed = (blocks + w.trace_stride - 1) / w.trace_stride;
  // Per frame: root, draw, one encode per client, noise, prepare_batch,
  // decode, and select + apply + solve + scatter per subcarrier.
  traced.reserve(replayed * block * (5 + kClients + 4 * scenario.frame.data_subcarriers));
  double wall[3] = {0.0, 0.0, 0.0};  // engine, plain, traced
  link::LinkStats engine_total;
  link::LinkStats traced_total;
  for (std::size_t r = 0; r < blocks; ++r) {
    if (r % w.trace_stride != 0) {
      engine_total += run_block(r);
      continue;
    }
    link::LinkStats out[3];
    for (std::size_t j = 0; j < 3; ++j) {
      const std::size_t pass = (r / w.trace_stride + j) % 3;
      const auto t0 = Clock::now();
      out[pass] = pass == 0 ? run_block(r)
                            : replica.replay(block, block_seed(config.seed, r),
                                             static_cast<std::uint32_t>(r * block),
                                             pass == 1 ? plain : traced);
      wall[pass] += seconds_since(t0);
    }
    for (std::size_t pass = 1; pass < 3; ++pass)
      for (const std::string& m : compare_link_stats(out[0], out[pass]))
        result.fail(std::string(pass == 1 ? "untraced" : "traced") + " replica block " +
                    std::to_string(r) + ": " + m);
    engine_total += out[0];
    traced_total += out[2];
  }
  result.attempted = traced_total.frames;

  LayerInputs in;
  in.totals = summarize(traced.spans());
  in.unit_ns = durations(traced.spans(), Stage::kFrame);
  in.frames = static_cast<double>(traced_total.frames);
  in.detection = traced_total.detection;
  in.detection_calls = static_cast<double>(traced_total.detection_calls);
  in.info_bits = static_cast<double>(traced_total.payload_bits);
  in.untraced_wall_per_unit_s = wall[0] / in.frames;
  in.cold_setup_s = setup_s.front();
  in.plain_wall_s = wall[1];
  in.traced_wall_s = wall[2];
  in.workers = engine.threads();

  result.metrics = per_layer_metrics(in);
  check_and_note_breakdown(in, Stage::kFrame, result);
  note_quality(engine_total.goodput_mbps(), engine_total.crc_fer(), traced_total.goodput_mbps(),
               traced_total.crc_fer(), result);
  write_span_file(w.name, config, traced.spans(), result);
  return result;
}

}  // namespace e2ebench::detail

namespace e2ebench {

std::vector<std::string> compare_link_stats(const geosphere::link::LinkStats& a,
                                            const geosphere::link::LinkStats& b) {
  std::vector<std::string> out;
  const auto cmp = [&](const char* field, std::uint64_t x, std::uint64_t y) {
    if (x != y)
      out.push_back(std::string(field) + " " + std::to_string(x) + " != " + std::to_string(y));
  };
  cmp("frames", a.frames, b.frames);
  cmp("clients", a.clients, b.clients);
  cmp("bit_errors", a.bit_errors, b.bit_errors);
  cmp("payload_bits", a.payload_bits, b.payload_bits);
  cmp("crc_frames_ok", a.crc_frames_ok, b.crc_frames_ok);
  cmp("crc_frames_error", a.crc_frames_error, b.crc_frames_error);
  cmp("delivered_payload_bits", a.delivered_payload_bits, b.delivered_payload_bits);
  cmp("ofdm_symbol_slots", a.ofdm_symbol_slots, b.ofdm_symbol_slots);
  cmp("detection_calls", a.detection_calls, b.detection_calls);
  cmp("ped_computations", a.detection.ped_computations, b.detection.ped_computations);
  cmp("visited_nodes", a.detection.visited_nodes, b.detection.visited_nodes);
  cmp("tree_searches", a.detection.tree_searches, b.detection.tree_searches);
  cmp("preprocess_calls", a.detection.preprocess_calls, b.detection.preprocess_calls);
  cmp("prepare_batch_calls", a.detection.prepare_batch_calls,
      b.detection.prepare_batch_calls);
  cmp("batch_calls", a.detection.batch_calls, b.detection.batch_calls);
  cmp("lb_lookups", a.detection.lb_lookups, b.detection.lb_lookups);
  cmp("lb_prunes", a.detection.lb_prunes, b.detection.lb_prunes);
  cmp("slicer_ops", a.detection.slicer_ops, b.detection.slicer_ops);
  cmp("queue_ops", a.detection.queue_ops, b.detection.queue_ops);
  cmp("counter_updates", a.detection.counter_updates, b.detection.counter_updates);
  if (a.client_frame_errors != b.client_frame_errors)
    out.push_back("client_frame_errors differ");
  return out;
}

}  // namespace e2ebench
