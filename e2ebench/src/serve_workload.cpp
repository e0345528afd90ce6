// Serve workload: serve::Server::run untraced, and a single-threaded traced
// replica of its TTI loop built from the layers' public calls.
#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "channel/noise.h"
#include "internal.h"
#include "phy/frame.h"
#include "serve/scheduler.h"
#include "serve/server.h"

namespace e2ebench::detail {

namespace {

using namespace geosphere;

/// One scheduled frame of a TTI: what Server::run's FrameJob holds.
struct Job {
  std::vector<std::size_t> users;
  unsigned qam = 0;
  std::size_t streams = 0;
  std::size_t antennas = 0;
  std::size_t nsc = 0;
  std::size_t ofdm_symbols = 0;
  unsigned q = 0;
  bool soft = false;
  double n0 = 0.0;
  const DetectorSpec* det_spec = nullptr;
  const phy::FrameCodec* codec = nullptr;
  channel::Link link;
  std::vector<phy::EncodedFrame> tx;
  std::vector<std::vector<unsigned>> rx;
  std::vector<std::vector<double>> rx_conf;
  std::vector<cf64> noise;
};

/// Server::run for one block, single-threaded: same schedulers, same
/// derived seeds, same per-frame detection and the same delivery rule
/// (FrameCodec::decode on the quantized Viterbi, payload compare).
class ServeReplica {
 public:
  explicit ServeReplica(const serve::ServeSpec& spec) : spec_(spec) {}

  struct Block {
    std::vector<serve::CellCounters> cells;
    std::uint64_t frames = 0;        ///< Scheduled MU-MIMO frames.
    std::uint64_t probe_frames = 0;  ///< Rate-probe frames run by the schedulers.
  };

  Block run(std::uint64_t ttis, std::uint64_t seed, std::uint32_t unit_base, Tracer& tr) {
    const std::size_t ncells = spec_.cells.size();
    Block out;
    out.cells.resize(ncells);
    std::vector<serve::CellScheduler> schedulers;
    schedulers.reserve(ncells);
    for (std::size_t c = 0; c < ncells; ++c) schedulers.emplace_back(spec_.cells[c], seed, c);
    std::vector<std::map<unsigned, phy::FrameCodec>> codecs(ncells);
    std::vector<std::unique_ptr<Job>> jobs(ncells);
    std::vector<serve::CellSchedule> scheds(ncells);

    for (std::uint64_t tti = 0; tti < ttis; ++tti) {
      const Scope tti_span(tr, Stage::kTti, unit_base + static_cast<std::uint32_t>(tti));
      for (std::size_t c = 0; c < ncells; ++c) {
        jobs[c].reset();
        serve::CellScheduler& sch = schedulers[c];
        {
          const Scope s(tr, Stage::kSchedule);
          scheds[c] = sch.schedule_tti(tti);
        }
        const serve::CellSchedule& sched = scheds[c];
        if (sched.users.empty()) continue;
        if (sch.spec().qams.size() > 1) out.probe_frames += sch.spec().qams.size();
        jobs[c] = assemble(sch, sched, codecs[c], seed, c, tti, tr);
      }

      for (std::size_t c = 0; c < ncells; ++c) {
        serve::CellCounters& cc = out.cells[c];
        const serve::CellSchedule& sched = scheds[c];
        ++cc.ttis;
        cc.hash_mix(sched.tti);
        cc.hash_mix(sched.users.size());
        for (const std::size_t u : sched.users) cc.hash_mix(u);
        cc.hash_mix(sched.qam);
        if (jobs[c]) {
          ++cc.scheduled_frames;
          cc.scheduled_users += sched.users.size();
          ++out.frames;
        }
      }

      for (std::size_t c = 0; c < ncells; ++c)
        if (jobs[c]) detect(*jobs[c], out.cells[c], tr);

      for (std::size_t c = 0; c < ncells; ++c) {
        if (!jobs[c]) continue;
        const Scope s(tr, Stage::kDeliver);
        Job& job = *jobs[c];
        serve::CellCounters& cc = out.cells[c];
        for (std::size_t k = 0; k < job.streams; ++k) {
          BitVector decoded;
          {
            const Scope d(tr, Stage::kDecode);
            decoded = job.soft ? job.codec->decode_soft(job.rx_conf[k], job.ofdm_symbols)
                               : job.codec->decode(job.rx[k], job.ofdm_symbols);
          }
          std::uint64_t errors = 0;
          for (std::size_t b = 0; b < decoded.size(); ++b)
            if (decoded[b] != job.tx[k].payload[b]) ++errors;
          cc.bit_errors += errors;
          cc.payload_bits += decoded.size();
          const bool delivered = errors == 0;
          if (delivered) {
            ++cc.user_frames_ok;
            cc.delivered_bits += decoded.size();
          } else {
            ++cc.user_frames_error;
          }
          schedulers[c].complete(job.users[k], delivered);
        }
      }
    }

    for (std::size_t c = 0; c < ncells; ++c) {
      out.cells[c].arrivals = schedulers[c].arrivals();
      out.cells[c].backlog_end = schedulers[c].backlog();
    }
    return out;
  }

 private:
  std::unique_ptr<Job> assemble(serve::CellScheduler& sch, const serve::CellSchedule& sched,
                                std::map<unsigned, phy::FrameCodec>& codecs,
                                std::uint64_t seed, std::size_t c, std::uint64_t tti,
                                Tracer& tr) {
    const Scope s(tr, Stage::kAssemble);
    const serve::CellSpec& cs = sch.spec();
    auto codec_it = codecs.find(sched.qam);
    if (codec_it == codecs.end()) {
      phy::FrameConfig cfg;
      cfg.qam_order = sched.qam;
      cfg.payload_bytes = cs.payload_bytes;
      cfg.set_code(coding::CodeSpec::parse(cs.code));
      cfg.viterbi = phy::ViterbiImpl::kQuantized;
      codec_it = codecs.emplace(sched.qam, phy::FrameCodec(cfg)).first;
    }
    const phy::FrameCodec& codec = codec_it->second;

    auto job = std::make_unique<Job>();
    job->users = sched.users;
    job->qam = sched.qam;
    job->streams = sched.users.size();
    job->antennas = cs.antennas;
    job->nsc = codec.config().data_subcarriers;
    job->ofdm_symbols = codec.ofdm_symbols_per_frame();
    job->q = codec.constellation().bits_per_symbol();
    job->soft = sch.detector().decision() == DecisionMode::kSoft;
    job->n0 = channel::noise_variance_for_snr_db(sched.snr_db);
    job->det_spec = &sch.detector();
    job->codec = &codec;

    Rng rng(Rng::derive_seed(seed, c, tti, 0));
    {
      const Scope d(tr, Stage::kDraw);
      job->link = sch.channel(job->streams).draw_link(rng, job->nsc);
    }
    job->tx.resize(job->streams);
    if (job->soft)
      job->rx_conf.resize(job->streams);
    else
      job->rx.resize(job->streams);
    for (std::size_t k = 0; k < job->streams; ++k) {
      {
        const Scope e(tr, Stage::kEncode);
        job->tx[k] = codec.encode(rng.bits(codec.config().payload_bits()));
      }
      if (job->soft)
        job->rx_conf[k].assign(job->ofdm_symbols * job->nsc * job->q, 0.5);
      else
        job->rx[k].assign(job->ofdm_symbols * job->nsc, 0);
    }
    if (job->n0 > 0.0) {
      const Scope n(tr, Stage::kNoise);
      job->noise.resize(job->ofdm_symbols * job->nsc * job->antennas);
      for (auto& v : job->noise) v = rng.cgaussian(job->n0);
    }
    return job;
  }

  Detector& detector_for(const DetectorSpec& spec, unsigned qam) {
    const std::string key = spec.text() + "@" + std::to_string(qam);
    auto it = detectors_.find(key);
    if (it == detectors_.end())
      it = detectors_.emplace(key, spec.create(Constellation::qam(qam))).first;
    return *it->second;
  }

  void detect(Job& job, serve::CellCounters& cc, Tracer& tr) {
    const Scope s(tr, Stage::kDetect);
    Detector& detector = detector_for(*job.det_spec, job.qam);
    SoftDetector* soft = nullptr;
    if (job.soft) {
      soft = detector.soft();
      if (soft == nullptr)
        throw std::invalid_argument("detector cannot produce soft decisions");
    }
    {
      const Scope p(tr, Stage::kPrepare);
      detector.prepare_batch(job.link.subcarriers, job.n0);
    }
    ++cc.detection.prepare_batch_calls;

    for (std::size_t sc = 0; sc < job.nsc; ++sc) {
      {
        const Scope p(tr, Stage::kPrepare);
        detector.select_prepared(sc);
      }
      ++cc.detection.preprocess_calls;
      {
        const Scope a(tr, Stage::kApply);
        x_.resize(job.streams);
        y_.resize(job.antennas);
        y_batch_.assign_shape(job.antennas, job.ofdm_symbols);
        for (std::size_t sym = 0; sym < job.ofdm_symbols; ++sym) {
          for (std::size_t k = 0; k < job.streams; ++k)
            x_[k] = detector.constellation().point(job.tx[k].symbol_at(sym, sc, job.nsc));
          multiply_into(job.link.subcarriers[sc], x_, y_);
          if (job.n0 > 0.0) {
            const cf64* n = &job.noise[(sym * job.nsc + sc) * job.antennas];
            for (std::size_t i = 0; i < job.antennas; ++i) y_[i] += n[i];
          }
          for (std::size_t i = 0; i < job.antennas; ++i) y_batch_(i, sym) = y_[i];
        }
      }
      if (soft != nullptr) {
        {
          const Scope v(tr, Stage::kSolve);
          soft->solve_soft_batch(y_batch_, soft_batch_);
        }
        cc.detection += soft_batch_.stats;
        cc.detection_calls += soft_batch_.count;
        const Scope l(tr, Stage::kScatter);
        llrs_to_confidence(soft_batch_.llrs, conf_);
        for (std::size_t sym = 0; sym < job.ofdm_symbols; ++sym)
          for (std::size_t k = 0; k < job.streams; ++k)
            for (unsigned b = 0; b < job.q; ++b)
              job.rx_conf[k][(sym * job.nsc + sc) * job.q + b] =
                  conf_[(sym * job.streams + k) * job.q + b];
      } else {
        {
          const Scope v(tr, Stage::kSolve);
          detector.solve_batch(y_batch_, batch_);
        }
        cc.detection += batch_.stats;
        cc.detection_calls += batch_.count;
        const Scope l(tr, Stage::kScatter);
        for (std::size_t sym = 0; sym < job.ofdm_symbols; ++sym)
          for (std::size_t k = 0; k < job.streams; ++k)
            job.rx[k][sym * job.nsc + sc] = batch_.indices[sym * job.streams + k];
      }
    }
  }

  const serve::ServeSpec& spec_;
  std::unordered_map<std::string, std::unique_ptr<Detector>> detectors_;
  CVector x_;
  CVector y_;
  linalg::CMatrix y_batch_;
  BatchResult batch_;
  SoftBatchResult soft_batch_;
  std::vector<double> conf_;
};

/// Quality counters summed over cells and blocks.
struct ServeTotals {
  std::uint64_t ok = 0;
  std::uint64_t error = 0;
  std::uint64_t delivered_bits = 0;
  std::uint64_t ttis = 0;  ///< Per cell (every cell runs every TTI).

  void add(const serve::CellCounters& cc, std::size_t cell) {
    ok += cc.user_frames_ok;
    error += cc.user_frames_error;
    delivered_bits += cc.delivered_bits;
    if (cell == 0) ttis += cc.ttis;
  }
  /// The sum over cells of CellCounters::goodput_mbps().
  double goodput_mbps() const {
    return ttis == 0 ? 0.0
                     : static_cast<double>(delivered_bits) /
                           (static_cast<double>(ttis) * serve::kTtiDurationUs);
  }
  double fer() const {
    return ok + error == 0 ? 0.0 : static_cast<double>(error) / static_cast<double>(ok + error);
  }
};

/// Queue conservation: every arrival is either delivered or still queued.
void check_serve_sanity(const serve::ServeResult& r, RunResult& result) {
  for (std::size_t c = 0; c < r.cells.size(); ++c) {
    const serve::CellCounters& cc = r.cells[c].counters;
    if (cc.arrivals - cc.user_frames_ok != cc.backlog_end)
      result.fail("serve: cell " + std::to_string(c) + " arrivals - delivered != backlog");
    if (cc.delivered_bits > cc.payload_bits)
      result.fail("serve: cell " + std::to_string(c) + " delivered more bits than sent");
  }
}

}  // namespace

RunResult run_serve_workload(const ServeWorkload& w, const RunConfig& config) {
  RunResult result;
  const serve::ServeSpec spec = serve::ServeSpec::parse(w.spec);
  const std::size_t block = config.block != 0 ? config.block : w.block_ttis;
  const std::size_t blocks = fixed_blocks(config, w.blocks_per_s);

  // One set-up: server (thread pool, detector cache) and one warm-up TTI.
  // The first one is kept for the run.
  std::vector<double> setup_s;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    auto server = std::make_unique<serve::Server>(spec, w.workers);
    server->run(1, kWarmupSeed);
    setup_s.push_back(seconds_since(t0));
    return server;
  };
  const std::unique_ptr<serve::Server> server = set_up();
  const auto run_block = [&](std::size_t r) {
    serve::ServeResult res = server->run(block, block_seed(config.seed, r));
    check_serve_sanity(res, result);
    return res;
  };

  if (!config.trace) {
    // Timed: the fixed blocks, then further blocks until the time is up;
    // quality counters cover the fixed blocks only.
    ServeTotals quality;
    serve::ServeResult first;
    std::uint64_t frames = 0;
    double paused = 0.0;  // Spread set-ups, left out of the timed wall.
    const auto t_run = Clock::now();
    for (std::size_t r = 0; r < blocks || seconds_since(t_run) < config.seconds; ++r) {
      serve::ServeResult res = run_block(r);
      for (std::size_t c = 0; c < res.cells.size(); ++c) {
        frames += res.cells[c].counters.scheduled_frames;
        if (r < blocks) quality.add(res.cells[c].counters, c);
      }
      if (r < blocks) {
        const auto t_pause = Clock::now();
        for (std::size_t k = setups_after_block(r, blocks); k > 0; --k) set_up();
        paused += seconds_since(t_pause);
      }
      if (r == 0) first = std::move(res);
    }
    const double wall = seconds_since(t_run) - paused;
    result.attempted = frames;
    // Determinism: block 0 again on the warmed server must repeat exactly.
    const serve::ServeResult again = run_block(0);
    for (std::size_t c = 0; c < again.cells.size(); ++c)
      for (const std::string& m :
           compare_cell_counters(first.cells[c].counters, again.cells[c].counters, c))
        result.fail("block 0 rerun: " + m);
    if (quality.goodput_mbps() <= 0.0) result.fail("serve: zero goodput");
    result.notes.emplace_back("setup.cold_s", format_double(setup_s.front()));
    result.metrics = {
        {"setup_s", median(setup_s), "s"},
        {"frames_per_s", static_cast<double>(frames) / wall, "1/s"},
        {"goodput_mbps", quality.goodput_mbps(), "Mbps"},
        {"fer", quality.fer(), "ratio"},
    };
    return result;
  }

  // Traced: every fixed block through the server, as in an untraced run, so
  // the quality counters are the untraced run's. Every trace_stride-th block
  // also goes through the plain and the traced replica, the three passes in
  // rotating order; both replicas -- single-threaded -- must match the
  // server's counters exactly.
  ServeReplica replica(spec);
  Tracer plain(false);
  Tracer traced(true);
  const std::size_t replayed = (blocks + w.trace_stride - 1) / w.trace_stride;
  // Per TTI at most: root, and per cell schedule, assemble (draw, encodes,
  // noise), detect (prepare_batch, select + apply + solve + scatter per
  // subcarrier) and deliver (decodes).
  std::size_t per_cell = 0;
  for (const serve::CellSpec& cs : spec.cells)
    per_cell = std::max(per_cell, 7 + 2 * cs.antennas + 4 * phy::FrameConfig{}.data_subcarriers);
  traced.reserve(replayed * block * (1 + spec.cells.size() * per_cell));
  double wall[3] = {0.0, 0.0, 0.0};  // server, plain, traced
  serve::LatencyRecorder latency;
  ServeTotals engine_quality;
  ServeTotals traced_quality;
  LayerInputs in;
  for (std::size_t r = 0; r < blocks; ++r) {
    if (r % w.trace_stride != 0) {
      const serve::ServeResult res = run_block(r);
      latency.merge(res.latency);
      for (std::size_t c = 0; c < res.cells.size(); ++c)
        engine_quality.add(res.cells[c].counters, c);
      continue;
    }
    serve::ServeResult res;
    ServeReplica::Block rep[2];
    for (std::size_t j = 0; j < 3; ++j) {
      const std::size_t pass = (r / w.trace_stride + j) % 3;
      const auto t0 = Clock::now();
      if (pass == 0)
        res = run_block(r);
      else
        rep[pass - 1] = replica.run(block, block_seed(config.seed, r),
                                    static_cast<std::uint32_t>(r * block),
                                    pass == 1 ? plain : traced);
      wall[pass] += seconds_since(t0);
    }
    latency.merge(res.latency);
    for (std::size_t pass = 0; pass < 2; ++pass)
      for (std::size_t c = 0; c < res.cells.size(); ++c)
        for (const std::string& m :
             compare_cell_counters(res.cells[c].counters, rep[pass].cells[c], c))
          result.fail(std::string(pass == 0 ? "untraced" : "traced") + " replica block " +
                      std::to_string(r) + ": " + m);
    const ServeReplica::Block& b = rep[1];
    in.frames += static_cast<double>(b.frames);
    in.probe_frames += static_cast<double>(b.probe_frames);
    for (std::size_t c = 0; c < b.cells.size(); ++c) {
      const serve::CellCounters& cc = b.cells[c];
      engine_quality.add(res.cells[c].counters, c);
      traced_quality.add(cc, c);
      in.detection += cc.detection;
      in.detection_calls += static_cast<double>(cc.detection_calls);
      in.info_bits += static_cast<double>(cc.payload_bits);
      in.backlog_end += static_cast<double>(cc.backlog_end) / static_cast<double>(replayed);
    }
  }
  result.attempted = static_cast<std::uint64_t>(in.frames);

  in.serve = true;
  in.totals = summarize(traced.spans());
  in.unit_ns = durations(traced.spans(), Stage::kTti);
  in.ttis = static_cast<double>(replayed * block);
  in.untraced_wall_per_unit_s = wall[0] / in.ttis;
  in.cold_setup_s = setup_s.front();
  in.plain_wall_s = wall[1];
  in.traced_wall_s = wall[2];
  in.workers = server->threads();
  in.frame_p50_us = latency.percentile_ns(0.50) / 1e3;
  in.frame_p99_us = latency.percentile_ns(0.99) / 1e3;
  in.frame_max_us = static_cast<double>(latency.max_ns()) / 1e3;
  if (in.frame_p99_us > in.frame_max_us)
    result.warnings.push_back(
        "serve.frame_p99_us " + format_double(in.frame_p99_us) + " > serve.frame_max_us " +
        format_double(in.frame_max_us) +
        ": the known LatencyRecorder percentile defect (ROADMAP, 'a percentile never "
        "exceeds the max'); reported unclamped");

  result.metrics = per_layer_metrics(in);
  check_and_note_breakdown(in, Stage::kTti, result);
  note_quality(engine_quality.goodput_mbps(), engine_quality.fer(), traced_quality.goodput_mbps(),
               traced_quality.fer(), result);
  write_span_file(w.name, config, traced.spans(), result);
  return result;
}

}  // namespace e2ebench::detail

namespace e2ebench {

std::vector<std::string> compare_cell_counters(const geosphere::serve::CellCounters& a,
                                               const geosphere::serve::CellCounters& b,
                                               std::size_t cell) {
  std::vector<std::string> out;
  const auto cmp = [&](const char* field, std::uint64_t x, std::uint64_t y) {
    if (x != y)
      out.push_back("cell " + std::to_string(cell) + " " + field + " " + std::to_string(x) +
                    " != " + std::to_string(y));
  };
  cmp("ttis", a.ttis, b.ttis);
  cmp("arrivals", a.arrivals, b.arrivals);
  cmp("scheduled_frames", a.scheduled_frames, b.scheduled_frames);
  cmp("scheduled_users", a.scheduled_users, b.scheduled_users);
  cmp("user_frames_ok", a.user_frames_ok, b.user_frames_ok);
  cmp("user_frames_error", a.user_frames_error, b.user_frames_error);
  cmp("bit_errors", a.bit_errors, b.bit_errors);
  cmp("payload_bits", a.payload_bits, b.payload_bits);
  cmp("delivered_bits", a.delivered_bits, b.delivered_bits);
  cmp("backlog_end", a.backlog_end, b.backlog_end);
  cmp("schedule_hash", a.schedule_hash, b.schedule_hash);
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
  return out;
}

}  // namespace e2ebench
