#include "serve/server.h"

#include <atomic>
#include <chrono>
#include <map>
#include <stdexcept>
#include <utility>

#include "common/rng.h"
#include "link/frame_path.h"
#include "phy/frame.h"

namespace geosphere::serve {

double CellCounters::fer() const {
  const std::uint64_t total = user_frames_ok + user_frames_error;
  return total == 0 ? 0.0
                    : static_cast<double>(user_frames_error) / static_cast<double>(total);
}

double CellCounters::goodput_mbps() const {
  // Payload bits per microsecond == Mbps.
  return ttis == 0 ? 0.0
                   : static_cast<double>(delivered_bits) /
                         (static_cast<double>(ttis) * kTtiDurationUs);
}

void CellCounters::hash_mix(std::uint64_t value) {
  // FNV-1a over the value's eight little-endian bytes.
  for (int b = 0; b < 8; ++b) {
    schedule_hash ^= (value >> (8 * b)) & 0xffull;
    schedule_hash *= 1099511628211ull;
  }
}

namespace {

/// A cell's MU-MIMO frame in flight through a TTI: the shared frame path's
/// transmit side (built in the schedule phase), the decisions the detect
/// phase writes and the cell's decode pipeline (used in the deliver phase).
/// A frame is one detect work item; a cell's FrameJob is reused across
/// TTIs, so its decision and decode buffers are allocated once.
struct FrameJob {
  const phy::FrameCodec* codec = nullptr;
  link::DrawnFrame frame;
  link::FrameDecisions decisions;
  link::CodedPipeline pipeline;
  std::vector<link::StreamDecodeResult> results;
};

}  // namespace

Server::Server(ServeSpec spec, std::size_t threads)
    : spec_(std::move(spec)), pool_(threads), detectors_(pool_.size()) {
  if (spec_.cells.empty())
    throw std::invalid_argument("serve::Server: spec has no cells");
}

ServeResult Server::run(std::uint64_t ttis, std::uint64_t seed) {
  const std::size_t ncells = spec_.cells.size();
  const std::size_t nworkers = pool_.size();

  ServeResult result;
  result.threads = nworkers;
  result.ttis = ttis;
  result.seed = seed;
  result.cells.resize(ncells);

  // Fresh queue/scheduler state per run: the deterministic outputs depend
  // on (spec, ttis, seed) only, never on what ran before.
  std::vector<CellScheduler> schedulers;
  schedulers.reserve(ncells);
  for (std::size_t c = 0; c < ncells; ++c) {
    result.cells[c].spec = spec_.cells[c];
    schedulers.emplace_back(spec_.cells[c], seed, c);
  }

  // Per-cell frame codecs, one per QAM order the rate adapter picks.
  std::vector<std::map<unsigned, phy::FrameCodec>> codecs(ncells);

  // Per-(worker, cell) accumulators: integer counters merged after the run
  // (associative sums -- thread-count independent), latency partials
  // merged into the host-dependent histograms.
  std::vector<std::vector<DetectionStats>> worker_stats(
      nworkers, std::vector<DetectionStats>(ncells));
  std::vector<std::vector<std::uint64_t>> worker_calls(
      nworkers, std::vector<std::uint64_t>(ncells, 0));
  std::vector<std::vector<LatencyRecorder>> worker_latency(
      nworkers, std::vector<LatencyRecorder>(ncells));
  std::vector<link::DetectScratch> scratch(nworkers);

  std::vector<FrameJob> jobs(ncells);
  std::vector<CellSchedule> scheds(ncells);
  std::vector<std::size_t> items;  // Scheduled frames, by cell.

  for (std::uint64_t tti = 0; tti < ttis; ++tti) {
    // --- Phase 1 (schedule): arrivals, user selection, rate choice and
    // the frame draw, one cell per pool iteration. All randomness comes
    // from (seed, cell, tti)-derived streams, so the parallel order is
    // irrelevant to the result.
    pool_.parallel_for(ncells, [&](std::size_t c) {
      CellScheduler& sch = schedulers[c];
      const CellSpec& cs = sch.spec();
      scheds[c] = sch.schedule_tti(tti);
      const CellSchedule& sched = scheds[c];
      if (sched.users.empty()) return;  // Idle TTI: nothing queued.

      auto codec_it = codecs[c].find(sched.qam);
      if (codec_it == codecs[c].end()) {
        phy::FrameConfig cfg;
        cfg.qam_order = sched.qam;
        cfg.payload_bytes = cs.payload_bytes;
        cfg.set_code(coding::CodeSpec::parse(cs.code));
        cfg.viterbi = phy::ViterbiImpl::kQuantized;  // The batched int16 kernels;
                                                     // bit-identical across tiers.
        codec_it = codecs[c].emplace(sched.qam, phy::FrameCodec(cfg)).first;
      }

      // The frame's channel, payloads and noise all come from one
      // (seed, cell, tti, frame)-derived stream -- frame 0, since each
      // cell-TTI transmits one jointly detected MU-MIMO frame. The cell's
      // SNR is the scheduled group's, with no jitter.
      FrameJob& job = jobs[c];
      job.codec = &codec_it->second;
      Rng rng(Rng::derive_seed(seed, c, tti, 0));
      job.frame = link::draw_frame(sch.channel(sched.users.size()), *job.codec,
                                   sched.snr_db, 0.0, rng);
    });

    // Deterministic bookkeeping, cells in order on the calling thread: the
    // schedule hash covers every TTI (idle ones included) so it pins the
    // full scheduling trajectory.
    items.clear();
    for (std::size_t c = 0; c < ncells; ++c) {
      CellCounters& cc = result.cells[c].counters;
      const CellSchedule& sched = scheds[c];
      ++cc.ttis;
      cc.hash_mix(sched.tti);
      cc.hash_mix(sched.users.size());
      for (const std::size_t u : sched.users) cc.hash_mix(u);
      cc.hash_mix(sched.qam);
      if (!sched.users.empty()) {
        ++cc.scheduled_frames;
        cc.scheduled_users += sched.users.size();
        result.cells[c].schedule_log.push_back(sched);
        items.push_back(c);
      }
    }

    // --- Phase 2 (detect): each scheduled frame is one work item, pulled
    // from a shared counter by every worker and run through the shared
    // detect_frame (one prepare_batch per frame, one select and one
    // batched solve per subcarrier) on the worker's cached detector. Frame
    // latency runs from the TTI's dispatch to the frame item completing.
    // Counters are per-frame sums, so they stay byte-identical across
    // thread counts and kernel tiers.
    if (!items.empty()) {
      const auto t_start = std::chrono::steady_clock::now();
      std::atomic<std::size_t> next{0};
      pool_.run_on_workers([&](std::size_t w) {
        for (;;) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= items.size()) break;
          const std::size_t c = items[i];
          FrameJob& job = jobs[c];
          const DetectorSpec& det_spec = schedulers[c].detector();
          Detector& detector = detectors_.get(w, det_spec, scheds[c].qam);
          worker_calls[w][c] +=
              link::detect_frame(job.frame, *job.codec, detector, det_spec.decision(),
                                 job.decisions, worker_stats[w][c], scratch[w]);

          const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - t_start)
                              .count();
          worker_latency[w][c].record(static_cast<std::uint64_t>(ns));
        }
      });
    }

    // --- Phase 3 (deliver): per-stream decoding and the CRC delivery
    // decision, goodput/error counters and queue feedback, one cell per
    // pool iteration (each iteration touches only its own cell's state).
    pool_.parallel_for(ncells, [&](std::size_t c) {
      const CellSchedule& sched = scheds[c];
      if (sched.users.empty()) return;
      FrameJob& job = jobs[c];
      link::decode_frame(job.pipeline, *job.codec, job.frame, job.decisions, job.results);
      CellCounters& cc = result.cells[c].counters;
      for (std::size_t k = 0; k < job.results.size(); ++k) {
        const link::StreamDecodeResult& r = job.results[k];
        cc.bit_errors += r.bit_errors;
        cc.payload_bits += r.payload_bits;
        if (r.crc_ok) {
          ++cc.user_frames_ok;
          cc.delivered_bits += r.payload_bits;
        } else {
          ++cc.user_frames_error;
        }
        schedulers[c].complete(sched.users[k], r.crc_ok);
      }
    });
  }

  for (std::size_t c = 0; c < ncells; ++c) {
    CellReport& rep = result.cells[c];
    rep.counters.arrivals = schedulers[c].arrivals();
    rep.counters.backlog_end = schedulers[c].backlog();
    for (std::size_t w = 0; w < nworkers; ++w) {
      rep.counters.detection += worker_stats[w][c];
      rep.counters.detection_calls += worker_calls[w][c];
      rep.latency.merge(worker_latency[w][c]);
    }
    result.latency.merge(rep.latency);
  }
  return result;
}

}  // namespace geosphere::serve
