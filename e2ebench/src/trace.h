// In-memory span tracing for the benchmark's replicas of the frame and TTI
// pipelines. Spans are recorded from the benchmark's own code around each
// call into a library layer -- nothing inside the library is instrumented.
// A span is (stage, parent, unit id, start, end); the unit id is the frame
// (link) or TTI (serve) the span belongs to. Spans stay in memory for the
// whole traced run and are summarized and written out when it ends.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

/// Every span name the replicas record. The per-layer metric names are
/// derived from these (see workloads.cpp).
enum class Stage : std::uint8_t {
  kFrame,     ///< One MU-MIMO frame of a link workload (root).
  kTti,       ///< One TTI of the serve workload (root).
  kSchedule,  ///< serve::CellScheduler::schedule_tti, probe frames included.
  kAssemble,  ///< Serve frame assembly: draw + encode + noise + bookkeeping.
  kDetect,    ///< Serve per-frame detection: prepare + apply + solve + scatter.
  kDeliver,   ///< Serve delivery: FrameCodec::decode + compare + complete.
  kDraw,      ///< ChannelModel::draw_link.
  kNoise,     ///< The AWGN Rng::cgaussian draws.
  kEncode,    ///< Rng::bits + FrameCodec::encode, one stream.
  kPrepare,   ///< Detector::prepare_batch or one select_prepared.
  kApply,     ///< Symbol lookup + multiply_into + noise add into y_batch.
  kSolve,     ///< solve_batch / solve_soft_batch.
  kScatter,   ///< llrs_to_confidence (soft) + scatter of the decisions.
  kDecode,    ///< CodedPipeline::decode_frame_* (link) / FrameCodec::decode (serve).
  kCount
};

inline constexpr std::size_t kStageCount = static_cast<std::size_t>(Stage::kCount);

const char* stage_name(Stage stage);

struct Span {
  Stage stage = Stage::kFrame;
  std::int32_t parent = -1;  ///< Index of the enclosing span, -1 for a root.
  std::uint32_t unit = 0;    ///< Frame (link) or TTI (serve) id.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Records spans when enabled; every call is a cheap no-op when disabled, so
/// one replica body serves both the traced and the untraced replay.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span under the innermost open one. A root span (nothing open)
  /// takes `unit` as its unit id; nested spans inherit their parent's.
  std::int32_t open(Stage stage, std::uint32_t unit = 0) {
    if (!enabled_) return -1;
    Span s;
    s.stage = stage;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.unit = stack_.empty() ? unit : spans_[static_cast<std::size_t>(stack_.back())].unit;
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(s);
    stack_.push_back(id);
    // Stamped last, so the recorder's own bookkeeping stays outside the span.
    spans_.back().start_ns = now_ns();
    return id;
  }

  /// Closes span `id`, which must be the innermost open one.
  void close(std::int32_t id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }

  /// Preallocates room for `n` spans, so that growing the store does not
  /// land inside a measured span.
  void reserve(std::size_t n) {
    if (enabled_) spans_.reserve(n);
  }

  const std::vector<Span>& spans() const { return spans_; }

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span: open on construction, close on destruction.
class Scope {
 public:
  Scope(Tracer& tracer, Stage stage, std::uint32_t unit = 0)
      : tracer_(tracer), id_(tracer.open(stage, unit)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t id_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (clipped to it).
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Per-stage sums over a span list.
struct StageTotals {
  std::array<std::int64_t, kStageCount> total_ns{};  ///< Sum of durations.
  std::array<std::int64_t, kStageCount> self_ns{};   ///< Sum of self times.
  std::array<std::uint64_t, kStageCount> count{};    ///< Number of spans.

  std::int64_t total(Stage s) const { return total_ns[static_cast<std::size_t>(s)]; }
  std::int64_t self(Stage s) const { return self_ns[static_cast<std::size_t>(s)]; }
  std::uint64_t spans(Stage s) const { return count[static_cast<std::size_t>(s)]; }
};

StageTotals summarize(const std::vector<Span>& spans);

/// Durations (ns) of every span of `stage`, in recording order.
std::vector<double> durations(const std::vector<Span>& spans, Stage stage);

/// Nearest-rank percentile: the value at rank ceil(p * n) of the sorted
/// values (p in [0, 1]; p = 0 gives the minimum). 0 for an empty list.
double percentile(std::vector<double> values, double p);

/// Writes the spans as tab-separated text, one span per line after a
/// `# key value` header block: id, stage, parent, unit, start_ns (relative
/// to the first span), end_ns, self_ns. Returns false if the file cannot be
/// written.
bool write_spans(const std::string& path, const std::vector<Span>& spans,
                 const std::vector<std::pair<std::string, std::string>>& header);

}  // namespace e2ebench
