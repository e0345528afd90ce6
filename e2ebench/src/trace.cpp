#include "trace.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>

namespace e2ebench {

const char* stage_name(Stage stage) {
  switch (stage) {
    case Stage::kFrame: return "link.frame";
    case Stage::kTti: return "serve.tti";
    case Stage::kSchedule: return "serve.schedule";
    case Stage::kAssemble: return "serve.assemble";
    case Stage::kDetect: return "serve.detect";
    case Stage::kDeliver: return "serve.deliver";
    case Stage::kDraw: return "channel.draw";
    case Stage::kNoise: return "channel.noise";
    case Stage::kEncode: return "phy.encode";
    case Stage::kPrepare: return "detect.prepare";
    case Stage::kApply: return "linalg.apply";
    case Stage::kSolve: return "detect.solve";
    case Stage::kScatter: return "detect.llr";
    case Stage::kDecode: return "coding.decode";
    case Stage::kCount: break;
  }
  return "?";
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  const std::size_t n = spans.size();
  const auto parent_of = [&](std::size_t i) -> std::int64_t {
    const std::int32_t p = spans[i].parent;
    return p >= 0 && static_cast<std::size_t>(p) < n ? p : -1;
  };
  // Children grouped by parent, each group in start order.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const std::int64_t pa = parent_of(a), pb = parent_of(b);
    return pa != pb ? pa < pb : spans[a].start_ns < spans[b].start_ns;
  });

  std::vector<std::int64_t> covered(n, 0);
  std::size_t g = 0;
  while (g < n && parent_of(order[g]) < 0) ++g;  // Roots cover nothing.
  while (g < n) {
    const auto p = static_cast<std::size_t>(parent_of(order[g]));
    const std::int64_t lo = spans[p].start_ns;
    const std::int64_t hi = spans[p].end_ns;
    // Union of the children's intervals, clipped to the parent's.
    std::int64_t run_lo = 0, run_hi = 0;
    bool open = false;
    for (; g < n && parent_of(order[g]) == static_cast<std::int64_t>(p); ++g) {
      const std::int64_t a = std::max(lo, spans[order[g]].start_ns);
      const std::int64_t b = std::min(hi, spans[order[g]].end_ns);
      if (b <= a) continue;
      if (open && a <= run_hi) {
        run_hi = std::max(run_hi, b);
        continue;
      }
      if (open) covered[p] += run_hi - run_lo;
      run_lo = a;
      run_hi = b;
      open = true;
    }
    if (open) covered[p] += run_hi - run_lo;
  }

  std::vector<std::int64_t> self(n, 0);
  for (std::size_t i = 0; i < n; ++i)
    self[i] = std::max<std::int64_t>(0, spans[i].end_ns - spans[i].start_ns) - covered[i];
  return self;
}

StageTotals summarize(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  StageTotals t;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto s = static_cast<std::size_t>(spans[i].stage);
    t.total_ns[s] += std::max<std::int64_t>(0, spans[i].end_ns - spans[i].start_ns);
    t.self_ns[s] += self[i];
    ++t.count[s];
  }
  return t;
}

std::vector<double> durations(const std::vector<Span>& spans, Stage stage) {
  std::vector<double> out;
  for (const Span& s : spans)
    if (s.stage == stage) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  return out;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double clamped = std::clamp(p, 0.0, 1.0);
  auto rank = static_cast<std::size_t>(std::ceil(clamped * static_cast<double>(values.size())));
  if (rank == 0) rank = 1;
  return values[rank - 1];
}

bool write_spans(const std::string& path, const std::vector<Span>& spans,
                 const std::vector<std::pair<std::string, std::string>>& header) {
  std::ofstream out(path);
  if (!out) return false;
  for (const auto& [key, value] : header) out << "# " << key << ' ' << value << '\n';
  out << "id\tstage\tparent\tunit\tstart_ns\tend_ns\tself_ns\n";
  const std::vector<std::int64_t> self = self_times(spans);
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << i << '\t' << stage_name(s.stage) << '\t' << s.parent << '\t' << s.unit << '\t'
        << s.start_ns - t0 << '\t' << s.end_ns - t0 << '\t' << self[i] << '\n';
  }
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace e2ebench
