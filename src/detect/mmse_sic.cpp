#include "detect/mmse_sic.h"

#include <algorithm>
#include <numeric>

#include "linalg/solve.h"

namespace geosphere {

void MmseSicDetector::do_prepare(const linalg::CMatrix& h, double noise_var) {
  const std::size_t nc = h.cols();

  // Detection order: descending received stream SNR = column energy.
  std::vector<std::size_t> order(nc);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<double> energy(nc);
  for (std::size_t k = 0; k < nc; ++k) energy[k] = linalg::norm_sq(h.col(k));
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return energy[a] > energy[b]; });

  stages_.clear();
  stages_.reserve(nc);
  std::vector<std::size_t> remaining = order;
  while (!remaining.empty()) {
    Stage stage;
    stage.target = remaining.front();

    // MMSE filter over the remaining (uncancelled) streams only. The
    // target stream is the first column of the reduced system, so only
    // row 0 of the inverted Gram matrix is ever applied.
    const linalg::CMatrix hsub = h.select_cols(remaining);
    stage.hh = hsub.hermitian();
    linalg::CMatrix gram = stage.hh * hsub;
    for (std::size_t i = 0; i < remaining.size(); ++i) gram(i, i) += noise_var;
    stage.filter_row = linalg::inverse(gram).row(0);
    stage.column = h.col(stage.target);

    stages_.push_back(std::move(stage));
    remaining.erase(remaining.begin());
  }
}

void MmseSicDetector::do_solve(const CVector& y, DetectionResult& out) {
  DetectionStats stats;
  residual_ = y;
  out.indices.assign(stages_.size(), 0);

  for (const Stage& stage : stages_) {
    multiply_into(stage.hh, residual_, matched_);
    cf64 est{};
    for (std::size_t j = 0; j < matched_.size(); ++j)
      est += stage.filter_row[j] * matched_[j];

    const unsigned idx = constellation().slice(est);
    ++stats.slicer_ops;
    out.indices[stage.target] = idx;

    // Cancel the hard decision from the residual.
    const cf64 s = constellation().point(idx);
    for (std::size_t i = 0; i < residual_.size(); ++i)
      residual_[i] -= stage.column[i] * s;
  }
  finish_result(out, stats);
}

void MmseSicDetector::do_solve_batch(const linalg::CMatrix& y_batch, BatchResult& out) {
  // Stage-major instead of vector-major: every column's residual evolves
  // through exactly the per-vector arithmetic (matched filter columns are
  // bit-identical mat-vecs, the dot product and cancellation are the same
  // scalar operations), and the per-stage slicer_ops sum is unchanged --
  // only the loop nesting differs, turning nc mat-vecs per column into
  // one mat-mat per stage.
  const std::size_t nc = stages_.size();
  const std::size_t na = y_batch.rows();
  const std::size_t count = y_batch.cols();
  out.count = count;
  out.streams = nc;
  out.indices.assign(count * nc, 0);
  DetectionStats stats;
  residual_batch_ = y_batch;

  for (const Stage& stage : stages_) {
    multiply_into(stage.hh, residual_batch_, matched_batch_);
    const std::size_t rem = stage.hh.rows();
    for (std::size_t v = 0; v < count; ++v) {
      cf64 est{};
      for (std::size_t j = 0; j < rem; ++j)
        est += stage.filter_row[j] * matched_batch_(j, v);

      const unsigned idx = constellation().slice(est);
      ++stats.slicer_ops;
      out.indices[v * nc + stage.target] = idx;

      const cf64 s = constellation().point(idx);
      for (std::size_t i = 0; i < na; ++i)
        residual_batch_(i, v) -= stage.column[i] * s;
    }
  }
  out.stats = stats;
}

}  // namespace geosphere
