#include "coding/quantized_viterbi.h"

#include <stdexcept>

#include "coding/simd/dispatch.h"

namespace geosphere::coding {

namespace {

QuantizedViterbiWorkspace& thread_workspace() {
  static thread_local QuantizedViterbiWorkspace ws;
  return ws;
}

}  // namespace

void QuantizedViterbi::decode_soft(const double* confidence, std::size_t size,
                                   QuantizedViterbiWorkspace& ws, BitVector& out) const {
  ws.quantized.resize(size);
  for (std::size_t i = 0; i < size; ++i) ws.quantized[i] = quantize(confidence[i]);
  decode_quantized(ws.quantized.data(), size, ws, out);
}

void QuantizedViterbi::decode_quantized(const std::int16_t* quantized, std::size_t size,
                                        QuantizedViterbiWorkspace& ws,
                                        BitVector& out) const {
  if (size % 2 != 0)
    throw std::invalid_argument("QuantizedViterbi: coded length must be even");
  const std::size_t steps = size / 2;
  if (steps < static_cast<std::size_t>(ConvolutionalEncoder::kTailBits))
    throw std::invalid_argument("QuantizedViterbi: input shorter than the tail");

  // State 0 starts at 0, the rest at the "almost infinity" offset; the
  // bound in viterbi_kernel.h shows this reproduces the double decoder's
  // hard kInf start exactly.
  ws.metric.fill(simd::kInitOffset);
  ws.metric[0] = 0;
  ws.decisions.resize(steps);

  simd::active_viterbi_kernel().acs(quantized, steps, ws.metric.data(), ws.decisions.data());

  viterbi_traceback(ws.decisions.data(), steps, out);
}

BitVector QuantizedViterbi::decode_soft(const std::vector<double>& confidence) const {
  BitVector out;
  decode_soft(confidence.data(), confidence.size(), thread_workspace(), out);
  return out;
}

}  // namespace geosphere::coding
