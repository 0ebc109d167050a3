#include "codec/error_feedback.h"

#include <cmath>

#include "codec/codec.h"

namespace helios::codec {

std::vector<float>& ErrorFeedback::residual(int client_id,
                                            std::size_t param_count) {
  auto [it, inserted] = residuals_.try_emplace(client_id);
  if (inserted) {
    it->second.assign(param_count, 0.0f);
  } else if (it->second.size() != param_count) {
    throw CodecError("error feedback: residual length mismatch");
  }
  return it->second;
}

const std::vector<float>* ErrorFeedback::find(int client_id) const {
  const auto it = residuals_.find(client_id);
  return it == residuals_.end() ? nullptr : &it->second;
}

double ErrorFeedback::l2_norm(int client_id) const {
  const std::vector<float>* r = find(client_id);
  return r == nullptr ? 0.0 : l2_norm(*r);
}

double ErrorFeedback::l2_norm(std::span<const float> residual) {
  double sq = 0.0;
  for (float v : residual) sq += static_cast<double>(v) * v;
  return std::sqrt(sq);
}

void ErrorFeedback::io(util::CheckpointArchive& ar, std::size_t param_count) {
  ar.io_map(residuals_, 4 + 4, [&](int, std::vector<float>& residual) {
    ar.io(residual);
    ar.expect(residual.size() == param_count,
              "error feedback: residual length mismatch");
  });
}

}  // namespace helios::codec
