#include "fl/compression.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace helios::fl {

CompressionStats compress_update_topk(ClientUpdate& update,
                                      std::span<const float> base,
                                      double keep_fraction) {
  if (keep_fraction <= 0.0 || keep_fraction > 1.0) {
    throw std::invalid_argument("compress_update_topk: bad keep_fraction");
  }
  if (update.params.size() != base.size()) {
    throw std::invalid_argument("compress_update_topk: size mismatch");
  }
  CompressionStats stats;
  // Eligible entries: those the client actually changed.
  std::vector<std::size_t> changed;
  changed.reserve(update.params.size());
  for (std::size_t f = 0; f < update.params.size(); ++f) {
    if (update.params[f] != base[f]) changed.push_back(f);
  }
  stats.total_entries = changed.size();
  if (keep_fraction >= 1.0 || changed.empty()) {
    stats.kept_entries = changed.size();
    return stats;
  }
  const std::size_t keep = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround(keep_fraction * static_cast<double>(changed.size()))));
  // Partial sort by |delta| descending; entries past `keep` revert to base.
  std::nth_element(changed.begin(), changed.begin() + static_cast<std::ptrdiff_t>(keep - 1),
                   changed.end(), [&](std::size_t a, std::size_t b) {
                     return std::fabs(update.params[a] - base[a]) >
                            std::fabs(update.params[b] - base[b]);
                   });
  double dropped_sq = 0.0, total_sq = 0.0;
  for (std::size_t i = 0; i < changed.size(); ++i) {
    const std::size_t f = changed[i];
    const double d = static_cast<double>(update.params[f]) - base[f];
    total_sq += d * d;
    if (i >= keep) {
      dropped_sq += d * d;
      update.params[f] = base[f];
    }
  }
  stats.kept_entries = keep;
  stats.relative_error =
      total_sq > 0.0 ? std::sqrt(dropped_sq / total_sq) : 0.0;
  const double ratio = static_cast<double>(keep) /
                       static_cast<double>(stats.total_entries);
  update.upload_mb *= ratio;
  update.upload_seconds *= ratio;
  return stats;
}

CompressedSyncFL::CompressedSyncFL(double keep_fraction)
    : SyncRoundStrategy("compression.cycle"), keep_fraction_(keep_fraction) {
  if (keep_fraction <= 0.0 || keep_fraction > 1.0) {
    throw std::invalid_argument("CompressedSyncFL: bad keep_fraction");
  }
}

std::string CompressedSyncFL::name() const {
  return "Syn. FL + top-" + std::to_string(static_cast<int>(
             keep_fraction_ * 100.0)) + "%";
}

void CompressedSyncFL::post_train(const Fleet& /*fleet*/,
                                  ClientUpdate& update,
                                  std::span<const float> base) const {
  compress_update_topk(update, base, keep_fraction_);
}

}  // namespace helios::fl
