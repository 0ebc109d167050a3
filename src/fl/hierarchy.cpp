#include "fl/hierarchy.h"

#include <stdexcept>

#include "fl/fleet.h"
#include "obs/telemetry.h"

namespace helios::fl {

HierarchySession::HierarchySession(Fleet& fleet, agg::TreeTopology topology)
    : fleet_(fleet),
      topology_(topology),
      geometry_(agg::make_geometry(fleet.server().reference_model())) {
  if (topology_.active()) {
    tree_ = std::make_unique<agg::AggregatorTree>(topology_, &geometry_);
  }
  fleet_.set_hierarchy(this);
}

HierarchySession::~HierarchySession() {
  if (fleet_.hierarchy() == this) fleet_.set_hierarchy(nullptr);
}

void HierarchySession::stage_bookkeeping(std::span<const float> base_params) {
  staged_base_ = base_params;
}

const std::vector<double>* HierarchySession::contributions_for(
    int client_id) const {
  if (tree_ == nullptr) return nullptr;
  const auto it = contribution_index_.find(client_id);
  if (it == contribution_index_.end()) return nullptr;
  return &tree_->contributions()[it->second].second;
}

void HierarchySession::aggregate(std::span<const ClientUpdate> updates,
                                 std::span<const agg::FoldWeights> weights,
                                 bool per_neuron_merge, std::span<float> global,
                                 std::span<float> buffers) {
  if (tree_ == nullptr) {
    throw std::logic_error("HierarchySession::aggregate: inactive tree");
  }
  if (!round_open_) tree_->begin_round();
  round_open_ = false;
  std::vector<agg::UpdateView> views;
  views.reserve(updates.size());
  for (const ClientUpdate& u : updates) {
    views.push_back({u.client_id, u.params, u.buffers, u.trained_mask});
  }
  tree_->fold(views, weights, per_neuron_merge, staged_base_);
  tree_->collapse();
  tree_->finalize(global, buffers);
  contribution_index_.clear();
  const auto& shards = tree_->contributions();
  for (std::size_t i = 0; i < shards.size(); ++i) {
    contribution_index_.emplace(shards[i].first, i);
  }
  staged_base_ = {};
  emit_tier_telemetry();
}

agg::RelayOutcome HierarchySession::relay_round(
    std::span<const double> edge_ready,
    std::span<const std::size_t> edge_extra_bytes, double round_start_s) {
  if (tree_ == nullptr) {
    throw std::logic_error("HierarchySession::relay_round: inactive tree");
  }
  tree_->begin_round();
  round_open_ = true;
  return tree_->relay(edge_ready, edge_extra_bytes, round_start_s);
}

double HierarchySession::async_uplink_seconds(int client_id,
                                              std::size_t rider_bytes) const {
  if (tree_ == nullptr) return 0.0;
  const std::size_t bytes = tree_->merge_frame_bytes() + rider_bytes;
  const int e = topology_.edge_of(client_id);
  // Deterministic per-hop transfer times (no channel RNG draws): the async
  // event ordering must not depend on how many updates relayed before.
  double s = tree_->edge_channel(e).transfer_seconds(bytes);
  if (topology_.regional_nodes() > 0) {
    s += tree_->regional_channel(topology_.regional_of(e))
             .transfer_seconds(bytes);
  }
  return s;
}

void HierarchySession::emit_tier_telemetry() {
  obs::TelemetrySink* sink = fleet_.telemetry();
  if (sink == nullptr || tree_ == nullptr) return;
  for (const agg::TierStats& t : tree_->tier_stats()) {
    sink->record_tier_merge(
        {.tier = t.tier, .frames_folded = t.frames_folded,
         .bytes_forwarded = t.bytes_forwarded, .raw_bytes = t.raw_bytes,
         .deadline_misses = t.deadline_misses, .retransmits = t.retransmits,
         .lost_frames = t.lost_frames, .fold_seconds = t.fold_seconds});
  }
}

void HierarchySession::io(Fleet& /*fleet*/, CheckpointArchive& ar) {
  int edges = topology_.edge_nodes;
  int fanout = topology_.fanout;
  ar.io(edges);
  ar.io(fanout);
  ar.expect(edges == topology_.edge_nodes && fanout == topology_.fanout, [&] {
    return "HierarchySession: checkpointed topology does not match (edges " +
           std::to_string(edges) + "/" + std::to_string(topology_.edge_nodes) +
           ", fanout " + std::to_string(fanout) + "/" +
           std::to_string(topology_.fanout) + ")";
  });
  if (tree_ == nullptr) return;
  tree_->io(ar);
  round_open_ = false;  // a checkpoint sits at a round boundary
}

}  // namespace helios::fl
