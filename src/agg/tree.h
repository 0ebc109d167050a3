// The aggregator tree: edge -> (regional ->) root streaming aggregation.
//
// Round lifecycle (driven by fl::HierarchySession):
//
//   begin_round()                      reset accumulators, shards, stats
//   relay(edge_ready, extra, start)    simulated uplink timing (transport;
//                                      skipped in ideal / pass-through mode)
//   fold(updates, weights, ...)        edges fold their devices' updates
//   collapse()                         edge frames -> parents -> root
//   finalize(global, buffers)          weighted means of what reached root
//
// Memory is O(edges * model): each node owns one fixed StreamingAccumulator;
// device frames are folded and discarded, and a tier crossing is one
// weight-carrying merge frame, encoded by the child and added into the
// parent with merge_frame (bit-exact: the same bits as decoding and
// merging).
//
// Determinism: fold parallelizes ACROSS edges — each edge is one claimed
// pool item (util::parallel_for_each) that folds its own devices
// sequentially in input order. collapse parallelizes across the edge
// tier's parents: at depth 3 each regional is one claimed item that
// merges its edges' frames in ascending edge order, one frame live at a
// time, and encodes its own frame; the root then merges the regional
// frames on the calling thread, in regional order (at depth 2 the root is
// the only parent). Every merge keeps its sequential order, so
// results are bit-identical at any thread count.
// Relay draws jitter/loss from per-node forked RNG streams
// (Rng(seed).fork(tier).fork(node)), independent of device traffic.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "agg/accumulator.h"
#include "agg/topology.h"
#include "net/channel.h"
#include "util/rng.h"

namespace helios::agg {

/// Per-tier rollup of the current round (index 0 = edge, then regional when
/// the tree is depth 3, last = root).
struct TierStats {
  const char* tier = "";             // "edge" | "regional" | "root"
  std::uint64_t frames_folded = 0;   // frames folded by this tier's nodes
  std::uint64_t bytes_forwarded = 0; // uplink bytes this tier transmitted
  /// Uplink payload bytes, one per frame crossing (retransmits excluded).
  std::uint64_t raw_bytes = 0;
  int deadline_misses = 0;           // merge frames arriving past the tier deadline
  int retransmits = 0;
  int lost_frames = 0;
  double fold_seconds = 0.0;         // wall-clock folding/merging at this tier
};

/// Outcome of one round's uplink relay simulation.
struct RelayOutcome {
  /// Per edge: its merge frame (and its regional's, at depth 3) was accepted
  /// by the parent chain in time. Edges with nothing to send stay 0.
  std::vector<std::uint8_t> edge_on_time;
  /// Absolute virtual time the root's last accepted input settled, or the
  /// governing deadline when something missed it. `round_start` when no edge
  /// had anything to send.
  double close_s = 0.0;
  bool any_sent = false;
  std::size_t bytes_on_wire = 0;
  int retransmits = 0;
  int lost_frames = 0;
  int deadline_misses = 0;
};

class AggregatorTree {
 public:
  /// `geometry` is shared and must outlive the tree. Requires
  /// `topology.active()`.
  AggregatorTree(const TreeTopology& topology, const ModelGeometry* geometry);

  const TreeTopology& topology() const { return topo_; }
  const ModelGeometry& geometry() const { return *geo_; }
  /// Fixed uplink frame size for this geometry (excluding bookkeeping
  /// riders).
  std::size_t merge_frame_bytes() const {
    return StreamingAccumulator::frame_bytes(*geo_);
  }

  // -- Aggregation path (server side) ---------------------------------------

  void begin_round();

  /// Folds each update into its edge's accumulator (updates[i] under
  /// weights[i]). When `contribution_base` is non-empty, each edge also
  /// computes the per-device U^ij contribution shard of its masked updates
  /// (mean |after - before| per trained neuron against the base snapshot).
  void fold(std::span<const UpdateView> updates,
            std::span<const FoldWeights> weights, bool per_neuron_merge,
            std::span<const float> contribution_base);

  /// Encodes every non-empty edge accumulator into a merge frame that the
  /// parent merges with merge_frame — regional tier first (depth 3, one
  /// pool task per regional), then root. Late edges were already excluded upstream
  /// (their devices never reached fold), so every frame here merges.
  void collapse();

  /// Weighted means of everything that reached the root; indices nothing
  /// wrote keep their previous values (exact renormalization over arrivals).
  void finalize(std::span<float> global, std::span<float> buffers) const;

  std::uint64_t root_folded() const { return root_.folded(); }

  /// The root's merged per-device contribution shards, in edge order then
  /// fold order within an edge. Devices are partitioned across edges
  /// (edge_of is a pure function of the id), so the merge is an exact
  /// disjoint union — no shard is ever combined with another.
  const std::vector<std::pair<int, std::vector<double>>>& contributions()
      const {
    return contributions_;
  }

  // -- Relay timing (transport side, simulated mode only) -------------------

  /// Simulates the uplink transfers for one round. `edge_ready[e]` is the
  /// absolute virtual time edge e holds its last accepted device frame
  /// (negative = nothing to send); `edge_extra_bytes[e]` rides bookkeeping
  /// shards on top of the fixed merge frame. Tier deadlines are absolute
  /// from `round_start_s`: `edge_deadline_s` governs the edge uplink,
  /// `root_deadline_s` the regional uplink (depth 3).
  RelayOutcome relay(std::span<const double> edge_ready,
                     std::span<const std::size_t> edge_extra_bytes,
                     double round_start_s);

  /// Current round's per-tier rollups (relay + fold + collapse combined).
  std::span<const TierStats> tier_stats() const { return stats_; }

  /// Uplink channels, for deterministic transfer-time queries and fault
  /// scripting (tests).
  net::SimulatedChannel& edge_channel(int e) {
    return edge_channels_.at(static_cast<std::size_t>(e));
  }
  const net::SimulatedChannel& edge_channel(int e) const {
    return edge_channels_.at(static_cast<std::size_t>(e));
  }
  net::SimulatedChannel& regional_channel(int r) {
    return regional_channels_.at(static_cast<std::size_t>(r));
  }
  const net::SimulatedChannel& regional_channel(int r) const {
    return regional_channels_.at(static_cast<std::size_t>(r));
  }

  /// Checkpoint section. The cross-round mutable state is the uplink
  /// channels' RNG positions (advanced by jitter/loss draws): edge channels
  /// in node order, then regional channels. Accumulators and shards live
  /// only within a round.
  void io(util::CheckpointArchive& ar);

 private:
  /// One uplink send with bounded retransmits (mirrors
  /// net::RoundProtocol::send_with_retries; aggregator nodes cannot die).
  struct LinkDelivery {
    bool delivered = false;
    bool deadline_missed = false;
    double settle_s = 0.0;
    std::size_t bytes_on_wire = 0;
    int retransmits = 0;
    int lost_frames = 0;
  };
  LinkDelivery send_link(net::SimulatedChannel& chan, std::size_t bytes,
                         double ready_at, double deadline_abs_s);

  TreeTopology topo_;
  const ModelGeometry* geo_;
  std::vector<StreamingAccumulator> edges_;
  std::vector<StreamingAccumulator> regionals_;
  StreamingAccumulator root_;
  std::vector<net::SimulatedChannel> edge_channels_;
  std::vector<net::SimulatedChannel> regional_channels_;
  /// Per-edge staged (device, U^ij shard) pairs, concatenated into
  /// contributions_ at the end of fold.
  std::vector<std::vector<std::pair<int, std::vector<double>>>> staged_;
  std::vector<std::pair<int, std::vector<double>>> contributions_;
  std::vector<TierStats> stats_;
  /// True once relay() ran this round: wire bytes were then accounted by the
  /// relay and collapse must not double-count them.
  bool relay_ran_ = false;
};

}  // namespace helios::agg
