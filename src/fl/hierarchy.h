// HierarchySession — the glue between the fleet's aggregation path and the
// src/agg aggregator tree (edge -> regional -> root streaming folding).
//
// Attach one to a fleet to route every synchronous aggregation through the
// tree:
//
//   agg::TreeTopology topo;
//   topo.edge_nodes = 64;            // 64 edge aggregators
//   topo.fanout = 8;                 // 8 regionals -> depth-3 tree
//   fl::HierarchySession hier(fleet, topo);   // attaches via set_hierarchy
//   fleet.register_checkpointable("hierarchy", &hier);  // optional
//   ... run any strategy ...
//
// Server::aggregate computes its per-update weights exactly as on the flat
// path, then hands the updates to aggregate() here: each update folds into
// its edge's streaming accumulator, edges collapse upward through
// weight-carrying merge frames, and the root's weighted means become the
// new global model. A single-edge tree is bit-identical to the flat server
// loop; multi-edge trees differ only in floating-point summation order and
// are bit-identical across thread counts.
//
// With a simulated NetworkSession attached, fl::deliver_round additionally
// calls relay_round(): the uplink hops each merge frame crosses are
// simulated on the tree's own channels, and devices whose edge (or
// regional) frame missed its tier deadline are excluded from aggregation —
// renormalizing exactly like a late device set, because the frames carry
// their weight mass.
//
// The tree folds weights only. Strategy bookkeeping over the round's
// updates (Helios' U^ij) reads what Server::aggregate received, after the
// aggregation, so it is the same with a tree or without one.
#pragma once

#include <memory>
#include <span>

#include "agg/tree.h"
#include "fl/checkpoint.h"
#include "fl/client.h"

namespace helios::fl {

class Fleet;

class HierarchySession : public Checkpointable {
 public:
  /// Folds over the server's aggregation geometry and attaches via
  /// Fleet::set_hierarchy. An inactive topology (edge_nodes == 0)
  /// constructs no tree and leaves the flat path in place. The session must
  /// outlive the fleet's use of it.
  HierarchySession(Fleet& fleet, agg::TreeTopology topology);
  ~HierarchySession() override;

  HierarchySession(const HierarchySession&) = delete;
  HierarchySession& operator=(const HierarchySession&) = delete;

  bool active() const { return tree_ != nullptr; }
  const agg::TreeTopology& topology() const { return topology_; }
  /// The tree (active() only).
  agg::AggregatorTree& tree() { return *tree_; }

  // -- Server path -----------------------------------------------------------

  /// Tree-routed replacement of Server::aggregate's accumulation loop: fold
  /// the updates (weights computed by the server), collapse the tiers, and
  /// finalize into `global` / `buffers`. Emits per-tier telemetry.
  void aggregate(std::span<const ClientUpdate> updates,
                 std::span<const agg::FoldWeights> weights,
                 bool per_neuron_merge, std::span<float> global,
                 std::span<float> buffers);

  // -- Transport path (simulated mode) --------------------------------------

  /// Simulates the round's uplink relay. `edge_ready[e]` is the absolute
  /// time edge e received its last accepted device frame (< 0 = none);
  /// `edge_extra_bytes[e]` rides its merge frame: the U^ij bookkeeping of
  /// its masked devices, one f64 per neuron plus the device id each.
  /// Opens the tree's round (resetting accumulators and stats).
  agg::RelayOutcome relay_round(std::span<const double> edge_ready,
                                std::span<const std::size_t> edge_extra_bytes,
                                double round_start_s);

  /// Deterministic uplink latency of one update relayed alone through its
  /// edge chain (async strategies' per-completion path): transfer time of a
  /// merge frame plus `rider_bytes` on each hop, no jitter/loss draws — so
  /// the async event order stays reproducible.
  double async_uplink_seconds(int client_id, std::size_t rider_bytes) const;

  /// Checkpointable: the topology (checked against this session's) and the
  /// tree's uplink RNG positions.
  void io(Fleet& fleet, CheckpointArchive& ar) override;

 private:
  void emit_tier_telemetry();

  Fleet& fleet_;
  agg::TreeTopology topology_;
  std::unique_ptr<agg::AggregatorTree> tree_;
  /// True between relay_round() and the round's aggregate(): the tree's
  /// round is already open and aggregate() must not reset it.
  bool round_open_ = false;
};

}  // namespace helios::fl
