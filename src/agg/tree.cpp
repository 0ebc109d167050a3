#include "agg/tree.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "util/thread_pool.h"

namespace helios::agg {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

AggregatorTree::AggregatorTree(const TreeTopology& topology,
                               const ModelGeometry* geometry)
    : topo_(topology), geo_(geometry) {
  if (!topo_.active()) {
    throw std::invalid_argument("AggregatorTree: inactive topology");
  }
  if (geo_ == nullptr) {
    throw std::invalid_argument("AggregatorTree: null geometry");
  }
  util::Rng seed(topo_.seed);
  edges_.reserve(static_cast<std::size_t>(topo_.edge_nodes));
  edge_channels_.reserve(static_cast<std::size_t>(topo_.edge_nodes));
  util::Rng edge_seed = seed.fork(1);
  for (int e = 0; e < topo_.edge_nodes; ++e) {
    edges_.emplace_back(geo_);
    edge_channels_.emplace_back(topo_.edge_link, topo_.link_bandwidth_mbps,
                                edge_seed.fork(static_cast<std::uint64_t>(e)));
  }
  const int regionals = topo_.regional_nodes();
  regionals_.reserve(static_cast<std::size_t>(regionals));
  regional_channels_.reserve(static_cast<std::size_t>(regionals));
  util::Rng regional_seed = seed.fork(2);
  for (int r = 0; r < regionals; ++r) {
    regionals_.emplace_back(geo_);
    regional_channels_.emplace_back(
        topo_.regional_link, topo_.link_bandwidth_mbps,
        regional_seed.fork(static_cast<std::uint64_t>(r)));
  }
  root_ = StreamingAccumulator(geo_);
  staged_.resize(static_cast<std::size_t>(topo_.edge_nodes));
  begin_round();
}

void AggregatorTree::begin_round() {
  for (auto& e : edges_) e.reset();
  for (auto& r : regionals_) r.reset();
  root_.reset();
  for (auto& s : staged_) s.clear();
  contributions_.clear();
  relay_ran_ = false;
  stats_.clear();
  stats_.push_back({.tier = "edge"});
  if (!regionals_.empty()) stats_.push_back({.tier = "regional"});
  stats_.push_back({.tier = "root"});
}

void AggregatorTree::fold(std::span<const UpdateView> updates,
                          std::span<const FoldWeights> weights,
                          bool per_neuron_merge,
                          std::span<const float> contribution_base) {
  if (updates.size() != weights.size()) {
    throw std::invalid_argument("AggregatorTree::fold: weights mismatch");
  }
  // Partition update indices per edge, preserving span order within an
  // edge — the sequential fold order each edge follows.
  std::vector<std::vector<std::size_t>> per_edge(edges_.size());
  for (std::size_t i = 0; i < updates.size(); ++i) {
    per_edge[static_cast<std::size_t>(topo_.edge_of(updates[i].client_id))]
        .push_back(i);
  }
  const auto t0 = std::chrono::steady_clock::now();
  // Edges are independent (distinct accumulators, disjoint devices), so the
  // fan-out is across edges; within one edge the fold is sequential, which
  // keeps results bit-identical at any thread count.
  util::parallel_for_each(edges_.size(), [&](std::size_t e) {
    for (std::size_t i : per_edge[e]) {
      edges_[e].fold(updates[i], weights[i], per_neuron_merge);
      if (!contribution_base.empty() && !updates[i].trained_mask.empty()) {
        staged_[e].emplace_back(
            updates[i].client_id,
            neuron_change_means(geo_->neurons, contribution_base,
                                updates[i].params, updates[i].trained_mask));
      }
    }
  });
  TierStats& edge_stats = stats_.front();
  edge_stats.fold_seconds += seconds_since(t0);
  edge_stats.frames_folded += updates.size();
  // Root-side exact merge of the bookkeeping shards: devices are
  // partitioned across edges, so concatenating in edge order is a disjoint
  // union — no value is ever combined with another.
  for (auto& s : staged_) {
    for (auto& entry : s) contributions_.push_back(std::move(entry));
    s.clear();
  }
}

void AggregatorTree::collapse() {
  const auto t0 = std::chrono::steady_clock::now();
  const bool depth3 = !regionals_.empty();
  // Merging child frames is the parent tier's folding work: edge frames
  // land on the regionals (the root at depth 2), regional frames on the
  // root. The edge tier's parents are independent, so each merges its own
  // edges, in ascending edge order, as one claimed pool item.
  std::vector<StreamingAccumulator*> parents;
  if (depth3) {
    for (auto& r : regionals_) parents.push_back(&r);
  } else {
    parents.push_back(&root_);
  }
  std::vector<std::vector<std::uint8_t>> regional_frames(regionals_.size());
  std::vector<std::uint64_t> edge_frames(parents.size(), 0);
  std::vector<std::uint64_t> edge_bytes(parents.size(), 0);
  util::parallel_for_each(parents.size(), [&](std::size_t p) {
    for (std::size_t e = 0; e < edges_.size(); ++e) {
      if (edges_[e].empty() ||
          static_cast<std::size_t>(topo_.regional_of(static_cast<int>(e))) !=
              p) {
        continue;
      }
      // The tier crossing: the edge serializes its accumulator, the parent
      // checks the frame and adds its sums straight into its own, and the
      // edge-side copy is conceptually discarded. One frame is live at a
      // time.
      const std::vector<std::uint8_t> frame = edges_[e].encode_frame();
      edge_bytes[p] += frame.size();
      edge_frames[p] += 1;
      parents[p]->merge_frame(frame);
    }
    if (depth3 && !parents[p]->empty()) {
      regional_frames[p] = parents[p]->encode_frame();
    }
  });
  TierStats& root_stats = stats_.back();
  TierStats& parent_stats = depth3 ? stats_[1] : root_stats;
  for (std::size_t p = 0; p < parents.size(); ++p) {
    parent_stats.frames_folded += edge_frames[p];
    // In simulated mode relay() already accounted the wire bytes (rider and
    // retransmits included); count payload bytes here only on the ideal /
    // pass-through path.
    if (!relay_ran_) {
      stats_.front().bytes_forwarded += edge_bytes[p];
      stats_.front().raw_bytes += edge_bytes[p];
    }
  }
  parent_stats.fold_seconds += seconds_since(t0);
  if (!depth3) return;

  const auto t1 = std::chrono::steady_clock::now();
  for (const std::vector<std::uint8_t>& frame : regional_frames) {
    if (frame.empty()) continue;
    if (!relay_ran_) {
      stats_[1].bytes_forwarded += frame.size();
      stats_[1].raw_bytes += frame.size();
    }
    root_.merge_frame(frame);
    root_stats.frames_folded += 1;
  }
  root_stats.fold_seconds += seconds_since(t1);
}

void AggregatorTree::finalize(std::span<float> global,
                              std::span<float> buffers) const {
  root_.finalize(global, buffers);
}

AggregatorTree::LinkDelivery AggregatorTree::send_link(
    net::SimulatedChannel& chan, std::size_t bytes, double ready_at,
    double deadline_abs_s) {
  LinkDelivery d;
  d.settle_s = ready_at;
  double t = ready_at;
  int transmissions = 0;
  while (true) {
    const net::SimulatedChannel::Attempt a = chan.try_send(bytes, t);
    if (a.bytes > 0) ++transmissions;
    d.bytes_on_wire += a.bytes;
    d.settle_s = a.finish_s;
    if (a.outcome == net::SimulatedChannel::Attempt::Outcome::kDelivered) {
      d.delivered = true;
      break;
    }
    if (a.outcome == net::SimulatedChannel::Attempt::Outcome::kDead) break;
    if (a.outcome == net::SimulatedChannel::Attempt::Outcome::kBlocked) {
      t = a.finish_s;  // outage: wait it out, no retry budget consumed
      continue;
    }
    ++d.lost_frames;
    if (transmissions > topo_.max_retries) break;
    double backoff = topo_.retry_backoff_s;
    for (int k = 1; k < transmissions; ++k) backoff *= 2.0;
    t = a.finish_s + backoff;
  }
  d.retransmits = std::max(0, transmissions - 1);
  if (d.delivered && deadline_abs_s > 0.0 && d.settle_s > deadline_abs_s) {
    d.deadline_missed = true;
  }
  return d;
}

RelayOutcome AggregatorTree::relay(std::span<const double> edge_ready,
                                   std::span<const std::size_t> edge_extra_bytes,
                                   double round_start_s) {
  if (edge_ready.size() != edges_.size() ||
      edge_extra_bytes.size() != edges_.size()) {
    throw std::invalid_argument("AggregatorTree::relay: bad edge count");
  }
  relay_ran_ = true;
  const std::size_t frame = merge_frame_bytes();
  const double edge_deadline =
      topo_.edge_deadline_s > 0.0 ? round_start_s + topo_.edge_deadline_s : 0.0;
  const double root_deadline =
      topo_.root_deadline_s > 0.0 ? round_start_s + topo_.root_deadline_s : 0.0;
  const bool depth3 = !regionals_.empty();

  RelayOutcome out;
  out.edge_on_time.assign(edges_.size(), 0);
  out.close_s = round_start_s;

  // Shared accounting, mirroring RoundProtocol round-close semantics: an
  // accepted frame advances the close to its settle time; a miss makes the
  // parent wait until the tier deadline; a lost frame without a deadline
  // closes when the sender provably gives up (bounded retries).
  auto account = [&](const LinkDelivery& d, double deadline, TierStats& ts) {
    out.bytes_on_wire += d.bytes_on_wire;
    out.retransmits += d.retransmits;
    out.lost_frames += d.lost_frames;
    ts.bytes_forwarded += d.bytes_on_wire;
    ts.retransmits += d.retransmits;
    ts.lost_frames += d.lost_frames;
    const bool ok = d.delivered && !d.deadline_missed;
    if (ok) {
      out.close_s = std::max(out.close_s, d.settle_s);
      return true;
    }
    if (deadline > 0.0) {
      ++out.deadline_misses;
      ++ts.deadline_misses;
      out.close_s = std::max(out.close_s, deadline);
    } else {
      out.close_s = std::max(out.close_s, d.settle_s);
    }
    return false;
  };

  // Edge uplinks: one merge frame (plus bookkeeping rider) per edge that
  // holds anything, sent the moment its last device frame settled.
  struct Sent {
    bool ok = false;
    double settle_s = 0.0;
    std::size_t extra = 0;
  };
  std::vector<Sent> edge_sent(edges_.size());
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    if (edge_ready[e] < 0.0) continue;
    out.any_sent = true;
    const LinkDelivery d =
        send_link(edge_channels_[e], frame + edge_extra_bytes[e],
                  edge_ready[e], edge_deadline);
    stats_.front().raw_bytes += frame + edge_extra_bytes[e];
    if (account(d, edge_deadline, stats_.front())) {
      edge_sent[e] = {true, d.settle_s, edge_extra_bytes[e]};
      if (!depth3) out.edge_on_time[e] = 1;
    }
  }
  if (!depth3) return out;

  // Regional uplinks: a regional forwards once its last on-time child edge
  // settled, carrying its children's riders along. An edge is on time
  // overall only if its regional's frame also reached the root in time —
  // deadline composition across tiers.
  for (std::size_t r = 0; r < regionals_.size(); ++r) {
    double ready = -1.0;
    std::size_t extra = 0;
    std::vector<std::size_t> children;
    for (std::size_t e = 0; e < edges_.size(); ++e) {
      if (!edge_sent[e].ok ||
          topo_.regional_of(static_cast<int>(e)) != static_cast<int>(r)) {
        continue;
      }
      ready = std::max(ready, edge_sent[e].settle_s);
      extra += edge_sent[e].extra;
      children.push_back(e);
    }
    if (ready < 0.0) continue;
    const LinkDelivery d =
        send_link(regional_channels_[r], frame + extra, ready, root_deadline);
    stats_[1].raw_bytes += frame + extra;
    if (account(d, root_deadline, stats_[1])) {
      for (std::size_t e : children) out.edge_on_time[e] = 1;
    }
  }
  return out;
}

void AggregatorTree::io(util::CheckpointArchive& ar) {
  const std::size_t links = edge_channels_.size() + regional_channels_.size();
  ar.expect(ar.count(links, util::CheckpointArchive::kRngBytes) == links,
            "AggregatorTree: checkpointed link count does not match the tree");
  for (auto& c : edge_channels_) ar.io(c.rng());
  for (auto& c : regional_channels_) ar.io(c.rng());
}

}  // namespace helios::agg
