#include "nn/model.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "nn/residual.h"
#include "nn/sgd.h"
#include "tensor/ops.h"

namespace helios::nn {

std::size_t NeuronInfo::param_count() const {
  std::size_t n = 0;
  for (const auto& s : slices) n += s.length;
  return n;
}

Layer& Model::add(std::unique_ptr<Layer> layer) {
  if (finalized_) throw std::logic_error("Model::add after finalize");
  if (!layer) throw std::invalid_argument("Model::add: null layer");
  // Composite layers carry their own internal follower wiring.
  if (auto* block = dynamic_cast<ResidualBlock*>(layer.get())) {
    for (auto [follower, leader] : block->follower_links()) {
      links_.emplace_back(follower, leader);
    }
  }
  layers_.push_back(std::move(layer));
  return *layers_.back();
}

void Model::link_follower(Layer& follower, Layer& leader) {
  if (finalized_) throw std::logic_error("Model::link_follower after finalize");
  if (!follower.mask_follower()) {
    throw std::invalid_argument("link_follower: " + follower.name() +
                                " is not a mask follower");
  }
  if (leader.neuron_count() == 0 || leader.mask_follower()) {
    throw std::invalid_argument("link_follower: " + leader.name() +
                                " cannot lead masks");
  }
  if (follower.neuron_count() != leader.neuron_count()) {
    throw std::invalid_argument("link_follower: unit count mismatch between " +
                                follower.name() + " and " + leader.name());
  }
  links_.emplace_back(&follower, &leader);
}

void Model::finalize() {
  if (finalized_) return;
  if (layers_.empty()) throw std::logic_error("Model::finalize: empty model");

  leaves_.clear();
  first_param_layer_ = layers_.size();
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->append_leaves(leaves_);
    if (first_param_layer_ == layers_.size() &&
        std::any_of(leaves_.begin(), leaves_.end(),
                    [](Layer* leaf) { return !leaf->params().empty(); })) {
      first_param_layer_ = i;
    }
  }

  // Flat parameter layout, leaf by leaf, tensor by tensor.
  param_refs_.clear();
  param_count_ = 0;
  std::unordered_map<Layer*, std::vector<std::size_t>> layer_param_offsets;
  for (Layer* leaf : leaves_) {
    auto params = leaf->params();
    auto grads = leaf->grads();
    if (params.size() != grads.size()) {
      throw std::logic_error(leaf->name() + ": params/grads arity mismatch");
    }
    auto& offsets = layer_param_offsets[leaf];
    for (std::size_t i = 0; i < params.size(); ++i) {
      offsets.push_back(param_count_);
      param_refs_.push_back({params[i], grads[i], param_count_});
      param_count_ += params[i]->numel();
    }
  }

  // Follower wiring sanity: every follower leaf must be linked to a leader
  // exactly once (otherwise a BatchNorm would silently never be masked).
  std::unordered_map<Layer*, Layer*> leader_of;
  for (auto [follower, leader] : links_) {
    if (!leader_of.emplace(follower, leader).second) {
      throw std::logic_error("Model: follower linked twice: " +
                             follower->name());
    }
  }
  std::unordered_map<Layer*, std::vector<Layer*>> followers_of;
  for (auto [follower, leader] : links_) {
    followers_of[leader].push_back(follower);
  }

  // Neuron index: leaders only, in leaf order, each unit carrying its own
  // slices plus those of its followers.
  neurons_.clear();
  for (Layer* leaf : leaves_) {
    if (leaf->neuron_count() == 0 || leaf->mask_follower()) continue;
    const auto& offsets = layer_param_offsets.at(leaf);
    for (int j = 0; j < leaf->neuron_count(); ++j) {
      NeuronInfo info;
      info.leader = leaf;
      info.unit = j;
      for (const ParamSlice& s : leaf->neuron_slices(j)) {
        info.slices.push_back(
            {offsets.at(static_cast<std::size_t>(s.param_index)) + s.offset,
             s.length});
      }
      auto it = followers_of.find(leaf);
      if (it != followers_of.end()) {
        for (Layer* follower : it->second) {
          const auto& foffsets = layer_param_offsets.at(follower);
          for (const ParamSlice& s : follower->neuron_slices(j)) {
            info.slices.push_back(
                {foffsets.at(static_cast<std::size_t>(s.param_index)) +
                     s.offset,
                 s.length});
          }
        }
      }
      neurons_.push_back(std::move(info));
    }
  }
  finalized_ = true;
}

void Model::require_finalized() const {
  if (!finalized_) {
    throw std::logic_error("Model: call finalize() (or an accessor) first");
  }
}

Tensor Model::forward(const Tensor& x, bool training) {
  finalize();
  Tensor h = x;
  for (auto& layer : layers_) h = layer->forward(h, training);
  return h;
}

void Model::backward(const Tensor& grad_out) {
  require_finalized();
  if (first_param_layer_ == layers_.size()) return;
  Tensor g = grad_out;
  for (std::size_t i = layers_.size() - 1; i > first_param_layer_; --i) {
    g = layers_[i]->backward(g);
  }
  layers_[first_param_layer_]->backward_params(g);
}

void Model::zero_grad() {
  finalize();
  for (Layer* leaf : leaves_) leaf->zero_grad();
}

std::size_t Model::param_count() {
  finalize();
  return param_count_;
}

const std::vector<ParamRef>& Model::param_refs() {
  finalize();
  return param_refs_;
}

void Model::copy_params(std::span<float> out) {
  finalize();
  if (out.size() != param_count_) {
    throw std::invalid_argument("copy_params: size mismatch");
  }
  for (const ParamRef& ref : param_refs_) {
    std::copy_n(ref.param->data(), ref.param->numel(),
                out.data() + ref.flat_offset);
  }
}

std::vector<float> Model::params_flat() {
  std::vector<float> out(param_count());
  copy_params(out);
  return out;
}

void Model::load_params(std::span<const float> in) {
  finalize();
  if (in.size() != param_count_) {
    throw std::invalid_argument("load_params: size mismatch");
  }
  for (const ParamRef& ref : param_refs_) {
    std::copy_n(in.data() + ref.flat_offset, ref.param->numel(),
                ref.param->data());
  }
}

std::size_t Model::buffer_count() {
  finalize();
  std::size_t n = 0;
  for (Layer* leaf : leaves_) {
    for (Tensor* b : leaf->buffers()) n += b->numel();
  }
  return n;
}

void Model::copy_buffers(std::span<float> out) {
  if (out.size() != buffer_count()) {
    throw std::invalid_argument("copy_buffers: size mismatch");
  }
  std::size_t cursor = 0;
  for (Layer* leaf : leaves_) {
    for (Tensor* b : leaf->buffers()) {
      std::copy_n(b->data(), b->numel(), out.data() + cursor);
      cursor += b->numel();
    }
  }
}

std::vector<float> Model::buffers_flat() {
  std::vector<float> out(buffer_count());
  copy_buffers(out);
  return out;
}

void Model::load_buffers(std::span<const float> in) {
  if (in.size() != buffer_count()) {
    throw std::invalid_argument("load_buffers: size mismatch");
  }
  std::size_t cursor = 0;
  for (Layer* leaf : leaves_) {
    for (Tensor* b : leaf->buffers()) {
      std::copy_n(in.data() + cursor, b->numel(), b->data());
      cursor += b->numel();
    }
  }
}

int Model::neuron_total() {
  finalize();
  return static_cast<int>(neurons_.size());
}

const std::vector<NeuronInfo>& Model::neurons() {
  finalize();
  return neurons_;
}

void Model::set_neuron_mask(std::span<const std::uint8_t> mask) {
  finalize();
  if (static_cast<int>(mask.size()) != neuron_total()) {
    throw std::invalid_argument("set_neuron_mask: size " +
                                std::to_string(mask.size()) + " != " +
                                std::to_string(neuron_total()));
  }
  mask_.assign(mask.begin(), mask.end());
  frozen_flat_dirty_ = true;

  // Distribute per-leader sub-masks, mirroring onto followers.
  std::unordered_map<Layer*, std::vector<Layer*>> followers_of;
  for (auto [follower, leader] : links_) {
    followers_of[leader].push_back(follower);
  }
  std::size_t cursor = 0;
  for (Layer* leaf : leaves_) {
    if (leaf->neuron_count() == 0 || leaf->mask_follower()) continue;
    const auto n = static_cast<std::size_t>(leaf->neuron_count());
    std::span<const std::uint8_t> sub = mask.subspan(cursor, n);
    leaf->set_mask(sub);
    auto it = followers_of.find(leaf);
    if (it != followers_of.end()) {
      for (Layer* follower : it->second) follower->set_mask(sub);
    }
    cursor += n;
  }
}

void Model::clear_neuron_mask() {
  finalize();
  mask_.clear();
  frozen_flat_dirty_ = true;
  for (Layer* leaf : leaves_) leaf->clear_mask();
}

const std::vector<std::uint8_t>& Model::frozen_flat_mask() {
  finalize();
  if (frozen_flat_dirty_) {
    frozen_flat_.clear();
    if (!mask_.empty()) {
      frozen_flat_.assign(param_count_, 0);
      for (std::size_t i = 0; i < neurons_.size(); ++i) {
        if (mask_[i]) continue;
        for (const FlatSlice& s : neurons_[i].slices) {
          std::fill_n(frozen_flat_.begin() +
                          static_cast<std::ptrdiff_t>(s.offset),
                      s.length, std::uint8_t{1});
        }
      }
    }
    frozen_flat_dirty_ = false;
  }
  return frozen_flat_;
}

double Model::forward_flops_per_sample() {
  finalize();
  double f = 0.0;
  for (Layer* leaf : leaves_) f += leaf->forward_flops_per_sample();
  return f;
}

double Model::train_flops_per_sample() {
  // Standard estimate: backward costs roughly twice the forward pass
  // (gradient wrt inputs + gradient wrt weights).
  return 3.0 * forward_flops_per_sample();
}

double Model::activation_numel_per_sample() {
  finalize();
  double a = 0.0;
  for (Layer* leaf : leaves_) a += leaf->activation_numel_per_sample();
  return a;
}

std::vector<Layer*>& Model::leaves() {
  finalize();
  return leaves_;
}

StepResult train_step(Model& model, Sgd& opt, const Tensor& x,
                      std::span<const int> labels) {
  model.zero_grad();
  Tensor logits = model.forward(x, /*training=*/true);
  Tensor dlogits;
  StepResult result;
  result.loss = tensor::softmax_cross_entropy(logits, labels, dlogits);
  result.correct = tensor::count_correct(logits, labels);
  model.backward(dlogits);
  opt.step(model);
  return result;
}

int evaluate_batch(Model& model, const Tensor& x,
                   std::span<const int> labels) {
  Tensor logits = model.forward(x, /*training=*/false);
  return tensor::count_correct(logits, labels);
}

}  // namespace helios::nn
