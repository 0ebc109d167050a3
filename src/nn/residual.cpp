#include "nn/residual.h"

#include "tensor/ops.h"

namespace helios::nn {

ResidualBlock::ResidualBlock(int in_channels, int in_h, int in_w,
                             int out_channels, int stride, util::Rng* init)
    : conv1_(std::make_unique<Conv2d>(in_channels, in_h, in_w, out_channels,
                                      3, stride, 1, init)),
      bn1_(std::make_unique<BatchNorm2d>(out_channels, conv1_->out_h(),
                                         conv1_->out_w())),
      relu1_(std::make_unique<ReLU>()),
      conv2_(std::make_unique<Conv2d>(out_channels, conv1_->out_h(),
                                      conv1_->out_w(), out_channels, 3, 1, 1,
                                      init)),
      bn2_(std::make_unique<BatchNorm2d>(out_channels, conv2_->out_h(),
                                         conv2_->out_w())),
      relu2_(std::make_unique<ReLU>()) {
  if (stride != 1 || in_channels != out_channels) {
    proj_ = std::make_unique<Conv2d>(in_channels, in_h, in_w, out_channels, 1,
                                     stride, 0, init, /*maskable=*/false);
    projbn_ = std::make_unique<BatchNorm2d>(out_channels, proj_->out_h(),
                                            proj_->out_w());
  }
}

std::string ResidualBlock::name() const {
  return "ResidualBlock(" + std::to_string(conv1_->geometry().in_channels) +
         "->" + std::to_string(out_channels()) + ")";
}

Tensor ResidualBlock::forward(const Tensor& x, bool training) {
  Tensor h = conv1_->forward(x, training);
  h = bn1_->forward(h, training);
  h = relu1_->forward(h, training);
  Tensor f = conv2_->forward(h, training);
  f = bn2_->forward(f, training);
  Tensor s = proj_ ? projbn_->forward(proj_->forward(x, training), training)
                   : x;
  tensor::add_inplace(f, s);
  return relu2_->forward(f, training);
}

Tensor ResidualBlock::backward(const Tensor& grad_out) {
  Tensor d = relu2_->backward(grad_out);
  // Main path.
  Tensor g = bn2_->backward(d);
  g = conv2_->backward(g);
  g = relu1_->backward(g);
  g = bn1_->backward(g);
  Tensor dx = conv1_->backward(g);
  // Skip path.
  if (proj_) {
    Tensor ds = projbn_->backward(d);
    ds = proj_->backward(ds);
    tensor::add_inplace(dx, ds);
  } else {
    tensor::add_inplace(dx, d);
  }
  return dx;
}

void ResidualBlock::append_leaves(std::vector<Layer*>& out) {
  conv1_->append_leaves(out);
  bn1_->append_leaves(out);
  relu1_->append_leaves(out);
  conv2_->append_leaves(out);
  bn2_->append_leaves(out);
  if (proj_) {
    proj_->append_leaves(out);
    projbn_->append_leaves(out);
  }
  relu2_->append_leaves(out);
}

std::vector<std::pair<Layer*, Layer*>> ResidualBlock::follower_links() {
  return {{bn1_.get(), conv1_.get()}, {bn2_.get(), conv2_.get()}};
}

}  // namespace helios::nn
