// Baseline 3: AFO — asynchronous federated optimization (Xie et al. [6]).
//
// Fully event-driven: whenever any device finishes a local cycle, the server
// mixes its model into the global one with a staleness-decayed weight
//     alpha_t = alpha * (1 + staleness)^(-a)
// (polynomial staleness function), and the device immediately restarts from
// the fresh global model. Metrics are recorded once per completion of the
// first capable device (client 0 when there is none), aligning the cycle
// axis with the other strategies.
//
// The loop, its checkpointable state and the joiner rule are the shared
// AsyncEngine's; AFO configures it with (alpha, a).
#pragma once

#include "fl/async_engine.h"
#include "fl/strategy.h"

namespace helios::fl {

class Afo final : public Strategy {
 public:
  explicit Afo(double alpha = 0.9, double staleness_exponent = 0.8);

  std::string name() const override { return "AFO"; }
  void run_range(Fleet& fleet, RunResult& result, int begin,
                 int end) override {
    engine_.run_range(fleet, result, begin, end);
  }

  void io(Fleet& fleet, CheckpointArchive& ar) override {
    engine_.io(fleet, ar);
  }
  int completed_rounds() const override { return engine_.recorded(); }

 private:
  AsyncEngine engine_;
};

}  // namespace helios::fl
