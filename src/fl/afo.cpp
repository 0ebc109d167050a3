#include "fl/afo.h"

#include <stdexcept>

namespace helios::fl {

Afo::Afo(double alpha, double staleness_exponent)
    : engine_("afo.completion", alpha, staleness_exponent) {
  if (alpha <= 0.0 || alpha > 1.0) {
    throw std::invalid_argument("Afo: alpha out of (0, 1]");
  }
  if (staleness_exponent < 0.0) {
    throw std::invalid_argument("Afo: negative staleness exponent");
  }
}

}  // namespace helios::fl
