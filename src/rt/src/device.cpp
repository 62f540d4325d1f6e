#include "nodetr/rt/device.hpp"

#include <stdexcept>

namespace nodetr::rt {

SimulatedDevice::SimulatedDevice(BoardConfig config, std::unique_ptr<hls::MhsaIpCore> ip)
    : config_(std::move(config)), clock_mhz_(config_.clock_mhz) {
  if (config_.name.empty()) {
    throw std::invalid_argument("SimulatedDevice: board name must be non-empty");
  }
  if (config_.clock_mhz <= 0.0) {
    throw std::invalid_argument("SimulatedDevice: clock_mhz must be > 0");
  }
  if (ip) {
    ddr_ = std::make_unique<DdrMemory>(config_.ddr_bytes);
    ddr_->set_fault_scope(config_.name);
    accel_ = std::make_unique<MhsaAccelerator>(std::move(ip), *ddr_, config_.profile());
  }
}

void SimulatedDevice::set_clock_mhz(double mhz) {
  if (mhz <= 0.0) throw std::invalid_argument("SimulatedDevice: clock_mhz must be > 0");
  clock_mhz_.store(mhz, std::memory_order_relaxed);
}

}  // namespace nodetr::rt
