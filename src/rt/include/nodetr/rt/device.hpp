// rt::SimulatedDevice — one simulated board behind the runtime.
//
//   SimulatedDevice "dev0"  (BoardConfig: clock, DMA beat, DDR size)
//     └── DdrMemory + MhsaAccelerator (own AXI-Lite regs + DMA port,
//         fault scope "dev0" → rt.dma.error.dev0, rt.ddr.bitflip.dev0,
//         rt.axi.nack.dev0, hls.ip.stall.dev0)
//
// Each board is fully isolated: its own DDR, its own DMA cycle accounting,
// its own DeviceCounters, and its own deterministic fault stream (the scoped
// sites derive independent PRNG streams from (seed, site name) — see
// nodetr::fault). A board built without an IP core is a host-only board
// (CPU datapath, no accelerator model). The serving engine gives every worker
// session one board and rebuilds it from scratch when the worker respawns.
// A board must only be driven by the thread that owns it.
#pragma once

#include <atomic>
#include <memory>
#include <string>

#include "nodetr/rt/accelerator.hpp"

namespace nodetr::rt {

/// Static description of one simulated board.
struct BoardConfig {
  std::string name = "dev0";  ///< metrics label AND fault scope
  double clock_mhz = 200.0;   ///< PL clock the board's cycle counts are paid at
  index_t dma_beat_bytes = AxiStreamDma::kBeatBytes;
  std::int64_t dma_setup_cycles = AxiStreamDma::kSetupCycles;
  std::size_t ddr_bytes = 64u << 20;

  [[nodiscard]] BoardProfile profile() const {
    BoardProfile p;
    p.clock_mhz = clock_mhz;
    p.dma_beat_bytes = dma_beat_bytes;
    p.dma_setup_cycles = dma_setup_cycles;
    p.fault_scope = name;
    return p;
  }
};

/// One simulated board: the accelerator plus the knobs the cluster router
/// costs it by. `clock_mhz` is atomic so a test can slow a board 10× at
/// runtime (thermal throttling, clock scaling) and watch the router
/// rebalance — the change affects cycles_to_us() conversions immediately.
class SimulatedDevice {
 public:
  /// `ip` may be null: a host-only board with no accelerator model.
  SimulatedDevice(BoardConfig config, std::unique_ptr<hls::MhsaIpCore> ip);

  [[nodiscard]] const BoardConfig& config() const { return config_; }
  [[nodiscard]] const std::string& name() const { return config_.name; }

  [[nodiscard]] double clock_mhz() const {
    return clock_mhz_.load(std::memory_order_relaxed);
  }
  /// Runtime clock change (simulated throttling). Affects cycles_to_us();
  /// the accelerator's own cycle *counts* are clock-independent.
  void set_clock_mhz(double mhz);
  /// Simulated µs this board takes to burn `cycles` at its current clock.
  [[nodiscard]] double cycles_to_us(std::int64_t cycles) const {
    return static_cast<double>(cycles) / clock_mhz();
  }

  [[nodiscard]] bool has_accelerator() const { return accel_ != nullptr; }
  [[nodiscard]] MhsaAccelerator& accelerator() { return *accel_; }
  [[nodiscard]] DdrMemory& ddr() { return *ddr_; }

 private:
  BoardConfig config_;
  std::atomic<double> clock_mhz_;
  std::unique_ptr<DdrMemory> ddr_;         ///< null for host-only boards
  std::unique_ptr<MhsaAccelerator> accel_; ///< null for host-only boards
};

}  // namespace nodetr::rt
