// PowerMeter: accumulates switching energy and reports power over a window.
#pragma once

#include <array>
#include <cstdint>

#include "noc/hooks.h"
#include "power/energy_model.h"

namespace specnoc::power {

/// EnergyObserver implementation. Attach to Network hooks, open a window at
/// the start of the measurement phase, close it at the end; window power =
/// window energy / window duration.
class PowerMeter final : public noc::EnergyObserver {
 public:
  explicit PowerMeter(EnergyModelParams params = {});

  void on_node_op(const noc::Node& node, noc::NodeOp op,
                  TimePs when) override;
  void on_channel_flit(LengthUm length, TimePs when) override;

  void open_window(TimePs now);
  void close_window(TimePs now);

  EnergyFj total_energy() const { return total_energy_; }
  EnergyFj window_energy() const { return window_energy_; }
  TimePs window_duration() const;
  /// Milliwatts over the closed window (fJ/ps == mW).
  double window_power_mw() const;

  /// Breakdown counters (per NodeOp) over the window, for reports/tests.
  std::uint64_t window_ops(noc::NodeOp op) const;
  std::uint64_t window_channel_flits() const { return window_channel_flits_; }
  EnergyFj window_node_energy() const { return window_node_energy_; }
  EnergyFj window_wire_energy() const { return window_wire_energy_; }
  /// Window energy attributed to switches of one kind (fJ).
  EnergyFj window_kind_energy(noc::NodeKind kind) const;

 private:
  bool in_window(TimePs when) const;
  void deposit(EnergyFj energy, TimePs when, bool is_wire);

  EnergyModelParams params_;
  EnergyFj total_energy_ = 0.0;
  EnergyFj window_energy_ = 0.0;
  EnergyFj window_node_energy_ = 0.0;
  EnergyFj window_wire_energy_ = 0.0;
  TimePs window_start_ = 0;
  TimePs window_end_ = 0;
  bool window_open_ = false;
  bool window_closed_ = false;
  std::array<std::uint64_t, noc::all_node_ops().size()> window_op_counts_{};
  std::array<EnergyFj, noc::all_node_kinds().size()> window_kind_energy_{};
  std::uint64_t window_channel_flits_ = 0;
};

}  // namespace specnoc::power
