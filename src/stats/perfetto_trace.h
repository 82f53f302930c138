// Chrome-trace / Perfetto JSON exporter.
//
// PerfettoTracer implements all three observer interfaces (attach it to
// SimHooks traffic + energy + metrics) and buffers one event per
// observation: node operations, injections/ejections, kills, pre-allocation
// checks, and watchdog releases as instant events on per-node tracks, and
// channel backpressure stalls as duration events on per-channel tracks.
// write() emits the JSON object form of the Chrome trace format
// ({"displayTimeUnit":"ns","traceEvents":[...]}), loadable in
// chrome://tracing and ui.perfetto.dev. Timestamps are microseconds
// (fractional, preserving the simulator's picosecond resolution) and events
// are emitted sorted by timestamp within each track.
//
// This is the simulator's one event-trace export (run_experiment --mode
// trace --perfetto FILE). The JSON serves interactive timeline inspection
// and, being plain JSON with per-event names and args, scripted offline
// analysis too. Events are buffered until write(), so trace short
// horizons.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/json.h"
#include "noc/hooks.h"
#include "stats/telemetry.h"

namespace specnoc::stats {

class PerfettoTracer final : public noc::TrafficObserver,
                             public noc::EnergyObserver,
                             public noc::MetricsObserver {
 public:
  PerfettoTracer() = default;

  void on_packet_injected(const noc::Packet& packet, TimePs when) override;
  void on_flit_ejected(const noc::Packet& packet, std::uint32_t dest,
                       noc::FlitKind kind, TimePs when) override;

  void on_node_op(const noc::Node& node, noc::NodeOp op,
                  TimePs when) override;
  void on_channel_flit(LengthUm length, TimePs when) override;

  void on_flit_killed(const noc::Node& node, const noc::Flit& flit,
                      TimePs when) override;
  void on_prealloc(const noc::Node& node, bool hit, TimePs when) override;
  void on_contended_grant(const noc::Node& node, TimePs when) override;
  void on_watchdog_release(const noc::Node& node, TimePs when) override;
  void on_channel_stall(const noc::Channel& channel, TimePs start,
                        TimePs end) override;

  std::size_t num_events() const { return events_.size(); }

  /// Attaches an epoch-sampled series (TelemetrySampler::finish()); the
  /// trace then carries counter tracks ("ph":"C" — event rate, kills,
  /// prealloc hits, contention, queue depths, per-class stall occupancy)
  /// alongside the slice tracks, so the timeline shows aggregate load next
  /// to per-node events.
  void set_telemetry(TelemetrySeries series);

  /// Builds the trace document; deterministic for a deterministic run.
  util::Json trace_json() const;

  /// Writes trace_json() to `out` as one line of JSON.
  void write(std::ostream& out) const;

 private:
  struct Event {
    std::uint32_t track = 0;
    TimePs when = 0;
    TimePs duration = -1;  ///< < 0: instant event, else "X" with this dur
    const char* name = "";
    const char* category = "";
    bool has_packet = false;
    std::uint64_t packet = 0;
    std::uint32_t src = 0;
  };

  /// Track (Chrome "tid") for a name; created on first use.
  std::uint32_t track(const std::string& name);
  /// Track of a node or channel, cached per object so its derived name is
  /// built once, on the object's first event.
  template <typename Object>
  std::uint32_t track(const Object& object);
  void instant(std::uint32_t track, TimePs when, const char* name,
               const char* category);

  std::vector<std::string> track_names_;
  std::map<std::string, std::uint32_t> track_ids_;
  std::unordered_map<const void*, std::uint32_t> object_tracks_;
  std::vector<Event> events_;
  TelemetrySeries telemetry_;
};

}  // namespace specnoc::stats
