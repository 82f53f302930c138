#include "stats/perfetto_trace.h"

#include <algorithm>
#include <numeric>
#include <ostream>

#include "noc/channel.h"
#include "noc/node.h"
#include "noc/packet.h"

namespace specnoc::stats {

namespace {

// Chrome trace timestamps are microseconds; the simulator ticks in ps.
double to_us(TimePs when) { return static_cast<double>(when) / 1e6; }

// One Chrome counter sample: a "C" event keyed by (pid, name); the value
// holds until the next sample, so emitting one per epoch draws the series
// as a step function.
util::Json counter_sample(const char* name, TimePs when, util::Json value) {
  util::Json json = util::Json::object();
  json.set("ph", "C");
  json.set("pid", 1);
  json.set("ts", static_cast<double>(when) / 1e6);
  json.set("name", name);
  util::Json args = util::Json::object();
  args.set("value", std::move(value));
  json.set("args", std::move(args));
  return json;
}

const char* eject_name(noc::FlitKind kind) {
  switch (kind) {
    case noc::FlitKind::kHeader: return "eject.header";
    case noc::FlitKind::kBody: return "eject.body";
    case noc::FlitKind::kTail: return "eject.tail";
  }
  return "eject";
}

}  // namespace

std::uint32_t PerfettoTracer::track(const std::string& name) {
  const auto [it, inserted] = track_ids_.try_emplace(
      name, static_cast<std::uint32_t>(track_names_.size()));
  if (inserted) track_names_.push_back(name);
  return it->second;
}

template <typename Object>
std::uint32_t PerfettoTracer::track(const Object& object) {
  const auto [it, inserted] = object_tracks_.try_emplace(&object, 0);
  if (inserted) it->second = track(object.name());
  return it->second;
}

void PerfettoTracer::instant(std::uint32_t track, TimePs when,
                             const char* name, const char* category) {
  Event event;
  event.track = track;
  event.when = when;
  event.name = name;
  event.category = category;
  events_.push_back(event);
}

void PerfettoTracer::on_packet_injected(const noc::Packet& packet,
                                        TimePs when) {
  Event event;
  event.track = track("ni.src" + std::to_string(packet.src));
  event.when = when;
  event.name = packet.is_multicast() ? "inject.multicast" : "inject.unicast";
  event.category = "traffic";
  event.has_packet = true;
  event.packet = packet.id;
  event.src = packet.src;
  events_.push_back(event);
}

void PerfettoTracer::on_flit_ejected(const noc::Packet& packet,
                                     std::uint32_t dest, noc::FlitKind kind,
                                     TimePs when) {
  Event event;
  event.track = track("ni.dst" + std::to_string(dest));
  event.when = when;
  event.name = eject_name(kind);
  event.category = "traffic";
  event.has_packet = true;
  event.packet = packet.id;
  event.src = packet.src;
  events_.push_back(event);
}

void PerfettoTracer::on_node_op(const noc::Node& node, noc::NodeOp op,
                                TimePs when) {
  instant(track(node), when, noc::to_string(op), "op");
}

void PerfettoTracer::on_channel_flit(LengthUm, TimePs) {
  // Per-flit wire events carry no channel identity; the energy layer
  // aggregates them, the timeline does not need them.
}

void PerfettoTracer::on_flit_killed(const noc::Node& node,
                                    const noc::Flit& flit, TimePs when) {
  Event event;
  event.track = track(node);
  event.when = when;
  event.name = "kill";
  event.category = "spec";
  event.has_packet = flit.packet != nullptr;
  if (event.has_packet) {
    event.packet = flit.packet->id;
    event.src = flit.packet->src;
  }
  events_.push_back(event);
}

void PerfettoTracer::on_prealloc(const noc::Node& node, bool hit,
                                 TimePs when) {
  instant(track(node), when, hit ? "prealloc.hit" : "prealloc.miss",
          "spec");
}

void PerfettoTracer::on_contended_grant(const noc::Node& node, TimePs when) {
  instant(track(node), when, "contended_grant", "spec");
}

void PerfettoTracer::on_watchdog_release(const noc::Node& node, TimePs when) {
  instant(track(node), when, "watchdog_release", "spec");
}

void PerfettoTracer::on_channel_stall(const noc::Channel& channel,
                                      TimePs start, TimePs end) {
  Event event;
  event.track = track(channel);
  event.when = start;
  event.duration = end - start;
  event.name = "stall";
  event.category = "channel";
  events_.push_back(event);
}

void PerfettoTracer::set_telemetry(TelemetrySeries series) {
  telemetry_ = std::move(series);
}

util::Json PerfettoTracer::trace_json() const {
  // The viewer wants timestamps monotone per track; emission order inside
  // one track already is, so a stable sort by track suffices.
  std::vector<std::size_t> order(events_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [this](std::size_t a, std::size_t b) {
                     if (events_[a].track != events_[b].track) {
                       return events_[a].track < events_[b].track;
                     }
                     return events_[a].when < events_[b].when;
                   });

  util::Json doc = util::Json::object();
  doc.set("displayTimeUnit", "ns");
  util::Json trace_events = util::Json::array();
  for (std::uint32_t tid = 0; tid < track_names_.size(); ++tid) {
    util::Json meta = util::Json::object();
    meta.set("ph", "M");
    meta.set("pid", 1);
    meta.set("tid", tid);
    meta.set("name", "thread_name");
    util::Json args = util::Json::object();
    args.set("name", track_names_[tid]);
    meta.set("args", std::move(args));
    trace_events.push_back(std::move(meta));
  }
  for (const std::size_t index : order) {
    const Event& event = events_[index];
    util::Json json = util::Json::object();
    json.set("ph", event.duration >= 0 ? "X" : "i");
    json.set("pid", 1);
    json.set("tid", event.track);
    json.set("ts", to_us(event.when));
    if (event.duration >= 0) {
      json.set("dur", to_us(event.duration));
    } else {
      json.set("s", "t");  // thread-scoped instant
    }
    json.set("name", event.name);
    json.set("cat", event.category);
    if (event.has_packet) {
      util::Json args = util::Json::object();
      args.set("packet", event.packet);
      args.set("src", event.src);
      json.set("args", std::move(args));
    }
    trace_events.push_back(std::move(json));
  }
  // Counter tracks from the epoch-sampled series. Samples land at each
  // interval's start, so the viewer draws the interval's value across its
  // span; epochs are already in time order.
  for (const TelemetryEpoch& epoch : telemetry_.epochs) {
    const TimePs t = epoch.start_ps;
    trace_events.push_back(
        counter_sample("telemetry.events_per_s", t,
                       util::Json(epoch.events_per_second())));
    trace_events.push_back(
        counter_sample("telemetry.kills", t, util::Json(epoch.kills)));
    trace_events.push_back(counter_sample("telemetry.prealloc_hits", t,
                                          util::Json(epoch.prealloc_hits)));
    trace_events.push_back(
        counter_sample("telemetry.contended_grants", t,
                       util::Json(epoch.contended_grants)));
    trace_events.push_back(
        counter_sample("telemetry.pending", t, util::Json(epoch.pending)));
    trace_events.push_back(
        counter_sample("telemetry.overflow_pending", t,
                       util::Json(epoch.overflow_pending)));
    for (const auto& [klass, stall_ps] : epoch.stall_time_ps) {
      const std::string name = "telemetry.stall_ps." + klass;
      trace_events.push_back(
          counter_sample(name.c_str(), t, util::Json(stall_ps)));
    }
  }
  doc.set("traceEvents", std::move(trace_events));
  return doc;
}

void PerfettoTracer::write(std::ostream& out) const {
  out << util::json_write(trace_json()) << "\n";
}

}  // namespace specnoc::stats
