#include "stats/telemetry.h"

#include <algorithm>
#include <cstdarg>
#include <mutex>
#include <utility>

#include "util/contract.h"
#include "util/error.h"
#include "noc/network.h"
#include "stats/metrics.h"

namespace specnoc::stats {

double TelemetryEpoch::events_per_second() const {
  const TimePs span = end_ps - start_ps;
  if (span <= 0) return 0.0;
  // events / (span ps) * 1e12 ps/s.
  return static_cast<double>(events) * 1e12 / static_cast<double>(span);
}

bool operator==(const TelemetryEpoch& a, const TelemetryEpoch& b) {
  return a.start_ps == b.start_ps && a.end_ps == b.end_ps &&
         a.events == b.events && a.kills == b.kills &&
         a.prealloc_hits == b.prealloc_hits &&
         a.prealloc_misses == b.prealloc_misses &&
         a.contended_grants == b.contended_grants &&
         a.watchdog_releases == b.watchdog_releases &&
         a.pending == b.pending && a.overflow_pending == b.overflow_pending &&
         a.stall_time_ps == b.stall_time_ps &&
         a.lane_events == b.lane_events && a.windows == b.windows;
}

bool operator==(const TelemetrySeries& a, const TelemetrySeries& b) {
  return a.epoch_ps == b.epoch_ps && a.epochs_total == b.epochs_total &&
         a.dropped == b.dropped && a.epochs == b.epochs;
}

namespace {

util::Json epoch_to_json(const TelemetryEpoch& epoch) {
  util::Json json = util::Json::object();
  json.set("start_ps", static_cast<std::uint64_t>(epoch.start_ps));
  json.set("end_ps", static_cast<std::uint64_t>(epoch.end_ps));
  json.set("events", epoch.events);
  json.set("kills", epoch.kills);
  json.set("prealloc_hits", epoch.prealloc_hits);
  json.set("prealloc_misses", epoch.prealloc_misses);
  json.set("contended_grants", epoch.contended_grants);
  json.set("watchdog_releases", epoch.watchdog_releases);
  json.set("pending", epoch.pending);
  json.set("overflow_pending", epoch.overflow_pending);
  util::Json stalls = util::Json::object();
  for (const auto& [klass, ps] : epoch.stall_time_ps) stalls.set(klass, ps);
  json.set("stall_time_ps", std::move(stalls));
  if (!epoch.lane_events.empty()) {
    util::Json lanes = util::Json::array();
    for (const std::uint64_t events : epoch.lane_events) {
      lanes.push_back(events);
    }
    json.set("lane_events", std::move(lanes));
    json.set("windows", epoch.windows);
  }
  return json;
}

TelemetryEpoch epoch_from_json(const util::Json& json) {
  TelemetryEpoch epoch;
  epoch.start_ps = static_cast<TimePs>(json.at("start_ps").as_u64());
  epoch.end_ps = static_cast<TimePs>(json.at("end_ps").as_u64());
  epoch.events = json.at("events").as_u64();
  epoch.kills = json.at("kills").as_u64();
  epoch.prealloc_hits = json.at("prealloc_hits").as_u64();
  epoch.prealloc_misses = json.at("prealloc_misses").as_u64();
  epoch.contended_grants = json.at("contended_grants").as_u64();
  epoch.watchdog_releases = json.at("watchdog_releases").as_u64();
  epoch.pending = json.at("pending").as_u64();
  epoch.overflow_pending = json.at("overflow_pending").as_u64();
  for (const auto& [klass, ps] : json.at("stall_time_ps").members()) {
    epoch.stall_time_ps.emplace_back(klass, ps.as_u64());
  }
  if (const util::Json* lanes = json.find("lane_events")) {
    for (const util::Json& events : lanes->items()) {
      epoch.lane_events.push_back(events.as_u64());
    }
    epoch.windows = json.at("windows").as_u64();
  }
  return epoch;
}

}  // namespace

util::Json telemetry_series_to_json(const TelemetrySeries& series) {
  util::Json json = util::Json::object();
  json.set("epoch_ps", static_cast<std::uint64_t>(series.epoch_ps));
  json.set("epochs_total", series.epochs_total);
  json.set("dropped", series.dropped);
  util::Json epochs = util::Json::array();
  for (const TelemetryEpoch& epoch : series.epochs) {
    epochs.push_back(epoch_to_json(epoch));
  }
  json.set("epochs", std::move(epochs));
  return json;
}

TelemetrySeries telemetry_series_from_json(const util::Json& json) {
  TelemetrySeries series;
  series.epoch_ps = static_cast<TimePs>(json.at("epoch_ps").as_u64());
  series.epochs_total = json.at("epochs_total").as_u64();
  series.dropped = json.at("dropped").as_u64();
  for (const util::Json& epoch : json.at("epochs").items()) {
    series.epochs.push_back(epoch_from_json(epoch));
  }
  return series;
}

TelemetrySampler::TelemetrySampler(TelemetryOptions options)
    : options_(options) {
  SPECNOC_EXPECTS(!options_.enabled() || options_.ring_capacity >= 1);
  series_.epoch_ps = options_.epoch_ps;
}

void TelemetrySampler::arm(noc::Network& net,
                           const MetricsRegistry& registry) {
  SPECNOC_EXPECTS(options_.enabled());
  SPECNOC_EXPECTS(net_ == nullptr);
  net_ = &net;
  registry_ = &registry;
  interval_start_ = net.now();
  events_at_start_ = net.executed();
  counters_at_start_ = registry.telemetry_counters();
  if (sim::PartitionedScheduler* psched = net.partitioned_scheduler()) {
    lane_events_at_start_ = psched->per_lane_executed();
    windows_at_start_ = psched->windows();
  }
  net.set_epoch_hook(options_.epoch_ps,
                     [this](TimePs boundary) { sample(boundary); });
}

void TelemetrySampler::sample(TimePs boundary) {
  // The hook fires when an event first lands at or past `boundary`, so the
  // interval [interval_start_, boundary) has just completed. A quiet
  // stretch spanning several epochs closes as one wide interval.
  if (boundary > interval_start_) close_interval(boundary);
}

void TelemetrySampler::close_interval(TimePs end) {
  TelemetryEpoch epoch;
  epoch.start_ps = interval_start_;
  epoch.end_ps = end;
  const std::uint64_t executed = net_->executed();
  epoch.events = executed - events_at_start_;
  TelemetryCounters now = registry_->telemetry_counters();
  epoch.kills = now.kills - counters_at_start_.kills;
  epoch.prealloc_hits = now.prealloc_hits - counters_at_start_.prealloc_hits;
  epoch.prealloc_misses =
      now.prealloc_misses - counters_at_start_.prealloc_misses;
  epoch.contended_grants =
      now.contended_grants - counters_at_start_.contended_grants;
  epoch.watchdog_releases =
      now.watchdog_releases - counters_at_start_.watchdog_releases;
  epoch.pending = net_->pending();
  epoch.overflow_pending = net_->overflow_pending();
  // Interval stall time = run total minus the total at the previous close;
  // classes quiet in this interval are omitted (delta 0). Enumerator order
  // is name order, so the list comes out name-sorted.
  for (const noc::ChannelClass klass : noc::all_channel_classes()) {
    const auto k = static_cast<std::size_t>(klass);
    const std::uint64_t delta =
        now.stall_time_ps[k] - counters_at_start_.stall_time_ps[k];
    if (delta != 0) {
      epoch.stall_time_ps.emplace_back(noc::to_string(klass), delta);
    }
  }
  if (sim::PartitionedScheduler* psched = net_->partitioned_scheduler()) {
    std::vector<std::uint64_t> lane_now = psched->per_lane_executed();
    epoch.lane_events.resize(lane_now.size());
    for (std::size_t i = 0; i < lane_now.size(); ++i) {
      epoch.lane_events[i] = lane_now[i] - lane_events_at_start_[i];
    }
    epoch.windows = psched->windows() - windows_at_start_;
    lane_events_at_start_ = std::move(lane_now);
    windows_at_start_ = psched->windows();
  }
  push_epoch(std::move(epoch));

  interval_start_ = end;
  events_at_start_ = executed;
  counters_at_start_ = std::move(now);
}

void TelemetrySampler::push_epoch(TelemetryEpoch epoch) {
  ++series_.epochs_total;
  if (ring_.size() < options_.ring_capacity) {
    ring_.push_back(std::move(epoch));
    return;
  }
  // Flight-recorder semantics: the newest epoch overwrites the oldest.
  ring_[ring_head_] = std::move(epoch);
  ring_head_ = (ring_head_ + 1) % ring_.size();
  ++series_.dropped;
}

TelemetrySeries TelemetrySampler::finish() {
  if (net_ != nullptr) {
    const TimePs end = net_->now();
    if (end > interval_start_) close_interval(end);
    net_->clear_epoch_hook();
    net_ = nullptr;
    registry_ = nullptr;
  }
  std::rotate(ring_.begin(),
              ring_.begin() + static_cast<std::ptrdiff_t>(ring_head_),
              ring_.end());
  series_.epochs = std::move(ring_);
  ring_.clear();
  ring_head_ = 0;
  return std::move(series_);
}

void TelemetrySampler::dump_flight_recorder(std::FILE* out) const {
  std::fprintf(out,
               "[telemetry] flight recorder: %llu interval(s) observed, "
               "%zu retained, %llu dropped (epoch %llu ps)\n",
               static_cast<unsigned long long>(series_.epochs_total),
               ring_.size(),
               static_cast<unsigned long long>(series_.dropped),
               static_cast<unsigned long long>(options_.epoch_ps));
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const TelemetryEpoch& epoch = ring_[(ring_head_ + i) % ring_.size()];
    std::uint64_t stall = 0;
    for (const auto& [klass, ps] : epoch.stall_time_ps) stall += ps;
    std::fprintf(out,
                 "[telemetry]   [%llu, %llu) events=%llu kills=%llu "
                 "prealloc=%llu/%llu grants=%llu pending=%llu+%llu "
                 "stall=%llups\n",
                 static_cast<unsigned long long>(epoch.start_ps),
                 static_cast<unsigned long long>(epoch.end_ps),
                 static_cast<unsigned long long>(epoch.events),
                 static_cast<unsigned long long>(epoch.kills),
                 static_cast<unsigned long long>(epoch.prealloc_hits),
                 static_cast<unsigned long long>(epoch.prealloc_misses),
                 static_cast<unsigned long long>(epoch.contended_grants),
                 static_cast<unsigned long long>(epoch.pending),
                 static_cast<unsigned long long>(epoch.overflow_pending),
                 static_cast<unsigned long long>(stall));
  }
}

const char* to_string(TelemetryFrameKind kind) {
  switch (kind) {
    case TelemetryFrameKind::kStart:
      return "start";
    case TelemetryFrameKind::kRun:
      return "run";
    case TelemetryFrameKind::kEnd:
      return "end";
  }
  SPECNOC_UNREACHABLE("unknown TelemetryFrameKind");
}

std::string telemetry_frame_write(TelemetryFrameKind kind, util::Json body) {
  SPECNOC_EXPECTS(body.is_object());
  SPECNOC_EXPECTS(body.find("frame") == nullptr);
  util::Json frame = util::Json::object();
  frame.set("frame", to_string(kind));
  for (const auto& [key, value] : body.members()) {
    frame.set(key, value);
  }
  return util::json_write(frame);
}

TelemetryFrame telemetry_frame_parse(std::string_view line) {
  TelemetryFrame frame;
  frame.body = util::json_parse(line);
  if (!frame.body.is_object()) {
    throw ConfigError("telemetry frame is not a JSON object");
  }
  const util::Json* kind = frame.body.find("frame");
  if (kind == nullptr) {
    throw ConfigError("telemetry frame lacks a \"frame\" discriminator");
  }
  const std::string& name = kind->as_string();
  if (name == "start") {
    frame.kind = TelemetryFrameKind::kStart;
  } else if (name == "run") {
    frame.kind = TelemetryFrameKind::kRun;
  } else if (name == "end") {
    frame.kind = TelemetryFrameKind::kEnd;
  } else {
    throw ConfigError("unknown telemetry frame kind '" + name + "'");
  }
  return frame;
}

namespace {

/// printf into a std::string of whatever length the output needs.
[[gnu::format(printf, 1, 2)]] std::string printf_string(const char* format,
                                                        ...) {
  std::va_list args;
  va_start(args, format);
  std::va_list sizing;
  va_copy(sizing, args);
  const int size = std::vsnprintf(nullptr, 0, format, sizing);
  va_end(sizing);
  std::string out(static_cast<std::size_t>(std::max(size, 0)), '\0');
  std::vsnprintf(out.data(), out.size() + 1, format, args);
  va_end(args);
  return out;
}

/// One sparkline character per epoch's event count (most recent last),
/// scaled to the series' own peak; at most `width` trailing epochs.
std::string sparkline(const TelemetrySeries& series, std::size_t width) {
  static const char* kLevels[] = {" ", "▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  const std::size_t first =
      series.epochs.size() > width ? series.epochs.size() - width : 0;
  std::uint64_t peak = 0;
  for (std::size_t i = first; i < series.epochs.size(); ++i) {
    peak = std::max(peak, series.epochs[i].events);
  }
  std::string out;
  for (std::size_t i = first; i < series.epochs.size(); ++i) {
    const std::size_t level =
        peak == 0 ? 0 : (series.epochs[i].events * 8 + peak - 1) / peak;
    out += kLevels[std::min<std::size_t>(level, 8)];
  }
  return out;
}

}  // namespace

std::string FollowView::render(const TelemetryFrame& frame) {
  const util::Json& body = frame.body;
  if (frame.kind == TelemetryFrameKind::kStart) {
    const util::Json* tool = body.find("tool");
    const util::Json* epoch = body.find("epoch_ps");
    return "-- " + (tool != nullptr ? tool->as_string() : std::string("?")) +
           " sweep started" +
           (epoch != nullptr
                ? " (epoch " + std::to_string(epoch->as_u64()) + " ps)"
                : std::string()) +
           " --\n";
  }
  if (frame.kind == TelemetryFrameKind::kEnd) {
    done_ = true;
    return printf_string(
        "-- done: %llu run(s), %llu failed, %llu retried, %llu events, "
        "%.1f ms run wall time --\n",
        static_cast<unsigned long long>(runs_),
        static_cast<unsigned long long>(failed_),
        static_cast<unsigned long long>(retried_),
        static_cast<unsigned long long>(events_), wall_ms_);
  }
  ++runs_;
  const std::string& grid = body.at("grid").as_string();
  const std::uint64_t k = ++completed_[grid];
  const util::Json* grid_runs = body.find("grid_runs");
  const std::string of =
      grid_runs != nullptr ? std::to_string(grid_runs->as_u64()) : "?";
  const util::Json* status = body.find("status");
  const std::string run_status =
      status != nullptr ? status->as_string() : "failed";
  if (run_status == "failed") ++failed_;
  if (run_status == "retried") ++retried_;
  const util::Json* events = body.find("events");
  const std::uint64_t run_events = events != nullptr ? events->as_u64() : 0;
  events_ += run_events;
  const util::Json* wall = body.find("wall_ms");
  const double run_wall_ms = wall != nullptr ? wall->as_double() : 0.0;
  wall_ms_ += run_wall_ms;
  std::string out = printf_string(
      "%-12s %4llu/%-4s [%4llu] %-40s %-7s %9llu ev %8.1f ms", grid.c_str(),
      static_cast<unsigned long long>(k), of.c_str(),
      static_cast<unsigned long long>(body.at("cell").as_u64()),
      body.at("key").as_string().c_str(),
      run_status == "failed" ? "FAIL" : run_status.c_str(),
      static_cast<unsigned long long>(run_events), run_wall_ms);
  if (const util::Json* series = body.find("telemetry")) {
    out += "  " + sparkline(telemetry_series_from_json(*series), 32);
  }
  if (const util::Json* error = body.find("error")) {
    out += "  " + error->as_string();
  }
  return out + "\n";
}

struct TelemetryStream::Impl {
  std::mutex mutex;
  std::FILE* file = nullptr;
  bool owned = false;
};

TelemetryStream::TelemetryStream(const std::string& path)
    : impl_(std::make_unique<Impl>()) {
  if (path == "-") {
    impl_->file = stdout;
    return;
  }
  impl_->file = std::fopen(path.c_str(), "w");
  if (impl_->file == nullptr) {
    throw ConfigError("cannot open telemetry output '" + path + "'");
  }
  impl_->owned = true;
}

TelemetryStream::~TelemetryStream() {
  if (impl_->owned) std::fclose(impl_->file);
}

void TelemetryStream::emit(TelemetryFrameKind kind, util::Json body) {
  std::string line = telemetry_frame_write(kind, std::move(body));
  line.push_back('\n');
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  std::fwrite(line.data(), 1, line.size(), impl_->file);
  std::fflush(impl_->file);
}

}  // namespace specnoc::stats
