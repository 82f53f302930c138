#include "stats/metrics.h"

#include <algorithm>
#include <cstdio>

#include "util/contract.h"
#include "noc/channel.h"
#include "noc/node.h"

namespace specnoc::stats {

std::size_t stall_bucket(TimePs duration) {
  TimePs bound = kStallBucketUnitPs * 2;
  for (std::size_t b = 0; b + 1 < kNumStallBuckets; ++b) {
    if (duration < bound) return b;
    bound *= 2;
  }
  return kNumStallBuckets - 1;
}

std::string stall_bucket_label(std::size_t bucket) {
  SPECNOC_EXPECTS(bucket < kNumStallBuckets);
  // snprintf sidesteps a GCC 12 -Wrestrict false positive (PR105329) that
  // string concatenation trips here.
  char label[32];
  if (bucket + 1 == kNumStallBuckets) {
    std::snprintf(label, sizeof label, ">=%lldps",
                  static_cast<long long>(kStallBucketUnitPs << bucket));
  } else {
    std::snprintf(label, sizeof label, "<%lldps",
                  static_cast<long long>(kStallBucketUnitPs << (bucket + 1)));
  }
  return label;
}

std::string channel_class(const std::string& name) {
  const auto has_prefix = [&name](const char* prefix) {
    return name.rfind(prefix, 0) == 0;
  };
  if (has_prefix("src")) return "source_if";
  if (has_prefix("root->")) return "sink_if";
  if (has_prefix("mid.")) return "middle";
  if (has_prefix("fo")) return "fanout";
  if (has_prefix("fi")) return "fanin";
  if (has_prefix("ni")) return "mesh_inject";
  if (has_prefix("r>ni") || has_prefix("sr>ni")) return "mesh_eject";
  if (has_prefix("r") || has_prefix("sr")) return "mesh_hop";
  return "other";
}

std::uint64_t MetricsSnapshot::total_kills() const {
  std::uint64_t total = 0;
  for (const auto& site : sites) total += site.counters.kills;
  return total;
}

std::uint64_t MetricsSnapshot::kills_at_level(std::int32_t level) const {
  std::uint64_t total = 0;
  for (const auto& site : sites) {
    if (site.level == level) total += site.counters.kills;
  }
  return total;
}

std::uint64_t MetricsSnapshot::total_prealloc_hits() const {
  std::uint64_t total = 0;
  for (const auto& site : sites) total += site.counters.prealloc_hits;
  return total;
}

std::uint64_t MetricsSnapshot::total_prealloc_misses() const {
  std::uint64_t total = 0;
  for (const auto& site : sites) total += site.counters.prealloc_misses;
  return total;
}

std::uint64_t MetricsSnapshot::total_contended_grants() const {
  std::uint64_t total = 0;
  for (const auto& site : sites) total += site.counters.contended_grants;
  return total;
}

std::uint64_t MetricsSnapshot::total_watchdog_releases() const {
  std::uint64_t total = 0;
  for (const auto& site : sites) total += site.counters.watchdog_releases;
  return total;
}

std::uint64_t MetricsSnapshot::total_stalls() const {
  std::uint64_t total = 0;
  for (const auto& channel : channels) total += channel.stalls;
  return total;
}

const MetricsSite* MetricsSnapshot::find_site(noc::NodeKind kind,
                                              std::int32_t level) const {
  for (const auto& site : sites) {
    if (site.kind == kind && site.level == level) return &site;
  }
  return nullptr;
}

SiteCounters& MetricsRegistry::site(const noc::Node& node) {
  return sites_[{node.kind(), node.site().level}];
}

void MetricsRegistry::on_flit_killed(const noc::Node& node, const noc::Flit&,
                                     TimePs) {
  ++site(node).kills;
}

void MetricsRegistry::on_prealloc(const noc::Node& node, bool hit, TimePs) {
  if (hit) {
    ++site(node).prealloc_hits;
  } else {
    ++site(node).prealloc_misses;
  }
}

void MetricsRegistry::on_contended_grant(const noc::Node& node, TimePs) {
  ++site(node).contended_grants;
}

void MetricsRegistry::on_watchdog_release(const noc::Node& node, TimePs) {
  ++site(node).watchdog_releases;
}

void MetricsRegistry::on_channel_stall(const noc::Channel& channel,
                                       TimePs start, TimePs end) {
  SPECNOC_EXPECTS(end >= start);
  const TimePs duration = end - start;
  auto [it, inserted] = channels_.try_emplace(channel_class(channel.name()));
  ChannelClassMetrics& metrics = it->second;
  if (inserted) metrics.klass = it->first;
  ++metrics.stalls;
  metrics.stall_time_ps += static_cast<std::uint64_t>(duration);
  ++metrics.histogram[stall_bucket(duration)];
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  // std::map iteration is already (kind, level)- and name-sorted.
  snap.sites.reserve(sites_.size());
  for (const auto& [key, counters] : sites_) {
    snap.sites.push_back({key.first, key.second, counters});
  }
  snap.channels.reserve(channels_.size());
  for (const auto& [klass, metrics] : channels_) {
    snap.channels.push_back(metrics);
  }
  snap.pdes = pdes_;
  snap.telemetry = telemetry_;
  snap.dest_spills = dest_spills_;
  snap.dest_spill_bytes = dest_spill_bytes_;
  snap.arena = arena_;
  snap.cmp = cmp_;
  return snap;
}

TelemetryCounters MetricsRegistry::telemetry_counters() const {
  TelemetryCounters totals;
  for (const auto& [key, counters] : sites_) {
    totals.kills += counters.kills;
    totals.prealloc_hits += counters.prealloc_hits;
    totals.prealloc_misses += counters.prealloc_misses;
    totals.contended_grants += counters.contended_grants;
    totals.watchdog_releases += counters.watchdog_releases;
  }
  for (const auto& [klass, metrics] : channels_) {
    totals.stall_time_ps.emplace(klass, metrics.stall_time_ps);
  }
  return totals;
}

}  // namespace specnoc::stats
