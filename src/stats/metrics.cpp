#include "stats/metrics.h"

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "util/contract.h"
#include "sim/partitioned_scheduler.h"
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

namespace {

constexpr std::size_t kNumNodeKinds = noc::all_node_kinds().size();
constexpr std::size_t kNumChannelClasses = noc::all_channel_classes().size();

/// Registry ids start at 1, so a zeroed cache matches no registry.
std::atomic<std::uint64_t> next_registry_id{1};

}  // namespace

/// One worker's counters. Only that worker writes them, without a lock;
/// sums read them while the run is quiescent. Aligned so two workers'
/// shards never share a cache line.
struct alignas(64) MetricsRegistry::Shard {
  struct Stalls {
    std::uint64_t stalls = 0;
    std::uint64_t stall_time_ps = 0;
    std::array<std::uint64_t, kNumStallBuckets> histogram{};
  };

  /// Site (kind, level) lives at (level + 1) * kNumNodeKinds + kind; rows
  /// grow on demand, so the deepest tree sets the size.
  std::vector<SiteCounters> sites;
  std::array<Stalls, kNumChannelClasses> channels{};

  SiteCounters& site(const noc::Node& node) {
    SPECNOC_ASSERT(node.site().level >= -1);
    const auto row = static_cast<std::size_t>(node.site().level + 1);
    const std::size_t index =
        row * kNumNodeKinds + static_cast<std::size_t>(node.kind());
    if (index >= sites.size()) sites.resize((row + 1) * kNumNodeKinds);
    return sites[index];
  }
};

MetricsRegistry::MetricsRegistry() : id_(next_registry_id++) {}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::Shard& MetricsRegistry::shard() {
  // The last shard this thread used, with the registry and worker it
  // belongs to. Registry ids are never reused, so a stale entry cannot
  // match a later registry at the same address.
  struct Cache {
    std::uint64_t registry = 0;
    std::uint32_t worker = 0;
    Shard* shard = nullptr;
  };
  thread_local Cache cache;
  const std::uint32_t worker = sim::current_worker();
  if (cache.registry != id_ || cache.worker != worker) {
    cache = {id_, worker, &register_shard(worker)};
  }
  return *cache.shard;
}

MetricsRegistry::Shard& MetricsRegistry::register_shard(std::uint32_t worker) {
  // Keyed by worker index, not by thread: PDES workers are new threads on
  // every run call, and they reuse the shards of the previous call.
  const std::lock_guard<std::mutex> lock(mutex_);
  if (worker >= shards_.size()) shards_.resize(worker + 1);
  if (shards_[worker] == nullptr) shards_[worker] = std::make_unique<Shard>();
  return *shards_[worker];
}

void MetricsRegistry::on_flit_killed(const noc::Node& node, const noc::Flit&,
                                     TimePs) {
  ++shard().site(node).kills;
}

void MetricsRegistry::on_prealloc(const noc::Node& node, bool hit, TimePs) {
  SiteCounters& site = shard().site(node);
  if (hit) {
    ++site.prealloc_hits;
  } else {
    ++site.prealloc_misses;
  }
}

void MetricsRegistry::on_contended_grant(const noc::Node& node, TimePs) {
  ++shard().site(node).contended_grants;
}

void MetricsRegistry::on_watchdog_release(const noc::Node& node, TimePs) {
  ++shard().site(node).watchdog_releases;
}

void MetricsRegistry::on_channel_stall(const noc::Channel& channel,
                                       TimePs start, TimePs end) {
  SPECNOC_EXPECTS(end >= start);
  const TimePs duration = end - start;
  Shard::Stalls& stalls =
      shard().channels[static_cast<std::size_t>(channel.klass())];
  ++stalls.stalls;
  stalls.stall_time_ps += static_cast<std::uint64_t>(duration);
  ++stalls.histogram[stall_bucket(duration)];
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::size_t rows = 0;
    for (const auto& shard : shards_) {
      if (shard != nullptr) {
        rows = std::max(rows, shard->sites.size() / kNumNodeKinds);
      }
    }
    // Kind-major, level-minor: the (kind, level) order snapshots promise.
    // A site appears once any of its counters moved.
    for (const noc::NodeKind kind : noc::all_node_kinds()) {
      for (std::size_t row = 0; row < rows; ++row) {
        const std::size_t index =
            row * kNumNodeKinds + static_cast<std::size_t>(kind);
        SiteCounters sum;
        for (const auto& shard : shards_) {
          if (shard != nullptr && index < shard->sites.size()) {
            sum += shard->sites[index];
          }
        }
        if (sum.any()) {
          snap.sites.push_back(
              {kind, static_cast<std::int32_t>(row) - 1, sum});
        }
      }
    }
    // Enumerator order is name order, so classes come out name-sorted.
    for (const noc::ChannelClass klass : noc::all_channel_classes()) {
      ChannelClassMetrics sum;
      sum.klass = noc::to_string(klass);
      for (const auto& shard : shards_) {
        if (shard == nullptr) continue;
        const Shard::Stalls& c =
            shard->channels[static_cast<std::size_t>(klass)];
        sum.stalls += c.stalls;
        sum.stall_time_ps += c.stall_time_ps;
        for (std::size_t b = 0; b < kNumStallBuckets; ++b) {
          sum.histogram[b] += c.histogram[b];
        }
      }
      if (sum.stalls != 0) snap.channels.push_back(std::move(sum));
    }
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
  SiteCounters sites;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& shard : shards_) {
    if (shard == nullptr) continue;
    for (const SiteCounters& c : shard->sites) sites += c;
    for (std::size_t k = 0; k < kNumChannelClasses; ++k) {
      totals.stall_time_ps[k] += shard->channels[k].stall_time_ps;
    }
  }
  totals.kills = sites.kills;
  totals.prealloc_hits = sites.prealloc_hits;
  totals.prealloc_misses = sites.prealloc_misses;
  totals.contended_grants = sites.contended_grants;
  totals.watchdog_releases = sites.watchdog_releases;
  return totals;
}

}  // namespace specnoc::stats
