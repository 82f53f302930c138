#include "stats/serialization.h"

#include <algorithm>
#include <cstdio>
#include <tuple>
#include <utility>

#include "sim/shard.h"
#include "util/error.h"

namespace specnoc::stats {

using util::Json;

Json to_json(const sim::RunOutcome& run) {
  Json json = Json::object();
  json.set("ok", run.ok);
  if (!run.error.empty()) json.set("error", run.error);
  json.set("attempts", static_cast<std::uint64_t>(run.telemetry.attempts));
  json.set("events", run.telemetry.events_executed);
  json.set("wall_ms", run.telemetry.wall_ms);
  return json;
}

sim::RunOutcome run_outcome_from_json(const Json& json) {
  sim::RunOutcome run;
  run.ok = json.at("ok").as_bool();
  const Json* error = json.find("error");
  if (error != nullptr) run.error = error->as_string();
  run.telemetry.attempts = static_cast<unsigned>(json.at("attempts").as_u64());
  run.telemetry.events_executed = json.at("events").as_u64();
  run.telemetry.wall_ms = json.at("wall_ms").as_double();
  return run;
}

namespace {

constexpr auto kSiteFields = std::tuple{
    std::pair{"kills", &SiteCounters::kills},
    std::pair{"prealloc_hits", &SiteCounters::prealloc_hits},
    std::pair{"prealloc_misses", &SiteCounters::prealloc_misses},
    std::pair{"contended_grants", &SiteCounters::contended_grants},
    std::pair{"watchdog_releases", &SiteCounters::watchdog_releases}};

constexpr auto kArenaFields = std::tuple{
    std::pair{"pool", &ArenaPoolMetrics::label},
    std::pair{"objects", &ArenaPoolMetrics::objects},
    std::pair{"bytes", &ArenaPoolMetrics::bytes},
    std::pair{"reserved_bytes", &ArenaPoolMetrics::reserved_bytes}};

constexpr auto kCmpFields = std::tuple{
    std::pair{"accesses", &CmpMetrics::accesses},
    std::pair{"l1_hits", &CmpMetrics::l1_hits},
    std::pair{"l1_misses", &CmpMetrics::l1_misses},
    std::pair{"mshr_merges", &CmpMetrics::mshr_merges},
    std::pair{"inv_messages", &CmpMetrics::inv_messages},
    std::pair{"inv_multicasts", &CmpMetrics::inv_multicasts},
    std::pair{"inv_targets", &CmpMetrics::inv_targets},
    std::pair{"writebacks", &CmpMetrics::writebacks},
    std::pair{"dram_reads", &CmpMetrics::dram_reads},
    std::pair{"dram_writes", &CmpMetrics::dram_writes},
    std::pair{"dram_conflicts", &CmpMetrics::dram_conflicts},
    std::pair{"barriers", &CmpMetrics::barriers},
    std::pair{"lock_acquires", &CmpMetrics::lock_acquires},
    std::pair{"lock_contended", &CmpMetrics::lock_contended}};

template <typename Values>
Json u64_array(const Values& values) {
  Json array = Json::array();
  for (const std::uint64_t value : values) array.push_back(value);
  return array;
}

std::vector<std::uint64_t> u64_vector(const Json& json) {
  std::vector<std::uint64_t> values;
  for (const Json& value : json.items()) values.push_back(value.as_u64());
  return values;
}

}  // namespace

Json to_json(const MetricsSnapshot& snapshot) {
  Json json = Json::object();
  Json sites = Json::array();
  for (const auto& site : snapshot.sites) {
    Json entry = Json::object();
    entry.set("kind", noc::to_string(site.kind));
    entry.set("level", static_cast<std::int64_t>(site.level));
    write_fields(entry, site.counters, kSiteFields);
    sites.push_back(std::move(entry));
  }
  json.set("sites", std::move(sites));
  Json channels = Json::array();
  for (const auto& channel : snapshot.channels) {
    Json entry = Json::object();
    entry.set("class", channel.klass);
    entry.set("stalls", channel.stalls);
    entry.set("stall_ps", channel.stall_time_ps);
    entry.set("hist", u64_array(channel.histogram));
    channels.push_back(std::move(entry));
  }
  json.set("channels", std::move(channels));
  // Omitted entirely for sequential runs, which keeps pre-PDES golden
  // records byte-stable.
  if (!snapshot.pdes.empty()) {
    Json pdes = Json::object();
    pdes.set("lanes", static_cast<std::uint64_t>(snapshot.pdes.lanes));
    pdes.set("lookahead_ps",
             static_cast<std::int64_t>(snapshot.pdes.lookahead_ps));
    pdes.set("windows", snapshot.pdes.windows);
    pdes.set("lane_events", u64_array(snapshot.pdes.lane_events));
    pdes.set("lane_idle_windows", u64_array(snapshot.pdes.lane_idle_windows));
    json.set("pdes", std::move(pdes));
  }
  // Also omit-when-empty, for the same byte-stability reason: records from
  // unsampled runs are identical to pre-telemetry records.
  if (!snapshot.telemetry.empty()) {
    json.set("telemetry", telemetry_series_to_json(snapshot.telemetry));
  }
  if (snapshot.dest_spills != 0) json.set("spills", snapshot.dest_spills);
  if (snapshot.dest_spill_bytes != 0) {
    json.set("spill_bytes", snapshot.dest_spill_bytes);
  }
  // Omit-when-empty like pdes/telemetry: records harvested without arena
  // accounting (and all pre-arena records) keep their byte layout.
  if (!snapshot.arena.empty()) {
    Json arena = Json::array();
    for (const auto& pool : snapshot.arena) {
      Json entry = Json::object();
      write_fields(entry, pool, kArenaFields);
      arena.push_back(std::move(entry));
    }
    json.set("arena", std::move(arena));
  }
  // Omit-when-empty: only cmp co-simulation runs carry these counters, so
  // every non-cmp record keeps its byte layout.
  if (!snapshot.cmp.empty()) {
    Json cmp = Json::object();
    write_fields(cmp, snapshot.cmp, kCmpFields);
    json.set("cmp", std::move(cmp));
  }
  return json;
}

MetricsSnapshot metrics_snapshot_from_json(const Json& json) {
  MetricsSnapshot snapshot;
  for (const Json& entry : json.at("sites").items()) {
    MetricsSite site;
    site.kind = noc::node_kind_from_string(entry.at("kind").as_string());
    site.level = static_cast<std::int32_t>(entry.at("level").as_i64());
    read_fields(entry, site.counters, kSiteFields);
    snapshot.sites.push_back(site);
  }
  for (const Json& entry : json.at("channels").items()) {
    ChannelClassMetrics channel;
    channel.klass = entry.at("class").as_string();
    channel.stalls = entry.at("stalls").as_u64();
    channel.stall_time_ps = entry.at("stall_ps").as_u64();
    const std::vector<std::uint64_t> histogram = u64_vector(entry.at("hist"));
    if (histogram.size() != kNumStallBuckets) {
      throw ConfigError("metrics histogram has " +
                        std::to_string(histogram.size()) + " buckets, want " +
                        std::to_string(kNumStallBuckets));
    }
    std::copy(histogram.begin(), histogram.end(), channel.histogram.begin());
    snapshot.channels.push_back(std::move(channel));
  }
  if (const Json* pdes = json.find("pdes"); pdes != nullptr) {
    snapshot.pdes.lanes =
        static_cast<std::uint32_t>(pdes->at("lanes").as_u64());
    snapshot.pdes.lookahead_ps = pdes->at("lookahead_ps").as_i64();
    snapshot.pdes.windows = pdes->at("windows").as_u64();
    snapshot.pdes.lane_events = u64_vector(pdes->at("lane_events"));
    snapshot.pdes.lane_idle_windows = u64_vector(pdes->at("lane_idle_windows"));
  }
  if (const Json* telemetry = json.find("telemetry"); telemetry != nullptr) {
    snapshot.telemetry = telemetry_series_from_json(*telemetry);
  }
  if (const Json* spills = json.find("spills"); spills != nullptr) {
    snapshot.dest_spills = spills->as_u64();
  }
  if (const Json* bytes = json.find("spill_bytes"); bytes != nullptr) {
    snapshot.dest_spill_bytes = bytes->as_u64();
  }
  if (const Json* arena = json.find("arena"); arena != nullptr) {
    for (const Json& entry : arena->items()) {
      ArenaPoolMetrics pool;
      read_fields(entry, pool, kArenaFields);
      snapshot.arena.push_back(std::move(pool));
    }
  }
  if (const Json* cmp = json.find("cmp"); cmp != nullptr) {
    read_fields(*cmp, snapshot.cmp, kCmpFields);
  }
  return snapshot;
}

std::string grid_hash(const std::vector<std::string>& keys) {
  std::string blob;
  for (const auto& key : keys) {
    blob += key;
    blob += '\n';
  }
  const std::uint64_t hash = sim::fnv1a64(blob);
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

const char* run_status(const sim::RunOutcome& run) {
  if (!run.ok) return "failed";
  return run.telemetry.attempts > 1 ? "retried" : "ok";
}

}  // namespace specnoc::stats
