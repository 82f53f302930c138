#include "stats/protocol.h"

#include "noc/dest_set.h"
#include "sim/partitioned_scheduler.h"
#include "util/error.h"

namespace specnoc::stats {

using util::Json;

namespace {

// Window-protocol shape of a partitioned run (empty when sequential).
// Everything recorded is thread-count-invariant.
PdesMetrics pdes_shape(noc::Network& net) {
  PdesMetrics pdes;
  sim::PartitionedScheduler* psched = net.partitioned_scheduler();
  if (psched == nullptr) return pdes;
  pdes.lanes = psched->lanes();
  pdes.lookahead_ps = psched->lookahead();
  pdes.windows = psched->windows();
  pdes.lane_events = psched->per_lane_executed();
  pdes.lane_idle_windows = psched->per_lane_idle_windows();
  return pdes;
}

}  // namespace

ProbeRig::ProbeRig(bool collect, TelemetryOptions telemetry)
    : collect_(collect),
      telemetry_(telemetry),
      spills_at_start_(noc::DestSet::spill_allocations()),
      spill_bytes_at_start_(noc::DestSet::spill_bytes()) {
  if (sampling()) sampler_.emplace(telemetry_);
}

void ProbeRig::attach(noc::Network& net) {
  if (!collect_) return;
  net.hooks().metrics = &registry_;
  // The sampler needs no observer of its own — it diffs the registry's
  // running totals at epoch boundaries.
  if (sampling()) sampler_->arm(net, registry_);
}

void ProbeRig::harvest(noc::Network& net) {
  events_ = net.executed();
  if (!collect_) return;
  registry_.record_pdes(pdes_shape(net));
  if (sampling()) registry_.record_telemetry(sampler_->finish());
  registry_.record_dest_spills(noc::DestSet::spill_allocations() -
                               spills_at_start_);
  registry_.record_dest_spill_bytes(noc::DestSet::spill_bytes() -
                                    spill_bytes_at_start_);
  std::vector<ArenaPoolMetrics> arena;
  for (const noc::NetworkArena::PoolUsage& pool : net.arena().usage()) {
    arena.push_back(
        {pool.label, pool.objects, pool.bytes, pool.reserved_bytes});
  }
  registry_.record_arena(std::move(arena));
}

void ProbeRig::record_cmp(const CmpMetrics& cmp) {
  if (collect_) registry_.record_cmp(cmp);
}

void read_field(const Json& json, double& out) { out = json.as_double(); }
void read_field(const Json& json, std::uint64_t& out) { out = json.as_u64(); }
void read_field(const Json& json, bool& out) { out = json.as_bool(); }
void read_field(const Json& json, std::string& out) { out = json.as_string(); }

void expect_kind(const Json& json, const char* kind) {
  const std::string& got = json.at("kind").as_string();
  if (got != kind) {
    throw ConfigError(std::string("spec kind mismatch: expected ") + kind +
                      ", got " + got);
  }
}

core::Architecture arch_from_json(const Json& json) {
  const std::string& name = json.at("arch").as_string();
  // kCustomHybrid is not parseable via architecture_from_string (it has no
  // canonical speculation map), but serialized custom design points carry
  // it; their network is the registry entry named by the `custom` label.
  if (name == core::to_string(core::Architecture::kCustomHybrid)) {
    return core::Architecture::kCustomHybrid;
  }
  return core::architecture_from_string(name);
}

void set_custom(Json& json, const std::string& custom) {
  if (!custom.empty()) json.set("custom", custom);
}

std::string custom_from_json(const Json& json) {
  const Json* custom = json.find("custom");
  return custom != nullptr ? custom->as_string() : std::string();
}

std::string with_custom(std::string key, const std::string& custom) {
  return custom.empty() ? key : key + "|" + custom;
}

Json windows_to_json(const traffic::SimWindows& windows) {
  Json json = Json::object();
  json.set("warmup_ps", static_cast<std::int64_t>(windows.warmup));
  json.set("measure_ps", static_cast<std::int64_t>(windows.measure));
  return json;
}

traffic::SimWindows windows_from_json(const Json& json) {
  traffic::SimWindows windows;
  windows.warmup = json.at("warmup_ps").as_i64();
  windows.measure = json.at("measure_ps").as_i64();
  return windows;
}

std::string bench_key(const char* tag, core::Architecture arch,
                      traffic::BenchmarkId bench, std::uint64_t seed,
                      const std::string& custom) {
  return with_custom(std::string(tag) + "|" + core::to_string(arch) + "|" +
                         traffic::to_string(bench) +
                         "|seed=" + std::to_string(seed),
                     custom);
}

}  // namespace specnoc::stats
