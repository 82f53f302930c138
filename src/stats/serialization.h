// JSON codecs and canonical keys for experiment specs and outcomes.
//
// Sharded sweeps move specs and outcomes between processes as values, so
// every protocol's spec and result (stats/protocol.h), sim::RunOutcome and
// MetricsSnapshot get a JSON representation with an exact round trip:
// integers stay integers and doubles are written in their shortest exact
// decimal form, so a value that travels through a shard file renders the
// same table bytes as one that never left the process.
//
// A spec's *identity* is its declarative fields, and for the saturation,
// latency and power protocols those fields are the whole spec: a custom
// design point is a `custom` label naming a core::ArchitectureRegistry
// entry, so a decoded spec runs exactly like the one that was encoded in
// any process that registered the same label. Workload and cmp specs also
// carry a trace, which travels as its hash (see their protocol headers).
//
// spec_key() renders that identity as one canonical line — the sharding
// key (sim::ShardPlan), the per-cell validation key in shard files, and
// the input to grid_hash(), which fingerprints an entire grid so merge
// tooling can refuse shards produced from different grids.
#pragma once

#include <string>
#include <vector>

#include "sim/parallel_runner.h"
#include "stats/experiment.h"
#include "stats/metrics.h"
#include "util/json.h"

namespace specnoc::stats {

// --- run outcomes --------------------------------------------------------

util::Json to_json(const sim::RunOutcome& run);
sim::RunOutcome run_outcome_from_json(const util::Json& json);

// --- metrics -------------------------------------------------------------

/// MetricsSnapshot holds only integers and enum names, so this round trip
/// is byte-exact: a snapshot that travels through a shard file serializes
/// to the same line as one that never left the process.
util::Json to_json(const MetricsSnapshot& snapshot);
MetricsSnapshot metrics_snapshot_from_json(const util::Json& json);

// --- full outcomes (spec + run [+ result + metrics]) ---------------------

template <typename P>
util::Json to_json(const Outcome<P>& outcome) {
  util::Json json = util::Json::object();
  json.set("spec", to_json(outcome.spec));
  json.set("run", to_json(outcome.run));
  // The result slot is only meaningful for successful runs; omitting it
  // for failures keeps failed rows small and makes the round trip yield
  // the same default-constructed result the in-process path reports.
  if (outcome.run.ok) json.set("result", to_json(outcome.result));
  if (outcome.run.ok && outcome.metrics.has_value()) {
    json.set("metrics", to_json(*outcome.metrics));
  }
  return json;
}

template <typename P>
Outcome<P> outcome_from_json(const util::Json& json) {
  Outcome<P> outcome;
  outcome.spec = spec_from_json<P>(json.at("spec"));
  outcome.run = run_outcome_from_json(json.at("run"));
  if (outcome.run.ok) outcome.result = result_from_json<P>(json.at("result"));
  if (const util::Json* metrics = json.find("metrics"); metrics != nullptr) {
    outcome.metrics = metrics_snapshot_from_json(*metrics);
  }
  return outcome;
}

// --- identity ------------------------------------------------------------

/// Keys of a whole grid, in grid order (spec_key() is in protocol.h).
template <typename Spec>
std::vector<std::string> spec_keys(const std::vector<Spec>& specs) {
  std::vector<std::string> keys;
  keys.reserve(specs.size());
  for (const auto& spec : specs) keys.push_back(spec_key(spec));
  return keys;
}

/// Order-sensitive fingerprint of a grid (hex fnv1a64 over its keys).
/// Every shard worker of a sweep must compute the same hash, or the merge
/// refuses to combine their outputs.
std::string grid_hash(const std::vector<std::string>& keys);

/// Per-run status recorded in shard files: "ok" (first attempt), "retried"
/// (succeeded after >= 1 retry), or "failed".
const char* run_status(const sim::RunOutcome& run);

}  // namespace specnoc::stats
