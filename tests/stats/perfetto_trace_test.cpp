#include "stats/perfetto_trace.h"

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/mot_network.h"
#include "util/json.h"

namespace specnoc::stats {
namespace {

using noc::DestSet;

using core::Architecture;

/// Congested multicast run on `net` with `tracer` on all three observer
/// hooks.
void run_traced(core::MotNetwork& net, PerfettoTracer& tracer) {
  net.net().hooks().traffic = &tracer;
  net.net().hooks().energy = &tracer;
  net.net().hooks().metrics = &tracer;
  for (int round = 0; round < 2; ++round) {
    for (std::uint32_t s = 0; s < 8; ++s) {
      net.send_message(s, DestSet::single(0) | DestSet::single(1), false);
    }
  }
  net.scheduler().run();
}

/// run_traced() on the 8x8 hybrid network.
PerfettoTracer traced_run() {
  core::MotNetwork net(Architecture::kOptHybridSpeculative, {});
  PerfettoTracer tracer;
  run_traced(net, tracer);
  return tracer;
}

TEST(PerfettoTracerTest, TraceDoesNotDependOnObjectAddresses) {
  // The tracer caches node and channel tracks in a pointer-keyed hash map
  // (a lookup only); tracks are numbered in first-event order, so moving
  // every object must not move a byte of the trace.
  const auto trace = [](core::MotNetwork& net) {
    PerfettoTracer tracer;
    run_traced(net, tracer);
    std::ostringstream out;
    tracer.write(out);
    return out.str();
  };
  core::MotNetwork first(Architecture::kOptHybridSpeculative, {});
  const std::string first_trace = trace(first);
  // The first network stays alive and a dummy allocation comes between
  // the two builds, so every object of the second lands at another
  // address.
  const auto dummy = std::make_unique<unsigned char[]>(4096);
  core::MotNetwork second(Architecture::kOptHybridSpeculative, {});
  ASSERT_NE(second.net().nodes().front(), first.net().nodes().front());
  EXPECT_EQ(trace(second), first_trace);
}

TEST(PerfettoTracerTest, EmitsStructurallyValidChromeTrace) {
  const PerfettoTracer tracer = traced_run();
  ASSERT_GT(tracer.num_events(), 0u);

  // The written document must parse back as JSON.
  std::ostringstream out;
  tracer.write(out);
  std::string text = out.str();
  ASSERT_FALSE(text.empty());
  ASSERT_EQ(text.back(), '\n');
  text.pop_back();
  const util::Json doc = util::json_parse(text);

  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ns");
  const auto& events = doc.at("traceEvents").items();
  ASSERT_FALSE(events.empty());

  std::set<std::string> track_names;
  std::set<std::uint64_t> named_tids;
  std::map<std::uint64_t, double> last_ts;
  std::set<std::string> event_names;
  for (const util::Json& event : events) {
    EXPECT_EQ(event.at("pid").as_i64(), 1);
    const std::string ph = event.at("ph").as_string();
    const std::uint64_t tid = event.at("tid").as_u64();
    if (ph == "M") {
      // Track metadata: unique tids, unique non-empty names.
      EXPECT_EQ(event.at("name").as_string(), "thread_name");
      const std::string name = event.at("args").at("name").as_string();
      EXPECT_FALSE(name.empty());
      EXPECT_TRUE(track_names.insert(name).second) << name;
      EXPECT_TRUE(named_tids.insert(tid).second) << tid;
      continue;
    }
    ASSERT_TRUE(ph == "i" || ph == "X") << ph;
    // Every event's track was declared.
    EXPECT_TRUE(named_tids.count(tid) > 0) << tid;
    // Timestamps are monotone per track.
    const double ts = event.at("ts").as_double();
    EXPECT_GE(ts, 0.0);
    const auto it = last_ts.find(tid);
    if (it != last_ts.end()) {
      EXPECT_GE(ts, it->second);
    }
    last_ts[tid] = ts;
    if (ph == "X") {
      EXPECT_GE(event.at("dur").as_double(), 0.0);
    }
    event_names.insert(event.at("name").as_string());
  }

  // The run injects multicasts, ejects flits, and (being speculative at
  // level 0 with dests confined to one half) kills redundant copies.
  EXPECT_TRUE(event_names.count("inject.multicast") > 0);
  EXPECT_TRUE(event_names.count("eject.header") > 0);
  EXPECT_TRUE(event_names.count("eject.tail") > 0);
  EXPECT_TRUE(event_names.count("kill") > 0);
  // Congestion on the shared sinks produces backpressure-stall spans.
  EXPECT_TRUE(event_names.count("stall") > 0);
}

TEST(PerfettoTracerTest, KillEventsCarryPacketArgs) {
  const PerfettoTracer tracer = traced_run();
  const util::Json doc = tracer.trace_json();
  std::size_t kills = 0;
  for (const util::Json& event : doc.at("traceEvents").items()) {
    if (event.at("ph").as_string() == "M") continue;
    if (event.at("name").as_string() != "kill") continue;
    ++kills;
    const util::Json* args = event.find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_LT(args->at("src").as_u64(), 8u);
  }
  EXPECT_GT(kills, 0u);
}

/// Non-metadata events of `tracer`'s document, in emission order.
std::vector<util::Json> timeline(const PerfettoTracer& tracer) {
  const util::Json doc = tracer.trace_json();
  std::vector<util::Json> events;
  for (const util::Json& event : doc.at("traceEvents").items()) {
    if (event.at("ph").as_string() != "M") events.push_back(event);
  }
  return events;
}

std::size_t count_named(const std::vector<util::Json>& events,
                        const std::string& name) {
  std::size_t count = 0;
  for (const util::Json& event : events) {
    if (event.at("name").as_string() == name) ++count;
  }
  return count;
}

/// One 5-flit message from `src` to `dests`, traced on every hook.
PerfettoTracer traced_message(Architecture arch, std::uint32_t src,
                              DestSet dests) {
  core::NetworkConfig cfg;
  core::MotNetwork net(arch, cfg);
  PerfettoTracer tracer;
  net.net().hooks().traffic = &tracer;
  net.net().hooks().energy = &tracer;
  net.send_message(src, dests, false);
  net.scheduler().run();
  return tracer;
}

TEST(PerfettoTracerTest, RecordsOneInjectionAndEveryEjection) {
  const auto events = timeline(traced_message(
      Architecture::kOptHybridSpeculative, 2,
      DestSet::single(5) | DestSet::single(6)));
  EXPECT_EQ(count_named(events, "inject.multicast"), 1u);
  EXPECT_EQ(count_named(events, "inject.unicast"), 0u);
  // 5 flits to each of 2 destinations.
  EXPECT_EQ(count_named(events, "eject.header"), 2u);
  EXPECT_EQ(count_named(events, "eject.body"), 6u);
  EXPECT_EQ(count_named(events, "eject.tail"), 2u);
}

TEST(PerfettoTracerTest, EjectionsCarryTheInjectedPacketAndSource) {
  const PerfettoTracer tracer = traced_message(
      Architecture::kOptHybridSpeculative, 2,
      DestSet::single(5) | DestSet::single(6));
  const util::Json doc = tracer.trace_json();
  std::map<std::uint64_t, std::string> track_of;
  for (const util::Json& event : doc.at("traceEvents").items()) {
    if (event.at("ph").as_string() == "M") {
      track_of[event.at("tid").as_u64()] =
          event.at("args").at("name").as_string();
    }
  }
  std::optional<std::uint64_t> packet;
  std::map<std::string, std::size_t> ejections_per_track;
  for (const util::Json& event : timeline(tracer)) {
    const std::string name = event.at("name").as_string();
    if (name == "inject.multicast") {
      EXPECT_EQ(track_of[event.at("tid").as_u64()], "ni.src2");
      EXPECT_EQ(event.at("args").at("src").as_u64(), 2u);
      packet = event.at("args").at("packet").as_u64();
    } else if (name.starts_with("eject.")) {
      ASSERT_TRUE(packet.has_value()) << "ejection before injection";
      EXPECT_EQ(event.at("args").at("packet").as_u64(), *packet);
      EXPECT_EQ(event.at("args").at("src").as_u64(), 2u);
      ++ejections_per_track[track_of[event.at("tid").as_u64()]];
    }
  }
  const std::map<std::string, std::size_t> expected = {{"ni.dst5", 5},
                                                       {"ni.dst6", 5}};
  EXPECT_EQ(ejections_per_track, expected);
}

TEST(PerfettoTracerTest, RecordsNodeOpsOnEverySwitchOfAUnicast) {
  const PerfettoTracer tracer =
      traced_message(Architecture::kBasicNonSpeculative, 0,
                     DestSet::single(3));
  const auto events = timeline(tracer);
  EXPECT_EQ(count_named(events, "inject.unicast"), 1u);
  // Every flit is routed by the 3 fanout switches on its path.
  EXPECT_EQ(count_named(events, "route_forward"), 15u);
  // A non-speculative network neither kills nor broadcasts.
  EXPECT_EQ(count_named(events, "kill"), 0u);
  EXPECT_EQ(count_named(events, "broadcast"), 0u);
  // Node ops land on the switches' tracks: 3 fanout + 3 fanin levels.
  std::set<std::uint64_t> op_tracks;
  for (const util::Json& event : events) {
    if (event.at("cat").as_string() == "op") {
      op_tracks.insert(event.at("tid").as_u64());
    }
  }
  EXPECT_GE(op_tracks.size(), 6u);
}

TEST(PerfettoTracerTest, NodeOpsComeOnlyFromTheEnergyHook) {
  core::NetworkConfig cfg;
  core::MotNetwork net(Architecture::kBasicNonSpeculative, cfg);
  PerfettoTracer tracer;
  net.net().hooks().traffic = &tracer;
  net.send_message(0, DestSet::single(3), false);
  net.scheduler().run();
  const auto events = timeline(tracer);
  // Traffic alone: the injection and the 5 ejections, no switch events.
  EXPECT_EQ(events.size(), 6u);
  EXPECT_EQ(count_named(events, "inject.unicast"), 1u);
  EXPECT_EQ(count_named(events, "route_forward"), 0u);
}

TEST(PerfettoTracerTest, EmptyTracerWritesValidDocument) {
  const PerfettoTracer tracer;
  EXPECT_EQ(tracer.num_events(), 0u);
  const util::Json doc = tracer.trace_json();
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ns");
  EXPECT_TRUE(doc.at("traceEvents").items().empty());
}

}  // namespace
}  // namespace specnoc::stats
