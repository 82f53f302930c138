// The node-kind and node-op name tables in noc/hooks.h: every enumerator
// is listed in all_node_kinds()/all_node_ops() and has a unique name.
#include "noc/hooks.h"

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "util/error.h"

namespace specnoc::noc {
namespace {

// Exhaustive switches over the enums: a new enumerator missing from
// all_node_kinds()/all_node_ops() breaks the static_asserts below, and one
// missing from these switches fails the build under -Wswitch -Werror.
constexpr bool covers(NodeKind kind) {
  switch (kind) {
    case NodeKind::kSource:
    case NodeKind::kSink:
    case NodeKind::kFanoutBaseline:
    case NodeKind::kFanoutSpeculative:
    case NodeKind::kFanoutNonSpeculative:
    case NodeKind::kFanoutOptSpeculative:
    case NodeKind::kFanoutOptNonSpeculative:
    case NodeKind::kFanin:
    case NodeKind::kMeshRouter:
    case NodeKind::kMeshRouterSpec:
      return true;
  }
  return false;
}

constexpr bool covers(NodeOp op) {
  switch (op) {
    case NodeOp::kRouteForward:
    case NodeOp::kBroadcast:
    case NodeOp::kFastForward:
    case NodeOp::kThrottle:
    case NodeOp::kArbitrate:
    case NodeOp::kSourceSend:
    case NodeOp::kSinkConsume:
      return true;
  }
  return false;
}

static_assert(all_node_kinds().size() == 10);
static_assert(all_node_ops().size() == 7);

TEST(NodeEnumNamesTest, EveryNodeKindHasAUniqueNameThatRoundTrips) {
  std::set<std::string> names;
  for (const NodeKind kind : all_node_kinds()) {
    EXPECT_TRUE(covers(kind));
    const char* name = to_string(kind);
    EXPECT_STRNE(name, "?");
    EXPECT_TRUE(names.insert(name).second) << name;
    EXPECT_EQ(node_kind_from_string(name), kind) << name;
  }
  EXPECT_EQ(names.size(), all_node_kinds().size());
  EXPECT_THROW(node_kind_from_string("no_such_kind"), ConfigError);
}

TEST(NodeEnumNamesTest, EveryNodeOpHasAUniqueName) {
  std::set<std::string> names;
  for (const NodeOp op : all_node_ops()) {
    EXPECT_TRUE(covers(op));
    const char* name = to_string(op);
    EXPECT_STRNE(name, "?");
    EXPECT_TRUE(names.insert(name).second) << name;
  }
  EXPECT_EQ(names.size(), all_node_ops().size());
}

}  // namespace
}  // namespace specnoc::noc
