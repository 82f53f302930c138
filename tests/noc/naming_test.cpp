// Node and channel naming golden.
//
// Nodes and channels store no names: name() derives each one from
// structure (ids, NodeSite, router coordinates, channel class, endpoints
// and port) when asked. tests/golden/network_names.txt lists every node
// and channel of three small networks, with its kind or class, as the
// builders named them when names were stored strings; the derived names
// must reproduce it byte for byte. On a mismatch the test writes
// network_names.actual.txt to its working directory.
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "noc/network.h"

namespace specnoc::noc {
namespace {

std::vector<std::string> derived_lines() {
  std::vector<std::string> lines;
  for (const char* arch :
       {"Baseline", "OptHybridSpeculative", "MeshSpecCheckerboard"}) {
    core::NetworkConfig cfg;
    cfg.n = 4;  // 4-endpoint MoTs; the mesh entry builds a 2x2 grid
    const auto network = core::ArchitectureRegistry::global().build(arch, cfg);
    lines.push_back(std::string("# ") + arch + " n=4");
    for (const Node* node : network->net().nodes()) {
      lines.push_back(std::string("node ") + to_string(node->kind()) + " " +
                      node->name());
    }
    for (const Channel* channel : network->net().channels()) {
      lines.push_back(std::string("channel ") + to_string(channel->klass()) +
                      " " + channel->name());
    }
  }
  return lines;
}

TEST(NamingTest, DerivedNamesMatchGolden) {
  std::ifstream in(SPECNOC_GOLDEN_DIR "/network_names.txt");
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) golden.push_back(line);
  ASSERT_FALSE(golden.empty())
      << "missing " SPECNOC_GOLDEN_DIR "/network_names.txt";

  const std::vector<std::string> derived = derived_lines();
  EXPECT_EQ(derived.size(), golden.size());
  bool same = derived.size() == golden.size();
  for (std::size_t i = 0; i < derived.size() && i < golden.size(); ++i) {
    EXPECT_EQ(derived[i], golden[i]) << "golden line " << i + 1;
    same = same && derived[i] == golden[i];
  }
  if (!same) {
    std::ofstream out("network_names.actual.txt", std::ios::trunc);
    for (const std::string& line : derived) out << line << "\n";
  }
}

}  // namespace
}  // namespace specnoc::noc
