#include "core/registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <tuple>

#include "core/mot_network.h"
#include "mesh/mesh_network.h"
#include "stats/experiment.h"
#include "util/error.h"

namespace specnoc::core {
namespace {

TEST(ArchitectureRegistryTest, SeedsCanonicalArchitectures) {
  ArchitectureRegistry registry;
  for (const auto arch : all_architectures()) {
    EXPECT_TRUE(registry.contains(to_string(arch)));
    EXPECT_EQ(registry.reported(to_string(arch)), arch);
  }
  // kCustomHybrid has no canonical builder: it is the identity registered
  // design points report, not a registrable network by itself.
  EXPECT_FALSE(registry.contains(to_string(Architecture::kCustomHybrid)));
}

TEST(ArchitectureRegistryTest, CanonicalBuildersHonorConfig) {
  ArchitectureRegistry registry;
  NetworkConfig config;
  config.n = 16;
  const auto network =
      registry.build(to_string(Architecture::kOptHybridSpeculative), config);
  ASSERT_NE(network, nullptr);
  EXPECT_EQ(network->endpoints(), 16u);
  const auto& mot = dynamic_cast<const MotNetwork&>(*network);
  EXPECT_EQ(mot.architecture(), Architecture::kOptHybridSpeculative);
}

TEST(ArchitectureRegistryTest, UnknownNameListsRegistered) {
  ArchitectureRegistry registry;
  try {
    registry.build("NotAnArch", NetworkConfig{});
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("NotAnArch"), std::string::npos);
    EXPECT_NE(what.find("Baseline"), std::string::npos);
  }
}

TEST(ArchitectureRegistryTest, RejectsEmptyAndDuplicateNames) {
  ArchitectureRegistry registry;
  EXPECT_THROW(registry.add("", [](const NetworkConfig& config) {
    return std::make_unique<MotNetwork>(Architecture::kBaseline, config);
  }),
               ConfigError);
  EXPECT_THROW(registry.add("Baseline",
                            [](const NetworkConfig& config) {
                              return std::make_unique<MotNetwork>(
                                  Architecture::kBaseline, config);
                            }),
               ConfigError);
  EXPECT_THROW(registry.add("NoBuilder", NetworkBuilder{}), ConfigError);
}

TEST(ArchitectureRegistryTest, SpeculationLevelEntriesBuildAtAnyRadix) {
  ArchitectureRegistry registry;
  registry.add_speculation_levels("{0,2}", {0, 2});
  EXPECT_EQ(registry.reported("{0,2}"), Architecture::kCustomHybrid);

  NetworkConfig config;
  config.n = 16;
  auto network = registry.build("{0,2}", config);
  EXPECT_EQ(network->endpoints(), 16u);
  const auto* mot = dynamic_cast<const MotNetwork*>(network.get());
  ASSERT_NE(mot, nullptr);
  EXPECT_EQ(mot->architecture(), Architecture::kCustomHybrid);
  EXPECT_TRUE(mot->speculation().speculative(0, 0));
  EXPECT_FALSE(mot->speculation().speculative(1, 0));
  EXPECT_TRUE(mot->speculation().speculative(2, 0));

  // Same entry, larger radix: the map is re-derived per build.
  config.n = 64;
  network = registry.build("{0,2}", config);
  EXPECT_EQ(network->endpoints(), 64u);
  mot = dynamic_cast<const MotNetwork*>(network.get());
  ASSERT_NE(mot, nullptr);
  EXPECT_TRUE(mot->speculation().speculative(2, 1));
}

TEST(ArchitectureRegistryTest, NamesAreSortedAndComplete) {
  ArchitectureRegistry registry;
  registry.add_speculation_levels("{1}", {1});
  const auto names = registry.names();
  // The canonical MoTs, the four seeded meshes and the added entry.
  EXPECT_EQ(names.size(), all_architectures().size() + 4 + 1);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_NE(std::find(names.begin(), names.end(), "{1}"), names.end());
}

TEST(ArchitectureRegistryTest, MeshEntriesDeriveTheirShapeFromTheRadix) {
  ArchitectureRegistry registry;
  NetworkConfig config;
  config.flits_per_packet = 3;
  config.clock_period = 600;
  for (const char* name :
       {"MeshXY", "MeshXYSerial", "MeshSpecCheckerboard", "MeshSpecSparse"}) {
    SCOPED_TRACE(name);
    EXPECT_EQ(registry.reported(name), Architecture::kCustomHybrid);
    const std::tuple<std::uint32_t, std::uint32_t, std::uint32_t> shapes[] =
        {{8, 4, 2}, {16, 4, 4}, {64, 8, 8}};
    for (const auto& [n, cols, rows] : shapes) {
      config.n = n;
      const auto network = registry.build(name, config);
      const auto* mesh = dynamic_cast<const mesh::MeshNetwork*>(network.get());
      ASSERT_NE(mesh, nullptr);
      EXPECT_EQ(mesh->topology().cols(), cols);
      EXPECT_EQ(mesh->topology().rows(), rows);
      EXPECT_EQ(network->endpoints(), n);
      // The builder maps the packet size and clocking; every other mesh
      // field keeps its default.
      EXPECT_EQ(mesh->config().flits_per_packet, 3u);
      EXPECT_EQ(mesh->config().clock_period, 600);
      EXPECT_EQ(mesh->config().router_buffer_flits,
                mesh::MeshConfig{}.router_buffer_flits);
    }
  }
  config.n = 16;
  const auto mask = [&](const char* name) {
    const auto network = registry.build(name, config);
    return dynamic_cast<const mesh::MeshNetwork&>(*network)
        .config()
        .speculative_routers;
  };
  const mesh::MeshTopology grid(4, 4);
  EXPECT_EQ(mask("MeshXY"), 0u);
  EXPECT_EQ(mask("MeshSpecCheckerboard"),
            mesh::MeshNetwork::checkerboard_speculation(grid));
  EXPECT_EQ(mask("MeshSpecSparse"),
            mesh::MeshNetwork::sparse_speculation(grid));
  EXPECT_EQ(std::popcount(mask("MeshSpecSparse")), 4);
}

TEST(ArchitectureRegistryTest, MeshEntriesNameThemselvesForAnUnfitRadix) {
  ArchitectureRegistry registry;
  NetworkConfig config;
  const auto error_for = [&](const char* name, std::uint32_t n) {
    config.n = n;
    try {
      registry.build(name, config);
    } catch (const ConfigError& error) {
      return std::string(error.what());
    }
    return std::string();
  };
  EXPECT_NE(error_for("MeshXY", 12).find("MeshXY"), std::string::npos);
  // A speculative mesh's router mask is 64 bits wide.
  EXPECT_NE(error_for("MeshSpecSparse", 128).find("MeshSpecSparse"),
            std::string::npos);
  EXPECT_EQ(error_for("MeshXY", 128), "");
}

// The end-to-end contract: a spec that carries a `custom` label — plain
// data, exactly what a shard file holds — runs through ExperimentRunner by
// building its network from the global registry.
TEST(ArchitectureRegistryTest, RunnerRebuildsCustomSpecsFromGlobalRegistry) {
  auto& global = ArchitectureRegistry::global();
  if (!global.contains("{0}")) global.add_speculation_levels("{0}", {0});

  NetworkConfig config;
  config.n = 8;
  stats::ExperimentRunner runner(config, /*seed=*/7);
  stats::SaturationSpec custom_spec;
  custom_spec.arch = Architecture::kCustomHybrid;
  custom_spec.custom = "{0}";  // the registry must resolve it
  stats::SaturationSpec canonical_spec;
  canonical_spec.arch = Architecture::kOptHybridSpeculative;

  const auto outcomes =
      runner.run_saturation_grid({custom_spec, canonical_spec});
  ASSERT_EQ(outcomes.size(), 2u);
  ASSERT_TRUE(outcomes[0].run.ok) << outcomes[0].run.error;
  ASSERT_TRUE(outcomes[1].run.ok) << outcomes[1].run.error;
  // An 8x8 tree has levels {0,1}; hybrid speculation is exactly {0}, so
  // the registry-built design point must reproduce the canonical hybrid.
  EXPECT_EQ(outcomes[0].result.delivered_flits_per_ns,
            outcomes[1].result.delivered_flits_per_ns);

  // An unregistered label fails in its outcome slot, not by crashing the
  // grid, and the error names the label.
  stats::SaturationSpec unknown_spec;
  unknown_spec.arch = Architecture::kCustomHybrid;
  unknown_spec.custom = "{not-registered}";
  const auto failed = runner.run_saturation_grid({unknown_spec});
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_FALSE(failed[0].run.ok);
  EXPECT_NE(failed[0].run.error.find("{not-registered}"), std::string::npos);
}

}  // namespace
}  // namespace specnoc::core
