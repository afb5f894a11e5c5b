#include "models/baselines.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

#include "graph/schemes.hpp"
#include "models/registry.hpp"
#include "topo/network.hpp"

namespace bwshare::models {
namespace {

TEST(LogGPBaseline, IgnoresSharingEntirely) {
  const LinearLogGPModel model;
  for (int fan = 1; fan <= 5; ++fan) {
    const auto g = graph::schemes::outgoing_fan(fan);
    for (double p : model.penalties(g)) EXPECT_DOUBLE_EQ(p, 1.0);
  }
}

TEST(KimLeeBaseline, UsesMaxConflictMultiplicity) {
  // a:0->1 in a 3-fan: multiplicity 3; add d:4->1 so a's destination sees 2;
  // a keeps max(3, 2) = 3 while d gets max(1, 2) = 2.
  const auto g = graph::schemes::fig2_scheme(4);
  const KimLeeModel model;
  const auto p = model.penalties(g);
  const auto id = [&](const char* label) {
    return static_cast<size_t>(*g.find(label));
  };
  EXPECT_DOUBLE_EQ(p[id("a")], 3.0);
  EXPECT_DOUBLE_EQ(p[id("b")], 3.0);
  EXPECT_DOUBLE_EQ(p[id("d")], 2.0);
}

TEST(KimLeeBaseline, NoConflictMeansUnitPenalty) {
  // A ring: every node sends one comm and receives one.
  graph::CommGraph g;
  for (int i = 0; i < 6; ++i) g.add(i, (i + 1) % 6, 20e6);
  const KimLeeModel model;
  for (double p : model.penalties(g)) EXPECT_DOUBLE_EQ(p, 1.0);
}

TEST(Registry, BuildsEveryRegisteredModel) {
  for (const auto& name : model_names()) {
    const auto model = make_model(name);
    ASSERT_NE(model, nullptr) << name;
    EXPECT_EQ(model->name(), name);
  }
}

TEST(Registry, UnknownNameThrows) { EXPECT_THROW(make_model("bogus"), Error); }

TEST(Registry, ModelForTechMatchesPaperAssignment) {
  EXPECT_EQ(model_for(topo::NetworkTech::kGigabitEthernet)->name(), "gige");
  EXPECT_EQ(model_for(topo::NetworkTech::kMyrinet2000)->name(), "myrinet");
  EXPECT_EQ(model_for(topo::NetworkTech::kInfinibandInfinihost3)->name(),
            "infiniband");
}

}  // namespace
}  // namespace bwshare::models
