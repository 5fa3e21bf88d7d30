#include <gtest/gtest.h>

#include "filters/filters.hpp"

namespace gill::filt {
namespace {

using bgp::AsPath;
using bgp::Update;

net::Prefix pfx(const char* text) { return net::Prefix::parse(text).value(); }

Update make(VpId vp, const char* prefix,
            std::initializer_list<bgp::AsNumber> path = {1, 2},
            bgp::CommunitySet communities = {}) {
  Update u;
  u.vp = vp;
  u.prefix = pfx(prefix);
  u.path = AsPath(path);
  u.communities = std::move(communities);
  return u;
}

TEST(FilterTable, PriorityOrderAnchorDropDefault) {
  FilterTable table;
  table.add_anchor(2);
  table.add_drop(1, pfx("10.0.0.0/24"));
  table.add_drop(2, pfx("10.0.0.0/24"));  // overridden by anchor status

  EXPECT_FALSE(table.accept(make(1, "10.0.0.0/24")));  // drop rule
  EXPECT_TRUE(table.accept(make(2, "10.0.0.0/24")));   // anchor wins
  EXPECT_TRUE(table.accept(make(1, "10.0.1.0/24")));   // default accept
  EXPECT_TRUE(table.accept(make(3, "10.0.0.0/24")));   // unknown VP accepted
}

TEST(FilterTable, CoarseGranularityIgnoresPathAndCommunities) {
  FilterTable table;
  table.add_drop(1, pfx("10.0.0.0/24"));
  // Same (vp, prefix) with any path / communities is dropped.
  EXPECT_FALSE(table.accept(make(1, "10.0.0.0/24", {9, 8, 7})));
  EXPECT_FALSE(table.accept(make(1, "10.0.0.0/24", {1, 2},
                                 bgp::CommunitySet{{5, 5}})));
}

TEST(FilterTable, AspGranularityMatchesExactPath) {
  FilterTable table(Granularity::kVpPrefixPath);
  table.add_drop(make(1, "10.0.0.0/24", {1, 2}));
  EXPECT_FALSE(table.accept(make(1, "10.0.0.0/24", {1, 2})));
  // A different path no longer matches (the paper's point: -asp filters
  // stop matching future updates whose paths differ).
  EXPECT_TRUE(table.accept(make(1, "10.0.0.0/24", {1, 3})));
}

TEST(FilterTable, AspCommGranularityMatchesCommunitiesToo) {
  FilterTable table(Granularity::kVpPrefixPathComm);
  table.add_drop(make(1, "10.0.0.0/24", {1, 2}, bgp::CommunitySet{{5, 5}}));
  EXPECT_FALSE(table.accept(
      make(1, "10.0.0.0/24", {1, 2}, bgp::CommunitySet{{5, 5}})));
  EXPECT_TRUE(table.accept(
      make(1, "10.0.0.0/24", {1, 2}, bgp::CommunitySet{{5, 6}})));
  EXPECT_TRUE(table.accept(make(1, "10.0.0.0/24", {1, 2})));
}

TEST(FilterTable, GranularityNames) {
  EXPECT_EQ(to_string(Granularity::kVpPrefix), "GILL");
  EXPECT_EQ(to_string(Granularity::kVpPrefixPath), "GILL-asp");
  EXPECT_EQ(to_string(Granularity::kVpPrefixPathComm), "GILL-asp-comm");
}

TEST(GenerateFilters, FromComponent1Result) {
  red::Component1Result component1;
  component1.redundant.insert(red::VpPrefix{1, pfx("10.0.0.0/24")});
  component1.redundant.insert(red::VpPrefix{3, pfx("10.0.1.0/24")});

  const auto table = generate_filters(component1, {7});
  EXPECT_EQ(table.drop_rule_count(), 2u);
  EXPECT_TRUE(table.is_anchor(7));
  EXPECT_FALSE(table.accept(make(1, "10.0.0.0/24")));
  EXPECT_FALSE(table.accept(make(3, "10.0.1.0/24")));
  EXPECT_TRUE(table.accept(make(3, "10.0.0.0/24")));
}

TEST(GenerateFilters, NoRuleNamesAnAnchor) {
  // Three VPs with redundant pairs; VP 2 is an anchor. Its pairs must get
  // no rule (accept() admits it first), every other pair keeps its rule.
  red::Component1Result component1;
  const char* prefixes[] = {"10.0.0.0/24", "10.0.1.0/24", "10.0.2.0/24"};
  for (VpId vp : {1u, 2u, 3u}) {
    for (const char* prefix : prefixes) {
      component1.redundant.insert(red::VpPrefix{vp, pfx(prefix)});
    }
  }
  const std::vector<VpId> anchors = {2};

  const auto coarse = generate_filters(component1, anchors);
  // Two non-anchor VPs x three prefixes: the anchor's three pairs add none.
  EXPECT_EQ(coarse.drop_rule_count(), 6u);
  EXPECT_EQ(generate_filters(component1, {}).drop_rule_count(), 9u);
  for (const auto& pair : component1.redundant) {
    Update probe;
    probe.vp = pair.vp;
    probe.prefix = pair.prefix;
    EXPECT_EQ(coarse.accept(probe), pair.vp == 2) << pair.prefix.str();
  }

  bgp::UpdateStream training;
  for (VpId vp : {1u, 2u, 3u}) {
    training.push(make(vp, "10.0.0.0/24", {1, 2}));
    training.push(make(vp, "10.0.0.0/24", {1, 3}));
  }
  const auto fine = generate_filters(component1, anchors,
                                     Granularity::kVpPrefixPath, &training);
  EXPECT_EQ(fine.drop_rule_count(), 4u);
  for (const auto& update : training) {
    EXPECT_EQ(fine.accept(update), update.vp == 2);
  }
}

TEST(GenerateFilters, FineGranularityUsesTrainingUpdates) {
  red::Component1Result component1;
  component1.redundant.insert(red::VpPrefix{1, pfx("10.0.0.0/24")});

  bgp::UpdateStream training;
  training.push(make(1, "10.0.0.0/24", {1, 2}));
  training.push(make(1, "10.0.0.0/24", {1, 3}));
  training.push(make(2, "10.0.0.0/24", {9, 9}));  // not redundant

  const auto table = generate_filters(
      component1, {}, Granularity::kVpPrefixPath, &training);
  EXPECT_EQ(table.drop_rule_count(), 2u);
  EXPECT_FALSE(table.accept(make(1, "10.0.0.0/24", {1, 2})));
  EXPECT_FALSE(table.accept(make(1, "10.0.0.0/24", {1, 3})));
  EXPECT_TRUE(table.accept(make(1, "10.0.0.0/24", {1, 4})));
  EXPECT_TRUE(table.accept(make(2, "10.0.0.0/24", {9, 9})));
}

TEST(ApplyFilters, StatsAndRetainedStream) {
  FilterTable table;
  table.add_drop(1, pfx("10.0.0.0/24"));
  bgp::UpdateStream stream;
  stream.push(make(1, "10.0.0.0/24"));
  stream.push(make(1, "10.0.1.0/24"));
  stream.push(make(2, "10.0.0.0/24"));

  bgp::UpdateStream retained;
  const auto stats = apply_filters(table, stream, &retained);
  EXPECT_EQ(stats.matched, 1u);
  EXPECT_EQ(stats.retained, 2u);
  EXPECT_NEAR(stats.matched_fraction(), 1.0 / 3.0, 1e-12);
  EXPECT_EQ(retained.size(), 2u);
}

TEST(RouteMapEngine, LinearScanSemantics) {
  RouteMapEngine engine;
  engine.add_rule(1, pfx("10.0.0.0/8"));  // covering prefix drops specifics
  EXPECT_FALSE(engine.accept(make(1, "10.1.2.0/24")));
  EXPECT_TRUE(engine.accept(make(2, "10.1.2.0/24")));
  EXPECT_TRUE(engine.accept(make(1, "11.0.0.0/24")));
  EXPECT_EQ(engine.rule_count(), 1u);
}

TEST(FilterTable, DescribeListsAnchorsAndRuleCount) {
  FilterTable table;
  table.add_anchor(3);
  table.add_anchor(1);
  table.add_drop(2, pfx("10.0.0.0/24"));
  const std::string description = table.describe();
  EXPECT_NE(description.find("from vp1 accept all"), std::string::npos);
  EXPECT_NE(description.find("from vp3 accept all"), std::string::npos);
  EXPECT_NE(description.find("1 drop rules"), std::string::npos);
  EXPECT_NE(description.find("default accept"), std::string::npos);
}

}  // namespace
}  // namespace gill::filt
