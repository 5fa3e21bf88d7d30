// GILL's filter generation and matching engine (§7).
//
// Policy, in priority order:
//   1. accept everything from anchor VPs;
//   2. drop updates matching a (VP, prefix[, path[, communities]]) rule
//      generated from Component #1's redundant classification;
//   3. accept everything else ("accept by default" keeps new updates and
//      updates from freshly deployed VPs).
//
// The default granularity matches only (VP, prefix) — the paper shows that
// finer-grained filters (GILL-asp, GILL-asp-comm) stop matching future
// redundant updates (87% vs 43% vs 0%); both variants are implemented for
// that experiment.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "bgp/update.hpp"
#include "redundancy/component1.hpp"

namespace gill::filt {

using bgp::Update;
using bgp::UpdateStream;
using bgp::VpId;

/// What a drop rule matches on.
enum class Granularity {
  kVpPrefix,          // GILL (coarse, default)
  kVpPrefixPath,      // GILL-asp
  kVpPrefixPathComm,  // GILL-asp-comm
};

std::string_view to_string(Granularity granularity) noexcept;

/// An installed filter table.
class FilterTable {
 public:
  explicit FilterTable(Granularity granularity = Granularity::kVpPrefix)
      : granularity_(granularity) {}

  Granularity granularity() const noexcept { return granularity_; }

  void add_anchor(VpId vp) { anchors_.insert(vp); }
  bool is_anchor(VpId vp) const { return anchors_.contains(vp); }
  const std::unordered_set<VpId>& anchors() const noexcept { return anchors_; }

  /// Installs a drop rule keyed from a concrete redundant update (the
  /// update supplies the path/communities for fine granularities).
  void add_drop(const Update& update);

  /// Coarse-granularity drop rule straight from a (VP, prefix) pair.
  void add_drop(VpId vp, const net::Prefix& prefix);

  std::size_t drop_rule_count() const noexcept { return drops_.size(); }

  /// The §7 decision: anchor => accept; drop-rule match => discard;
  /// otherwise accept.
  bool accept(const Update& update) const;

  /// Human-readable dump of the table (the published filter document, §9).
  std::string describe() const;

 private:
  std::uint64_t key_of(const Update& update) const;

  Granularity granularity_;
  std::unordered_set<VpId> anchors_;
  std::unordered_set<std::uint64_t> drops_;
};

/// Builds the table from Component #1's redundant (VP, prefix) pairs and
/// Component #2's anchors. Redundant pairs of anchor VPs get no rule (an
/// anchor is accepted before any rule is read). For fine granularities the
/// training stream must be supplied so rules capture concrete
/// paths/communities.
FilterTable generate_filters(const red::Component1Result& component1,
                             const std::vector<VpId>& anchors,
                             Granularity granularity = Granularity::kVpPrefix,
                             const UpdateStream* training = nullptr);

/// Outcome of running a stream through a table.
struct FilterStats {
  std::size_t matched = 0;   // discarded
  std::size_t retained = 0;  // accepted
  double matched_fraction() const {
    const std::size_t total = matched + retained;
    return total == 0 ? 0.0
                      : static_cast<double>(matched) /
                            static_cast<double>(total);
  }
};

/// Applies the table to `stream`; retained updates are appended to `out`
/// when non-null.
FilterStats apply_filters(const FilterTable& table, const UpdateStream& stream,
                          UpdateStream* out = nullptr);

/// The FRR-style route-map engine used for the §8 comparison: an ordered
/// linear scan of (VP, prefix-or-covering-prefix) rules. Deliberately the
/// way a conventional software router evaluates route-maps, i.e. O(rules)
/// per update — the point of the experiment.
class RouteMapEngine {
 public:
  struct Rule {
    VpId vp;
    net::Prefix match;  // drop updates whose prefix it covers
  };
  void add_rule(VpId vp, const net::Prefix& match) {
    rules_.push_back(Rule{vp, match});
  }
  std::size_t rule_count() const noexcept { return rules_.size(); }
  bool accept(const Update& update) const;

 private:
  std::vector<Rule> rules_;
};

}  // namespace gill::filt
