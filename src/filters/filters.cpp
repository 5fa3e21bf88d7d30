#include "filters/filters.hpp"

#include <algorithm>

namespace gill::filt {

std::string_view to_string(Granularity granularity) noexcept {
  switch (granularity) {
    case Granularity::kVpPrefix: return "GILL";
    case Granularity::kVpPrefixPath: return "GILL-asp";
    case Granularity::kVpPrefixPathComm: return "GILL-asp-comm";
  }
  return "?";
}

namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t value) {
  h ^= value + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

}  // namespace

std::uint64_t FilterTable::key_of(const Update& update) const {
  std::uint64_t h = net::hash_value(update.prefix);
  h = mix(h, update.vp);
  if (granularity_ == Granularity::kVpPrefix) return h;
  h = mix(h, bgp::AsPathHash{}(update.path));
  h = mix(h, update.withdrawal ? 1 : 0);
  if (granularity_ == Granularity::kVpPrefixPath) return h;
  for (const auto community : update.communities) {
    h = mix(h, community.packed());
  }
  return h;
}

void FilterTable::add_drop(const Update& update) {
  drops_.insert(key_of(update));
}

void FilterTable::add_drop(VpId vp, const net::Prefix& prefix) {
  Update probe;
  probe.vp = vp;
  probe.prefix = prefix;
  // Only valid for the coarse granularity where path/communities are not
  // part of the key; fine granularities must use the update overload.
  drops_.insert(key_of(probe));
}

bool FilterTable::accept(const Update& update) const {
  if (anchors_.contains(update.vp)) return true;
  if (drops_.contains(key_of(update))) return false;
  return true;  // accept-everything default (§7)
}

std::string FilterTable::describe() const {
  std::string out = "granularity ";
  out += to_string(granularity_);
  out += "\n";
  std::vector<VpId> sorted_anchors(anchors_.begin(), anchors_.end());
  std::sort(sorted_anchors.begin(), sorted_anchors.end());
  for (VpId vp : sorted_anchors) {
    out += "from vp" + std::to_string(vp) + " accept all\n";
  }
  out += std::to_string(drops_.size()) + " drop rules\n";
  out += "default accept\n";
  return out;
}

FilterTable generate_filters(const red::Component1Result& component1,
                             const std::vector<VpId>& anchors,
                             Granularity granularity,
                             const UpdateStream* training) {
  FilterTable table(granularity);
  for (VpId anchor : anchors) table.add_anchor(anchor);

  // accept() admits anchors before it reads the rules, so a rule naming an
  // anchor VP would never fire: it would only fill the table.
  if (granularity == Granularity::kVpPrefix) {
    for (const auto& pair : component1.redundant) {
      if (!table.is_anchor(pair.vp)) table.add_drop(pair.vp, pair.prefix);
    }
    return table;
  }

  // Fine granularities need the concrete redundant updates.
  if (training != nullptr) {
    for (const auto& update : *training) {
      if (!table.is_anchor(update.vp) &&
          component1.redundant.contains(
              red::VpPrefix{update.vp, update.prefix})) {
        table.add_drop(update);
      }
    }
  }
  return table;
}

FilterStats apply_filters(const FilterTable& table, const UpdateStream& stream,
                          UpdateStream* out) {
  FilterStats stats;
  for (const auto& update : stream) {
    if (table.accept(update)) {
      ++stats.retained;
      if (out) out->push(update);
    } else {
      ++stats.matched;
    }
  }
  return stats;
}

bool RouteMapEngine::accept(const Update& update) const {
  for (const Rule& rule : rules_) {
    if (rule.vp == update.vp && rule.match.covers(update.prefix)) {
      return false;
    }
  }
  return true;
}

}  // namespace gill::filt
