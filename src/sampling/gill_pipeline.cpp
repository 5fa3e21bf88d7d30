#include "sampling/gill_pipeline.hpp"

#include <algorithm>
#include <map>
#include <set>

namespace gill::sample {

GillPipelineResult run_gill_pipeline(
    const UpdateStream& rib, const UpdateStream& training,
    const std::vector<topo::AsCategory>& categories, const GillConfig& config,
    const PipelineRuntime& runtime) {
  GillPipelineResult result;

  // Component #1: redundant updates.
  result.component1 =
      red::find_redundant_updates(training, config.component1, runtime.pool);

  if (config.use_anchors) {
    // All VPs appearing in the training data.
    std::set<VpId> vp_set;
    for (const auto& update : training) vp_set.insert(update.vp);
    for (const auto& entry : rib) vp_set.insert(entry.vp);
    std::vector<VpId> vps(vp_set.begin(), vp_set.end());

    // Event inference + §18.1 stratified selection.
    const auto inferred =
        anchor::infer_events(rib, training, config.event_inference);
    const auto candidates = anchor::filter_non_global(
        inferred, vps.size(), config.event_selection.max_visibility);
    const auto events =
        anchor::select_events(candidates, categories, config.event_selection);
    result.events_used = events.size();

    if (!events.empty() && vps.size() >= 2) {
      // Components #2 steps 2-4.
      anchor::EventFeatureExtractor extractor(vps);
      auto matrices =
          extractor.extract(rib, training, events, runtime.pool);
      result.scores = anchor::redundancy_scores(
          std::move(matrices), vps, runtime.pool, runtime.score_cache);
      result.scored_vps = vps;

      std::map<VpId, double> volume_by_vp;
      for (const auto& update : training) volume_by_vp[update.vp] += 1.0;
      std::vector<double> volumes;
      volumes.reserve(vps.size());
      for (const VpId vp : vps) volumes.push_back(volume_by_vp[vp]);

      anchor::Component2Config component2 = config.component2;
      component2.max_anchors = std::min<std::size_t>(
          component2.max_anchors,
          std::max<std::size_t>(
              1, static_cast<std::size_t>(config.max_anchor_fraction *
                                          static_cast<double>(vps.size()))));
      result.anchors =
          anchor::select_anchors(result.scores, vps, volumes, component2)
              .anchors;
    }
  }

  result.filters = filt::generate_filters(result.component1, result.anchors,
                                          config.granularity, &training);
  return result;
}

}  // namespace gill::sample
