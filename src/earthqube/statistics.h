#ifndef AGORAEO_EARTHQUBE_STATISTICS_H_
#define AGORAEO_EARTHQUBE_STATISTICS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "bigearthnet/clc_labels.h"
#include "common/status.h"

namespace agoraeo::earthqube {

/// One bar of the label-statistics chart (Figure 2-4): a land-cover
/// label, its occurrence count in the retrieval, and its predefined
/// representative colour.
struct LabelBar {
  bigearthnet::LabelId label;
  std::string label_name;
  size_t count;
  uint32_t color_rgb;
};

/// The label-statistics view: summarises the occurrence of land-cover
/// labels across a set of retrieved images, "a unique feature of
/// EarthQube" per the paper.
class LabelStatistics {
 public:
  /// Occurrences per label, indexed by LabelId.
  using LabelCounts = std::array<size_t, bigearthnet::kNumLabels>;

  /// Builds statistics from per-label occurrence counts over
  /// `num_images` retrieved images.
  static LabelStatistics FromCounts(const LabelCounts& counts,
                                    size_t num_images);

  /// Builds statistics from the label sets of retrieved images.
  static LabelStatistics FromLabelSets(
      const std::vector<bigearthnet::LabelSet>& retrievals);

  /// Bars sorted by descending count (ties by label id).
  const std::vector<LabelBar>& bars() const { return bars_; }

  /// Total label occurrences (sum over bars).
  size_t total_occurrences() const { return total_; }

  /// Number of images the statistics cover.
  size_t num_images() const { return num_images_; }

  /// Count for one label (0 when absent).
  size_t CountOf(bigearthnet::LabelId id) const;

  /// The dominant land-cover label (NotFound on empty statistics).
  StatusOr<bigearthnet::LabelId> DominantLabel() const;

  /// Renders the bar chart as fixed-width ASCII art, the CLI analogue of
  /// the UI's chart.  `width` is the maximum bar length in characters.
  std::string RenderAscii(size_t width = 40) const;

 private:
  std::vector<LabelBar> bars_;
  size_t total_ = 0;
  size_t num_images_ = 0;
};

}  // namespace agoraeo::earthqube

#endif  // AGORAEO_EARTHQUBE_STATISTICS_H_
