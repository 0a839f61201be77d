#include "earthqube/statistics.h"

#include <algorithm>
#include <sstream>

#include "common/string_util.h"

namespace agoraeo::earthqube {

using bigearthnet::kNumLabels;
using bigearthnet::LabelById;
using bigearthnet::LabelId;

LabelStatistics LabelStatistics::FromCounts(const LabelCounts& counts,
                                            size_t num_images) {
  LabelStatistics stats;
  stats.num_images_ = num_images;
  for (LabelId id = 0; id < kNumLabels; ++id) {
    const size_t c = counts[static_cast<size_t>(id)];
    if (c == 0) continue;
    const auto& label = LabelById(id);
    stats.bars_.push_back({id, label.name, c, label.color_rgb});
    stats.total_ += c;
  }
  std::sort(stats.bars_.begin(), stats.bars_.end(),
            [](const LabelBar& a, const LabelBar& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.label < b.label;
            });
  return stats;
}

LabelStatistics LabelStatistics::FromLabelSets(
    const std::vector<bigearthnet::LabelSet>& retrievals) {
  LabelCounts counts{};
  for (const auto& labels : retrievals) {
    for (LabelId id : labels.ids()) ++counts[static_cast<size_t>(id)];
  }
  return FromCounts(counts, retrievals.size());
}

size_t LabelStatistics::CountOf(LabelId id) const {
  for (const LabelBar& bar : bars_) {
    if (bar.label == id) return bar.count;
  }
  return 0;
}

StatusOr<LabelId> LabelStatistics::DominantLabel() const {
  if (bars_.empty()) return Status::NotFound("empty label statistics");
  return bars_[0].label;
}

std::string LabelStatistics::RenderAscii(size_t width) const {
  if (bars_.empty()) return "(no labels)\n";
  const size_t max_count = bars_[0].count;
  std::ostringstream out;
  for (const LabelBar& bar : bars_) {
    const size_t len =
        std::max<size_t>(1, bar.count * width / std::max<size_t>(1, max_count));
    std::string name = bar.label_name;
    if (name.size() > 42) name = name.substr(0, 39) + "...";
    out << StrFormat("%-42s |%s %zu (#%06x)\n", name.c_str(),
                     std::string(len, '#').c_str(), bar.count, bar.color_rgb);
  }
  return out.str();
}

}  // namespace agoraeo::earthqube
