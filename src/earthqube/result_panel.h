#ifndef AGORAEO_EARTHQUBE_RESULT_PANEL_H_
#define AGORAEO_EARTHQUBE_RESULT_PANEL_H_

#include <set>
#include <string>
#include <vector>

#include "bigearthnet/patch.h"
#include "common/status.h"
#include "geo/geo.h"

namespace agoraeo::earthqube {

/// Maximum images EarthQube renders on the map at once (Section 3.1).
inline constexpr size_t kMaxRenderedImages = 1000;
/// Images per result-panel page / per add-to-cart operation.
inline constexpr size_t kPageSize = 50;

/// One row of the image-patches view.
struct ResultEntry {
  std::string name;
  bigearthnet::LabelSet labels;
  std::string country;
  std::string acquisition_date;
  geo::GeoPoint map_location;  ///< marker position (patch center)
};

/// Server-side model of the result panel (paper Section 3.1): the list
/// of matches with pagination, the download cart that can combine
/// images from different searches, and the plain-text name export.
///
/// A panel holds either every row of its result or one window of it
/// (a paged panel query builds only the requested page); `total()` is
/// the exact match count either way, and the row accessors cover only
/// the rows held.
class ResultPanel {
 public:
  /// A panel holding every row of its result.
  explicit ResultPanel(std::vector<ResultEntry> entries)
      : entries_(std::move(entries)), total_(entries_.size()) {}

  /// A panel holding rows [offset, offset + entries.size()) of a result
  /// of `total` matches.
  ResultPanel(std::vector<ResultEntry> entries, size_t offset, size_t total)
      : entries_(std::move(entries)), offset_(offset), total_(total) {}

  size_t total() const { return total_; }
  size_t num_pages() const { return (total_ + kPageSize - 1) / kPageSize; }

  /// Result position of the first held row.
  size_t offset() const { return offset_; }

  /// The held entries of page `page` (0-based); empty past the end.
  std::vector<const ResultEntry*> Page(size_t page) const;

  /// The names of the held rows as a plain-text payload (one name per
  /// line) — the "download names as text file" button.
  std::string NamesAsText() const;

  /// Whether the render-on-map toggle is allowed for this result size.
  bool CanRenderOnMap() const { return total_ <= kMaxRenderedImages; }

  /// The held rows, in result order.
  const std::vector<ResultEntry>& entries() const { return entries_; }

  /// Finds a held entry by patch name (nullptr when absent) — the pop-up
  /// "locate in result panel" button.
  const ResultEntry* FindByName(const std::string& name) const;

 private:
  std::vector<ResultEntry> entries_;
  size_t offset_ = 0;
  size_t total_ = 0;
};

/// The download cart: images accumulated across searches, downloaded
/// together as a single collection.
class DownloadCart {
 public:
  /// Adds one image; duplicates are kept once.
  void Add(const std::string& name);

  /// Adds the current page (up to kPageSize entries) of a panel.
  void AddPage(const ResultPanel& panel, size_t page);

  bool Contains(const std::string& name) const;
  size_t size() const { return names_.size(); }
  void Clear() { names_.clear(); }

  /// Cart contents in insertion order.
  const std::vector<std::string>& names() const { return names_; }

 private:
  std::vector<std::string> names_;
  std::set<std::string> seen_;
};

/// A marker cluster group on the map (zoomed-out view): nearby markers
/// collapse into one cluster with a count.
struct MarkerCluster {
  geo::GeoPoint center;  ///< mean position of the clustered markers
  size_t count;
  std::vector<size_t> entry_indices;  ///< indices into the panel entries
};

/// Grid-based marker clustering, the algorithm behind the map view's
/// cluster groups.  `zoom` in [1, 18]: higher zoom means finer cells
/// (markers separate); at low zoom whole regions collapse together.
std::vector<MarkerCluster> ClusterMarkers(
    const std::vector<ResultEntry>& entries, int zoom);

}  // namespace agoraeo::earthqube

#endif  // AGORAEO_EARTHQUBE_RESULT_PANEL_H_
