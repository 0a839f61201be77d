#ifndef AGORAEO_AGORA_EARTHQUBE_OPS_H_
#define AGORAEO_AGORA_EARTHQUBE_OPS_H_

#include "agora/catalog.h"
#include "agora/pipeline.h"
#include "earthqube/earthqube.h"

namespace agoraeo::agora {

/// Registers EarthQube's capabilities as executable Agora operators and
/// offers the corresponding assets in the catalog — the integration the
/// paper describes ("EarthQube is a browser and search engine within
/// AgoraEO").  `system` must outlive the registry.
///
/// Operators (pipeline value types in brackets):
///  - "earthqube.search"       [ignored -> QueryResponse]
///        params: country?, labels? (array of level-3 names),
///                label_operator? ("some"|"exactly"|"at_least"),
///                min_lat/min_lon/max_lat/max_lon? (rectangle), limit?
///  - "earthqube.cbir"         [QueryResponse -> QueryResponse]
///        params: rank? (which result to use as query, default 0), k?
///  - "earthqube.names"        [QueryResponse -> std::vector<std::string>]
///  - "earthqube.statistics"   [QueryResponse -> std::string (ascii chart)]
Status RegisterEarthQubeOperators(earthqube::EarthQube* system,
                                  OperatorRegistry* registry);

/// Offers the standard AgoraEO demo assets (the BigEarthNet dataset, the
/// MiLaN algorithm + trained model, the EarthQube tool) in `catalog`,
/// with metadata mirroring the paper's numbers.
Status OfferStandardAssets(AssetCatalog* catalog, size_t archive_size,
                           size_t hash_bits);

}  // namespace agoraeo::agora

#endif  // AGORAEO_AGORA_EARTHQUBE_OPS_H_
