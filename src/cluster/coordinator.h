#ifndef AGORAEO_CLUSTER_COORDINATOR_H_
#define AGORAEO_CLUSTER_COORDINATOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "bigearthnet/archive_generator.h"
#include "cache/cache_stats.h"
#include "cache/epoch.h"
#include "cache/sharded_lru_cache.h"
#include "common/binary_code.h"
#include "common/status.h"
#include "netsvc/client.h"
#include "netsvc/server.h"
#include "obs/observability.h"

#include "cluster/slot_table.h"
#include "cluster/wire.h"

namespace agoraeo::cluster {

/// The query tier's entry point into a slot-sharded deployment: holds a
/// cached copy of the slot table, routes ingest to slot owners, fans
/// queries out to every node, and merges the partial answers back into
/// ONE response that is row-identical to what a monolithic deployment
/// over the same archive would serve.
///
/// Merge semantics (why the cluster answer matches the monolith):
///   - Each node ingests its patches in global archive order, so a
///     node's local item ids are increasing in the coordinator's global
///     ingest sequence; similarity hits merge by (distance, seq) — the
///     exact (distance, id) order the monolithic index produces — and
///     panel rows merge by seq, the docstore's ascending-DocId order.
///   - Paging and panel limits are stripped from the fan-out and
///     re-applied after the merge, so a node never truncates away a row
///     that is globally in range.
///   - A k-NN fan-out asks each node for the same k (k+1 for by-name
///     subjects, whose excluded subject occupies one rank); the global
///     top-k is a subset of the union of per-node top-ks.
///   - A windowed similarity request (page_size > 0) needs only the
///     global ranking's first (page+1)*page_size + 1 rows — its page and
///     one more to prove a next page.  When that is fewer than its k or
///     limit (or it has no limit), each node is asked for just that many
///     (as its k, or as its radius limit), plus one for a by-name
///     subject.  Any other request fetches its whole capped ranking; a
///     radius limit is then stripped as well.
///   - A node truncates by (distance, LOCAL id), which after a slot
///     migration no longer follows global ingest order; when a node's
///     full answer (full before its tombstone filter dropped rows, as
///     its x-cluster-cut-rows header reports) reaches the merged cut's
///     distance, ties there may
///     hide a row, and the coordinator re-asks every node for the
///     uncapped radius at that distance before cutting exactly.
///   - By-NAME subjects are resolved to a code at the slot owner first
///     (GET /cluster/code/<name>), then fanned out by code, so every
///     node searches the same subject; the subject row is dropped after
///     the merge exactly as the monolithic exclude does.
///   - Rows dedup by name before ordering: during a migration's
///     forwarding window the outgoing and incoming owner BOTH answer
///     for the moving slot, and the union-then-dedup is what makes a
///     racing query lose nothing and double-count nothing.
///
/// Redirect discipline: a 308 MOVED answer is followed exactly once
/// (after refreshing the cached table from the redirecting node); a
/// second 308 for the same request is an error, never a loop.  Response
/// `x-cluster-epoch` headers are the staleness signal: any epoch newer
/// than the cached table triggers a refresh.
class Coordinator {
 public:
  struct Options {
    netsvc::HttpClientOptions client_options;
    /// Coordinator-tier observability: its own registry, tracing switch
    /// and slow-query log, separate from every node's.  The client
    /// metric hooks are wired automatically (client_options.metrics is
    /// overwritten when metrics are enabled).
    obs::ObsConfig obs;
  };

  // Two overloads instead of one defaulted argument: a `= {}` default
  // would need Options' member initializers inside Coordinator's own
  // complete-class context, which nested aggregates cannot provide.
  Coordinator();
  explicit Coordinator(Options options);

  /// Installs a known topology directly (bootstrap from config).
  void AttachTable(const SlotTable& table);

  /// Fetches the slot table from `seed` (any cluster member).
  Status RefreshTopology(const NodeAddress& seed);

  SlotTable table() const;
  uint64_t epoch() const;

  /// Routed ingest: assigns each patch the next global ingest sequence
  /// number, groups patches by slot owner, and ships every group (codes
  /// + metadata, snapshot-framed) to its owner's /cluster/ingest at
  /// once.  A stale-table 308 refreshes the topology and re-routes that
  /// group once.
  Status IngestArchive(const bigearthnet::Archive& archive,
                       const std::vector<BinaryCode>& codes);

  /// Executes one /api/v2/query body (single or batch flavour) against
  /// the cluster and returns the response JSON — the same wire shape
  /// the monolithic service serves.
  StatusOr<std::string> Query(const std::string& body_json);

  /// Registers the coordinator's public face on an HttpServer:
  /// POST /api/v2/query (fan-out) and GET /api/v2/cluster/slots (the
  /// cached table).
  void RegisterRoutes(netsvc::HttpServer* server);

  /// Redirects followed across this coordinator's lifetime (tests).
  uint64_t redirects_followed() const { return redirects_followed_; }

  /// Counters of the merged-ranking result cache; also served as the
  /// `agoraeo_cache_*{cache="merged_rankings"}` samples of /metrics.
  cache::CacheStats result_cache_stats() const {
    return result_cache_.Stats();
  }

  /// The coordinator's result-cache epoch: bumped by routed ingest and
  /// by topology adoption, lazily invalidating cached rankings.
  uint64_t result_epoch() const { return result_epoch_.Current(); }

  /// The coordinator tier's observability bundle (its /metrics and
  /// slow-query endpoints read it).
  obs::Observability& obs() { return obs_; }

 private:
  StatusOr<std::string> QuerySingle(const docstore::Document& body);
  StatusOr<earthqube::QueryResponse> ExecuteFanout(
      earthqube::QueryRequest request);

  /// Resolves a by-name similarity subject to its code at the slot
  /// owner, following at most one MOVED redirect.
  StatusOr<BinaryCode> ResolveSubjectCode(const std::string& name);

  void RegisterMetrics();

  /// Notes a response's x-cluster-epoch header; refreshes the table
  /// from `node` when the header advertises a newer topology.  Returns
  /// the advertised epoch (0 when the header is absent or malformed).
  uint64_t ObserveEpoch(const NodeAddress& node,
                        const netsvc::HttpResponse& response);

  Options options_;
  /// Declared before the metric pointers below, which index into it.
  obs::Observability obs_;
  /// The client-side metric hooks client_ records into
  /// (options_.client_options.metrics points here).
  obs::HttpClientMetrics client_metrics_;
  /// Every node call (fan-out, subject resolve, ingest, topology) goes
  /// through this one client, so each node's connections stay open.
  std::unique_ptr<netsvc::HttpClient> client_;
  obs::Histogram* fanout_ns_ = nullptr;
  /// Dedup + sort + truncate of one fan-out's node answers (one sample
  /// per fan-out, a tie repair's second merge included).
  obs::Histogram* merge_ns_ = nullptr;
  obs::Gauge* epoch_gauge_ = nullptr;
  obs::Counter* redirects_metric_ = nullptr;
  obs::Counter* fanout_node_failures_ = nullptr;
  mutable std::mutex mu_;
  SlotTable table_;
  /// name -> global ingest sequence, assigned in routed-ingest order.
  std::unordered_map<std::string, uint64_t> seq_;
  uint64_t next_seq_ = 0;
  std::atomic<uint64_t> redirects_followed_{0};

  /// The result cache: the merged, deduped, capped global ranking per
  /// page-free request fingerprint, so resuming a cursor (or re-asking
  /// any page of a recent ranking) is a slice of the cached rows instead
  /// of a cluster-wide fan-out.  A ranking fetched for one window holds
  /// only that window's rows; a page past them is a cache miss that
  /// fans out again, for the whole capped ranking, and replaces the
  /// entry.  Entries are
  /// validated against result_epoch_, which routed ingest and topology
  /// changes bump.
  /// Shared pointers keep a ranking alive for a reader even if an epoch
  /// bump or LRU pressure drops it from the cache mid-slice.
  struct MergedRanking {
    std::vector<WireResult> rows;
    /// How many leading rows the fan-out fetched (SIZE_MAX: all).
    size_t depth = 0;
    /// True when the first `need` rows are all known: the fetch went
    /// that deep, or the ranking ended before its depth.
    bool Covers(size_t need) const {
      return depth >= need || rows.size() < depth;
    }
  };
  cache::EpochValidator result_epoch_;
  cache::ShardedLruCache<std::string, std::shared_ptr<const MergedRanking>>
      result_cache_;
};

}  // namespace agoraeo::cluster

#endif  // AGORAEO_CLUSTER_COORDINATOR_H_
