#ifndef AGORAEO_NETSVC_CLIENT_H_
#define AGORAEO_NETSVC_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "netsvc/http.h"
#include "obs/metrics.h"

namespace agoraeo::netsvc {

/// How a request failed, classified for callers that react differently
/// to "the peer is slow" vs "the peer is gone" vs "the peer is
/// broken" — the cluster coordinator retries refused nodes but fails
/// fast on malformed responses.
enum class HttpErrorKind {
  kNone,            ///< the request succeeded
  kConnectTimeout,  ///< connect() did not complete within the budget
  kReadTimeout,     ///< the peer accepted but a send/recv timed out
  kRefused,         ///< connection refused / reset / unreachable
  kMalformed,       ///< bytes arrived but were not a valid HTTP response
  kOther,           ///< anything else (bad address, local socket error)
};

const char* HttpErrorKindName(HttpErrorKind kind);

/// Per-request outcome detail beyond the Status (optional out-param of
/// Request and RequestAll): the typed failure kind and how many
/// attempts were made.
struct HttpRequestDetail {
  HttpErrorKind error_kind = HttpErrorKind::kNone;
  int attempts = 0;  ///< total connection attempts (1 = no retry needed)
};

/// Tuning of HttpClient; the defaults suit loopback tiers.
struct HttpClientOptions {
  /// Budget for establishing the TCP connection (non-blocking connect +
  /// poll), separate from the read budget so a dead host fails fast
  /// while a slow response can still stream.
  int connect_timeout_ms = 2000;
  /// Budget for each send, and for each wait for response bytes, on an
  /// established connection.
  int read_timeout_ms = 5000;
  /// Extra attempts after the first failure.  Only connection-phase
  /// failures (refused, connect timeout) are retried for non-idempotent
  /// methods; GET also retries read-phase failures.
  int max_retries = 2;
  /// Exponential backoff between attempts: attempt n sleeps
  /// min(backoff_base_ms << n, backoff_max_ms) scaled by a
  /// deterministic jitter in [0.5, 1.0) so synchronized clients fan
  /// back in spread out.
  int backoff_base_ms = 25;
  int backoff_max_ms = 1000;
  /// Optional metric hooks (requests, failures, retries, backoff
  /// sleeps, error kinds — indexed by static_cast<int>(HttpErrorKind)).
  /// Not owned; must outlive every client constructed from these
  /// options.  Null (the default) records nothing.
  const obs::HttpClientMetrics* metrics = nullptr;
};

/// One request: HttpClient::Request sends one, RequestAll a scatter.
/// Every member has an initializer, so a designated initializer may
/// name just the fields it sets.
struct HttpCall {
  std::string host{};  ///< empty: the client's own host
  uint16_t port = 0;
  std::string method = "POST";
  std::string target{};
  std::string body{};
  std::string content_type = "application/json";
  std::map<std::string, std::string> headers{};
};

/// A blocking HTTP client for the loopback tiers (the UI tier's side of
/// the paper's three-tier architecture, and the cluster tier's
/// inter-node transport).  Speaks HTTP/1.1 keep-alive: responses are
/// framed by Content-Length and the connection goes back to a per-peer
/// idle pool for the next request, so a long-lived client pays the TCP
/// handshake once per concurrent connection, not once per request.  A
/// pooled connection the peer has closed meanwhile (a restart, an idle
/// close) that fails before any response byte arrives is retried once
/// on a fresh connection.  Thread-safe: concurrent requests each take
/// their own connection.
class HttpClient {
 public:
  explicit HttpClient(std::string host = "127.0.0.1",
                      HttpClientOptions options = {})
      : host_(std::move(host)), options_(options) {}

  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Issues one request.  Failures carry a "<kind>: " prefix in the
  /// Status message; pass `detail` for the typed kind and the attempt
  /// count.
  StatusOr<HttpResponse> Request(const HttpCall& call,
                                 HttpRequestDetail* detail = nullptr) const;

  /// Sends every call first and then gathers the responses as they
  /// arrive, all on the calling thread: a scatter to N peers costs the
  /// slowest peer's time without a thread per peer.  Result i (and
  /// `(*details)[i]` when given) belongs to calls[i]; each call retries
  /// and fails exactly as Request does.
  std::vector<StatusOr<HttpResponse>> RequestAll(
      const std::vector<HttpCall>& calls,
      std::vector<HttpRequestDetail>* details = nullptr) const;

  StatusOr<HttpResponse> Get(uint16_t port, const std::string& target) const {
    return Request({.port = port, .method = "GET", .target = target});
  }
  StatusOr<HttpResponse> Post(uint16_t port, const std::string& target,
                              const std::string& json_body) const {
    return Request({.port = port, .target = target, .body = json_body});
  }

  const HttpClientOptions& options() const { return options_; }
  /// Lifetime retry count across all requests (observability, tests).
  uint64_t retries_attempted() const { return retries_.load(); }
  /// Connections this client opened (observability, tests): with
  /// keep-alive peers it stays at the peak number of concurrent
  /// requests per peer.
  uint64_t connections_opened() const { return connections_opened_.load(); }

 private:
  struct Exchange;
  /// Opens (or takes from the pool) a connection for `x` and sends its
  /// request.
  void Open(Exchange* x) const;
  /// Waits for every open exchange's response.
  void Gather(std::vector<Exchange*>& open) const;
  /// Pooled idle connection for `key` ("host:port"), or -1.
  int TakeIdle(const std::string& key) const;
  void ReturnIdle(const std::string& key, int fd) const;

  std::string host_;
  HttpClientOptions options_;
  mutable std::atomic<uint64_t> retries_{0};
  mutable std::atomic<uint64_t> connections_opened_{0};
  mutable std::mutex pool_mu_;
  mutable std::unordered_map<std::string, std::vector<int>> idle_;
};

}  // namespace agoraeo::netsvc

#endif  // AGORAEO_NETSVC_CLIENT_H_
