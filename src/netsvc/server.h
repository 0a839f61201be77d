#ifndef AGORAEO_NETSVC_SERVER_H_
#define AGORAEO_NETSVC_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "netsvc/http.h"
#include "obs/observability.h"

namespace agoraeo::netsvc {

/// A loopback HTTP server: the transport of EarthQube's back-end tier
/// (paper Section 3.2's three-tier architecture).  Listens on
/// 127.0.0.1 and keeps HTTP/1.1 connections open between requests:
/// one background thread waits on an epoll set holding the listening
/// socket and every idle connection, and hands a connection whose next
/// request is readable to the worker pool.  Once its response is sent
/// the connection goes back to the epoll set, so an idle keep-alive
/// client occupies no worker.  A request that says `connection: close`,
/// or any HTTP/1.0 request, is answered and its connection closed.
///
/// Routes are matched by (method, path): exact paths first, then the
/// longest registered prefix route (a path ending in "/*").  An
/// unmatched request gets 404; a matched path with the wrong method
/// gets 405.
///
/// Handlers come in two flavours.  A synchronous Handler returns the
/// response and occupies a pool worker for the request's whole
/// lifetime.  An AsyncHandler receives a Responder and may return
/// before responding — the worker is released and the connection is
/// parked until some other thread (e.g. an execution-engine worker)
/// completes the Responder, so in-flight queries no longer pin one
/// thread each.
class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  /// Completes one deferred response.  Copyable (hand it to callbacks
  /// freely); the underlying request accepts exactly one Send — later
  /// calls are no-ops.  Send re-arms the kept-alive connection for the
  /// client's next request.  If every copy is dropped without
  /// Send, a 500 is sent so the client is never left hanging.
  class Responder {
   public:
    void Send(HttpResponse response) const;

   private:
    friend class HttpServer;
    struct Pending;
    explicit Responder(std::shared_ptr<Pending> pending)
        : pending_(std::move(pending)) {}
    std::shared_ptr<Pending> pending_;
  };

  using AsyncHandler = std::function<void(const HttpRequest&, Responder)>;

  /// `num_workers` sizes the connection-handling pool.
  explicit HttpServer(size_t num_workers = 4);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers a handler.  A `path` ending in "/*" is a prefix route
  /// (e.g. "/api/patch/*" matches "/api/patch/S2A_...").  Must be called
  /// before Start.
  void Route(const std::string& method, const std::string& path,
             Handler handler);

  /// Registers a deferred-response handler (same matching rules).
  void RouteAsync(const std::string& method, const std::string& path,
                  AsyncHandler handler);

  /// Binds 127.0.0.1:`port` (0 picks an ephemeral port — query `port()`)
  /// and starts accepting.
  Status Start(uint16_t port = 0);

  /// Stops accepting, closes idle connections, finishes in-flight
  /// requests (closing their connections after the response) and
  /// joins.  Idempotent.
  void Stop();

  bool is_running() const { return running_.load(); }
  uint16_t port() const { return port_; }
  size_t requests_served() const { return requests_served_.load(); }
  /// Connections accepted since construction: with keep-alive clients
  /// this stays well below requests_served().
  size_t connections_accepted() const { return connections_accepted_.load(); }

  /// Attaches an observability bundle: Start() then registers one
  /// request counter + latency histogram per route (label
  /// `route="METHOD /path"`), a counter for unroutable requests, and an
  /// in-flight request gauge.  Must be called before Start; `obs`
  /// must outlive the server.  Null (the default) instruments nothing.
  void AttachObservability(obs::Observability* obs) { obs_ = obs; }

  /// Maximum accepted request size (head + body), a guard against
  /// malformed or hostile clients.
  static constexpr size_t kMaxRequestBytes = 64 * 1024 * 1024;

 private:
  struct RouteEntry {
    std::string method;
    std::string path;    // without the trailing '*' for prefix routes
    bool prefix = false;
    Handler handler;
    AsyncHandler async_handler;  // set for RouteAsync registrations
    /// Filled by Start() when observability is attached.
    obs::Counter* requests_metric = nullptr;
    obs::Histogram* latency_metric = nullptr;
  };

  /// One client connection: its socket and the bytes read past the
  /// last request (a pipelining client's next request).
  struct Connection {
    int fd = -1;
    std::string buffer;
    bool registered = false;  ///< already in the epoll set
  };

  void EventLoop();
  void AcceptReady();
  /// Reads and answers one request on a connection the event loop
  /// found readable (runs on a pool worker).
  void Serve(Connection* conn);
  /// Sends `response` and then parks or closes the connection.
  void Respond(Connection* conn, const HttpResponse& response,
               bool keep_alive);
  /// Returns a connection to the epoll set (or straight to the pool if
  /// a pipelined request is already buffered); closes it instead when
  /// `keep_alive` is false or the server is stopping.
  void Park(Connection* conn, bool keep_alive);
  /// Returns the best route for a request, or null with `error` filled
  /// (404/405).
  const RouteEntry* FindRoute(const HttpRequest& request,
                              HttpResponse* error) const;
  /// Deferred-response bookkeeping (Responder completions).
  void DeferredStarted();
  void DeferredFinished();

  std::vector<RouteEntry> routes_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd that tells the event loop to exit
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<size_t> requests_served_{0};
  std::atomic<size_t> connections_accepted_{0};
  std::thread event_thread_;
  std::unique_ptr<ThreadPool> pool_;
  size_t num_workers_;
  /// Guards idle_ and stopping_, and orders every epoll re-arm against
  /// Stop(): a connection is either idle (owned by the epoll set and
  /// closed by Stop) or busy (owned by the worker or Responder serving
  /// it, which closes it once stopping_ is set).
  std::mutex conn_mu_;
  std::unordered_set<Connection*> idle_;
  bool stopping_ = false;
  /// Parked connections awaiting a Responder; Stop() waits for zero so
  /// no completion can touch a dead server.
  std::mutex deferred_mu_;
  std::condition_variable deferred_cv_;
  size_t deferred_in_flight_ = 0;

  obs::Observability* obs_ = nullptr;
  obs::Counter* unmatched_requests_ = nullptr;
  obs::Gauge* inflight_gauge_ = nullptr;
};

}  // namespace agoraeo::netsvc

#endif  // AGORAEO_NETSVC_SERVER_H_
