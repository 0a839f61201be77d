#include "netsvc/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/logging.h"

namespace agoraeo::netsvc {

namespace {

/// Takes one complete request (head + Content-Length body) off the
/// front of `buffer`, reading from `fd` until it is there.  Returns
/// false when the peer closed the connection before sending any byte of
/// a request (an idle keep-alive client going away), true with `head`
/// and `body` filled otherwise, or an error.
StatusOr<bool> ReadRequest(int fd, std::string* buffer, std::string* head,
                           std::string* body, size_t max_bytes) {
  size_t head_end = std::string::npos;
  size_t content_length = 0;
  char chunk[16384];
  while (true) {
    if (head_end == std::string::npos) {
      head_end = buffer->find("\r\n\r\n");
      if (head_end != std::string::npos) {
        *head = buffer->substr(0, head_end);
        // A paranoia-light parse of Content-Length from the raw head.
        auto parsed = ParseRequestHead(*head);
        if (!parsed.ok()) return parsed.status();
        const std::string& cl = parsed->Header("content-length");
        content_length = cl.empty()
                             ? 0
                             : static_cast<size_t>(std::strtoull(
                                   cl.c_str(), nullptr, 10));
      }
    }
    if (head_end != std::string::npos &&
        buffer->size() - (head_end + 4) >= content_length) {
      // Hand the bytes over rather than erase them: a kept-alive
      // connection must not hold its largest request's capacity.
      const size_t end = head_end + 4 + content_length;
      std::string rest = buffer->substr(end);
      buffer->resize(end);
      buffer->erase(0, head_end + 4);
      *body = std::move(*buffer);
      *buffer = std::move(rest);
      return true;
    }
    if (buffer->size() > max_bytes) {
      return Status::InvalidArgument("request exceeds size limit");
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) {
      if (buffer->empty()) return false;
      return Status::IOError("peer closed before complete request");
    }
    buffer->append(chunk, static_cast<size_t>(n));
  }
}

Status SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// epoll tags of the two non-connection descriptors; connections are
/// tagged with their Connection*.
char kListenTag;
char kWakeTag;

}  // namespace

/// The shared state behind a deferred response: the connection and the
/// server whose counters the completion must update.  Exactly one Send
/// wins; dropping every Responder copy without sending answers 500 from
/// the destructor.
struct HttpServer::Responder::Pending {
  Connection* conn = nullptr;
  bool keep_alive = true;
  HttpServer* server = nullptr;
  std::atomic<bool> sent{false};
  /// Route metrics carried across the deferral so the latency
  /// histogram covers the parked time too.
  obs::Counter* requests_metric = nullptr;
  obs::Histogram* latency_metric = nullptr;
  obs::Gauge* inflight_gauge = nullptr;
  uint64_t start_ns = 0;

  void Send(HttpResponse response) {
    if (sent.exchange(true)) return;
    if (requests_metric != nullptr) requests_metric->Increment();
    if (latency_metric != nullptr) {
      latency_metric->Record(obs::NowNanos() - start_ns);
    }
    if (inflight_gauge != nullptr) inflight_gauge->Add(-1);
    server->Respond(conn, response, keep_alive);
    server->DeferredFinished();
  }

  ~Pending() {
    if (!sent.load()) {
      Send(HttpResponse::InternalError("handler dropped the request"));
    }
  }
};

void HttpServer::Responder::Send(HttpResponse response) const {
  pending_->Send(std::move(response));
}

HttpServer::HttpServer(size_t num_workers)
    : num_workers_(std::max<size_t>(1, num_workers)) {}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::Route(const std::string& method, const std::string& path,
                       Handler handler) {
  RouteEntry entry;
  entry.method = method;
  if (path.size() >= 2 && path.compare(path.size() - 2, 2, "/*") == 0) {
    entry.path = path.substr(0, path.size() - 1);  // keep trailing '/'
    entry.prefix = true;
  } else {
    entry.path = path;
  }
  entry.handler = std::move(handler);
  routes_.push_back(std::move(entry));
}

void HttpServer::RouteAsync(const std::string& method, const std::string& path,
                            AsyncHandler handler) {
  RouteEntry entry;
  entry.method = method;
  if (path.size() >= 2 && path.compare(path.size() - 2, 2, "/*") == 0) {
    entry.path = path.substr(0, path.size() - 1);  // keep trailing '/'
    entry.prefix = true;
  } else {
    entry.path = path;
  }
  entry.async_handler = std::move(handler);
  routes_.push_back(std::move(entry));
}

Status HttpServer::Start(uint16_t port) {
  if (running_.load()) return Status::FailedPrecondition("already running");

  const int sock =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (sock < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(sock, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(sock, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(sock);
    return Status::IOError(std::string("bind: ") + std::strerror(errno));
  }
  if (::listen(sock, 64) < 0) {
    ::close(sock);
    return Status::IOError(std::string("listen: ") + std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(sock, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    const std::string error = std::strerror(errno);
    ::close(sock);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    epoll_fd_ = wake_fd_ = -1;
    return Status::IOError("epoll: " + error);
  }
  epoll_event listen_event{};
  listen_event.events = EPOLLIN;
  listen_event.data.ptr = &kListenTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, sock, &listen_event);
  epoll_event wake_event{};
  wake_event.events = EPOLLIN;
  wake_event.data.ptr = &kWakeTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &wake_event);

  if (obs_ != nullptr) {
    for (RouteEntry& route : routes_) {
      const std::string label =
          route.method + " " + route.path + (route.prefix ? "*" : "");
      route.requests_metric = obs_->CounterOrNull(
          obs::LabeledName("agoraeo_http_requests_total", "route", label));
      route.latency_metric = obs_->HistogramOrNull(
          obs::LabeledName("agoraeo_http_request_ns", "route", label));
    }
    unmatched_requests_ = obs_->CounterOrNull(obs::LabeledName(
        "agoraeo_http_requests_total", "route", "unmatched"));
    inflight_gauge_ = obs_->GaugeOrNull("agoraeo_http_inflight_requests");
  }

  listen_fd_ = sock;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    stopping_ = false;
  }
  pool_ = std::make_unique<ThreadPool>(num_workers_);
  running_.store(true);
  event_thread_ = std::thread([this] { EventLoop(); });
  AGORAEO_LOG(kInfo) << "EarthQube back-end listening on 127.0.0.1:" << port_;
  return Status::OK();
}

void HttpServer::Stop() {
  if (!running_.exchange(false)) return;
  const uint64_t wake = 1;
  (void)::write(wake_fd_, &wake, sizeof(wake));
  if (event_thread_.joinable()) event_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  // The event loop has exited, so every idle connection is ours to
  // close; busy ones close themselves once stopping_ is set.
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    stopping_ = true;
    for (Connection* conn : idle_) {
      ::close(conn->fd);
      delete conn;
    }
    idle_.clear();
  }
  if (pool_ != nullptr) {
    pool_->Wait();
    pool_.reset();
  }
  // Deferred responses complete on foreign threads (engine workers);
  // wait them out so no completion touches a destroyed server.
  {
    std::unique_lock<std::mutex> lock(deferred_mu_);
    deferred_cv_.wait(lock, [&] { return deferred_in_flight_ == 0; });
  }
  ::close(epoll_fd_);
  ::close(wake_fd_);
  epoll_fd_ = wake_fd_ = -1;
}

void HttpServer::DeferredStarted() {
  std::lock_guard<std::mutex> lock(deferred_mu_);
  ++deferred_in_flight_;
}

void HttpServer::DeferredFinished() {
  // Notify under the lock: Stop() may destroy this server the moment
  // the count reaches zero, so the notify must complete before the
  // waiter can observe it.
  std::lock_guard<std::mutex> lock(deferred_mu_);
  --deferred_in_flight_;
  deferred_cv_.notify_all();
}

void HttpServer::EventLoop() {
  epoll_event events[64];
  while (true) {
    const int n = ::epoll_wait(epoll_fd_, events, 64, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      AGORAEO_LOG(kError) << "epoll_wait: " << std::strerror(errno);
      return;
    }
    for (int i = 0; i < n; ++i) {
      void* tag = events[i].data.ptr;
      if (tag == &kWakeTag) return;  // Stop()
      if (tag == &kListenTag) {
        AcceptReady();
        continue;
      }
      // A readable (or hung-up) idle connection: EPOLLONESHOT disarmed
      // it, so it is this loop's alone until a worker re-arms it.
      auto* conn = static_cast<Connection*>(tag);
      {
        std::lock_guard<std::mutex> lock(conn_mu_);
        idle_.erase(conn);
      }
      pool_->Submit([this, conn] { Serve(conn); });
    }
  }
}

void HttpServer::AcceptReady() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // EAGAIN: the backlog is drained
    }
    // Each response is one send; never hold its tail for an ACK.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    auto* conn = new Connection;
    conn->fd = fd;
    Park(conn, /*keep_alive=*/true);
  }
}

void HttpServer::Park(Connection* conn, bool keep_alive) {
  std::lock_guard<std::mutex> lock(conn_mu_);
  if (!keep_alive || stopping_) {
    ::close(conn->fd);
    delete conn;
    return;
  }
  if (!conn->buffer.empty()) {
    // A pipelined request is already buffered; epoll would never report
    // it, so serve it now.
    pool_->Submit([this, conn] { Serve(conn); });
    return;
  }
  epoll_event event{};
  event.events = EPOLLIN | EPOLLRDHUP | EPOLLONESHOT;
  event.data.ptr = conn;
  const int op = conn->registered ? EPOLL_CTL_MOD : EPOLL_CTL_ADD;
  if (::epoll_ctl(epoll_fd_, op, conn->fd, &event) != 0) {
    ::close(conn->fd);
    delete conn;
    return;
  }
  conn->registered = true;
  idle_.insert(conn);
}

void HttpServer::Respond(Connection* conn, const HttpResponse& response,
                         bool keep_alive) {
  // Count before sending: a client that has seen the response must be
  // able to observe the incremented counter.
  requests_served_.fetch_add(1);
  keep_alive = keep_alive && running_.load();
  if (!SendAll(conn->fd, SerializeResponse(response, keep_alive)).ok()) {
    keep_alive = false;
  }
  Park(conn, keep_alive);
}

void HttpServer::Serve(Connection* conn) {
  std::string head, body;
  const StatusOr<bool> read =
      ReadRequest(conn->fd, &conn->buffer, &head, &body, kMaxRequestBytes);
  if (read.ok() && !*read) {
    Park(conn, /*keep_alive=*/false);  // the client hung up between requests
    return;
  }
  const uint64_t start_ns = inflight_gauge_ != nullptr ||
                                    unmatched_requests_ != nullptr
                                ? obs::NowNanos()
                                : 0;
  if (inflight_gauge_ != nullptr) inflight_gauge_->Add(1);
  HttpResponse response;
  const RouteEntry* matched = nullptr;
  bool keep_alive = false;  // a malformed request ends the connection
  if (!read.ok()) {
    response = HttpResponse::BadRequest(read.status().message());
  } else {
    auto request = ParseRequestHead(head);
    if (!request.ok()) {
      response = HttpResponse::BadRequest(request.status().message());
    } else {
      request->body = std::move(body);
      keep_alive = request->keep_alive;
      HttpResponse route_error;
      const RouteEntry* route = FindRoute(*request, &route_error);
      if (route == nullptr) {
        response = route_error;
      } else if (route->async_handler) {
        // Deferred path: hand the connection to a Responder and release
        // this pool worker.  The handler (or whichever thread it passes
        // the Responder to) completes the response; the Pending state's
        // destructor guarantees the client always hears back.
        DeferredStarted();
        auto pending = std::make_shared<Responder::Pending>();
        pending->conn = conn;
        pending->keep_alive = keep_alive;
        pending->server = this;
        pending->requests_metric = route->requests_metric;
        pending->latency_metric = route->latency_metric;
        pending->inflight_gauge = inflight_gauge_;
        pending->start_ns = start_ns != 0 ? start_ns : obs::NowNanos();
        Responder responder{std::move(pending)};
        try {
          route->async_handler(*request, responder);
        } catch (const std::exception& e) {
          responder.Send(HttpResponse::InternalError(e.what()));
        }
        return;  // the Responder owns the connection now
      } else {
        matched = route;
        try {
          response = route->handler(*request);
        } catch (const std::exception& e) {
          response = HttpResponse::InternalError(e.what());
        }
      }
    }
  }
  if (matched != nullptr) {
    if (matched->requests_metric != nullptr) {
      matched->requests_metric->Increment();
    }
    if (matched->latency_metric != nullptr) {
      matched->latency_metric->Record(obs::NowNanos() - start_ns);
    }
  } else if (unmatched_requests_ != nullptr) {
    unmatched_requests_->Increment();
  }
  if (inflight_gauge_ != nullptr) inflight_gauge_->Add(-1);
  Respond(conn, response, keep_alive);
}

const HttpServer::RouteEntry* HttpServer::FindRoute(
    const HttpRequest& request, HttpResponse* error) const {
  const RouteEntry* best = nullptr;
  bool path_matched_any_method = false;
  for (const RouteEntry& route : routes_) {
    const bool path_matches =
        route.prefix ? request.path.rfind(route.path, 0) == 0 &&
                           request.path.size() > route.path.size()
                     : request.path == route.path;
    if (!path_matches) continue;
    path_matched_any_method = true;
    if (route.method != request.method) continue;
    // Exact routes beat prefix routes; longer prefixes beat shorter.
    if (best == nullptr ||
        (best->prefix &&
         (!route.prefix || route.path.size() > best->path.size()))) {
      best = &route;
    }
  }
  if (best == nullptr) {
    *error = path_matched_any_method
                 ? HttpResponse::MethodNotAllowed("method not allowed for " +
                                                  request.path)
                 : HttpResponse::NotFound("no route for " + request.path);
  }
  return best;
}

}  // namespace agoraeo::netsvc
