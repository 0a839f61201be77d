#include "netsvc/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <functional>
#include <thread>

namespace agoraeo::netsvc {

namespace {

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

bool IsRefusedErrno(int err) {
  return err == ECONNREFUSED || err == ECONNRESET || err == EPIPE ||
         err == ENETUNREACH || err == EHOSTUNREACH;
}

/// Non-blocking connect bounded by `timeout_ms`.  Distinguishes the two
/// interesting failures: nobody listening (refused) vs nobody answering
/// (timeout).
Status ConnectWithTimeout(int fd, const sockaddr_in& addr, int timeout_ms,
                          HttpErrorKind* kind) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  if (rc < 0 && errno != EINPROGRESS) {
    *kind = IsRefusedErrno(errno) ? HttpErrorKind::kRefused
                                  : HttpErrorKind::kOther;
    return Status::IOError(std::string("connect: ") + std::strerror(errno));
  }
  if (rc < 0) {
    pollfd pfd{fd, POLLOUT, 0};
    do {
      rc = ::poll(&pfd, 1, timeout_ms);
    } while (rc < 0 && errno == EINTR);
    if (rc == 0) {
      *kind = HttpErrorKind::kConnectTimeout;
      return Status::IOError("connect timed out after " +
                             std::to_string(timeout_ms) + " ms");
    }
    if (rc < 0) {
      *kind = HttpErrorKind::kOther;
      return Status::IOError(std::string("poll: ") + std::strerror(errno));
    }
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      *kind = IsRefusedErrno(err) ? HttpErrorKind::kRefused
                                  : HttpErrorKind::kOther;
      return Status::IOError(std::string("connect: ") + std::strerror(err));
    }
  }
  ::fcntl(fd, F_SETFL, flags);  // back to blocking for send/recv
  return Status::OK();
}

/// Deterministic per-(request, attempt) jitter fraction in [0.5, 1.0) —
/// a splitmix64 scramble instead of shared RNG state, so concurrent
/// requests need no lock and tests are reproducible.
double JitterFraction(uint64_t salt, int attempt) {
  uint64_t x = salt + 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(attempt + 1);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return 0.5 + 0.5 * (static_cast<double>(x >> 11) / 9007199254740992.0);
}

}  // namespace

const char* HttpErrorKindName(HttpErrorKind kind) {
  switch (kind) {
    case HttpErrorKind::kNone: return "none";
    case HttpErrorKind::kConnectTimeout: return "connect_timeout";
    case HttpErrorKind::kReadTimeout: return "read_timeout";
    case HttpErrorKind::kRefused: return "refused";
    case HttpErrorKind::kMalformed: return "malformed";
    case HttpErrorKind::kOther: return "other";
  }
  return "other";
}

/// One request's progress through a scatter: its wire bytes, the
/// connection it is on, the response bytes so far and its outcome.
struct HttpClient::Exchange {
  std::string host;
  uint16_t port = 0;
  std::string key;  ///< idle-pool key, "host:port"
  std::string method;
  std::string wire;
  uint64_t jitter_salt = 0;

  int fd = -1;
  bool reused = false;  ///< the connection came from the idle pool
  std::string buffer;
  size_t head_end = std::string::npos;
  HttpResponse response;  ///< head parsed once head_end is known
  bool has_length = false;
  size_t content_length = 0;

  int attempts = 0;
  bool done = false;  ///< succeeded, or failed in a way not retried
  HttpErrorKind kind = HttpErrorKind::kOther;
  StatusOr<HttpResponse> result = Status::IOError("no attempt made");

  void Fail(HttpErrorKind error_kind, Status status) {
    if (fd >= 0) ::close(fd);
    fd = -1;
    kind = error_kind;
    result = std::move(status);
  }
};

HttpClient::~HttpClient() {
  for (auto& [key, fds] : idle_) {
    for (int fd : fds) ::close(fd);
  }
}

int HttpClient::TakeIdle(const std::string& key) const {
  std::lock_guard<std::mutex> lock(pool_mu_);
  auto it = idle_.find(key);
  while (it != idle_.end() && !it->second.empty()) {
    const int fd = it->second.back();
    it->second.pop_back();
    // An idle connection has nothing to read: readable means the peer
    // closed it (or sent stray bytes), so it cannot carry a request.
    pollfd pfd{fd, POLLIN | POLLRDHUP, 0};
    if (::poll(&pfd, 1, 0) == 0) return fd;
    ::close(fd);
  }
  return -1;
}

void HttpClient::ReturnIdle(const std::string& key, int fd) const {
  // Bounds the sockets one peer can hold open for this client; the
  // pool never needs more than the peak of concurrent requests.
  constexpr size_t kMaxIdlePerPeer = 16;
  std::lock_guard<std::mutex> lock(pool_mu_);
  std::vector<int>& fds = idle_[key];
  if (fds.size() >= kMaxIdlePerPeer) {
    ::close(fd);
    return;
  }
  fds.push_back(fd);
}

void HttpClient::Open(Exchange* x) const {
  x->buffer.clear();
  x->head_end = std::string::npos;
  x->has_length = false;
  x->fd = x->reused ? -1 : TakeIdle(x->key);
  if (x->fd >= 0) {
    if (SendAll(x->fd, x->wire).ok()) {
      x->reused = true;
      return;
    }
    ::close(x->fd);  // a stale pooled connection: dial afresh
  }
  x->reused = false;
  x->fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (x->fd < 0) {
    x->Fail(HttpErrorKind::kOther,
            Status::IOError(std::string("socket: ") + std::strerror(errno)));
    return;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(x->port);
  if (::inet_pton(AF_INET, x->host.c_str(), &addr.sin_addr) != 1) {
    x->Fail(HttpErrorKind::kOther,
            Status::InvalidArgument("bad host address: " + x->host));
    return;
  }
  HttpErrorKind kind = HttpErrorKind::kOther;
  Status connected =
      ConnectWithTimeout(x->fd, addr, options_.connect_timeout_ms, &kind);
  if (!connected.ok()) {
    x->Fail(kind, std::move(connected));
    return;
  }
  connections_opened_.fetch_add(1, std::memory_order_relaxed);
  timeval tv{};
  tv.tv_sec = options_.read_timeout_ms / 1000;
  tv.tv_usec = (options_.read_timeout_ms % 1000) * 1000;
  ::setsockopt(x->fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  const int one = 1;
  ::setsockopt(x->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  Status sent = SendAll(x->fd, x->wire);
  if (!sent.ok()) {
    const bool timed_out = errno == EAGAIN || errno == EWOULDBLOCK;
    x->Fail(timed_out ? HttpErrorKind::kReadTimeout : HttpErrorKind::kRefused,
            std::move(sent));
  }
}

void HttpClient::Gather(std::vector<Exchange*>& open) const {
  // Consumes newly read bytes; true once the response is complete
  // (its result set), or on a framing error (its failure set).
  const auto consume = [](Exchange* x) {
    if (x->head_end == std::string::npos) {
      x->head_end = x->buffer.find("\r\n\r\n");
      if (x->head_end == std::string::npos) return false;
      auto head = ParseResponseHead(x->buffer.substr(0, x->head_end));
      if (!head.ok()) {
        x->Fail(HttpErrorKind::kMalformed, head.status());
        return true;
      }
      x->response = *std::move(head);
      const auto it = x->response.headers.find("content-length");
      x->has_length = it != x->response.headers.end();
      if (x->has_length) {
        x->content_length = static_cast<size_t>(
            std::strtoull(it->second.c_str(), nullptr, 10));
      }
    }
    return x->has_length &&
           x->buffer.size() - (x->head_end + 4) >= x->content_length;
  };
  // A complete response: its result, and its connection back to the
  // pool unless the peer said it will close it.
  const auto finish = [this](Exchange* x) {
    const size_t body_begin = x->head_end + 4;
    const size_t body_size =
        x->has_length ? x->content_length : x->buffer.size() - body_begin;
    const auto conn = x->response.headers.find("connection");
    const bool reusable =
        x->fd >= 0 && x->has_length &&
        x->buffer.size() == body_begin + body_size &&
        x->buffer.compare(0, 8, "HTTP/1.1") == 0 &&
        (conn == x->response.headers.end() || conn->second != "close");
    x->buffer.resize(body_begin + body_size);
    x->buffer.erase(0, body_begin);
    x->response.body = std::move(x->buffer);
    if (reusable) {
      ReturnIdle(x->key, x->fd);
    } else if (x->fd >= 0) {
      ::close(x->fd);
    }
    x->fd = -1;
    x->kind = HttpErrorKind::kNone;
    x->result = std::move(x->response);
  };

  std::vector<pollfd> pfds;
  char chunk[16384];
  while (!open.empty()) {
    pfds.clear();
    for (const Exchange* x : open) pfds.push_back({x->fd, POLLIN, 0});
    const int rc = ::poll(pfds.data(), pfds.size(), options_.read_timeout_ms);
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) {
      const std::string message =
          rc == 0 ? "recv timed out after " +
                        std::to_string(options_.read_timeout_ms) + " ms"
                  : std::string("poll: ") + std::strerror(errno);
      for (Exchange* x : open) {
        x->Fail(rc == 0 ? HttpErrorKind::kReadTimeout : HttpErrorKind::kOther,
                Status::IOError(message));
      }
      return;
    }
    std::vector<Exchange*> still_open;
    for (size_t i = 0; i < open.size(); ++i) {
      Exchange* x = open[i];
      if (pfds[i].revents == 0) {
        still_open.push_back(x);
        continue;
      }
      const ssize_t n = ::recv(x->fd, chunk, sizeof(chunk), 0);
      if (n > 0) {
        x->buffer.append(chunk, static_cast<size_t>(n));
        if (consume(x)) {
          if (x->fd >= 0) finish(x);
        } else {
          still_open.push_back(x);
        }
        continue;
      }
      if (n < 0 && errno == EINTR) {
        still_open.push_back(x);
        continue;
      }
      const int err = errno;
      if (x->reused && x->buffer.empty()) {
        // The peer closed a pooled connection before answering on it:
        // the request never ran there, so replay it once on a fresh one.
        ::close(x->fd);
        Open(x);
        if (x->fd >= 0) still_open.push_back(x);
        continue;
      }
      if (n == 0 && x->head_end != std::string::npos && !x->has_length) {
        finish(x);  // a response delimited by the peer's close
      } else if (n == 0) {
        x->Fail(HttpErrorKind::kMalformed,
                Status::IOError(x->head_end == std::string::npos
                                    ? "no complete HTTP response head received"
                                    : "response body shorter than "
                                      "content-length"));
      } else {
        x->Fail(HttpErrorKind::kRefused,
                Status::IOError(std::string("recv: ") + std::strerror(err)));
      }
    }
    open.swap(still_open);
  }
}

std::vector<StatusOr<HttpResponse>> HttpClient::RequestAll(
    const std::vector<HttpCall>& calls,
    std::vector<HttpRequestDetail>* details) const {
  const obs::HttpClientMetrics* metrics = options_.metrics;
  std::vector<Exchange> exchanges(calls.size());
  for (size_t i = 0; i < calls.size(); ++i) {
    const HttpCall& call = calls[i];
    if (metrics != nullptr && metrics->requests != nullptr) {
      metrics->requests->Increment();
    }
    Exchange& x = exchanges[i];
    x.host = call.host.empty() ? host_ : call.host;
    x.port = call.port;
    x.key = x.host + ":" + std::to_string(call.port);
    x.method = call.method;
    HttpRequest req;
    req.method = call.method;
    const size_t qmark = call.target.find('?');
    req.path = call.target.substr(0, qmark);
    if (qmark != std::string::npos) req.query = call.target.substr(qmark + 1);
    req.body = call.body;
    if (!call.body.empty()) req.headers["content-type"] = call.content_type;
    for (const auto& [name, value] : call.headers) req.headers[name] = value;
    x.wire = SerializeRequest(req, x.key);
    x.jitter_salt = std::hash<std::string>{}(call.target) ^
                    (static_cast<uint64_t>(call.port) << 17);
  }

  std::vector<Exchange*> round;
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    round.clear();
    for (Exchange& x : exchanges) {
      if (!x.done) round.push_back(&x);
    }
    if (round.empty()) break;
    if (attempt > 0) {
      const int base = std::min(options_.backoff_max_ms,
                                options_.backoff_base_ms << (attempt - 1));
      int sleep_ms = 1;
      for (const Exchange* x : round) {
        retries_.fetch_add(1);
        if (metrics != nullptr && metrics->retries != nullptr) {
          metrics->retries->Increment();
        }
        sleep_ms = std::max(sleep_ms,
                            static_cast<int>(base * JitterFraction(
                                                        x->jitter_salt,
                                                        attempt)));
      }
      if (metrics != nullptr && metrics->backoff_sleeps != nullptr) {
        metrics->backoff_sleeps->Increment();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    }
    std::vector<Exchange*> open;
    for (Exchange* x : round) {
      ++x->attempts;
      x->reused = false;
      Open(x);
      if (x->fd >= 0) open.push_back(x);
    }
    Gather(open);
    for (Exchange* x : round) {
      // Connection-phase failures never reached the server, so any
      // method can retry them; read-phase failures may have executed
      // server-side and only idempotent GETs retry.
      const bool retryable =
          x->kind == HttpErrorKind::kRefused ||
          x->kind == HttpErrorKind::kConnectTimeout ||
          (x->method == "GET" && (x->kind == HttpErrorKind::kReadTimeout ||
                                  x->kind == HttpErrorKind::kMalformed));
      x->done = x->result.ok() || !retryable;
    }
  }

  std::vector<StatusOr<HttpResponse>> results;
  results.reserve(exchanges.size());
  if (details != nullptr) details->assign(exchanges.size(), {});
  for (size_t i = 0; i < exchanges.size(); ++i) {
    Exchange& x = exchanges[i];
    if (details != nullptr) {
      (*details)[i].error_kind = x.kind;
      (*details)[i].attempts = x.attempts;
    }
    if (x.result.ok()) {
      results.push_back(std::move(x.result));
      continue;
    }
    if (metrics != nullptr) {
      if (metrics->failures != nullptr) metrics->failures->Increment();
      const int kind_index = static_cast<int>(x.kind);
      if (kind_index >= 0 &&
          kind_index < obs::HttpClientMetrics::kNumErrorKinds &&
          metrics->errors_by_kind[kind_index] != nullptr) {
        metrics->errors_by_kind[kind_index]->Increment();
      }
    }
    results.push_back(Status::IOError(std::string(HttpErrorKindName(x.kind)) +
                                      ": " +
                                      std::string(x.result.status().message())));
  }
  return results;
}

StatusOr<HttpResponse> HttpClient::Request(const HttpCall& call,
                                           HttpRequestDetail* detail) const {
  std::vector<HttpRequestDetail> details;
  std::vector<StatusOr<HttpResponse>> results = RequestAll({call}, &details);
  if (detail != nullptr) *detail = details[0];
  return std::move(results[0]);
}

}  // namespace agoraeo::netsvc
