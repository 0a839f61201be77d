/// Tests for the netsvc module: HTTP framing, URL utilities, the
/// loopback server/client pair, and the EarthQube JSON service — the
/// paper's three-tier architecture exercised end to end over real TCP.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <optional>
#include <set>
#include <memory>
#include <thread>

#include "cbir_test_util.h"
#include "metrics_test_util.h"
#include "bigearthnet/archive_generator.h"
#include "bigearthnet/feature_extractor.h"
#include "common/simd/hamming_kernels.h"
#include "earthqube/earthqube.h"
#include "earthqube/exec/execution_engine.h"
#include "earthqube/zip_writer.h"
#include "json/json.h"
#include "milan/trainer.h"
#include "netsvc/client.h"
#include "netsvc/earthqube_service.h"
#include "netsvc/http.h"
#include "netsvc/server.h"
#include "obs/metrics.h"

namespace agoraeo::netsvc {
namespace {

using docstore::Document;
using docstore::Value;

// --- HTTP framing ------------------------------------------------------------

TEST(HttpTest, ParseRequestHead) {
  auto req = ParseRequestHead(
      "POST /api/v2/query?debug=1 HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "Content-Type: application/json\r\n"
      "Content-Length: 2");
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req->method, "POST");
  EXPECT_EQ(req->path, "/api/v2/query");
  EXPECT_EQ(req->query, "debug=1");
  EXPECT_EQ(req->Header("content-type"), "application/json");
  EXPECT_EQ(req->Header("host"), "localhost");
  EXPECT_EQ(req->Header("absent"), "");
}

TEST(HttpTest, ParseRequestHeadRejectsMalformed) {
  EXPECT_FALSE(ParseRequestHead("").ok());
  EXPECT_FALSE(ParseRequestHead("GET /x").ok());
  EXPECT_FALSE(ParseRequestHead("GET /x SMTP/1.0").ok());
  EXPECT_FALSE(ParseRequestHead("GET /x HTTP/1.1\r\nbadheader").ok());
}

TEST(HttpTest, SerializeParseRoundTrip) {
  HttpRequest req;
  req.method = "POST";
  req.path = "/api/echo";
  req.body = "{\"x\":1}";
  req.headers["content-type"] = "application/json";
  const std::string wire = SerializeRequest(req, "127.0.0.1:80");
  const size_t head_end = wire.find("\r\n\r\n");
  ASSERT_NE(head_end, std::string::npos);
  auto back = ParseRequestHead(wire.substr(0, head_end));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->method, "POST");
  EXPECT_EQ(back->path, "/api/echo");
  EXPECT_EQ(back->Header("content-length"), "7");
  EXPECT_EQ(wire.substr(head_end + 4), req.body);
}

TEST(HttpTest, ParseResponseHead) {
  auto resp = ParseResponseHead(
      "HTTP/1.1 404 Not Found\r\ncontent-type: application/json");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status_code, 404);
  EXPECT_EQ(resp->reason, "Not Found");
  EXPECT_FALSE(ParseResponseHead("FTP/1.1 200 OK").ok());
  EXPECT_FALSE(ParseResponseHead("HTTP/1.1 999999 X").ok());
}

TEST(HttpTest, UrlCoding) {
  EXPECT_EQ(UrlEncode("a b/c"), "a%20b%2Fc");
  EXPECT_EQ(*UrlDecode("a%20b%2Fc"), "a b/c");
  EXPECT_EQ(*UrlDecode("x+y"), "x y");
  EXPECT_FALSE(UrlDecode("bad%2").ok());
  EXPECT_FALSE(UrlDecode("bad%zz").ok());
  // Round trip over awkward characters.
  const std::string nasty = "S2A_MSIL2A 2017/08#1?a=b&c";
  EXPECT_EQ(*UrlDecode(UrlEncode(nasty)), nasty);
}

TEST(HttpTest, ParseQueryString) {
  auto q = ParseQueryString("a=1&b=x%20y&flag");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->at("a"), "1");
  EXPECT_EQ(q->at("b"), "x y");
  EXPECT_EQ(q->at("flag"), "");
}

// --- server + client over loopback ------------------------------------------

TEST(ServerTest, RoutesAndStatusCodes) {
  HttpServer server(2);
  server.Route("GET", "/ping", [](const HttpRequest&) {
    return HttpResponse::Text(200, "pong");
  });
  server.Route("POST", "/echo", [](const HttpRequest& req) {
    return HttpResponse::Json(200, req.body);
  });
  server.Route("GET", "/things/*", [](const HttpRequest& req) {
    return HttpResponse::Text(200, "thing:" + req.path.substr(8));
  });
  ASSERT_TRUE(server.Start(0).ok());
  ASSERT_GT(server.port(), 0);

  HttpClient client;
  auto pong = client.Get(server.port(), "/ping");
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->status_code, 200);
  EXPECT_EQ(pong->body, "pong");

  auto echo = client.Post(server.port(), "/echo", "{\"k\":[1,2]}");
  ASSERT_TRUE(echo.ok());
  EXPECT_EQ(echo->body, "{\"k\":[1,2]}");

  auto thing = client.Get(server.port(), "/things/42");
  ASSERT_TRUE(thing.ok());
  EXPECT_EQ(thing->body, "thing:42");

  auto missing = client.Get(server.port(), "/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status_code, 404);

  auto wrong_method = client.Post(server.port(), "/ping", "{}");
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(wrong_method->status_code, 405);

  EXPECT_EQ(server.requests_served(), 5u);
  server.Stop();
  EXPECT_FALSE(server.is_running());
}

TEST(ServerTest, ConcurrentClients) {
  HttpServer server(4);
  std::atomic<int> handled{0};
  server.Route("POST", "/work", [&handled](const HttpRequest& req) {
    ++handled;
    return HttpResponse::Text(200, req.body);
  });
  ASSERT_TRUE(server.Start(0).ok());

  constexpr int kThreads = 8;
  constexpr int kPerThread = 5;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      HttpClient client;
      for (int i = 0; i < kPerThread; ++i) {
        const std::string body =
            "t" + std::to_string(t) + "_" + std::to_string(i);
        auto resp = client.Post(server.port(), "/work", body);
        if (resp.ok() && resp->status_code == 200 && resp->body == body) {
          ++ok_count;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok_count.load(), kThreads * kPerThread);
  EXPECT_EQ(handled.load(), kThreads * kPerThread);
  server.Stop();
}

TEST(ServerTest, StopIsIdempotentAndRestartable) {
  HttpServer server;
  server.Route("GET", "/x", [](const HttpRequest&) {
    return HttpResponse::Text(200, "x");
  });
  ASSERT_TRUE(server.Start(0).ok());
  const uint16_t port = server.port();
  server.Stop();
  server.Stop();
  // A fresh server can bind a fresh port immediately.
  HttpServer second;
  second.Route("GET", "/x", [](const HttpRequest&) {
    return HttpResponse::Text(200, "x");
  });
  ASSERT_TRUE(second.Start(0).ok());
  EXPECT_NE(second.port(), 0);
  (void)port;
  second.Stop();
}

// --- client robustness --------------------------------------------------------

/// Binds an ephemeral port and immediately releases it: a port that is
/// almost certainly closed, so connects are refused rather than hang.
uint16_t ClosedPort() {
  HttpServer probe(1);
  EXPECT_TRUE(probe.Start(0).ok());
  const uint16_t port = probe.port();
  probe.Stop();
  return port;
}

TEST(ClientTest, RefusedConnectionIsTypedAndRetried) {
  HttpClientOptions options;
  options.max_retries = 2;
  options.backoff_base_ms = 1;
  options.backoff_max_ms = 2;
  HttpClient client("127.0.0.1", options);
  HttpRequestDetail detail;
  auto resp = client.Request(
      {.port = ClosedPort(), .target = "/x", .body = "{}"}, &detail);
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(detail.error_kind, HttpErrorKind::kRefused);
  // Connection-phase failures retry even for POST: first try + 2 retries.
  EXPECT_EQ(detail.attempts, 3);
  EXPECT_EQ(client.retries_attempted(), 2u);
  // The typed kind leads the Status message.
  EXPECT_NE(resp.status().message().find("refused"), std::string::npos)
      << resp.status().message();
}

TEST(ClientTest, ZeroRetriesFailsFast) {
  HttpClientOptions options;
  options.max_retries = 0;
  HttpClient client("127.0.0.1", options);
  HttpRequestDetail detail;
  auto resp = client.Request(
      {.port = ClosedPort(), .method = "GET", .target = "/x"}, &detail);
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(detail.attempts, 1);
  EXPECT_EQ(client.retries_attempted(), 0u);
}

TEST(ClientTest, SilentServerIsAReadTimeout) {
  // A listener that accepts but never answers.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 8), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const uint16_t port = ntohs(addr.sin_port);

  HttpClientOptions options;
  options.read_timeout_ms = 100;
  options.max_retries = 0;
  HttpClient client("127.0.0.1", options);
  HttpRequestDetail detail;
  auto resp = client.Request(
      {.port = port, .method = "GET", .target = "/slow"}, &detail);
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(detail.error_kind, HttpErrorKind::kReadTimeout);
  EXPECT_NE(resp.status().message().find("read_timeout"), std::string::npos)
      << resp.status().message();
  ::close(listener);
}

TEST(ClientTest, GarbageResponseIsMalformedAndNotRetriedForPost) {
  // A listener that answers every connection with non-HTTP bytes.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 8), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const uint16_t port = ntohs(addr.sin_port);
  std::atomic<bool> stop{false};
  std::thread garbler([listener, &stop] {
    while (!stop.load()) {
      const int conn = ::accept(listener, nullptr, nullptr);
      if (conn < 0) break;
      char buf[512];
      (void)::recv(conn, buf, sizeof(buf), 0);
      const char kJunk[] = "NOT/HTTP definitely\r\n\r\n";
      (void)::send(conn, kJunk, sizeof(kJunk) - 1, 0);
      ::close(conn);
    }
  });

  HttpClientOptions options;
  options.max_retries = 3;
  options.backoff_base_ms = 1;
  HttpClient client("127.0.0.1", options);
  HttpRequestDetail detail;
  auto resp = client.Request(
      {.port = port, .target = "/x", .body = "{}"}, &detail);
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(detail.error_kind, HttpErrorKind::kMalformed);
  // A POST may have executed server-side: read-phase failures must NOT
  // be replayed for non-idempotent methods.
  EXPECT_EQ(detail.attempts, 1);

  stop = true;
  ::shutdown(listener, SHUT_RDWR);
  ::close(listener);
  garbler.join();
}

// --- keep-alive ----------------------------------------------------------------

/// A raw loopback TCP connection to `port` (the tests' stand-in for a
/// client that is not HttpClient).
int DialRaw(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

/// Reads until the peer closes (or `timeout_ms` passes without a byte).
std::string ReadToEof(int fd, int timeout_ms = 2000) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::string out;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  return out;
}

/// Counts occurrences of `needle` in `haystack`.
size_t CountOf(const std::string& haystack, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + 1)) {
    ++count;
  }
  return count;
}

TEST(KeepAliveTest, SequentialRequestsShareOneConnection) {
  HttpServer server(2);
  server.Route("POST", "/echo", [](const HttpRequest& req) {
    return HttpResponse::Json(200, req.body);
  });
  ASSERT_TRUE(server.Start(0).ok());
  HttpClient client;
  constexpr int kRequests = 25;
  for (int i = 0; i < kRequests; ++i) {
    const std::string body = "{\"i\":" + std::to_string(i) + "}";
    auto resp = client.Post(server.port(), "/echo", body);
    ASSERT_TRUE(resp.ok()) << resp.status().message();
    EXPECT_EQ(resp->body, body);
    EXPECT_EQ(resp->headers.count("connection"), 0u);
  }
  EXPECT_EQ(server.requests_served(), static_cast<size_t>(kRequests));
  EXPECT_EQ(server.connections_accepted(), 1u);
  EXPECT_EQ(client.connections_opened(), 1u);
  server.Stop();
}

TEST(KeepAliveTest, ScatterReusesOneConnectionPerPeer) {
  std::vector<std::unique_ptr<HttpServer>> servers;
  std::vector<HttpCall> calls;
  for (int i = 0; i < 3; ++i) {
    servers.push_back(std::make_unique<HttpServer>(2));
    servers.back()->Route("POST", "/who", [i](const HttpRequest& req) {
      return HttpResponse::Text(200, std::to_string(i) + ":" + req.body);
    });
    ASSERT_TRUE(servers.back()->Start(0).ok());
    HttpCall call;
    call.port = servers.back()->port();
    call.target = "/who";
    call.body = "b" + std::to_string(i);
    calls.push_back(call);
  }
  HttpClient client;
  for (int round = 0; round < 5; ++round) {
    std::vector<HttpRequestDetail> details;
    const auto results = client.RequestAll(calls, &details);
    ASSERT_EQ(results.size(), 3u);
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(results[i].ok()) << results[i].status().message();
      EXPECT_EQ(results[i]->body,
                std::to_string(i) + ":b" + std::to_string(i));
      EXPECT_EQ(details[i].attempts, 1);
    }
  }
  for (const auto& server : servers) {
    EXPECT_EQ(server->connections_accepted(), 1u);
    server->Stop();
  }
  EXPECT_EQ(client.connections_opened(), 3u);
}

TEST(KeepAliveTest, RestartedServerIsReachedOnAFreshConnection) {
  HttpServer server(2);
  server.Route("POST", "/x", [](const HttpRequest& req) {
    return HttpResponse::Text(200, req.body);
  });
  ASSERT_TRUE(server.Start(0).ok());
  const uint16_t port = server.port();
  HttpClient client;
  ASSERT_TRUE(client.Post(port, "/x", "one").ok());
  // Stop() closes the client's pooled connection; the restarted server
  // listens on the same port.
  server.Stop();
  ASSERT_TRUE(server.Start(port).ok());
  HttpRequestDetail detail;
  auto resp = client.Request(
      {.port = port,
       .target = "/x",
       .body = "two",
       .content_type = "text/plain"},
      &detail);
  ASSERT_TRUE(resp.ok()) << resp.status().message();
  EXPECT_EQ(resp->body, "two");
  EXPECT_EQ(detail.attempts, 1);
  EXPECT_EQ(client.retries_attempted(), 0u);
  EXPECT_EQ(client.connections_opened(), 2u);
  server.Stop();
}

TEST(KeepAliveTest, PeerClosingAPooledConnectionMidRequestIsRetriedOnce) {
  // A listener that answers the first request on each connection with a
  // kept-alive response and then closes the connection when the next
  // request arrives, without answering it — a server that closed an
  // idle connection just as the client reused it.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 8), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const uint16_t port = ntohs(addr.sin_port);
  std::atomic<int> accepted{0};
  std::atomic<int> answered{0};
  std::thread peer([listener, &accepted, &answered] {
    std::vector<std::thread> conns;
    while (true) {
      const int conn = ::accept(listener, nullptr, nullptr);
      if (conn < 0) break;
      ++accepted;
      conns.emplace_back([conn, &answered] {
        char buf[4096];
        if (::recv(conn, buf, sizeof(buf), 0) > 0) {
          const std::string reply =
              "HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok";
          ++answered;  // before the client can see the answer
          (void)::send(conn, reply.data(), reply.size(), MSG_NOSIGNAL);
          (void)::recv(conn, buf, sizeof(buf), 0);  // the reused request
        }
        ::close(conn);
      });
    }
    for (auto& t : conns) t.join();
  });

  {
    HttpClientOptions options;
    options.max_retries = 0;  // the stale-connection replay is no retry
    HttpClient client("127.0.0.1", options);
    for (int i = 0; i < 3; ++i) {
      HttpRequestDetail detail;
      auto resp = client.Request(
          {.port = port, .target = "/x", .body = "{}"}, &detail);
      // EXPECT, not ASSERT: an early return would leave the peer
      // thread blocked on this client's pooled connection.
      EXPECT_TRUE(resp.ok()) << i << ": " << resp.status().message();
      if (resp.ok()) {
        EXPECT_EQ(resp->body, "ok");
      }
      EXPECT_EQ(detail.attempts, 1);
    }
    // Requests 2 and 3 each failed on the pooled connection and were
    // replayed on a fresh one: three connections, three answers.
    EXPECT_EQ(accepted.load(), 3);
    EXPECT_EQ(answered.load(), 3);
    EXPECT_EQ(client.retries_attempted(), 0u);
  }  // closes the last pooled connection, ending its peer thread

  ::shutdown(listener, SHUT_RDWR);
  ::close(listener);
  peer.join();
}

TEST(KeepAliveTest, ConnectionCloseAndHttp10GetOneResponseThenEof) {
  HttpServer server(2);
  server.Route("GET", "/x", [](const HttpRequest&) {
    return HttpResponse::Text(200, "x");
  });
  ASSERT_TRUE(server.Start(0).ok());
  for (const std::string& request :
       {std::string("GET /x HTTP/1.1\r\nhost: a\r\nconnection: close\r\n\r\n"),
        std::string("GET /x HTTP/1.0\r\nhost: a\r\n\r\n")}) {
    const int fd = DialRaw(server.port());
    ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    const std::string reply = ReadToEof(fd);
    EXPECT_EQ(CountOf(reply, "HTTP/1.1 200"), 1u) << reply;
    EXPECT_NE(reply.find("connection: close\r\n"), std::string::npos) << reply;
    EXPECT_EQ(reply.substr(reply.size() - 3), "\r\nx") << reply;
    ::close(fd);
  }
  // A kept-alive connection answers pipelined requests in order.
  const int fd = DialRaw(server.port());
  const std::string two =
      "GET /x HTTP/1.1\r\nhost: a\r\n\r\n"
      "GET /x HTTP/1.1\r\nhost: a\r\nconnection: close\r\n\r\n";
  ASSERT_EQ(::send(fd, two.data(), two.size(), 0),
            static_cast<ssize_t>(two.size()));
  const std::string replies = ReadToEof(fd);
  EXPECT_EQ(CountOf(replies, "HTTP/1.1 200"), 2u) << replies;
  EXPECT_EQ(CountOf(replies, "connection: close"), 1u) << replies;
  ::close(fd);
  server.Stop();
}

TEST(KeepAliveTest, StopClosesParkedIdleConnectionsPromptly) {
  HttpServer server(2);
  server.Route("GET", "/x", [](const HttpRequest&) {
    return HttpResponse::Text(200, "x");
  });
  ASSERT_TRUE(server.Start(0).ok());
  // Eight connections, each answered once and now parked idle.
  std::vector<int> fds;
  const std::string request = "GET /x HTTP/1.1\r\nhost: a\r\n\r\n";
  for (int i = 0; i < 8; ++i) {
    fds.push_back(DialRaw(server.port()));
    ASSERT_EQ(::send(fds.back(), request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    char buf[256];
    ASSERT_GT(::recv(fds.back(), buf, sizeof(buf), 0), 0);
  }
  EXPECT_EQ(server.connections_accepted(), 8u);
  const auto start = std::chrono::steady_clock::now();
  server.Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(1000));
  // Every parked connection was closed by the server.
  for (int fd : fds) {
    EXPECT_EQ(ReadToEof(fd, 1000), "");
    ::close(fd);
  }
}

TEST(KeepAliveTest, StopWaitsOutADeferredResponderAndThenCloses) {
  HttpServer server(2);
  std::mutex mu;
  std::condition_variable cv;
  std::optional<HttpServer::Responder> parked;
  server.RouteAsync("GET", "/slow",
                    [&](const HttpRequest&, HttpServer::Responder responder) {
                      std::lock_guard<std::mutex> lock(mu);
                      parked = responder;
                      cv.notify_all();
                    });
  ASSERT_TRUE(server.Start(0).ok());
  HttpClient client;
  StatusOr<HttpResponse> answer = Status::Internal("not answered");
  std::thread caller([&] { answer = client.Get(server.port(), "/slow"); });
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return parked.has_value(); }));
  }
  // Complete the parked response while Stop() is waiting for it.
  std::thread completer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::lock_guard<std::mutex> lock(mu);
    parked->Send(HttpResponse::Text(200, "late"));
    parked.reset();
  });
  const auto start = std::chrono::steady_clock::now();
  server.Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(2000));
  completer.join();
  caller.join();
  ASSERT_TRUE(answer.ok()) << answer.status().message();
  EXPECT_EQ(answer->body, "late");
  // A response sent while stopping tells the client the connection ends.
  EXPECT_EQ(answer->headers["connection"], "close");
}

// --- EarthQube service over the wire ------------------------------------------

class ServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bigearthnet::ArchiveConfig config;
    config.num_patches = 800;
    config.seed = 77;
    generator_ = new bigearthnet::ArchiveGenerator(config);
    auto archive = generator_->Generate();
    ASSERT_TRUE(archive.ok());
    archive_ = new bigearthnet::Archive(std::move(archive).value());

    earthqube::EarthQubeConfig system_config;
    // Generous negative TTL: the wire test below asserts repeat 404s
    // hit the negative cache, and sanitizer runs can stretch three
    // round trips past the 2 s default.
    system_config.cache.negative_ttl = std::chrono::minutes(5);
    system_ = new earthqube::EarthQube(system_config);
    ASSERT_TRUE(system_->IngestArchive(*archive_).ok());

    // Small trained model so the similarity endpoint works.
    bigearthnet::FeatureExtractor extractor;
    Tensor features = extractor.ExtractArchive(*archive_, *generator_, 2);
    milan::MilanConfig mconfig;
    mconfig.feature_dim = bigearthnet::kFeatureDim;
    mconfig.hidden1 = 64;
    mconfig.hidden2 = 32;
    mconfig.hash_bits = 32;
    mconfig.dropout = 0.0f;
    auto model = std::make_unique<milan::MilanModel>(mconfig);
    std::vector<bigearthnet::LabelSet> labels;
    for (const auto& p : archive_->patches) labels.push_back(p.labels);
    milan::TripletSampler sampler(labels);
    milan::TrainConfig tconfig;
    tconfig.epochs = 2;
    tconfig.batches_per_epoch = 10;
    tconfig.batch_size = 16;
    milan::Trainer trainer(model.get(), &features, &sampler, tconfig);
    ASSERT_TRUE(trainer.Train().ok());
    cbir_extractor_ = new bigearthnet::FeatureExtractor();
    auto cbir = std::make_unique<earthqube::CbirService>(std::move(model),
                                                         cbir_extractor_);
    std::vector<std::string> names;
    for (const auto& p : archive_->patches) names.push_back(p.name);
    ASSERT_TRUE(cbir->AddImages(names, features).ok());
    system_->AttachCbir(std::move(cbir));

    service_ = new EarthQubeService(system_);
    server_ = new HttpServer(2);
    service_->RegisterRoutes(server_);
    ASSERT_TRUE(server_->Start(0).ok());
  }

  static void TearDownTestSuite() {
    server_->Stop();
    delete server_;
    delete service_;
    delete system_;  // owns the CbirService that references the extractor
    delete cbir_extractor_;
    delete archive_;
    delete generator_;
  }

  static bigearthnet::ArchiveGenerator* generator_;
  static bigearthnet::Archive* archive_;
  static bigearthnet::FeatureExtractor* cbir_extractor_;
  static earthqube::EarthQube* system_;
  static EarthQubeService* service_;
  static HttpServer* server_;
};

bigearthnet::ArchiveGenerator* ServiceTest::generator_ = nullptr;
bigearthnet::Archive* ServiceTest::archive_ = nullptr;
bigearthnet::FeatureExtractor* ServiceTest::cbir_extractor_ = nullptr;
earthqube::EarthQube* ServiceTest::system_ = nullptr;
EarthQubeService* ServiceTest::service_ = nullptr;
HttpServer* ServiceTest::server_ = nullptr;

TEST_F(ServiceTest, HealthEndpoint) {
  HttpClient client;
  auto resp = client.Get(server_->port(), "/health");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status_code, 200);
  EXPECT_EQ(resp->body, "{\"status\":\"ok\"}");
}

TEST_F(ServiceTest, SearchByCountryLabelsOverWire) {
  HttpClient client;
  auto resp = client.Post(
      server_->port(), "/api/v2/query",
      R"({"panel":{"labels":{"operator":"some","names":["Broad-leaved forest",)"
      R"("Coniferous forest","Mixed forest"]},"limit":25},"page_size":0})");
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->status_code, 200) << resp->body;
  auto body = json::ParseObject(resp->body);
  ASSERT_TRUE(body.ok());
  EXPECT_GT(body->Get("total")->as_int64(), 0);
  EXPECT_LE(body->Get("total")->as_int64(), 25);
  const Value* results = body->Get("results");
  ASSERT_TRUE(results->is_array());
  ASSERT_FALSE(results->as_array().empty());
  // Every result must carry one of the forest labels.
  for (const Value& r : results->as_array()) {
    bool has_forest = false;
    for (const Value& l : r.as_document().Get("labels")->as_array()) {
      if (l.as_string().find("forest") != std::string::npos) {
        has_forest = true;
      }
    }
    EXPECT_TRUE(has_forest) << r.as_document().ToString();
  }
  // The statistics view accompanies the search (Figure 2-4).
  EXPECT_TRUE(body->Get("label_statistics")->is_array());
  EXPECT_FALSE(body->Get("label_statistics")->as_array().empty());
}

TEST_F(ServiceTest, SearchWithDateRangeUsesRangeIndex) {
  HttpClient client;
  auto resp = client.Post(
      server_->port(), "/api/v2/query",
      R"({"panel":{"date_range":{"begin":"2017-08-01","end":"2017-08-31"}},)"
      R"("page_size":0})");
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->status_code, 200) << resp->body;
  auto body = json::ParseObject(resp->body);
  ASSERT_TRUE(body.ok());
  const std::string& plan = body->GetPath("plan.description")->as_string();
  EXPECT_NE(plan.find("range"), std::string::npos) << plan;
}

TEST_F(ServiceTest, SimilarByNameOverWire) {
  HttpClient client;
  const std::string& name = archive_->patches[0].name;
  auto resp = client.Post(server_->port(), "/api/v2/query",
                          R"({"similarity":{"name":")" + name +
                              R"(","k":10},"page_size":0})");
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->status_code, 200) << resp->body;
  auto body = json::ParseObject(resp->body);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body->GetPath("plan.strategy")->as_string(), "cbir_only");
  const auto& results = body->Get("results")->as_array();
  ASSERT_EQ(results.size(), 10u);
  // The service drops the self-match (the UI's "retrieve similar images"
  // button must not return the clicked image itself); every name is
  // distinct and differs from the query, and every joined row carries
  // its Hamming distance.
  std::set<std::string> names;
  for (const Value& r : results) {
    const std::string& n = r.as_document().Get("name")->as_string();
    EXPECT_NE(n, name);
    EXPECT_TRUE(r.as_document().Has("distance"));
    names.insert(n);
  }
  EXPECT_EQ(names.size(), results.size());
}

/// A hits-only, unpaged similarity request: one slot of a batch.
std::string HitsBody(const std::string& name, const std::string& mode) {
  return R"({"similarity":{"name":")" + name + R"(",)" + mode +
         R"(},"projection":"hits","page_size":0})";
}

std::string BatchBody(const std::vector<std::string>& slots) {
  std::string body = R"({"requests":[)";
  for (size_t i = 0; i < slots.size(); ++i) {
    if (i != 0) body += ",";
    body += slots[i];
  }
  return body + "]}";
}

TEST_F(ServiceTest, BatchSearchOverWire) {
  HttpClient client;
  const std::string queries[] = {archive_->patches[0].name,
                                 archive_->patches[5].name};
  auto resp = client.Post(
      server_->port(), "/api/v2/query",
      BatchBody({HitsBody(queries[0], R"("k":8)"),
                 HitsBody(queries[1], R"("k":8)")}));
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->status_code, 200) << resp->body;
  auto body = json::ParseObject(resp->body);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body->Get("batch_size")->as_int64(), 2);
  const auto& responses = body->Get("responses")->as_array();
  ASSERT_EQ(responses.size(), 2u);

  // Each slot must agree with the same request sent on its own.
  for (size_t i = 0; i < 2; ++i) {
    const auto& hits = responses[i].as_document().Get("results")->as_array();
    ASSERT_EQ(hits.size(), 8u);
    auto single = client.Post(server_->port(), "/api/v2/query",
                              HitsBody(queries[i], R"("k":8)"));
    ASSERT_TRUE(single.ok());
    ASSERT_EQ(single->status_code, 200);
    auto single_body = json::ParseObject(single->body);
    ASSERT_TRUE(single_body.ok());
    const auto& single_hits = single_body->Get("results")->as_array();
    ASSERT_EQ(single_hits.size(), hits.size());
    for (size_t j = 0; j < hits.size(); ++j) {
      EXPECT_EQ(hits[j].as_document().Get("name")->as_string(),
                single_hits[j].as_document().Get("name")->as_string())
          << "query " << i << " hit " << j;
    }
    // No slot returns its own query image.
    for (const Value& h : hits) {
      EXPECT_NE(h.as_document().Get("name")->as_string(), queries[i]);
    }
  }
}

TEST_F(ServiceTest, BatchSearchRadiusFlavour) {
  HttpClient client;
  auto resp = client.Post(
      server_->port(), "/api/v2/query",
      BatchBody({HitsBody(archive_->patches[2].name,
                          R"("radius":6,"limit":10)")}));
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->status_code, 200) << resp->body;
  auto body = json::ParseObject(resp->body);
  ASSERT_TRUE(body.ok());
  const auto& responses = body->Get("responses")->as_array();
  ASSERT_EQ(responses.size(), 1u);
  const auto& hits = responses[0].as_document().Get("results")->as_array();
  EXPECT_LE(hits.size(), 10u);
  // Hits arrive in ascending Hamming distance within the radius.
  int64_t last = -1;
  for (const Value& h : hits) {
    const int64_t d = h.as_document().Get("distance")->as_int64();
    EXPECT_LE(d, 6);
    EXPECT_GE(d, last);
    last = d;
  }
}

TEST_F(ServiceTest, BatchSearchRejectsBadBodies) {
  HttpClient client;
  const auto status = [&](const std::string& body) {
    auto resp = client.Post(server_->port(), "/api/v2/query", body);
    return resp.ok() ? resp->status_code : -1;
  };
  EXPECT_EQ(status(R"({"requests":"all"})"), 400);
  EXPECT_EQ(status(R"({"requests":[]})"), 400);
  EXPECT_EQ(status(R"({"requests":[7]})"), 400);
  EXPECT_EQ(status(BatchBody({HitsBody("ghost_patch", R"("k":5)")})), 404);
  // Oversized batches are rejected before touching the engine.
  std::vector<std::string> slots(EarthQubeService::kMaxBatchQueries + 1,
                                 HitsBody(archive_->patches[0].name,
                                          R"("k":1)"));
  EXPECT_EQ(status(BatchBody(slots)), 400);
}

TEST_F(ServiceTest, SimilarByNameUnknownIs404) {
  HttpClient client;
  auto resp = client.Post(
      server_->port(), "/api/v2/query",
      R"({"similarity":{"name":"no_such_patch","k":5},"page_size":0})");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status_code, 404);
}

TEST_F(ServiceTest, FeedbackRoundTrip) {
  HttpClient client;
  const size_t before = system_->NumFeedbackEntries();
  auto resp = client.Post(server_->port(), "/api/feedback",
                          R"({"text":"lovely demo!"})");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status_code, 201);
  auto count = client.Get(server_->port(), "/api/feedback/count");
  ASSERT_TRUE(count.ok());
  auto body = json::ParseObject(count->body);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(static_cast<size_t>(body->Get("count")->as_int64()), before + 1);

  auto empty = client.Post(server_->port(), "/api/feedback", R"({"text":""})");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->status_code, 400);
}

TEST_F(ServiceTest, PatchMetadataByName) {
  HttpClient client;
  const auto& meta = archive_->patches[3];
  auto resp = client.Get(server_->port(),
                         "/api/patch/" + UrlEncode(meta.name));
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->status_code, 200) << resp->body;
  auto body = json::ParseObject(resp->body);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body->Get("name")->as_string(), meta.name);
  EXPECT_EQ(body->Get("country")->as_string(), meta.country);
  EXPECT_EQ(body->Get("labels")->as_array().size(), meta.labels.size());

  auto missing = client.Get(server_->port(), "/api/patch/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status_code, 404);
}

TEST_F(ServiceTest, DownloadCartAsZipOverWire) {
  // Store pixels + preview for two patches, then download them combined
  // — the cart's "download together as a single collection".
  bigearthnet::ArchiveGenerator& gen = *generator_;
  const auto& m0 = archive_->patches[0];
  const auto& m1 = archive_->patches[1];
  bigearthnet::Patch p0 = gen.SynthesizePatch(m0);
  bigearthnet::Patch p1 = gen.SynthesizePatch(m1);
  ASSERT_TRUE(system_->StorePatchPixels(p0).ok());
  ASSERT_TRUE(system_->StoreRenderedImage(p1).ok());

  HttpClient client;
  Document req;
  req.Set("names", docstore::MakeStringArray({m0.name, m1.name}));
  auto resp = client.Post(server_->port(), "/api/download",
                          json::Serialize(req));
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->status_code, 200) << resp->body;
  auto body = json::ParseObject(resp->body);
  ASSERT_TRUE(body.ok());
  auto zip_bytes =
      json::Base64Decode(body->Get("zip_base64")->as_string());
  ASSERT_TRUE(zip_bytes.ok());

  auto entries = earthqube::ZipExtractAll(*zip_bytes);
  ASSERT_TRUE(entries.ok());
  std::set<std::string> names;
  for (const auto& [name, content] : *entries) names.insert(name);
  EXPECT_TRUE(names.count(m0.name + "/metadata.json"));
  EXPECT_TRUE(names.count(m0.name + "/bands.bin"));    // pixels stored
  EXPECT_TRUE(names.count(m1.name + "/metadata.json"));
  EXPECT_TRUE(names.count(m1.name + "/preview.rgb"));  // preview stored
  EXPECT_TRUE(names.count("manifest.txt"));

  // Unknown names are a 404, not a broken archive.
  Document bad;
  bad.Set("names", docstore::MakeStringArray({"nope"}));
  auto missing = client.Post(server_->port(), "/api/download",
                             json::Serialize(bad));
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status_code, 404);
}

TEST_F(ServiceTest, MalformedSearchBodyIs400) {
  HttpClient client;
  for (const std::string body :
       {"{not json",
        R"({"panel":{"labels":{"operator":"some","names":["Atlantis"]}}})",
        R"({"panel":{"labels":{"operator":"banana","names":["Airports"]}}})",
        R"({"panel":{"date_range":{"begin":"2017-02-30",)"
        R"("end":"2017-03-01"}}})"}) {
    auto resp = client.Post(server_->port(), "/api/v2/query", body);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->status_code, 400) << body << ": " << resp->body;
  }
}

// --- QueryFromJson unit tests (no sockets) -----------------------------------

TEST(QueryFromJsonTest, GeoShapes) {
  auto rect = EarthQubeService::QueryFromJson(*json::ParseObject(
      R"({"geo":{"rect":{"min_lat":1,"min_lon":2,"max_lat":3,"max_lon":4}}})"));
  ASSERT_TRUE(rect.ok());
  EXPECT_EQ(rect->geo.shape, earthqube::GeoQuery::Shape::kRectangle);
  EXPECT_DOUBLE_EQ(rect->geo.rectangle.max.lon, 4.0);

  auto circle = EarthQubeService::QueryFromJson(*json::ParseObject(
      R"({"geo":{"circle":{"lat":38.0,"lon":-9.1,"radius_m":5000}}})"));
  ASSERT_TRUE(circle.ok());
  EXPECT_EQ(circle->geo.shape, earthqube::GeoQuery::Shape::kCircle);

  auto poly = EarthQubeService::QueryFromJson(*json::ParseObject(
      R"({"geo":{"polygon":[[0,0],[0,1],[1,1]]}})"));
  ASSERT_TRUE(poly.ok());
  EXPECT_EQ(poly->geo.shape, earthqube::GeoQuery::Shape::kPolygon);

  EXPECT_FALSE(EarthQubeService::QueryFromJson(
                   *json::ParseObject(R"({"geo":{"polygon":[[0,0],[1,1]]}})"))
                   .ok());
  EXPECT_FALSE(EarthQubeService::QueryFromJson(
                   *json::ParseObject(R"({"geo":{"blob":1}})"))
                   .ok());
}

TEST(QueryFromJsonTest, SeasonsAndSatellites) {
  auto q = EarthQubeService::QueryFromJson(*json::ParseObject(
      R"({"seasons":["Summer","Winter"],"satellites":["S2A"],"limit":9})"));
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->seasons.size(), 2u);
  EXPECT_EQ(q->satellites.size(), 1u);
  EXPECT_EQ(q->limit, 9u);
  EXPECT_FALSE(EarthQubeService::QueryFromJson(
                   *json::ParseObject(R"({"seasons":["Monsoon"]})"))
                   .ok());
  EXPECT_FALSE(EarthQubeService::QueryFromJson(
                   *json::ParseObject(R"({"limit":-3})"))
                   .ok());
  // Unknown satellites are rejected, not silently matched against
  // nothing.
  EXPECT_FALSE(EarthQubeService::QueryFromJson(
                   *json::ParseObject(R"({"satellites":["S3A"]})"))
                   .ok());
}

// --- QueryRequestFromJson (v2) unit tests ------------------------------------

TEST(QueryRequestFromJsonTest, EdgeCases) {
  // Empty body: neither panel nor similarity.
  EXPECT_TRUE(EarthQubeService::QueryRequestFromJson(*json::ParseObject("{}"))
                  .status()
                  .IsInvalidArgument());

  // Malformed polygon with fewer than 3 vertices inside the panel.
  EXPECT_FALSE(EarthQubeService::QueryRequestFromJson(*json::ParseObject(
                   R"({"panel":{"geo":{"polygon":[[0,0],[1,1]]}}})"))
                   .ok());

  // Unknown season / satellite strings inside the panel.
  EXPECT_FALSE(EarthQubeService::QueryRequestFromJson(*json::ParseObject(
                   R"({"panel":{"seasons":["Monsoon"]}})"))
                   .ok());
  EXPECT_FALSE(EarthQubeService::QueryRequestFromJson(*json::ParseObject(
                   R"({"panel":{"satellites":["Landsat"]}})"))
                   .ok());

  // Conflicting radius + k.
  EXPECT_TRUE(EarthQubeService::QueryRequestFromJson(
                  *json::ParseObject(
                      R"({"similarity":{"name":"x","radius":4,"k":5}})"))
                  .status()
                  .IsInvalidArgument());

  // Two similarity subjects.
  EXPECT_TRUE(EarthQubeService::QueryRequestFromJson(
                  *json::ParseObject(
                      R"({"similarity":{"name":"x","code":"0101","k":5}})"))
                  .status()
                  .IsInvalidArgument());

  // Invalid bit-string code.
  EXPECT_TRUE(EarthQubeService::QueryRequestFromJson(
                  *json::ParseObject(R"({"similarity":{"code":"01a1","k":5}})"))
                  .status()
                  .IsInvalidArgument());

  // Hits projection without similarity.
  EXPECT_TRUE(EarthQubeService::QueryRequestFromJson(
                  *json::ParseObject(R"({"panel":{},"projection":"hits"})"))
                  .status()
                  .IsInvalidArgument());

  // Negative paging values are rejected, not clamped.
  EXPECT_TRUE(EarthQubeService::QueryRequestFromJson(
                  *json::ParseObject(R"({"panel":{},"page":-1})"))
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(EarthQubeService::QueryRequestFromJson(
                  *json::ParseObject(
                      R"({"similarity":{"name":"x","k":-2}})"))
                  .status()
                  .IsInvalidArgument());

  // Unknown planner / projection values.
  EXPECT_FALSE(EarthQubeService::QueryRequestFromJson(
                   *json::ParseObject(R"({"panel":{},"planner":"magic"})"))
                   .ok());
  EXPECT_FALSE(EarthQubeService::QueryRequestFromJson(
                   *json::ParseObject(R"({"panel":{},"projection":"csv"})"))
                   .ok());
}

TEST(QueryRequestFromJsonTest, DefaultsAndCursor) {
  // A bare similarity name defaults to radius 8 (the v1 default).
  auto req = EarthQubeService::QueryRequestFromJson(
      *json::ParseObject(R"({"similarity":{"name":"x"}})"));
  ASSERT_TRUE(req.ok());
  ASSERT_TRUE(req->similarity->radius.has_value());
  EXPECT_EQ(*req->similarity->radius, 8u);

  // A cursor token overrides page/page_size.
  const std::string token = earthqube::EncodeCursor({3, 20});
  auto paged = EarthQubeService::QueryRequestFromJson(*json::ParseObject(
      R"({"panel":{},"page":0,"page_size":50,"cursor":")" + token + "\"}"));
  ASSERT_TRUE(paged.ok());
  EXPECT_EQ(paged->page, 3u);
  EXPECT_EQ(paged->page_size, 20u);

  auto bad = EarthQubeService::QueryRequestFromJson(
      *json::ParseObject(R"({"panel":{},"cursor":"garbage!"})"));
  EXPECT_TRUE(bad.status().IsCursorExpired());
}

TEST(FromStatusTest, CursorClassificationFollowsTheStatusCode) {
  // The 410 envelope keys on the typed code, never on message text: a
  // plain InvalidArgument worded like a cursor rejection stays a 400...
  const HttpResponse plain =
      FromStatus(Status::InvalidArgument("cursor: malformed"));
  EXPECT_EQ(plain.status_code, 400) << plain.body;
  // ...and a kCursorExpired status answers 410 whatever it says.
  const HttpResponse expired =
      FromStatus(Status::CursorExpired("handle evicted"));
  EXPECT_EQ(expired.status_code, 410) << expired.body;
  auto body = json::ParseObject(expired.body);
  ASSERT_TRUE(body.ok()) << expired.body;
  EXPECT_EQ(body->GetPath("error.code")->as_string(), "cursor_expired");
  EXPECT_EQ(FromStatus(Status::NotFound("x")).status_code, 404);
  EXPECT_EQ(FromStatus(Status::Internal("x")).status_code, 500);
}

TEST(FromStatusTest, ConflictAndOverloadFollowTheStatusCode) {
  const HttpResponse conflict =
      FromStatus(Status::FailedPrecondition("no CBIR service attached"));
  EXPECT_EQ(conflict.status_code, 409) << conflict.body;
  auto conflict_body = json::ParseObject(conflict.body);
  ASSERT_TRUE(conflict_body.ok()) << conflict.body;
  EXPECT_EQ(conflict_body->GetPath("error.code")->as_string(), "conflict");
  EXPECT_EQ(conflict.headers.count("retry-after"), 0u);

  // A full admission queue: retryable unchanged, so clients get a hint.
  const HttpResponse overloaded =
      FromStatus(Status::Overloaded("admission queue full"));
  EXPECT_EQ(overloaded.status_code, 429) << overloaded.body;
  auto overloaded_body = json::ParseObject(overloaded.body);
  ASSERT_TRUE(overloaded_body.ok()) << overloaded.body;
  EXPECT_EQ(overloaded_body->GetPath("error.code")->as_string(), "overloaded");
  ASSERT_EQ(overloaded.headers.count("retry-after"), 1u);
  EXPECT_EQ(overloaded.headers.at("retry-after"), "1");
  EXPECT_NE(SerializeResponse(overloaded).find("retry-after: 1\r\n"),
            std::string::npos);
}

TEST(FromStatusTest, StatusFromResponseInvertsFromStatus) {
  for (const Status& status :
       {Status::InvalidArgument("k must be positive"),
        Status::NotFound("no such archive image: x"),
        Status::FailedPrecondition("no CBIR service attached"),
        Status::CursorExpired("handle evicted"),
        Status::Overloaded("admission queue full")}) {
    const Status back = StatusFromResponse(FromStatus(status));
    EXPECT_EQ(back.code(), status.code()) << status.ToString();
    EXPECT_EQ(back.message(), status.message()) << status.ToString();
  }
  // Every other status is Internal, whatever the peer said.
  EXPECT_EQ(StatusFromResponse(FromStatus(Status::Internal("boom"))).code(),
            StatusCode::kInternal);
  EXPECT_EQ(
      StatusFromResponse(HttpResponse::Error(503, "unavailable", "busy"))
          .code(),
      StatusCode::kInternal);
  // Without an envelope the code still maps and the body is the message.
  const HttpResponse bare = HttpResponse::Text(429, "slow down");
  const Status from_bare = StatusFromResponse(bare);
  EXPECT_EQ(from_bare.code(), StatusCode::kOverloaded);
  EXPECT_EQ(from_bare.message(), "slow down");
}

// --- v2 endpoint over the wire ------------------------------------------------

TEST_F(ServiceTest, V2UndecodableCursorAnswers410CursorExpired) {
  // A cursor that cannot be decoded is not a bad REQUEST — the request
  // shape is fine, the continuation is gone — so the wire answer is the
  // shared error envelope with 410 and code "cursor_expired", telling
  // paging clients to restart from page 0.
  HttpClient client;
  for (const std::string cursor : {"garbage!", "djI6bm9wZQ", "djk6MTox"}) {
    auto resp = client.Post(server_->port(), "/api/v2/query",
                            R"({"similarity":{"name":")" +
                                archive_->patches[0].name +
                                R"(","radius":6},"cursor":")" + cursor +
                                R"("})");
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->status_code, 410) << cursor << ": " << resp->body;
    auto body = json::ParseObject(resp->body);
    ASSERT_TRUE(body.ok()) << resp->body;
    EXPECT_EQ(body->GetPath("error.code")->as_string(), "cursor_expired")
        << resp->body;
  }

  // The batch flavour rejects the whole submission the same way.
  auto batch = client.Post(server_->port(), "/api/v2/query",
                           R"({"requests":[{"similarity":{"name":")" +
                               archive_->patches[0].name +
                               R"(","radius":6},"cursor":"garbage!"}]})");
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->status_code, 410) << batch->body;
}

TEST_F(ServiceTest, V2PanelOnlyQuery) {
  HttpClient client;
  auto resp = client.Post(
      server_->port(), "/api/v2/query",
      R"({"panel":{"labels":{"operator":"some","names":["Broad-leaved forest",)"
      R"("Coniferous forest","Mixed forest"]}},"page_size":10})");
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->status_code, 200) << resp->body;
  auto body = json::ParseObject(resp->body);
  ASSERT_TRUE(body.ok());
  EXPECT_GT(body->Get("total")->as_int64(), 0);
  EXPECT_EQ(body->GetPath("plan.strategy")->as_string(), "panel_only");
  EXPECT_LE(body->Get("results")->as_array().size(), 10u);
  EXPECT_TRUE(body->Get("label_statistics")->is_array());
  // More than one 10-entry page exists, so a cursor is returned; feeding
  // it back fetches the next page.
  const std::string cursor = body->Get("cursor")->as_string();
  if (body->Get("total")->as_int64() > 10) {
    ASSERT_FALSE(cursor.empty());
    auto next = client.Post(server_->port(), "/api/v2/query",
                            R"({"panel":{"labels":{"operator":"some",)"
                            R"("names":["Broad-leaved forest",)"
                            R"("Coniferous forest","Mixed forest"]}},)"
                            R"("cursor":")" + cursor + "\"}");
    ASSERT_TRUE(next.ok());
    ASSERT_EQ(next->status_code, 200) << next->body;
    auto next_body = json::ParseObject(next->body);
    ASSERT_TRUE(next_body.ok());
    EXPECT_EQ(next_body->Get("page")->as_int64(), 1);
    // Pages are disjoint.
    const auto& first_results = body->Get("results")->as_array();
    const auto& second_results = next_body->Get("results")->as_array();
    std::set<std::string> first_names;
    for (const Value& r : first_results) {
      first_names.insert(r.as_document().Get("name")->as_string());
    }
    for (const Value& r : second_results) {
      EXPECT_EQ(first_names.count(r.as_document().Get("name")->as_string()),
                0u);
    }
  }
}

TEST_F(ServiceTest, V2HybridPlannerStrategiesAgreeOverWire) {
  HttpClient client;
  const std::string& name = archive_->patches[7].name;
  const std::string base =
      R"({"panel":{"seasons":["Summer","Autumn"]},"similarity":{"name":")" +
      name + R"(","k":8},"projection":"hits","page_size":0)";
  auto pre = client.Post(server_->port(), "/api/v2/query",
                         base + R"(,"planner":"pre_filter"})");
  auto post = client.Post(server_->port(), "/api/v2/query",
                          base + R"(,"planner":"post_filter"})");
  auto auto_plan = client.Post(server_->port(), "/api/v2/query", base + "}");
  ASSERT_TRUE(pre.ok());
  ASSERT_TRUE(post.ok());
  ASSERT_TRUE(auto_plan.ok());
  ASSERT_EQ(pre->status_code, 200) << pre->body;
  ASSERT_EQ(post->status_code, 200) << post->body;
  ASSERT_EQ(auto_plan->status_code, 200) << auto_plan->body;

  auto pre_body = json::ParseObject(pre->body);
  auto post_body = json::ParseObject(post->body);
  auto auto_body = json::ParseObject(auto_plan->body);
  ASSERT_TRUE(pre_body.ok());
  ASSERT_TRUE(post_body.ok());
  ASSERT_TRUE(auto_body.ok());
  EXPECT_EQ(pre_body->GetPath("plan.strategy")->as_string(), "pre_filter");
  EXPECT_EQ(post_body->GetPath("plan.strategy")->as_string(), "post_filter");
  const std::string auto_strategy =
      auto_body->GetPath("plan.strategy")->as_string();
  EXPECT_TRUE(auto_strategy == "pre_filter" || auto_strategy == "post_filter");

  // Identical result sets regardless of strategy.
  const auto& pre_results = pre_body->Get("results")->as_array();
  const auto& post_results = post_body->Get("results")->as_array();
  ASSERT_EQ(pre_results.size(), post_results.size());
  for (size_t i = 0; i < pre_results.size(); ++i) {
    EXPECT_EQ(pre_results[i].as_document().Get("name")->as_string(),
              post_results[i].as_document().Get("name")->as_string());
    EXPECT_EQ(pre_results[i].as_document().Get("distance")->as_int64(),
              post_results[i].as_document().Get("distance")->as_int64());
  }
}

TEST_F(ServiceTest, V2RejectsMalformedBodies) {
  HttpClient client;
  auto empty = client.Post(server_->port(), "/api/v2/query", "{}");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->status_code, 400);

  auto conflict = client.Post(
      server_->port(), "/api/v2/query",
      R"({"similarity":{"name":"x","radius":3,"k":5}})");
  ASSERT_TRUE(conflict.ok());
  EXPECT_EQ(conflict->status_code, 400);

  auto unknown = client.Post(server_->port(), "/api/v2/query",
                             R"({"similarity":{"name":"ghost","k":3}})");
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown->status_code, 404);

  auto empty_batch = client.Post(server_->port(), "/api/v2/query",
                                 R"({"requests":[]})");
  ASSERT_TRUE(empty_batch.ok());
  EXPECT_EQ(empty_batch->status_code, 400);

  // An unknown label name is a malformed panel, not a missing resource.
  auto unknown_label = client.Post(
      server_->port(), "/api/v2/query",
      R"({"panel":{"labels":{"names":["No such label"]}}})");
  ASSERT_TRUE(unknown_label.ok());
  EXPECT_EQ(unknown_label->status_code, 400) << unknown_label->body;
}

/// A raw query code must have the indexed width: anything else is a
/// 400 before the index sees it (the scan kernels size query words by
/// the index's code length).
TEST(CodeWidthTest, RawCodeOfTheWrongWidthIs400) {
  bigearthnet::ArchiveConfig config;
  config.num_patches = 60;
  config.seed = 23;
  bigearthnet::ArchiveGenerator generator(config);
  auto archive = generator.Generate();
  ASSERT_TRUE(archive.ok());

  earthqube::EarthQube system;
  ASSERT_TRUE(system.IngestArchive(*archive).ok());
  bigearthnet::FeatureExtractor extractor;
  Tensor features = extractor.ExtractArchive(*archive, generator, 2);
  milan::MilanConfig mconfig;
  mconfig.feature_dim = bigearthnet::kFeatureDim;
  mconfig.hidden1 = 32;
  mconfig.hidden2 = 16;
  mconfig.hash_bits = 64;
  mconfig.dropout = 0.0f;
  auto cbir = std::make_unique<earthqube::CbirService>(
      std::make_unique<milan::MilanModel>(mconfig), &extractor);
  std::vector<std::string> names;
  for (const auto& p : archive->patches) names.push_back(p.name);
  ASSERT_TRUE(cbir->AddImages(names, features).ok());
  system.AttachCbir(std::move(cbir));

  EarthQubeService service(&system);
  HttpServer server(2);
  service.RegisterRoutes(&server);
  ASSERT_TRUE(server.Start(0).ok());

  HttpClient client;
  const auto query = [&](size_t bits, const std::string& mode) {
    std::string code;
    for (size_t i = 0; i < bits; ++i) code += (i % 3 == 0) ? '1' : '0';
    return client.Post(server.port(), "/api/v2/query",
                       R"({"similarity":{"code":")" + code + R"(",)" + mode +
                           "}}");
  };
  for (size_t bits : {63, 65, 128}) {
    for (const std::string mode : {R"("k":5)", R"("radius":6,"limit":50)"}) {
      auto response = query(bits, mode);
      ASSERT_TRUE(response.ok());
      EXPECT_EQ(response->status_code, 400)
          << bits << " bits, " << mode << ": " << response->body;
      auto body = json::ParseObject(response->body);
      ASSERT_TRUE(body.ok()) << response->body;
      EXPECT_EQ(body->GetPath("error.code")->as_string(), "bad_request");
    }
  }
  auto matching = query(64, R"("k":5)");
  ASSERT_TRUE(matching.ok());
  EXPECT_EQ(matching->status_code, 200) << matching->body;
  server.Stop();
}

// --- paging + shared error envelope ------------------------------------------

TEST_F(ServiceTest, SearchRejectsMalformedPagingAndReturnsCursor) {
  HttpClient client;
  auto negative = client.Post(server_->port(), "/api/v2/query",
                              R"({"panel":{},"page":-2})");
  ASSERT_TRUE(negative.ok());
  EXPECT_EQ(negative->status_code, 400);

  auto fractional = client.Post(server_->port(), "/api/v2/query",
                                R"({"panel":{},"page":1.5})");
  ASSERT_TRUE(fractional.ok());
  EXPECT_EQ(fractional->status_code, 400);

  // An unfiltered search has many pages: the response carries the
  // continuation cursor to the next one.
  auto all = client.Post(server_->port(), "/api/v2/query", R"({"panel":{}})");
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->status_code, 200) << all->body;
  auto body = json::ParseObject(all->body);
  ASSERT_TRUE(body.ok());
  ASSERT_TRUE(body->Has("cursor"));
  const std::string cursor = body->Get("cursor")->as_string();
  ASSERT_FALSE(cursor.empty());
  auto decoded = earthqube::DecodeCursor(cursor);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->page, 1u);
}

TEST_F(ServiceTest, ErrorsUseSharedJsonEnvelope) {
  HttpClient client;
  // 400 from a handler.
  auto bad = client.Post(server_->port(), "/api/v2/query", "{not json");
  ASSERT_TRUE(bad.ok());
  ASSERT_EQ(bad->status_code, 400);
  auto bad_body = json::ParseObject(bad->body);
  ASSERT_TRUE(bad_body.ok()) << bad->body;
  EXPECT_EQ(bad_body->GetPath("error.code")->as_string(), "bad_request");
  EXPECT_TRUE(bad_body->GetPath("error.message")->is_string());

  // 404 from a handler.
  auto missing = client.Get(server_->port(), "/api/patch/nope");
  ASSERT_TRUE(missing.ok());
  ASSERT_EQ(missing->status_code, 404);
  auto missing_body = json::ParseObject(missing->body);
  ASSERT_TRUE(missing_body.ok()) << missing->body;
  EXPECT_EQ(missing_body->GetPath("error.code")->as_string(), "not_found");

  // 404/405 from the router itself share the envelope.  The retired v1
  // query routes are unrouted too, even for a body they used to serve.
  const std::string& name = archive_->patches[0].name;
  const std::string v1_body = R"({"name":")" + name + R"(","names":[")" +
                              name + R"("],"k":1})";
  for (const char* path : {"/no/such/route", "/api/search",
                           "/api/similar/by_name", "/cbir/batch_search"}) {
    auto unrouted = client.Post(server_->port(), path, v1_body);
    ASSERT_TRUE(unrouted.ok());
    EXPECT_EQ(unrouted->status_code, 404) << path;
    auto unrouted_body = json::ParseObject(unrouted->body);
    ASSERT_TRUE(unrouted_body.ok()) << path << ": " << unrouted->body;
    const Value* code = unrouted_body->GetPath("error.code");
    ASSERT_NE(code, nullptr) << path << ": " << unrouted->body;
    EXPECT_EQ(code->as_string(), "not_found") << path;
  }

  auto wrong_method = client.Get(server_->port(), "/api/v2/query");
  ASSERT_TRUE(wrong_method.ok());
  ASSERT_EQ(wrong_method->status_code, 405);
  auto wrong_body = json::ParseObject(wrong_method->body);
  ASSERT_TRUE(wrong_body.ok()) << wrong_method->body;
  EXPECT_EQ(wrong_body->GetPath("error.code")->as_string(),
            "method_not_allowed");
}

TEST_F(ServiceTest, CachedV2ResponseIsByteIdenticalExceptFlag) {
  HttpClient client;
  // A request no earlier test issued, so the first round trip is a miss.
  const std::string body =
      R"({"similarity":{"name":")" + archive_->patches[42].name +
      R"(","radius":9}})";

  auto first = client.Post(server_->port(), "/api/v2/query", body);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->status_code, 200) << first->body;
  EXPECT_NE(first->body.find("\"served_from_cache\":false"),
            std::string::npos);

  auto second = client.Post(server_->port(), "/api/v2/query", body);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->status_code, 200) << second->body;
  EXPECT_NE(second->body.find("\"served_from_cache\":true"),
            std::string::npos);

  // Normalising the cache flag must make the wire bodies byte-identical
  // (same results, same paging cursor, same plan and statistics).
  std::string normalized = second->body;
  const size_t pos = normalized.find("\"served_from_cache\":true");
  ASSERT_NE(pos, std::string::npos);
  normalized.replace(pos, std::string("\"served_from_cache\":true").size(),
                     "\"served_from_cache\":false");
  EXPECT_EQ(first->body, normalized);
}

TEST_F(ServiceTest, CacheMetrics) {
  using metrics_test::MetricValue;
  using metrics_test::ScrapeMetrics;
  const docstore::Document before = ScrapeMetrics(server_->port());
  EXPECT_GE(MetricValue(before, "agoraeo_cache_epoch"), 0);
  for (const std::string cache : {"response", "allowlist", "negative"}) {
    for (const char* base :
         {"agoraeo_cache_hits_total", "agoraeo_cache_misses_total",
          "agoraeo_cache_puts_total", "agoraeo_cache_rejected_puts_total",
          "agoraeo_cache_evictions_total", "agoraeo_cache_stale_drops_total",
          "agoraeo_cache_expired_drops_total", "agoraeo_cache_entries",
          "agoraeo_cache_bytes"}) {
      EXPECT_GE(MetricValue(before, obs::LabeledName(base, "cache", cache)),
                0);
    }
    EXPECT_GT(MetricValue(before, obs::LabeledName(
                                      "agoraeo_cache_capacity_bytes", "cache",
                                      cache)),
              0);
  }
  const std::string response_hits =
      obs::LabeledName("agoraeo_cache_hits_total", "cache", "response");
  const double hits_before = MetricValue(before, response_hits);

  // One repeated query adds exactly one response-cache hit.
  HttpClient client;
  const std::string body =
      R"({"similarity":{"name":")" + archive_->patches[55].name +
      R"(","k":4}})";
  ASSERT_EQ(client.Post(server_->port(), "/api/v2/query", body)->status_code,
            200);
  ASSERT_EQ(client.Post(server_->port(), "/api/v2/query", body)->status_code,
            200);

  const docstore::Document after = ScrapeMetrics(server_->port());
  EXPECT_EQ(MetricValue(after, response_hits), hits_before + 1);
  for (const char* field : {"submitted", "completed", "coalesced", "flights",
                            "batches", "batched_flights", "cache_hits",
                            "negative_hits", "rejected", "flight_warms",
                            "warm_from_flight_hits"}) {
    EXPECT_GE(MetricValue(after, std::string("agoraeo_engine_") + field +
                                     "_total"),
              0);
  }
  // The repeated query above was executed once by a flight (warming the
  // cache) and then served from that warm entry.
  EXPECT_GE(MetricValue(after, "agoraeo_engine_flight_warms_total"), 1);
  EXPECT_GE(MetricValue(after, "agoraeo_engine_warm_from_flight_hits_total"),
            1);
}

TEST_F(ServiceTest, IndexMetricsUnsharded) {
  const docstore::Document metrics =
      metrics_test::ScrapeMetrics(server_->port());
  EXPECT_EQ(metrics_test::MetricValue(metrics, "agoraeo_index_items"),
            static_cast<double>(archive_->patches.size()));
  EXPECT_EQ(metrics.Get("agoraeo_index_shards"), nullptr);
  EXPECT_EQ(metrics_test::MetricValue(
                metrics, obs::LabeledName("agoraeo_index_kernel_active",
                                          "kernel",
                                          simd::ActiveKernel()->name)),
            1);
}

/// A partitioned CBIR service behind its own server: the metrics report
/// per-shard sizes and the batched passes' fan-out counters.
TEST(ShardedServiceTest, IndexMetricsReportPartitions) {
  bigearthnet::ArchiveConfig config;
  config.num_patches = 120;
  config.seed = 91;
  bigearthnet::ArchiveGenerator generator(config);
  auto archive = generator.Generate();
  ASSERT_TRUE(archive.ok());

  earthqube::EarthQube system;
  ASSERT_TRUE(system.IngestArchive(*archive).ok());
  bigearthnet::FeatureExtractor extractor;
  Tensor features = extractor.ExtractArchive(*archive, generator, 2);
  milan::MilanConfig mconfig;
  mconfig.feature_dim = bigearthnet::kFeatureDim;
  mconfig.hidden1 = 32;
  mconfig.hidden2 = 16;
  mconfig.hash_bits = 32;
  mconfig.dropout = 0.0f;
  earthqube::CbirConfig cbir_config;
  cbir_config.num_shards = 4;
  auto cbir = std::make_unique<earthqube::CbirService>(
      std::make_unique<milan::MilanModel>(mconfig), &extractor, cbir_config);
  std::vector<std::string> names;
  for (const auto& p : archive->patches) names.push_back(p.name);
  ASSERT_TRUE(cbir->AddImages(names, features).ok());
  system.AttachCbir(std::move(cbir));

  EarthQubeService service(&system);
  HttpServer server(2);
  service.RegisterRoutes(&server);
  ASSERT_TRUE(server.Start(0).ok());

  HttpClient client;
  // A batched pass so the fan-out counters move.
  const std::string batch_body =
      BatchBody({HitsBody(names[0], R"("radius":10)"),
                 HitsBody(names[1], R"("radius":10)"),
                 HitsBody(names[2], R"("radius":10)")});
  ASSERT_EQ(
      client.Post(server.port(), "/api/v2/query", batch_body)->status_code,
      200);

  using metrics_test::MetricValue;
  const docstore::Document metrics = metrics_test::ScrapeMetrics(server.port());
  EXPECT_EQ(MetricValue(metrics, "agoraeo_index_shards"), 4);
  double total = 0;
  for (int shard = 0; shard < 4; ++shard) {
    total += MetricValue(metrics,
                         obs::LabeledName("agoraeo_index_shard_items", "shard",
                                          std::to_string(shard)));
  }
  EXPECT_EQ(metrics.Get(R"(agoraeo_index_shard_items{shard="4"})"), nullptr);
  EXPECT_EQ(total, MetricValue(metrics, "agoraeo_index_items"));
  const double batch_fanouts =
      MetricValue(metrics, "agoraeo_index_batch_fanouts_total");
  EXPECT_GE(batch_fanouts, 1);
  EXPECT_GE(MetricValue(metrics, "agoraeo_index_fanout_tasks_total"),
            batch_fanouts * 4);
  EXPECT_GE(MetricValue(metrics, "agoraeo_index_merge_nanos_total"), 0);

  server.Stop();
}

/// Snapshot endpoint: 409 without a durable CBIR service, 200 with one
/// (checkpoint written, WAL reset), and the metrics report the segment
/// and persistence state.
TEST(PersistentServiceTest, SnapshotEndpointAndPersistenceMetrics) {
  const std::string dir = "/tmp/agoraeo_netsvc_persist_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  bigearthnet::ArchiveConfig config;
  config.num_patches = 80;
  config.seed = 92;
  bigearthnet::ArchiveGenerator generator(config);
  auto archive = generator.Generate();
  ASSERT_TRUE(archive.ok());

  earthqube::EarthQube system;
  ASSERT_TRUE(system.IngestArchive(*archive).ok());
  bigearthnet::FeatureExtractor extractor;
  Tensor features = extractor.ExtractArchive(*archive, generator, 2);
  milan::MilanConfig mconfig;
  mconfig.feature_dim = bigearthnet::kFeatureDim;
  mconfig.hidden1 = 32;
  mconfig.hidden2 = 16;
  mconfig.hash_bits = 32;
  mconfig.dropout = 0.0f;
  earthqube::CbirConfig cbir_config;
  cbir_config.num_shards = 4;
  cbir_config.snapshot_dir = dir;
  cbir_config.seal_threshold = 16;
  auto cbir = std::make_unique<earthqube::CbirService>(
      std::make_unique<milan::MilanModel>(mconfig), &extractor, cbir_config);
  ASSERT_TRUE(system.RecoverAndAttachCbir(std::move(cbir)).ok());
  std::vector<std::string> names;
  for (const auto& p : archive->patches) names.push_back(p.name);
  ASSERT_TRUE(system.cbir()->AddImages(names, features).ok());

  EarthQubeService service(&system);
  HttpServer server(2);
  service.RegisterRoutes(&server);
  ASSERT_TRUE(server.Start(0).ok());
  HttpClient client;

  auto snap = client.Post(server.port(), "/api/v2/index/snapshot", "{}");
  ASSERT_TRUE(snap.ok());
  ASSERT_EQ(snap->status_code, 200) << snap->body;
  auto snap_body = json::ParseObject(snap->body);
  ASSERT_TRUE(snap_body.ok()) << snap->body;
  EXPECT_TRUE(snap_body->Get("snapshotted")->as_bool());
  EXPECT_EQ(snap_body->Get("num_indexed")->as_int64(), 80);
  EXPECT_GE(snap_body->Get("snapshots_written")->as_int64(), 4);
  EXPECT_EQ(std::filesystem::file_size(dir + "/index.wal"), 0u);

  using metrics_test::MetricValue;
  const docstore::Document metrics = metrics_test::ScrapeMetrics(server.port());
  for (int shard = 0; shard < 4; ++shard) {
    EXPECT_GE(MetricValue(metrics, obs::LabeledName(
                                       "agoraeo_index_shard_segments", "shard",
                                       std::to_string(shard))),
              0);
  }
  EXPECT_EQ(metrics.Get(R"(agoraeo_index_shard_segments{shard="4"})"),
            nullptr);
  EXPECT_GE(MetricValue(metrics, "agoraeo_index_seals_total"), 1);
  // Post-snapshot, everything lives in sealed segments.
  EXPECT_EQ(MetricValue(metrics, "agoraeo_index_mutable_items"), 0);
  EXPECT_EQ(MetricValue(metrics, "agoraeo_index_sealed_items"), 80);
  EXPECT_GE(MetricValue(metrics, "agoraeo_wal_records_total"), 1);
  EXPECT_GE(MetricValue(metrics, "agoraeo_snapshots_written_total"), 4);
  EXPECT_EQ(MetricValue(metrics, "agoraeo_recovery_discarded_snapshots_total"),
            0);
  metrics_test::ExpectUniqueMetricNames(server.port(),
                                        "sharded durable monolith");
  server.Stop();
}

TEST_F(ServiceTest, SnapshotEndpointWithoutDurableServiceIs409) {
  HttpClient client;
  auto resp = client.Post(server_->port(), "/api/v2/index/snapshot", "{}");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status_code, 409) << resp->body;
  auto body = json::ParseObject(resp->body);
  ASSERT_TRUE(body.ok()) << resp->body;
  EXPECT_EQ(body->GetPath("error.code")->as_string(), "conflict");
}

/// The v2 query route is deferred: HTTP workers park connections on the
/// execution engine instead of blocking.  Many concurrent clients —
/// more than the server's 2 pool workers — must all be answered, and
/// the engine must have seen every submission.
TEST_F(ServiceTest, ConcurrentDeferredQueriesOverWire) {
  constexpr size_t kClients = 8;
  constexpr size_t kPerClient = 4;
  const std::string hot_body =
      R"({"similarity":{"name":")" + archive_->patches[23].name +
      R"(","radius":8},"projection":"hits"})";
  const uint64_t submitted_before =
      system_->exec_engine().Stats().submitted;

  std::atomic<size_t> ok_responses{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      HttpClient client;
      for (size_t i = 0; i < kPerClient; ++i) {
        auto resp = client.Post(server_->port(), "/api/v2/query", hot_body);
        if (resp.ok() && resp->status_code == 200 &&
            resp->body.find("\"results\":[") != std::string::npos) {
          ok_responses.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(ok_responses.load(), kClients * kPerClient);
  EXPECT_GE(system_->exec_engine().Stats().submitted,
            submitted_before + kClients * kPerClient);
}

/// Batches are deferred too: batches parked on a paused engine
/// hold no HTTP worker, so the fixture's 2-worker server still answers
/// /health while 3 of them wait.
TEST_F(ServiceTest, BatchSearchParksInsteadOfBlocking) {
  earthqube::ExecutionEngine& engine = system_->exec_engine();
  engine.Pause();
  struct ResumeOnExit {
    earthqube::ExecutionEngine& engine;
    bool resumed = false;
    void Resume() {
      if (!resumed) engine.Resume();
      resumed = true;
    }
    ~ResumeOnExit() { Resume(); }
  } guard{engine};

  // Names no other test queries with k = 7, so the response cache
  // cannot answer them at admission.
  constexpr size_t kBatches = 3;
  const uint64_t submitted_before = engine.Stats().submitted;
  std::vector<std::vector<std::string>> names(kBatches);
  std::vector<HttpResponse> responses(kBatches);
  std::vector<std::thread> clients;
  for (size_t b = 0; b < kBatches; ++b) {
    names[b] = {archive_->patches[700 + 2 * b].name,
                archive_->patches[701 + 2 * b].name};
    const std::string body = BatchBody({HitsBody(names[b][0], R"("k":7)"),
                                        HitsBody(names[b][1], R"("k":7)")});
    clients.emplace_back([&responses, b, body] {
      HttpClient client;
      auto resp = client.Post(server_->port(), "/api/v2/query", body);
      if (resp.ok()) responses[b] = *resp;
    });
  }
  // Every batch is parked once the engine has admitted all its slots.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (engine.Stats().submitted < submitted_before + 2 * kBatches &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  HttpClientOptions options;
  options.connect_timeout_ms = 2000;
  options.read_timeout_ms = 2000;
  options.max_retries = 0;
  HttpClient probe("127.0.0.1", options);
  auto health = probe.Get(server_->port(), "/health");

  guard.Resume();
  for (std::thread& client : clients) client.join();
  ASSERT_TRUE(health.ok()) << "a parked batch pinned an HTTP worker";
  EXPECT_EQ(health->status_code, 200);
  for (size_t b = 0; b < kBatches; ++b) {
    ASSERT_EQ(responses[b].status_code, 200) << responses[b].body;
    auto body = json::ParseObject(responses[b].body);
    ASSERT_TRUE(body.ok()) << responses[b].body;
    const auto& slots = body->Get("responses")->as_array();
    ASSERT_EQ(slots.size(), 2u);
    for (size_t i = 0; i < 2; ++i) {
      auto want = earthqube::KnnByName(*system_->cbir(), names[b][i], 7);
      ASSERT_TRUE(want.ok());
      const auto& hits = slots[i].as_document().Get("results")->as_array();
      ASSERT_EQ(hits.size(), want->size());
      for (size_t j = 0; j < hits.size(); ++j) {
        EXPECT_EQ(hits[j].as_document().Get("name")->as_string(),
                  (*want)[j].patch_name);
      }
    }
  }
}

/// Negative caching over the wire: a bad archive name 404s every time,
/// and repeats are served from the negative cache.
TEST_F(ServiceTest, RepeatedUnknownNameServedFromNegativeCache) {
  HttpClient client;
  const std::string body =
      R"({"similarity":{"name":"definitely_not_an_archive_image","k":3}})";
  const auto hits_before = system_->query_cache().NegativeStats().hits;
  for (int i = 0; i < 3; ++i) {
    auto resp = client.Post(server_->port(), "/api/v2/query", body);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->status_code, 404) << resp->body;
    EXPECT_NE(resp->body.find("\"error\""), std::string::npos);
  }
  EXPECT_GE(system_->query_cache().NegativeStats().hits, hits_before + 2);
}

}  // namespace
}  // namespace agoraeo::netsvc
