#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>

#include "experiment/report.hpp"
#include "service/http.hpp"

namespace service = sdcgmres::service;

namespace {

/// A socket connected to the server on \p port (the caller closes it).
/// Its reads time out after 10 s, so a server that never answers or
/// never hangs up fails the test instead of hanging it.
int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const timeval timeout{.tv_sec = 10, .tv_usec = 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  return fd;
}

/// Minimal raw-socket HTTP client: one request, whole response back.
std::string raw_request(std::uint16_t port, const std::string& request) {
  const int fd = connect_to(port);
  std::size_t off = 0;
  while (off < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + off, request.size() - off, MSG_NOSIGNAL);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string get(std::uint16_t port, const std::string& target) {
  return raw_request(port, "GET " + target +
                               " HTTP/1.1\r\nHost: localhost\r\n\r\n");
}

std::string post(std::uint16_t port, const std::string& target,
                 const std::string& body) {
  return raw_request(port, "POST " + target + " HTTP/1.1\r\nHost: localhost" +
                               "\r\nContent-Length: " +
                               std::to_string(body.size()) + "\r\n\r\n" +
                               body);
}

/// Minimal JSON string decoder: \p text[pos] must open a string; returns
/// its decoded value and leaves \p pos just past the closing quote.
/// Flags raw control characters and unknown escapes as test failures.
std::string decode_json_string(std::string_view text, std::size_t& pos) {
  std::string out;
  EXPECT_EQ(text.substr(pos, 1), "\"");
  for (++pos; pos < text.size(); ++pos) {
    const char c = text[pos];
    if (c == '"') {
      ++pos;
      return out;
    }
    if (static_cast<unsigned char>(c) < 0x20) {
      ADD_FAILURE() << "raw control byte " << int(c) << " in JSON string";
      return out;
    }
    if (c != '\\') {
      out.push_back(c);
      continue;
    }
    const char e = text.at(++pos);
    switch (e) {
      case '"': case '\\': case '/': out.push_back(e); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'u': {
        const unsigned code =
            std::stoul(std::string(text.substr(pos + 1, 4)), nullptr, 16);
        EXPECT_LT(code, 0x80u) << "decoder handles ASCII escapes only";
        out.push_back(static_cast<char>(code));
        pos += 4;
        break;
      }
      default:
        ADD_FAILURE() << "invalid escape \\" << e;
        return out;
    }
  }
  ADD_FAILURE() << "unterminated JSON string";
  return out;
}

/// The response body after the head.
std::string body_of(const std::string& response) {
  const std::size_t end = response.find("\r\n\r\n");
  return end == std::string::npos ? std::string() : response.substr(end + 4);
}

} // namespace

TEST(JsonEscape, ControlBytesQuoteAndBackslashRoundTrip) {
  std::string raw;
  for (int c = 0x00; c < 0x20; ++c) raw.push_back(static_cast<char>(c));
  raw += "\"\\ plain text";
  const std::string doc = "\"" + sdcgmres::experiment::json_escape(raw) + "\"";
  std::size_t pos = 0;
  EXPECT_EQ(decode_json_string(doc, pos), raw);
  EXPECT_EQ(pos, doc.size());
  // The short forms for the common three, \u00XX for the rest.
  EXPECT_EQ(sdcgmres::experiment::json_escape("\n\r\t"), "\\n\\r\\t");
  EXPECT_EQ(sdcgmres::experiment::json_escape(std::string(1, '\x01')),
            "\\u0001");
  EXPECT_EQ(sdcgmres::experiment::json_escape("matrix=poisson n=20"),
            "matrix=poisson n=20");
}

TEST(HttpServer, EphemeralPortRoundTripsGetAndPost) {
  service::HttpServer server(0, [](const service::HttpRequest& request) {
    service::HttpResponse response;
    response.body = request.method + " " + request.target + " [" +
                    request.body + "]";
    return response;
  });
  EXPECT_GT(server.port(), 0) << "port 0 must resolve to a real port";
  server.start();

  const std::string got = get(server.port(), "/stats");
  EXPECT_NE(got.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(got.find("GET /stats []"), std::string::npos);
  EXPECT_NE(got.find("Content-Length:"), std::string::npos);

  const std::string posted =
      post(server.port(), "/jobs", "matrix=poisson n=10");
  EXPECT_NE(posted.find("POST /jobs [matrix=poisson n=10]"),
            std::string::npos)
      << "the Content-Length body must reach the handler intact";
  server.stop();
}

TEST(HttpServer, StatusCodesAndReasonPhrases) {
  service::HttpServer server(0, [](const service::HttpRequest& request) {
    service::HttpResponse response;
    if (request.target == "/missing") response.status = 404;
    if (request.target == "/conflict") response.status = 409;
    if (request.target == "/created") response.status = 201;
    return response;
  });
  server.start();
  EXPECT_NE(get(server.port(), "/missing").find("404 Not Found"),
            std::string::npos);
  EXPECT_NE(get(server.port(), "/conflict").find("409 Conflict"),
            std::string::npos);
  EXPECT_NE(get(server.port(), "/created").find("201 Created"),
            std::string::npos);
  server.stop();
}

TEST(HttpServer, HandlerExceptionBecomes500NotACrash) {
  service::HttpServer server(0, [](const service::HttpRequest&)
                                    -> service::HttpResponse {
    throw std::runtime_error("boom");
  });
  server.start();
  const std::string got = get(server.port(), "/");
  EXPECT_NE(got.find("500 Internal Server Error"), std::string::npos);
  EXPECT_NE(got.find("boom"), std::string::npos);
  // The server survived: a second request still answers.
  EXPECT_NE(get(server.port(), "/").find("500"), std::string::npos);
  server.stop();
}

TEST(HttpServer, HandlerExceptionBodyIsValidJson) {
  const std::string message = "bad \"spec\"\nline 2";
  service::HttpServer server(0, [&](const service::HttpRequest&)
                                    -> service::HttpResponse {
    throw std::runtime_error(message);
  });
  server.start();
  const std::string body = body_of(get(server.port(), "/"));
  server.stop();
  const std::string_view prefix = "{\"error\": ";
  ASSERT_EQ(body.substr(0, prefix.size()), prefix) << body;
  std::size_t pos = prefix.size();
  EXPECT_EQ(decode_json_string(body, pos), message);
  EXPECT_EQ(body.substr(pos), "}\n");
}

TEST(HttpServer, MalformedContentLengthIs400) {
  std::atomic<int> handled{0};
  service::HttpServer server(0, [&](const service::HttpRequest&) {
    ++handled;
    return service::HttpResponse{};
  });
  server.start();
  for (const char* value : {"abc", "-1", "+5", "12abc", "1 2", ""}) {
    SCOPED_TRACE(value);
    const std::string got = raw_request(
        server.port(), std::string("POST /jobs HTTP/1.1\r\nContent-Length: ") +
                           value + "\r\n\r\n");
    EXPECT_NE(got.find("HTTP/1.1 400 Bad Request"), std::string::npos)
        << got;
  }
  EXPECT_EQ(handled, 0) << "a refused request must not reach the handler";
  // Surrounding whitespace is allowed.
  EXPECT_NE(raw_request(server.port(),
                        "POST /jobs HTTP/1.1\r\nContent-Length:  2 \r\n\r\nok")
                .find("200 OK"),
            std::string::npos);
  server.stop();
  EXPECT_EQ(handled, 1);
}

TEST(HttpServer, BodyOverOneMebibyteIs413) {
  std::atomic<bool> handled{false};
  service::HttpServer server(0, [&](const service::HttpRequest&) {
    handled = true;
    return service::HttpResponse{};
  });
  server.start();
  for (const char* value : {"1048577", "99999999999999999999999999"}) {
    SCOPED_TRACE(value);
    const std::string got = raw_request(
        server.port(), std::string("POST /jobs HTTP/1.1\r\nContent-Length: ") +
                           value + "\r\n\r\n");
    EXPECT_NE(got.find("HTTP/1.1 413 Payload Too Large"), std::string::npos)
        << got;
  }
  server.stop();
  EXPECT_FALSE(handled) << "a refused body must not reach the handler";
}

TEST(HttpServer, MalformedRequestLineIs400) {
  service::HttpServer server(0, [](const service::HttpRequest&) {
    return service::HttpResponse{};
  });
  server.start();
  const std::string got = raw_request(server.port(), "NONSENSE\r\n\r\n");
  EXPECT_NE(got.find("400 Bad Request"), std::string::npos);
  server.stop();
}

TEST(HttpServer, StopIsIdempotentAndUnbindsThePort) {
  auto server = std::make_unique<service::HttpServer>(
      0, [](const service::HttpRequest&) { return service::HttpResponse{}; });
  const std::uint16_t port = server->port();
  server->start();
  server->stop();
  server->stop(); // idempotent
  server.reset();
  // The port is free again: a new server can bind it immediately.
  service::HttpServer again(port, [](const service::HttpRequest&) {
    return service::HttpResponse{};
  });
  EXPECT_EQ(again.port(), port);
}

namespace {

/// Seconds a GET /stats takes to be answered; the answer must be a 200.
double stats_seconds_behind(std::uint16_t port) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::string got = get(port, "/stats");
  const std::chrono::duration<double> waited =
      std::chrono::steady_clock::now() - t0;
  EXPECT_NE(got.find("HTTP/1.1 200 OK"), std::string::npos) << got;
  return waited.count();
}

service::HttpResponse stats_ok(const service::HttpRequest&) {
  service::HttpResponse response;
  response.body = "{\"ok\": true}\n";
  return response;
}

/// The deadline plus a generous scheduling allowance.
const double kStatsBound =
    std::chrono::duration<double>(service::HttpServer::kReceiveDeadline)
        .count() +
    1.5;

} // namespace

TEST(HttpServer, IdleClientIsDroppedAtTheReceiveDeadline) {
  service::HttpServer server(0, stats_ok);
  server.start();
  // Connected, sends nothing: the accept thread takes it first.
  const int idle = connect_to(server.port());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_LT(stats_seconds_behind(server.port()), kStatsBound);
  // The idle connection was closed unanswered.
  char byte = 0;
  EXPECT_EQ(::recv(idle, &byte, 1, 0), 0);
  ::close(idle);
  server.stop();
}

TEST(HttpServer, TricklingClientIsDroppedAtTheTotalDeadline) {
  service::HttpServer server(0, stats_ok);
  server.start();
  // One byte of a never-ending header every 100 ms: each recv returns
  // well within any per-call timeout, so only a total deadline ends it.
  const int slow = connect_to(server.port());
  std::atomic<bool> done{false};
  std::thread trickle([&] {
    const std::string head = "GET /stats HTTP/1.1\r\nX-Slow: ";
    for (std::size_t i = 0; !done; ++i) {
      const char c = i < head.size() ? head[i] : 'x';
      if (::send(slow, &c, 1, MSG_NOSIGNAL) != 1) break; // server hung up
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_LT(stats_seconds_behind(server.port()), kStatsBound);
  done = true;
  trickle.join();
  ::close(slow);
  server.stop();
}
