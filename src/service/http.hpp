#pragma once
/// \file http.hpp
/// \brief Self-contained HTTP/1.1 endpoint over POSIX sockets.
///
/// Just enough HTTP for the service's four routes: request-line + headers
/// parsed, Content-Length bodies read, one response per connection
/// (Connection: close).  Requests are handled serially on the accept
/// thread -- every handler in sdc_serve is a quick spool/journal read or
/// an enqueue; the solves themselves run on the scheduler's workers, so
/// a slow sweep never blocks the status endpoint.  A connection that has
/// not delivered its whole request within kReceiveDeadline is closed
/// unanswered, so an idle or trickling client delays the requests behind
/// it by at most that long.  No external dependencies, IPv4 loopback by
/// default.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

namespace sdcgmres::service {

struct HttpRequest {
  std::string method; ///< e.g. "GET", "POST"
  std::string target; ///< path part of the request line, e.g. "/jobs/j1"
  std::string body;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
};

class HttpServer {
public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  /// Total time a connection gets, from accept, to deliver its request
  /// head and body.
  static constexpr std::chrono::milliseconds kReceiveDeadline{2000};

  /// Bind + listen on 127.0.0.1:\p port (0 = kernel-assigned ephemeral
  /// port, read it back via port()).  Throws std::runtime_error on
  /// socket/bind/listen failure.  Call start() to begin serving.
  HttpServer(std::uint16_t port, Handler handler);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Spawn the accept loop thread.
  void start();

  /// Stop accepting, close the listening socket, join (idempotent).
  void stop();

  /// The actually bound port (resolves port 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

private:
  void serve();
  void handle_connection(int fd);

  Handler handler_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<bool> running_{false}; ///< written by stop(), read by serve()
};

} // namespace sdcgmres::service
