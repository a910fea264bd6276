#include "service/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "experiment/report.hpp"

namespace sdcgmres::service {

namespace {

[[noreturn]] void http_fail(const char* what) {
  throw std::runtime_error(std::string("http: ") + what +
                           " failed: " + std::strerror(errno));
}

const char* reason_phrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 201: return "Created";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
    default: return "Unknown";
  }
}

/// Send all of \p data (MSG_NOSIGNAL: a client that hung up must not
/// SIGPIPE the daemon).
bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// recv() that gives up at \p deadline: before every call SO_RCVTIMEO is
/// set to the time remaining, so a client trickling bytes cannot stretch
/// the connection past it.  Returns the byte count, or 0 when the client
/// hung up, the deadline passed or the socket failed.
ssize_t recv_before(int fd, char* buf, std::size_t len,
                    std::chrono::steady_clock::time_point deadline) {
  while (true) {
    const auto left = std::chrono::duration_cast<std::chrono::microseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return 0; // (a zero timeval would never expire)
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(left.count() / 1000000);
    tv.tv_usec = static_cast<suseconds_t>(left.count() % 1000000);
    if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
      return 0;
    }
    const ssize_t n = ::recv(fd, buf, len, 0);
    if (n < 0 && errno == EINTR) continue;
    return n < 0 ? 0 : n; // EAGAIN/EWOULDBLOCK: the deadline passed
  }
}

/// Cap on a request head and on a request body, each.
constexpr std::size_t kMaxMessage = std::size_t{1} << 20;

/// The declared body size of a request, or the status that refuses it.
struct BodyLength {
  std::size_t bytes = 0;
  int refuse = 0; ///< 400 malformed, 413 over kMaxMessage, 0 accepted
};

/// Case-insensitive Content-Length lookup in a raw header block (0 bytes
/// when absent).  The value must be a plain decimal: a sign, a non-digit
/// or trailing garbage answers 400, a size over kMaxMessage answers 413.
BodyLength content_length(const std::string& headers) {
  static constexpr std::string_view kName = "content-length:";
  for (std::size_t pos = 0; pos < headers.size();) {
    std::size_t eol = headers.find("\r\n", pos);
    if (eol == std::string::npos) eol = headers.size();
    const std::string_view line =
        std::string_view(headers).substr(pos, eol - pos);
    pos = eol + 2;
    if (line.size() < kName.size() ||
        !std::equal(kName.begin(), kName.end(), line.begin(),
                    [](char a, char b) {
                      return a == std::tolower(static_cast<unsigned char>(b));
                    })) {
      continue;
    }
    std::string_view value = line.substr(kName.size());
    const std::size_t first = value.find_first_not_of(" \t");
    if (first == std::string_view::npos) return {0, 400};
    value = value.substr(first, value.find_last_not_of(" \t") - first + 1);
    if (value.find_first_not_of("0123456789") != std::string_view::npos) {
      return {0, 400};
    }
    std::size_t bytes = 0;
    for (const char c : value) {
      bytes = bytes * 10 + static_cast<std::size_t>(c - '0');
      if (bytes > kMaxMessage) return {0, 413}; // stops before overflow
    }
    return {bytes, 0};
  }
  return {};
}

} // namespace

HttpServer::HttpServer(std::uint16_t port, Handler handler)
    : handler_(std::move(handler)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) http_fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    http_fail("bind");
  }
  if (::listen(listen_fd_, 16) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    http_fail("listen");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    http_fail("getsockname");
  }
  port_ = ntohs(addr.sin_port);
}

HttpServer::~HttpServer() {
  stop();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void HttpServer::start() {
  if (running_.exchange(true)) return;
  thread_ = std::thread([this] { serve(); });
}

void HttpServer::stop() {
  if (!running_.exchange(false)) return;
  // Unblock accept(): shutdown makes the pending accept fail, and the
  // loop exits on the running_ flag.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
}

void HttpServer::serve() {
  while (running_) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break; // listening socket shut down (stop()) or broken
    }
    handle_connection(fd);
    ::close(fd);
  }
}

void HttpServer::handle_connection(int fd) {
  // One total receive deadline per connection: an idle or trickling
  // client is dropped instead of stalling every request queued behind it.
  const auto deadline = std::chrono::steady_clock::now() + kReceiveDeadline;
  std::string data;
  char buf[4096];
  std::size_t header_end = std::string::npos;
  // Read the request head first...
  while (header_end == std::string::npos) {
    const ssize_t n = recv_before(fd, buf, sizeof(buf), deadline);
    if (n == 0) return; // client hung up or ran out of time mid-request
    data.append(buf, static_cast<std::size_t>(n));
    header_end = data.find("\r\n\r\n");
    if (data.size() > kMaxMessage) return; // refuse unbounded heads
  }
  const std::size_t body_start = header_end + 4;
  const std::size_t line_end = data.find("\r\n");
  const std::string request_line = data.substr(0, line_end);
  const std::string headers =
      data.substr(line_end + 2, header_end - line_end - 2);
  // ...then exactly Content-Length body bytes, unless the declared
  // length is refused.
  const BodyLength body = content_length(headers);
  while (body.refuse == 0 && data.size() - body_start < body.bytes) {
    const ssize_t n = recv_before(fd, buf, sizeof(buf), deadline);
    if (n == 0) return;
    data.append(buf, static_cast<std::size_t>(n));
  }

  HttpRequest request;
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos
                               : request_line.find(' ', sp1 + 1);
  HttpResponse response;
  if (body.refuse != 0) {
    response.status = body.refuse;
    response.body = body.refuse == 413
                        ? "{\"error\": \"request body over 1 MiB\"}\n"
                        : "{\"error\": \"malformed Content-Length\"}\n";
  } else if (sp1 == std::string::npos || sp2 == std::string::npos) {
    response.status = 400;
    response.body = "{\"error\": \"malformed request line\"}\n";
  } else {
    request.method = request_line.substr(0, sp1);
    request.target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
    request.body = data.substr(body_start, body.bytes);
    try {
      response = handler_(request);
    } catch (const std::exception& e) {
      response.status = 500;
      response.body = "{\"error\": \"" + experiment::json_escape(e.what()) +
                      "\"}\n";
    }
  }

  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    reason_phrase(response.status) +
                    "\r\nContent-Type: " + response.content_type +
                    "\r\nContent-Length: " +
                    std::to_string(response.body.size()) +
                    "\r\nConnection: close\r\n\r\n" + response.body;
  send_all(fd, out);
}

} // namespace sdcgmres::service
