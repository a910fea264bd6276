#include "service/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

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

/// Case-insensitive Content-Length lookup in a raw header block.
std::size_t content_length(const std::string& headers) {
  static constexpr const char* kName = "content-length:";
  for (std::size_t pos = 0; pos < headers.size();) {
    std::size_t eol = headers.find("\r\n", pos);
    if (eol == std::string::npos) eol = headers.size();
    const std::string line = headers.substr(pos, eol - pos);
    std::string lower;
    lower.reserve(line.size());
    for (const char c : line) {
      lower.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    }
    if (lower.rfind(kName, 0) == 0) {
      try {
        return static_cast<std::size_t>(
            std::stoull(line.substr(std::strlen(kName))));
      } catch (const std::exception&) {
        return 0;
      }
    }
    pos = eol + 2;
  }
  return 0;
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
  std::string data;
  char buf[4096];
  std::size_t header_end = std::string::npos;
  // Read the request head first...
  while (header_end == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return; // client hung up mid-request
    }
    data.append(buf, static_cast<std::size_t>(n));
    header_end = data.find("\r\n\r\n");
    if (data.size() > (1u << 20)) return; // refuse unbounded heads
  }
  const std::size_t body_start = header_end + 4;
  const std::size_t line_end = data.find("\r\n");
  const std::string request_line = data.substr(0, line_end);
  const std::string headers =
      data.substr(line_end + 2, header_end - line_end - 2);
  // ...then exactly Content-Length body bytes.
  const std::size_t want = content_length(headers);
  while (data.size() - body_start < want) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;
    }
    data.append(buf, static_cast<std::size_t>(n));
  }

  HttpRequest request;
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos
                               : request_line.find(' ', sp1 + 1);
  HttpResponse response;
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    response.status = 400;
    response.body = "{\"error\": \"malformed request line\"}\n";
  } else {
    request.method = request_line.substr(0, sp1);
    request.target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
    request.body = data.substr(body_start, want);
    try {
      response = handler_(request);
    } catch (const std::exception& e) {
      response.status = 500;
      response.body = std::string("{\"error\": \"") + e.what() + "\"}\n";
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
