#include "net/tcp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/check.h"

namespace deltav::net {
namespace {

[[noreturn]] void sys_fail(const char* what) {
  DV_FAIL(what << ": " << std::strerror(errno));
}

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string ip = host == "localhost" ? "127.0.0.1" : host;
  DV_CHECK_MSG(inet_pton(AF_INET, ip.c_str(), &addr.sin_addr) == 1,
               "not an IPv4 address: '" << host << "'");
  return addr;
}

}  // namespace

TcpStream::~TcpStream() { close(); }

TcpStream::TcpStream(TcpStream&& o) noexcept
    : fd_(o.fd_), buf_(std::move(o.buf_)) {
  o.fd_ = -1;
}

TcpStream& TcpStream::operator=(TcpStream&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = o.fd_;
    buf_ = std::move(o.buf_);
    o.fd_ = -1;
  }
  return *this;
}

TcpStream TcpStream::connect(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) sys_fail("socket");
  const sockaddr_in addr = make_addr(host, port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    sys_fail("connect");
  }
  const int one = 1;  // request/response protocol: don't Nagle-delay lines
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return TcpStream(fd);
}

bool TcpStream::read_line(std::string& line) {
  for (;;) {
    const auto nl = buf_.find('\n');
    if (nl != std::string::npos) {
      if (nl > kMaxLineBytes) overflow();
      line.assign(buf_, 0, nl);
      buf_.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return true;
    }
    if (buf_.size() > kMaxLineBytes) overflow();
    DV_CHECK_MSG(fd_ >= 0, "read_line on a closed stream");
    char chunk[4096];
    ssize_t n;
    do {
      n = ::recv(fd_, chunk, sizeof(chunk), 0);
    } while (n < 0 && errno == EINTR);
    if (n < 0) sys_fail("recv");
    if (n == 0) {
      // Orderly EOF. A partial unterminated line still counts as a line
      // (printf-driven clients may omit the final newline).
      if (buf_.empty()) return false;
      line = std::move(buf_);
      buf_.clear();
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return true;
    }
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

void TcpStream::overflow() {
  buf_ = std::string();  // release the memory, not just the contents
  throw LineTooLong();
}

void TcpStream::write_line(const std::string& line) {
  DV_CHECK_MSG(fd_ >= 0, "write_line on a closed stream");
  std::string out = line;
  out += '\n';
  std::size_t sent = 0;
  while (sent < out.size()) {
    ssize_t n;
    do {
      n = ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    } while (n < 0 && errno == EINTR);
    if (n < 0) sys_fail("send");
    sent += static_cast<std::size_t>(n);
  }
}

void TcpStream::shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void TcpStream::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

TcpListener::TcpListener(std::uint16_t port, const std::string& bind_addr) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) sys_fail("socket");
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = make_addr(bind_addr, port);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    sys_fail("bind");
  }
  if (::listen(fd_, 64) != 0) sys_fail("listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    sys_fail("getsockname");
  }
  port_ = ntohs(addr.sin_port);
}

TcpListener::~TcpListener() { close(); }

TcpStream TcpListener::accept() {
  for (;;) {
    const int lfd = fd_;
    if (lfd < 0) return TcpStream();  // closed: shutdown path
    const int cfd = ::accept(lfd, nullptr, nullptr);
    if (cfd >= 0) {
      const int one = 1;
      ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return TcpStream(cfd);
    }
    if (errno == EINTR) continue;
    // close() from another thread makes the blocked accept fail with
    // EBADF/EINVAL/ECONNABORTED depending on the kernel's timing — all of
    // them mean "stop accepting" once fd_ is gone.
    if (fd_ < 0) return TcpStream();
    if (errno == ECONNABORTED) continue;
    sys_fail("accept");
  }
}

void TcpListener::close() {
  const int fd = fd_;
  fd_ = -1;
  if (fd >= 0) {
    // shutdown() wakes a concurrently blocked accept() before the close.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

}  // namespace deltav::net
