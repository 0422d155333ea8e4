// Minimal blocking TCP transport for the dv_serve daemon.
//
// Everything else under net/ is the *simulated* cluster model (the
// documented stand-in for the paper's EC2 deployment); this is the one
// place real sockets appear, because serving is an actually-networked
// concern: dv_serve clients are external processes. Scope is deliberately
// small — IPv4 loopback-or-given-interface, blocking I/O, line framing —
// the daemon's concurrency lives in its threads, not in the transport.
//
// All failures throw CheckError with the errno text, except an
// over-long line, which throws LineTooLong; EOF on read_line is a return
// value, not an error (clients hanging up is normal).
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace deltav::net {

/// Longest line read_line() accepts, in bytes before the newline. Far
/// above any line of the serve protocol; it bounds what one peer can make
/// a reader buffer.
inline constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

/// Thrown by read_line() when a line exceeds kMaxLineBytes. The stream
/// is then mid-line; the caller answers the peer and drops it.
class LineTooLong : public std::runtime_error {
 public:
  LineTooLong() : std::runtime_error("line too long") {}
};

/// One connected socket with buffered line reading. Move-only (owns the
/// fd). Writes never raise SIGPIPE: a peer hang-up surfaces as a thrown
/// CheckError on the writing thread instead of killing the process.
class TcpStream {
 public:
  TcpStream() = default;
  explicit TcpStream(int fd) : fd_(fd) {}
  ~TcpStream();

  TcpStream(TcpStream&& o) noexcept;
  TcpStream& operator=(TcpStream&& o) noexcept;
  TcpStream(const TcpStream&) = delete;
  TcpStream& operator=(const TcpStream&) = delete;

  /// Connects to host:port (numeric IPv4 dotted quad or "localhost").
  static TcpStream connect(const std::string& host, std::uint16_t port);

  bool valid() const { return fd_ >= 0; }

  /// Reads up to the next '\n' (stripped, along with a preceding '\r').
  /// Returns false on orderly EOF with no buffered partial line. Throws
  /// LineTooLong, discarding the buffered bytes, once a line exceeds
  /// kMaxLineBytes, so the buffer never holds more than that plus one
  /// receive chunk.
  bool read_line(std::string& line);

  /// Bytes received but not yet returned by read_line().
  std::size_t buffered_bytes() const { return buf_.size(); }

  /// Writes `line` plus '\n', fully.
  void write_line(const std::string& line);

  /// Half-closes both directions without releasing the fd: a thread
  /// blocked in read_line() on this stream wakes with EOF. This is the
  /// cross-thread wake primitive (close() from another thread would not
  /// reliably interrupt a blocked recv, and would race the fd number).
  void shutdown();

  void close();

 private:
  [[noreturn]] void overflow();

  int fd_ = -1;
  std::string buf_;  // bytes received but not yet returned
};

/// A listening IPv4 socket. Pass port 0 for an ephemeral port and read
/// the actual one back via port() — tests and the CI smoke job do this to
/// avoid collisions.
class TcpListener {
 public:
  /// Binds and listens on `bind_addr`:`port` (SO_REUSEADDR set).
  explicit TcpListener(std::uint16_t port,
                       const std::string& bind_addr = "127.0.0.1");
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  std::uint16_t port() const { return port_; }

  /// Blocks for the next connection. Returns an invalid stream when the
  /// listener was close()d from another thread (the shutdown path).
  TcpStream accept();

  /// Unblocks accept(); safe to call from another thread.
  void close();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace deltav::net
