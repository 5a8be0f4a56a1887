// A thin RAII layer over POSIX TCP sockets — just enough for the
// specmined HTTP server and its tests: bind+listen (ephemeral ports
// supported, the bound port is reported back), accept, and blocking
// read/write with Status errors. No third-party dependencies.
//
// All operations translate errno into Status values; nothing here throws.
// Sockets are movable, non-copyable, and close on destruction. Shutdown()
// is safe to call from another thread, which is how the server unblocks a
// connection thread parked in Read() during shutdown.

#ifndef SPECMINE_SUPPORT_NET_H_
#define SPECMINE_SUPPORT_NET_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/support/status.h"

namespace specmine {

/// \brief An owned socket file descriptor.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// \brief Reads up to \p capacity bytes. Returns the count read; 0 means
  /// the peer closed the connection. Retries EINTR. With a read timeout
  /// armed, an idle wait past it fails with an IOError (EAGAIN).
  Result<size_t> Read(char* buffer, size_t capacity) const;

  /// \brief Arms SO_RCVTIMEO: a Read() blocked longer than \p seconds
  /// fails instead of waiting forever (how the server sheds idle
  /// keep-alive connections). 0 restores the blocking default.
  void SetReadTimeout(unsigned seconds) const;

  /// \brief Writes all of \p data (looping over partial writes).
  Status WriteAll(std::string_view data) const;

  /// \brief Writes all of \p head, then all of \p body, as one gathered
  /// send per call (looping over partial writes) — the bytes of
  /// WriteAll(head + body) without building that string.
  Status WriteAll(std::string_view head, std::string_view body) const;

  /// \brief Half-closes both directions, unblocking any reader parked on
  /// the fd (the descriptor itself stays owned until destruction). Safe
  /// to call from another thread and more than once.
  void Shutdown() const;

  /// \brief Closes the descriptor now (idempotent).
  void Close();

 private:
  int fd_ = -1;
};

/// \brief A listening TCP socket.
class Listener {
 public:
  /// \brief Binds \p host:\p port (port 0 = kernel-assigned ephemeral
  /// port) with SO_REUSEADDR and starts listening.
  static Result<Listener> Listen(const std::string& host, uint16_t port);

  /// \brief The actually bound port (resolves port-0 requests).
  uint16_t port() const { return port_; }

  /// \brief Accepts one connection (blocking). After Shutdown() the
  /// pending accept fails with an IOError, which a server loop treats as
  /// the stop signal.
  Result<Socket> Accept() const;

  /// \brief Unblocks a pending Accept (thread-safe).
  void Shutdown() const { socket_.Shutdown(); }

 private:
  Socket socket_;
  uint16_t port_ = 0;
};

/// \brief Connects to \p host:\p port (blocking); for tests and clients.
Result<Socket> ConnectTcp(const std::string& host, uint16_t port);

}  // namespace specmine

#endif  // SPECMINE_SUPPORT_NET_H_
