#include "src/support/net.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace specmine {

namespace {

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

}  // namespace

Result<size_t> Socket::Read(char* buffer, size_t capacity) const {
  while (true) {
    const ssize_t n = ::recv(fd_, buffer, capacity, 0);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EINTR) continue;
    return Errno("recv");
  }
}

void Socket::SetReadTimeout(unsigned seconds) const {
  timeval tv{};
  tv.tv_sec = seconds;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

Status Socket::WriteAll(std::string_view data) const {
  return WriteAll(data, std::string_view());
}

Status Socket::WriteAll(std::string_view head, std::string_view body) const {
  iovec iov[2] = {
      {const_cast<char*>(head.data()), head.size()},
      {const_cast<char*>(body.data()), body.size()},
  };
  iovec* next = iov;
  size_t count = 2;
  while (count > 0) {
    if (next->iov_len == 0) {
      ++next;
      --count;
      continue;
    }
    msghdr msg{};
    msg.msg_iov = next;
    msg.msg_iovlen = count;
    // MSG_NOSIGNAL: a peer that hung up yields EPIPE, not a fatal SIGPIPE.
    ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("sendmsg");
    }
    // Advance past what was written; a partial write may end mid-buffer.
    while (n > 0) {
      const size_t step = std::min(static_cast<size_t>(n), next->iov_len);
      next->iov_base = static_cast<char*>(next->iov_base) + step;
      next->iov_len -= step;
      n -= static_cast<ssize_t>(step);
      if (next->iov_len == 0) {
        ++next;
        --count;
      }
    }
  }
  return Status::OK();
}

void Socket::Shutdown() const {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<Listener> Listener::Listen(const std::string& host, uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  Socket sock(fd);

  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen address '" + host +
                                   "' (IPv4 dotted quad expected)");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Errno("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(fd, 128) != 0) return Errno("listen");

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    return Errno("getsockname");
  }

  Listener listener;
  listener.socket_ = std::move(sock);
  listener.port_ = ntohs(bound.sin_port);
  return listener;
}

Result<Socket> Listener::Accept() const {
  while (true) {
    const int fd = ::accept(socket_.fd(), nullptr, nullptr);
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    return Errno("accept");
  }
}

Result<Socket> ConnectTcp(const std::string& host, uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  Socket sock(fd);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad connect address '" + host + "'");
  }
  while (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
         0) {
    if (errno == EINTR) continue;
    return Errno("connect " + host + ":" + std::to_string(port));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return sock;
}

}  // namespace specmine
