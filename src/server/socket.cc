#include "server/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace dbrepair::server {

namespace {

Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

Result<sockaddr_in> ResolveV4(const std::string& host, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("cannot parse IPv4 address '" + host +
                                   "' (the server binds literal addresses, "
                                   "e.g. 127.0.0.1)");
  }
  return addr;
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::Shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<Socket> ListenTcp(const std::string& host, uint16_t port) {
  DBREPAIR_ASSIGN_OR_RETURN(const sockaddr_in addr, ResolveV4(host, port));
  Socket socket(::socket(AF_INET, SOCK_STREAM, 0));
  if (!socket.valid()) return Errno("socket");
  const int one = 1;
  if (::setsockopt(socket.fd(), SOL_SOCKET, SO_REUSEADDR, &one,
                   sizeof(one)) != 0) {
    return Errno("setsockopt(SO_REUSEADDR)");
  }
  if (::bind(socket.fd(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Errno("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(socket.fd(), SOMAXCONN) != 0) return Errno("listen");
  return socket;
}

Result<uint16_t> LocalPort(const Socket& socket) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(socket.fd(), reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return Errno("getsockname");
  }
  return static_cast<uint16_t>(ntohs(addr.sin_port));
}

Result<Socket> AcceptConn(const Socket& listener) {
  const int fd = ::accept(listener.fd(), nullptr, nullptr);
  if (fd < 0) return Errno("accept");
  Socket socket(fd);
  const int one = 1;
  // Replies are small command acknowledgements; never Nagle them.
  ::setsockopt(socket.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return socket;
}

Result<Socket> ConnectTcp(const std::string& host, uint16_t port) {
  DBREPAIR_ASSIGN_OR_RETURN(const sockaddr_in addr, ResolveV4(host, port));
  Socket socket(::socket(AF_INET, SOCK_STREAM, 0));
  if (!socket.valid()) return Errno("socket");
  if (::connect(socket.fd(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    return Errno("connect " + host + ":" + std::to_string(port));
  }
  const int one = 1;
  // Command/reply round trips are latency-bound; never Nagle them.
  ::setsockopt(socket.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return socket;
}

Status WriteAll(const Socket& socket, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n =
        ::send(socket.fd(), data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    data.remove_prefix(static_cast<size_t>(n));
  }
  return Status::OK();
}

bool LineReader::Fill() {
  if (pos_ > 0) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  char chunk[4096];
  while (true) {
    const ssize_t n = ::recv(socket_->fd(), chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
    return true;
  }
}

Status LineReader::ReadLine(size_t max_bytes, std::string* line) {
  while (true) {
    const size_t eol = buffer_.find('\n', pos_);
    if (eol != std::string::npos) {
      if (eol - pos_ > max_bytes) {
        pos_ = eol + 1;  // drop the oversized line, stay frame-aligned
        return Status::ResourceExhausted("line exceeds " +
                                         std::to_string(max_bytes) +
                                         " bytes");
      }
      line->assign(buffer_, pos_, eol - pos_);
      pos_ = eol + 1;
      if (!line->empty() && line->back() == '\r') line->pop_back();
      return Status::OK();
    }
    if (buffer_.size() - pos_ > max_bytes) {
      // The line is already over budget with no newline in sight. Consume
      // until the newline (bounded at 4x the limit) so the connection can
      // recover frame alignment, then report.
      const size_t cap = max_bytes * 4;
      while (buffer_.find('\n', pos_) == std::string::npos) {
        if (buffer_.size() - pos_ > cap || !Fill()) {
          return Status::IoError("unterminated oversized line");
        }
      }
      pos_ = buffer_.find('\n', pos_) + 1;
      return Status::ResourceExhausted(
          "line exceeds " + std::to_string(max_bytes) + " bytes");
    }
    if (!Fill()) return Status::IoError("connection closed");
  }
}

Status LineReader::ReadExact(size_t n, std::string* out) {
  // Take what is already buffered, then receive the rest straight into
  // `out`: a large payload is held once, not in buffer_ and again in `out`.
  const size_t buffered = std::min(n, buffer_.size() - pos_);
  out->append(buffer_, pos_, buffered);
  pos_ += buffered;
  size_t filled = out->size();
  out->resize(filled + (n - buffered));
  while (filled < out->size()) {
    const ssize_t got =
        ::recv(socket_->fd(), out->data() + filled, out->size() - filled, 0);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) {
      out->resize(filled);
      return Status::IoError("connection closed mid-payload");
    }
    filled += static_cast<size_t>(got);
  }
  return Status::OK();
}

}  // namespace dbrepair::server
