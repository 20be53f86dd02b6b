#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "fti/serve/serve.hpp"
#include "fti/util/error.hpp"

namespace fti::serve {

std::string request(const std::filesystem::path& socket_path,
                    const std::string& request_line) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw util::Error("serve",
                      "socket(): " + std::string(std::strerror(errno)));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string path = socket_path.string();
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    throw util::Error("serve", "socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    int saved = errno;
    ::close(fd);
    throw util::Error("serve", "connect('" + path +
                                   "'): " + std::string(std::strerror(saved)) +
                                   " (is the daemon running?)");
  }
  std::string payload = request_line;
  if (payload.empty() || payload.back() != '\n') {
    payload += '\n';
  }
  std::size_t sent = 0;
  int send_error = 0;
  while (sent < payload.size()) {
    // MSG_NOSIGNAL: a daemon that died mid-request surfaces as an EPIPE
    // error below instead of a SIGPIPE killing the client process.
    ssize_t n =
        ::send(fd, payload.data() + sent, payload.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      // A daemon at its connection cap replies "busy" and closes without
      // reading, so a failed send may still have a reply waiting.
      send_error = errno;
      break;
    }
    sent += static_cast<std::size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);
  std::string reply;
  char buffer[4096];
  while (true) {
    ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      break;
    }
    reply.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  if (send_error != 0 && reply.empty()) {
    throw util::Error("serve",
                      "write(): " + std::string(std::strerror(send_error)));
  }
  while (!reply.empty() && (reply.back() == '\n' || reply.back() == '\r')) {
    reply.pop_back();
  }
  return reply;
}

}  // namespace fti::serve
