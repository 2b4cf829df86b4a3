#include "line_transport.h"

#include <cerrno>
#include <cstring>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

namespace stwa {
namespace tools {

void ServeSocketLines(int fd, const LineHandler& handle) {
  std::string buffer;
  char chunk[4096];
  bool quit = false;
  while (!quit) {
    const ssize_t n = read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    buffer.append(chunk, static_cast<size_t>(n));
    size_t pos;
    while (!quit && (pos = buffer.find('\n')) != std::string::npos) {
      const std::string line = buffer.substr(0, pos);
      buffer.erase(0, pos + 1);
      auto resp = handle(line, &quit);
      if (resp) {
        std::string out = *resp + "\n";
        size_t written = 0;
        while (written < out.size()) {
          const ssize_t w =
              write(fd, out.data() + written, out.size() - written);
          if (w <= 0) {
            quit = true;
            break;
          }
          written += static_cast<size_t>(w);
        }
      }
    }
  }
  close(fd);
}

int AcceptLoop(int port, const std::function<void(int)>& serve_connection) {
  const int listener = socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) {
    std::cerr << "socket() failed: " << std::strerror(errno) << "\n";
    return 1;
  }
  const int one = 1;
  setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      listen(listener, 16) < 0) {
    std::cerr << "bind/listen on port " << port
              << " failed: " << std::strerror(errno) << "\n";
    close(listener);
    return 1;
  }
  std::cerr << "listening on 127.0.0.1:" << port << "\n";
  std::vector<std::thread> connections;
  for (;;) {
    const int fd = accept(listener, nullptr, nullptr);
    if (fd < 0) break;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections.emplace_back([fd, &serve_connection] { serve_connection(fd); });
  }
  for (std::thread& t : connections) t.join();
  close(listener);
  return 0;
}

}  // namespace tools
}  // namespace stwa
