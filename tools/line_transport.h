// The line transports shared by the serving CLIs (stwa_serve, stwa_fleet).
//
// Both CLIs speak a newline-delimited text protocol through a per-client
// session object with one method:
//
//   std::optional<std::string> Handle(const std::string& line, bool* quit);
//
// and differ only in the session type (serve::LineSession over a Server,
// fleet::FleetLineSession over a FleetNode). ServeStdio runs one session
// on stdin/stdout; ServeTcp listens on 127.0.0.1:<port> and runs one
// thread and one session per accepted connection, all sharing the backend.
// Accepted sockets set TCP_NODELAY: every response is one small write, and
// Nagle's algorithm would hold it back until the client's delayed ACK.

#ifndef STWA_TOOLS_LINE_TRANSPORT_H_
#define STWA_TOOLS_LINE_TRANSPORT_H_

#include <functional>
#include <iostream>
#include <optional>
#include <string>

namespace stwa {
namespace tools {

/// Handles one request line; returns the response line (if any) and sets
/// *quit to end the connection.
using LineHandler =
    std::function<std::optional<std::string>(const std::string&, bool*)>;

/// Reads lines from socket `fd` until EOF, a failed write or quit, writing
/// each response plus '\n' back. Closes `fd`.
void ServeSocketLines(int fd, const LineHandler& handle);

/// Accepts loopback TCP connections on `port` with TCP_NODELAY set, and
/// runs `serve_connection(fd)` on a new thread for each. Returns 1 when the
/// port cannot be bound; otherwise serves until accept fails, joins every
/// connection thread and returns 0.
int AcceptLoop(int port, const std::function<void(int)>& serve_connection);

/// Runs one `Session(backend)` over stdin/stdout until EOF or quit.
template <typename Session, typename Backend>
void ServeStdio(Backend& backend) {
  Session session(backend);
  std::string line;
  bool quit = false;
  while (!quit && std::getline(std::cin, line)) {
    auto resp = session.Handle(line, &quit);
    if (resp) std::cout << *resp << "\n" << std::flush;
  }
}

/// Serves `backend` over loopback TCP, one `Session(backend)` per client.
template <typename Session, typename Backend>
int ServeTcp(Backend& backend, int port) {
  return AcceptLoop(port, [&backend](int fd) {
    Session session(backend);
    ServeSocketLines(fd, [&session](const std::string& line, bool* quit) {
      return session.Handle(line, quit);
    });
  });
}

}  // namespace tools
}  // namespace stwa

#endif  // STWA_TOOLS_LINE_TRANSPORT_H_
