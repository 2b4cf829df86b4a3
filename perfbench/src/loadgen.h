// The open-loop load generator: the shipped stwa_fleet binary as a child
// process, driven over loopback TCP by one event-loop thread.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A spawned `stwa_fleet --config <conf> --port <p>` child. The destructor
/// terminates it and waits until it has exited.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, const std::string& config,
                const std::string& log_path);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int port() const { return port_; }
  /// False once the child has exited.
  bool Alive();
  /// Peak resident set (VmHWM) of the child so far, MiB.
  double PeakRssMb() const;
  /// Terminates and reaps the child (idempotent).
  void Stop();

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

/// One response as received, in send order per connection.
struct Received {
  /// Arrival time, nanoseconds from the step start.
  int64_t at_ns = -1;
  std::string line;
};

/// Outcome of one RunLines call.
struct WireOutcome {
  /// Parallel to the input lines; at_ns < 0 when no response arrived
  /// (the deadline passed or a socket failed).
  std::vector<Received> responses;
  /// Send time minus due time, per line (ms).
  std::vector<double> lag_ms;
};

/// `conns` loopback connections to a fleet node, multiplexed by one
/// event-loop thread (epoll + an absolute timerfd for due times).
class WireClient {
 public:
  /// Connects, retrying until the server listens or `timeout_s` passes
  /// (throws then, or when `server` exits first). With `quick_ack` the
  /// client acknowledges every read at once; without it the kernel's
  /// default delayed ACKs apply.
  WireClient(ServerProcess& server, int conns, double timeout_s,
             bool quick_ack = true);
  ~WireClient();
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  int conns() const { return static_cast<int>(fds_.size()); }

  /// Sends line i on connection conn[i] at due_ns[i] after the start
  /// (open loop: never waits for earlier answers) and collects every
  /// answer. Each connection answers in order, so answers are matched
  /// FIFO. Gives up `grace_s` after the last due time.
  WireOutcome RunLines(const std::vector<std::string>& lines,
                       const std::vector<int>& conn,
                       const std::vector<int64_t>& due_ns, double grace_s);

 private:
  std::vector<int> fds_;
  bool quick_ack_ = true;
  int epoll_fd_ = -1;
  int timer_fd_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
