#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <thread>

#include "report.h"

namespace perfbench {
namespace {

/// A loopback port that was free a moment ago (the child binds it next).
int PickPort() {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    close(fd);
    throw std::runtime_error("cannot pick a loopback port");
  }
  close(fd);
  return ntohs(addr.sin_port);
}

}  // namespace

ServerProcess::ServerProcess(const std::string& binary,
                             const std::string& config,
                             const std::string& log_path)
    : port_(PickPort()) {
  const std::string port = std::to_string(port_);
  pid_ = fork();
  if (pid_ < 0) throw std::runtime_error("fork() failed");
  if (pid_ == 0) {
    // Die with the benchmark, however it ends.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int log = open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log >= 0) {
      dup2(log, STDOUT_FILENO);
      dup2(log, STDERR_FILENO);
      close(log);
    }
    execl(binary.c_str(), binary.c_str(), "--config", config.c_str(),
          "--port", port.c_str(), static_cast<char*>(nullptr));
    _exit(127);
  }
}

ServerProcess::~ServerProcess() { Stop(); }

bool ServerProcess::Alive() {
  if (pid_ < 0) return false;
  int status = 0;
  if (waitpid(pid_, &status, WNOHANG) == pid_) {
    pid_ = -1;
    return false;
  }
  return true;
}

double ServerProcess::PeakRssMb() const {
  return perfbench::PeakRssMb(std::to_string(pid_));
}

void ServerProcess::Stop() {
  if (pid_ < 0) return;
  kill(pid_, SIGKILL);
  int status = 0;
  waitpid(pid_, &status, 0);
  pid_ = -1;
}

WireClient::WireClient(ServerProcess& server, int conns, double timeout_s,
                       bool quick_ack)
    : quick_ack_(quick_ack) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_s * 1e9);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  while (static_cast<int>(fds_.size()) < conns) {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("socket() failed");
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      const int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
      fds_.push_back(fd);
      continue;
    }
    close(fd);
    if (!server.Alive()) throw std::runtime_error("stwa_fleet exited early");
    if (NowNs() > deadline) {
      throw std::runtime_error("stwa_fleet did not start listening");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  epoll_fd_ = epoll_create1(0);
  timer_fd_ = timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK);
  if (epoll_fd_ < 0 || timer_fd_ < 0) {
    throw std::runtime_error("epoll/timerfd setup failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u32 = static_cast<uint32_t>(fds_.size());
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &ev);
  for (size_t c = 0; c < fds_.size(); ++c) {
    ev.events = EPOLLIN;
    ev.data.u32 = static_cast<uint32_t>(c);
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fds_[c], &ev);
  }
}

WireClient::~WireClient() {
  for (int fd : fds_) close(fd);
  if (epoll_fd_ >= 0) close(epoll_fd_);
  if (timer_fd_ >= 0) close(timer_fd_);
}

WireOutcome WireClient::RunLines(const std::vector<std::string>& lines,
                                 const std::vector<int>& conn,
                                 const std::vector<int64_t>& due_ns,
                                 double grace_s) {
  struct Conn {
    std::string out;
    size_t out_off = 0;
    bool want_write = false;
    std::string in;
    std::deque<size_t> pending;
  };
  const size_t total = lines.size();
  WireOutcome result;
  result.responses.resize(total);
  result.lag_ms.resize(total);
  std::vector<Conn> cs(fds_.size());
  const int64_t start = NowNs() + 1'000'000;  // 1 ms lead for the first line
  const int64_t last_due = total > 0 ? due_ns.back() : 0;
  const int64_t give_up =
      start + last_due + static_cast<int64_t>(grace_s * 1e9);
  size_t next = 0;
  size_t answered = 0;
  int64_t armed = -1;
  bool failed = false;

  auto set_write_interest = [&](size_t c, bool on) {
    if (cs[c].want_write == on) return;
    cs[c].want_write = on;
    epoll_event ev{};
    ev.events = EPOLLIN | (on ? EPOLLOUT : 0u);
    ev.data.u32 = static_cast<uint32_t>(c);
    epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fds_[c], &ev);
  };
  auto flush = [&](size_t c) {
    Conn& k = cs[c];
    while (k.out_off < k.out.size()) {
      const ssize_t w = write(fds_[c], k.out.data() + k.out_off,
                              k.out.size() - k.out_off);
      if (w > 0) {
        k.out_off += static_cast<size_t>(w);
      } else if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else {
        failed = true;
        return;
      }
    }
    if (k.out_off == k.out.size()) {
      k.out.clear();
      k.out_off = 0;
    }
    set_write_interest(c, !k.out.empty());
  };

  char chunk[1 << 16];
  epoll_event events[16];
  while (answered < total && !failed) {
    int64_t now = NowNs();
    if (now > give_up) break;
    // Send everything due. Answers never gate a send (open loop).
    std::vector<bool> touched(fds_.size(), false);
    while (next < total && start + due_ns[next] <= now) {
      const size_t c = static_cast<size_t>(conn[next]);
      cs[c].out += lines[next];
      cs[c].out += '\n';
      cs[c].pending.push_back(next);
      result.lag_ms[next] =
          static_cast<double>(now - (start + due_ns[next])) * 1e-6;
      ++next;
      touched[c] = true;
    }
    for (size_t c = 0; c < fds_.size(); ++c) {
      if (touched[c]) flush(c);
    }
    if (next < total && armed != start + due_ns[next]) {
      armed = start + due_ns[next];
      itimerspec spec{};
      spec.it_value.tv_sec = armed / 1'000'000'000;
      spec.it_value.tv_nsec = armed % 1'000'000'000;
      timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr);
    }
    const int64_t wait_ns =
        next < total ? -1 : std::max<int64_t>(0, give_up - now);
    const int timeout_ms =
        wait_ns < 0 ? 100 : static_cast<int>(wait_ns / 1'000'000 + 1);
    const int n = epoll_wait(epoll_fd_, events, 16, timeout_ms);
    now = NowNs();
    for (int e = 0; e < n; ++e) {
      const size_t c = events[e].data.u32;
      if (c == fds_.size()) {
        uint64_t expirations = 0;
        [[maybe_unused]] ssize_t r =
            read(timer_fd_, &expirations, sizeof(expirations));
        continue;
      }
      if (events[e].events & EPOLLOUT) flush(c);
      if (!(events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR))) continue;
      for (;;) {
        const ssize_t r = read(fds_[c], chunk, sizeof(chunk));
        if (r > 0) {
          if (quick_ack_) {
            // Acknowledge at once (quick-ACK is not sticky: re-armed per
            // read); perfbench/README.md explains why.
            const int one = 1;
            setsockopt(fds_[c], IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
          }
          cs[c].in.append(chunk, static_cast<size_t>(r));
          continue;
        }
        if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        failed = true;  // EOF or error: the node dropped the connection
        break;
      }
      Conn& k = cs[c];
      size_t begin = 0;
      size_t pos;
      while ((pos = k.in.find('\n', begin)) != std::string::npos) {
        if (k.pending.empty()) {
          failed = true;  // an answer nobody asked for
          break;
        }
        const size_t i = k.pending.front();
        k.pending.pop_front();
        result.responses[i].at_ns = now - start;
        result.responses[i].line.assign(k.in, begin, pos - begin);
        ++answered;
        begin = pos + 1;
      }
      k.in.erase(0, begin);
    }
  }
  return result;
}

}  // namespace perfbench
