// `nwbench_tool load`: the open-loop SUBMIT generator for nwqueryd.
//
//   nwbench_tool load --socket S --requests F --out F --rate R --seconds S
//
// Sends SUBMIT lines from F (cycled in order) at R per second for S
// seconds on a fixed schedule, whatever the daemon's progress:
// independent users, not callers waiting on replies. At its due time a
// request is queued on whichever of the 4 connections has the fewest
// outstanding requests. One thread runs everything from an epoll loop
// woken by a timerfd at each due time, with non-blocking sockets, so the
// generator competes with the daemon for as little CPU as possible.
//
// Every request is written to --out as one tab-separated line:
//   seq doc conn due_ns sent_ns recv_ns response
// with times relative to the schedule origin, sent_ns = -1 for a request
// never sent and recv_ns = -1 for one never answered. `sent_ns` is when
// the request was queued on its connection, so `sent_ns - due_ns` is how
// late the generator itself ran; latency is timed from due_ns.
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "common.h"

namespace nwbench {

namespace {

constexpr size_t kConnections = 4;

struct Request {
  size_t doc = 0;
  int conn = -1;
  int64_t due = 0;
  int64_t sent = -1;
  int64_t recv = -1;
  std::string response;
};

struct Connection {
  int fd = -1;
  std::string out;        ///< bytes queued but not yet written
  size_t out_off = 0;
  bool want_write = false;
  std::string in;         ///< bytes read but not yet split into lines
  std::deque<size_t> fifo;  ///< requests awaiting a response, in order
};

int Connect(const std::string& path) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

class Generator {
 public:
  Generator(std::vector<Request>* reqs, const std::vector<std::string>* lines)
      : reqs_(*reqs), lines_(*lines) {}

  ~Generator() {
    for (Connection& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
    if (timer_ >= 0) ::close(timer_);
    if (epoll_ >= 0) ::close(epoll_);
  }

  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  bool Open(const std::string& path, size_t conns) {
    epoll_ = ::epoll_create1(0);
    timer_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK);
    if (epoll_ < 0 || timer_ < 0) return false;
    Watch(timer_, EPOLLIN, -1, EPOLL_CTL_ADD);
    conns_.resize(conns);
    for (size_t i = 0; i < conns; ++i) {
      conns_[i].fd = Connect(path);
      if (conns_[i].fd < 0) return false;
      Watch(conns_[i].fd, EPOLLIN, static_cast<int>(i), EPOLL_CTL_ADD);
    }
    return true;
  }

  /// Runs the whole schedule, then waits up to `drain_ns` for answers.
  /// Returns false if a connection failed.
  bool Run(int64_t origin, int64_t drain_ns) {
    origin_ = origin;
    ArmTimer();
    int64_t deadline = -1;
    epoll_event events[16];
    while (received_ < sent_ || next_ < reqs_.size()) {
      int timeout = -1;
      if (next_ == reqs_.size()) {
        if (deadline < 0) deadline = NowNs() + drain_ns;
        int64_t left = deadline - NowNs();
        if (left <= 0) break;
        timeout = static_cast<int>(left / 1'000'000 + 1);
      }
      int n = ::epoll_wait(epoll_, events, 16, timeout);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) return false;
      for (int e = 0; e < n; ++e) {
        int id = static_cast<int>(events[e].data.u64);
        if (id < 0) {
          uint64_t ticks;
          while (::read(timer_, &ticks, sizeof(ticks)) > 0) {
          }
          DispatchDue();
          ArmTimer();
          continue;
        }
        Connection& c = conns_[id];
        if (events[e].events & (EPOLLERR | EPOLLHUP) &&
            !(events[e].events & EPOLLIN)) {
          return false;
        }
        if ((events[e].events & EPOLLIN) && !Read(&c)) return false;
        if ((events[e].events & EPOLLOUT) && !Flush(&c, id)) return false;
      }
    }
    for (Connection& c : conns_) ::shutdown(c.fd, SHUT_RDWR);
    return true;
  }

 private:
  void Watch(int fd, uint32_t events, int id, int op) {
    epoll_event ev{};
    ev.events = events;
    ev.data.u64 = static_cast<uint64_t>(static_cast<int64_t>(id));
    ::epoll_ctl(epoll_, op, fd, &ev);
  }

  void ArmTimer() {
    itimerspec spec{};
    if (next_ < reqs_.size()) {
      int64_t at = origin_ + reqs_[next_].due;
      spec.it_value.tv_sec = at / 1'000'000'000;
      spec.it_value.tv_nsec = at % 1'000'000'000;
    }
    ::timerfd_settime(timer_, TFD_TIMER_ABSTIME, &spec, nullptr);
  }

  void DispatchDue() {
    const int64_t now = NowNs() - origin_;
    while (next_ < reqs_.size() && reqs_[next_].due <= now) {
      size_t best = 0;
      for (size_t c = 1; c < conns_.size(); ++c) {
        if (conns_[c].fifo.size() < conns_[best].fifo.size()) best = c;
      }
      Request& r = reqs_[next_];
      Connection& c = conns_[best];
      r.conn = static_cast<int>(best);
      r.sent = NowNs() - origin_;
      c.fifo.push_back(next_);
      c.out.append(lines_[r.doc]);
      ++sent_;
      ++next_;
      Flush(&c, static_cast<int>(best));
    }
  }

  bool Flush(Connection* c, int id) {
    while (c->out_off < c->out.size()) {
      ssize_t n = ::send(c->fd, c->out.data() + c->out_off,
                         c->out.size() - c->out_off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n <= 0) return false;
      c->out_off += static_cast<size_t>(n);
    }
    if (c->out_off == c->out.size()) {
      c->out.clear();
      c->out_off = 0;
    }
    bool want = !c->out.empty();
    if (want != c->want_write) {
      Watch(c->fd, want ? EPOLLIN | EPOLLOUT : EPOLLIN, id, EPOLL_CTL_MOD);
      c->want_write = want;
    }
    return true;
  }

  bool Read(Connection* c) {
    char chunk[1 << 16];
    for (;;) {
      ssize_t n = ::read(c->fd, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      if (n <= 0) return false;
      const int64_t now = NowNs() - origin_;
      size_t scanned = c->in.size();
      c->in.append(chunk, static_cast<size_t>(n));
      size_t start = 0;
      for (size_t nl; (nl = c->in.find('\n', scanned)) != std::string::npos;
           scanned = start = nl + 1) {
        if (c->fifo.empty()) return false;  // an answer nobody asked for
        Request& r = reqs_[c->fifo.front()];
        c->fifo.pop_front();
        r.recv = now;
        r.response = c->in.substr(start, nl - start);
        ++received_;
      }
      c->in.erase(0, start);
    }
  }

  std::vector<Request>& reqs_;
  const std::vector<std::string>& lines_;
  std::vector<Connection> conns_;
  int epoll_ = -1;
  int timer_ = -1;
  int64_t origin_ = 0;
  size_t next_ = 0;
  size_t sent_ = 0;
  size_t received_ = 0;
};

}  // namespace

int RunLoad(int argc, char** argv) {
  std::string socket_path, requests_path, out_path;
  double rate = 0, seconds = 0;
  const double drain_s = 30.0;
  for (int i = 0; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--socket") {
      socket_path = value;
    } else if (flag == "--requests") {
      requests_path = value;
    } else if (flag == "--out") {
      out_path = value;
    } else if (flag == "--rate") {
      rate = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    }
  }
  std::vector<std::string> lines = ReadLines(requests_path);
  if (socket_path.empty() || out_path.empty() || lines.empty() ||
      !(rate > 0) || !(seconds > 0)) {
    std::fprintf(stderr,
                 "usage: nwbench_tool load --socket S --requests F --out F "
                 "--rate DOCS_PER_S --seconds S\n");
    return 2;
  }
  for (std::string& line : lines) line += "\n";

  // The whole schedule is fixed before the first send.
  std::vector<Request> reqs(static_cast<size_t>(rate * seconds));
  for (size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].doc = i % lines.size();
    reqs[i].due = static_cast<int64_t>(i * 1e9 / rate);
  }

  bool ok;
  {
    Generator gen(&reqs, &lines);
    if (!gen.Open(socket_path, kConnections)) {
      std::fprintf(stderr, "nwbench_tool: cannot connect to %s\n",
                   socket_path.c_str());
      return 1;
    }
    ok = gen.Run(NowNs() + 10'000'000, static_cast<int64_t>(drain_s * 1e9));
  }
  if (!ok) std::fprintf(stderr, "nwbench_tool: a connection failed\n");

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "nwbench_tool: cannot write %s\n", out_path.c_str());
    return 1;
  }
  for (size_t i = 0; i < reqs.size(); ++i) {
    const Request& r = reqs[i];
    std::fprintf(out, "%zu\t%zu\t%d\t%lld\t%lld\t%lld\t%s\n", i, r.doc,
                 r.conn, static_cast<long long>(r.due),
                 static_cast<long long>(r.sent),
                 static_cast<long long>(r.recv), r.response.c_str());
  }
  std::fclose(out);
  return 0;
}

}  // namespace nwbench
