#include "daemon/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "daemon/daemon.h"
#include "daemon/protocol.h"
#include "obs/stats.h"

namespace nw {

namespace {

int g_wake_write_fd = -1;

void OnShutdownSignal(int /*signo*/) {
  // Async-signal-safe by construction: one write to a nonblocking pipe.
  char byte = 1;
  ssize_t ignored = ::write(g_wake_write_fd, &byte, 1);
  (void)ignored;
}

std::string RenderError(const std::string& message) {
  std::string out = "{\"ok\":false,\"error\":";
  AppendJsonString(&out, message);
  out += "}\n";
  return out;
}

/// Full send with SIGPIPE suppressed (a client that hung up mid-response
/// must not kill the daemon). False on any error.
bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

int InstallSignalWakeFd() {
  int fds[2];
  if (::pipe(fds) != 0) return -1;
  // Nonblocking both ways: a signal burst fills the pipe harmlessly
  // instead of blocking inside the handler, and the server's drain
  // reads stop at EAGAIN instead of hanging.
  ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
  ::fcntl(fds[1], F_SETFL, O_NONBLOCK);
  g_wake_write_fd = fds[1];
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = OnShutdownSignal;
  ::sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  return fds[0];
}

DaemonServer::DaemonServer(DaemonCore* core, ServerOptions options)
    : core_(core), options_(std::move(options)) {}

DaemonServer::~DaemonServer() {
  Stop();
  if (http_thread_.joinable()) http_thread_.join();
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    ReapLocked(/*all=*/true);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (http_fd_ >= 0) ::close(http_fd_);
  if (!options_.socket_path.empty()) ::unlink(options_.socket_path.c_str());
}

Status DaemonServer::Start() {
  struct sockaddr_un addr;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::Error("socket path too long: " + options_.socket_path);
  }
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Error("cannot create control socket: " +
                         std::string(std::strerror(errno)));
  }
  // A stale socket file from a crashed predecessor would fail the bind;
  // the daemon owns its path.
  ::unlink(options_.socket_path.c_str());
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, options_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    return Status::Error("cannot bind " + options_.socket_path + ": " +
                         std::string(std::strerror(errno)));
  }
  if (options_.http_port >= 0) {
    http_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (http_fd_ < 0) {
      return Status::Error("cannot create HTTP socket: " +
                           std::string(std::strerror(errno)));
    }
    int one = 1;
    ::setsockopt(http_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    struct sockaddr_in http_addr;
    std::memset(&http_addr, 0, sizeof(http_addr));
    http_addr.sin_family = AF_INET;
    http_addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    http_addr.sin_port = htons(static_cast<uint16_t>(options_.http_port));
    if (::bind(http_fd_, reinterpret_cast<struct sockaddr*>(&http_addr),
               sizeof(http_addr)) != 0 ||
        ::listen(http_fd_, 16) != 0) {
      return Status::Error("cannot bind 127.0.0.1:" +
                           std::to_string(options_.http_port) + ": " +
                           std::string(std::strerror(errno)));
    }
    socklen_t len = sizeof(http_addr);
    ::getsockname(http_fd_, reinterpret_cast<struct sockaddr*>(&http_addr),
                  &len);
    http_port_ = static_cast<int>(ntohs(http_addr.sin_port));
  }
  return Status::Ok();
}

void DaemonServer::Stop() { stop_.store(true, std::memory_order_relaxed); }

size_t DaemonServer::held_connections() {
  std::lock_guard<std::mutex> lock(conn_mu_);
  return connections_.size();
}

void DaemonServer::ReapLocked(bool all) {
  size_t kept = 0;
  for (std::unique_ptr<Connection>& c : connections_) {
    if (all || c->done.load(std::memory_order_acquire)) {
      c->thread.join();
    } else {
      connections_[kept++] = std::move(c);
    }
  }
  connections_.resize(kept);
}

void DaemonServer::Run() {
  if (http_fd_ >= 0) {
    http_thread_ = std::thread(&DaemonServer::HttpLoop, this);
  }
  while (!stop_.load(std::memory_order_relaxed)) {
    struct pollfd fds[2];
    fds[0].fd = listen_fd_;
    fds[0].events = POLLIN;
    nfds_t nfds = 1;
    if (wake_fd_ >= 0) {
      fds[1].fd = wake_fd_;
      fds[1].events = POLLIN;
      nfds = 2;
    }
    int ready = ::poll(fds, nfds, 200);
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      ReapLocked(/*all=*/false);
    }
    if (ready <= 0) continue;  // timeout or EINTR: re-check stop_
    if (nfds == 2 && (fds[1].revents & POLLIN) != 0) {
      char drain[16];
      while (::read(wake_fd_, drain, sizeof(drain)) > 0) {
      }
      break;  // SIGINT/SIGTERM: graceful stop
    }
    if ((fds[0].revents & POLLIN) == 0) continue;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    auto conn = std::make_unique<Connection>();
    Connection* c = conn.get();
    std::lock_guard<std::mutex> lock(conn_mu_);
    c->thread = std::thread([this, fd, c] {
      Serve(fd);
      c->done.store(true, std::memory_order_release);
    });
    connections_.push_back(std::move(conn));
  }
  stop_.store(true, std::memory_order_relaxed);
  // In-flight requests complete: connection threads only exit between
  // requests (or on client hangup), and each joins here before Run()
  // returns — the first half of the graceful-drain contract.
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    ReapLocked(/*all=*/true);
  }
  if (http_thread_.joinable()) http_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(options_.socket_path.c_str());
}

void DaemonServer::Serve(int fd) {
  std::string buffer;
  // Bytes of `buffer` already searched for a newline: each recv scans only
  // what it appended, so a long line costs linear time, not quadratic.
  size_t scanned = 0;
  char chunk[4096];
  bool open = true;
  while (open) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    int ready = ::poll(&pfd, 1, 200);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) {
      // Idle: wind down once the server stops (a half-typed request
      // from a client that will never finish does not block shutdown).
      if (stop_.load(std::memory_order_relaxed)) break;
      continue;
    }
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // hangup or error
    buffer.append(chunk, static_cast<size_t>(n));
    size_t start = 0;
    size_t nl;
    while (open && (nl = buffer.find('\n', std::max(start, scanned))) !=
                       std::string::npos) {
      std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      std::string response;
      open = HandleLine(line, &response);
      if (!SendAll(fd, response)) open = false;
    }
    buffer.erase(0, start);
    scanned = buffer.size();
  }
  ::close(fd);
}

bool DaemonServer::HandleLine(const std::string& line, std::string* out) {
  Result<DaemonRequest> parsed = ParseDaemonRequest(line);
  if (!parsed.ok()) {
    *out += RenderError(parsed.status().message());
    return true;
  }
  core_->CountRequest();
  switch (parsed->op) {
    case DaemonOp::kSubmit: {
      InputFormat format = parsed->has_format ? parsed->format
                                              : core_->default_format();
      Result<SubmitOutcome> outcome =
          core_->Submit(std::move(parsed->doc), format);
      if (!outcome.ok()) {
        *out += RenderError(outcome.status().message());
        return true;
      }
      const SubmitOutcome& o = *outcome;
      std::string resp = "{\"ok\":true,\"op\":\"SUBMIT\",\"label\":";
      AppendJsonString(&resp, parsed->label);
      resp += ",\"epoch\":" + std::to_string(o.epoch->id);
      resp += ",\"positions\":" + std::to_string(o.result.positions);
      resp += ",\"latency_us\":" + std::to_string(o.latency_us);
      resp += ",\"results\":[";
      for (size_t i = 0; i < o.result.accept.size(); ++i) {
        if (i > 0) resp.push_back(',');
        resp += "{\"qid\":" + std::to_string(o.epoch->qids[i]);
        resp += ",\"query\":";
        AppendJsonString(&resp, o.epoch->query_texts[i]);
        resp += ",\"match\":";
        resp += o.result.accept[i] ? "true" : "false";
        if (o.result.accept[i]) {
          resp += ",\"pos\":" + std::to_string(o.result.first_match[i]);
        }
        resp.push_back('}');
      }
      resp += "]}\n";
      *out += resp;
      return true;
    }
    case DaemonOp::kAdmit: {
      Result<uint64_t> qid = core_->Admit(parsed->query);
      if (!qid.ok()) {
        *out += RenderError(qid.status().message());
        return true;
      }
      std::shared_ptr<const DaemonEpoch> epoch = core_->current_epoch();
      *out += "{\"ok\":true,\"op\":\"ADMIT\",\"qid\":" +
              std::to_string(*qid) +
              ",\"epoch\":" + std::to_string(epoch->id) +
              ",\"queries\":" + std::to_string(epoch->qids.size()) + "}\n";
      return true;
    }
    case DaemonOp::kRetire: {
      Status s = core_->Retire(parsed->qid);
      if (!s.ok()) {
        *out += RenderError(s.message());
        return true;
      }
      std::shared_ptr<const DaemonEpoch> epoch = core_->current_epoch();
      *out += "{\"ok\":true,\"op\":\"RETIRE\",\"qid\":" +
              std::to_string(parsed->qid) +
              ",\"epoch\":" + std::to_string(epoch->id) +
              ",\"queries\":" + std::to_string(epoch->qids.size()) + "}\n";
      return true;
    }
    case DaemonOp::kStats: {
      *out += "{\"ok\":true,\"op\":\"STATS\",\"stats\":" +
              core_->RenderStatsJson() + "}\n";
      return true;
    }
    case DaemonOp::kShutdown: {
      *out += "{\"ok\":true,\"op\":\"SHUTDOWN\"}\n";
      Stop();
      return false;
    }
  }
  *out += RenderError("unreachable op");
  return true;
}

void DaemonServer::HttpLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    struct pollfd pfd;
    pfd.fd = http_fd_;
    pfd.events = POLLIN;
    int ready = ::poll(&pfd, 1, 200);
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) continue;
    int conn = ::accept(http_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    // One tiny request at a time: read the header block, answer, close.
    std::string request;
    char chunk[2048];
    for (int spins = 0; spins < 50; ++spins) {
      struct pollfd cpfd;
      cpfd.fd = conn;
      cpfd.events = POLLIN;
      if (::poll(&cpfd, 1, 100) <= 0) continue;
      ssize_t n = ::recv(conn, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      request.append(chunk, static_cast<size_t>(n));
      if (request.find("\r\n\r\n") != std::string::npos ||
          request.find("\n\n") != std::string::npos) {
        break;
      }
    }
    std::string path;
    size_t sp1 = request.find(' ');
    if (sp1 != std::string::npos) {
      size_t sp2 = request.find(' ', sp1 + 1);
      if (sp2 != std::string::npos) {
        path = request.substr(sp1 + 1, sp2 - sp1 - 1);
      }
    }
    std::string body;
    std::string status_line = "HTTP/1.1 200 OK";
    std::string content_type = "text/plain; version=0.0.4; charset=utf-8";
    if (path == "/metrics") {
      body = core_->registry().RenderProm();
    } else if (path == "/healthz") {
      body = "ok\n";
    } else {
      status_line = "HTTP/1.1 404 Not Found";
      body = "not found\n";
    }
    std::string response = status_line + "\r\nContent-Type: " +
                           content_type +
                           "\r\nContent-Length: " +
                           std::to_string(body.size()) +
                           "\r\nConnection: close\r\n\r\n" + body;
    SendAll(conn, response);
    ::close(conn);
  }
  ::close(http_fd_);
  http_fd_ = -1;
}

}  // namespace nw
