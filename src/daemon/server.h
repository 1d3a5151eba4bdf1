// NWDaemon transport: the Unix-domain control socket (newline-delimited
// JSON requests, see daemon/protocol.h) and the minimal HTTP /metrics
// endpoint (Prometheus text exposition straight from the core registry's
// RenderProm). One thread per control connection, joined by the accept
// loop once its connection closes; one thread for HTTP.
//
// Shutdown paths, all converging on the same graceful drain:
//   * a SHUTDOWN request — the connection gets its {"ok":true} response
//     first, then the server stops accepting and Run() returns;
//   * SIGINT/SIGTERM — InstallSignalWakeFd() routes the signal through a
//     self-pipe (the only async-signal-safe thing a handler can do is
//     write a byte) that the accept loop polls alongside the listener.
// Run() returning means: no new connections, every in-flight request
// answered, every connection thread joined. The caller then drains the
// core (DaemonCore::DrainAndStop) and takes the final pulse tick — the
// exit-0 contract tested by the death-free shutdown test.
#ifndef NW_DAEMON_SERVER_H_
#define NW_DAEMON_SERVER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "support/result.h"

namespace nw {

class DaemonCore;

/// Installs SIGINT/SIGTERM handlers that write one byte to a self-pipe
/// and returns the pipe's read end (-1 on failure). Pass the fd to
/// DaemonServer::set_wake_fd so the accept loop wakes on the signal.
/// Call at most once per process; the handlers stay installed.
int InstallSignalWakeFd();

struct ServerOptions {
  /// Control-socket path; bound fresh (a stale file is unlinked first).
  std::string socket_path;
  /// HTTP /metrics port on 127.0.0.1: -1 disables, 0 binds an ephemeral
  /// port (read the chosen one back via http_port() after Start).
  int http_port = -1;
};

class DaemonServer {
 public:
  /// `core` must be started and must outlive the server.
  DaemonServer(DaemonCore* core, ServerOptions options);
  ~DaemonServer();

  DaemonServer(const DaemonServer&) = delete;
  DaemonServer& operator=(const DaemonServer&) = delete;

  /// Binds + listens on the control socket (and the HTTP port when
  /// enabled). Errors name the failing path/port.
  Status Start();

  /// The HTTP port actually bound (the ephemeral answer for port 0);
  /// -1 when HTTP is disabled. Valid after Start().
  int http_port() const { return http_port_; }

  /// Signal wake fd (see InstallSignalWakeFd); -1 (default) disables.
  /// Set before Run().
  void set_wake_fd(int fd) { wake_fd_ = fd; }

  /// Accept loop: serves until a SHUTDOWN request, a wake-fd byte, or
  /// Stop(). On return every connection thread is joined and the
  /// sockets are closed.
  void Run();

  /// Asks Run() to wind down (thread-safe; used by tests).
  void Stop();

  /// Connection threads held right now: serving, or finished and not yet
  /// joined. The accept loop joins finished ones at least every 200 ms,
  /// so this tracks the open connections, not every connection ever
  /// accepted. Thread-safe.
  size_t held_connections();

 private:
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  /// Joins the connection threads that have finished, or every one when
  /// `all`. Caller holds conn_mu_.
  void ReapLocked(bool all);
  void HttpLoop();
  void Serve(int fd);
  /// Handles one request line; appends the response (newline included)
  /// to *out. Returns false when the connection should close (SHUTDOWN).
  bool HandleLine(const std::string& line, std::string* out);

  DaemonCore* core_;
  ServerOptions options_;
  int listen_fd_ = -1;
  int http_fd_ = -1;
  int http_port_ = -1;
  int wake_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::thread http_thread_;
  std::mutex conn_mu_;
  std::vector<std::unique_ptr<Connection>> connections_;
};

}  // namespace nw

#endif  // NW_DAEMON_SERVER_H_
