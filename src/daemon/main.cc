// nwqueryd — the resident NWDaemon serving front end (ROADMAP: NWDaemon).
//
//   nwqueryd --socket PATH --queries FILE [options]
//
// Loads an initial query bank (same file syntax as nwquery: one NWQuery
// per line, '#' comments), compiles and pre-explores it, then serves a
// newline-delimited JSON protocol (daemon/protocol.h, docs/DAEMON.md)
// over the Unix-domain control socket: SUBMIT documents in any of the
// three front-end formats, ADMIT/RETIRE queries online (the bank is
// re-optimized and the frozen partition refreshed epoch-style in the
// background, with no serving stalls), STATS, SHUTDOWN. tools/nwclient.py
// is the matching client.
//
// Options:
//   --socket PATH     control-socket path (required)
//   --queries FILE    initial query bank, >= 1 query (required)
//   --http PORT       serve GET /metrics (Prometheus text exposition)
//                     and /healthz on 127.0.0.1:PORT; 0 picks an
//                     ephemeral port, printed on the ready line
//   --threads N       shard workers per document batch (default 1)
//   --opt LEVEL       optimizer level: bank | all (default all; levels
//                     without the shared bank cannot serve frozen)
//   --format F        default format for SUBMITs without a tag:
//                     xml (default) | json | trace
//   --stats-interval MS
//                     NWPulse: sample the daemon registry every MS ms
//   --pulse-file F    JSONL destination for --stats-interval (default
//                     stderr); the final tick lands after the drain, so
//                     the series telescopes to the shutdown totals
//
// SIGINT/SIGTERM (or a SHUTDOWN request) drain gracefully: stop
// accepting, answer every in-flight request, drain the dispatch queue,
// take the final pulse tick, exit 0.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "daemon/daemon.h"
#include "daemon/server.h"
#include "obs/pulse.h"
#include "opt/pipeline.h"
#include "stream/token_stream.h"
#include "support/parse_uint.h"

namespace {

using namespace nw;

struct Flags {
  std::string socket_path;
  std::string query_file;
  int http_port = -1;
  DaemonOptions daemon;
  std::string opt_level = "all";
  uint64_t stats_interval_ms = 0;
  std::string pulse_file;
};

int Usage() {
  std::fprintf(stderr,
               "usage: nwqueryd --socket PATH --queries FILE "
               "[--http PORT] [--threads N] [--opt bank|all] "
               "[--format xml|json|trace] "
               "[--stats-interval MS] [--pulse-file F]\n");
  return 2;
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // Every flag takes a value; --name=value and --name value both work.
    std::string name = arg;
    std::string value;
    bool has_value = false;
    size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      has_value = true;
    } else if (i + 1 < argc) {
      value = argv[i + 1];
    }
    auto take = [&]() {
      if (has_value) return true;
      if (i + 1 >= argc) {
        std::fprintf(stderr, "nwqueryd: %s needs a value\n", name.c_str());
        return false;
      }
      ++i;
      return true;
    };
    uint64_t v = 0;
    if (name == "--socket") {
      if (!take()) return false;
      flags->socket_path = value;
    } else if (name == "--queries") {
      if (!take()) return false;
      flags->query_file = value;
    } else if (name == "--http") {
      if (!take() || !ParseUint(value.c_str(), &v) || v > 65535) {
        std::fprintf(stderr, "nwqueryd: --http needs a port (0-65535)\n");
        return false;
      }
      flags->http_port = static_cast<int>(v);
    } else if (name == "--threads") {
      if (!take() || !ParseUint(value.c_str(), &v) || v == 0) {
        std::fprintf(stderr, "nwqueryd: --threads must be >= 1\n");
        return false;
      }
      flags->daemon.threads = v;
    } else if (name == "--opt") {
      if (!take()) return false;
      if (!ParseOptLevel(value, &flags->daemon.opt)) {
        std::fprintf(stderr,
                     "nwqueryd: unknown --opt level '%s' (want none, "
                     "rewrite, min, bank, or all)\n",
                     value.c_str());
        return false;
      }
      if (!flags->daemon.opt.bank) {
        std::fprintf(stderr,
                     "nwqueryd: --opt %s cannot serve frozen snapshots; "
                     "use bank or all\n",
                     value.c_str());
        return false;
      }
      flags->opt_level = value;
    } else if (name == "--format") {
      if (!take()) return false;
      if (!ParseInputFormat(value, &flags->daemon.default_format)) {
        std::fprintf(stderr,
                     "nwqueryd: unknown --format '%s' (want xml, json, "
                     "or trace)\n",
                     value.c_str());
        return false;
      }
    } else if (name == "--stats-interval") {
      if (!take() || !ParseUint(value.c_str(), &v) || v == 0) {
        std::fprintf(stderr,
                     "nwqueryd: --stats-interval must be >= 1 ms\n");
        return false;
      }
      flags->stats_interval_ms = v;
    } else if (name == "--pulse-file") {
      if (!take() || value.empty()) {
        std::fprintf(stderr, "nwqueryd: --pulse-file needs a path\n");
        return false;
      }
      flags->pulse_file = value;
    } else {
      std::fprintf(stderr, "nwqueryd: unknown option %s\n", arg.c_str());
      return false;
    }
  }
  if (flags->pulse_file.empty() == false && flags->stats_interval_ms == 0) {
    flags->stats_interval_ms = 500;
  }
  return !flags->socket_path.empty() && !flags->query_file.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return Usage();

  std::ifstream qf(flags.query_file);
  if (!qf) {
    std::fprintf(stderr, "nwqueryd: cannot open %s\n",
                 flags.query_file.c_str());
    return 1;
  }
  std::vector<std::string> queries;
  std::string line;
  while (std::getline(qf, line)) {
    std::string stripped = line.substr(0, line.find('#'));
    if (stripped.find_first_not_of(" \t\r") == std::string::npos) continue;
    queries.push_back(stripped);
  }
  if (queries.empty()) {
    std::fprintf(stderr, "nwqueryd: %s holds no queries\n",
                 flags.query_file.c_str());
    return 1;
  }

  DaemonCore core(queries, flags.daemon);
  if (!core.ok()) {
    std::fprintf(stderr, "nwqueryd: %s\n",
                 core.init_error().message().c_str());
    return 1;
  }
  core.Start();

  ServerOptions server_opts;
  server_opts.socket_path = flags.socket_path;
  server_opts.http_port = flags.http_port;
  DaemonServer server(&core, server_opts);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "nwqueryd: %s\n", started.message().c_str());
    return 1;
  }
  int wake_fd = InstallSignalWakeFd();
  if (wake_fd >= 0) server.set_wake_fd(wake_fd);

  // NWPulse over the daemon registry: the sampler's baseline lands
  // after all registration (done inside DaemonCore's constructor), its
  // final tick after the drain below — the series telescopes exactly
  // to the end-of-life totals, same contract as the CLI.
  std::FILE* pulse_out = nullptr;
  bool pulse_owned = false;
  std::unique_ptr<PulseSampler> sampler;
  if (flags.stats_interval_ms > 0) {
    pulse_out = stderr;
    if (!flags.pulse_file.empty() && flags.pulse_file != "-") {
      pulse_out = std::fopen(flags.pulse_file.c_str(), "w");
      if (pulse_out == nullptr) {
        std::fprintf(stderr, "nwqueryd: cannot open %s\n",
                     flags.pulse_file.c_str());
        return 1;
      }
      pulse_owned = true;
    }
    PulseSampler::Options po;
    po.interval_ms = flags.stats_interval_ms;
    po.jsonl = pulse_out;
    sampler = std::make_unique<PulseSampler>(&core.registry(), po);
    sampler->Start();
  }

  // Ready lines: CI and scripts parse these (the metrics line carries
  // the ephemeral port answer for --http 0).
  std::shared_ptr<const DaemonEpoch> epoch = core.current_epoch();
  std::printf("nwqueryd: serving %zu queries on %s (threads=%zu, "
              "format=%s, epoch=%llu, frozen_states=%zu)\n",
              epoch->query_texts.size(), flags.socket_path.c_str(),
              core.threads(), InputFormatName(core.default_format()),
              static_cast<unsigned long long>(epoch->id),
              epoch->frozen->num_states());
  if (server.http_port() >= 0) {
    std::printf("nwqueryd: metrics on http://127.0.0.1:%d/metrics\n",
                server.http_port());
  }
  std::fflush(stdout);

  server.Run();

  // Graceful drain: the server joined every connection; now finish the
  // dispatch queue, stop the background threads, take the final pulse
  // tick, and leave 0.
  core.DrainAndStop();
  if (sampler != nullptr) sampler->Stop();
  if (pulse_owned) std::fclose(pulse_out);
  std::printf("nwqueryd: shutdown complete (epoch=%llu, requests=%llu)\n",
              static_cast<unsigned long long>(core.current_epoch()->id),
              static_cast<unsigned long long>(
                  core.Metrics().total_requests));
  return 0;
}
