// nwbench_tool — the compiled half of NWBench (run.py runs the workloads).
//
//   nwbench_tool gen    --workload W --seed N --out DIR
//   nwbench_tool load   --socket S --requests F --out F --rate R --seconds S
//   nwbench_tool layers --workload W --seed N --spans F
//   nwbench_tool info
//
// `info` prints the build type this tool was compiled with, so run.py
// can refuse to report numbers from a non-optimized build.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "common.h"

namespace nwbench {

std::vector<std::string> BankQueries(size_t k) {
  const char* names[] = {"a", "b", "c", "d", "e", "f", "g", "h"};
  constexpr size_t n = sizeof(names) / sizeof(names[0]);
  std::vector<std::string> out;
  for (size_t i = 0; out.size() < k; ++i) {
    const std::string x = names[i % n];
    const std::string y = names[(i + 1 + i / n) % n];
    switch (i % 8) {
      case 0: out.push_back("/" + x); break;
      case 1: out.push_back("//" + y); break;
      case 2: out.push_back("/" + x + "/" + y); break;
      case 3: out.push_back("/" + x + "//" + y); break;
      case 4: out.push_back(x + " then " + y); break;
      case 5: out.push_back("depth >= " + std::to_string(2 + i % 5)); break;
      case 6: out.push_back("//" + x + "/*/" + y); break;
      default: out.push_back("not //" + x); break;
    }
  }
  return out;
}

const std::vector<std::string>& Vocabulary() {
  static const std::vector<std::string> names = {
      "a", "b", "c", "d", "e", "f", "g", "h", "item", "list", "meta", "note"};
  return names;
}

std::string Render(const std::vector<nw::TreeNode>& forest,
                   nw::InputFormat format) {
  switch (format) {
    case nw::InputFormat::kJson: return nw::RenderJson(forest);
    case nw::InputFormat::kTrace: return nw::RenderTrace(forest);
    default: return nw::RenderXml(forest);
  }
}

nw::Rng StreamRng(uint64_t seed, uint64_t stream) {
  nw::Rng mix(seed * 0x100000001b3ULL + stream);
  return nw::Rng(mix.Next());
}

size_t LogUniform(nw::Rng* rng, size_t lo, size_t hi) {
  if (lo >= hi) return lo;
  double u = static_cast<double>(rng->Below(1u << 30)) / (1u << 30);
  double v = std::exp(std::log(static_cast<double>(lo)) +
                      u * (std::log(static_cast<double>(hi)) -
                           std::log(static_cast<double>(lo))));
  return static_cast<size_t>(v);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out + "\"";
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::binary);
  f << content;
  if (!f) {
    std::fprintf(stderr, "nwbench_tool: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> out;
  std::ifstream f(path, std::ios::binary);
  std::string line;
  while (std::getline(f, line)) {
    if (!line.empty()) out.push_back(line);
  }
  return out;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace nwbench

int main(int argc, char** argv) {
  if (argc >= 2) {
    std::string cmd = argv[1];
    if (cmd == "gen") return nwbench::RunGen(argc - 2, argv + 2);
    if (cmd == "load") return nwbench::RunLoad(argc - 2, argv + 2);
    if (cmd == "layers") return nwbench::RunLayers(argc - 2, argv + 2);
    if (cmd == "info") {
      std::printf("{\"build_type\":\"%s\"}\n", NWBENCH_BUILD_TYPE);
      return 0;
    }
  }
  std::fprintf(stderr, "usage: nwbench_tool gen|load|layers|info ...\n");
  return 2;
}
