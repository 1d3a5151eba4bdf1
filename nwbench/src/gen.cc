// Workload generation: every input of a run is a pure function of the
// workload name and seed.
//
//   nwbench_tool gen --workload W --seed N --out DIR
//
// DIR receives the query bank (bank.nwq), the documents, for the daemon
// workloads a request file of SUBMIT lines for the load generator
// (requests.jsonl), and manifest.json describing all of it for run.py.
// The traced run (layers.cc) calls GenerateWorkload directly, so it
// replays exactly these inputs.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.h"

namespace nwbench {

namespace {

using nw::InputFormat;

struct Spec {
  size_t bank = 16;          ///< prefix of BankQueries
  size_t docs = 0;
  size_t min_positions = 0;  ///< log-uniform size range (equal = fixed)
  size_t max_positions = 0;
  bool mixed_formats = false;
  size_t train_docs = 0;     ///< held-out training documents (batch)
  size_t admit = 0;          ///< templates after the bank to ADMIT
  bool daemon = false;       ///< served by nwqueryd: write SUBMIT lines
};

/// Workload shapes; README.md explains why each exists.
bool LookupSpec(const std::string& name, Spec* s) {
  if (name == "batch-xml") {
    *s = {16, 160, 1u << 17, 1u << 17, false, 16, 0, false};
  } else if (name == "serve-mixed") {
    *s = {16, 480, 256, 1u << 14, true, 0, 0, true};
  } else if (name == "admit-churn") {
    // Only two admission templates: `//g/*/h` and `not //h` take 10-22 s
    // to warm and push the daemon past 2 GB (README: known defects).
    *s = {4, 240, 1024, 1024, false, 0, 2, true};
  } else {
    return false;
  }
  return true;
}

constexpr size_t kMaxDepth = 16;

}  // namespace

bool GenerateWorkload(const std::string& name, uint64_t seed,
                      size_t sample_docs, Workload* w) {
  Spec spec;
  if (!LookupSpec(name, &spec)) return false;
  w->name = name;
  w->daemon = spec.daemon;
  std::vector<std::string> all = BankQueries(spec.bank + spec.admit);
  w->bank.assign(all.begin(), all.begin() + spec.bank);
  w->admit.assign(all.begin() + spec.bank, all.end());

  // Documents and held-out training documents come from independent
  // streams, so changing one count never reshuffles the other.
  auto emit = [&](const char* prefix, size_t count, uint64_t stream,
                  std::vector<GenDoc>* out, bool samples) {
    nw::Rng rng = StreamRng(seed, stream);
    for (size_t d = 0; d < count; ++d) {
      size_t positions =
          LogUniform(&rng, spec.min_positions, spec.max_positions);
      GenDoc doc;
      doc.format = spec.mixed_formats ? static_cast<InputFormat>(d % 3)
                                      : InputFormat::kXml;
      std::vector<nw::TreeNode> forest =
          nw::RandomForest(&rng, Vocabulary(), positions, kMaxDepth);
      doc.text = Render(forest, doc.format);
      char file[64];
      std::snprintf(file, sizeof(file), "%s-%04zu.%s", prefix, d,
                    nw::InputFormatName(doc.format));
      doc.path = file;
      out->push_back(std::move(doc));
      if (samples && d < sample_docs) {
        for (int f = 0; f < 3; ++f) {
          w->samples[f].push_back(
              Render(forest, static_cast<InputFormat>(f)));
        }
      }
    }
  };
  emit("doc", spec.docs, 1, &w->docs, true);
  emit("train", spec.train_docs, 2, &w->train, false);
  return true;
}

int RunGen(int argc, char** argv) {
  std::string workload, out;
  uint64_t seed = 0;
  bool have_seed = false;
  for (int i = 0; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    if (flag == "--workload") {
      workload = argv[i + 1];
    } else if (flag == "--out") {
      out = argv[i + 1];
    } else if (flag == "--seed") {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
      have_seed = true;
    }
  }
  Workload w;
  if (!have_seed || out.empty() || !GenerateWorkload(workload, seed, 0, &w)) {
    std::fprintf(stderr,
                 "usage: nwbench_tool gen --workload batch-xml|serve-mixed|"
                 "admit-churn --seed N --out DIR\n");
    return 2;
  }

  std::string bank;
  for (const std::string& q : w.bank) bank += q + "\n";
  if (!WriteFile(out + "/bank.nwq", bank)) return 1;
  std::string manifest = "{\"workload\":" + JsonString(workload) +
                         ",\"seed\":" + std::to_string(seed) +
                         ",\"bank\":\"bank.nwq\",\"admit\":[";
  for (size_t i = 0; i < w.admit.size(); ++i) {
    if (i > 0) manifest += ",";
    manifest += JsonString(w.admit[i]);
  }
  manifest += "]";
  auto list = [&](const std::vector<GenDoc>& docs) {
    std::string json = "[";
    for (size_t d = 0; d < docs.size(); ++d) {
      if (!WriteFile(out + "/" + docs[d].path, docs[d].text)) return false;
      if (d > 0) json += ",";
      json += "{\"path\":" + JsonString(docs[d].path) + ",\"format\":" +
              JsonString(nw::InputFormatName(docs[d].format)) +
              ",\"bytes\":" + std::to_string(docs[d].text.size()) + "}";
    }
    manifest += json + "]";
    return true;
  };
  manifest += ",\"docs\":";
  if (!list(w.docs)) return 1;
  manifest += ",\"train\":";
  if (!list(w.train)) return 1;
  if (w.daemon) {
    std::string requests;
    for (size_t d = 0; d < w.docs.size(); ++d) {
      requests += SubmitLine(w.docs[d], d);
    }
    if (!WriteFile(out + "/requests.jsonl", requests)) return 1;
  }
  manifest += "}\n";
  return WriteFile(out + "/manifest.json", manifest) ? 0 : 1;
}

std::string SubmitLine(const GenDoc& doc, size_t index) {
  return "{\"op\":\"SUBMIT\",\"doc\":" + JsonString(doc.text) +
         ",\"format\":" + JsonString(nw::InputFormatName(doc.format)) +
         ",\"label\":\"" + std::to_string(index) + "\"}\n";
}

}  // namespace nwbench
