// Shared pieces of the NWBench helper: the query bank, the document
// generator and small I/O utilities. Every input the benchmark feeds the
// programs under test is a pure function of the workload seed.
#ifndef NWBENCH_COMMON_H_
#define NWBENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "stream/token_stream.h"
#include "stream/tree_gen.h"
#include "support/rng.h"

namespace nwbench {

/// The K-query "standard bank" (the bench_sharded_eval templates); a
/// prefix of length k.
std::vector<std::string> BankQueries(size_t k);

/// Element-name vocabulary of generated documents: the 8 names the bank
/// mentions plus 4 it does not, so the catch-all symbol is exercised.
const std::vector<std::string>& Vocabulary();

/// One generated document in its workload's format.
struct GenDoc {
  std::string path;  ///< file name inside the work directory
  nw::InputFormat format = nw::InputFormat::kXml;
  std::string text;
};

/// One workload's generated inputs.
struct Workload {
  std::string name;
  bool daemon = false;              ///< served by nwqueryd
  std::vector<std::string> bank;    ///< the standing query bank
  std::vector<std::string> admit;   ///< queries the churn script ADMITs
  std::vector<GenDoc> docs;         ///< the workload's documents
  std::vector<GenDoc> train;        ///< held-out training documents
  /// The first sample_docs documents rendered in every format, indexed
  /// by InputFormat (the traced run's tokenizer and step corpora).
  std::vector<std::string> samples[3];
};

/// Generates workload `name` from `seed`; false for an unknown name.
bool GenerateWorkload(const std::string& name, uint64_t seed,
                      size_t sample_docs, Workload* w);

/// The SUBMIT request line (newline included) for one document.
std::string SubmitLine(const GenDoc& doc, size_t index);

/// One generated document tree in any front end's syntax.
std::string Render(const std::vector<nw::TreeNode>& forest,
                   nw::InputFormat format);

/// Independent generator stream `stream` of workload seed `seed`.
nw::Rng StreamRng(uint64_t seed, uint64_t stream);

/// Log-uniform integer in [lo, hi].
size_t LogUniform(nw::Rng* rng, size_t lo, size_t hi);

/// `s` as a JSON string literal (quotes included).
std::string JsonString(const std::string& s);

bool WriteFile(const std::string& path, const std::string& content);
/// Non-empty lines of a query or request file.
std::vector<std::string> ReadLines(const std::string& path);

/// Monotonic nanoseconds.
int64_t NowNs();

int RunGen(int argc, char** argv);
int RunLoad(int argc, char** argv);
int RunLayers(int argc, char** argv);

}  // namespace nwbench

#endif  // NWBENCH_COMMON_H_
