//===- benchtool.cpp - Corpus writer, host row and dispatch ---------------===//
//
// Usage:
//   benchtool gen-corpus --seed N --projects P --out DIR [--edits K]
//   benchtool host
//   benchtool load ...    (see load.cpp)
//   benchtool trace ...   (see trace.cpp)
//
//===----------------------------------------------------------------------===//

#include "benchtool.h"

#include "corpus/CorpusGenerator.h"
#include "solver/SimdObjective.h"
#include "spec/SpecIO.h"
#include "support/ArgParser.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace fs = std::filesystem;
using namespace seldon;

namespace perfbench {

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool readWholeFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return static_cast<bool>(In) || In.eof();
}

bool writeWholeFile(const std::string &Path, const std::string &Content) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Content;
  return static_cast<bool>(Out);
}

std::vector<std::string> readLines(const std::string &Path) {
  std::vector<std::string> Lines;
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line))
    if (!Line.empty())
      Lines.push_back(Line);
  return Lines;
}

std::string hostSimdTier() {
  if (solver::SimdObjective::avx512Supported())
    return "avx512";
  if (solver::SimdObjective::simdSupported())
    return "avx2";
  return "scalar";
}

namespace {

/// The text a relearn_edit sample appends to \p Source: a copy of the
/// file's first top-level handler under a new name, so the edit adds real
/// flows in the file's own vocabulary. Falls back to a minimal handler
/// when the file has no top-level function.
std::string makeEdit(const std::string &Source, size_t K) {
  std::istringstream In(Source);
  std::string Line, Block;
  bool InDef = false;
  while (std::getline(In, Line)) {
    if (!InDef) {
      if (Line.rfind("def ", 0) == 0) {
        size_t Paren = Line.find('(');
        if (Paren == std::string::npos)
          continue;
        Block = Line.substr(0, Paren) + "_edit" + std::to_string(K) +
                Line.substr(Paren) + "\n";
        InDef = true;
      }
      continue;
    }
    if (!Line.empty() && Line[0] != ' ' && Line[0] != '\t')
      break;
    Block += Line + "\n";
  }
  if (Block.empty())
    Block = "def bench_edit" + std::to_string(K) +
            "(value):\n    return value\n";
  return "\n\n" + Block;
}

} // namespace

int cmdGenCorpus(int Argc, char **Argv) {
  unsigned long Seed = 1, Projects = 1200, Edits = 64;
  std::string OutDir;
  ArgParser Parser;
  Parser.unsignedInt("--seed", &Seed, "N", "corpus seed")
      .unsignedInt("--projects", &Projects, "P", "number of projects")
      .unsignedInt("--edits", &Edits, "K", "length of the edit sequence")
      .string("--out", &OutDir, "DIR", "output directory");
  if (!Parser.parse(Argc, Argv, 2, nullptr) || OutDir.empty() ||
      Projects == 0) {
    std::fprintf(stderr, "usage: benchtool gen-corpus --seed N --projects "
                         "P --out DIR [--edits K]\n");
    return 1;
  }

  corpus::CorpusOptions Opts;
  Opts.NumProjects = static_cast<int>(Projects);
  Opts.Seed = Seed;
  corpus::Corpus C = corpus::generateCorpus(Opts);

  // Each project is a repository root holding the generator's module paths
  // ("projN/app_0.py"), so loading it from disk reproduces the in-memory
  // module names exactly.
  std::error_code Ec;
  fs::create_directories(fs::path(OutDir) / "edits", Ec);
  std::string ProjectList;
  uint64_t Bytes = 0;
  size_t Files = 0;
  for (const pysem::Project &P : C.Projects) {
    std::string Root = "corpus/" + P.name();
    for (const pysem::ModuleInfo &M : P.modules()) {
      fs::path Path = fs::path(OutDir) / Root / M.Path;
      fs::create_directories(Path.parent_path(), Ec);
      if (!writeWholeFile(Path.string(), M.Source)) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     Path.string().c_str());
        return 1;
      }
      Bytes += M.Source.size();
      ++Files;
    }
    ProjectList += Root + "\n";
  }

  std::string Truth;
  for (propgraph::Role R : {propgraph::Role::Source,
                            propgraph::Role::Sanitizer,
                            propgraph::Role::Sink})
    for (const std::string &Rep : C.Truth.repsWithRole(R))
      Truth += std::string(propgraph::roleName(R)) + "\t" + Rep + "\n";

  // The edit sequence: distinct projects in a seeded order, each edit
  // appending a handler to the project's first module.
  std::vector<size_t> Order(C.Projects.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  Rng EditRng(Seed ^ 0x9e3779b97f4a7c15ull);
  EditRng.shuffle(Order);
  std::string EditList;
  for (size_t K = 0; K < Edits && K < Order.size(); ++K) {
    const pysem::Project &P = C.Projects[Order[K]];
    const pysem::ModuleInfo &M = P.modules().front();
    std::string Edit = "edits/" + std::to_string(K) + ".py";
    if (!writeWholeFile((fs::path(OutDir) / Edit).string(),
                        makeEdit(M.Source, K)))
      return 1;
    EditList += std::to_string(K) + "\tcorpus/" + P.name() + "/" + M.Path +
                "\t" + Edit + "\n";
  }

  if (!writeWholeFile((fs::path(OutDir) / "projects.txt").string(),
                      ProjectList) ||
      !writeWholeFile((fs::path(OutDir) / "truth.tsv").string(), Truth) ||
      !writeWholeFile((fs::path(OutDir) / "edits.tsv").string(), EditList) ||
      !spec::saveSeedSpec(C.Seed, (fs::path(OutDir) / "seed.spec").string())) {
    std::fprintf(stderr, "error: cannot write corpus metadata\n");
    return 1;
  }
  std::printf("{\"projects\":%zu,\"files\":%zu,\"bytes\":%llu}\n",
              C.Projects.size(), Files,
              static_cast<unsigned long long>(Bytes));
  return 0;
}

int cmdHost(int, char **) {
  std::printf("{\"nproc\":%u,\"host_simd\":\"%s\"}\n",
              ThreadPool::hardwareConcurrency(), hostSimdTier().c_str());
  return 0;
}

} // namespace perfbench

int main(int Argc, char **Argv) {
  std::string Cmd = Argc > 1 ? Argv[1] : "";
  if (Cmd == "gen-corpus")
    return perfbench::cmdGenCorpus(Argc, Argv);
  if (Cmd == "host")
    return perfbench::cmdHost(Argc, Argv);
  if (Cmd == "load")
    return perfbench::cmdLoad(Argc, Argv);
  if (Cmd == "trace")
    return perfbench::cmdTrace(Argc, Argv);
  std::fprintf(stderr,
               "usage: benchtool (gen-corpus|host|load|trace) [options]\n");
  return 1;
}
