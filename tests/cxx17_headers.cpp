//===- tests/cxx17_headers.cpp - Public headers compile as C++17 ----------===//
//
// The benchmark's helper binary (perfbench/tool) compiles against these
// repository headers at its compiler's default standard, C++17, while the
// repository itself builds as C++20. This translation unit includes the
// same headers and is compiled as C++17 in the tier-1 build, so a
// C++20-only type in one of them (std::span, concepts, ...) fails here
// first rather than only in `python3 perfbench/run.py`.
//
//===----------------------------------------------------------------------===//

#include "cache/BlobStore.h"
#include "corpus/CorpusGenerator.h"
#include "infer/Pipeline.h"
#include "propgraph/GraphBuilder.h"
#include "pysem/ProjectLoader.h"
#include "service/QueryResult.h"
#include "service/Service.h"
#include "service/SocketServer.h"
#include "service/StateStore.h"
#include "solver/SimdObjective.h"
#include "spec/SpecIO.h"
#include "support/ArgParser.h"
#include "support/Metrics.h"
#include "support/Rng.h"
#include "support/StrUtil.h"
#include "support/ThreadPool.h"
#include "taint/TaintAnalyzer.h"

#if __cplusplus != 201703L
#error "this check must compile as C++17"
#endif
