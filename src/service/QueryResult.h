//===- service/QueryResult.h - Point-query results ---------------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The structured answer to the service's point query: "what role does
/// representation R have, and which constraints support it?". One struct
/// (constraints::Explanation, as explainRep builds it), two renderers — the JSON renderer is the `seldond` wire format *and*
/// the `seldon explain --json` output, and the text renderer is the
/// human-readable `seldon explain` table. Because both the CLI and the
/// daemon render the same struct through the same functions, a warm
/// daemon's `query` answer is byte-identical to a cold CLI run on the
/// same corpus, and the two front-ends cannot drift.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_SERVICE_QUERYRESULT_H
#define SELDON_SERVICE_QUERYRESULT_H

#include "constraints/Explain.h"

#include <string>
#include <vector>

namespace seldon {
namespace service {

/// Everything known about one (representation, role) score: the
/// explanation itself, rendered by the functions below.
using QueryResult = constraints::Explanation;

/// Parses a wire/CLI role name ("source", "sanitizer", "sink") into
/// \p Out. Returns false for anything else.
bool roleFromName(const std::string &Name, propgraph::Role &Out);

/// Answers the point query against a solved system: looks up
/// (\p Rep, \p Role), renders every constraint mentioning its variable,
/// and computes residuals under \p X (the solved assignment, indexed by
/// the system's variable ids). The service's name for
/// constraints::explainRep.
inline QueryResult queryRep(const constraints::ConstraintSystem &System,
                            const propgraph::RepTable &Reps,
                            const std::string &Rep, propgraph::Role Role,
                            const std::vector<double> &X) {
  return constraints::explainRep(System, Reps, Rep, Role, X);
}

/// The machine-readable rendering (single line, no trailing newline),
/// appended to \p Out:
///
///   {"rep":"...","role":"sanitizer","found":true,"score":0.750000,
///    "pinned":true,"pinned_value":1.000000,
///    "constraints":[{"kind":"demands","residual":-0.250000,"text":"..."}]}
///
/// Scores and residuals print as printf %.6f (the same precision as
/// spec::writeLearnedSpec), so the output is byte-stable across runs.
/// Appending lets the daemon render the answer straight into its
/// response envelope.
void renderQueryJson(const QueryResult &Q, std::string &Out);

/// renderQueryJson into a fresh string (the `seldon explain --json` form).
inline std::string renderQueryJson(const QueryResult &Q) {
  std::string Out;
  renderQueryJson(Q, Out);
  return Out;
}

/// The human-readable rendering (the classic `seldon explain` output):
///
///   mid.filter() as sanitizer: score 0.457
///   3 constraint(s) mention it:
///     [demands it, residual -0.123] ... <= ... + 0.75
std::string renderQueryText(const QueryResult &Q);

} // namespace service
} // namespace seldon

#endif // SELDON_SERVICE_QUERYRESULT_H
