//===- service/QueryResult.cpp - Point-query results ----------------------===//

#include "service/QueryResult.h"

#include "constraints/Explain.h"
#include "support/StrUtil.h"

using namespace seldon;
using namespace seldon::service;

bool seldon::service::roleFromName(const std::string &Name,
                                   propgraph::Role &Out) {
  if (Name == "source")
    Out = propgraph::Role::Source;
  else if (Name == "sanitizer")
    Out = propgraph::Role::Sanitizer;
  else if (Name == "sink")
    Out = propgraph::Role::Sink;
  else
    return false;
  return true;
}

QueryResult
seldon::service::queryRep(const constraints::ConstraintSystem &System,
                          const propgraph::RepTable &Reps,
                          const std::string &Rep, propgraph::Role Role,
                          const std::vector<double> &X) {
  QueryResult Q;
  Q.Rep = Rep;
  Q.Role = Role;
  constraints::Explanation E =
      constraints::explainRep(System, Reps, Rep, Role, X);
  Q.Found = E.Found;
  if (!E.Found)
    return Q;
  Q.Score = E.Score;
  Q.Pinned = E.Pinned;
  Q.PinnedValue = E.PinnedValue;
  Q.Constraints.reserve(E.Constraints.size());
  for (constraints::ExplainedConstraint &C : E.Constraints)
    Q.Constraints.push_back({std::move(C.Text), C.Residual, C.OnLhs});
  return Q;
}

void seldon::service::renderQueryJson(const QueryResult &Q,
                                      std::string &Out) {
  // One reserve for the whole answer: the texts dominate it, and each
  // constraint adds a fixed frame plus its residual.
  size_t Size = 128 + 2 * Q.Rep.size();
  for (const QueryConstraint &C : Q.Constraints)
    Size += C.Text.size() + 64;
  Out.reserve(Out.size() + Size);

  Out += "{\"rep\":\"";
  appendJsonEscaped(Out, Q.Rep);
  Out += "\",\"role\":\"";
  Out += propgraph::roleName(Q.Role);
  Out += Q.Found ? "\",\"found\":true" : "\",\"found\":false";
  Out += ",\"score\":";
  appendFixed(Out, Q.Score, 6);
  Out += Q.Pinned ? ",\"pinned\":true" : ",\"pinned\":false";
  Out += ",\"pinned_value\":";
  appendFixed(Out, Q.PinnedValue, 6);
  Out += ",\"constraints\":[";
  for (size_t I = 0; I < Q.Constraints.size(); ++I) {
    const QueryConstraint &C = Q.Constraints[I];
    if (I)
      Out += ',';
    Out += C.Caps ? "{\"kind\":\"caps\",\"residual\":"
                  : "{\"kind\":\"demands\",\"residual\":";
    appendFixed(Out, C.Residual, 6);
    Out += ",\"text\":\"";
    appendJsonEscaped(Out, C.Text);
    Out += "\"}";
  }
  Out += "]}";
}

std::string seldon::service::renderQueryText(const QueryResult &Q) {
  std::string Out = formatString(
      "%s as %s: score %.3f%s\n%zu constraint(s) mention it:\n",
      Q.Rep.c_str(), propgraph::roleName(Q.Role), Q.Score,
      Q.Pinned
          ? formatString(" (pinned to %.0f by the seed)", Q.PinnedValue)
                .c_str()
          : "",
      Q.Constraints.size());
  for (const QueryConstraint &C : Q.Constraints)
    Out += formatString("  [%s, residual %+.3f] %s\n",
                        C.Caps ? "caps it" : "demands it", C.Residual,
                        C.Text.c_str());
  return Out;
}
