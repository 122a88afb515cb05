//===- service/QueryResult.cpp - Point-query results ----------------------===//

#include "service/QueryResult.h"

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

void seldon::service::renderQueryJson(const QueryResult &Q,
                                      std::string &Out) {
  // One reserve for the whole answer: the texts dominate it, and each
  // constraint adds a fixed frame plus its residual.
  size_t Size = 128 + 2 * Q.Rep.size();
  for (const constraints::ExplainedConstraint &C : Q.Constraints)
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
    const constraints::ExplainedConstraint &C = Q.Constraints[I];
    if (I)
      Out += ',';
    Out += C.OnLhs ? "{\"kind\":\"caps\",\"residual\":"
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
  for (const constraints::ExplainedConstraint &C : Q.Constraints)
    Out += formatString("  [%s, residual %+.3f] %s\n",
                        C.OnLhs ? "caps it" : "demands it", C.Residual,
                        C.Text.c_str());
  return Out;
}
