//===- solver/Objective.cpp - Relaxed constraint-system objective ---------===//

#include "solver/Objective.h"

#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>

using namespace seldon;
using namespace seldon::solver;

Objective::Objective(size_t NumVars,
                     std::vector<LinearConstraint> Constraints, double Lambda)
    : NumVars(NumVars), Constraints(std::move(Constraints)), Lambda(Lambda),
      Pinned(NumVars, 0), PinnedValues(NumVars, 0.0) {
#ifndef NDEBUG
  for (const LinearConstraint &C : this->Constraints) {
    for (const Term &T : C.Lhs)
      assert(T.Var < NumVars && "constraint references unknown variable");
    for (const Term &T : C.Rhs)
      assert(T.Var < NumVars && "constraint references unknown variable");
  }
#endif
  // Fixed shard structure: a function of the constraint count only, so
  // every Jobs setting performs the same floating-point reductions.
  size_t N = this->Constraints.size();
  size_t Size = std::max(MinShardSize, (N + MaxShards - 1) / MaxShards);
  for (size_t Begin = 0; Begin < N; Begin += Size)
    Shards.push_back({Begin, std::min(N, Begin + Size)});
}

void Objective::pin(uint32_t Var, double Value) {
  assert(Var < NumVars);
  assert(Value >= 0.0 && Value <= 1.0 && "pinned values must lie in [0,1]");
  Pinned[Var] = 1;
  PinnedValues[Var] = Value;
}

std::vector<double> Objective::initialPoint() const {
  std::vector<double> X(NumVars, 0.0);
  project(X);
  return X;
}

double Objective::shardHingeLoss(const Shard &S,
                                 const std::vector<double> &X) const {
  double Total = 0.0;
  for (size_t I = S.Begin; I < S.End; ++I) {
    const LinearConstraint &C = Constraints[I];
    double V = -C.C;
    for (const Term &T : C.Lhs)
      V += T.Coef * X[T.Var];
    for (const Term &T : C.Rhs)
      V -= T.Coef * X[T.Var];
    if (V > 0.0)
      Total += V;
  }
  return Total;
}

double Objective::hingeLoss(const std::vector<double> &X) const {
  if (Shards.empty())
    return 0.0;
  if (Shards.size() == 1)
    return shardHingeLoss(Shards[0], X);

  std::vector<double> Partial(Shards.size(), 0.0);
  auto RunShard = [&](size_t S, unsigned) {
    Partial[S] = shardHingeLoss(Shards[S], X);
  };
  if (Pool)
    Pool->parallelFor(Shards.size(), RunShard);
  else
    for (size_t S = 0; S < Shards.size(); ++S)
      RunShard(S, 0);
  // Reduce in shard order (deterministic regardless of execution order).
  double Total = 0.0;
  for (double P : Partial)
    Total += P;
  return Total;
}

double Objective::value(const std::vector<double> &X) const {
  double Total = hingeLoss(X);
  const uint8_t *Pin = Pinned.data();
  for (uint32_t V = 0; V < NumVars; ++V)
    if (!Pin[V])
      Total += Lambda * X[V];
  return Total;
}

void Objective::shardGradient(const Shard &S, const std::vector<double> &X,
                              std::vector<double> &Out) const {
  for (size_t I = S.Begin; I < S.End; ++I) {
    const LinearConstraint &C = Constraints[I];
    double V = -C.C;
    for (const Term &T : C.Lhs)
      V += T.Coef * X[T.Var];
    for (const Term &T : C.Rhs)
      V -= T.Coef * X[T.Var];
    if (V <= 0.0)
      continue; // Satisfied: subgradient 0.
    for (const Term &T : C.Lhs)
      Out[T.Var] += T.Coef;
    for (const Term &T : C.Rhs)
      Out[T.Var] -= T.Coef;
  }
}

void Objective::gradient(const std::vector<double> &X,
                         std::vector<double> &Grad) const {
  Grad.assign(NumVars, 0.0);
  if (Shards.size() == 1) {
    shardGradient(Shards[0], X, Grad);
  } else if (!Shards.empty()) {
    ShardGrad.resize(Shards.size());
    auto RunShard = [&](size_t S, unsigned) {
      ShardGrad[S].assign(NumVars, 0.0);
      shardGradient(Shards[S], X, ShardGrad[S]);
    };
    if (Pool)
      Pool->parallelFor(Shards.size(), RunShard);
    else
      for (size_t S = 0; S < Shards.size(); ++S)
        RunShard(S, 0);

    // Reduce buffers in shard order. Each variable's sum is an independent
    // fixed-order chain, so the reduction may fan out over variable ranges
    // without changing a single bit of the result.
    auto ReduceRange = [&](size_t Begin, size_t End) {
      for (const std::vector<double> &Buf : ShardGrad)
        for (size_t V = Begin; V < End; ++V)
          Grad[V] += Buf[V];
    };
    if (Pool && NumVars >= 4096) {
      unsigned Workers = Pool->numWorkers();
      size_t Chunk = (NumVars + Workers - 1) / Workers;
      size_t NumChunks = (NumVars + Chunk - 1) / Chunk;
      Pool->parallelFor(NumChunks, [&](size_t C, unsigned) {
        ReduceRange(C * Chunk, std::min(NumVars, (C + 1) * Chunk));
      });
    } else {
      ReduceRange(0, NumVars);
    }
  }
  const uint8_t *Pin = Pinned.data();
  for (uint32_t V = 0; V < NumVars; ++V) {
    if (Pin[V])
      Grad[V] = 0.0;
    else
      Grad[V] += Lambda;
  }
}

void Objective::project(std::vector<double> &X) const {
  assert(X.size() == NumVars);
  const uint8_t *Pin = Pinned.data();
  for (uint32_t V = 0; V < NumVars; ++V) {
    if (Pin[V])
      X[V] = PinnedValues[V];
    else
      X[V] = std::clamp(X[V], 0.0, 1.0);
  }
}

const char *seldon::solver::stopReasonName(StopReason Reason) {
  switch (Reason) {
  case StopReason::Stationary:
    return "stationary";
  case StopReason::Patience:
    return "patience";
  case StopReason::MaxIters:
    return "max_iters";
  case StopReason::Deadline:
    return "deadline";
  case StopReason::FellBack:
    return "fell_back";
  }
  return "unknown";
}
