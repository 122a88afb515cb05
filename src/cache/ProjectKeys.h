//===- cache/ProjectKeys.h - Per-project cache keys -------------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The content keys addressing the two per-project cache::BlobStore
/// entries. Both are 64-bit FNV-1a hashes over every input the cached
/// artifact depends on (all length-prefixed), so any change to any of them
/// produces a different key: stale entries are never *hit* — they simply
/// become garbage that a later sweep may remove. There is no timestamp or
/// mtime heuristic anywhere.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_CACHE_PROJECTKEYS_H
#define SELDON_CACHE_PROJECTKEYS_H

#include "cache/BlobStore.h"
#include "constraints/ConstraintShard.h"
#include "propgraph/GraphBuilder.h"
#include "pysem/Project.h"

namespace seldon {
namespace cache {

/// Computes the graph cache key of \p Proj under \p Opts: the graph codec
/// version, every propgraph::BuildOptions field, and each module's path
/// and full source text, in module order. Independent of the project's
/// display name and on-disk location.
CacheKey projectCacheKey(const pysem::Project &Proj,
                         const propgraph::BuildOptions &Opts);

/// Computes the shard cache key for the project identified by \p GraphKey
/// under generation options \p Gen and seed \p Seed: the shard codec
/// version, every constraints::GenOptions field, the full seed spec
/// (entries sorted by representation, plus the blacklist patterns in
/// order), and the project's graph cache key — which already covers the
/// sources and every frontend knob. (Shard *content* only depends on the
/// graph; the options and seed participate conservatively, trading
/// spurious misses for the guarantee that a hit is always safe to replay.)
/// Deterministic across processes.
CacheKey projectShardKey(const CacheKey &GraphKey,
                         const constraints::GenOptions &Gen,
                         const spec::SeedSpec &Seed);

} // namespace cache
} // namespace seldon

#endif // SELDON_CACHE_PROJECTKEYS_H
