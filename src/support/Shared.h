//===- support/Shared.h - Shared immutable artifact handle -------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A read-only, reference-counted handle to an artifact that several owners
/// share instead of copying (the pipeline hands one global graph, rep table
/// and constraint system to every result of a session). The handle is never
/// null — a default-constructed one views a process-wide empty T — and it
/// reads like the T itself: `H->member`, `*H`, and an implicit conversion so
/// it binds wherever a `const T &` is expected.
///
/// Copying a handle copies the pointer, never the artifact. An owner that
/// must change the artifact builds a new T (or copies the old one) and
/// rebinds its handle; every other holder keeps seeing the object it had.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_SUPPORT_SHARED_H
#define SELDON_SUPPORT_SHARED_H

#include <cassert>
#include <memory>

namespace seldon {

template <typename T> class Shared {
public:
  Shared() : Ptr(empty()) {}
  /// Adopts \p P (a std::shared_ptr to T or const T).
  template <typename U>
  Shared(std::shared_ptr<U> P) : Ptr(std::move(P)) {
    assert(Ptr && "a Shared handle is never null");
  }

  const T &operator*() const { return *Ptr; }
  const T *operator->() const { return Ptr.get(); }
  operator const T &() const { return *Ptr; }
  const T *get() const { return Ptr.get(); }

private:
  static const std::shared_ptr<const T> &empty() {
    static const std::shared_ptr<const T> Empty = std::make_shared<const T>();
    return Empty;
  }

  std::shared_ptr<const T> Ptr;
};

} // namespace seldon

#endif // SELDON_SUPPORT_SHARED_H
