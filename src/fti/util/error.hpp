// Error handling primitives shared by every fti subsystem.
//
// The infrastructure distinguishes two failure classes:
//  * Error        -- malformed user input (bad XML, bad source program,
//                    inconsistent IR).  Recoverable; reported to the caller.
//  * logic errors -- broken internal invariants.  These abort via FTI_ASSERT
//                    so that a corrupted simulation never "verifies" a design.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

namespace fti::util {

/// Base exception for all recoverable fti errors.  Carries a `kind` tag so
/// harness code can report which stage of the flow rejected the input.
class Error : public std::runtime_error {
 public:
  Error(std::string kind, const std::string& message)
      : std::runtime_error(kind + ": " + message), kind_(std::move(kind)) {}

  const std::string& kind() const noexcept { return kind_; }

 private:
  std::string kind_;
};

/// Malformed XML text or an XML tree that violates a dialect's schema.
class XmlError : public Error {
 public:
  explicit XmlError(const std::string& message) : Error("xml", message) {}
};

/// A structurally invalid IR (dangling net, unknown operator, ...).
class IrError : public Error {
 public:
  explicit IrError(const std::string& message) : Error("ir", message) {}
};

/// Front-end rejection of a source program.
class CompileError : public Error {
 public:
  explicit CompileError(const std::string& message)
      : Error("compile", message) {}
};

/// Failures raised while a simulation is running (assertion components,
/// watchdog expiry, X on a required control net, ...).
class SimError : public Error {
 public:
  explicit SimError(const std::string& message) : Error("sim", message) {}
};

/// File-system level problems (missing stimulus file, unwritable report).
class IoError : public Error {
 public:
  explicit IoError(const std::string& message) : Error("io", message) {}
};

/// A cooperatively cancelled long-running operation (a serve job whose
/// cancel flag was raised mid-flow).  Not a failure of the design under
/// test: callers that own the cancellation report the operation as
/// cancelled, never as FAIL.
class CancelledError : public Error {
 public:
  explicit CancelledError(const std::string& message)
      : Error("cancelled", message) {}
};

/// Deepest nesting the recursive-descent parsers accept: JSON arrays and
/// objects, XML elements, and kernel-source statements and expressions.
/// Each parser recurses once per level, so a fixed cap keeps hostile input
/// (200,000 nested `[`, `<a>` or `(`) from overflowing the stack and keeps
/// the trees handed to recursive walkers shallow; past it the parser raises
/// its typed error.  Real inputs stay within a handful of levels.
inline constexpr std::size_t kMaxNestingDepth = 256;

/// Most words one memory may hold: kernel array parameters (checked by
/// sema) and XML <memory depth=...> declarations (checked by
/// ir::validate), both before anything is allocated.  A declaration past
/// it is a typed input error instead of a std::bad_alloc that takes the
/// process down.  The largest memory any shipped workload uses is
/// bench_scaling's 345,600-pixel image.
inline constexpr std::size_t kMaxMemoryWords = std::size_t{1} << 24;

/// Aborts with a readable message; used for internal invariants only.
[[noreturn]] void assert_fail(const char* expr, const char* file, int line,
                              const std::string& message);

}  // namespace fti::util

#define FTI_ASSERT(expr, message)                                       \
  do {                                                                  \
    if (!(expr)) {                                                      \
      ::fti::util::assert_fail(#expr, __FILE__, __LINE__, (message));   \
    }                                                                   \
  } while (false)
