// Status / Result error-handling primitives (Arrow/RocksDB idiom).
//
// Public APIs in this codebase do not throw; fallible operations return a
// Status (for void results) or a Result<T>. Both are cheap to move and carry
// an error code plus a human-readable message.

#ifndef MQO_COMMON_STATUS_H_
#define MQO_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>
#include <variant>

namespace mqo {

/// Error categories used across the library.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kUnimplemented,
  kInternal,
  kParseError,
  /// Refused because of the target's current state (e.g. replacing a
  /// pinned segment); retrying once that state changes may succeed.
  kFailedPrecondition,
};

/// Returns a short human-readable name for a status code ("OK", "NotFound"...).
const char* StatusCodeToString(StatusCode code);

/// Outcome of a fallible operation that produces no value.
///
/// A default-constructed Status is OK. Error statuses carry a message built by
/// the factory functions below (Status::InvalidArgument(...), etc.).
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string msg) : code_(code), msg_(std::move(msg)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && msg_ == other.msg_;
  }

 private:
  StatusCode code_;
  std::string msg_;
};

/// Either a value of type T or an error Status. Analogous to arrow::Result.
template <typename T>
class Result {
 public:
  /* implicit */ Result(T value) : repr_(std::move(value)) {}
  /* implicit */ Result(Status status) : repr_(std::move(status)) {
    assert(!std::get<Status>(repr_).ok() && "Result constructed from OK status");
  }

  bool ok() const { return std::holds_alternative<T>(repr_); }

  const Status& status() const {
    static const Status ok_status;
    if (ok()) return ok_status;
    return std::get<Status>(repr_);
  }

  /// Precondition: ok().
  const T& ValueOrDie() const& {
    assert(ok());
    return std::get<T>(repr_);
  }
  T& ValueOrDie() & {
    assert(ok());
    return std::get<T>(repr_);
  }
  T&& ValueOrDie() && {
    assert(ok());
    return std::move(std::get<T>(repr_));
  }

  /// Returns the value, or `fallback` if this holds an error.
  T ValueOr(T fallback) const {
    if (ok()) return std::get<T>(repr_);
    return fallback;
  }

 private:
  std::variant<T, Status> repr_;
};

/// Propagates a non-OK Status from an expression to the caller.
#define MQO_RETURN_NOT_OK(expr)                   \
  do {                                            \
    ::mqo::Status _st = (expr);                   \
    if (!_st.ok()) return _st;                    \
  } while (0)

/// Assigns the value of a Result expression or propagates its error Status.
#define MQO_ASSIGN_OR_RETURN(lhs, expr)           \
  auto MQO_CONCAT_(_res_, __LINE__) = (expr);     \
  if (!MQO_CONCAT_(_res_, __LINE__).ok())         \
    return MQO_CONCAT_(_res_, __LINE__).status(); \
  lhs = std::move(MQO_CONCAT_(_res_, __LINE__)).ValueOrDie()

#define MQO_CONCAT_IMPL_(a, b) a##b
#define MQO_CONCAT_(a, b) MQO_CONCAT_IMPL_(a, b)

}  // namespace mqo

#endif  // MQO_COMMON_STATUS_H_
