#ifndef AGORAEO_COMMON_STATUS_H_
#define AGORAEO_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace agoraeo {

/// Error categories used across the library.  Modeled after the
/// Arrow/RocksDB status idiom: library code never throws; every fallible
/// operation returns a Status (or StatusOr<T> when it produces a value).
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kOutOfRange = 4,
  kFailedPrecondition = 5,
  kUnimplemented = 6,
  kInternal = 7,
  kIOError = 8,
  kCorruption = 9,
  /// A paging cursor that can no longer be resumed (undecodable, or
  /// naming a window out of range): the client restarts from page 0.
  kCursorExpired = 10,
  /// A bounded admission queue is full: the request was not attempted
  /// and may be retried later unchanged.
  kOverloaded = 11,
};

/// Returns a short human-readable name for a status code ("OK",
/// "InvalidArgument", ...).
const char* StatusCodeToString(StatusCode code);

/// Outcome of a fallible operation: a code plus an optional message.
///
/// The OK status carries no allocation; error statuses carry a message
/// describing what went wrong.  Statuses are cheap to copy and move.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  /// Factory helpers, one per error category.
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
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status CursorExpired(std::string msg) {
    return Status(StatusCode::kCursorExpired, std::move(msg));
  }
  static Status Overloaded(std::string msg) {
    return Status(StatusCode::kOverloaded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsAlreadyExists() const { return code_ == StatusCode::kAlreadyExists; }
  bool IsOutOfRange() const { return code_ == StatusCode::kOutOfRange; }
  bool IsFailedPrecondition() const {
    return code_ == StatusCode::kFailedPrecondition;
  }
  bool IsUnimplemented() const { return code_ == StatusCode::kUnimplemented; }
  bool IsInternal() const { return code_ == StatusCode::kInternal; }
  bool IsIOError() const { return code_ == StatusCode::kIOError; }
  bool IsCorruption() const { return code_ == StatusCode::kCorruption; }
  bool IsCursorExpired() const {
    return code_ == StatusCode::kCursorExpired;
  }
  bool IsOverloaded() const { return code_ == StatusCode::kOverloaded; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// Either a value of type T or an error Status.  Accessing the value of an
/// errored StatusOr is a programming error (checked with assert in debug
/// builds).
template <typename T>
class StatusOr {
 public:
  /// Implicit construction from a value (success).
  StatusOr(T value) : status_(Status::OK()), value_(std::move(value)) {}

  /// Implicit construction from an error status.  `status.ok()` must be
  /// false; constructing a StatusOr from an OK status without a value is a
  /// bug and is converted to an internal error.
  StatusOr(Status status) : status_(std::move(status)) {
    if (status_.ok()) {
      status_ = Status::Internal("StatusOr constructed with OK status");
    }
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Returns the contained value; requires ok().
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value, or `fallback` when errored.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Evaluates an expression returning Status and returns it from the current
/// function if it is an error.
#define AGORAEO_RETURN_IF_ERROR(expr)          \
  do {                                         \
    ::agoraeo::Status _st = (expr);            \
    if (!_st.ok()) return _st;                 \
  } while (0)

#define AGORAEO_INTERNAL_CONCAT_INNER(a, b) a##b
#define AGORAEO_INTERNAL_CONCAT(a, b) AGORAEO_INTERNAL_CONCAT_INNER(a, b)

#define AGORAEO_INTERNAL_ASSIGN_OR_RETURN(var, lhs, expr) \
  auto var = (expr);                                      \
  if (!var.ok()) return var.status();                     \
  lhs = std::move(var).value();

/// Evaluates an expression returning StatusOr<T>, assigns the value to
/// `lhs` on success, and returns the error status otherwise.
#define AGORAEO_ASSIGN_OR_RETURN(lhs, expr)                               \
  AGORAEO_INTERNAL_ASSIGN_OR_RETURN(                                      \
      AGORAEO_INTERNAL_CONCAT(_status_or_, __LINE__), lhs, expr)

}  // namespace agoraeo

#endif  // AGORAEO_COMMON_STATUS_H_
