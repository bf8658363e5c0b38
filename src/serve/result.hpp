// Typed results for the serving API (ISSUE 5).
//
// The phase methods of the core pipeline signal failure with bools,
// per-record accept flags or untyped exceptions; a serving front
// end needs callers — possibly remote — to branch on *what went wrong*:
// an unprovisioned participant is a client error, an authentication
// failure is adversarial input, a saturated queue means "back off and
// retry", a wrong-phase request is a protocol violation.  serve::Result
// carries either the value or one of exactly those categories.
#pragma once

#include <string>
#include <utility>
#include <variant>

#include "util/error.hpp"

namespace caltrain::serve {

enum class ServeErrorKind {
  kUnprovisionedParticipant,  ///< no key provisioned for this identity
  kAuthFailure,               ///< cryptographic authentication failed
  kQueueSaturated,            ///< ingest queue full under kReject policy
  kWrongPhase,                ///< request illegal in the current phase
  kInvalidArgument,           ///< malformed request (bad session id, ...)
  kTimeout,          ///< a deadline elapsed first (e.g. SubmitUpload's
                     ///< submit_timeout hit while the ingest queue was
                     ///< full); nothing was enqueued — retrying later
                     ///< is safe and may succeed
  kRetryExhausted,   ///< a transient fault (injected or real I/O /
                     ///< enclave-transition failure) persisted through
                     ///< the capped-backoff retry budget; the request
                     ///< had no durable effect
  kDegraded,         ///< the durability journal became unwritable, so
                     ///< the service dropped to read-only investigate
                     ///< mode; mutating requests are refused until the
                     ///< operator repairs storage and restarts
  kCorruptJournal,   ///< recovery found corruption it must not repair
                     ///< silently (bad journal header, snapshot CRC
                     ///< mismatch, malformed event)
  kInternal,                  ///< invariant violation inside the library
};

[[nodiscard]] constexpr const char* ToString(ServeErrorKind kind) noexcept {
  switch (kind) {
    case ServeErrorKind::kUnprovisionedParticipant:
      return "unprovisioned-participant";
    case ServeErrorKind::kAuthFailure:
      return "auth-failure";
    case ServeErrorKind::kQueueSaturated:
      return "queue-saturated";
    case ServeErrorKind::kWrongPhase:
      return "wrong-phase";
    case ServeErrorKind::kInvalidArgument:
      return "invalid-argument";
    case ServeErrorKind::kTimeout:
      return "timeout";
    case ServeErrorKind::kRetryExhausted:
      return "retry-exhausted";
    case ServeErrorKind::kDegraded:
      return "degraded";
    case ServeErrorKind::kCorruptJournal:
      return "corrupt-journal";
    case ServeErrorKind::kInternal:
      return "internal";
  }
  return "unknown";
}

struct ServeError {
  ServeErrorKind kind = ServeErrorKind::kInternal;
  std::string message;
};

/// Maps a thrown caltrain::Error onto the serving taxonomy (used at the
/// boundary where the async core wraps the throwing phase methods).
[[nodiscard]] inline ServeError FromError(const Error& error) {
  ServeErrorKind kind = ServeErrorKind::kInternal;
  switch (error.kind()) {
    case ErrorKind::kAuthFailure:
      kind = ServeErrorKind::kAuthFailure;
      break;
    case ErrorKind::kInvalidArgument:
      kind = ServeErrorKind::kInvalidArgument;
      break;
    case ErrorKind::kFailedPrecondition:
      kind = ServeErrorKind::kWrongPhase;
      break;
    case ErrorKind::kUnavailable:
      // A transient fault that escapes to this boundary has already
      // burned its retry budget (util::RetryTransient).
      kind = ServeErrorKind::kRetryExhausted;
      break;
    default:
      break;
  }
  return ServeError{kind, error.what()};
}

/// Either a value or a ServeError.  `value()` on an error rethrows the
/// error as a caltrain::Error so sync adapters keep the historical
/// throwing behaviour for free.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value)  // NOLINT(google-explicit-constructor)
      : state_(std::in_place_index<0>, std::move(value)) {}
  Result(ServeError error)  // NOLINT(google-explicit-constructor)
      : state_(std::in_place_index<1>, std::move(error)) {}

  [[nodiscard]] bool ok() const noexcept { return state_.index() == 0; }
  explicit operator bool() const noexcept { return ok(); }

  [[nodiscard]] const T& value() const& {
    RequireOk();
    return std::get<0>(state_);
  }
  [[nodiscard]] T& value() & {
    RequireOk();
    return std::get<0>(state_);
  }
  [[nodiscard]] T&& value() && {
    RequireOk();
    return std::get<0>(std::move(state_));
  }

  [[nodiscard]] const ServeError& error() const {
    CALTRAIN_CHECK(!ok(), "Result holds a value, not an error");
    return std::get<1>(state_);
  }

 private:
  void RequireOk() const {
    if (ok()) return;
    const ServeError& e = std::get<1>(state_);
    ErrorKind kind = ErrorKind::kInternal;
    switch (e.kind) {
      case ServeErrorKind::kAuthFailure:
        kind = ErrorKind::kAuthFailure;
        break;
      case ServeErrorKind::kUnprovisionedParticipant:
      case ServeErrorKind::kInvalidArgument:
        kind = ErrorKind::kInvalidArgument;
        break;
      case ServeErrorKind::kQueueSaturated:
        kind = ErrorKind::kCapacity;
        break;
      case ServeErrorKind::kWrongPhase:
      case ServeErrorKind::kDegraded:
        kind = ErrorKind::kFailedPrecondition;
        break;
      case ServeErrorKind::kTimeout:
      case ServeErrorKind::kRetryExhausted:
        kind = ErrorKind::kUnavailable;
        break;
      case ServeErrorKind::kCorruptJournal:
      case ServeErrorKind::kInternal:
        break;
    }
    ThrowError(kind, std::string(ToString(e.kind)) + ": " + e.message);
  }

  std::variant<T, ServeError> state_;
};

}  // namespace caltrain::serve
