// Error-handling primitives shared by every starsim module.
//
// The library reports recoverable contract violations with exceptions derived
// from `support::Error` so callers can distinguish our failures from generic
// std errors. `STARSIM_REQUIRE` is the standard precondition guard: it is
// always on (not assert-style), because the simulators are driven by external
// configuration and silent out-of-range launches would corrupt results.
//
// Device-side failures carry a `retryable()` flag consumed by the resilience
// layer (starsim::ResilientExecutor): transient faults (PCIe transfer errors,
// kernel watchdog timeouts, injected allocator failures) are worth retrying
// on the same device; persistent ones (a lost device, a real capacity OOM)
// are not and trigger graceful degradation instead. See docs/resilience.md.
#pragma once

#include <stdexcept>
#include <string>

namespace starsim::support {

/// Base class for all starsim exceptions.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what, bool retryable = false)
      : std::runtime_error(what), retryable_(retryable) {}

  /// True when the operation may succeed if simply re-issued (transient
  /// fault); false for contract violations and persistent resource failures.
  [[nodiscard]] bool retryable() const { return retryable_; }

 private:
  bool retryable_ = false;
};

/// Raised when a caller violates a documented precondition.
class PreconditionError : public Error {
 public:
  explicit PreconditionError(const std::string& what) : Error(what) {}
};

/// Raised when a simulated device resource (memory, texture units, thread
/// limits) is exhausted or misused.
class DeviceError : public Error {
 public:
  explicit DeviceError(const std::string& what, bool retryable = false)
      : Error(what, retryable) {}
};

/// Raised when a host<->device transfer fails or its payload arrives
/// corrupted (modeled PCIe error). Transient: the same copy can be
/// re-issued, so retryable by default.
class TransferError : public DeviceError {
 public:
  explicit TransferError(const std::string& what, bool retryable = true)
      : DeviceError(what, retryable) {}
};

/// Raised when a kernel launch exceeds the watchdog budget (hung kernel).
/// Retryable by default: a timeout caused by transient contention may pass
/// on re-launch; a deterministic budget overrun will exhaust its retries and
/// degrade instead.
class KernelTimeoutError : public DeviceError {
 public:
  explicit KernelTimeoutError(const std::string& what, bool retryable = true)
      : DeviceError(what, retryable) {}
};

/// Raised when the device has dropped off the bus entirely. Never
/// retryable on the same device — callers must quarantine it and fail over.
class DeviceLostError : public DeviceError {
 public:
  explicit DeviceLostError(const std::string& what)
      : DeviceError(what, /*retryable=*/false) {}
};

/// Raised when the gpusim sanitizer (or its always-on host-side memory
/// checks: double free, unknown handle, oversized copies) detects a real
/// program defect. Never retryable — unlike an injected transient fault,
/// re-issuing a defective operation reproduces the defect, so the
/// resilience layer must surface it instead of burning retries.
class SanitizerError : public DeviceError {
 public:
  explicit SanitizerError(const std::string& what)
      : DeviceError(what, /*retryable=*/false) {}
};

/// Raised on I/O failures (image files, CSV output).
class IoError : public Error {
 public:
  explicit IoError(const std::string& what) : Error(what) {}
};

/// Raised by the serving layer when a request's deadline passed before a
/// frame could be delivered — at admission, at batch formation (the request
/// is never rendered), or after a render that finished too late. Never
/// retryable: re-issuing the identical request cannot un-expire it; the
/// client must submit a fresh request with a fresh deadline.
class DeadlineExceededError : public Error {
 public:
  explicit DeadlineExceededError(const std::string& what)
      : Error(what, /*retryable=*/false) {}
};

/// Raised into a queued request's future when overload shedding displaced
/// it in favour of higher-priority work. Retryable: the same request may
/// well be admitted once the burst passes.
class OverloadShedError : public Error {
 public:
  explicit OverloadShedError(const std::string& what)
      : Error(what, /*retryable=*/true) {}
};

/// Raised by the fleet layer when a request targets a shard that has been
/// killed (or when every replica of a scene is down). Retryable: another
/// replica of the same scene may serve it — the router's failover path
/// consumes exactly this signal.
class ShardDownError : public Error {
 public:
  explicit ShardDownError(const std::string& what)
      : Error(what, /*retryable=*/true) {}
};

/// Raised when a fleet wire frame cannot be decoded (truncation, bad magic,
/// CRC mismatch, unknown version or message kind). Never retryable:
/// re-parsing the same bytes reproduces the defect; the sender's encoder
/// (or the transport's integrity story) is the bug.
class WireFormatError : public Error {
 public:
  explicit WireFormatError(const std::string& what)
      : Error(what, /*retryable=*/false) {}
};

/// Raised when a fleet transport read or write missed its deadline — a hung
/// shard process, a wedged socket, a connect that never completed. The
/// transport closes the connection; the router counts the timeout and fails
/// over. Retryable: another replica (or the respawned process) can serve
/// the same request.
class TransportTimeoutError : public Error {
 public:
  explicit TransportTimeoutError(const std::string& what)
      : Error(what, /*retryable=*/true) {}
};

/// Raised when a fleet connection handshake fails — protocol version skew,
/// a shard answering for the wrong index (misrouted endpoint), or an auth
/// token mismatch. Never retryable on the same endpoint: redialing a shard
/// that speaks the wrong protocol or rejects our token reproduces the
/// failure; the deployment (or the routing table) is the bug.
class HandshakeError : public Error {
 public:
  explicit HandshakeError(const std::string& what)
      : Error(what, /*retryable=*/false) {}
};

}  // namespace starsim::support

namespace starsim::support::detail {

/// The throw behind STARSIM_REQUIRE, kept out of line and cold so a guarded
/// accessor stays small enough to inline at its call sites.
[[noreturn, gnu::cold, gnu::noinline]] inline void throw_precondition(
    const char* file, int line, const std::string& message,
    const char* condition) {
  throw PreconditionError(std::string(file) + ":" + std::to_string(line) +
                          ": " + message + " (violated: " + condition + ")");
}

[[noreturn, gnu::cold, gnu::noinline]] inline void throw_precondition(
    const char* file, int line, const char* message, const char* condition) {
  throw_precondition(file, line, std::string(message), condition);
}

}  // namespace starsim::support::detail

/// Precondition guard: throws PreconditionError with location info when the
/// condition does not hold. Always enabled.
#define STARSIM_REQUIRE(cond, msg)                                          \
  do {                                                                      \
    if (!(cond)) [[unlikely]] {                                             \
      ::starsim::support::detail::throw_precondition(__FILE__, __LINE__,    \
                                                     (msg), #cond);         \
    }                                                                       \
  } while (false)

/// Throw any starsim error type with a file:line-bearing message, matching
/// the STARSIM_REQUIRE message format so every failure is locatable.
#define STARSIM_THROW(ErrorType, msg)                                       \
  throw ErrorType(std::string(__FILE__) + ":" + std::to_string(__LINE__) +  \
                  ": " + (msg))
