#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/trial.h"
#include "src/net/frame.h"
#include "src/net/message.h"

namespace llamatune {
namespace net {

/// \brief Retry schedule for transient failures: exponential backoff
/// with decorrelated jitter (each sleep is drawn uniformly from
/// [initial_backoff, 3 * previous_sleep], capped), bounded both by an
/// attempt count and by a total-sleep budget.
struct RetryPolicy {
  /// Total tries per call, the first included; 1 disables retry (the
  /// default — every failure surfaces immediately, as the pre-retry
  /// client behaved).
  int max_attempts = 1;
  /// First sleep and the lower bound of every jittered draw.
  int64_t initial_backoff_ms = 10;
  /// Upper cap on any single sleep.
  int64_t max_backoff_ms = 2000;
  /// Cap on the summed sleep across one call's retries; 0 = only
  /// max_attempts bounds the loop.
  int64_t retry_budget_ms = 10000;
  /// Seeds the jitter stream, so tests can pin retry timing.
  uint64_t jitter_seed = 1;
};

/// \brief Connection and deadline knobs for TuningClient.
struct TuningClientOptions {
  /// Bound on establishing one TCP connection (getaddrinfo itself is
  /// not bounded — use numeric addresses where that matters); 0 waits
  /// forever.
  int64_t connect_timeout_ms = 5000;
  /// Per-attempt bound covering send + reply; 0 waits forever. A
  /// timed-out attempt abandons the connection (its reply would
  /// desynchronize the stream) and counts as retryable.
  int64_t call_timeout_ms = 0;
  /// Server-side deadline attached to every request (the ` ddl N`
  /// payload rider): the server sheds a request still queued after
  /// this many milliseconds with kOverloaded instead of doing work
  /// nobody is waiting for. 0 sends no rider. Relative to server
  /// receipt, so each retry attempt gets a fresh window.
  int64_t request_deadline_ms = 0;
  RetryPolicy retry;
};

/// \brief Blocking client for a TuningServer: the remote face of
/// TuningService, one method per request kind.
///
/// The client owns one TCP connection, sends one frame per call and
/// blocks until the matching reply arrives (kError replies come back
/// as the typed Status they encode, so remote error handling reads
/// exactly like in-process error handling). It is not thread-safe;
/// use one client per thread or serialize calls externally.
///
/// With retry enabled (RetryPolicy::max_attempts > 1) the client is
/// *resilient*: transient failures — connection resets, Busy
/// backpressure, call deadlines — are retried with backoff after
/// reconnecting (and re-sending Hello). Retries are made safe against
/// lost replies:
///
///  * a retried Tell whose first attempt actually committed is
///    answered AlreadyExists by the server and deduplicated back to
///    OK here (same for TellBatch, per result);
///  * a retried Ask/AskBatch first checks GetPending and *adopts* the
///    trials the lost reply carried instead of drawing fresh
///    suggestions, so the optimizer's deterministic sequence is not
///    perturbed;
///  * a retried CreateSession/Resume/ResumeSaved treats
///    SessionAlreadyExists as success.
///
/// Close is the one non-idempotent call left: a retried Close whose
/// first attempt won may answer SessionNotFound.
class TuningClient {
 public:
  explicit TuningClient(TuningClientOptions options = TuningClientOptions())
      : options_(options) {}
  ~TuningClient();
  TuningClient(const TuningClient&) = delete;
  TuningClient& operator=(const TuningClient&) = delete;

  /// Connects to `host:port`. `host` is resolved through getaddrinfo,
  /// so hostnames ("localhost") work alongside numeric IPv4/IPv6
  /// addresses; candidates are tried in resolver order, each bounded
  /// by options().connect_timeout_ms.
  Status Connect(const std::string& host, uint16_t port);
  void Disconnect();
  bool connected() const { return fd_ >= 0; }

  const TuningClientOptions& options() const { return options_; }

  /// Declares this connection's tenant for quota accounting. Optional;
  /// connections that never say hello share the "" tenant. Remembered
  /// and replayed automatically after a retry reconnect.
  Status Hello(const std::string& tenant);

  Status CreateSession(const std::string& name, const WireSessionSpec& spec);
  Status Resume(const std::string& name, const WireSessionSpec& spec,
                const std::string& checkpoint);
  /// Resumes from the server-side autosave of `name` (see
  /// TuningServerOptions::autosave_dir).
  Status ResumeSaved(const std::string& name);

  Result<Trial> Ask(const std::string& name);
  Result<std::vector<Trial>> AskBatch(const std::string& name, int n);
  Status Tell(const std::string& name, const TrialResult& result);
  Status TellBatch(const std::string& name,
                   const std::vector<TrialResult>& results);

  /// The session's pending (asked, untold) trials; optionally also the
  /// id its next Ask will assign. This is the adoption primitive the
  /// resilient Ask path uses — exposed for callers running their own
  /// recovery.
  Result<std::vector<Trial>> GetPending(const std::string& name,
                                        int64_t* next_trial_id = nullptr);

  Status Step(const std::string& name, bool* progressed = nullptr);
  /// Asks the server to drive the session to completion in the
  /// background; returns as soon as the drive is registered. Poll
  /// GetStatus() for progress (WireSessionStatus::driving).
  Status StartDrive(const std::string& name);

  Result<WireSessionStatus> GetStatus(const std::string& name);
  Result<std::vector<WireSessionStatus>> ListSessions();
  Result<std::string> Checkpoint(const std::string& name);
  Result<WireCloseResult> Close(const std::string& name);

  Status Ping();

  /// Asks the server to begin a graceful drain (lifecycle →
  /// Draining): it stops accepting connections, finishes in-flight
  /// work, autosaves every session and exits its event loop. Returns
  /// as soon as the drain is registered; poll HealthCheck() — or just
  /// watch the connection close — to see it complete.
  Status Drain();

  /// Cheap liveness probe: lifecycle state, admitted-request queue
  /// depth and live session count. Served even while draining.
  Result<WireServerHealth> HealthCheck();

  /// Full operational counters snapshot (docs/resilience.md).
  Result<WireServerStats> ServerStats();

  /// kOverloaded / kShuttingDown replies whose retry-after hint this
  /// client honored instead of its own jittered backoff. Monotonic;
  /// lets callers (and the overload bench) see shedding cooperation.
  int64_t retry_hints_seen() const { return retry_hints_seen_; }

 private:
  /// Tracks one call's retry loop: attempt count, summed sleep, and
  /// the decorrelated-jitter state.
  struct RetryState {
    int attempt = 0;
    int64_t slept_ms = 0;
    int64_t prev_sleep_ms = 0;
  };

  /// One dial attempt over every resolved address (used by Connect and
  /// by retry reconnects).
  Status ConnectInternal();
  /// Reconnects (and replays Hello) when a previous failure dropped
  /// the connection.
  Status EnsureConnected();
  /// True (after sleeping) when the policy allows another attempt.
  bool BackoffAndRetry(RetryState* state);

  /// Sends one request frame and blocks for one reply frame, bounded
  /// by call_timeout_ms. Transport-level failures (reset, deadline,
  /// injected faults) come back as kUnavailable with the connection
  /// dropped; a kError reply is decoded into its typed Status; a reply
  /// of any kind other than `expected` is an Internal error (protocol
  /// violation).
  Result<Frame> CallOnce(MessageKind kind, const std::string& payload,
                         MessageKind expected);
  /// CallOnce under the retry policy. `*retried` (optional) reports
  /// whether any attempt beyond the first ran — the dedup paths only
  /// forgive AlreadyExists when a lost reply makes it ambiguous.
  Result<Frame> Call(MessageKind kind, const std::string& payload,
                     MessageKind expected, bool* retried = nullptr);
  /// Call expecting kOk, for requests the server answers with
  /// `committed` when a lost reply's first attempt already took effect:
  /// that code on a retried call reads as OK.
  Status CallDeduped(MessageKind kind, const std::string& payload,
                     StatusCode committed);
  /// The one ask retry loop behind Ask (`single`: kAsk) and AskBatch
  /// (kAskBatch of n). After a failure that may have committed, it
  /// adopts orphans above the watermark instead of drawing again: the
  /// oldest one for a single ask, all of them (when 1..n) for a batch.
  Result<std::vector<Trial>> AskRound(const std::string& name, int n,
                                      bool single);
  Status WriteAll(const std::string& bytes, int64_t deadline_ms);

  TuningClientOptions options_;
  int fd_ = -1;
  FrameDecoder decoder_;

  /// Remembered endpoint + tenant for retry reconnects.
  std::string host_;
  uint16_t port_ = 0;
  bool have_endpoint_ = false;
  std::string tenant_;
  bool hello_done_ = false;

  /// Highest trial id seen per session — the adoption watermark: a
  /// pending trial above it was drawn by an ask whose reply we lost.
  std::map<std::string, int64_t> last_seen_trial_;

  uint64_t jitter_state_ = 0;

  /// Retry-after hint from the most recent kError reply (0 = none);
  /// consumed by the next BackoffAndRetry in place of the jittered
  /// draw, then cleared.
  int64_t pending_retry_hint_ms_ = 0;
  int64_t retry_hints_seen_ = 0;
};

}  // namespace net
}  // namespace llamatune
