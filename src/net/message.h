#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/trial.h"
#include "src/knobs/knob.h"
#include "src/net/frame.h"
#include "src/service/tuning_service.h"

namespace llamatune {
namespace net {

/// \brief Typed error codes carried by kError replies
/// (docs/wire-protocol.md lists the full table).
///
/// Values are part of the protocol: never renumber, only append. The
/// codes mirror StatusCode where one exists — WireErrorFromStatus /
/// StatusFromWireError round-trip losslessly — plus the wire-only
/// conditions (malformed payloads, garbage kinds, framing faults).
enum class WireError : uint8_t {
  kMalformed = 1,    ///< frame was sound but the payload didn't parse
  kUnknownKind = 2,  ///< well-framed request with an unassigned kind byte
  kBadFrame = 3,     ///< framing fault; sent once, then the conn closes
  kBusy = 4,         ///< admission queue full — retry later
  kQuotaExceeded = 5,  ///< per-tenant session quota hit
  kSessionNotFound = 6,
  kSessionAlreadyExists = 7,
  kInvalidArgument = 8,
  kOutOfRange = 9,
  kNotFound = 10,
  kAlreadyExists = 11,
  kFailedPrecondition = 12,
  kInternal = 13,
  kNotImplemented = 14,
  kShuttingDown = 15,   ///< server is stopping; connection will close
  kTrialExpired = 16,   ///< tell for a pending trial whose deadline passed
  kOverloaded = 17,     ///< request shed under load; retry after the hint
};

WireError WireErrorFromStatus(const Status& status);

/// Rebuilds a Status from a kError reply (the client's view).
Status StatusFromWireError(WireError code, std::string message);

/// \brief A SessionSpec that can cross the wire: a TunerConfig plus
/// exactly one source — a workload *name* (resolved server-side via
/// dbsim::WorkloadByName) or a serialized knob space (the server owns
/// the rebuilt ConfigSpace for the session's lifetime). Pointer-based
/// sources (external ObjectiveFunction) and per-session
/// simulator/early-stopping options cannot cross a process boundary
/// and stay API-only. Spec section v2 added pending_deadline_ms and
/// v3 the racing block; v1/v2 payloads decode with no deadline and
/// racing off, so pre-racing peers and autosave files keep their
/// fixed-fidelity behavior.
struct WireSessionSpec : harness::TunerConfig {
  /// Workload source ("YCSB-A", "TPC-C", ...); empty for space specs.
  std::string workload;
  /// Space source: the external DBMS's knob list (KnobSpec.description
  /// is not sent — it is cosmetic and can be large).
  std::vector<KnobSpec> space_knobs;
  /// Objective convention for space sources (false = latency-style).
  bool maximize = true;
};

/// \brief Server lifecycle state machine (docs/resilience.md).
///
/// Running → Draining → Stopped, one-way. Draining servers refuse new
/// connections and answer expensive requests with kShuttingDown while
/// in-flight handlers and background drives run to completion, then
/// autosave every session and stop. Values travel in kHealthReply /
/// kStatsReply payloads: never renumber, only append.
enum class ServerLifecycle : int {
  kRunning = 0,
  kDraining = 1,
  kStopped = 2,
};

/// \brief kHealthReply payload: the cheap liveness probe.
struct WireServerHealth {
  ServerLifecycle lifecycle = ServerLifecycle::kRunning;
  int64_t pending_requests = 0;  ///< admitted-but-unfinished requests
  int64_t sessions = 0;          ///< live sessions
};

/// \brief kStatsReply payload: full operational counters snapshot.
///
/// Monotonic counters reset only on server restart; gauges (pending_*,
/// sessions) are instantaneous. Fields are append-only on the wire.
struct WireServerStats {
  ServerLifecycle lifecycle = ServerLifecycle::kRunning;
  int64_t pending_requests = 0;   ///< gauge: admitted, unfinished
  int64_t pending_expensive = 0;  ///< gauge: expensive class in flight
  int64_t sessions = 0;           ///< gauge: live sessions
  int64_t busy_rejections = 0;    ///< kBusy answers (queue full, cheap)
  int64_t shed_overload = 0;      ///< kOverloaded answers at admission
  int64_t shed_deadline = 0;      ///< requests dead on arrival at dispatch
  int64_t sessions_evicted = 0;   ///< idle-eviction autosave+close count
  int64_t autosaves_written = 0;  ///< durable autosave files written
  int64_t sessions_restored = 0;  ///< sessions revived by the startup sweep
  /// Live session count per tenant, sorted by tenant name so the
  /// encoding is deterministic.
  std::vector<std::pair<std::string, int64_t>> tenant_sessions;
};

/// \brief SessionStatus plus the server-side overlay.
struct WireSessionStatus {
  service::SessionStatus status;
  /// True while a background drive (kStartDrive) is running.
  bool driving = false;
};

/// \brief Final scalars returned by kClosedReply (the full
/// SessionResult knowledge base stays server-side; fetch a checkpoint
/// before closing if you need the trajectory).
struct WireCloseResult {
  int iterations_run = 0;
  double best_performance = 0.0;
  double default_performance = 0.0;
};

/// \name Payload codecs
///
/// Payloads are single-line whitespace-delimited token streams in the
/// style of the checkpoint format: doubles as bit-pattern hex
/// (serde.h), strings as 'x'-prefixed hex so empty strings survive
/// tokenization, nested structures (trials, results, checkpoints) as
/// one hex token of their own serialized form. Every decoder is total:
/// any byte sequence returns a Status, never crashes (fuzz-pinned by
/// tests/net_test.cc).
/// @{

std::string EncodeHello(const std::string& tenant);
Result<std::string> DecodeHello(const std::string& payload);

std::string EncodeSessionSpec(const WireSessionSpec& spec);
Result<WireSessionSpec> DecodeSessionSpec(const std::string& payload);

std::string EncodeCreateSession(const std::string& name,
                                const WireSessionSpec& spec);
Status DecodeCreateSession(const std::string& payload, std::string* name,
                           WireSessionSpec* spec);

std::string EncodeResume(const std::string& name, const WireSessionSpec& spec,
                         const std::string& checkpoint);
Status DecodeResume(const std::string& payload, std::string* name,
                    WireSessionSpec* spec, std::string* checkpoint);

/// kResumeSaved, kAsk, kStep, kStartDrive, kGetStatus, kCheckpoint and
/// kClose all carry just a session name.
std::string EncodeNameOnly(const std::string& name);
Result<std::string> DecodeNameOnly(const std::string& payload);

std::string EncodeAskBatch(const std::string& name, int n);
Status DecodeAskBatch(const std::string& payload, std::string* name, int* n);

std::string EncodeTell(const std::string& name, const TrialResult& result);
Status DecodeTell(const std::string& payload, std::string* name,
                  TrialResult* result);

std::string EncodeTellBatch(const std::string& name,
                            const std::vector<TrialResult>& results);
Status DecodeTellBatch(const std::string& payload, std::string* name,
                       std::vector<TrialResult>* results);

/// A kError payload is `error <code> <message>` plus, when
/// retry_after_ms > 0, an optional trailing ` retryms N` token — the
/// server's decorrelated retry-after hint on kOverloaded /
/// kShuttingDown replies. Decoders that stop after the required
/// fields (all pre-hint peers) ignore it, per the append-only
/// versioning rule.
std::string EncodeError(WireError code, const std::string& message,
                        int64_t retry_after_ms = 0);
Status DecodeError(const std::string& payload, WireError* code,
                   std::string* message, int64_t* retry_after_ms = nullptr);

std::string EncodeTrialReply(const Trial& trial);
Result<Trial> DecodeTrialReply(const std::string& payload);

std::string EncodeTrialsReply(const std::vector<Trial>& trials);
Result<std::vector<Trial>> DecodeTrialsReply(const std::string& payload);

std::string EncodeSteppedReply(bool progressed);
Result<bool> DecodeSteppedReply(const std::string& payload);

std::string EncodeStatusReply(const WireSessionStatus& status);
Result<WireSessionStatus> DecodeStatusReply(const std::string& payload);

std::string EncodeStatusListReply(const std::vector<WireSessionStatus>& list);
Result<std::vector<WireSessionStatus>> DecodeStatusListReply(
    const std::string& payload);

std::string EncodeCheckpointReply(const std::string& checkpoint);
Result<std::string> DecodeCheckpointReply(const std::string& payload);

std::string EncodeClosedReply(const WireCloseResult& result);
Result<WireCloseResult> DecodeClosedReply(const std::string& payload);

/// kPendingReply: the session's next trial id (the client's dedup
/// cursor — every id below it has already been drawn) plus the pending
/// trials themselves. The kGetPending request is EncodeNameOnly.
std::string EncodePendingReply(int64_t next_trial_id,
                               const std::vector<Trial>& trials);
Status DecodePendingReply(const std::string& payload, int64_t* next_trial_id,
                          std::vector<Trial>* trials);

std::string EncodeHealthReply(const WireServerHealth& health);
Result<WireServerHealth> DecodeHealthReply(const std::string& payload);

std::string EncodeStatsReply(const WireServerStats& stats);
Result<WireServerStats> DecodeStatsReply(const std::string& payload);

/// \name Per-request deadline rider
///
/// Any request payload may carry an optional trailing ` ddl N` token —
/// the caller's deadline for this request in milliseconds from server
/// receipt. Every request decoder stops after its required fields, so
/// the rider is invisible to handlers; the server's admission layer
/// strips it with DeadlineRiderMs before dispatch and sheds requests
/// that are dead on arrival with kOverloaded instead of doing the
/// work.
/// @{

/// Appends ` ddl N` to a request payload (no-op when deadline_ms <= 0).
void AppendDeadlineRider(std::string* payload, int64_t deadline_ms);

/// Returns the rider's deadline in ms, or 0 when the payload carries
/// none. Total: never fails on garbage, just returns 0.
int64_t DeadlineRiderMs(const std::string& payload);

/// @}

/// @}

}  // namespace net
}  // namespace llamatune
