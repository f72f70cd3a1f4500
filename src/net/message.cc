#include "src/net/message.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "src/common/serde.h"

namespace llamatune {
namespace net {

WireError WireErrorFromStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return WireError::kInternal;  // callers must not encode OK as error
    case StatusCode::kInvalidArgument:
      return WireError::kInvalidArgument;
    case StatusCode::kOutOfRange:
      return WireError::kOutOfRange;
    case StatusCode::kNotFound:
      return WireError::kNotFound;
    case StatusCode::kAlreadyExists:
      return WireError::kAlreadyExists;
    case StatusCode::kFailedPrecondition:
      return WireError::kFailedPrecondition;
    case StatusCode::kInternal:
      return WireError::kInternal;
    case StatusCode::kNotImplemented:
      return WireError::kNotImplemented;
    case StatusCode::kSessionNotFound:
      return WireError::kSessionNotFound;
    case StatusCode::kSessionAlreadyExists:
      return WireError::kSessionAlreadyExists;
    case StatusCode::kUnavailable:
      return WireError::kBusy;
    case StatusCode::kResourceExhausted:
      return WireError::kQuotaExceeded;
    case StatusCode::kTrialExpired:
      return WireError::kTrialExpired;
  }
  return WireError::kInternal;
}

Status StatusFromWireError(WireError code, std::string message) {
  switch (code) {
    case WireError::kMalformed:
      return Status::InvalidArgument(std::move(message));
    case WireError::kUnknownKind:
      return Status::NotImplemented(std::move(message));
    case WireError::kBadFrame:
      return Status::InvalidArgument(std::move(message));
    case WireError::kBusy:
      return Status::Unavailable(std::move(message));
    case WireError::kQuotaExceeded:
      return Status::ResourceExhausted(std::move(message));
    case WireError::kSessionNotFound:
      return Status::SessionNotFound(std::move(message));
    case WireError::kSessionAlreadyExists:
      return Status::SessionAlreadyExists(std::move(message));
    case WireError::kInvalidArgument:
      return Status::InvalidArgument(std::move(message));
    case WireError::kOutOfRange:
      return Status::OutOfRange(std::move(message));
    case WireError::kNotFound:
      return Status::NotFound(std::move(message));
    case WireError::kAlreadyExists:
      return Status::AlreadyExists(std::move(message));
    case WireError::kFailedPrecondition:
      return Status::FailedPrecondition(std::move(message));
    case WireError::kInternal:
      return Status::Internal(std::move(message));
    case WireError::kNotImplemented:
      return Status::NotImplemented(std::move(message));
    case WireError::kShuttingDown:
      return Status::Unavailable(std::move(message));
    case WireError::kTrialExpired:
      return Status::TrialExpired(std::move(message));
    case WireError::kOverloaded:
      return Status::Unavailable(std::move(message));
  }
  return Status::Internal("unknown wire error code: " + std::move(message));
}

namespace {

// Every payload below is one field list: a generic lambda run over a
// TokenWriter to encode and over a TokenReader to decode (serde.h), so
// each tag, its position and its version gate are written once.

/// Trials and results ride as one x-hex token of their own serialized
/// line.
void Carry(TokenWriter& out, const Trial& trial) {
  out.Value(SerializeTrial(trial));
}
void Carry(TokenReader& in, Trial& trial) {
  std::string line;
  in.Value(line);
  if (in.ok()) in.Assign(ParseTrial(line), trial);
}
void Carry(TokenWriter& out, const TrialResult& result) {
  out.Value(SerializeTrialResult(result));
}
void Carry(TokenReader& in, TrialResult& result) {
  std::string line;
  in.Value(line);
  if (in.ok()) in.Assign(ParseTrialResult(line), result);
}
constexpr auto kCarried = [](auto& io, auto& item) { Carry(io, item); };

constexpr auto kKnob = [](auto& io, auto& knob) {
  io.Literal("knob");
  io.Field("name", knob.name);
  io.Enum("type", knob.type, KnobType::kCategorical);
  io.Field("min", knob.min_value);
  io.Field("max", knob.max_value);
  io.Field("log", knob.log_scale);
  io.Field("default", knob.default_value);
  io.Field("cats", knob.categories);
  io.Field("specials", knob.special_values);
  io.Field("unit", knob.unit);
};

constexpr int kSpecVersion = 3;

constexpr auto kSpec = [](auto& io, auto& spec) {
  // v2 appended the pending-deadline field, v3 the racing block; v1/v2
  // payloads (older peers, pre-upgrade autosave files) still decode,
  // with the deadline at 0 and racing off.
  io.Literal("spec");
  int version = kSpecVersion;
  io.Value(version);
  io.Check(version >= 1 && version <= kSpecVersion,
           "wire: expected 'spec 1|2|3' section");
  io.Field("workload", spec.workload);
  io.Each("knobs", spec.space_knobs, kKnob);
  io.Check(spec.workload.empty() != spec.space_knobs.empty(),
           "wire: spec must carry exactly one source (workload name or "
           "knob space)");
  io.Field("maximize", spec.maximize);
  io.Field("optimizer", spec.optimizer_key);
  io.Field("adapter", spec.adapter_key);
  io.Field("seed", spec.seed);
  io.Field("iterations", spec.num_iterations);
  io.Field("batch", spec.batch_size);
  io.Field("threads", spec.num_threads);
  if (version >= 2) io.Field("deadline", spec.pending_deadline_ms);
  if (version >= 3) {
    io.Field("racing", spec.racing);
    if (spec.racing) {
      io.Field("cohort", spec.racing_cohort);
      io.Field("rungs", spec.racing_rungs);
      io.Field("minfid", spec.racing_min_fidelity);
      io.Field("eta", spec.racing_eta);
      io.Field("ciz", spec.racing_ci_z);
    }
  }
};

constexpr auto kStatus = [](auto& io, auto& s) {
  io.Literal("status");
  io.Field("name", s.status.name);
  io.Field("optimizer", s.status.optimizer_key);
  io.Field("adapter", s.status.adapter_key);
  io.Field("external", s.status.external);
  io.Field("iters", s.status.iterations_run);
  io.Field("total", s.status.num_iterations);
  io.Field("pending", s.status.pending_trials);
  io.Field("finished", s.status.finished);
  io.Field("defperf", s.status.default_performance);
  io.Field("bestperf", s.status.best_performance);
  io.Field("created", s.status.created_unix_ms);
  io.Field("active", s.status.last_activity_unix_ms);
  io.Field("driving", s.driving);
};

constexpr auto kHello = [](auto& io, auto& tenant) {
  io.Literal("hello");
  io.Field("tenant", tenant);
};

constexpr auto kSpecDoc = [](auto& io, auto& spec) {
  io.Literal("specdoc");
  kSpec(io, spec);
};

constexpr auto kCreate = [](auto& io, auto& name, auto& spec) {
  io.Literal("create");
  io.Field("name", name);
  kSpec(io, spec);
};

constexpr auto kResume = [](auto& io, auto& name, auto& spec,
                            auto& checkpoint) {
  io.Literal("resume");
  io.Field("name", name);
  io.Field("checkpoint", checkpoint);
  kSpec(io, spec);
};

constexpr auto kNameOnly = [](auto& io, auto& name) {
  io.Literal("session");
  io.Field("name", name);
};

constexpr auto kAskBatch = [](auto& io, auto& name, auto& n) {
  io.Literal("askbatch");
  io.Field("name", name);
  io.Field("n", n);
};

constexpr auto kTell = [](auto& io, auto& name, auto& result) {
  io.Literal("tell");
  io.Field("name", name);
  io.Literal("result");
  Carry(io, result);
};

constexpr auto kTellBatch = [](auto& io, auto& name, auto& results) {
  io.Literal("tellbatch");
  io.Field("name", name);
  io.Each("n", results, kCarried);
};

constexpr auto kError = [](auto& io, auto& code, auto& message,
                           auto& retry_after_ms) {
  io.Literal("error");
  io.Field("code", code);
  io.Field("message", message);
  // Optional trailing hint: pre-hint decoders stop after 'message' and
  // never see it (the append-only payload evolution rule).
  io.Optional("retryms", retry_after_ms, int64_t{0});
};

constexpr auto kTrialReply = [](auto& io, auto& trial) {
  io.Literal("trialreply");
  io.Literal("trial");
  Carry(io, trial);
};

constexpr auto kTrialsReply = [](auto& io, auto& trials) {
  io.Literal("trialsreply");
  io.Each("n", trials, kCarried);
};

constexpr auto kStepped = [](auto& io, auto& progressed) {
  io.Literal("stepped");
  io.Field("progressed", progressed);
};

constexpr auto kStatusReply = [](auto& io, auto& status) {
  io.Literal("statusreply");
  kStatus(io, status);
};

constexpr auto kStatusList = [](auto& io, auto& list) {
  io.Literal("statuslist");
  io.Each("n", list, kStatus);
};

constexpr auto kCheckpointReply = [](auto& io, auto& checkpoint) {
  io.Literal("checkpointreply");
  io.Field("checkpoint", checkpoint);
};

constexpr auto kClosed = [](auto& io, auto& result) {
  io.Literal("closed");
  io.Field("iterations", result.iterations_run);
  io.Field("best", result.best_performance);
  io.Field("default", result.default_performance);
};

constexpr auto kPendingReply = [](auto& io, auto& next_trial_id,
                                  auto& trials) {
  io.Literal("pendingreply");
  io.Field("next", next_trial_id);
  io.Each("n", trials, kCarried);
};

constexpr auto kHealth = [](auto& io, auto& health) {
  io.Literal("health");
  io.Enum("lifecycle", health.lifecycle, ServerLifecycle::kStopped);
  io.Field("pending", health.pending_requests);
  io.Field("sessions", health.sessions);
};

constexpr auto kStats = [](auto& io, auto& stats) {
  io.Literal("stats");
  io.Enum("lifecycle", stats.lifecycle, ServerLifecycle::kStopped);
  io.Field("pending", stats.pending_requests);
  io.Field("pendingexp", stats.pending_expensive);
  io.Field("sessions", stats.sessions);
  io.Field("busy", stats.busy_rejections);
  io.Field("shedover", stats.shed_overload);
  io.Field("shedddl", stats.shed_deadline);
  io.Field("evicted", stats.sessions_evicted);
  io.Field("autosaves", stats.autosaves_written);
  io.Field("restored", stats.sessions_restored);
  io.Each("tenants", stats.tenant_sessions, [](auto& io, auto& tenant) {
    io.Value(tenant.first);
    io.Value(tenant.second);
  });
};

/// Decodes a single-value payload.
template <class T, class Fields>
Result<T> Decode(const std::string& payload, Fields fields) {
  T value{};
  Status status = ReadTokens(payload, fields, value);
  if (!status.ok()) return status;
  return value;
}

}  // namespace

std::string EncodeHello(const std::string& tenant) {
  return WriteTokens(kHello, tenant);
}

Result<std::string> DecodeHello(const std::string& payload) {
  return Decode<std::string>(payload, kHello);
}

std::string EncodeSessionSpec(const WireSessionSpec& spec) {
  return WriteTokens(kSpecDoc, spec);
}

Result<WireSessionSpec> DecodeSessionSpec(const std::string& payload) {
  return Decode<WireSessionSpec>(payload, kSpecDoc);
}

std::string EncodeCreateSession(const std::string& name,
                                const WireSessionSpec& spec) {
  return WriteTokens(kCreate, name, spec);
}

Status DecodeCreateSession(const std::string& payload, std::string* name,
                           WireSessionSpec* spec) {
  return ReadTokens(payload, kCreate, *name, *spec);
}

std::string EncodeResume(const std::string& name, const WireSessionSpec& spec,
                         const std::string& checkpoint) {
  return WriteTokens(kResume, name, spec, checkpoint);
}

Status DecodeResume(const std::string& payload, std::string* name,
                    WireSessionSpec* spec, std::string* checkpoint) {
  return ReadTokens(payload, kResume, *name, *spec, *checkpoint);
}

std::string EncodeNameOnly(const std::string& name) {
  return WriteTokens(kNameOnly, name);
}

Result<std::string> DecodeNameOnly(const std::string& payload) {
  return Decode<std::string>(payload, kNameOnly);
}

std::string EncodeAskBatch(const std::string& name, int n) {
  return WriteTokens(kAskBatch, name, n);
}

Status DecodeAskBatch(const std::string& payload, std::string* name, int* n) {
  return ReadTokens(payload, kAskBatch, *name, *n);
}

std::string EncodeTell(const std::string& name, const TrialResult& result) {
  return WriteTokens(kTell, name, result);
}

Status DecodeTell(const std::string& payload, std::string* name,
                  TrialResult* result) {
  return ReadTokens(payload, kTell, *name, *result);
}

std::string EncodeTellBatch(const std::string& name,
                            const std::vector<TrialResult>& results) {
  return WriteTokens(kTellBatch, name, results);
}

Status DecodeTellBatch(const std::string& payload, std::string* name,
                       std::vector<TrialResult>* results) {
  return ReadTokens(payload, kTellBatch, *name, *results);
}

std::string EncodeError(WireError code, const std::string& message,
                        int64_t retry_after_ms) {
  return WriteTokens(kError, static_cast<int>(code), message,
                     std::max<int64_t>(retry_after_ms, 0));
}

Status DecodeError(const std::string& payload, WireError* code,
                   std::string* message, int64_t* retry_after_ms) {
  int raw_code = 0;
  int64_t retry = 0;
  Status status = ReadTokens(payload, kError, raw_code, *message, retry);
  if (!status.ok()) return status;
  *code = static_cast<WireError>(raw_code);
  if (retry_after_ms != nullptr) *retry_after_ms = std::max<int64_t>(retry, 0);
  return Status::OK();
}

std::string EncodeTrialReply(const Trial& trial) {
  return WriteTokens(kTrialReply, trial);
}

Result<Trial> DecodeTrialReply(const std::string& payload) {
  return Decode<Trial>(payload, kTrialReply);
}

std::string EncodeTrialsReply(const std::vector<Trial>& trials) {
  return WriteTokens(kTrialsReply, trials);
}

Result<std::vector<Trial>> DecodeTrialsReply(const std::string& payload) {
  return Decode<std::vector<Trial>>(payload, kTrialsReply);
}

std::string EncodeSteppedReply(bool progressed) {
  return WriteTokens(kStepped, progressed);
}

Result<bool> DecodeSteppedReply(const std::string& payload) {
  return Decode<bool>(payload, kStepped);
}

std::string EncodeStatusReply(const WireSessionStatus& status) {
  return WriteTokens(kStatusReply, status);
}

Result<WireSessionStatus> DecodeStatusReply(const std::string& payload) {
  return Decode<WireSessionStatus>(payload, kStatusReply);
}

std::string EncodeStatusListReply(const std::vector<WireSessionStatus>& list) {
  return WriteTokens(kStatusList, list);
}

Result<std::vector<WireSessionStatus>> DecodeStatusListReply(
    const std::string& payload) {
  return Decode<std::vector<WireSessionStatus>>(payload, kStatusList);
}

std::string EncodeCheckpointReply(const std::string& checkpoint) {
  return WriteTokens(kCheckpointReply, checkpoint);
}

Result<std::string> DecodeCheckpointReply(const std::string& payload) {
  return Decode<std::string>(payload, kCheckpointReply);
}

std::string EncodeClosedReply(const WireCloseResult& result) {
  return WriteTokens(kClosed, result);
}

Result<WireCloseResult> DecodeClosedReply(const std::string& payload) {
  return Decode<WireCloseResult>(payload, kClosed);
}

std::string EncodePendingReply(int64_t next_trial_id,
                               const std::vector<Trial>& trials) {
  return WriteTokens(kPendingReply, next_trial_id, trials);
}

Status DecodePendingReply(const std::string& payload, int64_t* next_trial_id,
                          std::vector<Trial>* trials) {
  return ReadTokens(payload, kPendingReply, *next_trial_id, *trials);
}

std::string EncodeHealthReply(const WireServerHealth& health) {
  return WriteTokens(kHealth, health);
}

Result<WireServerHealth> DecodeHealthReply(const std::string& payload) {
  return Decode<WireServerHealth>(payload, kHealth);
}

std::string EncodeStatsReply(const WireServerStats& stats) {
  return WriteTokens(kStats, stats);
}

Result<WireServerStats> DecodeStatsReply(const std::string& payload) {
  return Decode<WireServerStats>(payload, kStats);
}

void AppendDeadlineRider(std::string* payload, int64_t deadline_ms) {
  if (deadline_ms > 0) *payload += " ddl " + std::to_string(deadline_ms);
}

int64_t DeadlineRiderMs(const std::string& payload) {
  // The rider is the last two whitespace-delimited tokens: 'ddl' N.
  // Scanning from the tail keeps this O(rider) on large payloads.
  size_t end = payload.find_last_not_of(" \t\n");
  if (end == std::string::npos) return 0;
  size_t value_start = payload.find_last_of(" \t\n", end);
  if (value_start == std::string::npos) return 0;
  size_t tag_end = payload.find_last_not_of(" \t\n", value_start);
  if (tag_end == std::string::npos) return 0;
  size_t tag_start = payload.find_last_of(" \t\n", tag_end);
  size_t tag_from = tag_start == std::string::npos ? 0 : tag_start + 1;
  TokenReader in(std::string_view(payload).substr(tag_from));
  int64_t deadline_ms = 0;
  in.Field("ddl", deadline_ms);
  in.End();
  return in.ok() && deadline_ms > 0 ? deadline_ms : 0;
}

}  // namespace net
}  // namespace llamatune
