#include "src/net/tuning_client.h"

#include <netdb.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "src/common/clock.h"
#include "src/common/fault_injection.h"
#include "src/common/rng.h"

namespace llamatune {
namespace net {

namespace {

/// Milliseconds until `deadline_ms` (a SteadyNowMs value) for poll();
/// -1 (wait forever) when no deadline is set, 0 when it passed.
int PollBudget(int64_t deadline_ms) {
  if (deadline_ms <= 0) return -1;
  int64_t left = deadline_ms - SteadyNowMs();
  if (left <= 0) return 0;
  return static_cast<int>(std::min<int64_t>(left, 60000));
}

}  // namespace

TuningClient::~TuningClient() { Disconnect(); }

Status TuningClient::Connect(const std::string& host, uint16_t port) {
  if (fd_ >= 0) return Status::FailedPrecondition("client: already connected");
  host_ = host;
  port_ = port;
  have_endpoint_ = true;
  return ConnectInternal();
}

Status TuningClient::ConnectInternal() {
  addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  int rc = ::getaddrinfo(host_.c_str(), std::to_string(port_).c_str(), &hints,
                         &res);
  if (rc != 0) {
    return Status::InvalidArgument("client: getaddrinfo('" + host_ +
                                   "'): " + ::gai_strerror(rc));
  }
  Status last =
      Status::Unavailable("client: no usable address for '" + host_ + "'");
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    int fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_NONBLOCK,
                      ai->ai_protocol);
    if (fd < 0) {
      last = Status::Internal(std::string("client: socket(): ") +
                              std::strerror(errno));
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) != 0) {
      if (errno != EINPROGRESS) {
        last = Status::Unavailable("client: connect(" + host_ + ":" +
                                   std::to_string(port_) +
                                   "): " + std::strerror(errno));
        ::close(fd);
        continue;
      }
      // Non-blocking connect: wait for writability, then read the
      // final verdict from SO_ERROR.
      pollfd p;
      p.fd = fd;
      p.events = POLLOUT;
      p.revents = 0;
      int timeout = options_.connect_timeout_ms > 0
                        ? static_cast<int>(options_.connect_timeout_ms)
                        : -1;
      int pr = ::poll(&p, 1, timeout);
      if (pr <= 0) {
        last = Status::Unavailable("client: connect(" + host_ + ":" +
                                   std::to_string(port_) + ") timed out");
        ::close(fd);
        continue;
      }
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0) {
        last = Status::Unavailable("client: connect(" + host_ + ":" +
                                   std::to_string(port_) +
                                   "): " + std::strerror(err));
        ::close(fd);
        continue;
      }
    }
    // The socket stays non-blocking; every read/write below polls, so
    // per-call deadlines can interrupt a stuck peer.
    ::freeaddrinfo(res);
    fd_ = fd;
    decoder_ = FrameDecoder();
    return Status::OK();
  }
  ::freeaddrinfo(res);
  return last;
}

void TuningClient::Disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status TuningClient::EnsureConnected() {
  if (fd_ >= 0) return Status::OK();
  if (!have_endpoint_) {
    return Status::FailedPrecondition("client: not connected");
  }
  LT_RETURN_NOT_OK(ConnectInternal());
  if (hello_done_) {
    // The tenant declaration is per-connection state; replay it so
    // quota accounting survives the reconnect.
    Result<Frame> hello =
        CallOnce(MessageKind::kHello, EncodeHello(tenant_), MessageKind::kOk);
    if (!hello.ok()) {
      Disconnect();
      return hello.status();
    }
  }
  return Status::OK();
}

bool TuningClient::BackoffAndRetry(RetryState* state) {
  const RetryPolicy& policy = options_.retry;
  ++state->attempt;
  if (state->attempt >= std::max(1, policy.max_attempts)) return false;
  if (policy.retry_budget_ms > 0 &&
      state->slept_ms >= policy.retry_budget_ms) {
    return false;
  }
  if (jitter_state_ == 0) {
    jitter_state_ = Mix64(policy.jitter_seed ^ 0x636c69656e74ULL);
  }
  // Decorrelated jitter: uniform in [base, 3 * previous sleep].
  int64_t lo = std::max<int64_t>(policy.initial_backoff_ms, 1);
  int64_t hi = std::max(lo + 1, state->prev_sleep_ms * 3);
  uint64_t draw = Mix64(jitter_state_++);
  int64_t sleep =
      lo + static_cast<int64_t>(draw % static_cast<uint64_t>(hi - lo));
  sleep = std::min(sleep, policy.max_backoff_ms);
  if (pending_retry_hint_ms_ > 0) {
    // The server told us when to come back (its decorrelated shed
    // hint, or the remaining drain window) — better information than
    // our blind jitter, still bounded by our own caps.
    sleep = std::min(pending_retry_hint_ms_, policy.max_backoff_ms);
    pending_retry_hint_ms_ = 0;
    ++retry_hints_seen_;
  }
  if (policy.retry_budget_ms > 0) {
    sleep = std::min(sleep, policy.retry_budget_ms - state->slept_ms);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(sleep));
  state->slept_ms += sleep;
  state->prev_sleep_ms = sleep;
  return true;
}

Status TuningClient::WriteAll(const std::string& bytes, int64_t deadline_ms) {
  // Chaos hook: the connection resets before the request leaves.
  if (FaultInjection::ShouldFail("client.send.reset")) {
    Disconnect();
    return Status::Unavailable("client: injected send reset");
  }
  size_t written = 0;
  while (written < bytes.size()) {
    ssize_t n = ::send(fd_, bytes.data() + written, bytes.size() - written,
                       MSG_NOSIGNAL);
    if (n >= 0) {
      written += static_cast<size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      int budget = PollBudget(deadline_ms);
      if (budget == 0) {
        Disconnect();
        return Status::Unavailable("client: send deadline exceeded");
      }
      pollfd p;
      p.fd = fd_;
      p.events = POLLOUT;
      p.revents = 0;
      ::poll(&p, 1, budget);
      continue;
    }
    Status status = Status::Unavailable(std::string("client: send(): ") +
                                        std::strerror(errno));
    Disconnect();
    return status;
  }
  return Status::OK();
}

Result<Frame> TuningClient::CallOnce(MessageKind kind,
                                     const std::string& payload,
                                     MessageKind expected) {
  if (fd_ < 0) return Status::Unavailable("client: not connected");
  // A retry-after hint is advice for the backoff right after the reply
  // that carried it; a fresh attempt makes any unconsumed hint stale.
  pending_retry_hint_ms_ = 0;
  int64_t deadline_ms = options_.call_timeout_ms > 0
                            ? SteadyNowMs() + options_.call_timeout_ms
                            : 0;
  std::string wire_payload = payload;
  AppendDeadlineRider(&wire_payload, options_.request_deadline_ms);
  LT_RETURN_NOT_OK(WriteAll(EncodeFrame(kind, wire_payload), deadline_ms));
  char buf[4096];
  for (;;) {
    Result<std::optional<Frame>> next = decoder_.Next();
    if (!next.ok()) {
      Disconnect();
      return next.status();
    }
    if (next->has_value()) {
      Frame frame = std::move(**next);
      if (frame.kind == MessageKind::kError) {
        WireError code = WireError::kInternal;
        std::string message;
        int64_t retry_after_ms = 0;
        Status parse =
            DecodeError(frame.payload, &code, &message, &retry_after_ms);
        if (!parse.ok()) return parse;
        if (retry_after_ms > 0) pending_retry_hint_ms_ = retry_after_ms;
        return StatusFromWireError(code, std::move(message));
      }
      if (frame.kind != expected) {
        Disconnect();
        return Status::Internal(
            "client: unexpected reply kind " +
            std::to_string(static_cast<int>(frame.kind)) + " (wanted " +
            std::to_string(static_cast<int>(expected)) + ")");
      }
      return frame;
    }
    int budget = PollBudget(deadline_ms);
    if (budget == 0) {
      // The reply may still arrive after we stop waiting; reading it
      // on the next call would answer the wrong request, so the
      // connection cannot be reused.
      Disconnect();
      return Status::Unavailable("client: call deadline exceeded");
    }
    pollfd p;
    p.fd = fd_;
    p.events = POLLIN;
    p.revents = 0;
    int pr = ::poll(&p, 1, budget);
    if (pr < 0 && errno != EINTR) {
      Status status = Status::Unavailable(std::string("client: poll(): ") +
                                          std::strerror(errno));
      Disconnect();
      return status;
    }
    if (pr <= 0) continue;
    // Chaos hook: request a single byte so the decoder sees a torn
    // frame boundary; the remainder stays queued in the socket (a
    // short read, never data loss).
    size_t want = sizeof(buf);
    if (FaultInjection::ShouldFail("client.recv.short")) want = 1;
    ssize_t n = ::recv(fd_, buf, want, 0);
    if (n == 0) {
      Disconnect();
      return Status::Unavailable("client: server closed the connection");
    }
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      Status status = Status::Unavailable(std::string("client: recv(): ") +
                                          std::strerror(errno));
      Disconnect();
      return status;
    }
    decoder_.Feed(buf, static_cast<size_t>(n));
  }
}

Result<Frame> TuningClient::Call(MessageKind kind, const std::string& payload,
                                 MessageKind expected, bool* retried) {
  if (retried != nullptr) *retried = false;
  RetryState state;
  for (;;) {
    Status conn = EnsureConnected();
    Status failure;
    if (conn.ok()) {
      Result<Frame> reply = CallOnce(kind, payload, expected);
      if (reply.ok()) return reply;
      // Only kUnavailable is transient (transport faults, Busy
      // backpressure, deadlines); every typed application error is an
      // answer, not a failure.
      if (reply.status().code() != StatusCode::kUnavailable) {
        return reply.status();
      }
      failure = reply.status();
    } else {
      if (conn.code() != StatusCode::kUnavailable) return conn;
      failure = conn;
    }
    if (!BackoffAndRetry(&state)) return failure;
    if (retried != nullptr) *retried = true;
  }
}

Status TuningClient::Hello(const std::string& tenant) {
  Status status =
      Call(MessageKind::kHello, EncodeHello(tenant), MessageKind::kOk)
          .status();
  if (status.ok()) {
    tenant_ = tenant;
    hello_done_ = true;
  }
  return status;
}

Status TuningClient::CallDeduped(MessageKind kind, const std::string& payload,
                                 StatusCode committed) {
  bool retried = false;
  Status status = Call(kind, payload, MessageKind::kOk, &retried).status();
  if (retried && status.code() == committed) return Status::OK();
  return status;
}

Status TuningClient::CreateSession(const std::string& name,
                                   const WireSessionSpec& spec) {
  // A lost reply whose create committed answers the retry with
  // SessionAlreadyExists — that is success, not a conflict.
  Status status =
      CallDeduped(MessageKind::kCreateSession, EncodeCreateSession(name, spec),
                  StatusCode::kSessionAlreadyExists);
  if (status.ok()) last_seen_trial_[name] = 0;
  return status;
}

Status TuningClient::Resume(const std::string& name,
                            const WireSessionSpec& spec,
                            const std::string& checkpoint) {
  return CallDeduped(MessageKind::kResume, EncodeResume(name, spec, checkpoint),
                     StatusCode::kSessionAlreadyExists);
}

Status TuningClient::ResumeSaved(const std::string& name) {
  return CallDeduped(MessageKind::kResumeSaved, EncodeNameOnly(name),
                     StatusCode::kSessionAlreadyExists);
}

Result<std::vector<Trial>> TuningClient::AskRound(const std::string& name,
                                                  int n, bool single) {
  RetryState state;
  // Set once an attempt fails after the request may have reached the
  // server: the ask could have committed with its reply lost, leaving
  // orphaned pending trials we must adopt rather than re-draw.
  bool maybe_orphaned = false;
  for (;;) {
    Status conn = EnsureConnected();
    Status failure;
    if (!conn.ok()) {
      if (conn.code() != StatusCode::kUnavailable) return conn;
      failure = conn;
    } else {
      Result<Frame> reply =
          maybe_orphaned
              ? CallOnce(MessageKind::kGetPending, EncodeNameOnly(name),
                         MessageKind::kPendingReply)
          : single ? CallOnce(MessageKind::kAsk, EncodeNameOnly(name),
                              MessageKind::kTrialReply)
                   : CallOnce(MessageKind::kAskBatch, EncodeAskBatch(name, n),
                              MessageKind::kTrialsReply);
      if (!reply.ok()) {
        if (reply.status().code() != StatusCode::kUnavailable) {
          return reply.status();
        }
        failure = reply.status();
        maybe_orphaned = true;
      } else if (!maybe_orphaned) {
        std::vector<Trial> trials;
        if (single) {
          Result<Trial> trial = DecodeTrialReply(reply->payload);
          if (!trial.ok()) return trial.status();
          trials.push_back(std::move(trial).ValueOrDie());
        } else {
          Result<std::vector<Trial>> batch = DecodeTrialsReply(reply->payload);
          if (!batch.ok()) return batch.status();
          trials = std::move(batch).ValueOrDie();
        }
        int64_t& watermark = last_seen_trial_[name];
        for (const Trial& trial : trials) {
          watermark = std::max(watermark, trial.id);
        }
        return trials;
      } else {
        int64_t next = 0;
        std::vector<Trial> pending;
        Status parse = DecodePendingReply(reply->payload, &next, &pending);
        if (!parse.ok()) return parse;
        int64_t& watermark = last_seen_trial_[name];
        std::vector<Trial> orphans;
        for (const Trial& trial : pending) {
          if (trial.id > watermark) orphans.push_back(trial);
        }
        std::sort(orphans.begin(), orphans.end(),
                  [](const Trial& a, const Trial& b) { return a.id < b.id; });
        // A lost single ask adopts the oldest orphan. A lost batch
        // leaves exactly the asked trials orphaned (this client is the
        // only asker), so it adopts them wholesale; the server may
        // legitimately hand out fewer than n at the budget boundary, so
        // any 1..n orphans are the lost batch.
        if (single && orphans.size() > 1) orphans.resize(1);
        if (!orphans.empty() &&
            orphans.size() <= static_cast<size_t>(std::max(n, 1))) {
          watermark = orphans.back().id;
          return orphans;
        }
        // Nothing orphaned: the lost attempt never committed, so a
        // fresh ask is the *same* deterministic draw, not a skip.
        maybe_orphaned = false;
        continue;
      }
    }
    if (!BackoffAndRetry(&state)) return failure;
  }
}

Result<Trial> TuningClient::Ask(const std::string& name) {
  Result<std::vector<Trial>> trials = AskRound(name, 1, /*single=*/true);
  if (!trials.ok()) return trials.status();
  return std::move(std::move(trials).ValueOrDie().front());
}

Result<std::vector<Trial>> TuningClient::AskBatch(const std::string& name,
                                                  int n) {
  return AskRound(name, n, /*single=*/false);
}

Status TuningClient::Tell(const std::string& name, const TrialResult& result) {
  // AlreadyExists on a retried tell means the lost first attempt
  // committed — the result is in, which is what the caller asked for.
  return CallDeduped(MessageKind::kTell, EncodeTell(name, result),
                     StatusCode::kAlreadyExists);
}

Status TuningClient::TellBatch(const std::string& name,
                               const std::vector<TrialResult>& results) {
  bool retried = false;
  Status status = Call(MessageKind::kTellBatch, EncodeTellBatch(name, results),
                       MessageKind::kOk, &retried)
                      .status();
  if (!retried || status.code() != StatusCode::kAlreadyExists) return status;
  // The lost first attempt committed a *prefix* of the batch (the
  // server applies results in order, first error wins). Re-telling one
  // by one lets the committed prefix answer AlreadyExists while the
  // uncommitted tail still lands.
  for (const TrialResult& result : results) {
    Status one = Tell(name, result);
    if (!one.ok() && one.code() != StatusCode::kAlreadyExists) return one;
  }
  return Status::OK();
}

Result<std::vector<Trial>> TuningClient::GetPending(const std::string& name,
                                                    int64_t* next_trial_id) {
  Result<Frame> reply = Call(MessageKind::kGetPending, EncodeNameOnly(name),
                             MessageKind::kPendingReply);
  if (!reply.ok()) return reply.status();
  int64_t next = 0;
  std::vector<Trial> pending;
  Status parse = DecodePendingReply(reply->payload, &next, &pending);
  if (!parse.ok()) return parse;
  if (next_trial_id != nullptr) *next_trial_id = next;
  return pending;
}

Status TuningClient::Step(const std::string& name, bool* progressed) {
  Result<Frame> reply = Call(MessageKind::kStep, EncodeNameOnly(name),
                             MessageKind::kSteppedReply);
  if (!reply.ok()) return reply.status();
  Result<bool> got = DecodeSteppedReply(reply->payload);
  if (!got.ok()) return got.status();
  if (progressed != nullptr) *progressed = *got;
  return Status::OK();
}

Status TuningClient::StartDrive(const std::string& name) {
  return Call(MessageKind::kStartDrive, EncodeNameOnly(name), MessageKind::kOk)
      .status();
}

Result<WireSessionStatus> TuningClient::GetStatus(const std::string& name) {
  Result<Frame> reply = Call(MessageKind::kGetStatus, EncodeNameOnly(name),
                             MessageKind::kStatusReply);
  if (!reply.ok()) return reply.status();
  return DecodeStatusReply(reply->payload);
}

Result<std::vector<WireSessionStatus>> TuningClient::ListSessions() {
  Result<Frame> reply =
      Call(MessageKind::kListSessions, "", MessageKind::kStatusListReply);
  if (!reply.ok()) return reply.status();
  return DecodeStatusListReply(reply->payload);
}

Result<std::string> TuningClient::Checkpoint(const std::string& name) {
  Result<Frame> reply = Call(MessageKind::kCheckpoint, EncodeNameOnly(name),
                             MessageKind::kCheckpointReply);
  if (!reply.ok()) return reply.status();
  return DecodeCheckpointReply(reply->payload);
}

Result<WireCloseResult> TuningClient::Close(const std::string& name) {
  Result<Frame> reply = Call(MessageKind::kClose, EncodeNameOnly(name),
                             MessageKind::kClosedReply);
  if (!reply.ok()) return reply.status();
  return DecodeClosedReply(reply->payload);
}

Status TuningClient::Ping() {
  return Call(MessageKind::kPing, "", MessageKind::kPongReply).status();
}

Status TuningClient::Drain() {
  // kDrain is idempotent server-side (a drain is already in progress
  // on retry), so the plain retry loop is safe.
  return Call(MessageKind::kDrain, "", MessageKind::kOk).status();
}

Result<WireServerHealth> TuningClient::HealthCheck() {
  Result<Frame> reply =
      Call(MessageKind::kHealthCheck, "", MessageKind::kHealthReply);
  if (!reply.ok()) return reply.status();
  return DecodeHealthReply(reply->payload);
}

Result<WireServerStats> TuningClient::ServerStats() {
  Result<Frame> reply =
      Call(MessageKind::kServerStats, "", MessageKind::kStatsReply);
  if (!reply.ok()) return reply.status();
  return DecodeStatsReply(reply->payload);
}

}  // namespace net
}  // namespace llamatune
