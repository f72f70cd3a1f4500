#include "src/net/tuning_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/common/fault_injection.h"
#include "src/common/rng.h"
#include "src/common/serde.h"
#include "src/common/thread_pool.h"
#include "src/dbsim/workloads.h"

namespace llamatune {
namespace net {

namespace {

/// Writes all of [data, data+n) to a non-blocking socket, waiting for
/// writability when the send buffer fills. Returns false on error or
/// on a peer that stays unwritable for 5s (a stalled reader must not
/// wedge the server forever).
bool SendAll(int fd, const char* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    ssize_t rc = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
    if (rc >= 0) {
      off += static_cast<size_t>(rc);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      pollfd p;
      p.fd = fd;
      p.events = POLLOUT;
      p.revents = 0;
      if (::poll(&p, 1, 5000) <= 0) return false;
      continue;
    }
    return false;
  }
  return true;
}

std::string MalformedReplyFrame(const Status& status) {
  return EncodeFrame(MessageKind::kError,
                     EncodeError(WireError::kMalformed, status.message()));
}

/// Expensive admission class: requests that draw trials, mutate
/// sessions or start background work. Everything else — status polls,
/// health probes, ping, and unknown kinds (whose kUnknownKind reply
/// costs nothing) — is cheap and keeps working while the server drains
/// or sheds. kClose is expensive on purpose: a drain must not let a
/// close delete the autosave the successor will resume from.
bool IsExpensiveKind(MessageKind kind) {
  switch (kind) {
    case MessageKind::kCreateSession:
    case MessageKind::kResume:
    case MessageKind::kResumeSaved:
    case MessageKind::kAsk:
    case MessageKind::kAskBatch:
    case MessageKind::kTell:
    case MessageKind::kTellBatch:
    case MessageKind::kStep:
    case MessageKind::kStartDrive:
    case MessageKind::kClose:
      return true;
    default:
      return false;
  }
}

/// The autosave header line is EncodeSessionSpec(spec) followed by a
/// trailing ` tenant xHEX` token (DecodeSessionSpec stops at the spec,
/// so files with and without the token both decode). Recovers the
/// owning tenant; pre-token files yield "".
std::string TenantFromAutosaveHeader(const std::string& header) {
  size_t tenant = header.rfind(" tenant ");
  if (tenant == std::string::npos) return "";
  TokenReader in(std::string_view(header).substr(tenant));
  std::string name;
  in.Field("tenant", name);
  in.End();
  return in.ok() ? name : "";
}

}  // namespace

TuningServer::Conn::~Conn() { ::close(fd); }

TuningServer::TuningServer(TuningServerOptions options)
    : options_(std::move(options)), service_(options_.autosave_dir) {}

TuningServer::~TuningServer() { Stop(); }

Status TuningServer::Start() {
  if (lifecycle() != ServerLifecycle::kStopped) {
    return Status::FailedPrecondition("server: already running");
  }
  // Listing the saved sessions also checks that the directory is usable.
  std::vector<std::string> saved;
  if (!options_.autosave_dir.empty()) {
    Result<std::vector<std::string>> listed = service_.store().List();
    if (!listed.ok()) return listed.status();
    if (options_.resume_saved_on_start) saved = std::move(listed).ValueOrDie();
  }

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("server: bad IPv4 address '" +
                                   options_.host + "'");
  }
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    return Status::Internal(std::string("server: socket(): ") +
                            std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status status = Status::Internal(
        "server: bind(" + options_.host + ":" +
        std::to_string(options_.port) + "): " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0) {
    Status status = Status::Internal(std::string("server: getsockname(): ") +
                                     std::strerror(errno));
    ::close(fd);
    return status;
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(fd, options_.listen_backlog) != 0) {
    Status status = Status::Internal(std::string("server: listen(): ") +
                                     std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::pipe2(wake_pipe_, O_NONBLOCK) != 0) {
    Status status = Status::Internal(std::string("server: pipe2(): ") +
                                     std::strerror(errno));
    ::close(fd);
    return status;
  }

  listen_fd_ = fd;
  hard_stop_.store(false);
  teardown_claimed_.store(false);
  drain_deadline_unix_ms_.store(0);
  // Hot restart: revive the predecessor's drained sessions before the
  // first connection can arrive, so a client's first GetStatus already
  // sees them.
  for (const std::string& name : saved) {
    if (service_.GetStatus(name).ok()) continue;  // already live
    if (ResumeSavedSession(name, nullptr).ok()) {
      sessions_restored_.fetch_add(1);
    }
  }
  lifecycle_.store(static_cast<int>(ServerLifecycle::kRunning));
  // lint:allow(raw-thread) — dedicated poll-loop thread (see header)
  loop_ = std::thread(&TuningServer::EventLoop, this);
  return Status::OK();
}

void TuningServer::Drain() {
  int expected = static_cast<int>(ServerLifecycle::kRunning);
  if (!lifecycle_.compare_exchange_strong(
          expected, static_cast<int>(ServerLifecycle::kDraining))) {
    return;  // already draining or stopped
  }
  drain_deadline_unix_ms_.store(
      NowUnixMillis() +
      std::max<int64_t>(options_.drain_deadline_ms, 0));
  char byte = 'd';
  ssize_t ignored = ::write(wake_pipe_[1], &byte, 1);
  (void)ignored;
}

void TuningServer::Stop() {
  if (lifecycle() == ServerLifecycle::kStopped) return;
  Drain();
  if (teardown_claimed_.exchange(true)) {
    // Another Stop() owns the teardown; wait until it finishes so
    // every caller returns to a fully stopped server.
    MutexLock lock(lifecycle_mu_);
    lifecycle_cv_.Wait(lock, [this]() REQUIRES(lifecycle_mu_) {
      return lifecycle() == ServerLifecycle::kStopped;
    });
    return;
  }
  // The loop exits on its own once the drain quiesces or the drain
  // deadline passes.
  if (loop_.joinable()) loop_.join();
  hard_stop_.store(true);
  {
    MutexLock lock(tasks_mu_);
    tasks_cv_.Wait(lock,
                   [this]() REQUIRES(tasks_mu_) { return active_tasks_ == 0; });
  }
  // Chaos hook: teardown stalls (slow disk, wedged fsync) — shutdown
  // still completes, just later; nothing after this point can lose
  // committed work.
  if (FaultInjection::ShouldFail("drain.slow")) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  {
    MutexLock lock(maintenance_mu_);
    service_.PersistChanged();
  }
  conns_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
  wake_pipe_[0] = wake_pipe_[1] = -1;
  {
    MutexLock lock(lifecycle_mu_);
    lifecycle_.store(static_cast<int>(ServerLifecycle::kStopped));
    lifecycle_cv_.NotifyAll();
  }
}

void TuningServer::EventLoop() {
  const int64_t autosave_period = options_.autosave_interval_ms;
  const int64_t evict_period =
      options_.idle_eviction_ms > 0
          ? std::max<int64_t>(options_.idle_eviction_ms / 4, 10)
          : 0;
  int64_t next_autosave = autosave_period > 0
                              ? NowUnixMillis() + autosave_period
                              : INT64_MAX;
  int64_t next_evict =
      evict_period > 0 ? NowUnixMillis() + evict_period : INT64_MAX;
  // Pending-trial deadlines are swept on a fixed cadence; the sweep
  // skips, without locking, every session that configured no deadline.
  const int64_t expire_period = 200;
  int64_t next_expire = NowUnixMillis() + expire_period;

  std::vector<pollfd> fds;
  while (!hard_stop_.load()) {
    const bool draining_now = draining();
    if (draining_now) {
      if (listen_fd_ >= 0) {
        // Stop accepting: connects refuse from here on, while live
        // connections keep getting (cheap) answers.
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
      // Drain complete: every admitted request answered and every
      // background drive finished — or the deadline says stop waiting.
      if ((pending_requests_.load() == 0 && ActiveTasks() == 0) ||
          NowUnixMillis() >= drain_deadline_unix_ms_.load()) {
        break;
      }
    }

    fds.clear();
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    size_t listen_index = 0;
    if (listen_fd_ >= 0) {
      listen_index = fds.size();
      fds.push_back({listen_fd_, POLLIN, 0});
    }
    const size_t conn_base = fds.size();
    for (const auto& [fd, conn] : conns_) {
      fds.push_back({fd, POLLIN, 0});
    }

    int64_t now = NowUnixMillis();
    int64_t next_timer =
        std::min(std::min(next_autosave, next_evict), next_expire);
    int timeout_ms = std::max(options_.poll_timeout_ms, 0);
    // While draining, poll briefly: quiescence happens on the pool
    // (handlers and drive steps finishing), which poll can't see.
    if (draining_now) timeout_ms = std::min(timeout_ms, 10);
    if (next_timer != INT64_MAX) {
      int64_t wait = next_timer - now;
      if (wait < 0) wait = 0;
      if (wait < timeout_ms) timeout_ms = static_cast<int>(wait);
    }
    int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
    if (hard_stop_.load()) break;
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }

    now = NowUnixMillis();
    if (now >= next_autosave) {
      MutexLock lock(maintenance_mu_);
      service_.PersistChanged();
      next_autosave = now + autosave_period;
    }
    if (now >= next_evict) {
      MutexLock lock(maintenance_mu_);
      EvictionSweep();
      next_evict = now + evict_period;
    }
    if (now >= next_expire) {
      service_.ExpireOverdue(now);
      next_expire = now + expire_period;
    }
    if (rc == 0) continue;

    if (fds[0].revents & POLLIN) {
      char drain[64];
      while (::read(wake_pipe_[0], drain, sizeof(drain)) > 0) {
      }
    }
    if (listen_index != 0 && (fds[listen_index].revents & POLLIN)) {
      for (;;) {
        int cfd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
        if (cfd < 0) break;
        conns_.emplace(
            cfd, std::make_shared<Conn>(cfd, options_.max_frame_payload));
      }
    }
    for (size_t i = conn_base; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      auto it = conns_.find(fds[i].fd);
      if (it == conns_.end()) continue;
      ConnPtr conn = it->second;
      bool alive = true;
      HandleReadable(conn);
      if (conn->closed.load()) alive = false;
      if (!alive) conns_.erase(it);
    }
  }
}

void TuningServer::HandleReadable(const ConnPtr& conn) {
  char buf[16384];
  for (;;) {
    // Chaos hook: ask the kernel for a single byte so the decoder
    // sees a torn frame boundary. Shrinking the *request* (instead of
    // discarding part of what recv returned) keeps the remainder
    // queued in the socket — a short read, never data loss.
    size_t want = sizeof(buf);
    if (FaultInjection::ShouldFail("server.recv.short")) want = 1;
    ssize_t n = ::recv(conn->fd, buf, want, 0);
    if (n > 0) {
      conn->decoder.Feed(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      conn->closed.store(true);
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    conn->closed.store(true);
    break;
  }

  for (;;) {
    Result<std::optional<Frame>> next = conn->decoder.Next();
    if (!next.ok()) {
      // Framing faults are unrecoverable (the stream has lost sync):
      // answer once with BadFrame, then drop the connection.
      WriteFrame(conn, MessageKind::kError,
                 EncodeError(WireError::kBadFrame, next.status().ToString()));
      conn->closed.store(true);
      return;
    }
    if (!next->has_value()) return;
    AdmitFrame(conn, std::move(**next));
  }
}

void TuningServer::AdmitFrame(const ConnPtr& conn, Frame frame) {
  const bool expensive = IsExpensiveKind(frame.kind);
  const int64_t now = NowUnixMillis();

  if (expensive && draining()) {
    WriteFrame(conn, MessageKind::kError,
               EncodeError(WireError::kShuttingDown,
                           "server draining: not accepting new work",
                           DrainRetryHintMs(now)));
    return;
  }
  if (pending_requests_.load() >= options_.max_pending_requests) {
    if (expensive) {
      shed_overload_.fetch_add(1);
      WriteFrame(
          conn, MessageKind::kError,
          EncodeError(WireError::kOverloaded,
                      "server overloaded: pending-request queue is full",
                      NextShedHintMs()));
    } else {
      busy_rejections_.fetch_add(1);
      WriteFrame(conn, MessageKind::kError,
                 EncodeError(WireError::kBusy,
                             "server busy: pending-request queue is full"));
    }
    return;
  }
  std::string tenant = conn->Tenant();
  if (expensive) {
    const int cap = ExpensiveCap();
    std::string why;
    if (pending_expensive_.load() >= cap ||
        FaultInjection::ShouldFail("shed.force")) {
      why = "server overloaded: expensive-request budget is full";
    } else {
      // Fair admission: under pressure, a tenant already holding its
      // share of the expensive budget is shed so one hot tenant can't
      // starve the rest. The slot reservation happens under the same
      // lock as the check so concurrent admits can't oversubscribe.
      MutexLock lock(meta_mu_);
      auto it = tenant_inflight_.find(tenant);
      const int inflight = it == tenant_inflight_.end() ? 0 : it->second;
      const int active = static_cast<int>(tenant_inflight_.size()) +
                         (it == tenant_inflight_.end() ? 1 : 0);
      if (FairShareExceeded(inflight, active, cap,
                            pending_expensive_.load())) {
        why = "server overloaded: tenant '" + tenant +
              "' is over its fair share";
      } else {
        ++tenant_inflight_[tenant];
      }
    }
    if (!why.empty()) {
      shed_overload_.fetch_add(1);
      WriteFrame(conn, MessageKind::kError,
                 EncodeError(WireError::kOverloaded, why, NextShedHintMs()));
      return;
    }
    pending_expensive_.fetch_add(1);
  }

  PendingRequest request;
  int64_t deadline_ms = DeadlineRiderMs(frame.payload);
  if (deadline_ms <= 0) deadline_ms = options_.default_request_deadline_ms;
  request.deadline_unix_ms = deadline_ms > 0 ? now + deadline_ms : 0;
  request.expensive = expensive;
  request.tenant = std::move(tenant);
  request.frame = std::move(frame);
  pending_requests_.fetch_add(1);
  {
    MutexLock lock(conn->mu);
    conn->inbox.push_back(std::move(request));
  }
  Dispatch(conn);
}

void TuningServer::Dispatch(const ConnPtr& conn) {
  PendingRequest request;
  {
    MutexLock lock(conn->mu);
    if (conn->busy || conn->inbox.empty()) return;
    conn->busy = true;
    request = std::move(conn->inbox.front());
    conn->inbox.pop_front();
  }
  TaskStarted();
  ThreadPool::Global().Submit(
      [this, conn, request = std::move(request)]() mutable {
        RunHandler(conn, std::move(request));
      });
}

void TuningServer::RunHandler(const ConnPtr& conn, PendingRequest request) {
  std::string reply;
  const int64_t now = NowUnixMillis();
  if (hard_stop_.load()) {
    // Forced teardown after the drain deadline: answer, don't work.
    reply = EncodeFrame(MessageKind::kError,
                        EncodeError(WireError::kShuttingDown,
                                    "server stopping: request abandoned"));
  } else if ((request.deadline_unix_ms > 0 &&
              now > request.deadline_unix_ms) ||
             FaultInjection::ShouldFail("shed.deadline.force")) {
    // Dead on arrival: the caller stopped waiting while this request
    // sat in the queue; doing the work would burn budget for nobody.
    shed_deadline_.fetch_add(1);
    reply = OverloadedReplyFrame("request deadline passed while queued");
  } else {
    reply = HandleRequest(conn, request.frame);
  }
  // Chaos hook: the request committed server-side but its reply is
  // lost and the connection resets — the client must reconnect and
  // recover through retry + idempotent dedup.
  if (FaultInjection::ShouldFail("server.send.reset")) {
    conn->closed.store(true);
    ::shutdown(conn->fd, SHUT_RDWR);
  }
  {
    MutexLock lock(conn->write_mu);
    if (!conn->closed.load() &&
        !SendAll(conn->fd, reply.data(), reply.size())) {
      conn->closed.store(true);
    }
  }
  pending_requests_.fetch_sub(1);
  if (request.expensive) {
    pending_expensive_.fetch_sub(1);
    MutexLock lock(meta_mu_);
    auto it = tenant_inflight_.find(request.tenant);
    if (it != tenant_inflight_.end() && --it->second <= 0) {
      tenant_inflight_.erase(it);
    }
  }
  {
    MutexLock lock(conn->mu);
    conn->busy = false;
  }
  Dispatch(conn);
  TaskFinished();
}

void TuningServer::WriteFrame(const ConnPtr& conn, MessageKind kind,
                              const std::string& payload) {
  std::string bytes = EncodeFrame(kind, payload);
  MutexLock lock(conn->write_mu);
  if (conn->closed.load()) return;
  if (!SendAll(conn->fd, bytes.data(), bytes.size())) {
    conn->closed.store(true);
  }
}

std::string TuningServer::ErrorReplyFrame(const Status& status) const {
  return EncodeFrame(
      MessageKind::kError,
      EncodeError(WireErrorFromStatus(status), status.message()));
}

std::string TuningServer::StatusReplyFrame(const Status& status) const {
  return status.ok() ? EncodeFrame(MessageKind::kOk, "")
                     : ErrorReplyFrame(status);
}

std::string TuningServer::OverloadedReplyFrame(const std::string& why) {
  return EncodeFrame(
      MessageKind::kError,
      EncodeError(WireError::kOverloaded, why, NextShedHintMs()));
}

std::string TuningServer::HandleRequest(const ConnPtr& conn,
                                        const Frame& frame) {
  switch (frame.kind) {
    case MessageKind::kHello: {
      Result<std::string> tenant = DecodeHello(frame.payload);
      if (!tenant.ok()) return MalformedReplyFrame(tenant.status());
      {
        MutexLock lock(conn->mu);
        conn->tenant = *tenant;
      }
      return EncodeFrame(MessageKind::kOk, "");
    }
    case MessageKind::kCreateSession:
    case MessageKind::kResume: {
      std::string name, checkpoint;
      WireSessionSpec wire;
      const bool create = frame.kind == MessageKind::kCreateSession;
      Status parse =
          create ? DecodeCreateSession(frame.payload, &name, &wire)
                 : DecodeResume(frame.payload, &name, &wire, &checkpoint);
      if (!parse.ok()) return MalformedReplyFrame(parse);
      return StatusReplyFrame(AddSession(name, wire, conn->Tenant(),
                                         create ? nullptr : &checkpoint,
                                         nullptr));
    }
    case MessageKind::kResumeSaved: {
      Result<std::string> name = DecodeNameOnly(frame.payload);
      if (!name.ok()) return MalformedReplyFrame(name.status());
      const std::string tenant = conn->Tenant();
      return StatusReplyFrame(ResumeSavedSession(*name, &tenant));
    }
    case MessageKind::kAsk: {
      Result<std::string> name = DecodeNameOnly(frame.payload);
      if (!name.ok()) return MalformedReplyFrame(name.status());
      Result<Trial> trial = service_.Ask(*name);
      if (!trial.ok()) return ErrorReplyFrame(trial.status());
      return EncodeFrame(MessageKind::kTrialReply, EncodeTrialReply(*trial));
    }
    case MessageKind::kAskBatch: {
      std::string name;
      int n = 0;
      Status parse = DecodeAskBatch(frame.payload, &name, &n);
      if (!parse.ok()) return MalformedReplyFrame(parse);
      Result<std::vector<Trial>> trials = service_.AskBatch(name, n);
      if (!trials.ok()) return ErrorReplyFrame(trials.status());
      return EncodeFrame(MessageKind::kTrialsReply,
                         EncodeTrialsReply(*trials));
    }
    case MessageKind::kTell: {
      std::string name;
      TrialResult result;
      Status parse = DecodeTell(frame.payload, &name, &result);
      if (!parse.ok()) return MalformedReplyFrame(parse);
      return StatusReplyFrame(service_.Tell(name, result));
    }
    case MessageKind::kTellBatch: {
      std::string name;
      std::vector<TrialResult> results;
      Status parse = DecodeTellBatch(frame.payload, &name, &results);
      if (!parse.ok()) return MalformedReplyFrame(parse);
      return StatusReplyFrame(service_.TellBatch(name, results));
    }
    case MessageKind::kStep: {
      Result<std::string> name = DecodeNameOnly(frame.payload);
      if (!name.ok()) return MalformedReplyFrame(name.status());
      bool progressed = false;
      Status stepped = service_.Step(*name, &progressed);
      if (!stepped.ok()) return ErrorReplyFrame(stepped);
      return EncodeFrame(MessageKind::kSteppedReply,
                         EncodeSteppedReply(progressed));
    }
    case MessageKind::kGetPending: {
      Result<std::string> name = DecodeNameOnly(frame.payload);
      if (!name.ok()) return MalformedReplyFrame(name.status());
      int64_t next = 0;
      Result<std::vector<Trial>> pending = service_.GetPending(*name, &next);
      if (!pending.ok()) return ErrorReplyFrame(pending.status());
      return EncodeFrame(MessageKind::kPendingReply,
                         EncodePendingReply(next, *pending));
    }
    case MessageKind::kStartDrive: {
      Result<std::string> name = DecodeNameOnly(frame.payload);
      if (!name.ok()) return MalformedReplyFrame(name.status());
      return HandleStartDrive(*name);
    }
    case MessageKind::kGetStatus: {
      Result<std::string> name = DecodeNameOnly(frame.payload);
      if (!name.ok()) return MalformedReplyFrame(name.status());
      Result<service::SessionStatus> status = service_.GetStatus(*name);
      if (!status.ok()) return ErrorReplyFrame(status.status());
      MetaPtr meta = MetaFor(*name);
      WireSessionStatus wire{*status, meta != nullptr && meta->driving.load()};
      return EncodeFrame(MessageKind::kStatusReply, EncodeStatusReply(wire));
    }
    case MessageKind::kListSessions: {
      std::vector<service::SessionStatus> statuses = service_.ListSessions();
      std::vector<WireSessionStatus> wire;
      wire.reserve(statuses.size());
      MutexLock lock(meta_mu_);
      for (service::SessionStatus& status : statuses) {
        WireSessionStatus w;
        auto it = metas_.find(status.name);
        if (it != metas_.end()) w.driving = it->second->driving.load();
        w.status = std::move(status);
        wire.push_back(std::move(w));
      }
      return EncodeFrame(MessageKind::kStatusListReply,
                         EncodeStatusListReply(wire));
    }
    case MessageKind::kCheckpoint: {
      Result<std::string> name = DecodeNameOnly(frame.payload);
      if (!name.ok()) return MalformedReplyFrame(name.status());
      Result<std::string> checkpoint = service_.Checkpoint(*name);
      if (!checkpoint.ok()) return ErrorReplyFrame(checkpoint.status());
      return EncodeFrame(MessageKind::kCheckpointReply,
                         EncodeCheckpointReply(*checkpoint));
    }
    case MessageKind::kClose: {
      Result<std::string> name = DecodeNameOnly(frame.payload);
      if (!name.ok()) return MalformedReplyFrame(name.status());
      return HandleClose(*name);
    }
    case MessageKind::kPing:
      return EncodeFrame(MessageKind::kPongReply, frame.payload);
    case MessageKind::kDrain:
      // Begin draining and answer OK; the caller polls health (or just
      // watches its connection close) to see the drain complete. Never
      // Stop() from here — Stop waits for in-flight handlers, and this
      // handler is one of them.
      Drain();
      return EncodeFrame(MessageKind::kOk, "");
    case MessageKind::kHealthCheck:
      return EncodeFrame(MessageKind::kHealthReply,
                         EncodeHealthReply(Health()));
    case MessageKind::kServerStats:
      return EncodeFrame(MessageKind::kStatsReply, EncodeStatsReply(Stats()));
    default:
      return EncodeFrame(
          MessageKind::kError,
          EncodeError(WireError::kUnknownKind,
                      "unknown or non-request message kind " +
                          std::to_string(static_cast<int>(frame.kind))));
  }
}

WireServerHealth TuningServer::Health() const {
  WireServerHealth health;
  health.lifecycle = lifecycle();
  health.pending_requests = pending_requests_.load();
  health.sessions = service_.session_count();
  return health;
}

WireServerStats TuningServer::Stats() const {
  WireServerStats stats;
  stats.lifecycle = lifecycle();
  stats.pending_requests = pending_requests_.load();
  stats.pending_expensive = pending_expensive_.load();
  stats.sessions = service_.session_count();
  stats.busy_rejections = busy_rejections_.load();
  stats.shed_overload = shed_overload_.load();
  stats.shed_deadline = shed_deadline_.load();
  stats.sessions_evicted = sessions_evicted_.load();
  stats.autosaves_written = service_.store().autosaves_written();
  stats.sessions_restored = sessions_restored_.load();
  {
    MutexLock lock(meta_mu_);
    std::map<std::string, int64_t> by_tenant;
    for (const auto& [name, meta] : metas_) ++by_tenant[meta->tenant];
    stats.tenant_sessions.assign(by_tenant.begin(), by_tenant.end());
  }
  return stats;
}

bool TuningServer::FairShareExceeded(int tenant_inflight, int active_tenants,
                                     int expensive_cap,
                                     int pending_expensive) {
  if (active_tenants <= 1 || expensive_cap <= 0) return false;
  // Below half the budget there is headroom — let bursts through and
  // keep the single-tenant fast path unthrottled.
  if (pending_expensive * 2 < expensive_cap) return false;
  const int fair_share = std::max(1, expensive_cap / active_tenants);
  return tenant_inflight >= fair_share;
}

int TuningServer::ExpensiveCap() const {
  return std::max(1, options_.max_pending_requests -
                         std::max(options_.cheap_admission_reserve, 0));
}

int64_t TuningServer::NextShedHintMs() {
  MutexLock lock(shed_mu_);
  const int64_t lo = std::max<int64_t>(options_.shed_retry_base_ms, 1);
  const int64_t cap = std::max<int64_t>(options_.shed_retry_max_ms, lo);
  const int64_t hi =
      std::min(cap, std::max<int64_t>(lo + 1, shed_prev_hint_ * 3));
  shed_rng_ = Mix64(shed_rng_);
  const int64_t hint =
      lo +
      static_cast<int64_t>(shed_rng_ % static_cast<uint64_t>(hi - lo + 1));
  shed_prev_hint_ = hint;
  return hint;
}

int64_t TuningServer::DrainRetryHintMs(int64_t now_unix_ms) const {
  // Come back once the drain window has passed (a successor may be
  // listening by then); never hint below the shed base.
  const int64_t remaining = drain_deadline_unix_ms_.load() - now_unix_ms;
  return std::max<int64_t>(std::max<int64_t>(options_.shed_retry_base_ms, 1),
                           remaining);
}

Status TuningServer::AddSession(const std::string& name,
                                const WireSessionSpec& wire,
                                const std::string& tenant,
                                const std::string* checkpoint,
                                const std::string* saved_header) {
  auto meta = std::make_shared<SessionMeta>();
  meta->tenant = tenant;
  service::SessionSpec spec;
  LT_RETURN_NOT_OK(BuildSessionSpec(wire, &meta->owned_space, &spec));
  LT_RETURN_NOT_OK(ReserveTenantSlot(tenant));
  // The autosave header: the spec line plus a trailing tenant token,
  // so a hot-restart sweep can rebuild ownership (DecodeSessionSpec
  // stops at the spec, so pre-token readers still load the file).
  const std::string header =
      EncodeSessionSpec(wire) + " tenant x" + EncodeBytes(tenant);
  Status added =
      checkpoint == nullptr ? service_.CreateSession(name, spec, header)
      : saved_header != nullptr
          ? service_.Recover(name, spec, *checkpoint, header,
                             header == *saved_header)
          : service_.Resume(name, spec, *checkpoint, header);
  if (!added.ok()) {
    ReleaseTenantSlot(tenant);
    return added;
  }
  // This may replace the meta of a same-named session whose close has
  // not finished yet; that close releases its slot.
  MutexLock lock(meta_mu_);
  metas_[name] = std::move(meta);
  return Status::OK();
}

Status TuningServer::ResumeSavedSession(const std::string& name,
                                        const std::string* tenant_override) {
  Result<service::SavedSession> saved = service_.store().Load(name);
  if (!saved.ok()) return saved.status();
  Result<WireSessionSpec> wire = DecodeSessionSpec(saved->header);
  if (!wire.ok()) return wire.status();
  // The autosave restored every committed round; the WAL tail holds
  // whatever was told after that snapshot, and is replayed before the
  // session becomes visible, so the caller sees the post-crash state.
  return AddSession(name, *wire,
                    tenant_override != nullptr
                        ? *tenant_override
                        : TenantFromAutosaveHeader(saved->header),
                    &saved->checkpoint, &saved->header);
}

std::string TuningServer::HandleStartDrive(const std::string& name) {
  MetaPtr meta = MetaFor(name);
  Result<service::SessionStatus> status = service_.GetStatus(name);
  if (meta == nullptr || !status.ok()) {
    return ErrorReplyFrame(
        Status::SessionNotFound("server: no session '" + name + "'"));
  }
  if (status->external) {
    return ErrorReplyFrame(Status::FailedPrecondition(
        "server: session '" + name +
        "' is caller-driven (space source); use Ask/Tell"));
  }
  if (meta->driving.exchange(true)) {
    return EncodeFrame(MessageKind::kOk, "");  // idempotent
  }
  TaskStarted();
  ThreadPool::Global().Submit([this, name, meta] { DriveStep(name, meta); });
  return EncodeFrame(MessageKind::kOk, "");
}

void TuningServer::DriveStep(const std::string& name, MetaPtr meta) {
  bool progressed = false;
  Status status = service_.Step(name, &progressed);
  // A drain lets the drive run to completion (its session autosaves in
  // the final sweep either way); only the forced teardown after the
  // drain deadline halts it mid-run.
  if (hard_stop_.load() || !status.ok() || !progressed) {
    meta->driving.store(false);
    TaskFinished();
    return;
  }
  // Requeue one step at a time instead of looping: on a small pool
  // this interleaves fairly with request handlers and other drives.
  ThreadPool::Global().Submit([this, name, meta = std::move(meta)] {
    DriveStep(name, std::move(meta));
  });
}

std::string TuningServer::HandleClose(const std::string& name) {
  MetaPtr meta = ClaimMeta(name);
  if (meta == nullptr) {
    return ErrorReplyFrame(
        Status::SessionNotFound("server: no session '" + name + "'"));
  }
  // Explicit close: done for good, so the service deletes both files.
  Result<SessionResult> closed = service_.Close(name);
  // Chaos hook: the close stalls after the name is free in the service
  // and before its meta is dropped, the window in which a same-named
  // create can land. Holds until fault injection is reset (at most 5 s).
  if (FaultInjection::ShouldFail("close.pause")) {
    for (int ms = 0; ms < 5000 && FaultInjection::enabled(); ++ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ForgetMeta(name, meta);
  if (!closed.ok()) return ErrorReplyFrame(closed.status());
  WireCloseResult result;
  result.iterations_run = closed->iterations_run;
  result.best_performance = closed->best_performance;
  result.default_performance = closed->default_performance;
  return EncodeFrame(MessageKind::kClosedReply, EncodeClosedReply(result));
}

Status TuningServer::BuildSessionSpec(const WireSessionSpec& wire,
                                      std::unique_ptr<ConfigSpace>* owned_space,
                                      service::SessionSpec* out) const {
  if (!wire.workload.empty()) {
    Result<dbsim::WorkloadSpec> workload = dbsim::WorkloadByName(wire.workload);
    if (!workload.ok()) return workload.status();
    out->workload = *workload;
  } else {
    Result<ConfigSpace> space = ConfigSpace::Create(wire.space_knobs);
    if (!space.ok()) return space.status();
    *owned_space =
        std::make_unique<ConfigSpace>(std::move(space).ValueOrDie());
    out->space = owned_space->get();
    out->maximize = wire.maximize;
  }
  static_cast<harness::TunerConfig&>(*out) = wire;
  return Status::OK();
}

Status TuningServer::ReserveTenantSlot(const std::string& tenant) {
  if (options_.max_sessions_per_tenant <= 0) return Status::OK();
  MutexLock lock(meta_mu_);
  int& count = tenant_sessions_[tenant];
  if (count >= options_.max_sessions_per_tenant) {
    return Status::ResourceExhausted(
        "tenant '" + tenant + "' is at its session quota (" +
        std::to_string(options_.max_sessions_per_tenant) + ")");
  }
  ++count;
  return Status::OK();
}

void TuningServer::ReleaseTenantSlot(const std::string& tenant) {
  if (options_.max_sessions_per_tenant <= 0) return;
  MutexLock lock(meta_mu_);
  auto it = tenant_sessions_.find(tenant);
  if (it != tenant_sessions_.end() && --it->second <= 0) {
    tenant_sessions_.erase(it);
  }
}

void TuningServer::EvictionSweep() {
  if (options_.idle_eviction_ms <= 0) return;
  int64_t now = NowUnixMillis();
  for (const service::SessionStatus& status : service_.ListSessions()) {
    if (now - status.last_activity_unix_ms < options_.idle_eviction_ms) {
      continue;
    }
    MetaPtr meta = ClaimMeta(status.name, /*unless_driving=*/true);
    // The server only evicts sessions it created over the wire.
    if (meta == nullptr) continue;
    // The service persists the session and keeps both files.
    if (service_.Evict(status.name).ok()) sessions_evicted_.fetch_add(1);
    ForgetMeta(status.name, meta);
  }
}

TuningServer::MetaPtr TuningServer::MetaFor(const std::string& name) const {
  MutexLock lock(meta_mu_);
  auto it = metas_.find(name);
  return it == metas_.end() ? nullptr : it->second;
}

TuningServer::MetaPtr TuningServer::ClaimMeta(const std::string& name,
                                              bool unless_driving) {
  MetaPtr meta = MetaFor(name);
  if (meta == nullptr || (unless_driving && meta->driving.load()) ||
      meta->closing.exchange(true)) {
    return nullptr;
  }
  return meta;
}

void TuningServer::ForgetMeta(const std::string& name, const MetaPtr& meta) {
  {
    MutexLock lock(meta_mu_);
    auto it = metas_.find(name);
    if (it != metas_.end() && it->second == meta) metas_.erase(it);
  }
  ReleaseTenantSlot(meta->tenant);
}

void TuningServer::RunMaintenance() {
  MutexLock lock(maintenance_mu_);
  service_.ExpireOverdue(NowUnixMillis());
  service_.PersistChanged();
  EvictionSweep();
}

void TuningServer::TaskStarted() {
  MutexLock lock(tasks_mu_);
  ++active_tasks_;
}

void TuningServer::TaskFinished() {
  MutexLock lock(tasks_mu_);
  --active_tasks_;
  tasks_cv_.NotifyAll();
}

int TuningServer::ActiveTasks() {
  MutexLock lock(tasks_mu_);
  return active_tasks_;
}

}  // namespace net
}  // namespace llamatune
