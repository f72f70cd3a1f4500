#include "src/net/tuning_server.h"

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/fault_injection.h"
#include "src/common/file_io.h"
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
/// close unlink the autosave the successor will resume from.
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

/// splitmix64 finalizer — the same cheap deterministic mixer the
/// resilient client uses for its decorrelated jitter.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
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
    : options_(std::move(options)) {}

TuningServer::~TuningServer() { Stop(); }

Status TuningServer::Start() {
  if (lifecycle() != ServerLifecycle::kStopped) {
    return Status::FailedPrecondition("server: already running");
  }
  if (!options_.autosave_dir.empty()) {
    ::mkdir(options_.autosave_dir.c_str(), 0755);
    struct stat sb;
    if (::stat(options_.autosave_dir.c_str(), &sb) != 0 ||
        !S_ISDIR(sb.st_mode)) {
      return Status::InvalidArgument("server: autosave dir '" +
                                     options_.autosave_dir +
                                     "' is not a usable directory");
    }
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
  if (options_.resume_saved_on_start && !options_.autosave_dir.empty()) {
    ResumeSavedStartupSweep();
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
      service::NowUnixMillis() +
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
  if (!options_.autosave_dir.empty()) {
    MutexLock lock(maintenance_mu_);
    AutosaveSweep();
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
                              ? service::NowUnixMillis() + autosave_period
                              : INT64_MAX;
  int64_t next_evict =
      evict_period > 0 ? service::NowUnixMillis() + evict_period : INT64_MAX;
  // Pending-trial deadlines are swept on a fixed cadence; the sweep
  // exits immediately when no wire session configured a deadline.
  const int64_t expire_period = 200;
  int64_t next_expire = service::NowUnixMillis() + expire_period;

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
          service::NowUnixMillis() >= drain_deadline_unix_ms_.load()) {
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

    int64_t now = service::NowUnixMillis();
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

    now = service::NowUnixMillis();
    if (now >= next_autosave) {
      MutexLock lock(maintenance_mu_);
      AutosaveSweep();
      next_autosave = now + autosave_period;
    }
    if (now >= next_evict) {
      MutexLock lock(maintenance_mu_);
      EvictionSweep();
      next_evict = now + evict_period;
    }
    if (now >= next_expire) {
      ExpireSweep();
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
  const int64_t now = service::NowUnixMillis();

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
  std::string tenant;
  {
    MutexLock lock(conn->mu);
    tenant = conn->tenant;
  }
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
  const int64_t now = service::NowUnixMillis();
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
    case MessageKind::kResume:
      return HandleCreateOrResume(conn, frame);
    case MessageKind::kResumeSaved: {
      Result<std::string> name = DecodeNameOnly(frame.payload);
      if (!name.ok()) return MalformedReplyFrame(name.status());
      return HandleResumeSaved(conn, *name);
    }
    case MessageKind::kAsk: {
      Result<std::string> name = DecodeNameOnly(frame.payload);
      if (!name.ok()) return MalformedReplyFrame(name.status());
      Result<Trial> trial = DoAsk(*name);
      if (!trial.ok()) return ErrorReplyFrame(trial.status());
      return EncodeFrame(MessageKind::kTrialReply, EncodeTrialReply(*trial));
    }
    case MessageKind::kAskBatch: {
      std::string name;
      int n = 0;
      Status parse = DecodeAskBatch(frame.payload, &name, &n);
      if (!parse.ok()) return MalformedReplyFrame(parse);
      Result<std::vector<Trial>> trials = DoAskBatch(name, n);
      if (!trials.ok()) return ErrorReplyFrame(trials.status());
      return EncodeFrame(MessageKind::kTrialsReply,
                         EncodeTrialsReply(*trials));
    }
    case MessageKind::kTell: {
      std::string name;
      TrialResult result;
      Status parse = DecodeTell(frame.payload, &name, &result);
      if (!parse.ok()) return MalformedReplyFrame(parse);
      Status told = DoTell(name, result);
      if (!told.ok()) return ErrorReplyFrame(told);
      return EncodeFrame(MessageKind::kOk, "");
    }
    case MessageKind::kTellBatch: {
      std::string name;
      std::vector<TrialResult> results;
      Status parse = DecodeTellBatch(frame.payload, &name, &results);
      if (!parse.ok()) return MalformedReplyFrame(parse);
      Status told = DoTellBatch(name, results);
      if (!told.ok()) return ErrorReplyFrame(told);
      return EncodeFrame(MessageKind::kOk, "");
    }
    case MessageKind::kStep: {
      Result<std::string> name = DecodeNameOnly(frame.payload);
      if (!name.ok()) return MalformedReplyFrame(name.status());
      bool progressed = false;
      Status stepped = DoStep(*name, &progressed);
      if (!stepped.ok()) return ErrorReplyFrame(stepped);
      return EncodeFrame(MessageKind::kSteppedReply,
                         EncodeSteppedReply(progressed));
    }
    case MessageKind::kGetPending: {
      Result<std::string> name = DecodeNameOnly(frame.payload);
      if (!name.ok()) return MalformedReplyFrame(name.status());
      MetaPtr meta = FindMeta(*name);
      auto snapshot = [&]() -> std::string {
        Result<int64_t> next = service_.NextTrialId(*name);
        if (!next.ok()) return ErrorReplyFrame(next.status());
        Result<std::vector<Trial>> pending = service_.GetPending(*name);
        if (!pending.ok()) return ErrorReplyFrame(pending.status());
        return EncodeFrame(MessageKind::kPendingReply,
                           EncodePendingReply(*next, *pending));
      };
      // Hold op_mu (when the session is wire-created) so the cursor
      // and the pending list are one consistent snapshot.
      if (meta != nullptr) {
        MutexLock op_lock(meta->op_mu);
        return snapshot();
      }
      return snapshot();
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
      WireSessionStatus wire;
      wire.status = *status;
      {
        MutexLock lock(meta_mu_);
        auto it = metas_.find(*name);
        if (it != metas_.end()) wire.driving = it->second->driving.load();
      }
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
  stats.autosaves_written = autosaves_written_.load();
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

TuningServer::MetaPtr TuningServer::FindMeta(const std::string& name) const {
  MutexLock lock(meta_mu_);
  auto it = metas_.find(name);
  return it == metas_.end() ? nullptr : it->second;
}

Result<Trial> TuningServer::DoAsk(const std::string& name) {
  MetaPtr meta = FindMeta(name);
  if (meta == nullptr || !meta->wal.is_open()) return service_.Ask(name);
  MutexLock lock(meta->op_mu);
  Result<Trial> trial = service_.Ask(name);
  if (trial.ok()) {
    meta->wal.Append("ask1 " + std::to_string(trial->id)).ok();
  }
  return trial;
}

Result<std::vector<Trial>> TuningServer::DoAskBatch(const std::string& name,
                                                    int n) {
  MetaPtr meta = FindMeta(name);
  if (meta == nullptr || !meta->wal.is_open()) {
    return service_.AskBatch(name, n);
  }
  MutexLock lock(meta->op_mu);
  Result<std::vector<Trial>> trials = service_.AskBatch(name, n);
  if (trials.ok() && !trials->empty()) {
    // Record the *request* (n), not the count handed out: replay must
    // re-issue the identical call to draw the identical batch.
    meta->wal
        .Append("askb " + std::to_string(n) + " " +
                std::to_string(trials->front().id))
        .ok();
  }
  return trials;
}

Status TuningServer::DoTell(const std::string& name,
                            const TrialResult& result) {
  MetaPtr meta = FindMeta(name);
  if (meta == nullptr || !meta->wal.is_open()) {
    return service_.Tell(name, result);
  }
  MutexLock lock(meta->op_mu);
  Status told = service_.Tell(name, result);
  if (told.ok()) {
    meta->wal.Append("tell x" + EncodeBytes(SerializeTrialResult(result)))
        .ok();
  }
  return told;
}

Status TuningServer::DoTellBatch(const std::string& name,
                                 const std::vector<TrialResult>& results) {
  MetaPtr meta = FindMeta(name);
  if (meta == nullptr || !meta->wal.is_open()) {
    return service_.TellBatch(name, results);
  }
  // TellBatch is defined as a sequential Tell loop (first error wins,
  // earlier results stay committed), so logging per result keeps the
  // WAL exact even on partial failure.
  MutexLock lock(meta->op_mu);
  for (const TrialResult& result : results) {
    Status told = service_.Tell(name, result);
    if (!told.ok()) return told;
    meta->wal.Append("tell x" + EncodeBytes(SerializeTrialResult(result)))
        .ok();
  }
  return Status::OK();
}

Status TuningServer::DoStep(const std::string& name, bool* progressed) {
  MetaPtr meta = FindMeta(name);
  if (meta == nullptr || !meta->wal.is_open()) {
    return service_.Step(name, progressed);
  }
  MutexLock lock(meta->op_mu);
  Result<service::SessionStatus> before = service_.GetStatus(name);
  bool stepped = false;
  Status status = service_.Step(name, &stepped);
  if (status.ok() && stepped && before.ok()) {
    meta->wal.Append("step " + std::to_string(before->iterations_run)).ok();
  }
  if (progressed != nullptr) *progressed = stepped;
  return status;
}

void TuningServer::ExpireSweep() {
  int64_t now = service::NowUnixMillis();
  std::vector<std::pair<std::string, MetaPtr>> candidates;
  {
    MutexLock lock(meta_mu_);
    for (const auto& [name, meta] : metas_) {
      if (meta->spec.pending_deadline_ms > 0) {
        candidates.emplace_back(name, meta);
      }
    }
  }
  for (const auto& [name, meta] : candidates) {
    MutexLock lock(meta->op_mu);
    Result<std::vector<int64_t>> expired =
        service_.ExpireOverdueSession(name, now);
    if (!expired.ok() || !meta->wal.is_open()) continue;
    for (int64_t id : *expired) {
      meta->wal.Append("expire " + std::to_string(id)).ok();
    }
  }
}

Status TuningServer::ReplayWal(const std::string& name) {
  Result<std::vector<std::string>> records =
      service::TrialWal::ReadRecords(WalPath(name));
  if (!records.ok()) return records.status();
  for (const std::string& record : *records) {
    TokenReader in(record);
    std::string_view op = in.Next();
    if (op == "ask1" || op == "askb") {
      int requested = 1;
      if (op == "askb") in.Value(requested);
      int64_t first_id = 0;
      in.Value(first_id);
      if (!in.ok()) break;
      Result<int64_t> next = service_.NextTrialId(name);
      if (!next.ok()) return next.status();
      // Rounds commit whole, so the restored cursor always sits on a
      // round boundary: an ask record is either entirely inside the
      // checkpoint (skip), exactly at the cursor (re-issue the same
      // deterministic draw), or past it (a gap from a lost append —
      // nothing after it can be replayed either).
      if (first_id < *next) continue;
      if (first_id > *next) break;
      if (op == "ask1") {
        Result<Trial> trial = service_.Ask(name);
        if (!trial.ok()) return trial.status();
        if (trial->id != first_id) {
          return Status::Internal("wal replay: re-asked trial id " +
                                  std::to_string(trial->id) + " != logged " +
                                  std::to_string(first_id));
        }
      } else {
        Result<std::vector<Trial>> trials = service_.AskBatch(name, requested);
        if (!trials.ok()) return trials.status();
        if (trials->empty() || trials->front().id != first_id) {
          return Status::Internal(
              "wal replay: re-asked batch does not start at logged id " +
              std::to_string(first_id));
        }
      }
    } else if (op == "tell") {
      std::string line;
      in.Value(line);
      if (!in.ok()) break;
      Result<TrialResult> result = ParseTrialResult(line);
      if (!result.ok()) break;
      Status told = service_.Tell(name, *result);
      // AlreadyExists: the autosave checkpoint had committed this
      // tell. TrialExpired: the trial expired and the checkpoint
      // recorded the expiry. Both mean "already applied".
      if (!told.ok() && told.code() != StatusCode::kAlreadyExists &&
          told.code() != StatusCode::kTrialExpired) {
        return told;
      }
    } else if (op == "expire") {
      int64_t id = 0;
      in.Value(id);
      if (!in.ok()) break;
      Status expired = service_.Expire(name, id);
      // AlreadyExists: the trial committed before this stale record.
      if (!expired.ok() && expired.code() != StatusCode::kAlreadyExists) {
        return expired;
      }
    } else if (op == "step") {
      int64_t iters_before = 0;
      in.Value(iters_before);
      if (!in.ok()) break;
      Result<service::SessionStatus> status = service_.GetStatus(name);
      if (!status.ok()) return status.status();
      if (status->iterations_run > iters_before) continue;
      bool progressed = false;
      Status stepped = service_.Step(name, &progressed);
      if (!stepped.ok()) return stepped;
    } else {
      break;  // unknown record: stop at the first thing we can't replay
    }
  }
  return Status::OK();
}

std::string TuningServer::HandleCreateOrResume(const ConnPtr& conn,
                                               const Frame& frame) {
  std::string name, checkpoint;
  WireSessionSpec wire;
  Status parse =
      frame.kind == MessageKind::kCreateSession
          ? DecodeCreateSession(frame.payload, &name, &wire)
          : DecodeResume(frame.payload, &name, &wire, &checkpoint);
  if (!parse.ok()) return MalformedReplyFrame(parse);

  auto meta = std::make_shared<SessionMeta>();
  meta->spec = wire;
  {
    MutexLock lock(conn->mu);
    meta->tenant = conn->tenant;
  }
  service::SessionSpec spec;
  Status built = BuildSessionSpec(wire, &meta->owned_space, &spec);
  if (!built.ok()) return ErrorReplyFrame(built);

  Status quota = ReserveTenantSlot(meta->tenant);
  if (!quota.ok()) return ErrorReplyFrame(quota);
  Status registered = frame.kind == MessageKind::kCreateSession
                          ? service_.CreateSession(name, spec)
                          : service_.Resume(name, spec, checkpoint);
  if (!registered.ok()) {
    ReleaseTenantSlot(meta->tenant);
    return ErrorReplyFrame(registered);
  }
  if (!options_.autosave_dir.empty()) {
    // Fresh incarnation: a stale WAL from an earlier same-named
    // session must not replay into this one.
    if (meta->wal.Open(WalPath(name)).ok()) meta->wal.Truncate().ok();
  }
  {
    MutexLock lock(meta_mu_);
    metas_[name] = std::move(meta);
  }
  return EncodeFrame(MessageKind::kOk, "");
}

std::string TuningServer::HandleResumeSaved(const ConnPtr& conn,
                                            const std::string& name) {
  std::string tenant;
  {
    MutexLock lock(conn->mu);
    tenant = conn->tenant;
  }
  Status resumed = ResumeSavedSession(name, &tenant);
  if (!resumed.ok()) return ErrorReplyFrame(resumed);
  return EncodeFrame(MessageKind::kOk, "");
}

Status TuningServer::ResumeSavedSession(const std::string& name,
                                        const std::string* tenant_override) {
  if (options_.autosave_dir.empty()) {
    return Status::FailedPrecondition("server: autosave is not configured");
  }
  Result<std::string> content = ReadFile(AutosavePath(name));
  if (!content.ok()) {
    return Status::NotFound("server: no autosave for session '" + name + "'");
  }
  const std::string& text = *content;
  size_t newline = text.find('\n');
  if (newline == std::string::npos) {
    return Status::Internal("server: corrupt autosave for '" + name + "'");
  }
  const std::string header = text.substr(0, newline);
  Result<WireSessionSpec> wire = DecodeSessionSpec(header);
  if (!wire.ok()) return wire.status();
  std::string checkpoint = text.substr(newline + 1);

  auto meta = std::make_shared<SessionMeta>();
  meta->spec = *wire;
  meta->tenant = tenant_override != nullptr ? *tenant_override
                                            : TenantFromAutosaveHeader(header);
  service::SessionSpec spec;
  Status built = BuildSessionSpec(meta->spec, &meta->owned_space, &spec);
  if (!built.ok()) return built;

  Status quota = ReserveTenantSlot(meta->tenant);
  if (!quota.ok()) return quota;
  Status resumed = service_.Resume(name, spec, checkpoint);
  if (!resumed.ok()) {
    ReleaseTenantSlot(meta->tenant);
    return resumed;
  }
  // The autosave restored every committed round; the WAL tail holds
  // whatever was told after that snapshot. Replay it before answering
  // so the caller sees the post-crash state. A replay error stops at
  // the last applicable record — the session is still a valid prefix
  // of its pre-crash history (loss ≤ the request in flight), so the
  // resume itself still succeeds.
  ReplayWal(name).ok();
  // Keep appending to the same WAL (no truncation: its records stay
  // idempotent under a second replay, and truncating here would widen
  // the window where a crash loses the tail).
  meta->wal.Open(WalPath(name)).ok();
  {
    MutexLock lock(meta_mu_);
    metas_[name] = std::move(meta);
  }
  return Status::OK();
}

void TuningServer::ResumeSavedStartupSweep() {
  DIR* dir = ::opendir(options_.autosave_dir.c_str());
  if (dir == nullptr) return;
  std::vector<std::string> names;
  for (dirent* entry = ::readdir(dir); entry != nullptr;
       entry = ::readdir(dir)) {
    const std::string file = entry->d_name;
    const std::string suffix = ".autosave";
    if (file.size() <= suffix.size() ||
        file.compare(file.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    TokenReader in(
        std::string_view(file).substr(0, file.size() - suffix.size()));
    std::string name;
    in.Hex(name);
    if (in.ok()) names.push_back(std::move(name));
  }
  ::closedir(dir);
  // Directory order is filesystem-dependent; sorted order makes the
  // sweep (and any quota contention inside it) deterministic.
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    if (service_.GetStatus(name).ok()) continue;  // already live
    if (ResumeSavedSession(name, nullptr).ok()) {
      sessions_restored_.fetch_add(1);
    }
  }
}

std::string TuningServer::HandleStartDrive(const std::string& name) {
  Result<service::SessionStatus> status = service_.GetStatus(name);
  if (!status.ok()) return ErrorReplyFrame(status.status());
  if (status->external) {
    return ErrorReplyFrame(Status::FailedPrecondition(
        "server: session '" + name +
        "' is caller-driven (space source); use Ask/Tell"));
  }
  MetaPtr meta;
  {
    MutexLock lock(meta_mu_);
    auto it = metas_.find(name);
    if (it != metas_.end()) meta = it->second;
  }
  if (meta == nullptr) {
    // Session created in-process through service(): still driveable,
    // just invisible to autosave (no wire spec to persist).
    meta = std::make_shared<SessionMeta>();
    MutexLock lock(meta_mu_);
    metas_.emplace(name, meta);
    meta = metas_[name];
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
  Result<SessionResult> closed = service_.Close(name);
  if (!closed.ok()) return ErrorReplyFrame(closed.status());
  MetaPtr meta;
  {
    MutexLock lock(meta_mu_);
    auto it = metas_.find(name);
    if (it != metas_.end()) {
      meta = std::move(it->second);
      metas_.erase(it);
    }
  }
  if (meta != nullptr) {
    ReleaseTenantSlot(meta->tenant);
    if (!options_.autosave_dir.empty()) {
      meta->wal.Close();
      // Explicit close: done for good — drop both recovery artifacts.
      ::unlink(AutosavePath(name).c_str());
      ::unlink(WalPath(name).c_str());
    }
  }
  WireCloseResult result;
  result.iterations_run = closed->iterations_run;
  result.best_performance = closed->best_performance;
  result.default_performance = closed->default_performance;
  return EncodeFrame(MessageKind::kClosedReply, EncodeClosedReply(result));
}

Status TuningServer::BuildSessionSpec(const WireSessionSpec& wire,
                                      std::unique_ptr<ConfigSpace>* owned_space,
                                      service::SessionSpec* out) {
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
  out->optimizer_key = wire.optimizer_key;
  out->adapter_key = wire.adapter_key;
  out->seed = wire.seed;
  out->num_iterations = wire.num_iterations;
  out->batch_size = wire.batch_size;
  out->num_threads = wire.num_threads;
  out->pending_deadline_ms = wire.pending_deadline_ms;
  if (wire.racing) {
    RacingOptions racing;
    racing.cohort = wire.racing_cohort;
    racing.rungs = wire.racing_rungs;
    racing.min_fidelity = wire.racing_min_fidelity;
    racing.eta = wire.racing_eta;
    racing.ci_z = wire.racing_ci_z;
    out->racing = racing;
  }
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

std::string TuningServer::AutosavePath(const std::string& name) const {
  // Hex-encode the session name so arbitrary names can't escape the
  // autosave directory or collide with each other's files.
  return options_.autosave_dir + "/" + EncodeBytes(name) + ".autosave";
}

std::string TuningServer::WalPath(const std::string& name) const {
  return options_.autosave_dir + "/" + EncodeBytes(name) + ".wal";
}

Status TuningServer::AutosaveSession(const std::string& name,
                                     const MetaPtr& meta) {
  // op_mu makes checkpoint + pending-count + WAL truncation one
  // atomic snapshot: no tell can commit between capturing the
  // checkpoint and deciding whether its WAL records may be dropped.
  MutexLock op_lock(meta->op_mu);
  Result<std::string> checkpoint = service_.Checkpoint(name);
  if (!checkpoint.ok()) return checkpoint.status();
  Result<service::SessionStatus> status = service_.GetStatus(name);
  if (!status.ok()) return status.status();
  // The tenant rides as a trailing token on the spec line so a
  // hot-restart sweep can rebuild ownership; DecodeSessionSpec stops
  // at the spec, so pre-token readers still load the file.
  std::string content = EncodeSessionSpec(meta->spec) + " tenant x" +
                        EncodeBytes(meta->tenant) + '\n' + *checkpoint;
  // Sweeps visit every live session on the event-loop thread and a
  // durable write costs two fsyncs, so a file this server already
  // wrote durably is rewritten only when its bytes change. Chaos hook
  // "autosave.torn": die mid-write. The previous autosave must stay
  // untouched and fully loadable, and the WAL untruncated.
  const std::string path = AutosavePath(name);
  auto unchanged = [&path, &content] {
    Result<std::string> on_disk = ReadFile(path);
    return on_disk.ok() && *on_disk == content;
  };
  if (!meta->autosave_durable || !unchanged()) {
    meta->autosave_durable = false;
    LT_RETURN_NOT_OK(
        AtomicWriteFile(path, content, "autosave.torn",
                        [this] { autosaves_written_.fetch_add(1); }));
    meta->autosave_durable = true;
  }
  // The WAL may only shrink once everything it describes is inside a
  // durable checkpoint. A pending trial's ask record is not — its
  // round is uncommitted — so any pending trial blocks truncation
  // (the tail replays idempotently instead).
  if (meta->wal.is_open() && status->pending_trials == 0) {
    meta->wal.Truncate().ok();
  }
  return Status::OK();
}

void TuningServer::AutosaveSweep() {
  if (options_.autosave_dir.empty()) return;
  for (const service::SessionStatus& status : service_.ListSessions()) {
    MetaPtr meta;
    {
      MutexLock lock(meta_mu_);
      auto it = metas_.find(status.name);
      if (it != metas_.end()) meta = it->second;
    }
    // Only wire-created sessions carry a serializable spec; sessions
    // created in-process (or bare drive metas) cannot be autosaved.
    if (meta == nullptr ||
        (meta->spec.workload.empty() && meta->spec.space_knobs.empty())) {
      continue;
    }
    AutosaveSession(status.name, meta).ok();
  }
}

void TuningServer::EvictionSweep() {
  if (options_.idle_eviction_ms <= 0) return;
  int64_t now = service::NowUnixMillis();
  for (const service::SessionStatus& status : service_.ListSessions()) {
    MetaPtr meta;
    {
      MutexLock lock(meta_mu_);
      auto it = metas_.find(status.name);
      if (it != metas_.end()) meta = it->second;
    }
    // The server only evicts sessions it created over the wire.
    if (meta == nullptr || meta->driving.load()) continue;
    if (now - status.last_activity_unix_ms < options_.idle_eviction_ms) {
      continue;
    }
    if (!options_.autosave_dir.empty() &&
        !(meta->spec.workload.empty() && meta->spec.space_knobs.empty())) {
      AutosaveSession(status.name, meta).ok();
    }
    if (service_.Close(status.name).ok()) {
      sessions_evicted_.fetch_add(1);
      ReleaseTenantSlot(meta->tenant);
      MutexLock lock(meta_mu_);
      metas_.erase(status.name);
    }
  }
}

void TuningServer::RunMaintenance() {
  MutexLock lock(maintenance_mu_);
  ExpireSweep();
  AutosaveSweep();
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
