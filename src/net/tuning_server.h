#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/sync.h"
#include "src/knobs/config_space.h"
#include "src/net/frame.h"
#include "src/net/message.h"
#include "src/service/trial_wal.h"
#include "src/service/tuning_service.h"

namespace llamatune {
namespace net {

/// \brief Knobs for one TuningServer instance.
struct TuningServerOptions {
  /// Numeric IPv4 bind address.
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  uint16_t port = 0;

  /// Per-tenant cap on live sessions created over the wire
  /// (CreateSession / Resume / ResumeSaved); 0 = unlimited. Exceeding
  /// it earns a QuotaExceeded error reply.
  int max_sessions_per_tenant = 0;
  /// Server-wide cap on requests admitted but not yet answered.
  /// Overflow is answered immediately from the event loop: cheap
  /// requests get Busy, expensive ones get Overloaded with a
  /// retry-after hint (either may overtake earlier in-flight replies
  /// on the same connection).
  int max_pending_requests = 256;
  /// Per-connection frame payload cap (oversized frames are a framing
  /// fault: one BadFrame error, then the connection closes).
  size_t max_frame_payload = kDefaultMaxFramePayload;

  /// listen(2) backlog for the accept socket.
  int listen_backlog = 128;
  /// Event-loop poll() timeout when no timer is due sooner.
  int poll_timeout_ms = 1000;

  /// Sessions with no driving activity (ask/tell/step/drive — status
  /// polls and checkpoints don't count) for this long are autosaved
  /// (if autosave_dir is set) and closed; 0 disables eviction.
  int64_t idle_eviction_ms = 0;
  /// Directory for autosave snapshots (created by Start if missing);
  /// empty disables autosave. Each wire-created session periodically
  /// saves to <hex(name)>.autosave — spec line + checkpoint text — and
  /// can be revived by ResumeSaved after a crash or eviction.
  ///
  /// When set, every wire-created session additionally keeps a
  /// per-tell write-ahead log at <hex(name)>.wal: each committed
  /// ask/tell/expire/step appends one fsync'd record, and ResumeSaved
  /// replays the WAL tail on top of the last autosave, bounding data
  /// loss after a crash to at most the request in flight (see
  /// docs/resilience.md).
  std::string autosave_dir;
  /// Autosave sweep period; 0 disables the periodic sweep (explicit
  /// RunMaintenance() calls still autosave).
  int64_t autosave_interval_ms = 0;
  /// Revive every autosaved session found in autosave_dir during
  /// Start() — the hot-restart sweep. A successor process pointed at a
  /// drained predecessor's autosave_dir resumes its sessions without
  /// any client sending kResumeSaved.
  bool resume_saved_on_start = false;

  /// \name Graceful drain & load shedding (docs/resilience.md)
  /// @{

  /// How long a drain (Stop(), SIGTERM wiring, or a kDrain request)
  /// waits for in-flight handlers and background drives before forcing
  /// teardown. In-flight work that finishes sooner ends the drain
  /// early.
  int64_t drain_deadline_ms = 5000;
  /// Default server-side deadline applied to every admitted request
  /// that carries no explicit ` ddl N` rider; 0 = no deadline. A
  /// request still queued past its deadline is shed with Overloaded at
  /// dispatch instead of doing work nobody is waiting for.
  int64_t default_request_deadline_ms = 0;
  /// Slots of max_pending_requests reserved for cheap requests
  /// (status/health/ping class): expensive work (ask/tell/step/drive
  /// class) is shed with Overloaded once it alone fills
  /// max_pending_requests - cheap_admission_reserve, so operators can
  /// always probe an overloaded server.
  int cheap_admission_reserve = 32;
  /// Bounds for the decorrelated retry-after hint carried by
  /// Overloaded (and drain-time ShuttingDown) replies.
  int64_t shed_retry_base_ms = 25;
  int64_t shed_retry_max_ms = 1000;
  /// @}
};

/// \brief TCP front-end for TuningService: one poll()-based event-loop
/// thread accepts connections and deframes requests; complete requests
/// run on the shared ThreadPool. Replies on one connection stay in
/// request order (per-connection FIFO — at most one in-flight handler
/// per connection), while different connections proceed concurrently,
/// mirroring the service's per-session concurrency contract.
///
/// Hardening beyond plain dispatch: per-tenant session quotas,
/// cost-classified admission control with Busy/Overloaded
/// backpressure and per-tenant fair shares, per-request deadlines,
/// idle-session eviction, periodic checkpoint autosave with
/// ResumeSaved recovery (plus an optional hot-restart sweep at
/// startup), background drive-to-completion, and a Running → Draining
/// → Stopped lifecycle with graceful drain.
class TuningServer {
 public:
  explicit TuningServer(TuningServerOptions options = TuningServerOptions());
  ~TuningServer();
  TuningServer(const TuningServer&) = delete;
  TuningServer& operator=(const TuningServer&) = delete;

  /// Binds, listens, optionally runs the hot-restart resume sweep, and
  /// starts the event loop.
  Status Start();
  /// Graceful shutdown: initiates a drain (idempotent), waits for
  /// in-flight handlers and background drives up to drain_deadline_ms,
  /// runs a final autosave sweep, closes all connections and moves the
  /// lifecycle to Stopped. Safe to call from several threads at once —
  /// exactly one caller tears down, the rest block until it finishes.
  void Stop();
  /// Moves Running → Draining without blocking: the listen socket
  /// closes, expensive requests are refused with ShuttingDown, and the
  /// event loop exits on its own once in-flight work quiesces (or the
  /// drain deadline passes). Idempotent; a no-op once stopped. Callers
  /// that want the full teardown still call Stop().
  void Drain();

  /// The bound port (valid after Start; useful with options.port = 0).
  uint16_t port() const { return port_; }
  ServerLifecycle lifecycle() const {
    return static_cast<ServerLifecycle>(lifecycle_.load());
  }
  bool running() const { return lifecycle() == ServerLifecycle::kRunning; }
  bool draining() const { return lifecycle() == ServerLifecycle::kDraining; }

  /// The underlying registry — in-process callers may drive sessions
  /// directly, but sessions created this way are invisible to autosave
  /// and quotas (the server has no wire spec for them).
  service::TuningService& service() { return service_; }

  /// Runs one autosave + eviction sweep synchronously (the same sweep
  /// the loop runs on its timers). Exposed so tests don't race timers.
  void RunMaintenance();

  /// \name Observability counters (also served by kServerStats)
  /// @{
  int64_t busy_rejections() const { return busy_rejections_.load(); }
  int64_t sessions_evicted() const { return sessions_evicted_.load(); }
  int64_t autosaves_written() const { return autosaves_written_.load(); }
  int64_t shed_overload() const { return shed_overload_.load(); }
  int64_t shed_deadline() const { return shed_deadline_.load(); }
  int64_t sessions_restored() const { return sessions_restored_.load(); }
  /// @}

  /// In-process snapshots of what kHealthCheck / kServerStats serve.
  WireServerHealth Health() const;
  WireServerStats Stats() const EXCLUDES(meta_mu_);

  /// Pure fairness policy, exposed for unit tests: should a tenant
  /// with `tenant_inflight` expensive requests already admitted (of
  /// `active_tenants` tenants currently holding any) be shed, given
  /// the expensive-class budget and its current occupancy? Fairness
  /// only bites under pressure — below half the budget bursts are
  /// allowed through.
  static bool FairShareExceeded(int tenant_inflight, int active_tenants,
                                int expensive_cap, int pending_expensive);

 private:
  /// One admitted request waiting in (or running from) a connection's
  /// FIFO, with the admission metadata the dispatcher needs.
  struct PendingRequest {
    Frame frame;
    /// Absolute server-clock deadline; 0 = none. Set from the
    /// request's ` ddl N` rider or default_request_deadline_ms.
    int64_t deadline_unix_ms = 0;
    /// Expensive admission class (ask/tell/step/drive/...).
    bool expensive = false;
    /// Tenant at admission time, for fair-share release.
    std::string tenant;
  };

  /// Per-connection state. Owned jointly by the event loop (poll set)
  /// and any in-flight handler via shared_ptr; the destructor closes
  /// the fd, so a handler can never write into a recycled descriptor.
  struct Conn {
    explicit Conn(int fd, size_t max_payload)
        : fd(fd), decoder(max_payload) {}
    ~Conn();
    const int fd;
    /// Fed and drained by the event loop only.
    FrameDecoder decoder;
    Mutex mu;
    /// Tenant declared by kHello; "" until then. Written by the kHello
    /// handler, read by later handlers and by the event loop's
    /// admission classifier, so it lives under mu.
    std::string tenant GUARDED_BY(mu);
    /// Queued requests + the one-in-flight flag.
    std::deque<PendingRequest> inbox GUARDED_BY(mu);
    bool busy GUARDED_BY(mu) = false;
    /// Serializes whole-frame writes so replies never interleave.
    Mutex write_mu;
    std::atomic<bool> closed{false};
  };
  using ConnPtr = std::shared_ptr<Conn>;

  /// Server-side record of a wire-created session (what the service
  /// itself doesn't know: the serializable spec, the owning tenant,
  /// the rebuilt ConfigSpace for space sources, the drive flag).
  struct SessionMeta {
    WireSessionSpec spec;
    std::string tenant;
    std::unique_ptr<ConfigSpace> owned_space;
    std::atomic<bool> driving{false};
    /// Per-session trial WAL (open only when autosave_dir is set).
    service::TrialWal wal;
    /// Serializes each (service call + WAL append) pair so WAL record
    /// order always matches the session's commit order. Taken before
    /// the service's per-session mutex; never the other way around.
    Mutex op_mu;
    /// True once this server has durably written the session's
    /// autosave file; an unchanged file is then not rewritten.
    bool autosave_durable GUARDED_BY(op_mu) = false;
  };
  using MetaPtr = std::shared_ptr<SessionMeta>;

  void EventLoop();
  void HandleReadable(const ConnPtr& conn);
  /// Admission control for one decoded frame: classify cost, apply
  /// drain/overload/fair-share shedding, stamp the deadline, and queue
  /// it (or answer the typed rejection inline). Runs on the loop.
  void AdmitFrame(const ConnPtr& conn, Frame frame);
  /// Starts the next queued request if none is in flight (takes
  /// conn->mu).
  void Dispatch(const ConnPtr& conn);
  /// Runs on the pool: answers one request, then re-dispatches.
  void RunHandler(const ConnPtr& conn, PendingRequest request);
  std::string HandleRequest(const ConnPtr& conn, const Frame& frame);
  void WriteFrame(const ConnPtr& conn, MessageKind kind,
                  const std::string& payload);
  std::string ErrorReplyFrame(const Status& status) const;

  /// Request handlers (pool threads).
  std::string HandleCreateOrResume(const ConnPtr& conn, const Frame& frame);
  std::string HandleResumeSaved(const ConnPtr& conn, const std::string& name);
  std::string HandleStartDrive(const std::string& name);
  std::string HandleClose(const std::string& name);
  void DriveStep(const std::string& name, MetaPtr meta);

  /// Converts a wire spec into a live SessionSpec (resolving the
  /// workload name or rebuilding the knob space into *owned_space).
  static Status BuildSessionSpec(const WireSessionSpec& wire,
                                 std::unique_ptr<ConfigSpace>* owned_space,
                                 service::SessionSpec* out);

  /// Quota bookkeeping (meta_mu_).
  Status ReserveTenantSlot(const std::string& tenant) EXCLUDES(meta_mu_);
  void ReleaseTenantSlot(const std::string& tenant) EXCLUDES(meta_mu_);

  /// \name WAL-aware session operations
  ///
  /// Each successful mutation on a wire-created session appends one
  /// record to its WAL under meta->op_mu, keeping the log a faithful
  /// prefix of the session's committed history. Sessions without an
  /// open WAL (in-process, or autosave disabled) fall straight through
  /// to the service.
  /// @{
  MetaPtr FindMeta(const std::string& name) const EXCLUDES(meta_mu_);
  Result<Trial> DoAsk(const std::string& name);
  Result<std::vector<Trial>> DoAskBatch(const std::string& name, int n);
  Status DoTell(const std::string& name, const TrialResult& result);
  Status DoTellBatch(const std::string& name,
                     const std::vector<TrialResult>& results);
  Status DoStep(const std::string& name, bool* progressed);
  /// Expires overdue trials on every wire session with a deadline and
  /// WAL-logs each expiry.
  void ExpireSweep();
  /// Replays the WAL tail on top of a freshly resumed session (see
  /// docs/resilience.md for the cursor rules).
  Status ReplayWal(const std::string& name);
  /// @}

  /// Core of kResumeSaved and the hot-restart sweep: loads the
  /// autosave (spec line + tenant token + checkpoint), resumes the
  /// session, replays the WAL tail, registers the meta. The wire path
  /// passes the connection's tenant; the startup sweep passes nullptr
  /// to adopt the tenant recorded in the file.
  Status ResumeSavedSession(const std::string& name,
                            const std::string* tenant_override);
  /// Revives every *.autosave in autosave_dir (hot restart). Sessions
  /// already live are skipped; names are processed in sorted order so
  /// the sweep is deterministic.
  void ResumeSavedStartupSweep();

  std::string AutosavePath(const std::string& name) const;
  std::string WalPath(const std::string& name) const;
  Status AutosaveSession(const std::string& name, const MetaPtr& meta);
  void AutosaveSweep();
  void EvictionSweep();

  void TaskStarted() EXCLUDES(tasks_mu_);
  void TaskFinished() EXCLUDES(tasks_mu_);
  int ActiveTasks() EXCLUDES(tasks_mu_);

  /// Expensive-class admission budget.
  int ExpensiveCap() const;
  /// Next decorrelated retry-after hint (shed_mu_): uniform in
  /// [shed_retry_base_ms, 3 * previous], capped at shed_retry_max_ms —
  /// the server-side mirror of the client's decorrelated-jitter
  /// backoff, so synchronized retry storms spread out.
  int64_t NextShedHintMs() EXCLUDES(shed_mu_);
  /// Hint for drain-time ShuttingDown replies: come back once the
  /// drain window has passed.
  int64_t DrainRetryHintMs(int64_t now_unix_ms) const;
  /// Encoded kError frame for a shed request.
  std::string OverloadedReplyFrame(const std::string& why);

  TuningServerOptions options_;
  service::TuningService service_;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  uint16_t port_ = 0;
  /// The poll event loop owns a dedicated thread: its poll() blocks,
  /// so it must never run on (or starve) the shared worker pool.
  std::thread loop_;  // lint:allow(raw-thread)

  /// Lifecycle state machine: Running → Draining → Stopped, one-way
  /// per incarnation (Start resets a Stopped server to Running).
  std::atomic<int> lifecycle_{static_cast<int>(ServerLifecycle::kStopped)};
  /// Forced-teardown flag, set by Stop() after the loop exits: stops
  /// drive-step requeueing and makes still-queued handlers answer
  /// ShuttingDown instead of doing work.
  std::atomic<bool> hard_stop_{false};
  /// Exactly one Stop() caller performs the teardown; losers wait on
  /// lifecycle_cv_ until the lifecycle reaches Stopped.
  std::atomic<bool> teardown_claimed_{false};
  Mutex lifecycle_mu_;
  CondVar lifecycle_cv_;
  /// Absolute deadline of the current drain (valid while Draining).
  std::atomic<int64_t> drain_deadline_unix_ms_{0};

  /// fd -> connection, owned by the event loop (loop thread only after
  /// Start, so unguarded there; Stop joins the loop before clearing).
  std::map<int, ConnPtr> conns_;

  /// Wire-created sessions + per-tenant counts.
  mutable Mutex meta_mu_;
  std::map<std::string, MetaPtr> metas_ GUARDED_BY(meta_mu_);
  std::map<std::string, int> tenant_sessions_ GUARDED_BY(meta_mu_);
  /// Expensive requests currently admitted per tenant (fair shares).
  std::map<std::string, int> tenant_inflight_ GUARDED_BY(meta_mu_);

  /// One sweep at a time (loop timer vs RunMaintenance).
  Mutex maintenance_mu_;

  /// Admitted-but-unanswered requests, for backpressure.
  std::atomic<int> pending_requests_{0};
  /// The expensive-class subset of pending_requests_.
  std::atomic<int> pending_expensive_{0};
  /// In-flight pool tasks (handlers + drive steps), drained by Stop.
  Mutex tasks_mu_;
  CondVar tasks_cv_;
  int active_tasks_ GUARDED_BY(tasks_mu_) = 0;

  /// Decorrelated retry-after hint state.
  Mutex shed_mu_;
  uint64_t shed_rng_ GUARDED_BY(shed_mu_) = 0x5eedf00dcafe1234ULL;
  int64_t shed_prev_hint_ GUARDED_BY(shed_mu_) = 0;

  std::atomic<int64_t> busy_rejections_{0};
  std::atomic<int64_t> sessions_evicted_{0};
  std::atomic<int64_t> autosaves_written_{0};
  std::atomic<int64_t> shed_overload_{0};
  std::atomic<int64_t> shed_deadline_{0};
  std::atomic<int64_t> sessions_restored_{0};
};

}  // namespace net
}  // namespace llamatune
