#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/common/sync.h"
#include "src/core/early_stopping.h"
#include "src/core/trial.h"
#include "src/core/tuning_session.h"
#include "src/dbsim/simulated_postgres.h"
#include "src/harness/tuner.h"
#include "src/service/session_store.h"
#include "src/service/trial_wal.h"

namespace llamatune {
namespace service {

/// \brief Everything needed to spin up one tuning job: a TunerConfig
/// plus the objective source and early stopping.
/// Exactly one objective source must be set:
///
///  * `workload`   — tune the bundled simulated PostgreSQL; the
///                   service can evaluate trials itself (Step/Drive).
///  * `objective`  — caller-owned external ObjectiveFunction; the
///                   service can still evaluate via Step/Drive.
///  * `space`      — external DBMS the service cannot call into: only
///                   the knob space is known and the caller measures
///                   every trial through Ask/Tell.
///
/// Overdue pending trials (pending_deadline_ms) are expired by
/// ExpireOverdue, which the server's maintenance sweep calls.
struct SessionSpec : harness::TunerConfig {
  std::optional<dbsim::WorkloadSpec> workload;
  dbsim::SimulatedPostgresOptions db_options;
  ObjectiveFunction* objective = nullptr;
  const ConfigSpace* space = nullptr;
  /// Objective convention for `space` sources (false = latency-style).
  bool maximize = true;

  std::optional<EarlyStoppingPolicy> early_stopping;
};

/// \brief A point-in-time view of one managed session.
struct SessionStatus {
  std::string name;
  std::string optimizer_key;
  std::string adapter_key;
  /// True when the caller drives evaluation (a `space` source).
  bool external = false;
  int iterations_run = 0;
  int num_iterations = 0;
  int pending_trials = 0;
  /// No further trials will be handed out (budget exhausted or early
  /// stop); pending trials may still need telling.
  bool finished = false;
  double default_performance = 0.0;
  double best_performance = 0.0;
  /// Wall-clock milliseconds since the Unix epoch when the session was
  /// created (CreateSession/Resume).
  int64_t created_unix_ms = 0;
  /// Wall-clock milliseconds of the last *driving* operation — ask,
  /// tell, step, or drive. Status polls and checkpoints deliberately
  /// do not count as activity, so idle-eviction sweeps that poll
  /// GetStatus (or autosave sweeps that call Checkpoint) cannot keep a
  /// dead session alive forever.
  int64_t last_activity_unix_ms = 0;
};

/// \brief The serve-style entry point: a registry of named, concurrent
/// tuning sessions driven over the ask/tell protocol (ROADMAP
/// "long-running tuning service" item).
///
/// Each session owns a full tuner stack (objective/space + adapter +
/// optimizer + TuningSession) built through TunerBuilder from registry
/// keys. Calls on *different* sessions proceed concurrently — the
/// service holds one mutex per session plus a registry mutex, and all
/// heavy optimizer work (model refits, acquisition scoring, batch
/// evaluation) runs over the shared nest-safe ThreadPool, so N
/// sessions time-share the machine instead of oversubscribing it.
/// Calls on the *same* session serialize, preserving the session's
/// deterministic trajectory; per-session results are bit-for-bit
/// reproducible at any thread count and any cross-session
/// interleaving.
///
/// Checkpoint/Resume round-trip a session through the versioned text
/// format of TuningSession::Save/Restore: Resume(name, spec, text)
/// rebuilds the stack from `spec` (which must match the original
/// seed/keys/options — Restore verifies bit-for-bit and fails loudly
/// otherwise) and replays the trajectory, after which the session
/// continues exactly as the uninterrupted one would have.
///
/// With a store (SessionStore), every committed ask, tell, expire and
/// step appends one fsync'd WAL record under the session lock, so the
/// log order is the commit order (docs/resilience.md).
class TuningService {
 public:
  /// `store_dir` empty: sessions keep no files.
  explicit TuningService(std::string store_dir = {});
  TuningService(const TuningService&) = delete;
  TuningService& operator=(const TuningService&) = delete;

  /// Registers a new session under `name`. Fails with
  /// SessionAlreadyExists for duplicate names, or with the
  /// TunerBuilder error for bad specs/keys. With a store, starts the
  /// WAL empty and durably writes the autosave — `header`, one line
  /// opaque to the service, then the checkpoint — before returning; a
  /// failed write fails the call and registers nothing.
  Status CreateSession(const std::string& name, const SessionSpec& spec,
                       const std::string& header = {});

  /// CreateSession + TuningSession::Restore in one step.
  Status Resume(const std::string& name, const SessionSpec& spec,
                const std::string& checkpoint,
                const std::string& header = {});

  /// Crash recovery: Resume from `checkpoint`, then replay the
  /// session's WAL on top of it before the session is published, and
  /// keep appending to that log. Replay stops at the first record it
  /// cannot apply; the session is then still a valid prefix of its
  /// logged history, so recovery succeeds. `checkpoint` is the saved
  /// one (SessionStore::Load), so with an empty log the session counts
  /// as persisted — unless the saved file carries another header
  /// (`header_is_saved` false), which the next persist then replaces.
  Status Recover(const std::string& name, const SessionSpec& spec,
                 const std::string& checkpoint,
                 const std::string& header = {},
                 bool header_is_saved = true);

  /// The sessions' files (read-only: the service writes them).
  const SessionStore& store() const { return store_; }

  /// \name Ask/tell (any session)
  /// @{
  Result<Trial> Ask(const std::string& name);
  Result<std::vector<Trial>> AskBatch(const std::string& name, int n);
  Status Tell(const std::string& name, const TrialResult& result);
  Status TellBatch(const std::string& name,
                   const std::vector<TrialResult>& results);

  /// The session's pending (asked, untold) trials in id order — lets
  /// a retrying remote caller adopt a trial whose Ask reply was lost
  /// instead of drawing a fresh (different) suggestion. `next_trial_id`,
  /// when set, receives the id the next Ask will assign, read under
  /// the same lock as the list.
  Result<std::vector<Trial>> GetPending(const std::string& name,
                                        int64_t* next_trial_id = nullptr) const;

  /// Expires one pending trial (see TuningSession::Expire).
  Status Expire(const std::string& name, int64_t trial_id);

  /// Expires overdue pending trials on *every* session whose spec set
  /// pending_deadline_ms; returns the total expired. Sessions without
  /// a deadline are skipped without taking their lock. Called by the
  /// server's periodic maintenance sweep.
  int ExpireOverdue(int64_t now_ms);
  /// @}

  /// Runs one session-driven round (workload/objective sources only;
  /// `space` sessions fail with FailedPrecondition). Returns OK with
  /// `*progressed = false` once the session is done.
  Status Step(const std::string& name, bool* progressed = nullptr);

  /// Steps the session until it finishes (workload/objective sources).
  /// Each step is one Step call, so each is logged as it commits.
  Status Drive(const std::string& name);

  /// Serializes the session's committed trajectory.
  Result<std::string> Checkpoint(const std::string& name) const;

  /// For every session, under its lock: if it changed since its last
  /// durable autosave, writes a new one, then truncates the WAL unless
  /// a trial is pending — everything the log describes is then inside
  /// the autosave. A no-op without a store.
  void PersistChanged();

  Result<SessionStatus> GetStatus(const std::string& name) const;

  /// Status of every live session, sorted by name.
  std::vector<SessionStatus> ListSessions() const;

  /// Removes the session and returns its final result snapshot. Both
  /// files are deleted before the name leaves the registry, so a
  /// same-named session created afterwards keeps its own.
  Result<SessionResult> Close(const std::string& name);
  /// Persists the session, then removes it and keeps both files, so
  /// Recover can bring it back.
  Status Evict(const std::string& name);

  int session_count() const;

 private:
  struct Entry {
    Entry(const SessionSpec& spec, const std::string& header)
        : spec(spec),
          header(header),
          created_unix_ms(NowUnixMillis()),
          last_activity_unix_ms(created_unix_ms) {}

    /// Serializes all operations on this session, WAL appends
    /// included; taken *after* releasing the registry mutex so
    /// sessions never block each other.
    mutable Mutex mu;
    /// The whole tuner stack is mu-serialized: every Ask/Tell/Step/
    /// Save path mutates optimizer and session state behind this
    /// pointer. Null once the session is closed (or failed to be
    /// created): an operation that found it then answers
    /// SessionNotFound.
    std::unique_ptr<harness::Tuner> tuner GUARDED_BY(mu);
    /// Open exactly when the service has a store.
    TrialWal wal GUARDED_BY(mu);
    /// The change detector: WAL records appended or replayed, and
    /// their count at the last durable autosave. Every operation that
    /// changes Save()'s output appends a record.
    uint64_t changes GUARDED_BY(mu) = 0;
    uint64_t persisted GUARDED_BY(mu) = 0;
    /// The spec the session was built from.
    const SessionSpec spec;
    /// The autosave's first line.
    const std::string header;
    const int64_t created_unix_ms;
    /// Updated lock-free by every driving operation (see
    /// SessionStatus::last_activity_unix_ms for what counts).
    std::atomic<int64_t> last_activity_unix_ms;
  };

  /// The records one operation commits to the session's WAL.
  /// Operations fill it; RunLocked appends it under the session lock.
  using WalEdit = std::vector<std::string>;

  /// Whether an operation counts as driving activity (see
  /// SessionStatus::last_activity_unix_ms).
  enum Activity { kPassive, kDriving };

  /// Looks up `name` under the registry lock; the returned shared_ptr
  /// keeps the entry alive even if Close() races.
  std::shared_ptr<Entry> Find(const std::string& name) const;
  /// A snapshot of the registry.
  std::vector<std::pair<std::string, std::shared_ptr<Entry>>> Entries() const;

  /// The one path to a session's tuner: looks `name` up
  /// (SessionNotFound otherwise) and runs RunLocked.
  template <typename Op>
  auto Run(const std::string& name, Activity activity, Op&& op) const;
  /// Stamps activity, takes the session lock, runs `op(tuner, wal)`,
  /// then appends the edit to the session's WAL before releasing the
  /// lock; nullopt when the session is closed. `wal` is null when the
  /// session keeps no WAL, so records are built only for sessions that
  /// log. Operations add a record only for what they committed, so the
  /// log never holds an operation the session did not apply.
  template <typename Op>
  auto RunLocked(Entry& entry, Activity activity, Op&& op) const;

  std::optional<SessionStatus> StatusOf(const std::string& name,
                                        Entry& entry) const;
  /// Builds the session, optionally restores `checkpoint` and
  /// (`recover`) replays the WAL, then publishes it with its files
  /// ready.
  Status Add(const std::string& name, const SessionSpec& spec,
             const std::string* checkpoint, const std::string& header,
             bool recover, bool header_is_saved = true);
  /// PersistChanged for one session.
  Status PersistLocked(const std::string& name, Entry& entry)
      REQUIRES(entry.mu);
  /// Takes a live session out of the registry and frees its tuner.
  void Unregister(const std::string& name, Entry& entry) REQUIRES(entry.mu)
      EXCLUDES(mu_);

  SessionStore store_;
  mutable Mutex mu_;
  std::map<std::string, std::shared_ptr<Entry>> sessions_ GUARDED_BY(mu_);
};

}  // namespace service
}  // namespace llamatune
