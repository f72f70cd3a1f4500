#include "src/service/tuning_service.h"

#include <optional>
#include <string_view>
#include <type_traits>
#include <utility>

#include "src/common/serde.h"

namespace llamatune {
namespace service {

using harness::Tuner;

namespace {

Status NoSession(const std::string& name) {
  return Status::SessionNotFound("TuningService: no session '" + name + "'");
}

std::string TellRecord(const TrialResult& result) {
  return "tell x" + EncodeBytes(SerializeTrialResult(result));
}

std::string ExpireRecord(int64_t trial_id) {
  return "expire " + std::to_string(trial_id);
}

Result<std::unique_ptr<Tuner>> BuildTuner(const SessionSpec& spec) {
  int sources = (spec.workload.has_value() ? 1 : 0) +
                (spec.objective != nullptr ? 1 : 0) +
                (spec.space != nullptr ? 1 : 0);
  if (sources != 1) {
    return Status::InvalidArgument(
        "SessionSpec: set exactly one of workload, objective, space");
  }

  harness::TunerBuilder builder;
  if (spec.workload.has_value()) {
    builder.Workload(*spec.workload).DbOptions(spec.db_options);
  } else if (spec.objective != nullptr) {
    builder.Objective(spec.objective);
  } else {
    builder.Space(spec.space, spec.maximize);
  }
  builder.Config(spec);
  if (spec.early_stopping.has_value()) {
    builder.EarlyStopping(*spec.early_stopping);
  }
  // Sessions are always built detached-capable: ask/tell is the
  // service's native protocol, and Step/Drive additionally work when
  // an evaluable objective exists.
  return builder.BuildDetached();
}

/// Applies one WAL record to a freshly restored tuner (cursor rules:
/// docs/resilience.md). Returns false when it cannot: a gap, an
/// unparsable or unknown record, or a failed re-issue.
bool ReplayRecord(Tuner& tuner, const std::string& record) {
  TokenReader in(record);
  std::string_view op = in.Next();
  if (op == "ask1" || op == "askb") {
    int requested = 1;
    if (op == "askb") in.Value(requested);
    int64_t first_id = 0;
    in.Value(first_id);
    if (!in.ok()) return false;
    // Rounds commit whole, so the restored cursor always sits on a
    // round boundary: an ask record is either entirely inside the
    // checkpoint (skip), exactly at the cursor (re-issue the same
    // deterministic draw), or past it (a gap from a lost append —
    // nothing after it can be replayed either).
    if (first_id < tuner.next_trial_id()) return true;
    if (first_id > tuner.next_trial_id()) return false;
    // A re-issue that hands out other ids means the restoring stack is
    // not the stack that logged.
    if (op == "ask1") {
      Result<Trial> trial = tuner.Ask();
      return trial.ok() && trial->id == first_id;
    }
    Result<std::vector<Trial>> trials = tuner.AskBatch(requested);
    return trials.ok() && !trials->empty() && trials->front().id == first_id;
  }
  if (op == "tell") {
    std::string line;
    in.Value(line);
    if (!in.ok()) return false;
    Result<TrialResult> result = ParseTrialResult(line);
    if (!result.ok()) return false;
    Status told = tuner.Tell(*result);
    // AlreadyExists: the autosave checkpoint had committed this tell.
    // TrialExpired: the trial expired and the checkpoint recorded the
    // expiry. Both mean "already applied".
    return told.ok() || told.code() == StatusCode::kAlreadyExists ||
           told.code() == StatusCode::kTrialExpired;
  }
  if (op == "expire") {
    int64_t id = 0;
    in.Value(id);
    if (!in.ok()) return false;
    Status expired = tuner.Expire(id);
    // AlreadyExists: the trial committed before this stale record.
    return expired.ok() || expired.code() == StatusCode::kAlreadyExists;
  }
  if (op == "step") {
    int64_t iters_before = 0;
    in.Value(iters_before);
    if (!in.ok()) return false;
    if (tuner.session().iterations_run() <= iters_before) tuner.Step();
    return true;
  }
  return false;  // unknown record
}

/// Replays `records` in order up to the first one that cannot be
/// applied; nothing after it can be replayed either. Returns how many
/// records it consumed, applied or skipped as covered by the
/// checkpoint.
size_t ReplayWal(Tuner& tuner, const std::vector<std::string>& records) {
  size_t consumed = 0;
  while (consumed < records.size() && ReplayRecord(tuner, records[consumed])) {
    ++consumed;
  }
  return consumed;
}

}  // namespace

template <typename Op>
auto TuningService::Run(const std::string& name, Activity activity,
                        Op&& op) const {
  using R = std::invoke_result_t<Op&, Tuner&, WalEdit*>;
  std::shared_ptr<Entry> entry = Find(name);
  if (entry == nullptr) return R(NoSession(name));
  std::optional<R> result = RunLocked(*entry, activity, op);
  return result.has_value() ? std::move(*result) : R(NoSession(name));
}

template <typename Op>
auto TuningService::RunLocked(Entry& entry, Activity activity,
                              Op&& op) const {
  using R = std::invoke_result_t<Op&, Tuner&, WalEdit*>;
  if (activity == kDriving) {
    entry.last_activity_unix_ms.store(NowUnixMillis(),
                                      std::memory_order_relaxed);
  }
  MutexLock lock(entry.mu);
  if (entry.tuner == nullptr) return std::optional<R>();
  WalEdit edit;
  std::optional<R> result(
      op(*entry.tuner, entry.wal.is_open() ? &edit : nullptr));
  for (const std::string& record : edit) entry.wal.Append(record).ok();
  entry.changes += edit.size();
  return result;
}

TuningService::TuningService(std::string store_dir)
    : store_(std::move(store_dir)) {}

Status TuningService::Add(const std::string& name, const SessionSpec& spec,
                          const std::string* checkpoint,
                          const std::string& header, bool recover,
                          bool header_is_saved) {
  if (header.find('\n') != std::string::npos) {
    return Status::InvalidArgument("TuningService: header must be one line");
  }
  Result<std::unique_ptr<Tuner>> tuner = BuildTuner(spec);
  if (!tuner.ok()) return tuner.status();
  auto owned = std::make_shared<Entry>(spec, header);
  Entry& entry = *owned;
  // Held across publication, so no operation reaches the session
  // before its files are ready: none goes unlogged.
  MutexLock lock(entry.mu);
  entry.tuner = std::move(tuner).ValueOrDie();
  if (checkpoint != nullptr) {
    LT_RETURN_NOT_OK(entry.tuner->Restore(*checkpoint));
  }
  // The log's consumed prefix in bytes, and whether anything follows
  // it: records replay stopped at, or a torn tail.
  size_t consumed_bytes = 0;
  bool cut = false;
  if (recover && store_.enabled()) {
    bool torn = false;
    Result<std::vector<std::string>> records =
        TrialWal::ReadRecords(store_.WalPath(name), &torn);
    // Replay that stops early leaves a valid prefix of the logged
    // history (loss is at most the request in flight), so recovery
    // still succeeds. With nothing to replay, the session is what its
    // autosave holds.
    if (records.ok()) {
      size_t consumed = ReplayWal(*entry.tuner, *records);
      for (size_t i = 0; i < consumed; ++i) {
        consumed_bytes += (*records)[i].size() + 1;
      }
      cut = torn || consumed < records->size();
      entry.changes = consumed + (header_is_saved ? 0 : 1);
    }
  }
  {
    MutexLock registry_lock(mu_);
    if (!sessions_.emplace(name, owned).second) {
      return Status::SessionAlreadyExists("TuningService: session '" + name +
                                          "' already exists");
    }
  }
  if (!store_.enabled()) return Status::OK();
  // The log is opened first, so the autosave's directory fsync also
  // makes the name of a newly created log durable.
  Status stored = entry.wal.Open(store_.WalPath(name));
  if (stored.ok() && !recover) {
    // A fresh session must not replay a stale log left by an earlier
    // same-named one, and is recoverable once its autosave is durable.
    stored = entry.wal.Truncate();
    if (stored.ok()) stored = store_.Write(name, header, entry.tuner->Save());
  } else if (stored.ok() && cut) {
    // A recovered session keeps the tail it replayed (truncating it
    // here would widen the window a crash can lose), but cuts what it
    // could not: a torn last record would run into the next append,
    // and records past a gap would stop every later replay ahead of
    // the steps acknowledged from now on.
    stored = entry.wal.Truncate(consumed_bytes);
  }
  if (!stored.ok()) Unregister(name, entry);
  return stored;
}

Status TuningService::CreateSession(const std::string& name,
                                    const SessionSpec& spec,
                                    const std::string& header) {
  return Add(name, spec, nullptr, header, false);
}

Status TuningService::Resume(const std::string& name, const SessionSpec& spec,
                             const std::string& checkpoint,
                             const std::string& header) {
  return Add(name, spec, &checkpoint, header, false);
}

Status TuningService::Recover(const std::string& name,
                              const SessionSpec& spec,
                              const std::string& checkpoint,
                              const std::string& header,
                              bool header_is_saved) {
  return Add(name, spec, &checkpoint, header, true, header_is_saved);
}

std::shared_ptr<TuningService::Entry> TuningService::Find(
    const std::string& name) const {
  MutexLock lock(mu_);
  auto it = sessions_.find(name);
  return it == sessions_.end() ? nullptr : it->second;
}

std::vector<std::pair<std::string, std::shared_ptr<TuningService::Entry>>>
TuningService::Entries() const {
  MutexLock lock(mu_);
  return {sessions_.begin(), sessions_.end()};
}

Result<Trial> TuningService::Ask(const std::string& name) {
  return Run(name, kDriving, [](Tuner& tuner, WalEdit* wal) {
    Result<Trial> trial = tuner.Ask();
    if (wal != nullptr && trial.ok()) {
      wal->push_back("ask1 " + std::to_string(trial->id));
    }
    return trial;
  });
}

Result<std::vector<Trial>> TuningService::AskBatch(const std::string& name,
                                                   int n) {
  return Run(name, kDriving, [n](Tuner& tuner, WalEdit* wal) {
    Result<std::vector<Trial>> trials = tuner.AskBatch(n);
    // Record the *request* (n), not the count handed out: replay must
    // re-issue the identical call to draw the identical batch.
    if (wal != nullptr && trials.ok() && !trials->empty()) {
      wal->push_back("askb " + std::to_string(n) + " " +
                             std::to_string(trials->front().id));
    }
    return trials;
  });
}

Status TuningService::Tell(const std::string& name,
                           const TrialResult& result) {
  return Run(name, kDriving, [&result](Tuner& tuner, WalEdit* wal) {
    Status told = tuner.Tell(result);
    if (wal != nullptr && told.ok()) wal->push_back(TellRecord(result));
    return told;
  });
}

Status TuningService::TellBatch(const std::string& name,
                                const std::vector<TrialResult>& results) {
  return Run(name, kDriving, [&results](Tuner& tuner, WalEdit* wal) {
    // The batch is validated whole before anything is told; after a
    // later error the results told so far stay told, and exactly those
    // are logged.
    size_t told = 0;
    Status status = tuner.session().TellBatch(results, &told);
    for (size_t i = 0; wal != nullptr && i < told; ++i) {
      wal->push_back(TellRecord(results[i]));
    }
    return status;
  });
}

Result<std::vector<Trial>> TuningService::GetPending(
    const std::string& name, int64_t* next_trial_id) const {
  // Deliberately not an activity update: adoption polling by a
  // reconnecting client must not keep an abandoned session alive.
  return Run(name, kPassive, [next_trial_id](Tuner& tuner, WalEdit*) {
    if (next_trial_id != nullptr) *next_trial_id = tuner.next_trial_id();
    return Result<std::vector<Trial>>(tuner.PendingSnapshot());
  });
}

Status TuningService::Expire(const std::string& name, int64_t trial_id) {
  return Run(name, kPassive, [trial_id](Tuner& tuner, WalEdit* wal) {
    Status expired = tuner.Expire(trial_id);
    if (wal != nullptr && expired.ok()) {
      wal->push_back(ExpireRecord(trial_id));
    }
    return expired;
  });
}

int TuningService::ExpireOverdue(int64_t now_ms) {
  int expired = 0;
  for (const auto& [name, entry] : Entries()) {
    if (entry->spec.pending_deadline_ms <= 0) continue;
    expired += RunLocked(*entry, kPassive, [now_ms](Tuner& tuner,
                                                    WalEdit* wal) {
      std::vector<int64_t> ids = tuner.ExpireOverdue(now_ms);
      if (wal != nullptr) {
        for (int64_t id : ids) wal->push_back(ExpireRecord(id));
      }
      return static_cast<int>(ids.size());
    }).value_or(0);
  }
  return expired;
}

Status TuningService::Step(const std::string& name, bool* progressed) {
  return Run(name, kDriving, [&](Tuner& tuner, WalEdit* wal) {
    if (!tuner.has_objective()) {
      return Status::FailedPrecondition(
          "TuningService: session '" + name +
          "' is external (space source) — drive it through Ask/Tell");
    }
    const int before = tuner.session().iterations_run();
    const bool stepped = tuner.Step();
    if (wal != nullptr && stepped) {
      wal->push_back("step " + std::to_string(before));
    }
    if (progressed != nullptr) *progressed = stepped;
    return Status::OK();
  });
}

Status TuningService::Drive(const std::string& name) {
  for (bool progressed = true; progressed;) {
    LT_RETURN_NOT_OK(Step(name, &progressed));
  }
  return Status::OK();
}

Result<std::string> TuningService::Checkpoint(const std::string& name) const {
  return Run(name, kPassive, [](Tuner& tuner, WalEdit*) {
    return Result<std::string>(tuner.Save());
  });
}

Status TuningService::PersistLocked(const std::string& name, Entry& entry) {
  if (!store_.enabled() || entry.persisted == entry.changes) {
    return Status::OK();
  }
  LT_RETURN_NOT_OK(store_.Write(name, entry.header, entry.tuner->Save()));
  entry.persisted = entry.changes;
  // A pending trial's ask record is not inside the checkpoint — its
  // round is uncommitted — so any pending trial keeps the log (its
  // tail replays idempotently instead).
  if (entry.tuner->session().pending_trials() == 0) entry.wal.Truncate().ok();
  return Status::OK();
}

void TuningService::PersistChanged() {
  if (!store_.enabled()) return;
  for (const auto& [name, found] : Entries()) {
    Entry& entry = *found;
    MutexLock lock(entry.mu);
    // A failed write keeps the log, so the next sweep tries again.
    if (entry.tuner != nullptr) PersistLocked(name, entry).ok();
  }
}

std::optional<SessionStatus> TuningService::StatusOf(const std::string& name,
                                                     Entry& entry) const {
  return RunLocked(entry, kPassive, [&](Tuner& tuner, WalEdit*) {
    const TuningSession& session = tuner.session();
    SessionStatus status;
    status.name = name;
    status.optimizer_key = entry.spec.optimizer_key;
    status.adapter_key = entry.spec.adapter_key;
    status.external = entry.spec.space != nullptr;
    status.iterations_run = session.iterations_run();
    status.num_iterations = entry.spec.num_iterations;
    status.pending_trials = session.pending_trials();
    status.finished = session.finished();
    // Scalar accessors, not Snapshot(): status polling must not copy
    // the whole knowledge base under the session lock.
    status.default_performance = session.default_performance();
    status.best_performance = session.best_performance();
    status.created_unix_ms = entry.created_unix_ms;
    status.last_activity_unix_ms =
        entry.last_activity_unix_ms.load(std::memory_order_relaxed);
    return status;
  });
}

Result<SessionStatus> TuningService::GetStatus(const std::string& name) const {
  std::shared_ptr<Entry> entry = Find(name);
  std::optional<SessionStatus> status;
  if (entry != nullptr) status = StatusOf(name, *entry);
  if (!status.has_value()) return NoSession(name);
  return *std::move(status);
}

std::vector<SessionStatus> TuningService::ListSessions() const {
  std::vector<SessionStatus> statuses;
  for (const auto& [name, entry] : Entries()) {
    std::optional<SessionStatus> status = StatusOf(name, *entry);
    if (status.has_value()) statuses.push_back(*std::move(status));
  }
  return statuses;
}

void TuningService::Unregister(const std::string& name, Entry& entry) {
  {
    MutexLock lock(mu_);
    sessions_.erase(name);
  }
  entry.wal.Close();
  entry.tuner.reset();
}

Result<SessionResult> TuningService::Close(const std::string& name) {
  std::shared_ptr<Entry> found = Find(name);
  if (found == nullptr) return NoSession(name);
  Entry& entry = *found;
  MutexLock lock(entry.mu);
  if (entry.tuner == nullptr) return NoSession(name);
  SessionResult result = entry.tuner->session().Snapshot();
  store_.Remove(name);
  Unregister(name, entry);
  return result;
}

Status TuningService::Evict(const std::string& name) {
  std::shared_ptr<Entry> found = Find(name);
  if (found == nullptr) return NoSession(name);
  Entry& entry = *found;
  MutexLock lock(entry.mu);
  if (entry.tuner == nullptr) return NoSession(name);
  // A failed write leaves the WAL untruncated, so the files still
  // recover every committed operation.
  PersistLocked(name, entry).ok();
  Unregister(name, entry);
  return Status::OK();
}

int TuningService::session_count() const {
  MutexLock lock(mu_);
  return static_cast<int>(sessions_.size());
}

}  // namespace service
}  // namespace llamatune
