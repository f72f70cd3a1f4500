#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/early_stopping.h"
#include "src/core/knowledge_base.h"
#include "src/core/objective.h"
#include "src/core/running_stat.h"
#include "src/core/space_adapter.h"
#include "src/core/trial.h"
#include "src/optimizer/optimizer.h"

namespace llamatune {

/// \brief Successive-halving racing over measurement fidelities.
///
/// A racing session replaces each single full-length measurement with
/// a *race*: `cohort` candidate configurations drawn from the
/// optimizer at once, run through `rungs` rounds of increasingly long
/// measurements. Rung r measures every surviving candidate at
/// fidelity min_fidelity^((rungs-1-r)/(rungs-1)) — a geometric ladder
/// from min_fidelity up to exactly 1.0 at the final rung. After each
/// non-final rung, candidates whose confidence interval (normal
/// approximation at critical value `ci_z` over their accumulated
/// per-rung measurements) lies entirely below the best candidate's
/// lower bound are eliminated, and the survivor count is capped at
/// ceil(alive / eta) by mean rank (ties broken by draw order). The
/// race commits exactly ONE observation to the optimizer: the
/// champion's final-rung full-fidelity measurement. One race therefore
/// costs one unit of the session's iteration budget while spending
/// roughly sum_r alive_r * fidelity_r units of simulated work —
/// the ≤0.5x-work property bench/bm_racing.cc pins.
///
/// Determinism: candidates are drawn once per race (Suggest when
/// cohort == 1, SuggestBatch otherwise), rung results commit in draw
/// order whatever the Tell interleaving, and elimination compares the
/// bit-exact accumulated statistics — so survivors, champion, and the
/// committed trajectory are a pure function of (seed, measured
/// values), independent of thread count. With cohort == 1, rungs == 1
/// the race degenerates bit-for-bit to the non-racing session.
struct RacingOptions {
  /// Candidates drawn per race. 1 disables the tournament (every race
  /// is a single candidate measured at full fidelity in the last
  /// rung).
  int cohort = 8;
  /// Measurement rounds per race; the final rung always runs at
  /// fidelity 1.0. 1 means a single full-fidelity round.
  int rungs = 3;
  /// Fidelity of the first rung, in (0, 1].
  double min_fidelity = 0.25;
  /// Survivor cap factor: after each non-final rung at most
  /// ceil(alive / eta) candidates advance.
  double eta = 2.0;
  /// Critical value for the CI-overlap elimination rule (1.96 = 95%).
  /// 0 disables CI elimination (pure rank halving).
  double ci_z = 1.96;

  Status Validate() const;
};

/// \brief The session settings every caller may set: in process
/// (SessionOptions, harness::TunerConfig), through the service
/// (service::SessionSpec) and over the wire (net::WireSessionSpec),
/// which all extend this one struct. Paper §6.1 defaults.
struct SessionSettings {
  /// Tuning iterations after the default-config baseline run. 0 is
  /// legal for a TuningSession built directly (a baseline-only
  /// session); sessions built by TunerBuilder — and so by the service
  /// and the wire server — reject it. Negative is rejected by
  /// Validate().
  int num_iterations = 100;
  /// Deadline for pending (asked, untold) trials in milliseconds;
  /// 0 disables. Expiry is never implicit: it happens only when the
  /// caller invokes ExpireOverdue(now_ms) (the server's maintenance
  /// sweep does) or Expire(id). An expired trial's budget is
  /// reclaimed, it is dropped from its round without an observation,
  /// and a late Tell for it fails with the typed TrialExpired status.
  int64_t pending_deadline_ms = 0;
  /// Configurations suggested and evaluated per step. 1 reproduces the
  /// classic sequential loop unchanged. Larger batches draw
  /// Optimizer::SuggestBatch and evaluate concurrently across
  /// ObjectiveFunction clones (independent simulator instances);
  /// objectives without Clone() support fall back to sequential
  /// evaluation within the batch.
  ///
  /// Best suited to model-based optimizers (SMAC, GP-BO, random):
  /// their suggestions depend only on observed history. SMAC and the
  /// "gpbo-qei"/"gpbo-lp" registry keys are batch-aware — they
  /// diversify within a round instead of re-asking the model the same
  /// question n times (see docs/registry-keys.md). Stateful
  /// step-by-step tuners (DDPG's metric-state transitions,
  /// BestConfig's rounds) assume a strict suggest/observe alternation
  /// and lose fidelity under batching — keep batch_size == 1 for them
  /// unless they override SuggestBatch/ObserveBatch batch-aware.
  int batch_size = 1;
  /// Executor cap for parallel batch evaluation over the shared
  /// thread pool: 0 = pool size (all cores), 1 = evaluate the batch
  /// on the calling thread, k = at most k concurrent evaluations.
  /// Results are recorded in suggestion order regardless, so a fixed
  /// (seed, batch size) session is bit-for-bit reproducible at any
  /// thread count.
  int num_threads = 0;
  /// Optional multi-fidelity racing stage (see RacingOptions). When
  /// set, every post-baseline iteration is a race: Ask/AskBatch hand
  /// out the current rung's short-run trials, and one observation (the
  /// champion's full-fidelity measurement) commits per race. Racing
  /// trials are exempt from pending-deadline expiry — a rung must
  /// complete for the race to stay deterministic.
  std::optional<RacingOptions> racing;
};

/// \brief Everything a TuningSession runs with: the shared settings
/// plus the options only in-process callers set.
struct SessionOptions : SessionSettings {
  /// Crash penalty: crashed configurations score (worst seen) / this
  /// factor under maximization (and worst * factor when minimizing).
  double crash_penalty_divisor = 4.0;
  /// Penalty divisors for the other failure outcomes (same
  /// quarter-of-worst convention): a timed-out evaluation, and one
  /// whose evaluator vanished (kLost). Defaults match the crash
  /// penalty, so a session that never distinguishes outcomes behaves
  /// exactly as before.
  double timeout_penalty_divisor = 4.0;
  double lost_penalty_divisor = 4.0;
  /// Optional early-stopping policy (appendix, Table 11).
  std::optional<EarlyStoppingPolicy> early_stopping;

  /// Rejects out-of-domain settings (batch_size < 1, num_threads < 0,
  /// num_iterations < 0, crash_penalty_divisor <= 0). TuningSession
  /// checks this on construction and surfaces the error from the first
  /// Ask/Tell (Run/Step refuse to start); TunerBuilder::Build fails
  /// up front.
  Status Validate() const;
};

/// \brief Result of a full tuning session.
struct SessionResult {
  KnowledgeBase kb;
  /// Measured metric of the default configuration (iteration 0).
  double default_performance = 0.0;
  /// Best measured metric found (max objective convention).
  double best_performance = 0.0;
  Configuration best_config;
  /// Iterations actually executed (< num_iterations when stopped
  /// early).
  int iterations_run = 0;
  /// Cumulative wall-clock seconds the optimizer spent in Suggest +
  /// Observe (the paper's Table 10 "optimizer overhead"; excludes the
  /// workload runs themselves).
  double optimizer_seconds = 0.0;
  /// Total simulated measurement work committed, in full-run units:
  /// each committed result contributes its fidelity (1.0 for ordinary
  /// trials and the baseline; rung trials their short-run fraction).
  /// The denominator of the racing stage's ≤0.5x-work target.
  double simulated_work = 0.0;
};

/// \brief The experiment controller of paper Fig. 1, redesigned around
/// an ask/tell protocol: the session owns suggestion, projection,
/// scoring and bookkeeping, while *evaluation* may be driven either by
/// the session itself (Run/Step, when an ObjectiveFunction is
/// attached) or by the caller (Ask/Tell, for external systems the
/// tuner cannot call into).
///
/// ## Protocol
///
///  1. The first Ask() (or AskBatch()) yields the *baseline* trial —
///     the default configuration, paper "iteration 0". No further
///     trials are handed out until its result is told: the baseline
///     establishes the crash-penalty floor.
///  2. Every subsequent Ask()/AskBatch(n) draws suggestions from the
///     optimizer, projects them through the adapter, and hands back
///     pending Trials. AskBatch clamps n to the remaining iteration
///     budget (counting already-pending trials).
///  3. Tell()/TellBatch() report measurements. Results may arrive in
///     any order; the session buffers them and *commits* strictly in
///     round order (a round = the trials of one Ask/AskBatch call),
///     and within a round in trial-id order. A round reaches the
///     optimizer only when its last result arrives. This makes the
///     trajectory — crash penalties, best-so-far curves, early
///     stopping, optimizer state — a pure function of (seed, measured
///     values), independent of completion interleaving.
///
/// Run()/Step() are reimplemented on top of this protocol and preserve
/// the historical push-model behavior bit-for-bit (pinned by
/// tests/ask_tell_test.cc): Step asks one round, evaluates it against
/// the attached objective (in parallel across objective clones when
/// batch_size > 1), and tells the results.
///
/// ## Checkpointing
///
/// Save() serializes the committed trajectory — session scalars, the
/// per-round ask structure, each trial's measured outcome, and the
/// optimizer-visible history — to a versioned text format. Restore()
/// rebuilds the state on a *freshly constructed* session wired with
/// the same components and seeds by replaying the trajectory through
/// the protocol: the optimizer re-derives its model and RNG position
/// deterministically, and Restore fails loudly if the replayed
/// suggestions do not reproduce the recorded history bit-for-bit
/// (e.g. the stack was rebuilt with a different seed or registry key).
/// Pending (asked-but-untold) trials are not part of a checkpoint;
/// re-asking after Restore regenerates the same points under fresh
/// ids. After Restore, the remaining trajectory is bit-for-bit
/// identical to the uninterrupted session's.
///
/// Conventions matching the paper's setup:
///  * The default configuration is evaluated first ("iteration 0") to
///    establish the crash-penalty baseline and the RL initial state; it
///    is *not* reported to the optimizer as an observation because
///    synthetic low-dim spaces have no preimage for it.
///  * Crashed runs are scored as a quarter of the worst performance
///    seen so far.
///  * Latency targets are negated internally so optimizers always
///    maximize.
///
/// TuningSession is not thread-safe; concurrent access must be
/// serialized by the caller (TuningService holds one lock per
/// session).
class TuningSession {
 public:
  /// Attached session: the objective supplies the config space, the
  /// maximize convention, and evaluation for Run()/Step().
  TuningSession(ObjectiveFunction* objective, SpaceAdapter* adapter,
                Optimizer* optimizer, SessionOptions options = {});

  /// Detached session: ask/tell only — the caller owns evaluation.
  /// `config_space` supplies the default configuration for the
  /// baseline trial; `maximize` fixes the objective convention
  /// (false = latency-style, values negated internally). Run()/Step()
  /// are unavailable (Step returns false, Run returns an empty
  /// result).
  TuningSession(const ConfigSpace* config_space, bool maximize,
                SpaceAdapter* adapter, Optimizer* optimizer,
                SessionOptions options = {});

  /// \name Ask/tell protocol
  /// @{

  /// Requests the next trial (a round of one; commits via
  /// Optimizer::Observe). Fails with FailedPrecondition while the
  /// baseline is outstanding, OutOfRange when the iteration budget is
  /// exhausted (counting pending trials) or the session stopped early,
  /// or the SessionOptions validation error.
  Result<Trial> Ask();

  /// Requests up to `n` trials as one round (commits via
  /// Optimizer::ObserveBatch). n is clamped to the remaining budget;
  /// the optimizer may return fewer. Same failure modes as Ask(),
  /// plus InvalidArgument for n < 1.
  Result<std::vector<Trial>> AskBatch(int n);

  /// Reports one measurement. Unknown ids fail with NotFound,
  /// duplicate tells with AlreadyExists, expired ids with
  /// TrialExpired, and a non-finite (NaN/Inf) value on a kOk result
  /// with InvalidArgument. Commit happens when a round completes (see
  /// class comment).
  Status Tell(const TrialResult& result);

  /// Tells several results: validates the whole batch first (nothing
  /// is told if any value is non-finite), then stops at the first
  /// error. `told`, when set, receives how many results were told.
  Status TellBatch(const std::vector<TrialResult>& results,
                   size_t* told = nullptr);

  /// Expires one pending trial: its budget is reclaimed, the trial is
  /// dropped from its round without an observation, and a later Tell
  /// for it fails with TrialExpired. Idempotent on already-expired
  /// ids. Fails with NotFound for unknown ids, AlreadyExists for
  /// committed ones, and FailedPrecondition for the baseline trial or
  /// a trial whose result is already buffered.
  Status Expire(int64_t trial_id);

  /// Expires every non-baseline pending trial that was asked more
  /// than SessionOptions::pending_deadline_ms before `now_ms` (Unix
  /// millis) and has no buffered result; returns the expired ids (the
  /// server appends them to its trial WAL). No-op (empty) when
  /// pending_deadline_ms == 0.
  std::vector<int64_t> ExpireOverdue(int64_t now_ms);

  /// The pending (asked, result not yet buffered) trials in id order —
  /// the server surfaces these so a retrying client can adopt a trial
  /// whose Ask reply was lost instead of asking again (an extra ask
  /// would advance the optimizer's draw sequence).
  std::vector<Trial> PendingSnapshot() const;

  /// True once the session will hand out no further trials (budget
  /// exhausted or early-stopped).
  bool finished() const;

  /// Trials asked but not yet told.
  int pending_trials() const { return static_cast<int>(pending_.size()); }

  /// The id the next Ask will assign. After Restore this equals
  /// (committed trials, expired included) + 1 — the cursor the
  /// server's WAL replay uses to skip ask records the checkpoint
  /// already covers.
  int64_t next_trial_id() const { return next_trial_id_; }

  /// @}

  /// \name Checkpointing
  /// @{

  /// Serializes the committed trajectory (versioned text). Trials of
  /// rounds that have not fully committed are excluded — their
  /// measurements can be re-told after Restore against re-asked
  /// trials, which carry the same points.
  std::string Save() const;

  /// Replays `checkpoint` into this session. Requires a fresh session
  /// (no baseline told, nothing pending) wired with the same options
  /// and identically seeded components as the saver; fails with
  /// FailedPrecondition / InvalidArgument / Internal otherwise (see
  /// class comment).
  Status Restore(const std::string& checkpoint);

  /// @}

  /// Runs the full loop against the attached objective and returns the
  /// populated result.
  SessionResult Run();

  /// Runs a single round (exposed for incremental drivers/tests).
  /// Returns false when the budget or early stopping ended the
  /// session, or when no objective is attached.
  bool Step();

  /// The populated result so far (same shape Run() returns); usable on
  /// ask/tell-driven sessions at any point.
  SessionResult Snapshot() const;

  const KnowledgeBase& knowledge_base() const { return kb_; }
  int iterations_run() const { return iterations_run_; }
  const Status& init_status() const { return init_status_; }

  /// Measured metric of the default configuration (0 before the
  /// baseline is told). Cheap — for status polling, unlike Snapshot().
  double default_performance() const { return default_performance_; }

  /// Best measured metric so far (max-objective convention; 0 when no
  /// iteration has committed). Cheap — no KnowledgeBase copy.
  double best_performance() const {
    int best = kb_.BestIndex();
    return best >= 0 ? kb_.record(best).measured : 0.0;
  }

  /// Committed measurement work in full-run units (each committed
  /// result contributes its fidelity).
  double simulated_work() const { return simulated_work_; }

 private:
  /// A pending (asked, untold) trial plus its buffered result.
  struct PendingTrial {
    Trial trial;
    std::optional<TrialResult> result;
    /// Wall-clock ask time (Unix millis) for deadline expiry; never
    /// serialized — expiry decisions are recorded in the checkpoint,
    /// not re-derived from time.
    int64_t asked_at_ms = 0;
  };
  /// One opened round: the baseline, one Ask/AskBatch draw, or one
  /// racing rung. `requested` is recorded for checkpoint
  /// replay: a SuggestBatch override may return fewer than requested,
  /// and replay must re-issue the original request to keep the
  /// optimizer's draw sequence intact.
  struct Round {
    enum class Kind { kBaseline, kSingle, kBatch, kRung };
    Kind kind = Kind::kSingle;
    int requested = 1;
    std::vector<int64_t> ids;
    /// kRung only: the rung's told results in slot order, captured at
    /// commit. Rung measurements never reach the knowledge base (only
    /// the race champion does), so Save() reads them from here.
    std::vector<TrialResult> rung_results;
    /// kRung only: true for a race's last rung (its commit appended
    /// the champion's record to the knowledge base).
    bool final_rung = false;
  };

  /// One candidate configuration inside the active race.
  struct RaceCandidate {
    std::vector<double> point;
    Configuration config;
    /// Accumulated maximize-convention measurements across rungs.
    RunningStat stat;
    bool alive = true;
  };
  /// The active race (at most one; reset when the champion commits).
  struct RaceState {
    std::vector<RaceCandidate> candidates;
    /// Current rung index, 0-based.
    int rung = 0;
    /// Candidate index behind each slot of the current rung's round.
    std::vector<int> slot_candidates;
    /// Trial id -> slot for the current rung (exempts these ids from
    /// deadline expiry).
    std::map<int64_t, int> slot_of_id;
    /// Created-but-unserved trial ids of the current rung, in slot
    /// order; OpenRound drains this queue.
    std::deque<int64_t> unserved;
  };

  double Penalized(double divisor) const;
  double PenaltyDivisorFor(TrialOutcome outcome) const;
  /// Converts a raw evaluation into the internal maximize-convention
  /// objective and the reported measured value, applying the
  /// per-outcome penalty and updating the penalty floor.
  void ScoreResult(const TrialResult& result, double* objective_value,
                   double* measured);
  /// Appends the iteration to the knowledge base and updates the
  /// iteration budget / early-stopping state.
  void AppendRecord(const Trial& trial, const TrialResult& result,
                    double objective_value, double measured);
  /// Commits fully told rounds at the queue front, in order.
  void CommitReadyRounds();
  void CommitRound(Round& round);
  /// \name Racing stage
  /// @{
  /// Fidelity of rung r under the configured schedule.
  double RungFidelity(int rung) const;
  /// Creates the current rung's trials (one per alive candidate) as a
  /// new open round and queues them for OpenRound to hand out.
  void StartRung();
  /// Applies CI-overlap elimination + the ceil(alive/eta) survivor cap
  /// after a non-final rung.
  void EliminateAfterRung();
  /// Commits one completed rung round: feeds the candidates'
  /// statistics, then either opens the next rung or (final rung / all
  /// candidates dead) commits the champion's observation and ends the
  /// race.
  void CommitRungRound(Round& round);
  /// @}
  /// Iteration budget not yet consumed by committed or pending trials.
  int RemainingBudget() const;
  /// The one path that hands out trials, for Ask, AskBatch, Step and
  /// Restore's replay: the baseline; else up to n unserved trials of
  /// the active race's rung (drawing a new race's cohort first); else
  /// a new round of min(n, remaining budget) drawn by Suggest() when
  /// `single` and SuggestBatch(n) otherwise. `what` prefixes the error
  /// texts.
  Result<std::vector<Trial>> OpenRound(int n, bool single, const char* what);
  /// Gives `trial` the next id, records it as pending in `round`, and
  /// returns the stored copy.
  const Trial& AddPendingTrial(Trial trial, Round* round);
  /// Evaluates trials against the attached objective: the baseline and
  /// single-trial rounds run on the objective itself; batch rounds run
  /// across the lazily built clone pool over the shared thread pool
  /// (slot i -> clone i, so results are independent of scheduling).
  std::vector<TrialResult> EvaluateTrials(const std::vector<Trial>& trials);

  ObjectiveFunction* objective_;  // null for detached sessions
  const ConfigSpace* config_space_;
  bool maximize_ = true;
  SpaceAdapter* adapter_;
  Optimizer* optimizer_;
  SessionOptions options_;
  Status init_status_;

  KnowledgeBase kb_;
  /// Independent objective instances for parallel batch evaluation
  /// (lazily built on the first batched step; empty when the
  /// objective does not support Clone()).
  std::vector<std::unique_ptr<ObjectiveFunction>> clone_pool_;
  bool clone_pool_built_ = false;

  int64_t next_trial_id_ = 1;
  std::map<int64_t, PendingTrial> pending_;
  /// Active race, when options_.racing is set and a race is underway.
  std::optional<RaceState> race_;
  /// Ids dropped by Expire: a late Tell answers TrialExpired forever,
  /// and Save writes their round slots as "expired" so replay
  /// reproduces the drop deterministically.
  std::set<int64_t> expired_ids_;
  std::deque<Round> open_rounds_;
  /// Committed rounds in commit order, for checkpoint replay.
  std::vector<Round> committed_rounds_;
  std::vector<double> baseline_metrics_;

  double default_performance_ = 0.0;
  double worst_objective_ = 0.0;  // worst (maximize-convention) value
  bool baseline_done_ = false;
  bool baseline_pending_ = false;
  bool stopped_ = false;
  /// True while Restore() replays a checkpoint: lets replay re-ask
  /// rounds that were asked before an early stop committed (the
  /// original asks legitimately preceded the stop).
  bool replaying_ = false;
  int iterations_run_ = 0;
  double optimizer_seconds_ = 0.0;
  /// Committed measurement work in full-run units (see SessionResult).
  double simulated_work_ = 0.0;
};

}  // namespace llamatune
