#include "src/core/tuning_session.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string_view>
#include <utility>

#include "src/common/clock.h"
#include "src/common/serde.h"
#include "src/common/thread_pool.h"
#include "src/optimizer/history_io.h"

namespace llamatune {

namespace {

constexpr char kCheckpointHeader[] = "llamatune-checkpoint";
// v2: per-outcome penalty options, pending-trial deadlines, "told"
// lines carry a typed outcome code, and expired round slots are
// recorded as "expired" so replay reproduces the drop.
// v3: the options line carries a trailing racing block, and racing
// rung rounds serialize as tag 'R' with per-slot "rung" lines
// (outcome, value, fidelity, metrics). Restore still accepts v2
// files — they simply predate racing and fidelity, so every recorded
// measurement is full-fidelity.
constexpr int kCheckpointVersion = 3;
constexpr int kMinCheckpointVersion = 2;

/// The checkpoint's options line. Save writes it; Restore re-encodes
/// its own options the same way and requires an exact match. The
/// racing block is the v3 addition.
void WriteOptionsLine(const SessionOptions& options, bool racing_block,
                      TokenWriter* out) {
  out->Literal("options");
  out->Value(options.num_iterations);
  out->Value(options.batch_size);
  out->Value(options.crash_penalty_divisor);
  out->Value(options.timeout_penalty_divisor);
  out->Value(options.lost_penalty_divisor);
  out->Value(options.pending_deadline_ms);
  out->Value(options.early_stopping.has_value());
  if (options.early_stopping.has_value()) {
    out->Value(options.early_stopping->min_improvement_pct());
    out->Value(options.early_stopping->patience());
  }
  if (racing_block) {
    out->Maybe("racing", options.racing, [](auto& io, auto& racing) {
      io.Value(racing.cohort);
      io.Value(racing.rungs);
      io.Value(racing.min_fidelity);
      io.Value(racing.eta);
      io.Value(racing.ci_z);
    });
  }
  out->EndLine();
}

}  // namespace

Status RacingOptions::Validate() const {
  if (cohort < 1) {
    return Status::InvalidArgument("RacingOptions: cohort must be >= 1, got " +
                                   std::to_string(cohort));
  }
  if (rungs < 1) {
    return Status::InvalidArgument("RacingOptions: rungs must be >= 1, got " +
                                   std::to_string(rungs));
  }
  if (!(min_fidelity > 0.0) || min_fidelity > 1.0) {
    return Status::InvalidArgument(
        "RacingOptions: min_fidelity must be in (0, 1]");
  }
  if (!(eta > 1.0)) {
    return Status::InvalidArgument("RacingOptions: eta must be > 1");
  }
  if (ci_z < 0.0) {
    return Status::InvalidArgument("RacingOptions: ci_z must be >= 0");
  }
  return Status::OK();
}

Status SessionOptions::Validate() const {
  if (num_iterations < 0) {
    return Status::InvalidArgument(
        "SessionOptions: num_iterations must be >= 0, got " +
        std::to_string(num_iterations));
  }
  if (batch_size < 1) {
    return Status::InvalidArgument(
        "SessionOptions: batch_size must be >= 1, got " +
        std::to_string(batch_size));
  }
  if (num_threads < 0) {
    return Status::InvalidArgument(
        "SessionOptions: num_threads must be >= 0 (0 = shared pool size), "
        "got " +
        std::to_string(num_threads));
  }
  if (!(crash_penalty_divisor > 0.0)) {
    return Status::InvalidArgument(
        "SessionOptions: crash_penalty_divisor must be > 0");
  }
  if (!(timeout_penalty_divisor > 0.0)) {
    return Status::InvalidArgument(
        "SessionOptions: timeout_penalty_divisor must be > 0");
  }
  if (!(lost_penalty_divisor > 0.0)) {
    return Status::InvalidArgument(
        "SessionOptions: lost_penalty_divisor must be > 0");
  }
  if (pending_deadline_ms < 0) {
    return Status::InvalidArgument(
        "SessionOptions: pending_deadline_ms must be >= 0 (0 = no deadline), "
        "got " +
        std::to_string(pending_deadline_ms));
  }
  if (racing.has_value()) {
    LT_RETURN_NOT_OK(racing->Validate());
  }
  return Status::OK();
}

TuningSession::TuningSession(ObjectiveFunction* objective,
                             SpaceAdapter* adapter, Optimizer* optimizer,
                             SessionOptions options)
    : objective_(objective),
      config_space_(&objective->config_space()),
      maximize_(objective->maximize()),
      adapter_(adapter),
      optimizer_(optimizer),
      options_(std::move(options)),
      init_status_(options_.Validate()) {}

TuningSession::TuningSession(const ConfigSpace* config_space, bool maximize,
                             SpaceAdapter* adapter, Optimizer* optimizer,
                             SessionOptions options)
    : objective_(nullptr),
      config_space_(config_space),
      maximize_(maximize),
      adapter_(adapter),
      optimizer_(optimizer),
      options_(std::move(options)),
      init_status_(options_.Validate()) {}

double TuningSession::Penalized(double divisor) const {
  // Internal objectives are always maximize-convention; the paper
  // assigns a quarter of the worst seen so far.
  if (worst_objective_ >= 0.0) {
    return worst_objective_ / divisor;
  }
  return worst_objective_ * divisor;
}

double TuningSession::PenaltyDivisorFor(TrialOutcome outcome) const {
  switch (outcome) {
    case TrialOutcome::kTimedOut:
      return options_.timeout_penalty_divisor;
    case TrialOutcome::kLost:
      return options_.lost_penalty_divisor;
    case TrialOutcome::kCrashed:
    case TrialOutcome::kOk:
      break;
  }
  return options_.crash_penalty_divisor;
}

void TuningSession::ScoreResult(const TrialResult& result,
                                double* objective_value, double* measured) {
  if (IsFailure(result.outcome)) {
    *objective_value = Penalized(PenaltyDivisorFor(result.outcome));
    *measured = maximize_ ? *objective_value : -*objective_value;
  } else {
    *objective_value = maximize_ ? result.value : -result.value;
    *measured = result.value;
    worst_objective_ = std::min(worst_objective_, *objective_value);
  }
}

void TuningSession::AppendRecord(const Trial& trial, const TrialResult& result,
                                 double objective_value, double measured) {
  IterationRecord record;
  record.iteration = ++iterations_run_;
  record.point = trial.point;
  record.config = trial.config;
  record.measured = measured;
  record.objective = objective_value;
  record.crashed = result.crashed();
  record.outcome = result.outcome;
  record.metrics = result.metrics;
  kb_.Add(std::move(record));

  if (options_.early_stopping.has_value()) {
    double best = kb_.BestSoFarObjective().back();
    if (options_.early_stopping->Update(best)) {
      stopped_ = true;
    }
  }
  if (iterations_run_ >= options_.num_iterations) stopped_ = true;
}

int TuningSession::RemainingBudget() const {
  // A race is one budget iteration however many rung trials it holds
  // pending; in a racing session all non-baseline pending trials
  // belong to the active race.
  if (options_.racing.has_value()) {
    return options_.num_iterations - iterations_run_ -
           (race_.has_value() ? 1 : 0);
  }
  int pending = static_cast<int>(pending_.size());
  if (baseline_pending_) --pending;
  return options_.num_iterations - iterations_run_ - pending;
}

bool TuningSession::finished() const {
  if (!init_status_.ok()) return true;
  if (stopped_) return true;
  if (!baseline_done_) return false;
  // An active race counts as one budget iteration, so RemainingBudget
  // hits 0 while its later rungs still hand out trials — the session is
  // not finished until the champion commits.
  if (race_.has_value()) return false;
  return RemainingBudget() <= 0;
}

double TuningSession::RungFidelity(int rung) const {
  const RacingOptions& racing = *options_.racing;
  // Geometric ladder min_fidelity^((R-1-r)/(R-1)): rung 0 runs at
  // min_fidelity, the final rung at exactly 1.0 (the literal, not a
  // computed power — full-fidelity rung trials must evaluate
  // bit-identically to ordinary trials).
  if (racing.rungs <= 1 || rung >= racing.rungs - 1) return 1.0;
  double exponent = static_cast<double>(racing.rungs - 1 - rung) /
                    static_cast<double>(racing.rungs - 1);
  return std::pow(racing.min_fidelity, exponent);
}

void TuningSession::StartRung() {
  Round round;
  round.kind = Round::Kind::kRung;
  race_->slot_candidates.clear();
  race_->slot_of_id.clear();
  race_->unserved.clear();
  for (size_t c = 0; c < race_->candidates.size(); ++c) {
    if (!race_->candidates[c].alive) continue;
    Trial trial;
    trial.point = race_->candidates[c].point;
    trial.config = race_->candidates[c].config;
    trial.fidelity = RungFidelity(race_->rung);
    int64_t id = AddPendingTrial(std::move(trial), &round).id;
    race_->slot_candidates.push_back(static_cast<int>(c));
    race_->slot_of_id.emplace(id, static_cast<int>(round.ids.size()) - 1);
    race_->unserved.push_back(id);
  }
  round.requested = static_cast<int>(round.ids.size());
  open_rounds_.push_back(std::move(round));
}

void TuningSession::EliminateAfterRung() {
  const RacingOptions& racing = *options_.racing;
  std::vector<int> alive;
  for (size_t c = 0; c < race_->candidates.size(); ++c) {
    if (race_->candidates[c].alive) alive.push_back(static_cast<int>(c));
  }
  if (alive.size() <= 1) return;
  // CI-overlap rule: a candidate whose upper confidence bound lies
  // below the best candidate's lower bound cannot win; drop it. With
  // fewer than two samples the half-width is infinite, so nothing is
  // eliminated on confidence alone — the rank cap below still bites.
  if (racing.ci_z > 0.0) {
    double best_lower = -std::numeric_limits<double>::infinity();
    for (int c : alive) {
      const RunningStat& stat = race_->candidates[c].stat;
      double lower = stat.Mean() - stat.CiHalfWidth(racing.ci_z);
      if (lower > best_lower) best_lower = lower;
    }
    for (int c : alive) {
      const RunningStat& stat = race_->candidates[c].stat;
      if (stat.Mean() + stat.CiHalfWidth(racing.ci_z) < best_lower) {
        race_->candidates[c].alive = false;
      }
    }
  }
  // Successive-halving cap: at most ceil(alive / eta) candidates
  // advance, ranked by accumulated mean; stable sort keeps draw order
  // on ties, so the cut is deterministic.
  int target = std::max(
      1, static_cast<int>(std::ceil(static_cast<double>(alive.size()) /
                                    racing.eta)));
  std::vector<int> survivors;
  for (int c : alive) {
    if (race_->candidates[c].alive) survivors.push_back(c);
  }
  if (static_cast<int>(survivors.size()) <= target) return;
  std::stable_sort(survivors.begin(), survivors.end(), [this](int a, int b) {
    return race_->candidates[a].stat.Mean() >
           race_->candidates[b].stat.Mean();
  });
  for (size_t rank = target; rank < survivors.size(); ++rank) {
    race_->candidates[survivors[rank]].alive = false;
  }
}

void TuningSession::CommitRungRound(Round& round) {
  const RacingOptions& racing = *options_.racing;
  int n = static_cast<int>(round.ids.size());
  std::vector<Trial> trials;
  trials.reserve(n);
  round.rung_results.reserve(n);
  for (int i = 0; i < n; ++i) {
    auto it = pending_.find(round.ids[i]);
    trials.push_back(std::move(it->second.trial));
    round.rung_results.push_back(std::move(*it->second.result));
    pending_.erase(it);
  }
  std::vector<int> slot_candidates = race_->slot_candidates;
  // Feed the accumulated statistics in slot (= draw) order; a failure
  // outcome kills the candidate outright. Rung measurements never
  // touch the penalty floor — only the committed champion does.
  for (int i = 0; i < n; ++i) {
    RaceCandidate& candidate = race_->candidates[slot_candidates[i]];
    const TrialResult& result = round.rung_results[i];
    simulated_work_ += trials[i].fidelity;
    if (IsFailure(result.outcome)) {
      candidate.alive = false;
    } else {
      candidate.stat.Push(maximize_ ? result.value : -result.value);
    }
  }
  bool final_rung = race_->rung >= racing.rungs - 1;
  bool any_alive = false;
  for (const RaceCandidate& candidate : race_->candidates) {
    if (candidate.alive) {
      any_alive = true;
      break;
    }
  }
  if (!final_rung && any_alive) {
    EliminateAfterRung();
    ++race_->rung;
    StartRung();
    return;
  }

  // Final rung (or every candidate failed): commit exactly ONE
  // observation for the whole race — the champion's full-fidelity
  // result, chosen by best accumulated mean among surviving candidates
  // (ties go to draw order). When nothing survived, the first slot's
  // failure commits instead and scores its outcome's penalty, so a
  // race always costs exactly one budget iteration.
  round.final_rung = true;
  int champion_slot = -1;
  for (int i = 0; i < n; ++i) {
    const RaceCandidate& candidate = race_->candidates[slot_candidates[i]];
    if (!candidate.alive || IsFailure(round.rung_results[i].outcome)) continue;
    if (champion_slot < 0 ||
        candidate.stat.Mean() >
            race_->candidates[slot_candidates[champion_slot]].stat.Mean()) {
      champion_slot = i;
    }
  }
  if (champion_slot < 0) champion_slot = 0;
  const Trial& champ_trial = trials[champion_slot];
  const TrialResult& champ_result = round.rung_results[champion_slot];
  double objective_value = 0.0;
  double measured = 0.0;
  ScoreResult(champ_result, &objective_value, &measured);
  double t0 = NowSeconds();
  optimizer_->ObserveMetrics(champ_result.metrics);
  optimizer_->Observe(champ_trial.point, objective_value);
  optimizer_seconds_ += NowSeconds() - t0;
  AppendRecord(champ_trial, champ_result, objective_value, measured);
  race_.reset();
}

const Trial& TuningSession::AddPendingTrial(Trial trial, Round* round) {
  trial.id = next_trial_id_++;
  round->ids.push_back(trial.id);
  auto it = pending_.emplace(trial.id, PendingTrial{std::move(trial),
                                                    std::nullopt,
                                                    NowUnixMillis()});
  return it.first->second.trial;
}

Result<std::vector<Trial>> TuningSession::OpenRound(int n, bool single,
                                                    const char* what) {
  // Error texts name the public entry point; they are built only on
  // the error path.
  auto fail = [what](StatusCode code, const char* text) {
    return Status(code, std::string(what) + ": " + text);
  };
  if (!init_status_.ok()) return init_status_;
  if (n < 1) {
    return Status::InvalidArgument(std::string(what) +
                                   ": n must be >= 1, got " +
                                   std::to_string(n));
  }
  Round round;
  std::vector<Trial> trials;
  if (!baseline_done_) {
    if (baseline_pending_) {
      return fail(StatusCode::kFailedPrecondition,
                  "the baseline trial is outstanding; Tell its result first");
    }
    // Iteration 0 is a round of one, whatever n asks for.
    round.kind = Round::Kind::kBaseline;
    trials.emplace_back();
    trials[0].config = config_space_->DefaultConfiguration();
    trials[0].is_baseline = true;
    baseline_pending_ = true;
  } else if (stopped_ && !replaying_) {
    return fail(StatusCode::kOutOfRange,
                "session stopped (budget or early stop)");
  } else {
    const bool racing = options_.racing.has_value();
    if (!racing || !race_.has_value()) {
      int budget = RemainingBudget();
      if (budget <= 0) {
        return fail(StatusCode::kOutOfRange,
                    racing ? "iteration budget exhausted (counting the "
                             "active race)"
                           : "iteration budget exhausted (counting pending "
                             "trials)");
      }
      // A race draws its whole cohort at once, through Suggest() when
      // the cohort is one, so the degenerate race consumes the
      // identical optimizer call sequence as a non-racing Ask.
      int draw = racing ? options_.racing->cohort : std::min(n, budget);
      bool draw_single = racing ? draw == 1 : single;
      double t0 = NowSeconds();
      std::vector<std::vector<double>> points;
      if (draw_single) {
        points.push_back(optimizer_->Suggest());
      } else {
        points = optimizer_->SuggestBatch(draw);
      }
      optimizer_seconds_ += NowSeconds() - t0;
      // An override may return fewer points than asked; never accept
      // more (extra points would overshoot the iteration budget, and in
      // the Run/Step path would share evaluation clones across threads).
      if (static_cast<int>(points.size()) > draw) points.resize(draw);
      if (points.empty()) {
        stopped_ = true;
        return fail(StatusCode::kOutOfRange,
                    "optimizer returned no suggestions");
      }
      if (racing) {
        race_.emplace();
        race_->candidates.resize(points.size());
        for (size_t c = 0; c < points.size(); ++c) {
          race_->candidates[c].config = adapter_->Project(points[c]);
          race_->candidates[c].point = std::move(points[c]);
        }
        StartRung();
      } else {
        round.kind = draw_single ? Round::Kind::kSingle : Round::Kind::kBatch;
        round.requested = draw;
        trials.resize(points.size());
        for (size_t i = 0; i < points.size(); ++i) {
          trials[i].config = adapter_->Project(points[i]);
          trials[i].point = std::move(points[i]);
        }
      }
    }
    if (racing) {
      // The rung's trials were created with its round; hand out up to n.
      if (race_->unserved.empty()) {
        return fail(StatusCode::kFailedPrecondition,
                    "the current racing rung is fully handed out; Tell its "
                    "results to open the next rung");
      }
      while (!race_->unserved.empty() && static_cast<int>(trials.size()) < n) {
        trials.push_back(pending_.at(race_->unserved.front()).trial);
        race_->unserved.pop_front();
      }
      return trials;
    }
  }
  for (Trial& trial : trials) {
    trial = AddPendingTrial(std::move(trial), &round);
  }
  open_rounds_.push_back(std::move(round));
  return trials;
}

Result<Trial> TuningSession::Ask() {
  Result<std::vector<Trial>> round = OpenRound(1, /*single=*/true, "Ask");
  if (!round.ok()) return round.status();
  return std::move(std::move(round).ValueOrDie().front());
}

Result<std::vector<Trial>> TuningSession::AskBatch(int n) {
  return OpenRound(n, /*single=*/false, "AskBatch");
}

Status TuningSession::Tell(const TrialResult& result) {
  if (!init_status_.ok()) return init_status_;
  auto it = pending_.find(result.trial_id);
  if (it == pending_.end()) {
    if (expired_ids_.count(result.trial_id) > 0) {
      return Status::TrialExpired(
          "Tell: trial " + std::to_string(result.trial_id) +
          " expired (deadline passed; its budget was reclaimed)");
    }
    if (result.trial_id >= 1 && result.trial_id < next_trial_id_) {
      return Status::AlreadyExists(
          "Tell: trial " + std::to_string(result.trial_id) +
          " was already told and committed");
    }
    return Status::NotFound("Tell: unknown trial id " +
                            std::to_string(result.trial_id));
  }
  if (it->second.result.has_value()) {
    return Status::AlreadyExists("Tell: trial " +
                                 std::to_string(result.trial_id) +
                                 " was already told (buffered)");
  }
  // A non-finite measurement would silently poison GP target
  // standardization (every standardized target becomes NaN); refuse it
  // at the boundary. Failure outcomes ignore `value`, so they pass.
  if (!IsFailure(result.outcome) && !std::isfinite(result.value)) {
    return Status::InvalidArgument(
        "Tell: non-finite value for trial " +
        std::to_string(result.trial_id) +
        " (report a failure outcome instead of NaN/Inf)");
  }
  it->second.result = result;
  // The asked Trial's fidelity is authoritative: a peer that predates
  // the fidelity token (or simply echoes the default) still answers
  // short-run trials correctly.
  it->second.result->fidelity = it->second.trial.fidelity;
  CommitReadyRounds();
  return Status::OK();
}

Status TuningSession::TellBatch(const std::vector<TrialResult>& results,
                               size_t* told) {
  if (told != nullptr) *told = 0;
  // Validate the whole batch before buffering anything: a non-finite
  // value in result k must not leave results [0, k) half-applied (the
  // caller would have to untangle which tells took).
  for (const TrialResult& result : results) {
    if (!IsFailure(result.outcome) && !std::isfinite(result.value)) {
      return Status::InvalidArgument(
          "TellBatch: non-finite value for trial " +
          std::to_string(result.trial_id) +
          " (use a failure outcome when there is no measurement)");
    }
  }
  for (const TrialResult& result : results) {
    LT_RETURN_NOT_OK(Tell(result));
    if (told != nullptr) ++*told;
  }
  return Status::OK();
}

Status TuningSession::Expire(int64_t trial_id) {
  if (!init_status_.ok()) return init_status_;
  auto it = pending_.find(trial_id);
  if (it == pending_.end()) {
    // Idempotent on already-expired ids: WAL replay may re-apply an
    // expiry record that the autosave already captured.
    if (expired_ids_.count(trial_id) > 0) return Status::OK();
    if (trial_id >= 1 && trial_id < next_trial_id_) {
      return Status::AlreadyExists("Expire: trial " +
                                   std::to_string(trial_id) +
                                   " was already told and committed");
    }
    return Status::NotFound("Expire: unknown trial id " +
                            std::to_string(trial_id));
  }
  if (it->second.trial.is_baseline) {
    return Status::FailedPrecondition(
        "Expire: the baseline trial cannot expire (no session can start "
        "without its crash-penalty floor)");
  }
  if (it->second.result.has_value()) {
    return Status::FailedPrecondition(
        "Expire: trial " + std::to_string(trial_id) +
        " already has a buffered result");
  }
  if (race_.has_value() && race_->slot_of_id.count(trial_id) > 0) {
    return Status::FailedPrecondition(
        "Expire: trial " + std::to_string(trial_id) +
        " belongs to the active racing rung; every rung slot must be told "
        "for the race to stay deterministic");
  }
  pending_.erase(it);
  expired_ids_.insert(trial_id);
  // Dropping the slot may complete its round (all other slots told).
  CommitReadyRounds();
  return Status::OK();
}

std::vector<int64_t> TuningSession::ExpireOverdue(int64_t now_ms) {
  if (!init_status_.ok() || options_.pending_deadline_ms <= 0) return {};
  std::vector<int64_t> overdue;
  for (const auto& [id, pending] : pending_) {
    if (pending.trial.is_baseline || pending.result.has_value()) continue;
    // Racing rung trials are exempt: dropping a slot would change the
    // race's elimination sequence, so rungs must complete.
    if (race_.has_value() && race_->slot_of_id.count(id) > 0) continue;
    if (now_ms - pending.asked_at_ms >= options_.pending_deadline_ms) {
      overdue.push_back(id);
    }
  }
  std::vector<int64_t> expired;
  expired.reserve(overdue.size());
  for (int64_t id : overdue) {
    if (Expire(id).ok()) expired.push_back(id);
  }
  return expired;
}

std::vector<Trial> TuningSession::PendingSnapshot() const {
  std::vector<Trial> trials;
  trials.reserve(pending_.size());
  for (const auto& [id, pending] : pending_) {
    if (!pending.result.has_value()) trials.push_back(pending.trial);
  }
  return trials;
}

void TuningSession::CommitReadyRounds() {
  while (!open_rounds_.empty()) {
    const Round& front = open_rounds_.front();
    bool complete = true;
    for (int64_t id : front.ids) {
      if (expired_ids_.count(id) > 0) continue;  // dropped slot
      auto it = pending_.find(id);
      if (it == pending_.end() || !it->second.result.has_value()) {
        complete = false;
        break;
      }
    }
    if (!complete) return;
    Round round = std::move(open_rounds_.front());
    open_rounds_.pop_front();
    CommitRound(round);
    committed_rounds_.push_back(std::move(round));
  }
}

void TuningSession::CommitRound(Round& round) {
  if (round.kind == Round::Kind::kRung) {
    CommitRungRound(round);
    return;
  }
  if (round.kind == Round::Kind::kBaseline) {
    auto it = pending_.find(round.ids[0]);
    TrialResult result = std::move(*it->second.result);
    pending_.erase(it);
    // Iteration 0: establishes the crash-penalty floor and feeds the
    // RL state, but is not an optimizer observation (synthetic spaces
    // have no preimage for the default configuration). The crashed
    // flag is ignored here, as in the classic loop.
    double objective_value = maximize_ ? result.value : -result.value;
    default_performance_ = result.value;
    worst_objective_ = objective_value;
    simulated_work_ += 1.0;  // the baseline is always a full run
    baseline_metrics_ = result.metrics;
    optimizer_->ObserveMetrics(baseline_metrics_);
    baseline_done_ = true;
    baseline_pending_ = false;
    return;
  }

  // Expired slots were dropped from the round: no trial, no result,
  // no observation. A round can even commit empty (every slot
  // expired) — the optimizer's suggest draw already happened at ask
  // time, so the draw sequence stays intact either way.
  std::vector<Trial> trials;
  std::vector<TrialResult> results;
  trials.reserve(round.ids.size());
  results.reserve(round.ids.size());
  for (int64_t id : round.ids) {
    if (expired_ids_.count(id) > 0) continue;
    auto it = pending_.find(id);
    trials.push_back(std::move(it->second.trial));
    results.push_back(std::move(*it->second.result));
    pending_.erase(it);
  }
  int n = static_cast<int>(trials.size());
  if (n == 0) return;

  // Score in suggestion order so crash penalties, best-so-far curves
  // and early stopping are independent of evaluation interleaving.
  std::vector<double> values(n);
  std::vector<double> measured(n);
  for (int i = 0; i < n; ++i) {
    simulated_work_ += trials[i].fidelity;
    ScoreResult(results[i], &values[i], &measured[i]);
  }
  // Only genuine optimizer work counts toward optimizer_seconds_
  // (Table 10 comparability).
  double t0 = NowSeconds();
  for (int i = 0; i < n; ++i) optimizer_->ObserveMetrics(results[i].metrics);
  if (round.kind == Round::Kind::kBatch) {
    std::vector<std::vector<double>> points(n);
    for (int i = 0; i < n; ++i) points[i] = trials[i].point;
    optimizer_->ObserveBatch(points, values);
  } else {
    optimizer_->Observe(trials[0].point, values[0]);
  }
  optimizer_seconds_ += NowSeconds() - t0;
  for (int i = 0; i < n; ++i) {
    AppendRecord(trials[i], results[i], values[i], measured[i]);
  }
}

std::vector<TrialResult> TuningSession::EvaluateTrials(
    const std::vector<Trial>& trials) {
  int n = static_cast<int>(trials.size());
  std::vector<TrialResult> results(n);
  auto to_result = [](const Trial& trial, const EvalResult& r) {
    TrialResult result;
    result.trial_id = trial.id;
    result.value = r.value;
    result.outcome = r.EffectiveOutcome();
    result.metrics = r.metrics;
    result.fidelity = r.fidelity;
    return result;
  };
  // Full-fidelity trials go through Evaluate() itself — the exact
  // pre-fidelity call — so existing sessions stay bit-identical even
  // against objectives that override only Evaluate.
  auto evaluate = [](ObjectiveFunction* fn, const Trial& trial) {
    return trial.fidelity < 1.0 ? fn->EvaluateAt(trial.config, trial.fidelity)
                                : fn->Evaluate(trial.config);
  };

  // The baseline and the sequential (batch_size == 1) path evaluate on
  // the objective itself, exactly like the classic loop.
  if (n == 1 && (trials[0].is_baseline || options_.batch_size <= 1)) {
    results[0] = to_result(trials[0], evaluate(objective_, trials[0]));
    return results;
  }

  // One clone per batch slot, built once and reused: each slot keeps
  // its own evaluation counter, so a session is deterministic for a
  // fixed (seed, batch size) pair. Racing rungs can be wider than the
  // batch size, so the pool covers the cohort too — two slots must
  // never share a clone concurrently.
  if (!clone_pool_built_) {
    clone_pool_built_ = true;
    int pool_size = options_.batch_size;
    if (options_.racing.has_value()) {
      pool_size = std::max(pool_size, options_.racing->cohort);
    }
    for (int i = 0; i < pool_size; ++i) {
      std::unique_ptr<ObjectiveFunction> clone = objective_->Clone();
      if (clone == nullptr) {
        clone_pool_.clear();
        break;
      }
      clone_pool_.push_back(std::move(clone));
    }
  }

  if (clone_pool_.empty()) {
    // Objective cannot be cloned: evaluate the batch sequentially.
    for (int i = 0; i < n; ++i) {
      results[i] = to_result(trials[i], evaluate(objective_, trials[i]));
    }
  } else {
    // Each batch slot evaluates on its own clone over the shared pool
    // (the caller participates, so nested parallelism — e.g. inside a
    // seed-sharded experiment — cannot deadlock). Slot i always maps
    // to clone i, so results are independent of scheduling.
    ThreadPool::Global().ParallelFor(
        n,
        [this, &trials, &results, &to_result, &evaluate](int i) {
          ObjectiveFunction* instance =
              clone_pool_[i % clone_pool_.size()].get();
          results[i] = to_result(trials[i], evaluate(instance, trials[i]));
        },
        options_.num_threads);
  }
  return results;
}

bool TuningSession::Step() {
  if (!init_status_.ok()) return false;
  if (objective_ == nullptr) return false;  // detached: caller drives Ask/Tell
  if (stopped_) return false;
  // One Step = one round: the baseline, one whole racing rung, or a
  // fresh round of batch_size. It is measured (in parallel across
  // clones when wider than one) and told back; the commit path then
  // observes it, or eliminates race candidates and opens the next rung,
  // or commits the race champion. A spent budget ends the session
  // through OpenRound's OutOfRange (the commit that spends it also sets
  // stopped_, except in a baseline-only session).
  int n = options_.racing.has_value() ? options_.racing->cohort
                                      : options_.batch_size;
  Result<std::vector<Trial>> trials =
      OpenRound(n, /*single=*/options_.batch_size <= 1, "Step");
  if (!trials.ok()) return false;
  TellBatch(EvaluateTrials(*trials));
  return true;
}

SessionResult TuningSession::Run() {
  if (!init_status_.ok()) return SessionResult{};
  if (!baseline_done_ && options_.early_stopping.has_value()) {
    options_.early_stopping->Reset();
  }
  while (Step()) {
  }
  return Snapshot();
}

SessionResult TuningSession::Snapshot() const {
  SessionResult result;
  result.kb = kb_;
  result.default_performance = default_performance_;
  result.iterations_run = iterations_run_;
  result.optimizer_seconds = optimizer_seconds_;
  result.simulated_work = simulated_work_;
  int best = kb_.BestIndex();
  if (best >= 0) {
    result.best_performance = kb_.record(best).measured;
    result.best_config = kb_.record(best).config;
  }
  return result;
}

std::string TuningSession::Save() const {
  TokenWriter out;
  out.Literal(kCheckpointHeader);
  out.Literal("v" + std::to_string(kCheckpointVersion));
  out.EndLine();
  out.Field("maximize", maximize_);
  out.EndLine();
  WriteOptionsLine(options_, /*racing_block=*/true, &out);
  out.Literal("state");
  out.Value(iterations_run_);
  out.Value(optimizer_seconds_);
  out.EndLine();
  out.Field("baseline", baseline_done_);
  if (baseline_done_) {
    out.Value(default_performance_);
    out.Value(baseline_metrics_);
  }
  out.EndLine();
  // Evaluation-side state: the attached objective's (and its batch
  // clones') serializable state, so the resumed session continues with
  // the identical noise stream. Detached and stateless objectives
  // write nothing to restore.
  auto write_state = [&out](const char* tag, const ObjectiveFunction* fn) {
    std::optional<std::string> state =
        fn == nullptr ? std::nullopt : fn->SaveState();
    out.Field(tag, state.has_value());
    if (state.has_value()) {
      out.Value(static_cast<uint64_t>(state->size()));
      out.Hex(*state);
    }
    out.EndLine();
  };
  write_state("objective", objective_);
  out.Literal("clones");
  out.Value(clone_pool_built_ ? static_cast<int64_t>(clone_pool_.size())
                              : int64_t{-1});
  out.EndLine();
  if (clone_pool_built_) {
    for (const auto& clone : clone_pool_) write_state("clone", clone.get());
  }
  out.Field("rounds", static_cast<uint64_t>(committed_rounds_.size()));
  out.EndLine();
  int record_index = 0;
  for (const Round& round : committed_rounds_) {
    // One letter per Round::Kind, in declaration order.
    const char tag = "DSBR"[static_cast<int>(round.kind)];
    out.Literal("round");
    out.Literal(std::string_view(&tag, 1));
    out.Value(round.requested);
    out.Value(static_cast<uint64_t>(round.ids.size()));
    out.EndLine();
    if (round.kind == Round::Kind::kBaseline) continue;
    if (round.kind == Round::Kind::kRung) {
      // Rung measurements are not knowledge-base records (only the
      // race champion is); they were captured at commit. Replay
      // re-tells them through the race machinery, which re-derives
      // eliminations, the champion, and its KB record.
      for (const TrialResult& result : round.rung_results) {
        out.Literal("rung");
        out.EnumValue(result.outcome, TrialOutcome::kLost);
        out.Value(result.value);
        out.Value(result.fidelity);
        out.Value(result.metrics);
        out.EndLine();
      }
      // A final rung committed the champion's KB record; keep the
      // told-line cursor in sync for the rounds that follow.
      if (round.final_rung) ++record_index;
      continue;
    }
    for (size_t i = 0; i < round.ids.size(); ++i) {
      // Expired slots committed without an observation or a KB
      // record; replay must re-drop them, not re-tell them.
      if (expired_ids_.count(round.ids[i]) > 0) {
        out.Literal("expired");
        out.EndLine();
        continue;
      }
      const IterationRecord& record = kb_.record(record_index++);
      out.Literal("told");
      out.EnumValue(record.outcome, TrialOutcome::kLost);
      out.Value(record.measured);
      out.Value(record.metrics);
      out.EndLine();
    }
  }
  out.Field("history", static_cast<uint64_t>(optimizer_->history().size()));
  out.EndLine();
  std::string checkpoint = out.Take();
  checkpoint += SerializeHistory(optimizer_->history());
  checkpoint += "end\n";
  return checkpoint;
}

Status TuningSession::Restore(const std::string& checkpoint) {
  if (!init_status_.ok()) return init_status_;
  if (baseline_done_ || baseline_pending_ || !pending_.empty() ||
      iterations_run_ > 0 || !kb_.empty()) {
    return Status::FailedPrecondition(
        "Restore: requires a freshly constructed session");
  }

  TokenReader in(checkpoint);
  auto malformed = [&in]() {
    return Status::InvalidArgument("Restore: " + in.status().message());
  };

  // Header + version.
  if (!in.Literal(kCheckpointHeader)) {
    return Status::InvalidArgument("Restore: not a llamatune checkpoint");
  }
  std::string_view version = in.Next();
  int file_version = 0;
  for (int v = kMinCheckpointVersion; v <= kCheckpointVersion; ++v) {
    if (version == "v" + std::to_string(v)) file_version = v;
  }
  if (file_version == 0) {
    return Status::InvalidArgument("Restore: unsupported checkpoint version " +
                                   std::string(version));
  }

  bool saved_maximize = false;
  in.Field("maximize", saved_maximize);
  if (!in.ok()) return malformed();
  if (saved_maximize != maximize_) {
    return Status::FailedPrecondition(
        "Restore: checkpoint maximize convention does not match this "
        "session's objective");
  }

  // The options line must be exactly what this session's Save would
  // write. A v2 file predates racing: it matches the racing-free form
  // and can only restore into a non-racing session.
  TokenWriter own_options;
  WriteOptionsLine(options_, /*racing_block=*/file_version >= 3,
                   &own_options);
  TokenReader expected(own_options.str());
  bool options_match = file_version >= 3 || !options_.racing.has_value();
  while (options_match && !expected.AtEnd()) {
    std::string_view token = in.Next();
    if (!in.ok()) return malformed();
    options_match = token == expected.Next();
  }
  if (!options_match) {
    return Status::FailedPrecondition(
        "Restore: SessionOptions do not match the checkpoint (rebuild the "
        "session with the saved iterations/batch/penalty/early-stopping/"
        "racing settings; a pre-racing checkpoint needs racing off)");
  }

  int64_t saved_run = 0;
  double saved_seconds = 0.0;
  in.Literal("state");
  in.Value(saved_run);
  in.Value(saved_seconds);

  bool baseline_done = false;
  double saved_default = 0.0;
  std::vector<double> saved_baseline_metrics;
  in.Field("baseline", baseline_done);
  if (baseline_done) {
    in.Value(saved_default);
    in.Value(saved_baseline_metrics);
  }

  auto read_state = [&in](const char* tag,
                          std::optional<std::string>* state) {
    bool has = false;
    in.Field(tag, has);
    state->reset();
    if (!has) return;
    int64_t size = 0;
    in.Value(size);
    std::string payload;
    if (size > 0) in.Hex(payload);
    in.Check(static_cast<int64_t>(payload.size()) == size,
             "state payload size mismatch");
    *state = std::move(payload);
  };

  std::optional<std::string> saved_objective_state;
  read_state("objective", &saved_objective_state);
  int64_t saved_clone_count = 0;
  in.Field("clones", saved_clone_count);
  std::vector<std::optional<std::string>> saved_clone_states;
  for (int64_t i = 0; i < saved_clone_count && in.ok(); ++i) {
    saved_clone_states.emplace_back();
    read_state("clone", &saved_clone_states.back());
  }

  struct SavedTold {
    bool expired = false;
    TrialOutcome outcome = TrialOutcome::kOk;
    double value = 0.0;
    double fidelity = 1.0;
    std::vector<double> metrics;
  };
  struct SavedRound {
    char tag = 'S';
    int requested = 1;
    int size = 1;
    std::vector<SavedTold> told;
  };
  std::vector<SavedRound> saved_rounds;
  in.Each("rounds", saved_rounds, [&](TokenReader& in, SavedRound& round) {
    in.Literal("round");
    std::string_view tag = in.Next();
    in.Check(tag == "D" || tag == "S" || tag == "B" || tag == "R",
             "bad round kind tag");
    in.Check(tag != "R" || file_version >= 3,
             "rung round in a pre-v3 checkpoint");
    if (!in.ok()) return;
    round.tag = tag[0];
    in.Value(round.requested);
    in.Value(round.size);
    if (round.tag == 'D') {
      // The baseline's measurement is on the "baseline" line.
      round.told.emplace_back();
      round.told[0].value = saved_default;
      round.told[0].metrics = saved_baseline_metrics;
      return;
    }
    // Rung slots carry their measurement inline (they are not KB
    // records) and are never expired.
    const bool is_rung = round.tag == 'R';
    for (int i = 0; i < round.size && in.ok(); ++i) {
      round.told.emplace_back();
      SavedTold& told = round.told.back();
      std::string_view slot = in.Next();
      if (!is_rung && slot == "expired") {
        told.expired = true;
        continue;
      }
      in.Check(slot == (is_rung ? "rung" : "told"),
               is_rung ? "expected 'rung' slot"
                       : "expected 'told' or 'expired' slot");
      in.EnumValue(told.outcome, TrialOutcome::kLost);
      in.Value(told.value);
      if (is_rung) in.Value(told.fidelity);
      in.Value(told.metrics);
    }
  });

  int n_history = 0;
  in.Field("history", n_history);
  if (!in.ok()) return malformed();
  // The history block is the "obs" lines up to the "end" line.
  std::string_view rest = in.Rest();
  Result<std::vector<Observation>> saved_history = ParseHistory(
      std::string(rest.substr(0, rest.find("\nend"))), n_history);
  if (!saved_history.ok()) return saved_history.status();

  // --- Replay. The optimizer re-derives its model state and RNG
  // position from the same deterministic call sequence the original
  // session issued; the history block then pins the result.
  if (options_.early_stopping.has_value()) options_.early_stopping->Reset();
  if (!baseline_done) return Status::OK();  // nothing committed yet

  replaying_ = true;
  Status replay_status = Status::OK();
  for (const SavedRound& round : saved_rounds) {
    // Each round re-opens through the same path that opened it: the
    // tag, not the caller, decides between Suggest and SuggestBatch.
    Result<std::vector<Trial>> trials =
        OpenRound(round.requested, /*single=*/round.tag == 'S', "Restore");
    if (!trials.ok()) {
      replay_status = Status::Internal("Restore: replay ask failed: " +
                                       trials.status().ToString());
      break;
    }
    if (static_cast<int>(trials->size()) != round.size) {
      replay_status = Status::Internal(
          "Restore: replay produced a different round size than the "
          "checkpoint (optimizer mismatch?)");
      break;
    }
    for (int i = 0; i < round.size && replay_status.ok(); ++i) {
      const Trial& trial = (*trials)[i];
      const SavedTold& saved = round.told[i];
      // The race machinery regenerates rung trials; their fidelities
      // must land exactly where the checkpoint recorded them (every
      // other slot is full-fidelity on both sides).
      if (EncodeDoubleBits(trial.fidelity) !=
          EncodeDoubleBits(saved.fidelity)) {
        replay_status = Status::Internal(
            "Restore: replayed trial fidelity diverges from the checkpoint");
      } else if (saved.expired) {
        Status dropped = Expire(trial.id);
        if (!dropped.ok()) {
          replay_status = Status::Internal("Restore: replay Expire failed: " +
                                           dropped.ToString());
        }
      } else {
        TrialResult result;
        result.trial_id = trial.id;
        result.value = saved.value;
        result.outcome = saved.outcome;
        result.metrics = saved.metrics;
        replay_status = Tell(result);
      }
    }
    if (!replay_status.ok()) break;
  }
  replaying_ = false;
  if (!replay_status.ok()) return replay_status;

  if (iterations_run_ != saved_run) {
    return Status::Internal(
        "Restore: replay reached iteration " +
        std::to_string(iterations_run_) + ", checkpoint recorded " +
        std::to_string(saved_run));
  }
  if (!HistoryBitsEqual(optimizer_->history(), *saved_history)) {
    return Status::Internal(
        "Restore: replayed optimizer history diverges from the checkpoint — "
        "the session was rebuilt with a different seed, optimizer, or "
        "adapter than the one that saved it");
  }
  // Evaluation-side state: bring the attached objective (and the
  // batch clone pool) back to the saver's noise-stream position. A
  // detached restore ignores these — the external system owns its own
  // state.
  if (objective_ != nullptr) {
    if (saved_objective_state.has_value()) {
      Status restored = objective_->RestoreState(*saved_objective_state);
      if (!restored.ok()) {
        return Status::FailedPrecondition(
            "Restore: the attached objective rejected the checkpointed "
            "evaluation state: " +
            restored.ToString());
      }
    }
    if (saved_clone_count >= 0) {
      clone_pool_.clear();
      clone_pool_built_ = true;
      for (size_t i = 0; i < saved_clone_states.size(); ++i) {
        std::unique_ptr<ObjectiveFunction> clone = objective_->Clone();
        if (clone == nullptr) {
          return Status::FailedPrecondition(
              "Restore: checkpoint recorded a clone pool but the attached "
              "objective does not support Clone()");
        }
        if (saved_clone_states[i].has_value()) {
          Status restored = clone->RestoreState(*saved_clone_states[i]);
          if (!restored.ok()) {
            return Status::FailedPrecondition(
                "Restore: clone rejected checkpointed state: " +
                restored.ToString());
          }
        }
        clone_pool_.push_back(std::move(clone));
      }
    }
  }

  // Replay recomputed suggestion/observation timing; report the
  // original session's accounting instead.
  optimizer_seconds_ = saved_seconds;
  return Status::OK();
}

}  // namespace llamatune
