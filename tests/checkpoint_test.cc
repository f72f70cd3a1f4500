#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <cstdio>

#include "src/common/file_io.h"
#include "src/common/serde.h"
#include "src/core/adapter_registry.h"
#include "src/core/tuning_session.h"
#include "src/dbsim/simulated_postgres.h"
#include "src/optimizer/gp_bo.h"
#include "src/dbsim/workloads.h"
#include "src/optimizer/optimizer_registry.h"

namespace llamatune {
namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

::testing::AssertionResult ResultsBitIdentical(const SessionResult& a,
                                               const SessionResult& b) {
  if (a.iterations_run != b.iterations_run) {
    return ::testing::AssertionFailure()
           << "iterations_run " << a.iterations_run << " vs "
           << b.iterations_run;
  }
  if (!SameBits(a.default_performance, b.default_performance) ||
      !SameBits(a.best_performance, b.best_performance) ||
      !(a.best_config == b.best_config) || a.kb.size() != b.kb.size()) {
    return ::testing::AssertionFailure() << "summary fields differ";
  }
  for (int i = 0; i < a.kb.size(); ++i) {
    const IterationRecord& ra = a.kb.record(i);
    const IterationRecord& rb = b.kb.record(i);
    if (ra.crashed != rb.crashed || !SameBits(ra.measured, rb.measured) ||
        !SameBits(ra.objective, rb.objective) || !(ra.config == rb.config) ||
        ra.point.size() != rb.point.size()) {
      return ::testing::AssertionFailure() << "record " << i << " differs";
    }
    for (size_t j = 0; j < ra.point.size(); ++j) {
      if (!SameBits(ra.point[j], rb.point[j])) {
        return ::testing::AssertionFailure()
               << "record " << i << " point[" << j << "] differs";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

struct Stack {
  std::unique_ptr<ObjectiveFunction> objective;
  std::unique_ptr<SpaceAdapter> adapter;
  std::unique_ptr<Optimizer> optimizer;
  std::unique_ptr<TuningSession> session;
};

/// A sparse-switchover GP-BO arm with a threshold small enough for a
/// short session to cross: iterations past ~14 observations score
/// through the inducing-point model. Registered on first use (the
/// registry is open; same pattern as bm_batch's "smac-seq" arm).
void RegisterSparseTestKey() {
  const char* kKey = "gpbo-sparse-ckpt";
  if (OptimizerRegistry::Global().Contains(kKey)) return;
  OptimizerRegistry::Global().Register(
      kKey,
      [](const SearchSpace& space,
         uint64_t seed) -> Result<std::unique_ptr<Optimizer>> {
        GpBoOptions options;
        options.gp.sparse_threshold = 14;
        options.gp.num_inducing = 8;
        return std::unique_ptr<Optimizer>(
            new GpBoOptimizer(space, options, seed));
      });
}

Stack MakeStack(const std::string& optimizer_key,
                const std::string& adapter_key, uint64_t seed,
                SessionOptions options) {
  RegisterSparseTestKey();
  Stack stack;
  dbsim::SimulatedPostgresOptions db_options;
  db_options.noise_seed = seed;
  stack.objective = std::make_unique<dbsim::SimulatedPostgres>(
      dbsim::YcsbA(), db_options);
  stack.adapter = std::move(AdapterRegistry::Global().Create(
                                adapter_key,
                                &stack.objective->config_space(), seed))
                      .ValueOrDie();
  stack.optimizer = std::move(OptimizerRegistry::Global().Create(
                                  optimizer_key,
                                  stack.adapter->search_space(), seed))
                        .ValueOrDie();
  stack.session = std::make_unique<TuningSession>(
      stack.objective.get(), stack.adapter.get(), stack.optimizer.get(),
      options);
  return stack;
}

struct CheckpointCase {
  const char* optimizer_key;
  const char* adapter_key;
  int batch_size;
  int total_iterations;
  int checkpoint_after_steps;  // Step() calls before Save (incl. baseline)
};

class CheckpointResume : public ::testing::TestWithParam<CheckpointCase> {};

// Save mid-session, restore into a fresh identically seeded stack (a
// new process would construct exactly this), and require the remaining
// trajectory to be bit-for-bit identical to an uninterrupted run.
TEST_P(CheckpointResume, ResumedTrajectoryIsBitForBit) {
  const CheckpointCase& c = GetParam();
  SessionOptions options;
  options.num_iterations = c.total_iterations;
  options.batch_size = c.batch_size;
  const uint64_t seed = 42;

  // Uninterrupted reference run.
  Stack reference = MakeStack(c.optimizer_key, c.adapter_key, seed, options);
  SessionResult uninterrupted = reference.session->Run();

  // Interrupted run: step partway, checkpoint, abandon.
  Stack first = MakeStack(c.optimizer_key, c.adapter_key, seed, options);
  for (int i = 0; i < c.checkpoint_after_steps; ++i) {
    ASSERT_TRUE(first.session->Step());
  }
  std::string checkpoint = first.session->Save();

  // "Fresh process": a brand-new stack wired with the same seeds and
  // keys, restored from the text checkpoint, run to completion.
  Stack resumed = MakeStack(c.optimizer_key, c.adapter_key, seed, options);
  Status restored = resumed.session->Restore(checkpoint);
  ASSERT_TRUE(restored.ok()) << restored.ToString();
  EXPECT_EQ(resumed.session->iterations_run(),
            first.session->iterations_run());
  SessionResult final_result = resumed.session->Run();

  EXPECT_TRUE(ResultsBitIdentical(uninterrupted, final_result));
}

INSTANTIATE_TEST_SUITE_P(
    PerOptimizer, CheckpointResume,
    ::testing::Values(
        // Random: pure RNG-stream optimizer.
        CheckpointCase{"random", "llamatune", 1, 20, 9},
        // SMAC: checkpoint past the initial design, inside the
        // model-based phase (n_init = 10), so the RF refit + EI
        // scoring path replays.
        CheckpointCase{"smac", "llamatune", 1, 16, 13},
        // GP-BO: same, exercising incremental GP refit replay.
        CheckpointCase{"gpbo", "llamatune", 1, 16, 13},
        // Batched rounds (SuggestBatch/ObserveBatch replay).
        CheckpointCase{"smac", "identity", 4, 16, 4},
        CheckpointCase{"random", "hesbo8+svb0.1", 3, 18, 3},
        // Batch-aware SuggestBatch overrides: replay must re-drive the
        // fantasy-conditioned / penalized picks bit-for-bit past the
        // init design.
        CheckpointCase{"gpbo-qei", "hesbo8", 4, 20, 4},
        CheckpointCase{"gpbo-lp", "llamatune", 4, 20, 4},
        // Sparse switchover (threshold 14, see RegisterSparseTestKey):
        // a session that crosses into the inducing-point regime must
        // replay bit-for-bit whether the checkpoint lands after the
        // crossing (exact AND sparse iterations replayed) ...
        CheckpointCase{"gpbo-sparse-ckpt", "hesbo8", 1, 26, 21},
        // ... or before it (the restored process re-crosses on its
        // own during the remaining iterations).
        CheckpointCase{"gpbo-sparse-ckpt", "hesbo8", 1, 26, 9}));

TEST(CheckpointTest, BaselineOnlyCheckpointRestores) {
  SessionOptions options;
  options.num_iterations = 8;
  Stack first = MakeStack("random", "identity", 7, options);
  ASSERT_TRUE(first.session->Step());  // baseline only
  std::string checkpoint = first.session->Save();

  Stack resumed = MakeStack("random", "identity", 7, options);
  ASSERT_TRUE(resumed.session->Restore(checkpoint).ok());
  SessionResult via_resume = resumed.session->Run();

  Stack reference = MakeStack("random", "identity", 7, options);
  SessionResult uninterrupted = reference.session->Run();
  EXPECT_TRUE(ResultsBitIdentical(uninterrupted, via_resume));
}

// num_iterations = 0 is legal for a directly built session: Run
// measures the baseline and stops, with nothing left to hand out.
TEST(CheckpointTest, BaselineOnlySessionRunsTheBaselineAndStops) {
  SessionOptions options;
  options.num_iterations = 0;
  Stack stack = MakeStack("random", "identity", 7, options);
  SessionResult result = stack.session->Run();
  EXPECT_EQ(result.iterations_run, 0);
  EXPECT_EQ(result.kb.size(), 0);
  EXPECT_GT(result.default_performance, 0.0);
  EXPECT_TRUE(stack.session->finished());
  EXPECT_FALSE(stack.session->Step());
  EXPECT_EQ(stack.session->Ask().status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(stack.session->pending_trials(), 0);
}

TEST(CheckpointTest, FreshSessionCheckpointIsEmptyButValid) {
  SessionOptions options;
  options.num_iterations = 5;
  Stack first = MakeStack("random", "identity", 3, options);
  std::string checkpoint = first.session->Save();

  Stack resumed = MakeStack("random", "identity", 3, options);
  ASSERT_TRUE(resumed.session->Restore(checkpoint).ok());
  EXPECT_EQ(resumed.session->iterations_run(), 0);
  SessionResult via_resume = resumed.session->Run();
  Stack reference = MakeStack("random", "identity", 3, options);
  EXPECT_TRUE(ResultsBitIdentical(reference.session->Run(), via_resume));
}

TEST(CheckpointTest, PendingTrialsAreRegeneratedIdenticallyAfterRestore) {
  SessionOptions options;
  options.num_iterations = 10;
  Stack first = MakeStack("random", "llamatune", 17, options);
  ASSERT_TRUE(first.session->Step());  // baseline
  ASSERT_TRUE(first.session->Step());
  // Ask a batch but do not tell it: these pending trials are excluded
  // from the checkpoint.
  Result<std::vector<Trial>> pending = first.session->AskBatch(3);
  ASSERT_TRUE(pending.ok());
  std::string checkpoint = first.session->Save();

  Stack resumed = MakeStack("random", "llamatune", 17, options);
  ASSERT_TRUE(resumed.session->Restore(checkpoint).ok());
  EXPECT_EQ(resumed.session->pending_trials(), 0);
  // Re-asking regenerates the same points (fresh ids).
  Result<std::vector<Trial>> reasked = resumed.session->AskBatch(3);
  ASSERT_TRUE(reasked.ok());
  ASSERT_EQ(reasked->size(), pending->size());
  for (size_t i = 0; i < pending->size(); ++i) {
    ASSERT_EQ((*reasked)[i].point.size(), (*pending)[i].point.size());
    for (size_t j = 0; j < (*pending)[i].point.size(); ++j) {
      EXPECT_TRUE(
          SameBits((*reasked)[i].point[j], (*pending)[i].point[j]));
    }
    EXPECT_EQ((*reasked)[i].config, (*pending)[i].config);
  }
}

TEST(CheckpointTest, RestoreRejectsWrongSeed) {
  SessionOptions options;
  options.num_iterations = 12;
  Stack first = MakeStack("random", "llamatune", 42, options);
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(first.session->Step());
  std::string checkpoint = first.session->Save();

  // A stack wired with a different seed replays a different
  // trajectory; the history pin must catch it.
  Stack wrong = MakeStack("random", "llamatune", 43, options);
  Status restored = wrong.session->Restore(checkpoint);
  EXPECT_FALSE(restored.ok());
  EXPECT_EQ(restored.code(), StatusCode::kInternal);
}

TEST(CheckpointTest, RestoreRejectsMismatchedOptions) {
  SessionOptions options;
  options.num_iterations = 12;
  Stack first = MakeStack("random", "identity", 42, options);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(first.session->Step());
  std::string checkpoint = first.session->Save();

  SessionOptions other = options;
  other.num_iterations = 20;
  Stack mismatched = MakeStack("random", "identity", 42, other);
  Status restored = mismatched.session->Restore(checkpoint);
  EXPECT_FALSE(restored.ok());
  EXPECT_EQ(restored.code(), StatusCode::kFailedPrecondition);
}

TEST(CheckpointTest, RestoreRequiresFreshSession) {
  SessionOptions options;
  options.num_iterations = 12;
  Stack first = MakeStack("random", "identity", 42, options);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(first.session->Step());
  std::string checkpoint = first.session->Save();

  Stack used = MakeStack("random", "identity", 42, options);
  ASSERT_TRUE(used.session->Step());
  Status restored = used.session->Restore(checkpoint);
  EXPECT_FALSE(restored.ok());
  EXPECT_EQ(restored.code(), StatusCode::kFailedPrecondition);
}

TEST(CheckpointTest, RestoreRejectsGarbage) {
  SessionOptions options;
  Stack fresh = MakeStack("random", "identity", 1, options);
  EXPECT_FALSE(fresh.session->Restore("").ok());
  EXPECT_FALSE(fresh.session->Restore("not a checkpoint").ok());
  EXPECT_FALSE(
      fresh.session->Restore("llamatune-checkpoint v99\nmaximize 1\n").ok());
}

TEST(CheckpointTest, CheckpointFileRoundTrips) {
  SessionOptions options;
  options.num_iterations = 14;
  Stack first = MakeStack("random", "llamatune", 23, options);
  for (int i = 0; i < 7; ++i) ASSERT_TRUE(first.session->Step());

  std::string path = ::testing::TempDir() + "/llamatune_checkpoint.txt";
  ASSERT_TRUE(AtomicWriteFile(path, first.session->Save()).ok());
  Result<std::string> loaded = ReadFile(path);
  ASSERT_TRUE(loaded.ok());

  Stack resumed = MakeStack("random", "llamatune", 23, options);
  ASSERT_TRUE(resumed.session->Restore(*loaded).ok());
  SessionResult via_file = resumed.session->Run();

  Stack reference = MakeStack("random", "llamatune", 23, options);
  EXPECT_TRUE(ResultsBitIdentical(reference.session->Run(), via_file));
  std::remove(path.c_str());

  EXPECT_EQ(ReadFile("/no/such/dir/ckpt").status().code(),
            StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Checkpoint v3: the racing block and rung rounds
// ---------------------------------------------------------------------------

RacingOptions CkptRacing() {
  RacingOptions racing;
  racing.cohort = 4;
  racing.rungs = 3;
  racing.min_fidelity = 0.25;
  racing.eta = 2.0;
  racing.ci_z = 1.96;
  return racing;
}

/// Removes the trailing " racing ..." block from the options line —
/// reconstructing the exact bytes a v2 (pre-fidelity) build wrote.
std::string StripRacingToken(const std::string& checkpoint) {
  size_t line = checkpoint.find("\noptions ");
  size_t racing = checkpoint.find(" racing ", line);
  size_t eol = checkpoint.find('\n', racing);
  std::string out = checkpoint;
  out.erase(racing, eol - racing);
  return out;
}

std::string SwapVersion(const std::string& checkpoint, const char* from,
                        const char* to) {
  std::string out = checkpoint;
  size_t pos = out.find(from);
  out.replace(pos, std::strlen(from), to);
  return out;
}

// Save mid-race (between rungs of an uncommitted race) and on race
// boundaries; the restored session must finish bit-for-bit identical
// to the uninterrupted run, including the simulated-work accounting
// (recomputed during replay, never serialized).
TEST(RacingCheckpointTest, MidRaceResumeIsBitForBit) {
  SessionOptions options;
  options.num_iterations = 4;
  options.racing = CkptRacing();
  const uint64_t seed = 42;
  Stack reference = MakeStack("random", "llamatune", seed, options);
  SessionResult uninterrupted = reference.session->Run();
  ASSERT_EQ(uninterrupted.iterations_run, 4);

  // One Step = one rung, so with 3 rungs per race, step 1 is the
  // baseline, steps 2-4 are race 1's rungs, steps 5-7 race 2's:
  // save points 2, 3, and 5 land mid-race, 4 and 7 on race boundaries.
  for (int steps : {1, 2, 3, 4, 5, 7}) {
    Stack first = MakeStack("random", "llamatune", seed, options);
    for (int i = 0; i < steps; ++i) ASSERT_TRUE(first.session->Step());
    std::string checkpoint = first.session->Save();

    Stack resumed = MakeStack("random", "llamatune", seed, options);
    Status restored = resumed.session->Restore(checkpoint);
    ASSERT_TRUE(restored.ok())
        << "steps=" << steps << ": " << restored.ToString();
    SessionResult final_result = resumed.session->Run();
    EXPECT_TRUE(ResultsBitIdentical(uninterrupted, final_result))
        << "steps=" << steps;
    EXPECT_TRUE(SameBits(final_result.simulated_work,
                         uninterrupted.simulated_work))
        << "steps=" << steps << ": simulated_work "
        << final_result.simulated_work << " vs "
        << uninterrupted.simulated_work;
  }
}

TEST(RacingCheckpointTest, CheckpointGrammarAndV2Compat) {
  SessionOptions options;
  options.num_iterations = 6;
  Stack first = MakeStack("random", "identity", 11, options);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(first.session->Step());
  std::string v3 = first.session->Save();
  // A non-racing v3 file differs from v2 only in the version number
  // and the "racing 0" token.
  EXPECT_NE(v3.find("llamatune-checkpoint v3\n"), std::string::npos);
  EXPECT_NE(v3.find(" racing 0\n"), std::string::npos);

  // The reconstructed v2 bytes (old build's output) still restore...
  std::string v2 =
      SwapVersion(StripRacingToken(v3), "checkpoint v3", "checkpoint v2");
  Stack resumed = MakeStack("random", "identity", 11, options);
  Status restored = resumed.session->Restore(v2);
  ASSERT_TRUE(restored.ok()) << restored.ToString();
  SessionResult via_v2 = resumed.session->Run();
  Stack reference = MakeStack("random", "identity", 11, options);
  EXPECT_TRUE(ResultsBitIdentical(reference.session->Run(), via_v2));

  // ...but never into a racing session: a pre-fidelity file cannot
  // seed a race, and the refusal must be loud, not a silent restart.
  SessionOptions racing_options = options;
  racing_options.racing = CkptRacing();
  Stack racing_stack = MakeStack("random", "identity", 11, racing_options);
  Status refused = racing_stack.session->Restore(v2);
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition)
      << refused.ToString();
}

TEST(RacingCheckpointTest, RungRoundsRequireV3) {
  SessionOptions options;
  options.num_iterations = 2;
  options.racing = CkptRacing();
  Stack first = MakeStack("random", "llamatune", 5, options);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(first.session->Step());
  std::string v3 = first.session->Save();
  ASSERT_NE(v3.find("\nround R "), std::string::npos);

  // A doctored pre-v3 file containing rung rounds is structurally
  // invalid — the parser rejects it instead of misreading the slots.
  std::string v2 =
      SwapVersion(StripRacingToken(v3), "checkpoint v3", "checkpoint v2");
  SessionOptions plain;
  plain.num_iterations = 2;
  Stack fresh = MakeStack("random", "llamatune", 5, plain);
  Status refused = fresh.session->Restore(v2);
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument)
      << refused.ToString();
}

// Replay re-opens every round the way it was opened: a restored
// session saves the same bytes, so single rounds stay single ('S',
// Suggest) and batch rounds stay batches ('B', SuggestBatch).
TEST(CheckpointTest, RestoredSessionSavesIdenticalBytes) {
  SessionOptions options;
  options.num_iterations = 8;
  Stack first = MakeStack("random", "llamatune", 17, options);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(first.session->Step());
  Result<std::vector<Trial>> batch = first.session->AskBatch(2);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), 2u);
  Result<Trial> single = first.session->Ask();
  ASSERT_TRUE(single.ok());
  std::vector<Trial> asked = *batch;
  asked.push_back(*single);
  for (const Trial& trial : asked) {
    TrialResult result;
    result.trial_id = trial.id;
    result.value = 500.0 + static_cast<double>(trial.id);
    ASSERT_TRUE(first.session->Tell(result).ok());
  }
  std::string saved = first.session->Save();
  ASSERT_NE(saved.find("\nround S "), std::string::npos);
  ASSERT_NE(saved.find("\nround B 2 "), std::string::npos);

  Stack resumed = MakeStack("random", "llamatune", 17, options);
  Status restored = resumed.session->Restore(saved);
  ASSERT_TRUE(restored.ok()) << restored.ToString();
  EXPECT_EQ(resumed.session->Save(), saved);
}

// A rung slot whose recorded fidelity differs from the one the replayed
// race assigns is a diverged replay, not a value to overwrite.
TEST(RacingCheckpointTest, RestoreRejectsADivergedRungFidelity) {
  SessionOptions options;
  options.num_iterations = 2;
  options.racing = CkptRacing();
  Stack first = MakeStack("random", "llamatune", 5, options);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(first.session->Step());
  std::string checkpoint = first.session->Save();

  // "rung <outcome> <value> <fidelity> <metrics...>": rung 0 of three
  // runs at 0.25; record 0.5 instead.
  const std::string old_fidelity = " " + EncodeDoubleBits(0.25) + " ";
  size_t line = checkpoint.find("\nrung ");
  ASSERT_NE(line, std::string::npos);
  size_t pos = checkpoint.find(old_fidelity, line);
  ASSERT_LT(pos, checkpoint.find('\n', line + 1));
  checkpoint.replace(pos, old_fidelity.size(),
                     " " + EncodeDoubleBits(0.5) + " ");

  Stack resumed = MakeStack("random", "llamatune", 5, options);
  Status restored = resumed.session->Restore(checkpoint);
  EXPECT_EQ(restored.code(), StatusCode::kInternal) << restored.ToString();
}

TEST(RacingCheckpointTest, RestoreRejectsMismatchedRacingOptions) {
  SessionOptions options;
  options.num_iterations = 3;
  options.racing = CkptRacing();
  Stack first = MakeStack("random", "llamatune", 42, options);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(first.session->Step());
  std::string checkpoint = first.session->Save();

  // Different racing geometry replays a different tournament.
  SessionOptions other = options;
  other.racing->cohort = 6;
  Stack mismatched = MakeStack("random", "llamatune", 42, other);
  Status restored = mismatched.session->Restore(checkpoint);
  EXPECT_EQ(restored.code(), StatusCode::kFailedPrecondition);

  // A racing checkpoint cannot restore into a non-racing session.
  SessionOptions plain;
  plain.num_iterations = 3;
  Stack non_racing = MakeStack("random", "llamatune", 42, plain);
  Status refused = non_racing.session->Restore(checkpoint);
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
}

TEST(CheckpointTest, EarlyStoppedSessionRoundTrips) {
  SessionOptions options;
  options.num_iterations = 60;
  options.early_stopping = EarlyStoppingPolicy(5.0, 3);
  Stack first = MakeStack("random", "llamatune", 9, options);
  SessionResult stopped = first.session->Run();
  ASSERT_LT(stopped.iterations_run, 60);
  std::string checkpoint = first.session->Save();

  Stack resumed = MakeStack("random", "llamatune", 9, options);
  Status restored = resumed.session->Restore(checkpoint);
  ASSERT_TRUE(restored.ok()) << restored.ToString();
  EXPECT_TRUE(resumed.session->finished());
  EXPECT_TRUE(ResultsBitIdentical(stopped, resumed.session->Snapshot()));
}

}  // namespace
}  // namespace llamatune
