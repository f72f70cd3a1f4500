#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/serde.h"
#include "src/core/trial.h"
#include "src/net/frame.h"
#include "src/net/message.h"

namespace llamatune {
namespace net {
namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

TEST(FrameTest, RoundTripsSingleFrame) {
  std::string bytes = EncodeFrame(MessageKind::kPing, "payload bytes");
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes + 13);

  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Result<std::optional<Frame>> frame = decoder.Next();
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE(frame->has_value());
  EXPECT_EQ((*frame)->kind, MessageKind::kPing);
  EXPECT_EQ((*frame)->payload, "payload bytes");
  EXPECT_EQ(decoder.buffered_bytes(), 0u);

  // No second frame.
  Result<std::optional<Frame>> none = decoder.Next();
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(none->has_value());
}

TEST(FrameTest, PartialReadsYieldNothingUntilComplete) {
  std::string bytes = EncodeFrame(MessageKind::kAsk, "0123456789");
  FrameDecoder decoder;
  // Feed one byte at a time: every prefix must decode to "not yet".
  for (size_t i = 0; i + 1 < bytes.size(); ++i) {
    decoder.Feed(bytes.data() + i, 1);
    Result<std::optional<Frame>> frame = decoder.Next();
    ASSERT_TRUE(frame.ok()) << "at byte " << i;
    EXPECT_FALSE(frame->has_value()) << "at byte " << i;
  }
  decoder.Feed(bytes.data() + bytes.size() - 1, 1);
  Result<std::optional<Frame>> frame = decoder.Next();
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE(frame->has_value());
  EXPECT_EQ((*frame)->payload, "0123456789");
}

TEST(FrameTest, DecodesBackToBackFramesFromOneFeed) {
  std::string bytes = EncodeFrame(MessageKind::kPing, "one") +
                      EncodeFrame(MessageKind::kClose, "") +
                      EncodeFrame(MessageKind::kTell, "three");
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());

  std::vector<Frame> frames;
  for (;;) {
    Result<std::optional<Frame>> next = decoder.Next();
    ASSERT_TRUE(next.ok());
    if (!next->has_value()) break;
    frames.push_back(std::move(**next));
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].payload, "one");
  EXPECT_EQ(frames[1].kind, MessageKind::kClose);
  EXPECT_EQ(frames[1].payload, "");
  EXPECT_EQ(frames[2].payload, "three");
}

TEST(FrameTest, BadMagicIsStickyError) {
  FrameDecoder decoder;
  std::string junk = "GET / HTTP/1.1\r\n";
  decoder.Feed(junk.data(), junk.size());
  Result<std::optional<Frame>> first = decoder.Next();
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kInvalidArgument);

  // Even a valid frame afterwards cannot clear the desync.
  std::string good = EncodeFrame(MessageKind::kPing, "");
  decoder.Feed(good.data(), good.size());
  EXPECT_FALSE(decoder.Next().ok());
}

TEST(FrameTest, RejectsFutureProtocolVersion) {
  std::string bytes = EncodeFrame(MessageKind::kPing, "");
  bytes[1] = static_cast<char>(kProtocolVersion + 1);
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Result<std::optional<Frame>> frame = decoder.Next();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kFailedPrecondition);
}

TEST(FrameTest, RejectsOversizedPayloadBeforeBuffering) {
  // A 64-byte cap: the header alone must trip the error, without
  // waiting for (or allocating) the declared payload.
  FrameDecoder decoder(/*max_payload=*/64);
  std::string bytes = EncodeFrame(MessageKind::kTell, std::string(65, 'x'));
  decoder.Feed(bytes.data(), kFrameHeaderBytes);  // header only
  Result<std::optional<Frame>> frame = decoder.Next();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kOutOfRange);
}

TEST(FrameTest, GarbageKindSurvivesFramingLayer) {
  // Framing is agnostic to kind values: an unassigned kind byte must
  // still deframe (the server answers it with an UnknownKind error,
  // pinned in server_test.cc).
  std::string bytes = EncodeFrame(static_cast<MessageKind>(201), "zzz");
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Result<std::optional<Frame>> frame = decoder.Next();
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE(frame->has_value());
  EXPECT_EQ(static_cast<int>((*frame)->kind), 201);
  EXPECT_EQ((*frame)->payload, "zzz");
}

// ---------------------------------------------------------------------------
// Payload codecs
// ---------------------------------------------------------------------------

TEST(MessageTest, HelloRoundTripsIncludingEmptyAndSpacedTenants) {
  for (const std::string& tenant : {std::string(""), std::string("team-a"),
                                    std::string("has space\tand\ttabs")}) {
    Result<std::string> back = DecodeHello(EncodeHello(tenant));
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(*back, tenant);
  }
}

WireSessionSpec SpaceSpecForTest() {
  WireSessionSpec spec;
  KnobSpec cache = IntegerKnob("cache_mb", 0, 4096, 128);
  cache = WithSpecialValues(std::move(cache), {0.0, -1.0});
  cache = WithLogScale(std::move(cache));
  cache.unit = "MB";
  KnobSpec policy = CategoricalKnob("policy", {"lru", "fifo", "clock"}, 1);
  KnobSpec ratio = RealKnob("ratio", 0.0, 1.0, 0.25);
  spec.space_knobs = {cache, policy, ratio};
  spec.maximize = false;
  spec.optimizer_key = "random";
  spec.adapter_key = "identity";
  spec.seed = 0xDEADBEEFCAFEF00DULL;  // needs the full u64 range
  spec.num_iterations = 33;
  spec.batch_size = 4;
  spec.num_threads = 2;
  return spec;
}

TEST(MessageTest, SessionSpecRoundTripsSpaceSource) {
  WireSessionSpec spec = SpaceSpecForTest();
  Result<WireSessionSpec> back = DecodeSessionSpec(EncodeSessionSpec(spec));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->workload, "");
  ASSERT_EQ(back->space_knobs.size(), 3u);
  const KnobSpec& cache = back->space_knobs[0];
  EXPECT_EQ(cache.name, "cache_mb");
  EXPECT_EQ(cache.type, KnobType::kInteger);
  EXPECT_TRUE(SameBits(cache.min_value, 0.0));
  EXPECT_TRUE(SameBits(cache.max_value, 4096.0));
  EXPECT_TRUE(cache.log_scale);
  EXPECT_TRUE(SameBits(cache.default_value, 128.0));
  EXPECT_EQ(cache.special_values, (std::vector<double>{0.0, -1.0}));
  EXPECT_EQ(cache.unit, "MB");
  const KnobSpec& policy = back->space_knobs[1];
  EXPECT_EQ(policy.type, KnobType::kCategorical);
  EXPECT_EQ(policy.categories,
            (std::vector<std::string>{"lru", "fifo", "clock"}));
  EXPECT_FALSE(back->maximize);
  EXPECT_EQ(back->optimizer_key, "random");
  EXPECT_EQ(back->adapter_key, "identity");
  EXPECT_EQ(back->seed, 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(back->num_iterations, 33);
  EXPECT_EQ(back->batch_size, 4);
  EXPECT_EQ(back->num_threads, 2);
}

TEST(MessageTest, SessionSpecRoundTripsWorkloadSource) {
  WireSessionSpec spec;
  spec.workload = "YCSB-A";
  spec.seed = 7;
  Result<WireSessionSpec> back = DecodeSessionSpec(EncodeSessionSpec(spec));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->workload, "YCSB-A");
  EXPECT_TRUE(back->space_knobs.empty());
  EXPECT_EQ(back->seed, 7u);
}

TEST(MessageTest, SessionSpecRejectsZeroOrTwoSources) {
  WireSessionSpec neither;  // no workload, no knobs
  EXPECT_FALSE(DecodeSessionSpec(EncodeSessionSpec(neither)).ok());

  WireSessionSpec both = SpaceSpecForTest();
  both.workload = "YCSB-A";
  EXPECT_FALSE(DecodeSessionSpec(EncodeSessionSpec(both)).ok());
}

TEST(MessageTest, CreateAndResumeCarryNameSpecCheckpoint) {
  WireSessionSpec spec = SpaceSpecForTest();
  std::string name, checkpoint;
  WireSessionSpec got;
  ASSERT_TRUE(
      DecodeCreateSession(EncodeCreateSession("job one", spec), &name, &got)
          .ok());
  EXPECT_EQ(name, "job one");
  EXPECT_EQ(got.seed, spec.seed);

  std::string multiline_checkpoint = "llamatune-checkpoint v3\nline two\n";
  ASSERT_TRUE(DecodeResume(EncodeResume("j", spec, multiline_checkpoint),
                           &name, &got, &checkpoint)
                  .ok());
  EXPECT_EQ(name, "j");
  EXPECT_EQ(checkpoint, multiline_checkpoint);
}

TEST(MessageTest, TrialAndResultRepliesAreBitExact) {
  Trial trial;
  trial.id = 42;
  trial.point = {0.125, std::nextafter(1.0, 2.0), -0.0};
  trial.config = Configuration{std::vector<double>{3.0, 0.5}};
  trial.is_baseline = false;
  Result<Trial> back = DecodeTrialReply(EncodeTrialReply(trial));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->id, 42);
  ASSERT_EQ(back->point.size(), 3u);
  EXPECT_TRUE(SameBits(back->point[1], std::nextafter(1.0, 2.0)));
  EXPECT_TRUE(SameBits(back->point[2], -0.0));

  TrialResult result;
  result.trial_id = 42;
  result.value = std::numeric_limits<double>::quiet_NaN();
  result.outcome = TrialOutcome::kCrashed;
  result.metrics = {1.0, 2.5};
  std::string rname;
  TrialResult rback;
  ASSERT_TRUE(DecodeTell(EncodeTell("job", result), &rname, &rback).ok());
  EXPECT_EQ(rname, "job");
  EXPECT_EQ(rback.trial_id, 42);
  EXPECT_TRUE(std::isnan(rback.value));
  EXPECT_TRUE(rback.crashed());
  EXPECT_EQ(rback.metrics, (std::vector<double>{1.0, 2.5}));
}

TEST(MessageTest, FidelityTokenRoundTripsAndLegacyDecodes) {
  // Racing rung trials carry a fidelity in (0, 1]; it must survive the
  // wire bit-for-bit.
  Trial trial;
  trial.id = 7;
  trial.point = {0.5};
  trial.fidelity = 0.25;
  Result<Trial> back = DecodeTrialReply(EncodeTrialReply(trial));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(SameBits(back->fidelity, 0.25));

  TrialResult result;
  result.trial_id = 7;
  result.value = 2.0;
  result.fidelity = std::nextafter(0.5, 1.0);
  std::string rname;
  TrialResult rback;
  ASSERT_TRUE(DecodeTell(EncodeTell("job", result), &rname, &rback).ok());
  EXPECT_TRUE(SameBits(rback.fidelity, std::nextafter(0.5, 1.0)));

  // Full fidelity is the default and emits no token: the encoding is
  // byte-identical to the pre-fidelity format, so pre-racing peers
  // decode full-fidelity traffic unchanged and their own encodings
  // decode here as full fidelity (old clients = full fidelity).
  Trial full = trial;
  full.fidelity = 1.0;
  std::string legacy = SerializeTrial(full);
  EXPECT_EQ(legacy.find(" fid "), std::string::npos);
  Result<Trial> legacy_back = ParseTrial(legacy);
  ASSERT_TRUE(legacy_back.ok()) << legacy_back.status().ToString();
  EXPECT_TRUE(SameBits(legacy_back->fidelity, 1.0));
  TrialResult full_result = result;
  full_result.fidelity = 1.0;
  std::string legacy_result = SerializeTrialResult(full_result);
  EXPECT_EQ(legacy_result.find(" fid "), std::string::npos);
  Result<TrialResult> legacy_result_back = ParseTrialResult(legacy_result);
  ASSERT_TRUE(legacy_result_back.ok());
  EXPECT_TRUE(SameBits(legacy_result_back->fidelity, 1.0));

  // Unknown trailing sections and out-of-range fidelities are
  // rejected, not clamped or ignored.
  EXPECT_FALSE(ParseTrial(SerializeTrial(trial) + " zzz").ok());
  EXPECT_FALSE(ParseTrial(legacy + " fid").ok());
  EXPECT_FALSE(
      ParseTrial(legacy + " fid " + EncodeDoubleBits(0.0)).ok());
  EXPECT_FALSE(
      ParseTrial(legacy + " fid " + EncodeDoubleBits(1.5)).ok());
  EXPECT_FALSE(
      ParseTrial(legacy + " fid " +
                 EncodeDoubleBits(std::numeric_limits<double>::quiet_NaN()))
          .ok());
}

TEST(FuzzTest, FidelityTokenParserNeverCrashesOnMutatedBytes) {
  // Byte-level fuzz of the fidelity-carrying serde forms: truncations
  // and random mutations must return a Status, never crash, and any
  // accepted fidelity must be in (0, 1].
  Trial trial;
  trial.id = 9;
  trial.point = {0.25, 0.75};
  trial.fidelity = 0.5;
  TrialResult result;
  result.trial_id = 9;
  result.value = 3.5;
  result.fidelity = 0.125;
  const std::string trial_line = SerializeTrial(trial);
  const std::string result_line = SerializeTrialResult(result);
  for (size_t cut = 0; cut <= trial_line.size(); ++cut) {
    Result<Trial> got = ParseTrial(trial_line.substr(0, cut));
    if (got.ok()) EXPECT_TRUE(got->fidelity > 0.0 && got->fidelity <= 1.0);
  }
  for (size_t cut = 0; cut <= result_line.size(); ++cut) {
    Result<TrialResult> got = ParseTrialResult(result_line.substr(0, cut));
    if (got.ok()) EXPECT_TRUE(got->fidelity > 0.0 && got->fidelity <= 1.0);
  }
  Rng rng(20260808);
  for (int round = 0; round < 2000; ++round) {
    std::string mutated = rng.Bernoulli(0.5) ? trial_line : result_line;
    for (int m = 0; m < 3 && !mutated.empty(); ++m) {
      mutated[rng.UniformInt(0, mutated.size() - 1)] =
          static_cast<char>(rng.UniformInt(0, 255));
    }
    Result<Trial> t = ParseTrial(mutated);
    if (t.ok()) EXPECT_TRUE(t->fidelity > 0.0 && t->fidelity <= 1.0);
    Result<TrialResult> r = ParseTrialResult(mutated);
    if (r.ok()) EXPECT_TRUE(r->fidelity > 0.0 && r->fidelity <= 1.0);
  }
}

TEST(MessageTest, BatchesRoundTrip) {
  std::string name;
  int n = 0;
  ASSERT_TRUE(DecodeAskBatch(EncodeAskBatch("s", 5), &name, &n).ok());
  EXPECT_EQ(name, "s");
  EXPECT_EQ(n, 5);

  std::vector<Trial> trials(2);
  trials[0].id = 1;
  trials[0].is_baseline = true;
  trials[1].id = 2;
  trials[1].point = {0.5};
  Result<std::vector<Trial>> tback =
      DecodeTrialsReply(EncodeTrialsReply(trials));
  ASSERT_TRUE(tback.ok());
  ASSERT_EQ(tback->size(), 2u);
  EXPECT_TRUE((*tback)[0].is_baseline);
  EXPECT_EQ((*tback)[1].point, (std::vector<double>{0.5}));

  std::vector<TrialResult> results(2);
  results[0].trial_id = 1;
  results[0].value = 10.0;
  results[1].trial_id = 2;
  results[1].outcome = TrialOutcome::kCrashed;
  std::vector<TrialResult> rback;
  ASSERT_TRUE(
      DecodeTellBatch(EncodeTellBatch("s", results), &name, &rback).ok());
  ASSERT_EQ(rback.size(), 2u);
  EXPECT_TRUE(SameBits(rback[0].value, 10.0));
  EXPECT_TRUE(rback[1].crashed());
}

TEST(MessageTest, StatusRepliesCarryTimestampsAndDriving) {
  WireSessionStatus status;
  status.status.name = "job";
  status.status.optimizer_key = "smac";
  status.status.adapter_key = "llamatune";
  status.status.external = true;
  status.status.iterations_run = 7;
  status.status.num_iterations = 100;
  status.status.pending_trials = 3;
  status.status.finished = false;
  status.status.default_performance = 123.5;
  status.status.best_performance = 456.25;
  status.status.created_unix_ms = 1754500000000LL;
  status.status.last_activity_unix_ms = 1754500001234LL;
  status.driving = true;

  Result<WireSessionStatus> back = DecodeStatusReply(EncodeStatusReply(status));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->status.name, "job");
  EXPECT_EQ(back->status.pending_trials, 3);
  EXPECT_EQ(back->status.created_unix_ms, 1754500000000LL);
  EXPECT_EQ(back->status.last_activity_unix_ms, 1754500001234LL);
  EXPECT_TRUE(back->driving);

  Result<std::vector<WireSessionStatus>> list =
      DecodeStatusListReply(EncodeStatusListReply({status, status}));
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 2u);
  EXPECT_EQ((*list)[1].status.name, "job");
}

TEST(MessageTest, ErrorRoundTripsEveryCode) {
  for (int code = 1; code <= 17; ++code) {
    WireError in = static_cast<WireError>(code);
    WireError out = WireError::kInternal;
    std::string message;
    ASSERT_TRUE(
        DecodeError(EncodeError(in, "why it failed"), &out, &message).ok());
    EXPECT_EQ(out, in);
    EXPECT_EQ(message, "why it failed");
  }
}

TEST(MessageTest, StatusToWireErrorMappingRoundTrips) {
  // The session/hardening codes must survive the wire as themselves —
  // that is the whole point of satellite-typed errors.
  const std::vector<Status> statuses = {
      Status::SessionNotFound("a"),    Status::SessionAlreadyExists("b"),
      Status::Unavailable("c"),        Status::ResourceExhausted("d"),
      Status::InvalidArgument("e"),    Status::NotFound("f"),
      Status::FailedPrecondition("g"), Status::Internal("h"),
      Status::TrialExpired("i"),
  };
  for (const Status& status : statuses) {
    Status back =
        StatusFromWireError(WireErrorFromStatus(status), status.message());
    EXPECT_EQ(back.code(), status.code()) << status.ToString();
    EXPECT_EQ(back.message(), status.message());
  }
}

TEST(MessageTest, CheckpointAndClosedRepliesRoundTrip) {
  std::string checkpoint = "v3\nwith\nnewlines and spaces\n";
  Result<std::string> cback =
      DecodeCheckpointReply(EncodeCheckpointReply(checkpoint));
  ASSERT_TRUE(cback.ok());
  EXPECT_EQ(*cback, checkpoint);

  WireCloseResult close;
  close.iterations_run = 20;
  close.best_performance = 999.125;
  close.default_performance = -3.5;
  Result<WireCloseResult> back = DecodeClosedReply(EncodeClosedReply(close));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->iterations_run, 20);
  EXPECT_TRUE(SameBits(back->best_performance, 999.125));
  EXPECT_TRUE(SameBits(back->default_performance, -3.5));
}

TEST(MessageTest, TrialExpiredSurvivesTheWire) {
  // New code 16: a late Tell against an expired trial must arrive as
  // kTrialExpired, not as a stringly Internal error.
  Status typed = Status::TrialExpired("trial 7 expired");
  Status back = StatusFromWireError(WireErrorFromStatus(typed), typed.message());
  EXPECT_EQ(back.code(), StatusCode::kTrialExpired);
  EXPECT_EQ(back.message(), "trial 7 expired");

  WireError code = WireError::kInternal;
  std::string message;
  ASSERT_TRUE(DecodeError(EncodeError(WireError::kTrialExpired, "late"),
                          &code, &message)
                  .ok());
  EXPECT_EQ(code, WireError::kTrialExpired);
}

TEST(MessageTest, SessionSpecRoundTripsPendingDeadlineAndLegacyV1) {
  WireSessionSpec spec;
  spec.workload = "YCSB-A";
  spec.pending_deadline_ms = 45000;
  std::string payload = EncodeSessionSpec(spec);
  Result<WireSessionSpec> back = DecodeSessionSpec(payload);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->pending_deadline_ms, 45000);
  EXPECT_FALSE(back->racing);

  // A v2 payload (pre-racing peer) ends at the deadline token; it must
  // still decode, with racing off.
  size_t racing = payload.rfind(" racing ");
  ASSERT_NE(racing, std::string::npos);
  std::string v2 = payload.substr(0, racing);
  size_t version = v2.find("spec 3");
  ASSERT_NE(version, std::string::npos);
  v2.replace(version, 6, "spec 2");
  Result<WireSessionSpec> pre_racing = DecodeSessionSpec(v2);
  ASSERT_TRUE(pre_racing.ok()) << pre_racing.status().ToString();
  EXPECT_EQ(pre_racing->pending_deadline_ms, 45000);
  EXPECT_FALSE(pre_racing->racing);

  // A v1 payload (older still) also carries no deadline token; it must
  // still decode, with the deadline at 0.
  size_t deadline = v2.rfind(" deadline ");
  ASSERT_NE(deadline, std::string::npos);
  std::string v1 = v2.substr(0, deadline);
  version = v1.find("spec 2");
  ASSERT_NE(version, std::string::npos);
  v1.replace(version, 6, "spec 1");
  Result<WireSessionSpec> old = DecodeSessionSpec(v1);
  ASSERT_TRUE(old.ok()) << old.status().ToString();
  EXPECT_EQ(old->workload, "YCSB-A");
  EXPECT_EQ(old->pending_deadline_ms, 0);
  EXPECT_FALSE(old->racing);
}

TEST(MessageTest, SessionSpecRoundTripsRacingBlock) {
  WireSessionSpec spec;
  spec.workload = "TPC-C";
  RacingOptions racing;
  racing.cohort = 6;
  racing.rungs = 4;
  racing.min_fidelity = 0.125;
  racing.eta = 3.0;
  racing.ci_z = 2.33;
  spec.racing = racing;
  Result<WireSessionSpec> back = DecodeSessionSpec(EncodeSessionSpec(spec));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_TRUE(back->racing.has_value());
  EXPECT_EQ(back->racing->cohort, 6);
  EXPECT_EQ(back->racing->rungs, 4);
  EXPECT_EQ(back->racing->min_fidelity, 0.125);
  EXPECT_EQ(back->racing->eta, 3.0);
  EXPECT_EQ(back->racing->ci_z, 2.33);
}

TEST(MessageTest, PendingReplyRoundTrips) {
  std::vector<Trial> trials(2);
  trials[0].id = 5;
  trials[0].point = {0.25, 0.5};
  trials[1].id = 6;
  trials[1].is_baseline = true;

  int64_t next = 0;
  std::vector<Trial> back;
  ASSERT_TRUE(
      DecodePendingReply(EncodePendingReply(7, trials), &next, &back).ok());
  EXPECT_EQ(next, 7);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].id, 5);
  EXPECT_EQ(back[0].point, (std::vector<double>{0.25, 0.5}));
  EXPECT_EQ(back[1].id, 6);
  EXPECT_TRUE(back[1].is_baseline);

  // Empty pending set is representable (session quiesced).
  ASSERT_TRUE(DecodePendingReply(EncodePendingReply(1, {}), &next, &back).ok());
  EXPECT_EQ(next, 1);
  EXPECT_TRUE(back.empty());

  EXPECT_FALSE(DecodePendingReply("garbage", &next, &back).ok());
}

TEST(MessageTest, ErrorRetryAfterHintRoundTripsAndLegacyDecodes) {
  // New trailing token: kOverloaded/kShuttingDown replies carry a
  // retry-after hint the resilient client honors.
  std::string payload =
      EncodeError(WireError::kOverloaded, "shed under load", 1250);
  WireError code = WireError::kInternal;
  std::string message;
  int64_t retry_ms = 0;
  ASSERT_TRUE(DecodeError(payload, &code, &message, &retry_ms).ok());
  EXPECT_EQ(code, WireError::kOverloaded);
  EXPECT_EQ(message, "shed under load");
  EXPECT_EQ(retry_ms, 1250);

  // A pre-hint decoder (no retry pointer) must still parse the hinted
  // payload — the append-only versioning rule.
  WireError legacy_code = WireError::kInternal;
  std::string legacy_message;
  ASSERT_TRUE(DecodeError(payload, &legacy_code, &legacy_message).ok());
  EXPECT_EQ(legacy_code, WireError::kOverloaded);
  EXPECT_EQ(legacy_message, "shed under load");

  // And a hint-aware decoder reading a hint-less payload sees 0.
  retry_ms = 99;
  ASSERT_TRUE(DecodeError(EncodeError(WireError::kBusy, "no hint"), &code,
                          &message, &retry_ms)
                  .ok());
  EXPECT_EQ(retry_ms, 0);

  // kOverloaded arrives client-side as Unavailable — retryable.
  EXPECT_EQ(StatusFromWireError(WireError::kOverloaded, "m").code(),
            StatusCode::kUnavailable);
}

TEST(MessageTest, HealthReplyRoundTrips) {
  WireServerHealth health;
  health.lifecycle = ServerLifecycle::kDraining;
  health.pending_requests = 17;
  health.sessions = 4;
  Result<WireServerHealth> back = DecodeHealthReply(EncodeHealthReply(health));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->lifecycle, ServerLifecycle::kDraining);
  EXPECT_EQ(back->pending_requests, 17);
  EXPECT_EQ(back->sessions, 4);

  EXPECT_FALSE(DecodeHealthReply("").ok());
  // An out-of-range lifecycle value must not decode into the enum.
  EXPECT_FALSE(DecodeHealthReply("health lifecycle 9 pending 0 sessions 0")
                   .ok());
}

TEST(MessageTest, StatsReplyRoundTripsIncludingTenantBreakdown) {
  WireServerStats stats;
  stats.lifecycle = ServerLifecycle::kRunning;
  stats.pending_requests = 3;
  stats.pending_expensive = 2;
  stats.sessions = 5;
  stats.busy_rejections = 7;
  stats.shed_overload = 11;
  stats.shed_deadline = 13;
  stats.sessions_evicted = 17;
  stats.autosaves_written = 19;
  stats.sessions_restored = 23;
  stats.tenant_sessions = {{"", 1}, {"tenant a", 3}, {"z", 1}};
  Result<WireServerStats> back = DecodeStatsReply(EncodeStatsReply(stats));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->lifecycle, ServerLifecycle::kRunning);
  EXPECT_EQ(back->pending_requests, 3);
  EXPECT_EQ(back->pending_expensive, 2);
  EXPECT_EQ(back->sessions, 5);
  EXPECT_EQ(back->busy_rejections, 7);
  EXPECT_EQ(back->shed_overload, 11);
  EXPECT_EQ(back->shed_deadline, 13);
  EXPECT_EQ(back->sessions_evicted, 17);
  EXPECT_EQ(back->autosaves_written, 19);
  EXPECT_EQ(back->sessions_restored, 23);
  ASSERT_EQ(back->tenant_sessions.size(), 3u);
  EXPECT_EQ(back->tenant_sessions[0].first, "");
  EXPECT_EQ(back->tenant_sessions[1].first, "tenant a");
  EXPECT_EQ(back->tenant_sessions[1].second, 3);

  EXPECT_FALSE(DecodeStatsReply("stats truncated").ok());
}

TEST(MessageTest, DeadlineRiderIsInvisibleToRequestDecoders) {
  // The rider rides any request payload; decoders that stop after
  // their required fields must not see it, and DeadlineRiderMs must
  // recover it exactly.
  std::string payload = EncodeNameOnly("job-1");
  AppendDeadlineRider(&payload, 750);
  EXPECT_EQ(DeadlineRiderMs(payload), 750);
  Result<std::string> name = DecodeNameOnly(payload);
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(*name, "job-1");

  // No-op cases: non-positive deadline appends nothing; garbage or
  // rider-less payloads read back as 0.
  std::string untouched = EncodeNameOnly("job-1");
  AppendDeadlineRider(&untouched, 0);
  EXPECT_EQ(untouched, EncodeNameOnly("job-1"));
  EXPECT_EQ(DeadlineRiderMs(untouched), 0);
  EXPECT_EQ(DeadlineRiderMs(""), 0);
  EXPECT_EQ(DeadlineRiderMs("ddl"), 0);
  EXPECT_EQ(DeadlineRiderMs("ddl -5"), 0);
  EXPECT_EQ(DeadlineRiderMs("ddl notanumber"), 0);
  EXPECT_EQ(DeadlineRiderMs("x ddl 5 trailing"), 0);

  // An empty payload (kPing-style) still carries a rider cleanly.
  std::string empty;
  AppendDeadlineRider(&empty, 42);
  EXPECT_EQ(DeadlineRiderMs(empty), 42);
}

TEST(FrameTest, ByteAtATimeDecodesEveryMessageKind) {
  // One frame of every request and reply kind, pushed through a
  // single decoder one byte at a time: no kind may depend on its
  // payload arriving in fewer reads.
  WireSessionSpec spec = SpaceSpecForTest();
  TrialResult result;
  result.trial_id = 3;
  result.value = 12.5;
  result.fidelity = 0.5;  // rung result: exercises the fid token
  Trial trial;
  trial.id = 4;
  trial.point = {0.5};
  trial.fidelity = 0.25;  // rung trial: exercises the fid token
  WireSessionStatus status;
  status.status.name = "job";
  WireCloseResult close;
  close.iterations_run = 2;

  const std::vector<std::pair<MessageKind, std::string>> messages = {
      {MessageKind::kHello, EncodeHello("tenant x")},
      {MessageKind::kCreateSession, EncodeCreateSession("job", spec)},
      {MessageKind::kResume, EncodeResume("job", spec, "ckpt\ntext\n")},
      {MessageKind::kResumeSaved, EncodeNameOnly("job")},
      {MessageKind::kAsk, EncodeNameOnly("job")},
      {MessageKind::kAskBatch, EncodeAskBatch("job", 3)},
      {MessageKind::kTell, EncodeTell("job", result)},
      {MessageKind::kTellBatch, EncodeTellBatch("job", {result, result})},
      {MessageKind::kStep, EncodeNameOnly("job")},
      {MessageKind::kStartDrive, EncodeNameOnly("job")},
      {MessageKind::kGetStatus, EncodeNameOnly("job")},
      {MessageKind::kListSessions, ""},
      {MessageKind::kCheckpoint, EncodeNameOnly("job")},
      {MessageKind::kClose, EncodeNameOnly("job")},
      {MessageKind::kPing, ""},
      {MessageKind::kGetPending, EncodeNameOnly("job")},
      {MessageKind::kOk, ""},
      {MessageKind::kError, EncodeError(WireError::kTrialExpired, "late")},
      {MessageKind::kTrialReply, EncodeTrialReply(trial)},
      {MessageKind::kTrialsReply, EncodeTrialsReply({trial})},
      {MessageKind::kSteppedReply, EncodeSteppedReply(true)},
      {MessageKind::kStatusReply, EncodeStatusReply(status)},
      {MessageKind::kStatusListReply, EncodeStatusListReply({status})},
      {MessageKind::kCheckpointReply, EncodeCheckpointReply("text")},
      {MessageKind::kClosedReply, EncodeClosedReply(close)},
      {MessageKind::kPongReply, ""},
      {MessageKind::kPendingReply, EncodePendingReply(2, {trial})},
  };

  FrameDecoder decoder;
  for (const auto& message : messages) {
    std::string bytes = EncodeFrame(message.first, message.second);
    std::optional<Frame> got;
    for (size_t i = 0; i < bytes.size(); ++i) {
      decoder.Feed(bytes.data() + i, 1);
      Result<std::optional<Frame>> next = decoder.Next();
      ASSERT_TRUE(next.ok()) << "kind " << static_cast<int>(message.first)
                             << " byte " << i;
      if (next->has_value()) {
        EXPECT_EQ(i, bytes.size() - 1) << "frame completed early";
        got = std::move(*next);
      }
    }
    ASSERT_TRUE(got.has_value())
        << "kind " << static_cast<int>(message.first) << " never completed";
    EXPECT_EQ(got->kind, message.first);
    EXPECT_EQ(got->payload, message.second);
  }
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Fuzz: decoders are total functions
// ---------------------------------------------------------------------------

std::string RandomBytes(Rng& rng, int max_len) {
  int len = static_cast<int>(rng.UniformInt(0, max_len));
  std::string out;
  out.reserve(len);
  for (int i = 0; i < len; ++i) {
    out.push_back(static_cast<char>(rng.UniformInt(0, 255)));
  }
  return out;
}

TEST(FuzzTest, FrameDecoderNeverCrashesOnRandomBytes) {
  Rng rng(20260807);
  for (int round = 0; round < 2000; ++round) {
    FrameDecoder decoder(/*max_payload=*/1 << 16);
    std::string bytes = RandomBytes(rng, 256);
    // Occasionally give the stream a valid prelude so decoding gets
    // past the magic/version checks and exercises the length path.
    if (rng.Bernoulli(0.5)) {
      std::string valid = EncodeFrame(MessageKind::kPing, "seed");
      bytes = valid.substr(0, rng.UniformInt(0, valid.size())) + bytes;
    }
    size_t offset = 0;
    while (offset < bytes.size()) {
      size_t chunk = static_cast<size_t>(rng.UniformInt(1, 32));
      chunk = std::min(chunk, bytes.size() - offset);
      decoder.Feed(bytes.data() + offset, chunk);
      offset += chunk;
      // Drain; both errors and frames are acceptable, crashing is not.
      for (;;) {
        Result<std::optional<Frame>> next = decoder.Next();
        if (!next.ok() || !next->has_value()) break;
      }
    }
  }
}

TEST(FuzzTest, PayloadDecodersNeverCrashOnRandomBytes) {
  Rng rng(77002);
  // Seed corpus: valid payloads that get truncated/mutated, plus pure
  // noise.
  WireSessionSpec spec = SpaceSpecForTest();
  Trial trial;
  trial.id = 3;
  trial.point = {0.5, 0.25};
  trial.fidelity = 0.5;
  TrialResult result;
  result.trial_id = 3;
  result.value = 1.5;
  result.fidelity = 0.25;
  WireSessionStatus status;
  status.status.name = "s";
  const std::vector<std::string> corpus = {
      EncodeHello("tenant"),
      EncodeSessionSpec(spec),
      EncodeCreateSession("n", spec),
      EncodeResume("n", spec, "checkpoint text"),
      EncodeNameOnly("n"),
      EncodeAskBatch("n", 3),
      EncodeTell("n", result),
      EncodeTellBatch("n", {result, result}),
      EncodeError(WireError::kBusy, "m"),
      EncodeError(WireError::kOverloaded, "shed", 125),
      EncodeTrialReply(trial),
      EncodeTrialsReply({trial}),
      EncodeSteppedReply(true),
      EncodeStatusReply(status),
      EncodeStatusListReply({status}),
      EncodeCheckpointReply("cp"),
      EncodeClosedReply(WireCloseResult()),
      EncodeHealthReply(WireServerHealth()),
      EncodeStatsReply(WireServerStats()),
      EncodeNameOnly("n") + " ddl 500",
  };

  for (int round = 0; round < 3000; ++round) {
    std::string payload;
    int mode = static_cast<int>(rng.UniformInt(0, 2));
    if (mode == 0) {
      payload = RandomBytes(rng, 200);
    } else {
      payload = corpus[rng.UniformInt(0, corpus.size() - 1)];
      if (mode == 1 && !payload.empty()) {
        payload.resize(rng.UniformInt(0, payload.size()));  // truncate
      } else {
        for (int m = 0; m < 4 && !payload.empty(); ++m) {   // mutate
          payload[rng.UniformInt(0, payload.size() - 1)] =
              static_cast<char>(rng.UniformInt(0, 255));
        }
      }
    }

    // Every decoder must return (ok or error), never crash or throw.
    std::string s1, s2;
    int n = 0;
    WireSessionSpec d_spec;
    TrialResult d_result;
    std::vector<TrialResult> d_results;
    WireError d_code = WireError::kInternal;
    DecodeHello(payload);
    DecodeSessionSpec(payload);
    DecodeCreateSession(payload, &s1, &d_spec);
    DecodeResume(payload, &s1, &d_spec, &s2);
    DecodeNameOnly(payload);
    DecodeAskBatch(payload, &s1, &n);
    DecodeTell(payload, &s1, &d_result);
    DecodeTellBatch(payload, &s1, &d_results);
    int64_t d_retry = 0;
    DecodeError(payload, &d_code, &s1);
    DecodeError(payload, &d_code, &s1, &d_retry);
    DecodeTrialReply(payload);
    DecodeTrialsReply(payload);
    DecodeSteppedReply(payload);
    DecodeStatusReply(payload);
    DecodeStatusListReply(payload);
    DecodeCheckpointReply(payload);
    DecodeClosedReply(payload);
    DecodeHealthReply(payload);
    DecodeStatsReply(payload);
    DeadlineRiderMs(payload);
  }
}

}  // namespace
}  // namespace net
}  // namespace llamatune
