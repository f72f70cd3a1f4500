#include "src/core/trial.h"

namespace llamatune {

namespace {

/// Optional trailing `fid <bits>`: absent means full fidelity (the only
/// value pre-fidelity writers produced), so old serialized trials and
/// results parse unchanged, and the full-fidelity encoding stays
/// byte-identical to the pre-fidelity format. Nothing may follow it.
template <class IO, class Fidelity>
void FidelityTail(IO& io, Fidelity& fidelity) {
  io.Optional("fid", fidelity, 1.0);
  io.Check(fidelity > 0.0 && fidelity <= 1.0, "fidelity out of (0, 1]");
  io.End();
}

constexpr auto kTrial = [](auto& io, auto& trial) {
  io.Literal("trial");
  io.Value(trial.id);
  io.Value(trial.is_baseline);
  io.Field("point", trial.point);
  io.Field("config", trial.config.values());
  FidelityTail(io, trial.fidelity);
};

constexpr auto kTrialResult = [](auto& io, auto& result) {
  io.Literal("result");
  io.Value(result.trial_id);
  io.EnumValue(result.outcome, TrialOutcome::kLost);
  io.Value(result.value);
  io.Field("metrics", result.metrics);
  FidelityTail(io, result.fidelity);
};

}  // namespace

std::string SerializeTrial(const Trial& trial) {
  return WriteTokens(kTrial, trial);
}

Result<Trial> ParseTrial(const std::string& line) {
  Trial trial;
  Status status = ReadTokens(line, kTrial, trial);
  if (!status.ok()) return status;
  return trial;
}

std::string SerializeTrialResult(const TrialResult& result) {
  return WriteTokens(kTrialResult, result);
}

Result<TrialResult> ParseTrialResult(const std::string& line) {
  TrialResult result;
  Status status = ReadTokens(line, kTrialResult, result);
  if (!status.ok()) return status;
  return result;
}

}  // namespace llamatune
