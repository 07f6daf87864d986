#include "model/decode_session.h"

#include "obs/metrics.h"
#include "util/stopwatch.h"

namespace infuserki::model {
namespace {

/// Single-sequence engine metrics on top of the batched engine's
/// counters: per-call prefill / decode latency and rewinds.
struct EngineMetrics {
  obs::Counter* rewinds;
  obs::Histogram* prefill_seconds;
  obs::Histogram* decode_step_seconds;
};

EngineMetrics& Metrics() {
  // Locking contract: resolved once under the magic-static guard; the
  // struct is immutable afterwards and all metric updates are relaxed
  // atomics, so concurrent sessions (parallel MCQ fan-out) publish without
  // any lock.
  static EngineMetrics* metrics = [] {
    obs::Registry& registry = obs::Registry::Get();
    return new EngineMetrics{
        registry.GetCounter("engine/rewinds"),
        registry.GetHistogram("engine/prefill_seconds"),
        registry.GetHistogram("engine/decode_step_seconds")};
  }();
  return *metrics;
}

}  // namespace

DecodeSession::DecodeSession(const TransformerLM& lm,
                             const ForwardOptions& options)
    : session_(lm, 1, options), slot_(session_.AcquireSlot()) {}

tensor::Tensor DecodeSession::Prefill(const std::vector<int>& tokens) {
  util::Stopwatch watch;
  tensor::Tensor logits = session_.Step({{slot_, tokens}}).front();
  EngineMetrics& metrics = Metrics();
  (tokens.size() == 1 ? metrics.decode_step_seconds : metrics.prefill_seconds)
      ->Record(watch.ElapsedSeconds());
  return logits;
}

tensor::Tensor DecodeSession::Decode(int token) { return Prefill({token}); }

void DecodeSession::Restore(
    const BatchedDecodeSession::SlotSnapshot& snapshot) {
  session_.Restore(slot_, snapshot);
  Metrics().rewinds->Increment();
}

}  // namespace infuserki::model
