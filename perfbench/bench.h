// Shared declarations of the repo benchmark (see perfbench/README.md).
//
// The benchmark binary builds the paper-scale model and the synthetic UMLS
// KG, generates every input from the workload seed, and times the public
// entry points of each layer from the outside: InferenceServer (serving),
// core::DetectKnowledge (the paper's detection pass) and
// core::InfuserKi::Train (Infuser-guided integration). Nothing under src/
// knows about it.
#ifndef INFUSERKI_PERFBENCH_BENCH_H_
#define INFUSERKI_PERFBENCH_BENCH_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/infuserki.h"
#include "core/ki_method.h"
#include "kg/graph.h"
#include "kg/mcq.h"
#include "kg/templates.h"
#include "model/transformer.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "text/tokenizer.h"

namespace infuserki::perfbench {

/// Serving traffic shape of a workload.
enum class Traffic {
  kHotPrefix,   // short MCQ prompts drawn Zipf from a small pool
  kLongUnique,  // long unique KG-context prompts
};

/// Everything fixed about a workload. The rates and SLO limits are
/// constants so that a faster program shows as lower latency at the same
/// offered load, never as a different load.
struct WorkloadSpec {
  const char* name;
  Traffic traffic;
  /// Phase B (open loop) Poisson rate, requests/s: about half the
  /// saturation rate measured at the commit that defined the benchmark.
  double open_loop_qps;
  /// SLO limits for phase B: time to first token from the due time, and
  /// the mean gap between a request's output tokens.
  double ttft_slo_ms;
  double itl_slo_ms;
  /// Shares of --seconds given to phase A and phase B; detection and
  /// integration split the rest equally.
  double phase_a_share;
  double phase_b_share;
  /// An untraced run interleaves its phases in this many rounds (phase A
  /// block, phase B block, detection, integration), so that each metric
  /// is sampled across the whole run, not in one stretch of it: the
  /// shared host's speed drifts by a fifth within tens of seconds. The
  /// server stays up, idle, through detection and integration.
  size_t rounds;
};

/// The workload named `name`, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Knobs of the benchmark that are the same for every workload.
inline constexpr size_t kKgTriplets = 2500;   // paper's UMLS 2.5k sample
inline constexpr uint64_t kKgSeed = 17;       // the KG itself is fixed
inline constexpr uint64_t kWeightSeed = 1234;  // so are the weights
inline constexpr size_t kBatchRows = 8;
inline constexpr size_t kWindow = 16;  // phase A outstanding requests
inline constexpr size_t kSetupRepeats = 3;

/// d=64, 8 layers, 4 heads, ffn 128, max_seq_len 512.
model::TransformerConfig PaperScaleConfig(size_t vocab_size);

/// The server configuration every workload uses.
serve::ServeOptions PaperScaleServeOptions();

struct ServeInput {
  std::string prompt;
  size_t max_new = 0;
};

/// Epoch counts of one timed integration.
struct TrainEpochs {
  size_t infuser = 1;
  size_t qa = 6;
  size_t rc = 1;
};
inline constexpr TrainEpochs kTrainEpochs{};

/// Inputs generated from the workload seed. The program only ever sees
/// these; the seed itself never reaches it.
struct Inputs {
  std::vector<ServeInput> warmup;   // served during set-up
  std::vector<ServeInput> phase_a;  // closed loop, consumed in order
  std::vector<ServeInput> phase_b;  // open loop, one per arrival
  std::vector<double> arrivals_s;   // phase B due times from phase start
  std::vector<kg::Mcq> mcqs;        // one template-T1 MCQ per triplet
  std::vector<size_t> unknown;      // seeded known/unknown split
  std::vector<size_t> known;
  core::KiTrainData train;          // integration data
  core::KiTrainData warmup_train;   // a small slice, for warm-up only
};

/// One complete set-up: KG, vocabulary, model, and inputs.
struct World {
  kg::KnowledgeGraph kg;
  kg::TemplateEngine templates;
  text::Tokenizer tokenizer;
  std::unique_ptr<model::TransformerLM> lm;
  Inputs inputs;
  double kg_build_s = 0.0;
  double tokenizer_build_s = 0.0;
};

/// Builds a World. `phase_b_seconds` sizes the arrival schedule.
std::unique_ptr<World> BuildWorld(const WorkloadSpec& spec, uint64_t seed,
                                  double phase_b_seconds);

/// Training examples one Train() consumes: dataset sizes times epochs.
/// Defined from the input, so it does not move when the method changes.
size_t ExamplesPerTrain(const core::KiTrainData& data,
                        const TrainEpochs& epochs);

core::InfuserKiOptions IntegrationOptions(const TrainEpochs& epochs);

/// FNV-1a digests of each input family, for the determinism tests.
std::map<std::string, uint64_t> InputDigests(const World& world);

/// Metric name -> value, printed as JSON.
using Metrics = std::map<std::string, double>;

/// Registry snapshot difference helpers.
uint64_t CounterDelta(const obs::Registry::Snapshot& before,
                      const obs::Registry::Snapshot& after,
                      const std::string& name);
obs::HistogramStats HistogramDelta(const obs::Registry::Snapshot& before,
                                   const obs::Registry::Snapshot& after,
                                   const std::string& name);

/// Exact nearest-rank quantile of `values` (copied and sorted).
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// One served request as the client saw it.
struct ServeRecord {
  const ServeInput* input = nullptr;
  serve::Response response;
  double lateness_s = 0.0;  // open loop: submit time minus due time
  double submit_s = 0.0;    // request submitted, from phase start
  double done_s = 0.0;      // response received, from phase start
};

/// A serving phase: its requests and the registry around it.
struct ServePhase {
  std::string name;
  std::vector<ServeRecord> records;
  // The measured interval: closed loop, first submit to last response;
  // open loop, the span of the arrival schedule.
  double window_s = 0.0;
  obs::Registry::Snapshot before;
  obs::Registry::Snapshot after;
  size_t next_input = 0;  // closed loop: first unused stream entry
};

/// A phase A block: keeps kWindow requests outstanding for `budget_s`,
/// starting at `stream[first]`, then drains.
ServePhase RunClosedLoop(serve::InferenceServer* server,
                         const std::vector<ServeInput>& stream, size_t first,
                         double budget_s);

/// A phase B block: submits `stream[i]` at `arrivals_s[i] - begin_s` for
/// every arrival in [begin_s, end_s), regardless of completions, then
/// waits for every response.
ServePhase RunOpenLoop(serve::InferenceServer* server,
                       const std::vector<ServeInput>& stream,
                       const std::vector<double>& arrivals_s, double begin_s,
                       double end_s);

/// The records of `phases`, in order, as one phase named `name` (without
/// registry snapshots).
ServePhase MergeRecords(const std::vector<ServePhase>& phases,
                        const std::string& name);

/// A detection pass over all MCQs is made of this many calls, each over a
/// consecutive slice; mcqs_per_s is the median over the calls.
inline constexpr size_t kDetectSlices = 20;

/// Phase A: generated tokens over the blocks' time, each block timed from
/// its first submit to its last response. Whole blocks, so the rate covers
/// a fixed length mix of whole requests rather than a window's share of
/// some of them.
double ClosedLoopTokenRate(const std::vector<ServePhase>& blocks);

/// Phase B latencies, each over every request of every block.
struct OpenLoopLatency {
  /// Time to first token from the request's due time: generator lateness
  /// plus Response::ttft_seconds (which runs from enqueue and so already
  /// holds the queue wait).
  double ttft_p50_ms = 0.0;
  double ttft_p99_ms = 0.0;
  /// Mean gap between a request's output tokens, per request.
  double itl_p50_ms = 0.0;
  double itl_p99_ms = 0.0;
  /// Share of requests sent that succeeded within both SLO limits; a
  /// failed or shed request is a miss.
  double slo_attainment = 0.0;
};
OpenLoopLatency SummarizeOpenLoop(const std::vector<ServePhase>& blocks,
                                  const WorkloadSpec& spec);

/// requests == completed + shed + deadline + cancelled + failures, and the
/// counters agree with what the client received.
bool ServeConservationHolds(const ServePhase& phase, std::string* why);

/// Up to `count` served streams re-decoded with model::GreedyDecode; true
/// when every one is bit-exact.
bool ServedStreamsMatchGreedy(const World& world, const ServePhase& phase,
                              size_t count, std::string* why);

struct DetectPhase {
  size_t calls = 0;
  size_t mcqs_scored = 0;
  double seconds = 0.0;  // inside the timed calls
  std::vector<double> slice_rates;  // MCQs/s of each DetectKnowledge call
  std::vector<char> known;          // per MCQ, from the first timed pass
  bool passes_identical = true;     // later slices agree with the first pass
  obs::Registry::Snapshot before;
  obs::Registry::Snapshot after;
};

/// Appends DetectKnowledge calls over consecutive slices of the MCQs
/// (kDetectSlices slices make a pass, wrapping around; the first pass
/// fills `known`, later ones are compared with it) until `budget_s` is
/// spent, at least one call. `before` is taken at the first call, `after`
/// at the end of every call.
void RunDetection(const World& world, double budget_s, DetectPhase* phase);

struct IntegratePhase {
  std::vector<double> train_seconds;  // one entry per Train()
  double seconds = 0.0;               // their sum
  size_t examples = 0;
  float infuser_loss = 0.0f;
  float qa_loss = 0.0f;
  float rc_loss = 0.0f;
  bool losses_finite = true;
  obs::Registry::Snapshot before;
  obs::Registry::Snapshot after;
};

/// Appends fresh InfuserKi::Train runs on the integration data until
/// `budget_s` is spent (at least one). Snapshots as for RunDetection.
void RunIntegration(World* world, double budget_s, IntegratePhase* phase);

/// The QA loss of a Train with a single QA epoch (the first-epoch value
/// the timed runs must beat).
float FirstEpochQaLoss(World* world);

/// Per-layer probes, timed around public calls at the workloads' shapes
/// (layers.cc). Adds `model.*`, `tensor.*` and `text.*` entries.
void RunLayerProbes(const World& world, Metrics* metrics);

/// Median time of one ParallelFor over `nproc` empty chunks, in us.
double ParallelForOverheadUs();

}  // namespace infuserki::perfbench

#endif  // INFUSERKI_PERFBENCH_BENCH_H_
