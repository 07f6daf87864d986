// perfbench: the repo benchmark binary. perfbench/run.py builds it, runs
// it and turns its last output line into the benchmark result.
//
//   perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//             [--mode=run|inputs|pool]
//
// mode=run (default) sets up kSetupRepeats times (the last set-up is kept),
// then times the workload's rounds, each of: a phase A block (closed-loop
// serving at saturation), a phase B block (open-loop Poisson serving at
// the workload's fixed rate), detection and integration; finally it checks
// every output. With --trace=1 it runs one round, enables span recording
// and runs the per-layer probes. mode=inputs prints digests of the
// generated inputs; mode=pool times one phase A block, detection and
// integration (run.py runs it at two pool widths).
#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <iostream>
#include <set>
#include <thread>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include "bench.h"
#include "core/detection.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "util/flags.h"
#include "util/stopwatch.h"
#include "util/threadpool.h"

namespace infuserki::perfbench {
namespace {

constexpr size_t kDetectWarmupMcqs = 64;
constexpr size_t kSequentialCheckMcqs = 32;
constexpr size_t kGreedyChecks = 4;
// A generator whose tail lateness exceeds this did not deliver the offered
// load's shape. The tail is the p99, or, with fewer than 1000 arrivals,
// the highest quantile that still has ten arrivals beyond it, so that one
// stall of the shared host does not decide the run on its own.
constexpr double kMaxLatenessTailMs = 10.0;
constexpr double kTailBeyond = 10.0;

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

std::string CpuModel() {
#if defined(__x86_64__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    model.erase(0, model.find_first_not_of(' '));
    return model;
  }
#endif
  return "unknown";
}

std::string CpuFlags() {
  std::string flags;
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) flags += "avx2 ";
  if (__builtin_cpu_supports("fma")) flags += "fma ";
  if (__builtin_cpu_supports("avx512f")) flags += "avx512f ";
  if (__builtin_cpu_supports("avx512bw")) flags += "avx512bw ";
  if (__builtin_cpu_supports("avx512vl")) flags += "avx512vl ";
#endif
  if (!flags.empty()) flags.pop_back();
  return flags;
}

double PeakRssMb() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Everything set-up does before the first timed operation: build the
/// world and the server, then warm each pass so lazy initialisation and
/// first-touch costs land here, not in the timed phases.
struct Setup {
  std::unique_ptr<World> world;
  std::unique_ptr<serve::InferenceServer> server;
  core::DetectionResult warm_detection;
  bool warmup_ok = true;
};

void BuildSetup(const WorkloadSpec& spec, uint64_t seed, double phase_b_s,
                Setup* setup) {
  // Release the previous set-up first so peak memory is one set-up's.
  setup->server.reset();
  setup->world.reset();
  setup->world = BuildWorld(spec, seed, phase_b_s);
  World& world = *setup->world;
  setup->server = std::make_unique<serve::InferenceServer>(
      *world.lm, world.tokenizer, PaperScaleServeOptions());
  std::vector<std::future<serve::Response>> warm;
  for (const ServeInput& input : world.inputs.warmup) {
    serve::Request request;
    request.prompt = input.prompt;
    request.max_new_tokens = input.max_new;
    warm.push_back(setup->server->Submit(std::move(request)));
  }
  for (auto& future : warm) {
    setup->warmup_ok = setup->warmup_ok && future.get().status.ok();
  }
  std::vector<kg::Mcq> first(
      world.inputs.mcqs.begin(),
      world.inputs.mcqs.begin() +
          std::min(kDetectWarmupMcqs, world.inputs.mcqs.size()));
  setup->warm_detection =
      core::DetectKnowledge(*world.lm, world.tokenizer, first);
  core::InfuserKi warm_method(world.lm.get(),
                              IntegrationOptions({1, 1, 1}));
  warm_method.Train(world.inputs.warmup_train);
}

struct PhaseCount {
  std::string name;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double seconds = 0.0;
};

PhaseCount CountServe(const std::string& name, const ServePhase& phase) {
  PhaseCount count{name, phase.records.size(), 0, phase.window_s};
  for (const ServeRecord& record : phase.records) {
    if (!record.response.status.ok()) ++count.failed;
  }
  return count;
}

std::string Json(const std::map<std::string, double>& values) {
  obs::JsonWriter out;
  for (const auto& [name, value] : values) out.AddNumber(name, value);
  return out.Finish();
}

int Main(int argc, char** argv) {
  util::Stopwatch process;
  util::Flags flags(argc, argv);
  const std::string workload = flags.GetString("workload", "");
  const WorkloadSpec* spec = FindWorkload(workload);
  if (spec == nullptr) {
    std::cerr << "perfbench: unknown --workload=" << workload << "\n";
    return 2;
  }
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const double seconds = flags.GetDouble("seconds", 10.0);
  const bool trace = flags.GetBool("trace", false);
  const std::string mode = flags.GetString("mode", "run");
  if (seconds <= 0.0) {
    std::cerr << "perfbench: --seconds must be > 0\n";
    return 2;
  }
  const double phase_a_s = seconds * spec->phase_a_share;
  const double phase_b_s = seconds * spec->phase_b_share;
  const double offline_s = (seconds - phase_a_s - phase_b_s) / 2;

  if (mode == "inputs") {
    std::unique_ptr<World> world = BuildWorld(*spec, seed, phase_b_s);
    obs::JsonWriter out;
    for (const auto& [name, digest] : InputDigests(*world)) {
      out.AddString(name, std::to_string(digest));
    }
    out.AddUint("vocab", world->tokenizer.vocab_size())
        .AddUint("arrival_count", world->inputs.arrivals_s.size())
        .AddUint("mcq_count", world->inputs.mcqs.size());
    std::cout << out.Finish() << std::endl;
    return 0;
  }
  if (mode != "run" && mode != "pool") {
    std::cerr << "perfbench: unknown --mode=" << mode << "\n";
    return 2;
  }

  Setup setup;
  std::vector<double> setup_s;
  std::vector<double> kg_build_s;
  std::vector<double> tokenizer_build_s;
  const size_t repeats = mode == "pool" ? 1 : kSetupRepeats;
  for (size_t rep = 0; rep < repeats; ++rep) {
    util::Stopwatch watch;
    BuildSetup(*spec, seed, phase_b_s, &setup);
    // The first set-up also pays for process start.
    setup_s.push_back(rep == 0 ? process.ElapsedSeconds()
                               : watch.ElapsedSeconds());
    kg_build_s.push_back(setup.world->kg_build_s);
    tokenizer_build_s.push_back(setup.world->tokenizer_build_s);
  }
  World& world = *setup.world;
  serve::InferenceServer& server = *setup.server;

  if (mode == "pool") {
    const double tokens_per_s = ClosedLoopTokenRate(
        {RunClosedLoop(&server, world.inputs.phase_a, 0, seconds / 3)});
    server.Shutdown();
    DetectPhase detect;
    RunDetection(world, seconds / 3, &detect);
    IntegratePhase integrate;
    RunIntegration(&world, seconds / 3, &integrate);
    obs::JsonWriter out;
    out.AddUint("pool_width", util::GlobalThreadPool().num_threads())
        .AddNumber("tokens_per_s", tokens_per_s)
        .AddNumber("parallel_for_overhead_us", ParallelForOverheadUs())
        .AddNumber("pool_queue_wait_p99_us",
                   HistogramDelta(detect.before, integrate.after,
                                  "threadpool/queue_wait_seconds")
                           .p99 *
                       1e6)
        .AddNumber("mcqs_per_s",
                   static_cast<double>(detect.mcqs_scored) / detect.seconds)
        .AddNumber("examples_per_s",
                   static_cast<double>(integrate.examples) /
                       integrate.seconds);
    std::cout << out.Finish() << std::endl;
    return 0;
  }

  // ---- Timed phases -----------------------------------------------------
  // The traced run keeps each phase in one stretch, so that each per-layer
  // registry delta covers exactly one phase, and runs the first half of
  // phase A untraced as the reference for tracing overhead.
  const size_t rounds = trace ? 1 : spec->rounds;
  std::vector<ServePhase> phase_a;
  std::vector<ServePhase> phase_b;
  DetectPhase detect;
  IntegratePhase integrate;
  size_t next_a = 0;
  double untraced_tokens_per_s = 0.0;
  if (trace) {
    ServePhase reference =
        RunClosedLoop(&server, world.inputs.phase_a, 0, phase_a_s / 2);
    untraced_tokens_per_s = ClosedLoopTokenRate({reference});
    next_a = reference.next_input;
    obs::Tracer::Get().Enable();
  }
  const double a_block_s = (trace ? phase_a_s / 2 : phase_a_s) / rounds;
  for (size_t r = 0; r < rounds; ++r) {
    phase_a.push_back(
        RunClosedLoop(&server, world.inputs.phase_a, next_a, a_block_s));
    next_a = phase_a.back().next_input;
    auto b_bound_s = [&](size_t k) {
      return k == rounds ? phase_b_s
                         : phase_b_s * static_cast<double>(k) /
                               static_cast<double>(rounds);
    };
    phase_b.push_back(RunOpenLoop(&server, world.inputs.phase_b,
                                  world.inputs.arrivals_s, b_bound_s(r),
                                  b_bound_s(r + 1)));
    RunDetection(world, offline_s / static_cast<double>(rounds), &detect);
    RunIntegration(&world, offline_s / static_cast<double>(rounds),
                   &integrate);
  }
  server.Shutdown();
  obs::Tracer::Get().Disable();
  const ServePhase served_a = MergeRecords(phase_a, "closed_loop");
  const ServePhase served_b = MergeRecords(phase_b, "open_loop");

  // ---- Checks (untimed) -------------------------------------------------
  std::map<std::string, bool> checks;
  std::vector<std::string> failures;
  auto check = [&](const std::string& name, bool ok, const std::string& why) {
    checks[name] = ok;
    if (!ok) failures.push_back(name + ": " + why);
  };
  std::string why;
  check("setup.warmup_served", setup.warmup_ok, "a warm-up request failed");
  for (const std::vector<ServePhase>* blocks : {&phase_a, &phase_b}) {
    bool conserved = true;
    std::string whys;
    for (const ServePhase& block : *blocks) {
      why.clear();
      if (!ServeConservationHolds(block, &why)) {
        conserved = false;
        whys += why + "; ";
      }
    }
    check("serve.conservation." + blocks->front().name, conserved, whys);
  }
  for (const ServePhase* phase : {&served_a, &served_b}) {
    why.clear();
    check("serve.greedy_bit_exact." + phase->name,
          ServedStreamsMatchGreedy(world, *phase, kGreedyChecks, &why), why);
  }
  {
    const std::vector<kg::Mcq>& mcqs = world.inputs.mcqs;
    bool warm_same = true;
    for (size_t i = 0; i < std::min(kDetectWarmupMcqs, mcqs.size()); ++i) {
      size_t t = mcqs[i].triplet_index;
      warm_same =
          warm_same && setup.warm_detection.is_known.at(t) == detect.known[i];
    }
    check("detect.warmup_equals_timed", warm_same,
          "warm-up and timed passes disagree");
    check("detect.passes_identical", detect.passes_identical,
          "timed passes over the same MCQs disagree");
    // Sampled from the MCQs the timed calls scored.
    const size_t scored = std::min(detect.mcqs_scored, mcqs.size());
    bool sequential_same = true;
    for (size_t k = 0; k < kSequentialCheckMcqs; ++k) {
      const size_t i = k * scored / kSequentialCheckMcqs;
      bool known = core::AnswerMcq(*world.lm, world.tokenizer, mcqs[i]) ==
                   mcqs[i].correct;
      sequential_same = sequential_same && known == (detect.known[i] != 0);
    }
    check("detect.equals_sequential_answer_mcq", sequential_same,
          "DetectKnowledge differs from sequential AnswerMcq");
  }
  check("integrate.losses_finite", integrate.losses_finite,
        "a training loss is not finite");
  const float first_epoch_qa = FirstEpochQaLoss(&world);
  check("integrate.qa_loss_falls", integrate.qa_loss < first_epoch_qa,
        "QA loss " + std::to_string(integrate.qa_loss) +
            " is not below its first-epoch value " +
            std::to_string(first_epoch_qa));

  // ---- Workload properties ------------------------------------------------
  std::map<std::string, double> properties;
  {
    std::set<std::string> distinct;
    size_t prompts = 0;
    double length_sum = 0.0;
    size_t length_max = 0;
    size_t context_max = 0;
    for (const ServePhase* phase : {&served_a, &served_b}) {
      for (const ServeRecord& record : phase->records) {
        size_t length = world.tokenizer
                            .EncodeWithSpecials(record.input->prompt, false)
                            .size();
        distinct.insert(record.input->prompt);
        ++prompts;
        length_sum += static_cast<double>(length);
        length_max = std::max(length_max, length);
        context_max = std::max(context_max,
                               length + record.response.tokens.size());
      }
    }
    properties["exact_repeat_share"] =
        1.0 - static_cast<double>(distinct.size()) /
                  static_cast<double>(std::max<size_t>(prompts, 1));
    properties["prompt_tokens_mean"] =
        length_sum / static_cast<double>(std::max<size_t>(prompts, 1));
    properties["prompt_tokens_max"] = static_cast<double>(length_max);
    properties["max_context_tokens"] = static_cast<double>(context_max);
    std::vector<double> lateness_ms;
    for (const ServeRecord& record : served_b.records) {
      lateness_ms.push_back(record.lateness_s * 1e3);
    }
    const double tail_level = std::clamp(
        1.0 - kTailBeyond / static_cast<double>(lateness_ms.size()), 0.5,
        0.99);
    properties["generator_lateness_p99_ms"] = Quantile(lateness_ms, 0.99);
    properties["generator_lateness_tail_level"] = tail_level;
    properties["generator_lateness_tail_ms"] =
        Quantile(lateness_ms, tail_level);
    properties["open_loop_offered_qps"] = spec->open_loop_qps;
    properties["open_loop_requests"] =
        static_cast<double>(served_b.records.size());
    properties["detect_passes"] =
        static_cast<double>(detect.mcqs_scored) /
        static_cast<double>(world.inputs.mcqs.size());
    properties["integrate_trains"] =
        static_cast<double>(integrate.train_seconds.size());
    properties["qa_loss"] = integrate.qa_loss;
    properties["qa_loss_first_epoch"] = first_epoch_qa;
  }
  check("serve.generator_on_time",
        properties["generator_lateness_tail_ms"] <= kMaxLatenessTailMs,
        "open-loop generator fell behind (lateness tail " +
            std::to_string(properties["generator_lateness_tail_ms"]) +
            " ms); the offered load was not delivered, run invalid");

  // ---- Metrics --------------------------------------------------------------
  Metrics report;
  const size_t mcqs_done = detect.mcqs_scored;
  // Latency quantiles are reported by the traced run, not gated: their
  // run-to-run spread on a shared 4-core host is too close to, or above,
  // the largest regression bound. slo_attainment gates serving latency.
  const OpenLoopLatency latency = SummarizeOpenLoop(phase_b, *spec);
  const double tokens_per_s = ClosedLoopTokenRate(phase_a);
  if (!trace) {
    report["setup_s"] = Median(setup_s);
    report["peak_rss_mb"] = PeakRssMb();
    report["tokens_per_s"] = tokens_per_s;
    report["slo_attainment"] = latency.slo_attainment;
    report["mcqs_per_s"] = Median(detect.slice_rates);
    report["examples_per_s"] =
        static_cast<double>(
            ExamplesPerTrain(world.inputs.train, kTrainEpochs)) /
        Median(integrate.train_seconds);
  } else {
    auto ratio = [](double num, double den) {
      return den > 0.0 ? num / den : 0.0;
    };
    // One round: each phase is a single block.
    const ServePhase& block_a = phase_a.front();
    const ServePhase& block_b = phase_b.front();
    auto delta = [](const auto& phase, const char* name) {
      return static_cast<double>(
          CounterDelta(phase.before, phase.after, name));
    };
    auto served = [&](const char* name) {
      return delta(block_a, name) + delta(block_b, name);
    };
    obs::HistogramStats queue_wait = HistogramDelta(
        block_b.before, block_b.after, "serve/queue_wait_seconds");
    report["serve.ttft_p50_ms"] = latency.ttft_p50_ms;
    report["serve.ttft_p99_ms"] = latency.ttft_p99_ms;
    report["serve.itl_p50_ms"] = latency.itl_p50_ms;
    report["serve.itl_p99_ms"] = latency.itl_p99_ms;
    report["serve.queue_wait_p50_ms"] = queue_wait.p50 * 1e3;
    report["serve.queue_wait_p99_ms"] = queue_wait.p99 * 1e3;
    report["serve.prefix_hit_ratio"] =
        ratio(served("serve/prefix_hits"),
              served("serve/prefix_hits") + served("serve/prefix_misses"));
    report["serve.prefix_evictions_per_req"] =
        ratio(served("serve/evictions"), served("serve/requests"));
    report["serve.batch_rows_mean"] =
        HistogramDelta(block_a.before, block_a.after, "serve/batch_occupancy")
            .mean *
        static_cast<double>(kBatchRows);
    report["serve.shed_frac"] =
        ratio(delta(block_b, "serve/shed"),
              static_cast<double>(block_b.records.size()));
    obs::HistogramStats step = HistogramDelta(
        block_b.before, block_b.after, "engine/batched_step_seconds");
    report["model.step_ms_p50"] = step.p50 * 1e3;
    report["model.step_ms_p99"] = step.p99 * 1e3;
    report["model.rewinds_per_mcq"] = ratio(
        delta(detect, "engine/rewinds"), static_cast<double>(mcqs_done));
    report["model.train_step_ms_p50"] =
        HistogramDelta(integrate.before, integrate.after,
                       "trainer/step_seconds")
            .p50 *
        1e3;
    report["tensor.gemm_flops_per_token"] =
        ratio(delta(block_a, "tensor/gemm_flops"),
              delta(block_a, "engine/prefill_tokens") +
                  delta(block_a, "engine/decode_tokens"));
    std::map<std::string, obs::SpanRollup> spans =
        obs::Tracer::Get().Rollup();
    for (const char* phase : {"infuser", "qa", "rc"}) {
      const obs::SpanRollup& rollup =
          spans[std::string("infuserki/train_") + phase];
      report[std::string("core.train_phase_s.") + phase] =
          ratio(static_cast<double>(rollup.total_us) * 1e-6,
                static_cast<double>(rollup.count));
    }
    report["kg.build_s"] = Median(kg_build_s);
    report["text.tokenizer_build_s"] = Median(tokenizer_build_s);
    report["obs.trace_overhead_frac"] =
        ratio(untraced_tokens_per_s - tokens_per_s,
              untraced_tokens_per_s);
    RunLayerProbes(world, &report);
  }

  // ---- Output ---------------------------------------------------------------
  std::vector<PhaseCount> phases = {
      CountServe("serve_closed_loop", served_a),
      CountServe("serve_open_loop", served_b),
      {"detect", mcqs_done, 0, detect.seconds},
      {"integrate", integrate.examples,
       integrate.losses_finite ? 0 : integrate.examples, integrate.seconds}};
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const PhaseCount& phase : phases) {
    attempted += phase.attempted;
    failed += phase.failed;
    std::cout << "perfbench: phase=" << phase.name
              << " attempted=" << phase.attempted
              << " succeeded=" << phase.attempted - phase.failed
              << " failed=" << phase.failed << " seconds=" << phase.seconds
              << "\n";
  }
  for (const auto& [name, value] : properties) {
    std::cout << "perfbench: property " << name << "=" << value << "\n";
  }
  std::cout << "perfbench: ungated ttft_p50_ms=" << latency.ttft_p50_ms
            << " ttft_p99_ms=" << latency.ttft_p99_ms
            << " itl_p50_ms=" << latency.itl_p50_ms
            << " itl_p99_ms=" << latency.itl_p99_ms << "\n";
  for (const std::string& failure : failures) {
    std::cout << "perfbench: CHECK FAILED " << failure << "\n";
  }

  const model::TransformerConfig& config = world.lm->config();
  obs::JsonWriter provenance;
  provenance.AddString("workload", spec->name)
      .AddUint("seed", seed)
      .AddNumber("seconds", seconds)
      .AddUint("dim", config.dim)
      .AddUint("layers", config.num_layers)
      .AddUint("heads", config.num_heads)
      .AddUint("ffn_hidden", config.ffn_hidden)
      .AddUint("max_seq_len", config.max_seq_len)
      .AddUint("vocab", config.vocab_size)
      .AddUint("kg_triplets", world.kg.num_triplets())
      .AddUint("batch_rows", kBatchRows)
      .AddUint("pool_width", util::GlobalThreadPool().num_threads())
      .AddUint("nproc", std::thread::hardware_concurrency())
      .AddString("cpu_model", CpuModel())
      .AddString("cpu_flags", CpuFlags())
      .AddString("compiler", kCompiler)
      .AddString("build_type", PERFBENCH_BUILD_TYPE);
  std::map<std::string, double> check_values;
  for (const auto& [name, ok] : checks) check_values[name] = ok ? 1.0 : 0.0;

  obs::JsonWriter result;
  result.AddBool("correct", failures.empty())
      .AddUint("attempted", attempted)
      .AddUint("failed", failed)
      .AddRaw("checks", Json(check_values))
      .AddRaw("properties", Json(properties))
      .AddRaw("provenance", provenance.Finish())
      .AddRaw("metrics", Json(report));
  std::cout << result.Finish() << std::endl;
  return 0;
}

}  // namespace
}  // namespace infuserki::perfbench

int main(int argc, char** argv) {
  return infuserki::perfbench::Main(argc, argv);
}
