// Per-layer probes: each times one public call of a layer at the shapes
// the workloads produce, from outside the program.
#include <algorithm>
#include <thread>

#include "bench.h"
#include "kg/mcq.h"
#include "model/batched_session.h"
#include "model/generation.h"
#include "tensor/nn.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/threadpool.h"

namespace infuserki::perfbench {
namespace {

template <typename Fn>
double MedianSeconds(size_t reps, Fn&& fn) {
  std::vector<double> times;
  times.reserve(reps);
  for (size_t i = 0; i < reps; ++i) {
    util::Stopwatch watch;
    fn();
    times.push_back(watch.ElapsedSeconds());
  }
  return Median(std::move(times));
}

std::vector<int> RandomIds(size_t n, size_t vocab, util::Rng* rng) {
  std::vector<int> ids(n);
  for (int& id : ids) {
    id = static_cast<int>(rng->UniformInt(4, static_cast<int64_t>(vocab) - 1));
  }
  return ids;
}

struct GemmShape {
  size_t in;
  size_t out;
};

/// Every GEMM one transformer layer runs, plus the tied output head.
std::vector<GemmShape> ModelGemmShapes(const model::TransformerConfig& c) {
  return {{c.dim, c.dim},        {c.dim, c.dim},        {c.dim, c.dim},
          {c.dim, c.dim},        {c.dim, c.ffn_hidden}, {c.dim, c.ffn_hidden},
          {c.ffn_hidden, c.dim}, {c.dim, c.vocab_size}};
}

/// MatmulNT over every model GEMM shape with `rows` rows, GFLOP/s.
double GemmGflops(const model::TransformerConfig& config, size_t rows,
                  size_t reps, util::Rng* rng) {
  std::vector<tensor::Tensor> inputs;
  std::vector<tensor::Tensor> weights;
  double flops = 0.0;
  for (const GemmShape& shape : ModelGemmShapes(config)) {
    inputs.push_back(tensor::Tensor::Randn({rows, shape.in}, rng));
    weights.push_back(tensor::Tensor::Randn({shape.out, shape.in}, rng));
    flops += 2.0 * static_cast<double>(rows * shape.in * shape.out);
  }
  double seconds = MedianSeconds(reps, [&] {
    for (size_t i = 0; i < inputs.size(); ++i) {
      tensor::Tensor y = tensor::MatmulNT(inputs[i], weights[i]);
      CHECK_EQ(y.dim(0), rows);
    }
  });
  return flops / seconds * 1e-9;
}

/// Linear forward plus backward to the input through frozen weights (the
/// integration pass's shape: the base model is frozen), GFLOP/s.
double TrainGemmGflops(const model::TransformerConfig& config, size_t rows,
                       size_t reps, util::Rng* rng) {
  std::vector<std::unique_ptr<tensor::Linear>> layers;
  double flops = 0.0;
  for (const GemmShape& shape : ModelGemmShapes(config)) {
    layers.push_back(std::make_unique<tensor::Linear>(shape.in, shape.out,
                                                      rng, false));
    layers.back()->SetTrainable(false);
    flops += 4.0 * static_cast<double>(rows * shape.in * shape.out);
  }
  double seconds = MedianSeconds(reps, [&] {
    for (const auto& layer : layers) {
      tensor::Tensor x = tensor::Tensor::Randn({rows, layer->in_features()},
                                               rng, 1.0f, true);
      tensor::SumAll(layer->Forward(x)).Backward();
    }
  });
  return flops / seconds * 1e-9;
}

}  // namespace

double ParallelForOverheadUs() {
  const size_t chunks = std::max(1u, std::thread::hardware_concurrency());
  return MedianSeconds(2000, [&] {
           util::ParallelFor(chunks, 1, [](size_t, size_t) {});
         }) *
         1e6;
}

void RunLayerProbes(const World& world, Metrics* metrics) {
  const model::TransformerLM& lm = *world.lm;
  const model::TransformerConfig& config = lm.config();
  util::Rng rng(99);

  // Training GEMMs need autograd; everything after runs inference-only.
  size_t train_rows = 0;
  for (const kg::QaSample& sample : world.inputs.train.unknown_qa) {
    train_rows +=
        world.tokenizer.Encode(sample.prompt + " " + sample.response).size() +
        2;
  }
  train_rows /= std::max<size_t>(world.inputs.train.unknown_qa.size(), 1);
  (*metrics)["tensor.gemm_gflops_train"] =
      TrainGemmGflops(config, train_rows, 20, &rng);

  tensor::NoGradGuard no_grad;
  (*metrics)["tensor.gemm_gflops_decode"] =
      GemmGflops(config, kBatchRows, 50, &rng);
  (*metrics)["tensor.gemm_gflops_prefill"] = GemmGflops(config, 256, 10, &rng);

  {
    const size_t ctx = 256;
    tensor::Tensor q = tensor::Tensor::Randn({kBatchRows, config.dim}, &rng);
    std::vector<tensor::Tensor> keys;
    std::vector<tensor::Tensor> values;
    for (size_t r = 0; r < kBatchRows; ++r) {
      keys.push_back(tensor::Tensor::Randn({ctx, config.dim}, &rng));
      values.push_back(tensor::Tensor::Randn({ctx, config.dim}, &rng));
    }
    std::vector<size_t> row_lens(kBatchRows, 1);
    double seconds = MedianSeconds(100, [&] {
      tensor::CausalSelfAttentionRagged(q, keys, values, row_lens,
                                        config.num_heads);
    });
    (*metrics)["tensor.attention_us_ctx256"] = seconds * 1e6;
  }

  // One width-kBatchRows decode step at fixed context lengths.
  for (size_t ctx : {64, 256, 480}) {
    model::BatchedDecodeSession session(lm, kBatchRows);
    std::vector<size_t> slots;
    for (size_t r = 0; r < kBatchRows; ++r) {
      slots.push_back(session.AcquireSlot());
      session.Step({{slots.back(), RandomIds(ctx, config.vocab_size, &rng)}});
    }
    if (ctx == 256) {
      model::BatchedDecodeSession::SlotSnapshot snap =
          session.Snapshot(slots[0]);
      size_t floats = 0;
      for (size_t l = 0; l < snap.keys.size(); ++l) {
        floats += snap.keys[l].size() + snap.values[l].size();
      }
      (*metrics)["model.kv_bytes_per_token"] =
          static_cast<double>(floats * sizeof(float)) /
          static_cast<double>(snap.tokens);
    }
    double seconds = MedianSeconds(8, [&] {
      std::vector<model::BatchedDecodeSession::RowInput> rows;
      for (size_t slot : slots) {
        rows.push_back({slot, RandomIds(1, config.vocab_size, &rng)});
      }
      session.Step(rows);
    });
    (*metrics)["model.decode_step_ms_ctx" + std::to_string(ctx)] =
        seconds * 1e3;
  }

  {
    // Prefill of the workload's own prompts, one row per step.
    model::BatchedDecodeSession session(lm, 1);
    size_t tokens = 0;
    double seconds = 0.0;
    for (size_t i = 0; i < 16; ++i) {
      std::vector<int> ids = world.tokenizer.EncodeWithSpecials(
          world.inputs.phase_a[i].prompt, false);
      size_t slot = session.AcquireSlot();
      util::Stopwatch watch;
      session.Step({{slot, ids}});
      seconds += watch.ElapsedSeconds();
      tokens += ids.size();
      session.ReleaseSlot(slot);
    }
    (*metrics)["model.prefill_tokens_per_s"] =
        static_cast<double>(tokens) / seconds;
  }

  {
    size_t next = 0;
    const std::vector<kg::Mcq>& mcqs = world.inputs.mcqs;
    double seconds = MedianSeconds(32, [&] {
      const kg::Mcq& mcq = mcqs[next++ % mcqs.size()];
      model::ScoreOptions(lm, world.tokenizer, kg::FormatQuestionPrompt(mcq),
                          {mcq.options.begin(), mcq.options.end()});
    });
    (*metrics)["model.score_options_ms"] = seconds * 1e3;
  }

  {
    const size_t n = std::min<size_t>(256, world.inputs.phase_a.size());
    util::Stopwatch watch;
    size_t tokens = 0;
    for (size_t i = 0; i < n; ++i) {
      tokens += world.tokenizer
                    .EncodeWithSpecials(world.inputs.phase_a[i].prompt, false)
                    .size();
    }
    CHECK_GT(tokens, 0u);
    (*metrics)["text.encode_us_per_req"] =
        watch.ElapsedSeconds() * 1e6 / static_cast<double>(n);
  }
}

}  // namespace infuserki::perfbench
