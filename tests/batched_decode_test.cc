#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "model/batched_session.h"
#include "model/decode_session.h"
#include "model/kv_cache.h"
#include "model/transformer.h"
#include "util/rng.h"

// Bit-exactness suite for ragged batched decode (DESIGN.md §11): every row
// of a batched Step must reproduce the single-sequence DecodeSession fed
// the same tokens byte-for-byte, across mixed prompt lengths, mid-decode
// admission, slot recycling, and snapshot/restore prefix sharing. All
// comparisons are exact float equality on purpose — "close enough" would
// hide order-of-operations drift between the packed and sequential paths.

namespace infuserki::model {
namespace {

using tensor::NoGradGuard;
using tensor::Tensor;

TransformerConfig SmallConfig() {
  TransformerConfig config;
  config.vocab_size = 40;
  config.dim = 16;
  config.num_layers = 3;
  config.num_heads = 2;
  config.ffn_hidden = 32;
  config.max_seq_len = 32;
  return config;
}

std::vector<int> RandomTokens(size_t count, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<int> tokens(count);
  for (int& t : tokens) {
    // Avoid special ids so EOS handling never truncates.
    t = static_cast<int>(rng.UniformInt(4, 39));
  }
  return tokens;
}

void ExpectBitIdentical(const Tensor& a, const Tensor& b,
                        const std::string& what) {
  ASSERT_EQ(a.dim(0), b.dim(0)) << what;
  ASSERT_EQ(a.dim(1), b.dim(1)) << what;
  size_t count = a.dim(0) * a.dim(1);
  for (size_t i = 0; i < count; ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << what << " element " << i;
  }
}

int ArgmaxLast(const Tensor& logits) {
  size_t vocab = logits.dim(1);
  const float* row = logits.data() + (logits.dim(0) - 1) * vocab;
  int best = 0;
  for (size_t v = 1; v < vocab; ++v) {
    if (row[v] > row[best]) best = static_cast<int>(v);
  }
  return best;
}

class BatchedDecodeTest : public ::testing::Test {
 protected:
  BatchedDecodeTest() : rng_(1234), lm_(SmallConfig(), &rng_) {}

  util::Rng rng_;
  TransformerLM lm_;
};

// Mixed-length prompts prefilled together in one ragged step produce —
// row for row — the same full prefill logits as one session per prompt.
TEST_F(BatchedDecodeTest, BatchedPrefillMatchesSequential) {
  std::vector<std::vector<int>> prompts = {
      RandomTokens(7, 11), RandomTokens(1, 22), RandomTokens(13, 33),
      RandomTokens(4, 44)};

  BatchedDecodeSession batched(lm_, prompts.size());
  std::vector<BatchedDecodeSession::RowInput> rows;
  for (const std::vector<int>& prompt : prompts) {
    rows.push_back({batched.AcquireSlot(), prompt});
  }
  std::vector<Tensor> batched_logits = batched.Step(rows);

  for (size_t r = 0; r < prompts.size(); ++r) {
    DecodeSession sequential(lm_);
    Tensor reference = sequential.Prefill(prompts[r]);
    ExpectBitIdentical(batched_logits[r], reference,
                       "prefill row " + std::to_string(r));
  }
}

// Greedy decode across many steps: every row of the batch follows the
// exact token trajectory (and logits) of its own sequential session.
TEST_F(BatchedDecodeTest, BatchedGreedyDecodeMatchesSequential) {
  std::vector<std::vector<int>> prompts = {
      RandomTokens(5, 1), RandomTokens(9, 2), RandomTokens(2, 3)};
  const size_t steps = 8;

  BatchedDecodeSession batched(lm_, prompts.size());
  std::vector<BatchedDecodeSession::RowInput> rows;
  for (const std::vector<int>& prompt : prompts) {
    rows.push_back({batched.AcquireSlot(), prompt});
  }
  std::vector<Tensor> batched_logits = batched.Step(rows);

  std::vector<std::unique_ptr<DecodeSession>> sequential;
  std::vector<Tensor> reference_logits;
  for (const std::vector<int>& prompt : prompts) {
    sequential.push_back(std::make_unique<DecodeSession>(lm_));
    reference_logits.push_back(sequential.back()->Prefill(prompt));
  }

  for (size_t step = 0; step < steps; ++step) {
    std::vector<BatchedDecodeSession::RowInput> decode_rows;
    std::vector<int> expected_tokens;
    for (size_t r = 0; r < prompts.size(); ++r) {
      int batched_next = ArgmaxLast(batched_logits[r]);
      int reference_next = ArgmaxLast(reference_logits[r]);
      ASSERT_EQ(batched_next, reference_next)
          << "step " << step << " row " << r;
      decode_rows.push_back({rows[r].slot, {batched_next}});
      expected_tokens.push_back(reference_next);
    }
    batched_logits = batched.Step(decode_rows);
    for (size_t r = 0; r < prompts.size(); ++r) {
      reference_logits[r] = sequential[r]->Decode(expected_tokens[r]);
      ExpectBitIdentical(
          batched_logits[r], reference_logits[r],
          "step " + std::to_string(step) + " row " + std::to_string(r));
    }
  }
}

// Continuous batching's core move: a new prompt's prefill joins a step in
// which other rows decode single tokens. Neither the prefill nor the
// in-flight rows drift from their sequential references.
TEST_F(BatchedDecodeTest, MidDecodeAdmissionStaysBitExact) {
  std::vector<int> prompt_a = RandomTokens(6, 7);
  std::vector<int> prompt_b = RandomTokens(3, 8);
  std::vector<int> prompt_c = RandomTokens(10, 9);

  BatchedDecodeSession batched(lm_, 3);
  size_t slot_a = batched.AcquireSlot();
  size_t slot_b = batched.AcquireSlot();
  std::vector<Tensor> logits =
      batched.Step({{slot_a, prompt_a}, {slot_b, prompt_b}});

  DecodeSession seq_a(lm_), seq_b(lm_), seq_c(lm_);
  Tensor ref_a = seq_a.Prefill(prompt_a);
  Tensor ref_b = seq_b.Prefill(prompt_b);

  int next_a = ArgmaxLast(logits[0]);
  int next_b = ArgmaxLast(logits[1]);
  ASSERT_EQ(next_a, ArgmaxLast(ref_a));
  ASSERT_EQ(next_b, ArgmaxLast(ref_b));

  // Row C is admitted while A and B decode: one ragged step mixes a
  // 10-token prefill with two 1-token decodes.
  size_t slot_c = batched.AcquireSlot();
  logits = batched.Step(
      {{slot_a, {next_a}}, {slot_c, prompt_c}, {slot_b, {next_b}}});
  ExpectBitIdentical(logits[0], seq_a.Decode(next_a), "row a");
  ExpectBitIdentical(logits[1], seq_c.Prefill(prompt_c), "row c");
  ExpectBitIdentical(logits[2], seq_b.Decode(next_b), "row b");
}

// Releasing a slot and reusing it for a different prompt must leave no
// residue from the previous occupant.
TEST_F(BatchedDecodeTest, SlotRecyclingLeavesNoResidue) {
  std::vector<int> first = RandomTokens(12, 5);
  std::vector<int> second = RandomTokens(6, 6);

  BatchedDecodeSession batched(lm_, 1);
  size_t slot = batched.AcquireSlot();
  batched.Step({{slot, first}});
  batched.ReleaseSlot(slot);

  size_t reused = batched.AcquireSlot();
  EXPECT_EQ(reused, slot);
  EXPECT_EQ(batched.tokens(reused), 0u);
  std::vector<Tensor> logits = batched.Step({{reused, second}});

  DecodeSession sequential(lm_);
  ExpectBitIdentical(logits[0], sequential.Prefill(second), "recycled");
}

// Snapshot at the prompt boundary, restore into two fresh slots, decode
// both: each continuation is bit-exact with a sequential session that
// prefilled the prompt itself — the serving layer's prefix-sharing path.
TEST_F(BatchedDecodeTest, SharedSnapshotRestoreStaysBitExact) {
  std::vector<int> prompt = RandomTokens(8, 17);

  BatchedDecodeSession batched(lm_, 3);
  size_t warm = batched.AcquireSlot();
  std::vector<Tensor> prefill = batched.Step({{warm, prompt}});
  BatchedDecodeSession::SlotSnapshot snapshot = batched.Snapshot(warm);
  EXPECT_EQ(snapshot.tokens, prompt.size());
  int first = ArgmaxLast(prefill[0]);
  // Decode the warm row PAST the boundary first, proving the snapshot is
  // frozen rather than aliased to the live slot.
  batched.Step({{warm, {first}}});

  size_t row1 = batched.AcquireSlot();
  size_t row2 = batched.AcquireSlot();
  batched.Restore(row1, snapshot);
  batched.Restore(row2, snapshot);
  EXPECT_EQ(batched.tokens(row1), prompt.size());

  DecodeSession sequential(lm_);
  sequential.Prefill(prompt);
  Tensor reference = sequential.Decode(first);

  // Both restored rows continue with the same token; both must match the
  // sequential continuation exactly (and each other).
  std::vector<Tensor> logits =
      batched.Step({{row1, {first}}, {row2, {first}}});
  ExpectBitIdentical(logits[0], reference, "restored row 1");
  ExpectBitIdentical(logits[1], reference, "restored row 2");
}

// KvCache slot pooling: extending or resetting one slot must not disturb
// the pages of another.
TEST(KvCacheSlots, SlotsAreIndependent) {
  NoGradGuard no_grad;
  util::Rng rng(99);
  TransformerLM lm(SmallConfig(), &rng);
  KvCache cache(lm.config().num_layers, 2);

  std::vector<int> tokens_a = RandomTokens(5, 1);
  std::vector<int> tokens_b = RandomTokens(7, 2);
  lm.HiddenBatched({{&tokens_a, 0}, {&tokens_b, 1}}, &cache);
  EXPECT_EQ(cache.tokens(0), 5u);
  EXPECT_EQ(cache.tokens(1), 7u);

  std::vector<float> slot1_k(cache.layer(0, 1)->k.data(),
                             cache.layer(0, 1)->k.data() +
                                 cache.layer(0, 1)->k.size());
  auto expect_slot1_intact = [&] {
    EXPECT_EQ(cache.tokens(1), 7u);
    ASSERT_EQ(cache.layer(0, 1)->k.size(), slot1_k.size());
    for (size_t i = 0; i < slot1_k.size(); ++i) {
      EXPECT_EQ(cache.layer(0, 1)->k.data()[i], slot1_k[i]) << i;
    }
  };
  std::vector<int> more_a = RandomTokens(2, 3);
  lm.HiddenBatched({{&more_a, 0}}, &cache);
  EXPECT_EQ(cache.tokens(0), 7u);
  expect_slot1_intact();
  cache.ResetSlot(0);
  EXPECT_EQ(cache.tokens(0), 0u);
  EXPECT_FALSE(cache.seeded(0));
  expect_slot1_intact();
}

}  // namespace
}  // namespace infuserki::model
