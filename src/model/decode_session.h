#ifndef INFUSERKI_MODEL_DECODE_SESSION_H_
#define INFUSERKI_MODEL_DECODE_SESSION_H_

#include <cstddef>
#include <vector>

#include "model/batched_session.h"
#include "model/transformer.h"

namespace infuserki::model {

/// Cached inference over one logical token sequence: a one-slot
/// BatchedDecodeSession.
///
/// Prefill() runs the model once over a chunk of tokens and caches every
/// layer's key/value rows; subsequent Prefill()/Decode() calls forward only
/// the NEW tokens against the cache, turning per-step decode cost from
/// O(T) full-sequence forwards into O(1) single-token forwards. The cached
/// path is bit-identical to the full-sequence forward (see DESIGN.md §7).
/// Sequence-stateful hooks (the Infuser gate pools over every position,
/// making the full-sequence forward non-causal) cannot be reproduced by a
/// cached pass and are rejected here; the generation layer routes such
/// forwards to the full-recompute path.
///
/// Snapshot()/Restore() save and replant the sequence boundary so a shared
/// prompt prefix can be prefilled once and reused across many
/// continuations (MCQ option scoring).
///
/// Sessions are single-threaded; a stateful hook (options.ffn_hook /
/// attn_hook) must not be shared with a concurrent session or forward.
/// All forwards run under NoGradGuard — returned logits are plain values.
class DecodeSession {
 public:
  /// `options.trace` must be null and any hook must not be
  /// SequenceStateful(). `options` (and any hook / prefix it points to)
  /// must outlive the session.
  explicit DecodeSession(const TransformerLM& lm,
                         const ForwardOptions& options = {});

  /// Extends the sequence with `tokens`; returns logits [T, V] for the new
  /// positions (row i scores the token after position tokens_before + i).
  tensor::Tensor Prefill(const std::vector<int>& tokens);

  /// Single-token step; returns logits [1, V] for the new position.
  tensor::Tensor Decode(int token);

  /// Token positions fed so far.
  size_t tokens() const { return session_.tokens(slot_); }

  /// Hard sequence ceiling (the model's positional table size).
  size_t max_tokens() const { return session_.max_tokens(); }

  /// The current sequence boundary's pages (shares storage; cheap).
  BatchedDecodeSession::SlotSnapshot Snapshot() const {
    return session_.Snapshot(slot_);
  }

  /// Rewinds (or advances) the session to `snapshot`, taken on this
  /// session.
  void Restore(const BatchedDecodeSession::SlotSnapshot& snapshot);

 private:
  BatchedDecodeSession session_;
  size_t slot_;
};

}  // namespace infuserki::model

#endif  // INFUSERKI_MODEL_DECODE_SESSION_H_
