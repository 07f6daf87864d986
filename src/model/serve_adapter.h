#ifndef INFUSERKI_MODEL_SERVE_ADAPTER_H_
#define INFUSERKI_MODEL_SERVE_ADAPTER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "model/hooks.h"
#include "tensor/tensor.h"

namespace infuserki::model {

/// Which sublayer the adapter chain attaches to (the serving-side mirror of
/// core::AdapterPlacement — model/ cannot depend on core/).
enum class AdapterAttachment : uint32_t {
  kFfn = 0,
  kAttention = 1,
};

/// Immutable position-wise knowledge-adapter weights for serving.
///
/// This is the inference-side export of core::KnowledgeAdapterStack in its
/// ungated (w/o-Ro, use_infuser = false) form: per adapted layer a
/// bottleneck down/up projection pair, chained across layers through the
/// caller-owned ChainState exactly like the training-side stack chains
/// adapter outputs (DESIGN.md §12). The gated form pools Mean(H_P^l) over
/// the whole sequence and therefore cannot take the KV-cached path;
/// exports of gated stacks are rejected at the source.
///
/// All members are set at construction and never mutated, so one instance
/// may be shared freely across threads (the swap protocol publishes
/// shared_ptr<const PositionWiseAdapter> snapshots).
class PositionWiseAdapter {
 public:
  /// Deep-copied weights for one adapted layer. Tensors are detached
  /// (requires_grad = false) and owned exclusively by this adapter.
  struct LayerWeights {
    int layer = 0;               // 0-based transformer layer index
    tensor::Tensor down_weight;  // [bottleneck, model_dim]
    tensor::Tensor down_bias;    // [bottleneck]
    tensor::Tensor up_weight;    // [model_dim, bottleneck]
    tensor::Tensor up_bias;      // [model_dim]
  };

  /// Cross-layer chain state for ONE forward pass. The chain tensor is
  /// [T, D] over the rows of the current forward; every op that touches it
  /// is row-wise, so a packed ragged batch threads one ChainState for all
  /// rows and stays bit-exact per row with the single-sequence pass.
  struct ChainState {
    tensor::Tensor chain;
  };

  /// `layers` must be sorted by ascending layer index with consistent
  /// shapes; CHECK-fails otherwise (registry loads validate before
  /// constructing).
  PositionWiseAdapter(size_t model_dim, size_t bottleneck,
                      AdapterAttachment attachment,
                      std::vector<LayerWeights> layers);

  size_t model_dim() const { return model_dim_; }
  size_t bottleneck() const { return bottleneck_; }
  AdapterAttachment attachment() const { return attachment_; }
  const std::vector<LayerWeights>& layers() const { return layers_; }
  bool IsAdapted(int layer) const;

  /// Adapter delta for `layer` given the sublayer input [T, D]; returns an
  /// undefined Tensor for unadapted layers (chain state untouched, exactly
  /// like the training stack skipping a layer). Arithmetic is
  /// op-for-op identical to KnowledgeAdapterStack's ungated Delta:
  ///   combined = chain.defined() ? input + chain : input
  ///   hidden   = Relu(combined @ W_down^T + b_down)
  ///   chain    = hidden @ W_up^T + b_up        (also the returned delta)
  tensor::Tensor Delta(int layer, const tensor::Tensor& sublayer_input,
                       ChainState* state) const;

 private:
  size_t model_dim_;
  size_t bottleneck_;
  AdapterAttachment attachment_;
  std::vector<LayerWeights> layers_;
  std::vector<int> layer_to_slot_;  // dense layer -> layers_ index, -1 = none
};

/// FfnHook/AttnHook bridge so every forward (full recompute, the cached
/// engine's BatchedDecodeSession::Step, GreedyDecode references) runs a
/// PositionWiseAdapter through the ordinary ForwardOptions plumbing.
/// Position-wise (SequenceStateful() stays false), so it keeps the fast
/// KV-cached route. Holds per-forward chain state: one hook instance per
/// concurrent forward, not shared across threads.
class PositionWiseAdapterHook : public FfnHook, public AttnHook {
 public:
  /// `adapter` may be nullptr (base model: no deltas, empty Options()).
  /// Not owned; must outlive the hook.
  explicit PositionWiseAdapterHook(const PositionWiseAdapter* adapter)
      : adapter_(adapter) {}

  void BeginForward() override { state_.chain = tensor::Tensor(); }

  tensor::Tensor FfnDelta(int layer, const tensor::Tensor& ffn_input) override;
  tensor::Tensor AttnDelta(int layer,
                           const tensor::Tensor& attn_input) override;

  /// ForwardOptions wired to this hook on the attachment's sublayer
  /// (empty options when constructed with a null adapter).
  ForwardOptions Options();

 private:
  const PositionWiseAdapter* adapter_;
  PositionWiseAdapter::ChainState state_;
};

}  // namespace infuserki::model

#endif  // INFUSERKI_MODEL_SERVE_ADAPTER_H_
