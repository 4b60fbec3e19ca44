#include "components/queue_staging.h"

#include "core/build_context.h"
#include "util/errors.h"

namespace rlgraph {

namespace {

// Resolve a box space to a concrete zero tensor (unknown dims -> 1).
Tensor zeros_for(const SpacePtr& space) {
  const auto& box = static_cast<const BoxSpace&>(*space);
  std::vector<int64_t> dims = box.full_shape().dims().to_vector();
  for (int64_t& d : dims) {
    if (d == kUnknownDim) d = 1;
  }
  return Tensor::zeros(box.dtype(), Shape(dims));
}

}  // namespace

QueueComponent::QueueComponent(std::string name,
                               std::shared_ptr<SharedTensorQueue> queue,
                               std::vector<SpacePtr> slot_spaces)
    : Component(std::move(name)), queue_(std::move(queue)),
      slot_spaces_(std::move(slot_spaces)) {
  RLG_REQUIRE(queue_ != nullptr, "QueueComponent requires a queue");
  RLG_REQUIRE(!slot_spaces_.empty(), "queue slot signature required");

  // enqueue(leaves...) -> queue size after insert (blocks when full).
  register_api("enqueue",
               [this](BuildContext& ctx, const OpRecs& inputs) -> OpRecs {
                 auto q = queue_;
                 CustomKernel kernel = [q](const std::vector<Tensor>& in) {
                   bool ok = q->push(TensorSlot(in.begin(), in.end()));
                   RLG_REQUIRE(ok, "enqueue on closed queue");
                   return std::vector<Tensor>{Tensor::scalar_int(
                       static_cast<int32_t>(q->size()))};
                 };
                 return graph_fn_custom(ctx, "enqueue", kernel, inputs,
                                        {IntBox(1 << 30)});
               });

  // dequeue() -> leaves (blocks until an element is available).
  register_api("dequeue",
               [this](BuildContext& ctx, const OpRecs& inputs) -> OpRecs {
                 auto q = queue_;
                 size_t arity = slot_spaces_.size();
                 CustomKernel kernel =
                     [q, arity](const std::vector<Tensor>&) {
                       auto slot = q->pop();
                       RLG_REQUIRE(slot.has_value(),
                                   "dequeue on closed, drained queue");
                       RLG_REQUIRE(slot->size() == arity,
                                   "queue slot arity mismatch");
                       return *std::move(slot);
                     };
                 return graph_fn_custom(ctx, "dequeue", kernel, inputs,
                                        slot_spaces_);
               });
}

StagingArea::StagingArea(std::string name, std::vector<SpacePtr> slot_spaces)
    : Component(std::move(name)), slot_spaces_(std::move(slot_spaces)),
      state_(std::make_shared<State>()) {
  RLG_REQUIRE(!slot_spaces_.empty(), "staging slot signature required");

  register_api(
      "stage_and_get",
      [this](BuildContext& ctx, const OpRecs& inputs) -> OpRecs {
        auto state = state_;
        std::vector<SpacePtr> spaces = slot_spaces_;
        CustomKernel kernel = [state, spaces](const std::vector<Tensor>& in) {
          TensorSlot previous;
          if (state->filled) {
            previous = state->slot;
          } else {
            previous.reserve(spaces.size());
            for (const SpacePtr& s : spaces) previous.push_back(zeros_for(s));
          }
          state->slot.assign(in.begin(), in.end());
          state->filled = true;
          return previous;
        };
        return graph_fn_custom(ctx, "stage_and_get", kernel, inputs,
                               slot_spaces_);
      });
}

}  // namespace rlgraph
