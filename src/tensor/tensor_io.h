// Tensor wire codec shared by the weight-snapshot format ("RLGW",
// agents/agent.cc) and the cross-process raylite transport (sample batches,
// parameter-server resync). One tensor serializes as:
//
//   u8  dtype tag
//   u32 rank, then rank x i64 dims
//   u64 byte count, then the raw little-endian buffer
//
// read_tensor validates the dtype tag, the rank against the bytes left, the
// dimension signs, and the byte count against the decoded shape, all before
// it allocates anything, throwing SerializationError on any mismatch — a
// truncated or corrupt stream never produces a silently wrong tensor or an
// allocation sized by a corrupt word.
#pragma once

#include "tensor/tensor.h"
#include "util/serialization.h"

namespace rlgraph {

void write_tensor(ByteWriter* writer, const Tensor& tensor);
Tensor read_tensor(ByteReader* reader);

// The validated header of one wire tensor; on return the reader stands at
// the tensor's `bytes` data bytes, which are known to be in the stream.
struct TensorHeader {
  DType dtype = DType::kFloat32;
  Shape shape;
  uint64_t bytes = 0;
};
TensorHeader read_tensor_header(ByteReader* reader);

}  // namespace rlgraph
