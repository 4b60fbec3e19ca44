// Failure-path tests for the RLGW weight wire format behind
// Agent::export_weights() / import_weights(): truncated payloads, wrong
// magic/version, corrupt metadata and architecture mismatches must all throw
// SerializationError — never crash, never half-apply.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>

#include "agents/dqn_agent.h"
#include "tensor/tensor_io.h"
#include "util/random.h"
#include "util/serialization.h"

namespace rlgraph {
namespace {

Json small_dqn_config() {
  return Json::parse(R"({
    "type": "dqn",
    "network": [{"type": "dense", "units": 8, "activation": "relu"}],
    "memory": {"type": "replay", "capacity": 64},
    "optimizer": {"type": "adam", "learning_rate": 0.001},
    "exploration": {"eps_start": 1.0, "eps_end": 0.05, "decay_steps": 100},
    "update": {"batch_size": 8, "sync_interval": 25, "min_records": 16},
    "discount": 0.95
  })");
}

std::unique_ptr<DQNAgent> make_built_agent(int64_t obs_dim = 4,
                                           int64_t actions = 3) {
  auto agent = std::make_unique<DQNAgent>(
      small_dqn_config(), FloatBox(Shape{obs_dim}), IntBox(actions));
  agent->build();
  return agent;
}

// Patch little-endian u32 at a byte offset.
void poke_u32(std::vector<uint8_t>& bytes, size_t offset, uint32_t v) {
  for (int i = 0; i < 4; ++i) bytes[offset + i] = (v >> (8 * i)) & 0xFF;
}

// One wire tensor (tensor_io.h) with caller-chosen header fields, followed
// by `payload` data bytes.
std::vector<uint8_t> wire_tensor(uint8_t dtype, uint32_t rank,
                                 const std::vector<int64_t>& dims,
                                 uint64_t nbytes, size_t payload) {
  ByteWriter w;
  w.write_u8(dtype);
  w.write_u32(rank);
  for (int64_t d : dims) w.write_i64(d);
  w.write_u64(nbytes);
  std::vector<uint8_t> data(payload, 0);
  w.write_bytes(data.data(), data.size());
  return w.take();
}

Tensor decode(std::vector<uint8_t> bytes) {
  ByteReader r(std::move(bytes));
  return read_tensor(&r);
}

TEST(TensorWireTest, IntactTensorRoundTrips) {
  Tensor t = Tensor::from_floats(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  ByteWriter w;
  write_tensor(&w, t);
  EXPECT_TRUE(decode(w.take()).equals(t));
}

TEST(TensorWireTest, HugeRankThrowsBeforeAllocating) {
  // A rank word of 0xFFFFFFFF would ask for a 32 GiB dims array; the
  // decoder must reject it from the bytes left in the stream.
  EXPECT_THROW(decode(wire_tensor(0, 0xFFFFFFFFu, {2, 3}, 24, 24)),
               SerializationError);
}

TEST(TensorWireTest, RankBeyondTheStreamThrows) {
  // Rank 3 declared, only two dims and a short tail follow.
  EXPECT_THROW(decode(wire_tensor(0, 3, {2, 3}, 0, 0)), SerializationError);
}

TEST(TensorWireTest, BadDtypeTagThrows) {
  EXPECT_THROW(decode(wire_tensor(200, 1, {4}, 16, 16)), SerializationError);
}

TEST(TensorWireTest, NegativeDimThrows) {
  EXPECT_THROW(decode(wire_tensor(0, 2, {-2, 3}, 24, 24)),
               SerializationError);
}

TEST(TensorWireTest, ByteCountMismatchThrows) {
  EXPECT_THROW(decode(wire_tensor(0, 2, {2, 3}, 20, 24)), SerializationError);
}

TEST(WeightSnapshotTest, TruncatedPayloadThrowsTyped) {
  auto agent = make_built_agent();
  std::vector<uint8_t> bytes = agent->export_weights();
  ASSERT_GT(bytes.size(), 16u);
  // Cut at many depths: inside the header, inside a name, inside tensor
  // data. Every cut must surface as SerializationError.
  for (size_t keep : {size_t{0}, size_t{3}, size_t{7}, size_t{11},
                      size_t{20}, bytes.size() / 2, bytes.size() - 1}) {
    std::vector<uint8_t> cut(bytes.begin(),
                             bytes.begin() + static_cast<long>(keep));
    EXPECT_THROW(deserialize_weights(cut), SerializationError)
        << "cut at " << keep << " bytes";
    EXPECT_THROW(agent->import_weights(cut), SerializationError)
        << "cut at " << keep << " bytes";
  }
}

TEST(WeightSnapshotTest, WrongMagicThrowsTyped) {
  auto agent = make_built_agent();
  std::vector<uint8_t> bytes = agent->export_weights();
  poke_u32(bytes, 0, 0xDEADBEEF);
  EXPECT_THROW(deserialize_weights(bytes), SerializationError);
  EXPECT_THROW(agent->import_weights(bytes), SerializationError);
}

TEST(WeightSnapshotTest, UnsupportedVersionThrowsTyped) {
  auto agent = make_built_agent();
  std::vector<uint8_t> bytes = agent->export_weights();
  poke_u32(bytes, 4, 999);  // version field follows the magic
  EXPECT_THROW(deserialize_weights(bytes), SerializationError);
}

TEST(WeightSnapshotTest, InflatedCountReadsAsTruncation) {
  auto agent = make_built_agent();
  std::vector<uint8_t> bytes = agent->export_weights();
  uint32_t count = static_cast<uint32_t>(agent->get_weights().size());
  poke_u32(bytes, 8, count + 5);  // claim more entries than the payload has
  EXPECT_THROW(deserialize_weights(bytes), SerializationError);
}

TEST(WeightSnapshotTest, DeflatedCountReadsAsTrailingGarbage) {
  auto agent = make_built_agent();
  std::vector<uint8_t> bytes = agent->export_weights();
  uint32_t count = static_cast<uint32_t>(agent->get_weights().size());
  ASSERT_GT(count, 1u);
  poke_u32(bytes, 8, count - 1);  // leftover bytes after the declared entries
  EXPECT_THROW(deserialize_weights(bytes), SerializationError);
}

TEST(WeightSnapshotTest, InvalidDtypeTagThrowsTyped) {
  auto agent = make_built_agent();
  std::vector<uint8_t> bytes = agent->export_weights();
  // First entry: magic(4) + version(4) + count(4) + name_len(4) + name.
  uint32_t name_len = 0;
  std::memcpy(&name_len, bytes.data() + 12, sizeof(name_len));
  bytes[16 + name_len] = 0xFF;  // dtype tag
  EXPECT_THROW(deserialize_weights(bytes), SerializationError);
}

TEST(WeightSnapshotTest, ArchitectureMismatchThrowsBeforeMutation) {
  auto source = make_built_agent(4, 3);
  std::vector<uint8_t> bytes = source->export_weights();

  // A structurally different agent: same wire format, different variables.
  DQNAgent other(small_dqn_config(), FloatBox(Shape{6}), IntBox(5));
  other.build();
  auto before = other.get_weights();
  EXPECT_THROW(other.import_weights(bytes), SerializationError);
  // The failed import must not have touched any variable.
  auto after = other.get_weights();
  ASSERT_EQ(before.size(), after.size());
  for (const auto& [name, tensor] : before) {
    EXPECT_TRUE(after[name].equals(tensor)) << name;
  }
}

TEST(WeightSnapshotTest, SubsetSnapshotThrowsCountMismatch) {
  auto agent = make_built_agent();
  // A prefix export covers only part of the variable set; importing it as a
  // full snapshot must be rejected, not silently partially applied.
  std::vector<uint8_t> subset = agent->export_weights("agent/policy");
  ASSERT_LT(deserialize_weights(subset).size(), agent->get_weights().size());
  EXPECT_THROW(agent->import_weights(subset), SerializationError);
}

TEST(WeightSnapshotTest, IntactSnapshotStillRoundTrips) {
  auto source = make_built_agent();
  std::vector<uint8_t> bytes = source->export_weights();
  Json cfg = small_dqn_config();
  cfg["seed"] = Json(static_cast<int64_t>(777));
  DQNAgent restored(cfg, FloatBox(Shape{4}), IntBox(3));
  restored.build();
  restored.import_weights(bytes);
  auto want = source->get_weights();
  auto got = restored.get_weights();
  ASSERT_EQ(want.size(), got.size());
  for (const auto& [name, tensor] : want) {
    EXPECT_TRUE(got[name].equals(tensor)) << name;
  }
}

// --- RLGQ quantized snapshots -----------------------------------------------

// Patch a little-endian f32 at a byte offset.
void poke_f32(std::vector<uint8_t>& bytes, size_t offset, float v) {
  std::memcpy(bytes.data() + offset, &v, sizeof(v));
}

std::vector<Tensor> calibration_states(int64_t obs_dim) {
  Rng rng(31);
  std::vector<Tensor> states;
  for (int b = 0; b < 4; ++b) {
    std::vector<float> v(static_cast<size_t>(2 * obs_dim));
    for (float& x : v) x = static_cast<float>(rng.uniform(-1.5, 1.5));
    states.push_back(Tensor::from_floats(Shape{2, obs_dim}, v));
  }
  return states;
}

TEST(QuantizedSnapshotTest, RoundTripsBitExact) {
  auto source = make_built_agent();
  ASSERT_GT(source->enable_quantized_actions(calibration_states(4)), 0);
  std::vector<uint8_t> bytes = source->export_weights_quantized();

  auto restored = make_built_agent();
  ASSERT_FALSE(restored->quantized_actions_enabled());
  restored->import_weights_quantized(bytes);
  EXPECT_TRUE(restored->quantized_actions_enabled());

  // Identical int8 weights + scales: the restored agent's quantized plan
  // acts identically, and re-exporting reproduces the exact payload.
  Rng rng(55);
  std::vector<float> v(16 * 4);
  for (float& x : v) x = static_cast<float>(rng.uniform(-1.5, 1.5));
  Tensor obs = Tensor::from_floats(Shape{16, 4}, v);
  EXPECT_TRUE(source->get_actions_quantized(obs).equals(
      restored->get_actions_quantized(obs)));
  EXPECT_EQ(restored->export_weights_quantized(), bytes);
}

TEST(QuantizedSnapshotTest, CorruptScaleThrowsTyped) {
  auto source = make_built_agent();
  ASSERT_GT(source->enable_quantized_actions(calibration_states(4)), 0);
  std::vector<uint8_t> intact = source->export_weights_quantized();

  // First weight entry: magic(4) + version(4) + wcount(4) + name_len(4) +
  // name, then the f32 scale.
  uint32_t name_len = 0;
  std::memcpy(&name_len, intact.data() + 12, sizeof(name_len));
  const size_t first_scale = 16 + name_len;
  // The payload ends with the last activation-scale entry's f32.
  const size_t last_scale = intact.size() - 4;
  for (float bad : {0.0f, -1.0f, std::numeric_limits<float>::quiet_NaN(),
                    std::numeric_limits<float>::infinity()}) {
    for (size_t offset : {first_scale, last_scale}) {
      std::vector<uint8_t> bytes = intact;
      poke_f32(bytes, offset, bad);
      auto victim = make_built_agent();
      EXPECT_THROW(victim->import_weights_quantized(bytes),
                   SerializationError)
          << "scale " << bad << " at offset " << offset;
      // The rejected snapshot must not have installed a quantized plan.
      EXPECT_FALSE(victim->quantized_actions_enabled());
    }
  }
}

TEST(QuantizedSnapshotTest, TruncationAndWrongMagicThrowTyped) {
  auto source = make_built_agent();
  ASSERT_GT(source->enable_quantized_actions(calibration_states(4)), 0);
  std::vector<uint8_t> bytes = source->export_weights_quantized();
  for (size_t keep : {size_t{0}, size_t{3}, size_t{10}, size_t{21},
                      bytes.size() / 2, bytes.size() - 1}) {
    std::vector<uint8_t> cut(bytes.begin(),
                             bytes.begin() + static_cast<long>(keep));
    auto victim = make_built_agent();
    EXPECT_THROW(victim->import_weights_quantized(cut), SerializationError)
        << "cut at " << keep << " bytes";
  }
  std::vector<uint8_t> wrong = bytes;
  poke_u32(wrong, 0, 0xDEADBEEF);
  auto victim = make_built_agent();
  EXPECT_THROW(victim->import_weights_quantized(wrong), SerializationError);
  poke_u32(wrong, 0, 0x524C4751);  // restore magic, break the version
  poke_u32(wrong, 4, 999);
  EXPECT_THROW(victim->import_weights_quantized(wrong), SerializationError);
}

}  // namespace
}  // namespace rlgraph
