#ifndef ISLA_DISTRIBUTED_MESSAGE_H_
#define ISLA_DISTRIBUTED_MESSAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/group_by.h"
#include "core/options.h"
#include "stats/moments.h"

namespace isla {
namespace distributed {

/// Wire-format message kinds. The distributed mode (§VII-E: "computations
/// are processed in each subsidiary; the center node then collects the
/// partial results") is simulated in-process, but every coordinator/worker
/// exchange round-trips through these serialized frames so the message
/// protocol is real.
enum class MessageType : uint32_t {
  kPilotRequest = 1,
  kPilotResponse = 2,
  kQueryPlan = 3,
  kPartialResult = 4,
  kGroupedScanRequest = 5,
  kGroupedScanResponse = 6,
  kError = 7,
  kRegister = 8,
  kRegisterAck = 9,
  kSketchScanRequest = 10,
  kSketchScanResponse = 11,
  kShardFetchRequest = 12,
  kShardBlockChunk = 13,
};

/// Coordinator → worker: draw `sample_count` uniform pilot samples on the
/// stream Hash(seed, worker_id) (core::PilotShard).
struct PilotRequest {
  uint64_t query_id = 0;
  uint64_t sample_count = 0;
  uint64_t seed = 0;
};

/// Worker → coordinator: mergeable pilot statistics of the local shard.
struct PilotResponse {
  uint64_t query_id = 0;
  uint64_t worker_id = 0;
  uint64_t block_rows = 0;    // local |B_j|
  uint64_t count = 0;         // pilot samples drawn
  double mean = 0.0;          // Welford mean (Chan-mergeable with m2)
  double m2 = 0.0;            // Welford sum of squared deviations
  double min_value = 0.0;     // local minimum seen
};

/// Coordinator → worker: everything needed to run Algorithms 1 + 2 locally.
struct QueryPlan {
  uint64_t query_id = 0;
  uint64_t sample_count = 0;  // this worker's share of m
  uint64_t seed = 0;
  double sketch0 = 0.0;       // shifted domain
  double sigma = 0.0;
  double shift = 0.0;
  core::IslaOptions options;
};

/// Worker → coordinator: the block's partial answer plus the streamed
/// moments (so the coordinator could continue in online mode, §VII-A).
struct PartialResult {
  uint64_t query_id = 0;
  uint64_t worker_id = 0;
  uint64_t block_rows = 0;
  uint64_t samples_drawn = 0;
  double avg = 0.0;           // shifted domain
  uint64_t s_count = 0;
  uint64_t l_count = 0;
  uint64_t iterations = 0;
  double alpha = 0.0;
  // S/L power sums for continuation.
  double s_sum = 0.0, s_sum2 = 0.0, s_sum3 = 0.0;
  double l_sum = 0.0, l_sum2 = 0.0, l_sum3 = 0.0;
};

/// Coordinator → worker: one phase of a grouped/predicated query on this
/// worker's shard. The predicate and group clauses cross the wire; the
/// columns stay on the worker. `sample_count == 0` is the metadata round
/// (the worker reports shard rows and draws nothing). The worker's RNG
/// stream is Hash(stream_seed, worker_id) — the identical derivation the
/// single-node engine uses per block, which is what makes loopback
/// execution bit-identical to local execution.
struct GroupedScanRequest {
  uint64_t query_id = 0;
  uint64_t sample_count = 0;
  uint64_t stream_seed = 0;
  uint64_t has_predicate = 0;
  core::PredicateOp op = core::PredicateOp::kGe;
  double literal = 0.0;
  uint64_t has_group = 0;
};

/// Worker → coordinator: the shard's grouped partial. Variable-length: a
/// group count followed by (key, n, mean, m2) records in ascending key
/// order. GroupMoments carries the complete merge state, so the
/// coordinator's merge of decoded partials is bit-identical to the local
/// engine's merge of in-memory ones.
struct GroupedScanResponse {
  uint64_t query_id = 0;
  uint64_t worker_id = 0;
  core::GroupedBlockPartial partial;
};

/// Coordinator → worker: a grouped scan phase that additionally folds every
/// routed value into one quantile sketch per group. Same fields as
/// GroupedScanRequest — the tag alone turns sketch accumulation on. The
/// summary parameters (q, bins, top-k) never cross the wire: they are pure
/// post-processing the coordinator applies after the merge, so the shards
/// stay oblivious to what question the sketches will answer.
struct SketchScanRequest {
  GroupedScanRequest scan;
};

/// Worker → coordinator: the shard's grouped partial plus its per-group
/// sketch state. The sketch blobs carry the complete compactor state —
/// levels, per-level parities, error weight — so the coordinator's merge of
/// decoded sketches is bit-identical to the local engine's merge of
/// in-memory ones.
struct SketchScanResponse {
  uint64_t query_id = 0;
  uint64_t worker_id = 0;
  core::GroupedBlockPartial partial;  // sketches ride in partial.sketches
};

/// Either direction: a Status crossing the wire. The in-process loopback
/// transport returns Result errors directly, but over TCP a worker that
/// fails a request must still answer — the server wraps the Status in this
/// frame and the TcpTransport unwraps it back into a Status, so remote
/// failures surface with the same code and message as local ones.
struct ErrorFrame {
  uint64_t code = 0;  // StatusCode, validated on decode
  std::string message;

  static ErrorFrame FromStatus(const Status& status) {
    return ErrorFrame{static_cast<uint64_t>(status.code()),
                      status.message()};
  }
  Status ToStatus() const {
    return Status(static_cast<StatusCode>(code), message);
  }
};

/// Cap on the message text of an ErrorFrame; longer frames are Corruption
/// (a garbage length field must not drive a huge allocation).
inline constexpr uint64_t kMaxErrorMessageBytes = 4096;

/// Worker → registry: "shard `shard_id` is servable at host:port". Sent
/// once when a worker daemon starts and then re-sent as a heartbeat on the
/// same connection; the registry treats a dropped connection or a stale
/// heartbeat as the replica going dark. Re-sending after a reconnect is
/// re-registration — that is how a restarted worker heals the cluster
/// without anyone else restarting. `shard_id` doubles as the worker id the
/// RNG streams derive from, so every replica of a shard must announce the
/// same id (which is exactly what makes replica failover answer-preserving).
struct RegisterFrame {
  uint64_t shard_id = 0;
  uint64_t port = 0;        // where the worker's WorkerServer listens
  uint64_t block_rows = 0;  // |B_j| of the announced shard
  uint64_t fingerprint = 0;  // machine-portable shard data fingerprint
  std::string host;         // advertised address, e.g. "127.0.0.1"
};

/// Why a registration was refused. Carried in RegisterAck so a
/// mis-provisioned worker daemon can log *why* it is being kept out of the
/// placement instead of silently heartbeating into a refusal forever.
enum class RegisterRefusal : uint64_t {
  kNone = 0,
  kFingerprintMismatch = 1,  // same shard id, different data — never place
  kRowsMismatch = 2,         // row count disagrees with the canonical shard
};

/// Registry → worker: heartbeat acknowledgement. `known_shards` is the
/// registry's current count of live shards — a worker daemon can log it to
/// show cluster convergence. `epoch` is the registry's placement-lease
/// epoch at ack time (bumped whenever membership changes), so workers and
/// probes can observe placement convergence without a second protocol.
struct RegisterAck {
  uint64_t shard_id = 0;  // echoed
  uint64_t accepted = 0;  // 0/1
  uint64_t reason = 0;    // RegisterRefusal, kNone when accepted
  uint64_t known_shards = 0;
  uint64_t epoch = 0;
};

/// Cap on the advertised host of a RegisterFrame (same rationale as
/// kMaxErrorMessageBytes).
inline constexpr uint64_t kMaxHostBytes = 256;

/// Which row-aligned column of a shard a fetch addresses. A shard is up to
/// three parallel blocks (values always; predicate/keys optional), and the
/// streaming protocol moves them one column at a time so resume offsets
/// stay per-block.
inline constexpr uint64_t kShardColumnValues = 0;
inline constexpr uint64_t kShardColumnPredicate = 1;
inline constexpr uint64_t kShardColumnKeys = 2;

/// Joiner → donor replica: "send me rows of shard `shard_id`, column
/// `column`, starting at `start_row`". Chunked and offset-addressed so a
/// stream that dies mid-transfer resumes at block granularity — the joiner
/// re-asks from the first row it has not durably written, on a fresh
/// connection if need be, and never has to restart the shard from zero.
struct ShardFetchRequest {
  uint64_t shard_id = 0;
  uint64_t column = 0;     // kShardColumnValues/Predicate/Keys
  uint64_t start_row = 0;  // resume offset
  uint64_t max_rows = 0;   // cap on rows in the reply chunk; 0 = donor picks
};

/// Donor → joiner: one CRC-guarded chunk of a shard column. `total_rows`
/// lets the joiner size the transfer up front; `column_present == 0` means
/// the shard has no such column (predicate/keys are optional) and carries
/// no rows. The CRC covers the raw f64 payload bytes and is verified at
/// decode — a corrupted chunk surfaces as Corruption (retryable) before a
/// single damaged row can reach the joiner's disk.
struct ShardBlockChunk {
  uint64_t shard_id = 0;        // echoed
  uint64_t column = 0;          // echoed
  uint64_t column_present = 0;  // 0/1
  uint64_t total_rows = 0;      // rows in the whole column block
  uint64_t start_row = 0;       // first row of this chunk
  uint64_t crc = 0;             // CRC32 of the payload bytes (zero-extended)
  std::vector<double> rows;
};

/// Cap on the rows of one ShardBlockChunk; fetches asking for more are
/// clamped by the donor and frames claiming more are Corruption (a garbage
/// length field must not drive a huge allocation).
inline constexpr uint64_t kMaxShardChunkRows = 65536;

/// Serialization: little-endian fixed-width frames with a leading
/// MessageType tag. Decoding validates the tag and the exact frame length
/// and fails with Corruption otherwise.
std::string Encode(const PilotRequest& m);
std::string Encode(const PilotResponse& m);
std::string Encode(const QueryPlan& m);
std::string Encode(const PartialResult& m);
std::string Encode(const GroupedScanRequest& m);
std::string Encode(const GroupedScanResponse& m);
std::string Encode(const SketchScanRequest& m);
std::string Encode(const SketchScanResponse& m);
std::string Encode(const ErrorFrame& m);
std::string Encode(const RegisterFrame& m);
std::string Encode(const RegisterAck& m);
std::string Encode(const ShardFetchRequest& m);
std::string Encode(const ShardBlockChunk& m);

/// Peeks the type tag of a frame.
Result<MessageType> PeekType(const std::string& frame);

Result<PilotRequest> DecodePilotRequest(const std::string& frame);
Result<PilotResponse> DecodePilotResponse(const std::string& frame);
Result<QueryPlan> DecodeQueryPlan(const std::string& frame);
Result<PartialResult> DecodePartialResult(const std::string& frame);
Result<GroupedScanRequest> DecodeGroupedScanRequest(const std::string& frame);
Result<GroupedScanResponse> DecodeGroupedScanResponse(
    const std::string& frame);
Result<SketchScanRequest> DecodeSketchScanRequest(const std::string& frame);
Result<SketchScanResponse> DecodeSketchScanResponse(const std::string& frame);
Result<ErrorFrame> DecodeErrorFrame(const std::string& frame);
Result<RegisterFrame> DecodeRegisterFrame(const std::string& frame);
Result<RegisterAck> DecodeRegisterAck(const std::string& frame);
Result<ShardFetchRequest> DecodeShardFetchRequest(const std::string& frame);
Result<ShardBlockChunk> DecodeShardBlockChunk(const std::string& frame);

}  // namespace distributed
}  // namespace isla

#endif  // ISLA_DISTRIBUTED_MESSAGE_H_
