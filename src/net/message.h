#ifndef FRA_NET_MESSAGE_H_
#define FRA_NET_MESSAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "agg/aggregate.h"
#include "geo/range.h"
#include "util/buffer.h"
#include "util/result.h"
#include "util/serialize.h"
#include "util/status.h"
#include "util/trace.h"

namespace fra {

/// Hard upper bound on a single wire frame's payload, enforced on BOTH
/// sides of a connection. Receive side: a length prefix above this is
/// treated as a protocol violation and the connection dropped. Send
/// side: ValidateFramePayloadSize rejects the payload before any bytes
/// hit the socket — the length prefix is a u32, so an unchecked payload
/// over 4 GiB would be silently truncated by the cast and desync the
/// stream for every later frame on the connection.
constexpr uint32_t kMaxFrameBytes = 256u << 20;  // 256 MiB

/// OK when `payload_size` fits in one frame; OutOfRange otherwise.
Status ValidateFramePayloadSize(size_t payload_size);

/// Wire-level message kinds exchanged between the service provider and
/// data silos. Every provider<->silo interaction is one request/response
/// pair of these, serialised through BinaryWriter so that the measured
/// communication cost is real encoded bytes.
enum class MessageType : uint8_t {
  // Provider -> silo.
  kBuildGridRequest = 1,    // Alg. 1: ship your grid index
  kAggregateRequest = 2,    // local range aggregation (exact / LSR / OPTA)
  kCellVectorRequest = 3,   // NonIID-est: per-boundary-cell contributions
  kGridDeltaRequest = 4,    // delta sync: cells changed since last sync
  kAggregateBatchRequest = 5,  // coalesced: n embedded requests, one frame
  // Silo -> provider.
  kGridPayloadResponse = 17,
  kSummaryResponse = 18,
  kCellVectorResponse = 19,
  kErrorResponse = 20,
  kGridDeltaResponse = 21,
  kAggregateBatchResponse = 22,  // n embedded responses, positional
};

/// How a silo should answer an aggregate request locally.
enum class LocalQueryMode : uint8_t {
  kExact = 0,      // aggregate R-tree T_0 (EXACT baseline & plain estimators)
  kLsr = 1,        // LSR-Forest, Alg. 6
  kHistogram = 2,  // equi-depth histogram (OPTA baseline)
};

/// Trace envelope: when the provider executes a query under an active
/// trace (see util/trace.h), every request it sends is prefixed with
/// `u8 0xFA ‖ u64 trace_id` so the silo side records its spans under the
/// same trace id. 0xFA is reserved — it is not a MessageType — and the
/// envelope is optional: transports strip it before handing the payload
/// to the silo, and a payload that does not start with 0xFA simply has no
/// trace context (trace id 0). Responses are never wrapped; the provider
/// correlates them by the request/response pairing of the exchange.
constexpr uint8_t kTraceEnvelopeTag = 0xFA;
constexpr size_t kTraceEnvelopeBytes = 1 + sizeof(uint64_t);

/// Prefixes `payload` with the trace envelope.
std::vector<uint8_t> WrapWithTraceId(uint64_t trace_id,
                                     const std::vector<uint8_t>& payload);

/// If `payload` starts with a complete trace envelope, removes it and
/// returns the carried trace id; otherwise leaves the payload untouched
/// and returns 0. Never fails: a truncated envelope (< 9 bytes) is left
/// in place for the message decoder to reject.
uint64_t StripTraceEnvelope(std::vector<uint8_t>* payload);

/// Borrowed-view variant: advances `*payload` past the envelope instead
/// of erasing bytes, so transports can strip the envelope without the
/// memmove of the bytes behind it. The underlying buffer must outlive
/// the view.
uint64_t StripTraceEnvelopeView(ConstByteSpan* payload);

/// Span section: the reverse half of trace propagation. A silo that
/// recorded spans while serving a traced request ships them back as a
/// TOLERANT TRAILING SECTION on the response payload (single and batch
/// frames alike):
///
///   response_payload ‖ records_blob ‖ u32 blob_bytes ‖ u64 magic
///
/// where records_blob is `u32 count` followed by `count` records of
/// `u64 trace_id ‖ string name ‖ u64 start_nanos ‖ u64 duration_nanos`
/// (BinaryWriter little-endian encoding; SpanRecord::tag never crosses
/// the wire — the provider tags at ingest, since only it knows which
/// silo it called). The section is self-describing from the END of the
/// payload, so transports strip it before any message decoder runs and
/// old-format frames (no section) decode unchanged: a payload that does
/// not end with the magic — or whose claimed blob fails to parse
/// exactly — is simply a response without spans.
constexpr uint64_t kSpanSectionMagic = 0x4652415350414E31ULL;  // "FRASPAN1"
/// Footer bytes following the records blob (u32 blob_bytes + u64 magic).
constexpr size_t kSpanSectionFooterBytes = sizeof(uint32_t) + sizeof(uint64_t);

/// Appends the span section carrying `records` to `*payload` (no-op when
/// `records` is empty).
void AppendSpanSection(const std::vector<SpanRecord>& records,
                       std::vector<uint8_t>* payload);

/// If `*payload` ends with a well-formed span section, strips it and
/// returns the carried records; otherwise leaves the payload untouched
/// and returns an empty vector. Never fails — a malformed or absent
/// section just means "no spans".
std::vector<SpanRecord> ExtractSpanSection(std::vector<uint8_t>* payload);

/// Serialises a query range (1 tag byte + coordinates).
void SerializeRange(const QueryRange& range, BinaryWriter* writer);
Status DeserializeRange(BinaryReader* reader, QueryRange* out);

/// Request for a local range aggregation answer.
struct AggregateRequest {
  QueryRange range;
  LocalQueryMode mode = LocalQueryMode::kExact;
  // LSR parameters (ignored unless mode == kLsr).
  double epsilon = 0.1;
  double delta = 0.01;
  double sum0 = 0.0;

  std::vector<uint8_t> Encode() const;
  static Result<AggregateRequest> Decode(BinaryReader* reader);
};

/// Request for the NonIID-est per-cell contribution vector: the silo
/// reports, for every grid cell intersecting the *boundary* of the range,
/// the aggregate of its own objects within the range that
/// GridIndex::CellOf assigns to that cell.
struct CellVectorRequest {
  QueryRange range;
  LocalQueryMode mode = LocalQueryMode::kExact;  // kExact or kLsr
  double epsilon = 0.1;
  double delta = 0.01;
  double sum0 = 0.0;
  /// false (default): boundary cells only (the Sec. 4.2.2 communication
  /// optimisation). true: every intersecting cell, i.e. the unoptimised
  /// Alg. 3 vector — kept for the ablation bench.
  bool full_vector = false;

  std::vector<uint8_t> Encode() const;
  static Result<CellVectorRequest> Decode(BinaryReader* reader);
};

/// One boundary cell's contribution in a CellVectorResponse.
struct CellContribution {
  uint32_t cell_id = 0;
  AggregateSummary summary;
};

/// Reads the type tag without consuming the rest of the payload.
Result<MessageType> PeekMessageType(const std::vector<uint8_t>& payload);
Result<MessageType> PeekMessageType(ConstByteSpan payload);

/// Encoders for the response kinds.
std::vector<uint8_t> EncodeSummaryResponse(const AggregateSummary& summary);
std::vector<uint8_t> EncodeCellVectorResponse(
    const std::vector<CellContribution>& cells);
std::vector<uint8_t> EncodeGridPayloadResponse(
    const std::vector<uint8_t>& grid_bytes);
std::vector<uint8_t> EncodeErrorResponse(const Status& status);

/// Decoders; a kErrorResponse payload decodes into its carried Status.
Result<AggregateSummary> DecodeSummaryResponse(
    const std::vector<uint8_t>& payload);
Result<std::vector<CellContribution>> DecodeCellVectorResponse(
    const std::vector<uint8_t>& payload);
Result<std::vector<uint8_t>> DecodeGridPayloadResponse(
    const std::vector<uint8_t>& payload);

/// Encodes a plain grid-build request (type tag only).
std::vector<uint8_t> EncodeBuildGridRequest();

/// Batch frames (request coalescing): `n` independently encoded messages
/// packed into one wire exchange. Entries are opaque length-prefixed
/// payloads — each request entry is a complete encoded request and each
/// response entry a complete encoded response, so per-entry failures
/// travel as embedded kErrorResponse entries and one bad sub-query cannot
/// poison its batch. Entry order is positional: response entry i answers
/// request entry i. Batches must not nest.
std::vector<uint8_t> EncodeBatchRequest(
    const std::vector<std::vector<uint8_t>>& entries);
Result<std::vector<std::vector<uint8_t>>> DecodeBatchRequest(
    const std::vector<uint8_t>& payload);
std::vector<uint8_t> EncodeBatchResponse(
    const std::vector<std::vector<uint8_t>>& entries);
Result<std::vector<std::vector<uint8_t>>> DecodeBatchResponse(
    const std::vector<uint8_t>& payload);

/// Borrowed-view batch decoders: each returned span aliases `payload`'s
/// entry table in place (no per-entry copy) and is valid only while the
/// backing payload lives. The silo's batched dispatch and the
/// coalescer's response scatter both parse entries this way.
Result<std::vector<ConstByteSpan>> DecodeBatchRequestViews(
    ConstByteSpan payload);
Result<std::vector<ConstByteSpan>> DecodeBatchResponseViews(
    ConstByteSpan payload);

/// Delta sync (streaming ingest): the provider polls a silo for the grid
/// cells that changed since the last poll; the silo answers with their
/// full current summaries (idempotent replacement on the provider side).
///
/// The response carries a trailing `u64 data_version` — the silo's
/// monotonic ingest counter — so the provider can stamp its caches with
/// the update it just observed (docs/caching.md). The field is
/// backward/forward compatible: a decoder reads it only when the bytes
/// are present (`*data_version` = 0 otherwise), and pre-versioned
/// decoders ignore the trailing bytes.
std::vector<uint8_t> EncodeGridDeltaRequest();
std::vector<uint8_t> EncodeGridDeltaResponse(
    const std::vector<CellContribution>& cells, uint64_t data_version = 0);
Result<std::vector<CellContribution>> DecodeGridDeltaResponse(
    const std::vector<uint8_t>& payload, uint64_t* data_version = nullptr);

}  // namespace fra

#endif  // FRA_NET_MESSAGE_H_
