#include "layer_trace.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "net/message.h"
#include "util/serialize.h"

namespace perfbench {
namespace {

// A span opened at the seam: batch, silo, thread, start time and the
// request's leading bytes (gathered across chunks for scatter calls).
Span Open(const SpanLog& log, int silo_id,
          const std::vector<fra::ConstByteSpan>& parts) {
  Span span;
  span.batch = log.batch();
  span.silo = silo_id;
  span.thread = std::this_thread::get_id();
  size_t total = 0;
  for (const fra::ConstByteSpan& part : parts) {
    const size_t take =
        std::min(part.size(), Span::kHeadBytes - span.head_len);
    std::copy_n(part.data(), take, span.head.begin() + span.head_len);
    span.head_len = static_cast<uint8_t>(span.head_len + take);
    total += part.size();
  }
  span.request_bytes = static_cast<uint32_t>(total);
  span.start_ns = NowNanos();
  return span;
}

void Close(Span* span, const fra::Result<std::vector<uint8_t>>& response) {
  span->end_ns = NowNanos();
  span->ok = response.ok();
  span->response_bytes =
      response.ok() ? static_cast<uint32_t>(response->size()) : 0;
}

}  // namespace

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SpanLog::Add(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> SpanLog::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  out.swap(spans_);
  return out;
}

fra::Result<std::vector<uint8_t>> TracingNetwork::CallImpl(
    int silo_id, const std::vector<uint8_t>& request) {
  Span span = Open(*calls_, silo_id, {fra::ConstByteSpan(request)});
  fra::Result<std::vector<uint8_t>> response = inner_->Call(silo_id, request);
  Close(&span, response);
  calls_->Add(span);
  return response;
}

void TracingNetwork::CallAsyncImpl(int silo_id,
                                   const std::vector<uint8_t>& request,
                                   CallCallback done) {
  Span span = Open(*calls_, silo_id, {fra::ConstByteSpan(request)});
  inner_->CallAsync(
      silo_id, request,
      [this, span, done = std::move(done)](
          fra::Result<std::vector<uint8_t>> response) mutable {
        Close(&span, response);
        calls_->Add(span);
        done(std::move(response));
      });
}

void TracingNetwork::CallAsyncChunksImpl(int silo_id,
                                         std::vector<fra::BufferRef> chunks,
                                         CallCallback done) {
  std::vector<fra::ConstByteSpan> parts;
  parts.reserve(chunks.size());
  for (const fra::BufferRef& chunk : chunks) {
    parts.emplace_back(chunk.data(), chunk.size());
  }
  Span span = Open(*calls_, silo_id, parts);
  inner_->CallAsyncChunks(
      silo_id, std::move(chunks),
      [this, span, done = std::move(done)](
          fra::Result<std::vector<uint8_t>> response) mutable {
        Close(&span, response);
        calls_->Add(span);
        done(std::move(response));
      });
}

fra::Result<std::vector<uint8_t>> TracingEndpoint::HandleMessage(
    const std::vector<uint8_t>& request) {
  Span span = Open(*handles_, silo_id_, {fra::ConstByteSpan(request)});
  fra::Result<std::vector<uint8_t>> response = inner_->HandleMessage(request);
  Close(&span, response);
  handles_->Add(span);
  return response;
}

fra::Result<std::vector<uint8_t>> TracingEndpoint::HandleMessageView(
    fra::ConstByteSpan request) {
  Span span = Open(*handles_, silo_id_, {request});
  fra::Result<std::vector<uint8_t>> response =
      inner_->HandleMessageView(request);
  Close(&span, response);
  handles_->Add(span);
  return response;
}

std::string RangeKey(const fra::QueryRange& range) {
  fra::BinaryWriter writer;
  fra::SerializeRange(range, &writer);
  const std::vector<uint8_t> bytes = writer.Release();
  return std::string(bytes.begin(), bytes.end());
}

std::string RangeKeyOf(const Span& span) {
  const uint8_t type = span.type();
  if (type != static_cast<uint8_t>(fra::MessageType::kAggregateRequest) &&
      type != static_cast<uint8_t>(fra::MessageType::kCellVectorRequest)) {
    return std::string();
  }
  fra::BinaryReader reader(span.head.data() + 1, span.head_len - 1u);
  fra::QueryRange range;
  if (!fra::DeserializeRange(&reader, &range).ok()) return std::string();
  return RangeKey(range);
}

}  // namespace perfbench
