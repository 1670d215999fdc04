#include "net/network.h"

#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "net/message.h"
#include "util/timer.h"
#include "util/trace.h"

namespace fra {

Network::SiloInstruments Network::InstrumentsFor(int silo_id) {
  std::lock_guard<std::mutex> lock(instruments_mu_);
  const auto it = instruments_.find(silo_id);
  if (it != instruments_.end()) return it->second;
  const MetricLabels labels = {{"silo", std::to_string(silo_id)},
                               {"transport", transport_name()}};
  MetricsRegistry& registry = MetricsRegistry::Default();
  const SiloInstruments instruments{
      &registry.GetCounter("fra_silo_requests_total", labels),
      &registry.GetCounter("fra_silo_timeouts_total", labels)};
  return instruments_.emplace(silo_id, instruments).first->second;
}

// The transport-agnostic accounting point (every Call and CallAsync of
// both substrates lands here): successful round trips count toward
// fra_silo_requests_total, and any Unavailable outcome — deadline
// expiry, refused connection, hung or unregistered silo — toward
// fra_silo_timeouts_total.
void Network::RecordOutcome(int silo_id, const Status& status,
                            double micros) {
  const SiloInstruments instruments = InstrumentsFor(silo_id);
  if (status.ok()) {
    instruments.requests_total->Increment();
  } else if (status.IsUnavailable()) {
    instruments.timeouts_total->Increment();
  }
  if (SiloCallObserver* observer = call_observer()) {
    observer->OnSiloCall(silo_id, status, micros);
  }
}

// Responses are stripped of their span section BEFORE any decoder sees
// the payload, so the wire extension is invisible to the message layer;
// ingestion is a no-op while the provider-side Tracer is disabled.
void Network::IngestResponseSpans(int silo_id,
                                  std::vector<uint8_t>* response) {
  std::vector<SpanRecord> records = ExtractSpanSection(response);
  if (!records.empty()) {
    Tracer::Get().Ingest(std::move(records),
                         "silo=" + std::to_string(silo_id));
  }
}

Result<std::vector<uint8_t>> Network::Call(
    int silo_id, const std::vector<uint8_t>& request) {
  Timer timer;
  Result<std::vector<uint8_t>> response = CallImpl(silo_id, request);
  if (response.ok()) IngestResponseSpans(silo_id, &*response);
  RecordOutcome(silo_id, response.status(), timer.ElapsedMicros());
  return response;
}

Network::CallCallback Network::Completion(int silo_id, CallCallback done) {
  const auto start = std::chrono::steady_clock::now();
  return [this, silo_id, start,
          done = std::move(done)](Result<std::vector<uint8_t>> response) {
    const double micros =
        std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
            std::chrono::steady_clock::now() - start)
            .count();
    if (response.ok()) IngestResponseSpans(silo_id, &*response);
    RecordOutcome(silo_id, response.status(), micros);
    done(std::move(response));
  };
}

void Network::CallAsync(int silo_id, const std::vector<uint8_t>& request,
                        CallCallback done) {
  CallAsyncImpl(silo_id, request, Completion(silo_id, std::move(done)));
}

void Network::CallAsyncImpl(int silo_id, const std::vector<uint8_t>& request,
                            CallCallback done) {
  done(CallImpl(silo_id, request));
}

void Network::CallAsyncChunks(int silo_id, std::vector<BufferRef> chunks,
                              CallCallback done) {
  CallAsyncChunksImpl(silo_id, std::move(chunks),
                      Completion(silo_id, std::move(done)));
}

void Network::CallAsyncChunksImpl(int silo_id, std::vector<BufferRef> chunks,
                                  CallCallback done) {
  size_t total = 0;
  for (const BufferRef& chunk : chunks) total += chunk.size();
  std::vector<uint8_t> request = BufferPool::Default().Acquire(total);
  for (const BufferRef& chunk : chunks) {
    request.insert(request.end(), chunk.data(), chunk.data() + chunk.size());
  }
  chunks.clear();  // return the per-chunk buffers to the pool now
  CallAsyncImpl(silo_id, request, std::move(done));
  // CallAsyncImpl must not retain the reference past return (its callers
  // pass stack vectors), so the joined buffer can go back to the pool.
  BufferPool::Default().Release(std::move(request));
}

Status InProcessNetwork::RegisterSilo(int silo_id, SiloEndpoint* endpoint) {
  if (endpoint == nullptr) {
    return Status::InvalidArgument("null silo endpoint");
  }
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = endpoints_.emplace(silo_id, endpoint);
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists("silo id " + std::to_string(silo_id) +
                                 " already registered");
  }
  return Status::OK();
}

Result<std::vector<uint8_t>> InProcessNetwork::CallImpl(
    int silo_id, const std::vector<uint8_t>& request) {
  FRA_TRACE_SPAN("net.inprocess.call");
  SiloEndpoint* endpoint = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = endpoints_.find(silo_id);
    if (it == endpoints_.end()) {
      return Status::Unavailable("no silo registered under id " +
                                 std::to_string(silo_id));
    }
    endpoint = it->second;
  }

  // The silo handler runs on the caller's thread, so the active trace id
  // reaches it through the thread-local context without an envelope; only
  // the byte accounting charges the envelope size TCP would ship, keeping
  // the two transports' measured communication cost identical. (The
  // response-side span section is NOT charged: its size varies with the
  // compiled-in span set, which would make measured communication depend
  // on the tracing build flag.)
  const size_t request_bytes =
      request.size() + (CurrentTraceId() != 0 ? kTraceEnvelopeBytes : 0);
  // A traced exchange collects the handler's spans exactly as a TCP silo
  // would, then ingests them directly — same stitched trace, same
  // silo=<id> tags, no wire bytes.
  std::optional<SpanCollector> collector;
  if (CurrentTraceId() != 0) collector.emplace();
  // Borrowed-view dispatch: the silo decodes the caller's encoded bytes
  // in place — the zero-copy half of the in-process transport.
  Result<std::vector<uint8_t>> handled =
      endpoint->HandleMessageView(ConstByteSpan(request));
  if (collector.has_value()) {
    std::vector<SpanRecord> records = collector->Take();
    collector.reset();
    if (!records.empty()) {
      Tracer::Get().Ingest(std::move(records),
                           "silo=" + std::to_string(silo_id));
    }
  }
  FRA_ASSIGN_OR_RETURN(std::vector<uint8_t> response, std::move(handled));
  stats_.RecordExchange(request_bytes, response.size());

  if (latency_.fixed_micros > 0.0 || latency_.per_kb_micros > 0.0) {
    const double kb =
        static_cast<double>(request.size() + response.size()) / 1024.0;
    const double micros = latency_.fixed_micros + latency_.per_kb_micros * kb;
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::micro>(micros));
  }
  return response;
}

size_t InProcessNetwork::num_silos() const {
  std::lock_guard<std::mutex> lock(mu_);
  return endpoints_.size();
}

std::vector<int> InProcessNetwork::silo_ids() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int> ids;
  ids.reserve(endpoints_.size());
  for (const auto& [id, endpoint] : endpoints_) ids.push_back(id);
  return ids;
}

}  // namespace fra
