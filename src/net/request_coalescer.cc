#include "net/request_coalescer.h"

#include <algorithm>
#include <cstring>
#include <future>
#include <string>
#include <utility>

#include "net/message.h"
#include "net/reactor.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace fra {
namespace {

// Batch-size distribution buckets: powers of two up to well past any
// sensible max_batch_size.
const std::vector<double>& BatchSizeBuckets() {
  static const std::vector<double> kBuckets = {1,  2,  4,   8,   16,
                                               32, 64, 128, 256, 512};
  return kBuckets;
}

}  // namespace

RequestCoalescer::RequestCoalescer(Network* network, const Options& options)
    : network_(network), options_(options) {
  FRA_CHECK(network->reactor() != nullptr)
      << "request coalescing needs a reactor transport (TcpNetwork)";
  MetricsRegistry& registry = MetricsRegistry::Default();
  flushes_size_ =
      &registry.GetCounter("fra_batch_flushes_total", {{"reason", "size"}});
  flushes_deadline_ = &registry.GetCounter("fra_batch_flushes_total",
                                           {{"reason", "deadline"}});
  flushes_shutdown_ = &registry.GetCounter("fra_batch_flushes_total",
                                           {{"reason", "shutdown"}});
  batch_size_ =
      &registry.GetHistogram("fra_batch_size", {}, BatchSizeBuckets());
  staged_gauge_ = &registry.GetGauge("fra_coalescer_staged_requests");
}

RequestCoalescer::~RequestCoalescer() {
  std::vector<std::pair<int, SiloQueue*>> queues;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queues.reserve(queues_.size());
    for (auto& [id, queue] : queues_) queues.emplace_back(id, queue.get());
  }
  // Disarm every pending deadline timer on its loop (SubmitAndWait also
  // serialises after any still-queued arming task), then ship what is
  // still staged so every caller gets an answer. The shutdown batch's
  // completion captures no coalescer state, so it may safely land after
  // this destructor returns.
  for (auto& [silo_id, queue] : queues) {
    {
      std::lock_guard<std::mutex> lock(queue->mu);
      queue->stopping = true;
    }
    queue->loop->SubmitAndWait([queue] {
      std::lock_guard<std::mutex> lock(queue->mu);
      if (queue->timer_armed) {
        queue->timer_armed = false;
        if (queue->timer_id != 0) {
          queue->loop->CancelTimer(queue->timer_id);
          queue->timer_id = 0;
        }
      }
    });
    std::vector<std::unique_ptr<Pending>> batch;
    {
      std::lock_guard<std::mutex> lock(queue->mu);
      batch.swap(queue->staged);
    }
    if (!batch.empty()) SendBatch(silo_id, std::move(batch), "shutdown");
  }
}

RequestCoalescer::SiloQueue* RequestCoalescer::QueueFor(int silo_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = queues_.find(silo_id);
  if (it == queues_.end()) {
    it = queues_.emplace(silo_id, std::make_unique<SiloQueue>()).first;
    it->second->loop = network_->reactor()->NextLoop();
  }
  return it->second.get();
}

Result<std::vector<uint8_t>> RequestCoalescer::Call(
    int silo_id, const std::vector<uint8_t>& request) {
  FRA_TRACE_SPAN("net.coalesce.call");
  SiloQueue* queue = QueueFor(silo_id);
  auto pending = std::make_unique<Pending>();
  // A batch mixes entries staged by different queries, so the trace
  // context travels per entry, captured here on the staging caller's
  // thread: the flush may run later on an event-loop thread where the
  // thread-local trace id is gone. The silo unwraps each entry and
  // attributes its spans to the right trace (see Silo::HandleBatchRequest).
  const uint64_t trace_id = CurrentTraceId();
  // The batch-frame segment for this entry is encoded once, here, into a
  // pooled buffer: its u32 length prefix, the optional trace envelope,
  // then the request bytes. SendBatch ships the staged segments as an
  // iovec list, so no flush-time concatenation or re-encode happens.
  const size_t entry_len =
      request.size() + (trace_id != 0 ? kTraceEnvelopeBytes : 0);
  BinaryWriter writer = BinaryWriter::Pooled(sizeof(uint32_t) + entry_len);
  writer.WriteU32(static_cast<uint32_t>(entry_len));
  if (trace_id != 0) {
    writer.WriteU8(kTraceEnvelopeTag);
    writer.WriteU64(trace_id);
  }
  writer.AppendRaw(request.data(), request.size());
  pending->entry = BufferRef::Wrap(writer.Release());
  std::future<Result<std::vector<uint8_t>>> response =
      pending->done.get_future();
  pending->query = QueryRecordScope::Current();
  pending->staged_at = std::chrono::steady_clock::now();

  std::vector<std::unique_ptr<Pending>> to_send;
  const char* reason = "size";
  bool arm = false;
  {
    std::lock_guard<std::mutex> lock(queue->mu);
    if (queue->staged.empty()) {
      queue->oldest_at = std::chrono::steady_clock::now();
    }
    queue->staged.push_back(std::move(pending));
    staged_gauge_->Add(1.0);
    if (queue->staged.size() >= std::max<size_t>(1, options_.max_batch_size)) {
      to_send.swap(queue->staged);
    } else if (options_.max_batch_delay_us <= 0) {
      // Eager mode: nothing to wait for, ship the lone entry now.
      to_send.swap(queue->staged);
      reason = "deadline";
    } else if (!queue->timer_armed && !queue->stopping) {
      queue->timer_armed = true;
      arm = true;
    }
  }
  if (!to_send.empty()) {
    // Size trigger: the staging caller ships the batch itself — no
    // thread hop, and several full batches to one silo can be in flight
    // at once.
    SendBatch(silo_id, std::move(to_send), reason);
  } else if (arm) {
    ArmDeadline(silo_id, queue);
  }
  return response.get();
}

void RequestCoalescer::ArmDeadline(int silo_id, SiloQueue* queue) {
  // ScheduleTimerAfter is loop-thread-only, so the arming itself hops
  // onto the loop. The wheel's 1 ms tick floor is fine: rounding the
  // batch window up can only grow batches, never starve a caller
  // (the size trigger still fires from the staging thread).
  const auto delay = std::chrono::milliseconds(
      std::max<int>(1, (options_.max_batch_delay_us + 999) / 1000));
  const bool submitted = queue->loop->Submit([this, silo_id, queue, delay] {
    const uint64_t id = queue->loop->ScheduleTimerAfter(
        delay, [this, silo_id, queue] { OnDeadline(silo_id, queue); });
    std::lock_guard<std::mutex> lock(queue->mu);
    if (queue->timer_armed) {
      queue->timer_id = id;
    } else {
      // Destruction disarmed while this task was queued.
      queue->loop->CancelTimer(id);
    }
  });
  if (!submitted) {
    // The loop has exited (the network stopped first). Ship inline so
    // the staged callers still complete — the exchange itself will
    // report the network's shutdown state.
    std::vector<std::unique_ptr<Pending>> batch;
    {
      std::lock_guard<std::mutex> lock(queue->mu);
      queue->timer_armed = false;
      batch.swap(queue->staged);
    }
    if (!batch.empty()) SendBatch(silo_id, std::move(batch), "deadline");
  }
}

void RequestCoalescer::OnDeadline(int silo_id, SiloQueue* queue) {
  const auto delay =
      std::chrono::microseconds(std::max(0, options_.max_batch_delay_us));
  std::vector<std::unique_ptr<Pending>> batch;
  bool rearm = false;
  TimerWheel::Clock::time_point rearm_at{};
  {
    std::lock_guard<std::mutex> lock(queue->mu);
    queue->timer_armed = false;
    queue->timer_id = 0;
    if (!queue->staged.empty()) {
      const auto deadline = queue->oldest_at + delay;
      if (std::chrono::steady_clock::now() >= deadline) {
        batch.swap(queue->staged);
      } else if (!queue->stopping) {
        // A size flush consumed the batch this timer was armed for and
        // younger entries have been staged since: give them their full
        // window.
        queue->timer_armed = true;
        rearm = true;
        rearm_at = deadline;
      }
    }
  }
  if (rearm) {
    const uint64_t id = queue->loop->ScheduleTimerAt(
        rearm_at, [this, silo_id, queue] { OnDeadline(silo_id, queue); });
    std::lock_guard<std::mutex> lock(queue->mu);
    if (queue->timer_armed) {
      queue->timer_id = id;
    } else {
      queue->loop->CancelTimer(id);
    }
  }
  if (!batch.empty()) SendBatch(silo_id, std::move(batch), "deadline");
}

void RequestCoalescer::SendBatch(int silo_id,
                                 std::vector<std::unique_ptr<Pending>> batch,
                                 const char* reason) {
  FRA_TRACE_SPAN("net.coalesce.flush");
  staged_gauge_->Add(-static_cast<double>(batch.size()));
  batch_size_->Observe(static_cast<double>(batch.size()));
  if (std::strcmp(reason, "size") == 0) {
    flushes_size_->Increment();
  } else if (std::strcmp(reason, "deadline") == 0) {
    flushes_deadline_->Increment();
  } else {
    flushes_shutdown_->Increment();
  }

  // The batch frame is the header (type tag + entry count) followed by
  // the staged per-entry segments, shipped as a scatter-gather chunk
  // list: nothing is concatenated here, and the chunks reach the socket
  // through one vectored send.
  // Queue-wait attribution: each entry's staged time is charged to its
  // query's record now, while the staging caller is still waiting on the
  // exchange (so the record is alive by construction).
  const auto flushed_at = std::chrono::steady_clock::now();
  for (const std::unique_ptr<Pending>& pending : batch) {
    if (pending->query == nullptr) continue;
    pending->query->NoteQueueWait(
        std::chrono::duration_cast<std::chrono::nanoseconds>(flushed_at -
                                                             pending->staged_at)
            .count() /
        1e3);
  }

  BinaryWriter header = BinaryWriter::Pooled(1 + sizeof(uint32_t));
  header.WriteU8(static_cast<uint8_t>(MessageType::kAggregateBatchRequest));
  header.WriteU32(static_cast<uint32_t>(batch.size()));
  std::vector<BufferRef> chunks;
  chunks.reserve(1 + batch.size());
  chunks.push_back(BufferRef::Wrap(header.Release()));
  for (std::unique_ptr<Pending>& pending : batch) {
    chunks.push_back(std::move(pending->entry));
  }

  // The scatter captures only the batch itself — never `this` — so a
  // batch still in flight when the coalescer is destroyed completes
  // safely (the network outlives the coalescer by contract). It runs on
  // an event-loop thread, or inline when the call fails before reaching
  // the loop.
  auto shared =
      std::make_shared<std::vector<std::unique_ptr<Pending>>>(std::move(batch));
  network_->CallAsyncChunks(
      silo_id, std::move(chunks),
      [shared](Result<std::vector<uint8_t>> response) {
        const auto fail_all = [&shared](const Status& status) {
          for (std::unique_ptr<Pending>& pending : *shared) {
            pending->done.set_value(status);
          }
        };
        if (!response.ok()) {
          // Hung / unreachable silo: the Network deadline already bounded
          // the wait, and every staged query shares the outcome.
          fail_all(response.status());
          return;
        }
        Result<std::vector<std::vector<uint8_t>>> decoded =
            DecodeBatchResponse(*response);
        if (!decoded.ok()) {
          fail_all(decoded.status());
          return;
        }
        if (decoded->size() != shared->size()) {
          fail_all(Status::Internal(
              "batch response entry count mismatch: sent " +
              std::to_string(shared->size()) + ", received " +
              std::to_string(decoded->size())));
          return;
        }
        for (size_t i = 0; i < shared->size(); ++i) {
          (*shared)[i]->done.set_value(std::move((*decoded)[i]));
        }
        // The batch response buffer (a pooled frame payload) has been
        // fully scattered; recycle it.
        BufferPool::Default().Release(std::move(*response));
      });
}

}  // namespace fra
