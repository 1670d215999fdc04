#include "federation/silo_health.h"

#include <algorithm>

#include "util/logging.h"

namespace fra {

SiloHealthTracker::SiloHealthTracker(const Options& options)
    : options_(options) {}

SiloHealthTracker::SiloRecord& SiloHealthTracker::RecordFor(int silo_id) {
  const auto it = silos_.find(silo_id);
  if (it != silos_.end()) return it->second;
  SiloRecord& record = silos_[silo_id];
  const MetricLabels labels = {{"silo", std::to_string(silo_id)}};
  MetricsRegistry& registry = MetricsRegistry::Default();
  record.state_gauge = &registry.GetGauge("fra_silo_health_state", labels);
  record.ewma_gauge =
      &registry.GetGauge("fra_silo_latency_ewma_micros", labels);
  record.state_gauge->Set(static_cast<double>(State::kUp));
  return record;
}

void SiloHealthTracker::SetState(int silo_id, SiloRecord& record,
                                 State state) {
  if (record.state != state) {
    // Availability transitions are the health tracker's headline events;
    // kDown means single-silo sampling is now steering around this silo.
    if (state == State::kDown) {
      FRA_LOG(WARN) << "silo " << silo_id << " marked down (was "
                    << StateToString(record.state) << ", "
                    << record.consecutive_failures << " consecutive failures)";
    } else {
      FRA_LOG(INFO) << "silo " << silo_id << " "
                    << StateToString(record.state) << " -> "
                    << StateToString(state);
    }
  }
  record.state = state;
  if (silo_id >= 0 && silo_id < kMirroredSilos) {
    mirrored_state_[silo_id].store(state, std::memory_order_relaxed);
  }
  record.state_gauge->Set(static_cast<double>(state));
}

double SiloHealthTracker::WindowFailureRatio(const SiloRecord& record) const {
  if (record.window.empty()) return 0.0;
  const size_t failures = static_cast<size_t>(
      std::count(record.window.begin(), record.window.end(), true));
  return static_cast<double>(failures) /
         static_cast<double>(record.window.size());
}

void SiloHealthTracker::OnSiloCall(int silo_id, const Status& status,
                                   double micros) {
  // Only unreachable/hung outcomes are availability failures; any other
  // error code means the silo answered and is therefore alive.
  const bool failure = status.IsUnavailable() || status.IsIOError();

  std::lock_guard<std::mutex> lock(mu_);
  SiloRecord& record = RecordFor(silo_id);

  record.window.push_back(failure);
  while (record.window.size() > options_.window) record.window.pop_front();

  if (failure) {
    ++record.failures;
    ++record.consecutive_failures;
    if (record.state == State::kProbing) {
      // Failed probe: re-open the breaker for another backoff interval.
      SetState(silo_id, record, State::kDown);
      record.next_probe_at = std::chrono::steady_clock::now() +
                             std::chrono::milliseconds(options_.probe_backoff_ms);
      return;
    }
    if (record.consecutive_failures >=
        options_.down_after_consecutive_failures) {
      if (record.state != State::kDown) {
        SetState(silo_id, record, State::kDown);
        record.next_probe_at =
            std::chrono::steady_clock::now() +
            std::chrono::milliseconds(options_.probe_backoff_ms);
      }
      return;
    }
    if (record.state == State::kUp &&
        record.window.size() >= options_.min_samples &&
        WindowFailureRatio(record) >= options_.degraded_failure_ratio) {
      SetState(silo_id, record, State::kDegraded);
    }
    return;
  }

  ++record.successes;
  record.consecutive_failures = 0;
  record.ewma_micros = record.ewma_micros == 0.0
                           ? micros
                           : options_.ewma_alpha * micros +
                                 (1.0 - options_.ewma_alpha) *
                                     record.ewma_micros;
  record.ewma_gauge->Set(record.ewma_micros);

  if (record.state == State::kProbing || record.state == State::kDown) {
    // Recovered: readmit with a clean slate so the stale failure window
    // cannot immediately re-degrade the silo.
    record.window.clear();
    record.window.push_back(false);
    SetState(silo_id, record, State::kUp);
    return;
  }
  if (record.state == State::kDegraded &&
      record.window.size() >= options_.min_samples &&
      WindowFailureRatio(record) < options_.degraded_failure_ratio) {
    SetState(silo_id, record, State::kUp);
  }
}

SiloHealthTracker::State SiloHealthTracker::state(int silo_id) const {
  if (silo_id >= 0 && silo_id < kMirroredSilos) {
    return mirrored_state_[silo_id].load(std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = silos_.find(silo_id);
  return it == silos_.end() ? State::kUp : it->second.state;
}

bool SiloHealthTracker::IsSelectable(int silo_id) const {
  const State s = state(silo_id);
  return s == State::kUp || s == State::kDegraded;
}

bool SiloHealthTracker::TryBeginProbe(int silo_id) {
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = silos_.find(silo_id);
  if (it == silos_.end()) return false;
  SiloRecord& record = it->second;
  // A probe whose query never completed (caller died, say) would wedge
  // the silo in kProbing forever; letting the backoff re-admit a probe
  // from kProbing as well makes the machine self-healing.
  if (record.state != State::kDown && record.state != State::kProbing) {
    return false;
  }
  if (now < record.next_probe_at) return false;
  record.next_probe_at =
      now + std::chrono::milliseconds(options_.probe_backoff_ms);
  SetState(silo_id, record, State::kProbing);
  return true;
}

double SiloHealthTracker::LatencyEwmaMicros(int silo_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = silos_.find(silo_id);
  return it == silos_.end() ? 0.0 : it->second.ewma_micros;
}

std::vector<SiloHealthTracker::SiloSnapshot> SiloHealthTracker::Snapshot()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SiloSnapshot> out;
  out.reserve(silos_.size());
  for (const auto& [id, record] : silos_) {
    SiloSnapshot snapshot;
    snapshot.silo_id = id;
    snapshot.state = record.state;
    snapshot.latency_ewma_micros = record.ewma_micros;
    snapshot.successes = record.successes;
    snapshot.failures = record.failures;
    snapshot.consecutive_failures = record.consecutive_failures;
    snapshot.window_failure_ratio = WindowFailureRatio(record);
    out.push_back(snapshot);
  }
  return out;
}

const char* SiloHealthTracker::StateToString(State state) {
  switch (state) {
    case State::kUp:
      return "up";
    case State::kDegraded:
      return "degraded";
    case State::kDown:
      return "down";
    case State::kProbing:
      return "probing";
  }
  return "unknown";
}

}  // namespace fra
