#ifndef FRA_FEDERATION_SILO_HEALTH_H_
#define FRA_FEDERATION_SILO_HEALTH_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "net/network.h"
#include "util/metrics.h"

namespace fra {

/// Per-silo availability tracker, installed as the federation network's
/// SiloCallObserver so every exchange — on either transport — feeds it.
///
/// Each silo moves through a small circuit-breaker state machine:
///
///   kUp ──(failure ratio over the rolling window)──▶ kDegraded
///   kUp/kDegraded ──(consecutive failures)──▶ kDown
///   kDown ──(probe backoff elapsed, TryBeginProbe)──▶ kProbing
///   kProbing ──(probe succeeds)──▶ kUp   /  (probe fails)──▶ kDown
///
/// Only Unavailable / IOError outcomes count as health failures: they
/// mean the silo could not be reached or hung past its deadline. Other
/// error codes (a malformed query, say) prove the silo is alive and are
/// treated as successful exchanges for availability purposes.
///
/// The provider's sampled algorithms consult IsSelectable() so the
/// single-silo draw of Alg. 2/3 lands on healthy silos, and TryBeginProbe
/// hands exactly one caller at a time a down silo to re-try, readmitting
/// recovered silos without a thundering herd.
///
/// Exports, per silo: gauge `fra_silo_health_state{silo=...}` (numeric
/// state, kUp=0 .. kProbing=3) and `fra_silo_latency_ewma_micros{silo=...}`
/// (EWMA over successful exchanges). All methods are thread safe.
class SiloHealthTracker : public SiloCallObserver {
 public:
  enum class State : int {
    kUp = 0,
    kDegraded = 1,
    kDown = 2,
    kProbing = 3,
  };

  struct Options {
    /// Rolling outcome window consulted for the degraded transition.
    size_t window = 16;
    /// Minimum outcomes in the window before the failure ratio is
    /// trusted (avoids declaring a silo degraded off one sample).
    size_t min_samples = 4;
    /// Window failure ratio at or above which a silo is kDegraded.
    double degraded_failure_ratio = 0.25;
    /// Consecutive failures that open the breaker (kDown).
    int down_after_consecutive_failures = 3;
    /// How long a down silo rests before TryBeginProbe admits a probe.
    int probe_backoff_ms = 1000;
    /// Smoothing factor for the latency EWMA (weight of the newest
    /// successful exchange).
    double ewma_alpha = 0.2;
  };

  struct SiloSnapshot {
    int silo_id = 0;
    State state = State::kUp;
    double latency_ewma_micros = 0.0;
    uint64_t successes = 0;
    uint64_t failures = 0;
    int consecutive_failures = 0;
    double window_failure_ratio = 0.0;
  };

  SiloHealthTracker() : SiloHealthTracker(Options{}) {}
  explicit SiloHealthTracker(const Options& options);

  /// SiloCallObserver: one completed exchange feeds the state machine.
  void OnSiloCall(int silo_id, const Status& status, double micros) override;

  /// Current state; silos never seen yet report kUp. Silo ids 0-63 are
  /// read lock-free, from an atomic copy of the state that SetState
  /// writes under the lock; other ids are read under it.
  State state(int silo_id) const;

  /// Whether the sampled algorithms may draw this silo (kUp or
  /// kDegraded — a degraded silo still answers, just unreliably, and
  /// excluding it entirely would bias the Alg. 2 estimator's pool).
  /// Lock-free like state().
  bool IsSelectable(int silo_id) const;

  /// Claims a down silo for one recovery probe: succeeds for at most one
  /// caller per backoff interval, flipping kDown -> kProbing. The caller
  /// should then issue a real query against the silo; the next OnSiloCall
  /// outcome settles the probe (success readmits the silo, failure
  /// re-opens the breaker with a fresh backoff).
  bool TryBeginProbe(int silo_id);

  /// Latency EWMA over successful exchanges, microseconds (0 if none).
  double LatencyEwmaMicros(int silo_id) const;

  /// Every tracked silo, ordered by id.
  std::vector<SiloSnapshot> Snapshot() const;

  const Options& options() const { return options_; }

  static const char* StateToString(State state);

 private:
  struct SiloRecord {
    State state = State::kUp;
    double ewma_micros = 0.0;
    uint64_t successes = 0;
    uint64_t failures = 0;
    int consecutive_failures = 0;
    std::deque<bool> window;  // true = failure
    std::chrono::steady_clock::time_point next_probe_at;
    // Registry instruments, resolved on first sight of the silo.
    Gauge* state_gauge = nullptr;
    Gauge* ewma_gauge = nullptr;
  };

  // Callers hold mu_.
  SiloRecord& RecordFor(int silo_id);
  void SetState(int silo_id, SiloRecord& record, State state);
  double WindowFailureRatio(const SiloRecord& record) const;

  const Options options_;
  mutable std::mutex mu_;
  std::map<int, SiloRecord> silos_;
  // SetState's last write per silo id below kMirroredSilos (kUp before
  // any), read by state() without mu_.
  static constexpr int kMirroredSilos = 64;
  std::array<std::atomic<State>, kMirroredSilos> mirrored_state_{};
};

}  // namespace fra

#endif  // FRA_FEDERATION_SILO_HEALTH_H_
