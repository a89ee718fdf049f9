// The flight recorder: a bounded ring of the most recent journal events,
// kept so that the moment a watchdog rule fires (or a paper-invariant
// check fails) the run can dump a `*.blackbox.json` — the breaching
// window's telemetry series, the SLO verdicts, the last N protocol events
// and the active trace ids — and a soak failure stays forensically
// debuggable after the process is gone.
//
// It is a JournalSink, so it tees transparently in front of whatever sink
// the journal already had (file, memory, none): install it with
// EventJournal::ReplaceSink and hand the previous sink to SetForward.
// Ring slots are std::strings whose capacity is reused, so steady-state
// recording does not grow memory.
#ifndef SNAPQ_OBS_FLIGHT_RECORDER_H_
#define SNAPQ_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/node_id.h"
#include "obs/journal.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "obs/tracer.h"

namespace snapq::obs {

/// Journal events the flight recorder SensorNetwork wires in retains.
inline constexpr size_t kFlightRecorderCapacity = 512;

class FlightRecorder final : public JournalSink {
 public:
  explicit FlightRecorder(size_t capacity);

  void Write(const std::string& line) override;
  void Flush() override;

  /// Tee: every line is also forwarded to `next` (owned) — typically the
  /// sink the journal used before the recorder was installed.
  void SetForward(std::unique_ptr<JournalSink> next) {
    forward_ = std::move(next);
  }

  size_t capacity() const { return ring_.size(); }
  size_t size() const { return size_; }
  uint64_t total_written() const { return total_; }

  /// Visits retained lines oldest -> newest.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < size_; ++i) {
      fn(ring_[(start_ + i) % ring_.size()]);
    }
  }

 private:
  std::vector<std::string> ring_;
  size_t start_ = 0;
  size_t size_ = 0;
  uint64_t total_ = 0;
  std::unique_ptr<JournalSink> forward_;
};

/// Everything a blackbox dump captures beyond the journal ring. All
/// pointers are optional — absent subsystems emit empty sections.
struct BlackboxContext {
  std::string reason;  ///< "slo_breach", "invariant_failure", ...
  std::string benchmark;
  Time now = 0;
  const TelemetryRecorder* recorder = nullptr;
  const SloWatchdog* watchdog = nullptr;
  const Tracer* tracer = nullptr;
};

/// Writes the blackbox document (atomic replace). `recorder_ring` may be
/// null (no journal section). Returns false when the write failed.
bool WriteBlackbox(const FlightRecorder* recorder_ring,
                   const BlackboxContext& context, const std::string& path);

}  // namespace snapq::obs

#endif  // SNAPQ_OBS_FLIGHT_RECORDER_H_
