#include "obs/flight_recorder.h"

#include <algorithm>

#include "common/check.h"
#include "obs/json.h"
#include "obs/timeline.h"

namespace snapq::obs {

FlightRecorder::FlightRecorder(size_t capacity) {
  SNAPQ_CHECK_GT(capacity, 0u);
  ring_.resize(capacity);
}

void FlightRecorder::Write(const std::string& line) {
  // Assignment into the ring slot reuses its capacity, so steady-state
  // recording of similarly-sized lines does not allocate.
  if (size_ == ring_.size()) {
    ring_[start_] = line;
    start_ = (start_ + 1) % ring_.size();
  } else {
    ring_[(start_ + size_) % ring_.size()] = line;
    ++size_;
  }
  ++total_;
  if (forward_ != nullptr) forward_->Write(line);
}

void FlightRecorder::Flush() {
  if (forward_ != nullptr) forward_->Flush();
}

bool WriteBlackbox(const FlightRecorder* recorder_ring,
                   const BlackboxContext& context, const std::string& path) {
  std::string out = "{\"schema_version\": 1";
  out += ", \"kind\": \"snapq-blackbox\"";
  out += ", \"reason\": \"" + JsonEscape(context.reason) + "\"";
  out += ", \"benchmark\": \"" + JsonEscape(context.benchmark) + "\"";
  out += ", \"t\": " + std::to_string(context.now);

  out += ", \"slo\": ";
  if (context.watchdog != nullptr) {
    AppendSloJson(*context.watchdog, &out);
  } else {
    out += "{\"rules\": [], \"breaches\": [], \"verdict\": \"pass\"}";
  }

  out += ", \"series\": ";
  if (context.recorder != nullptr) {
    AppendSeriesJson(*context.recorder, &out);
  } else {
    out += "{}";
  }

  // Active trace ids: the distinct trace ids of the most recent spans, so
  // the dump links back into the causal trace store.
  out += ", \"traces\": [";
  if (context.tracer != nullptr) {
    std::vector<uint64_t> ids;
    const auto& spans = context.tracer->spans();
    for (size_t i = spans.size(); i-- > 0 && ids.size() < 16;) {
      const uint64_t id = spans[i].trace_id;
      if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
        ids.push_back(id);
      }
    }
    for (size_t i = 0; i < ids.size(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(ids[i]);
    }
  }
  out += "]";

  // The retained journal window, newest last. Lines are JSONL records
  // produced by the journal, so they embed verbatim.
  out += ", \"journal\": [";
  if (recorder_ring != nullptr) {
    bool first = true;
    recorder_ring->ForEach([&](const std::string& line) {
      if (!first) out += ", ";
      first = false;
      out += line;
    });
  }
  out += "]}";
  return WriteTextFileAtomic(path, out);
}

}  // namespace snapq::obs
