// The structured event journal: an append-only JSONL stream of protocol
// events (election state transitions, representative changes, cache
// evictions, query plans) with sim-time, node and epoch attribution. It
// supersedes the ad-hoc ToString() dumps for anything a script needs to
// read back.
//
// One event per line:
//
//   {"event":"election.mode","t":101,"node":17,"epoch":3,"mode":"active"}
//
// "event" and "t" are reserved keys; everything else is a flat field.
//
// Sinks are pluggable: a file (experiments), an in-memory buffer (tests,
// the shell's \journal command), or none — the default. With no sink the
// journal is disabled and Emit() is a single branch: the field-building
// callback never runs, so instrumented hot paths cost nothing beyond the
// check.
#ifndef SNAPQ_OBS_JOURNAL_H_
#define SNAPQ_OBS_JOURNAL_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/node_id.h"

namespace snapq::obs {

/// One journal record, buildable (writer side) and inspectable (parsed
/// back from a JSONL line in tests and tooling).
class JournalEvent {
 public:
  JournalEvent(std::string_view name, int64_t t) : name_(name), time_(t) {}

  // Builder interface; all return *this for chaining.
  JournalEvent& Node(NodeId node) {
    return Int("node", static_cast<int64_t>(node));
  }
  JournalEvent& Epoch(int64_t epoch) { return Int("epoch", epoch); }
  JournalEvent& Int(std::string_view key, int64_t value);
  JournalEvent& Num(std::string_view key, double value);
  JournalEvent& Str(std::string_view key, std::string_view value);
  JournalEvent& Bool(std::string_view key, bool value);

  const std::string& name() const { return name_; }
  int64_t time() const { return time_; }

  // Field lookup (parsed or built events); nullopt when absent or of a
  // different kind. Num() also reads integer fields.
  std::optional<int64_t> GetInt(std::string_view key) const;
  std::optional<double> GetNum(std::string_view key) const;
  std::optional<std::string> GetStr(std::string_view key) const;
  std::optional<bool> GetBool(std::string_view key) const;

  /// (key, type) view of the fields in emission order, with type one of
  /// "int", "num", "str", "bool". For schema-stability tests: asserts on
  /// field names/types without widening the per-kind lookup API. Note a
  /// parsed-back event reports integral JSON numbers as "int" regardless
  /// of the writer-side kind (JSON does not distinguish them).
  std::vector<std::pair<std::string, std::string>> Fields() const;

  /// The JSONL form, no trailing newline.
  std::string ToJsonLine() const;

  /// Parses a line produced by ToJsonLine(). Returns nullopt on malformed
  /// input or a missing "event"/"t" key.
  static std::optional<JournalEvent> Parse(std::string_view line);

 private:
  struct Field {
    enum class Kind { kInt, kNum, kStr, kBool };
    std::string key;
    Kind kind = Kind::kInt;
    int64_t i = 0;
    double d = 0.0;
    std::string s;
    bool b = false;
  };

  const Field* Find(std::string_view key) const;

  std::string name_;
  int64_t time_ = 0;
  std::vector<Field> fields_;
};

/// Where journal lines go.
class JournalSink {
 public:
  virtual ~JournalSink() = default;
  virtual void Write(const std::string& line) = 0;
  virtual void Flush() {}
};

/// Appends lines to a file. Check ok() after construction.
class FileJournalSink : public JournalSink {
 public:
  explicit FileJournalSink(const std::string& path);
  ~FileJournalSink() override;
  bool ok() const { return file_ != nullptr; }
  void Write(const std::string& line) override;
  void Flush() override;

 private:
  std::FILE* file_ = nullptr;
};

/// Buffers lines in memory (tests, interactive inspection). Keeps at most
/// `max_lines` recent lines (0 = unbounded).
class MemoryJournalSink : public JournalSink {
 public:
  explicit MemoryJournalSink(size_t max_lines = 0) : max_lines_(max_lines) {}
  void Write(const std::string& line) override;
  const std::vector<std::string>& lines() const { return lines_; }
  void Clear() { lines_.clear(); }

 private:
  size_t max_lines_;
  std::vector<std::string> lines_;
};

/// The journal itself. Disabled (null sink) by default.
class EventJournal {
 public:
  EventJournal() = default;
  EventJournal(const EventJournal&) = delete;
  EventJournal& operator=(const EventJournal&) = delete;

  /// Installs `sink` (nullptr disables). Returns the raw pointer for
  /// convenience (e.g. keeping a MemoryJournalSink* to read back).
  JournalSink* SetSink(std::unique_ptr<JournalSink> sink) {
    sink_ = std::move(sink);
    return sink_.get();
  }
  /// Installs `sink` and returns the previous one — the tee pattern: wrap
  /// the old sink (e.g. in a FlightRecorder forward) instead of dropping
  /// it, so an observer can splice itself in front of an existing stream.
  std::unique_ptr<JournalSink> ReplaceSink(std::unique_ptr<JournalSink> sink) {
    std::unique_ptr<JournalSink> old = std::move(sink_);
    sink_ = std::move(sink);
    return old;
  }
  bool enabled() const { return sink_ != nullptr; }
  uint64_t events_emitted() const { return emitted_; }

  /// Emits an event with fields added by `fill(JournalEvent&)`. When the
  /// journal is disabled this is one branch; `fill` does not run.
  template <typename Fn>
  void Emit(std::string_view name, int64_t t, Fn&& fill) {
    if (sink_ == nullptr) return;
    JournalEvent event(name, t);
    fill(event);
    WriteEvent(event);
  }

  /// Field-free event.
  void Emit(std::string_view name, int64_t t) {
    if (sink_ == nullptr) return;
    WriteEvent(JournalEvent(name, t));
  }

  void Flush() {
    if (sink_ != nullptr) sink_->Flush();
  }

 private:
  void WriteEvent(const JournalEvent& event);

  std::unique_ptr<JournalSink> sink_;
  uint64_t emitted_ = 0;
};

}  // namespace snapq::obs

#endif  // SNAPQ_OBS_JOURNAL_H_
