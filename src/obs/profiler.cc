#include "obs/profiler.h"

#include <sstream>

#include "common/table_printer.h"

namespace snapq::obs {

std::atomic<Profiler*> Profiler::active_{nullptr};

const char* HotOpName(HotOp op) {
  switch (op) {
    case HotOp::kMessagesSent:
      return "messages_sent";
    case HotOp::kMessagesDelivered:
      return "messages_delivered";
    case HotOp::kMessagesSnooped:
      return "messages_snooped";
    case HotOp::kCacheOps:
      return "cache_ops";
    case HotOp::kModelFits:
      return "model_fits";
    case HotOp::kElectionRounds:
      return "election_rounds";
    case HotOp::kMaintenanceRounds:
      return "maintenance_rounds";
    case HotOp::kQueriesExecuted:
      return "queries_executed";
    case HotOp::kCount:
      break;
  }
  return "unknown";
}

Profiler& Profiler::Global() {
  static Profiler instance;
  return instance;
}

void Profiler::Reset() {
  for (std::atomic<uint64_t>& c : counters_) {
    c.store(0, std::memory_order_relaxed);
  }
}

std::string Profiler::ToTable() const {
  std::ostringstream out;
  out << "hot-path counters (since reset):\n";
  TablePrinter counters({"operation", "count"});
  for (size_t i = 0; i < kNumHotOps; ++i) {
    const HotOp op = static_cast<HotOp>(i);
    counters.AddRow({HotOpName(op), std::to_string(count(op))});
  }
  counters.Print(out);
  return out.str();
}

}  // namespace snapq::obs
