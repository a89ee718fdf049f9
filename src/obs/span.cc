#include "obs/span.h"

#include <array>
#include <string>

#include "obs/tracer.h"

namespace snapq::obs {
namespace {

// Indexed by ProfPhase. These strings are .metrics.json keys and
// .trace.json phase names — changing one is a schema break.
constexpr std::array<const char*, static_cast<size_t>(ProfPhase::kCount)>
    kSpanNames = {"election", "maintenance.tick", "query.execute"};

}  // namespace

const char* Span::Name(ProfPhase phase) {
  return kSpanNames[static_cast<size_t>(phase)];
}

const std::vector<double>& Span::WallMicrosBounds() {
  static const std::vector<double>* bounds = new std::vector<double>{
      1, 10, 100, 1000, 10000, 100000, 1000000};
  return *bounds;
}

const std::vector<double>& Span::SimTicksBounds() {
  static const std::vector<double>* bounds = new std::vector<double>{
      0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000};
  return *bounds;
}

Span::Span(MetricRegistry& registry, ProfPhase phase)
    : registry_(registry),
      phase_(phase),
      wall_start_(std::chrono::steady_clock::now()) {}

void Span::BeginSim(int64_t sim_now) {
  sim_start_ = sim_now;
  sim_start_set_ = true;
}

void Span::EndSim(int64_t sim_now) {
  sim_end_ = sim_now;
  sim_end_set_ = true;
}

void Span::AttachTrace(Tracer* tracer, const TraceContext& ctx) {
  tracer_ = tracer;
  trace_ctx_ = ctx;
}

void Span::End() {
  if (ended_) return;
  ended_ = true;
  const bool sim_marked = sim_start_set_ && sim_end_set_;
  if (tracer_ != nullptr && trace_ctx_.sampled() && sim_marked) {
    tracer_->RecordPhase(trace_ctx_, Name(phase_), sim_start_, sim_end_);
  }
  const double wall_us = std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - wall_start_)
                             .count();
  static_assert(MetricRegistry::kSpanPhases ==
                static_cast<size_t>(ProfPhase::kCount));
  MetricRegistry::SpanHistograms& handles =
      registry_.span_histograms_[static_cast<size_t>(phase_)];
  if (handles.wall_us == nullptr) {
    handles.wall_us = registry_.GetHistogram(
        std::string(Name(phase_)) + ".wall_us", WallMicrosBounds());
  }
  handles.wall_us->Observe(wall_us);
  if (sim_marked) {
    if (handles.sim_ticks == nullptr) {
      handles.sim_ticks = registry_.GetHistogram(
          std::string(Name(phase_)) + ".sim_ticks", SimTicksBounds());
    }
    handles.sim_ticks->Observe(static_cast<double>(sim_end_ - sim_start_));
  }
}

}  // namespace snapq::obs
