// Renders a Figure-1-style picture of an elected network snapshot as SVG:
// dark circles are representatives, light circles passive nodes, and a
// line connects each representative to the nodes it represents.
//
//   $ ./build/examples/snapshot_svg > snapshot.svg
#include <cstdio>

#include "api/experiment.h"

using namespace snapq;

int main() {
  SensitivityConfig config;
  config.num_classes = 10;
  config.transmission_range = 0.5;
  config.seed = 4;
  const SensitivityOutcome outcome = RunSensitivityTrial(config);
  SensorNetwork& net = *outcome.network;
  const SnapshotView view = net.Snapshot();

  const double size = 640.0;
  auto sx = [&](double x) { return 20.0 + x * (size - 40.0); };
  auto sy = [&](double y) { return 20.0 + (1.0 - y) * (size - 40.0); };

  std::printf("<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%.0f\" "
              "height=\"%.0f\" viewBox=\"0 0 %.0f %.0f\">\n",
              size, size, size, size);
  std::printf("  <rect width=\"%.0f\" height=\"%.0f\" fill=\"white\"/>\n",
              size, size);

  // Representation edges first (under the nodes).
  for (NodeId rep = 0; rep < net.num_nodes(); ++rep) {
    for (const SnapshotView::Entry& entry : view.represents(rep)) {
      if (!view.RepresentsCurrently(rep, entry.member)) continue;
      const Point& a = net.position(rep);
      const Point& b = net.position(entry.member);
      std::printf("  <line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" "
                  "stroke=\"#888\" stroke-width=\"1\"/>\n",
                  sx(a.x), sy(a.y), sx(b.x), sy(b.y));
    }
  }
  for (NodeId i = 0; i < net.num_nodes(); ++i) {
    const bool active = view.node(i).mode == NodeMode::kActive;
    const Point& p = net.position(i);
    std::printf("  <circle cx=\"%.1f\" cy=\"%.1f\" r=\"%s\" fill=\"%s\" "
                "stroke=\"black\"/>\n",
                sx(p.x), sy(p.y), active ? "8" : "5",
                active ? "#222" : "#ddd");
  }
  std::printf("  <text x=\"24\" y=\"%.0f\" font-family=\"sans-serif\" "
              "font-size=\"14\">%zu representatives of %zu nodes "
              "(K=%zu, T=%.1f, range=%.2f)</text>\n",
              size - 8.0, view.CountActive(), net.num_nodes(),
              config.num_classes, config.threshold,
              config.transmission_range);
  std::printf("</svg>\n");
  std::fprintf(stderr, "snapshot: %zu representatives of %zu nodes\n",
               view.CountActive(), net.num_nodes());
  return 0;
}
