#include "harness/verify.h"

#include <algorithm>
#include <cmath>

#include "trace/trace.h"

namespace starbench {

namespace ss = starsim;

ss::StarField quantize_to_table(std::span<const ss::Star> stars,
                                const ss::LookupTable& table) {
  ss::StarField quantized(stars.begin(), stars.end());
  for (ss::Star& star : quantized) {
    star.magnitude = static_cast<float>(
        table.bin_magnitude(table.magnitude_bin(star.magnitude)));
    star.x = static_cast<float>(static_cast<double>(std::lround(star.x)) +
                                table.phase_center(table.phase_of(star.x)));
    star.y = static_cast<float>(static_cast<double>(std::lround(star.y)) +
                                table.phase_center(table.phase_of(star.y)));
  }
  return quantized;
}

bool passes_gate(const ss::imageio::ImageF& reference,
                 const ss::imageio::ImageF& frame) {
  if (reference.width() != frame.width() ||
      reference.height() != frame.height()) {
    return false;
  }
  double peak = 0.0;
  for (float v : reference.pixels()) {
    peak = std::max(peak, static_cast<double>(v));
  }
  const double scale = peak > 0.0 ? peak : 1.0;
  return ss::imageio::max_abs_difference(reference, frame) / scale <
         kGateBound;
}

ss::imageio::ImageF perturbed(const ss::imageio::ImageF& frame) {
  ss::imageio::ImageF copy = frame;
  float peak = 1.0f;
  for (float v : copy.pixels()) peak = std::max(peak, v);
  copy(copy.width() / 2, copy.height() / 2) += 0.01f * peak;
  return copy;
}

ss::imageio::ImageF Checker::reference(const ss::SceneConfig& scene,
                                       std::span<const ss::Star> stars,
                                       ss::SimulatorKind kind,
                                       const ss::LookupTable* table) {
  if (kind == ss::SimulatorKind::kAdaptive) {
    const ss::StarField quantized = quantize_to_table(stars, *table);
    return sequential_.simulate(scene, quantized).image;
  }
  return sequential_.simulate(scene, stars).image;
}

bool Checker::check(const ss::SceneConfig& scene,
                    std::span<const ss::Star> stars, ss::SimulatorKind kind,
                    const ss::LookupTable* table,
                    const ss::imageio::ImageF& frame) {
  const starsim::trace::TraceSpan span("bench", "verify");
  if (kind == ss::SimulatorKind::kAdaptive && table == nullptr) return false;
  return passes_gate(reference(scene, stars, kind, table), frame);
}

}  // namespace starbench
