// paper_frames — the paper's two largest points through Simulator::simulate.
//
// 2^17 stars at ROI 10 (the end of test1) and 8192 stars at ROI 32 (the end
// of test2), on 1024^2 frames with integer star positions (the paper's
// dataset convention), each rendered by the parallel and the adaptive
// simulator. One client renders one frame at a time, cycling over
// kFieldsPerPoint seeded fields per point, so every (field, simulator) pair
// is rendered once per cycle and repeats from the second cycle on.
#include <cstring>
#include <optional>

#include "gpusim/device.h"
#include "harness/stats.h"
#include "harness/verify.h"
#include "harness/workload.h"
#include "starsim/adaptive_simulator.h"
#include "starsim/parallel_simulator.h"
#include "starsim/workload.h"
#include "support/timer.h"
#include "trace/trace.h"

namespace starbench {

namespace {

namespace ss = starsim;
namespace gs = starsim::gpusim;

constexpr int kEdge = ss::kBenchImageEdge;
constexpr std::size_t kFieldsPerPoint = 2;
/// Stars per field of the warm-up renders (a prefix of each field).
constexpr std::size_t kWarmupStars = 1024;
/// Host wall of one cycle's frames on a 4-core host, for fixed_requests().
constexpr double kNominalFrameS = 0.9;
/// Timed sequential renders per field for the baseline; the median counts.
constexpr int kSequentialRepeats = 3;

struct Point {
  std::size_t stars;
  int roi;
};
constexpr Point kPoints[] = {{std::size_t{1} << 17, ss::kTest1RoiSide},
                             {ss::kTest2StarCount, 32}};

constexpr ss::SimulatorKind kKinds[] = {ss::SimulatorKind::kParallel,
                                        ss::SimulatorKind::kAdaptive};

struct Field {
  ss::SceneConfig scene;
  ss::StarField stars;
  /// Sequential render of the stars, and of the stars the adaptive
  /// simulator's table represents.
  ss::imageio::ImageF reference;
  ss::imageio::ImageF adaptive_reference;
};

/// One frame of the cycle.
struct Slot {
  std::size_t field;
  std::size_t kind;
};

class PaperFrames final : public Workload {
 public:
  explicit PaperFrames(const WorkloadConfig& config) : config_(config) {}

  [[nodiscard]] Shape shape() const override {
    return Shape{1, 0, 0, kEdge, "Simulator::simulate"};
  }

  [[nodiscard]] std::size_t fixed_requests(double seconds) const override {
    const double cycle_s = kNominalFrameS * static_cast<double>(cycle_size());
    const auto cycles = std::max<std::size_t>(
        2, static_cast<std::size_t>(seconds / cycle_s + 0.5));
    return cycles * cycle_size();
  }

  void prepare() override {
    ss::SequentialSimulator sequential;
    for (std::size_t f = 0; f < kFieldsPerPoint; ++f) {
      for (std::size_t p = 0; p < std::size(kPoints); ++p) {
        Field field;
        field.scene.image_width = kEdge;
        field.scene.image_height = kEdge;
        field.scene.roi_side = kPoints[p].roi;
        ss::WorkloadConfig stars;
        stars.star_count = kPoints[p].stars;
        stars.image_width = kEdge;
        stars.image_height = kEdge;
        stars.integer_positions = true;
        stars.seed = mix_seed(config_.seed, p, f);
        field.stars = ss::generate_stars(stars);

        field.reference = sequential.simulate(field.scene, field.stars).image;
        const ss::LookupTable table =
            ss::LookupTable::build(field.scene, ss::LookupTableOptions{});
        field.adaptive_reference =
            sequential.simulate(field.scene,
                                quantize_to_table(field.stars, table))
                .image;
        fields_.push_back(std::move(field));
        for (std::size_t k = 0; k < std::size(kKinds); ++k) {
          cycle_.push_back(Slot{fields_.size() - 1, k});
        }
      }
    }
    first_renders_.resize(cycle_.size());
  }

  void setup() override {
    for (auto& device : devices_) {
      device = std::make_unique<gs::Device>(gs::DeviceSpec::gtx480());
    }
    simulators_[0] = std::make_unique<ss::ParallelSimulator>(*devices_[0]);
    simulators_[1] = std::make_unique<ss::AdaptiveSimulator>(*devices_[1]);
    for (std::size_t p = 0; p < std::size(kPoints); ++p) {
      const Field& field = fields_[p];
      const std::span<const ss::Star> prefix(field.stars.data(), kWarmupStars);
      for (auto& simulator : simulators_) {
        (void)simulator->simulate(field.scene, prefix);
      }
    }
  }

  void teardown() override {
    for (auto& simulator : simulators_) simulator.reset();
    for (auto& device : devices_) device.reset();
  }

  [[nodiscard]] PhaseResult run(const Budget& budget) override {
    return run_phase(
        1, budget, cycle_size(),
        [this](int client, std::size_t index, ClientLog& log) {
          render(client, index, log);
        },
        nullptr);
  }

  [[nodiscard]] double sequential_ms_per_frame() override {
    ss::SequentialSimulator sequential;
    std::vector<double> field_ms;
    for (const Field& field : fields_) {
      std::vector<double> samples;
      for (int r = 0; r < kSequentialRepeats; ++r) {
        const ss::support::WallTimer wall;
        (void)sequential.simulate(field.scene, field.stars);
        samples.push_back(wall.millis());
      }
      field_ms.push_back(median_of(samples));
    }
    // One entry per frame of the cycle, like the latencies it is compared
    // with.
    std::vector<double> per_frame;
    for (const Slot& slot : cycle_) per_frame.push_back(field_ms[slot.field]);
    return median_of(per_frame);
  }

 private:
  [[nodiscard]] std::size_t cycle_size() const {
    return kFieldsPerPoint * std::size(kPoints) * std::size(kKinds);
  }

  void render(int client, std::size_t index, ClientLog& log) {
    const std::size_t slot_index = index % cycle_.size();
    const Slot& slot = cycle_[slot_index];
    const Field& field = fields_[slot.field];
    ss::Simulator& simulator = *simulators_[slot.kind];

    const ss::support::WallTimer wall;
    ss::SimulationResult result;
    {
      const ss::trace::TraceSpan span("bench", "simulate");
      result = simulator.simulate(field.scene, field.stars);
    }
    const double latency_ms = wall.millis();

    if (client == 0 && static_cast<long>(index) == config_.perturb_request) {
      result.image = perturbed(result.image);
    }
    bool verified = false;
    {
      const ss::trace::TraceSpan span("bench", "verify");
      const ss::imageio::ImageF& reference =
          kKinds[slot.kind] == ss::SimulatorKind::kAdaptive
              ? field.adaptive_reference
              : field.reference;
      verified = passes_gate(reference, result.image);
    }
    if (!verified) {
      log.failed += 1;
      return;
    }
    log.latency_ms.push_back(latency_ms);
    log.modeled_ms += result.timing.application_s() * 1e3;

    std::optional<ss::imageio::ImageF>& first = first_renders_[slot_index];
    if (!first.has_value()) {
      first = std::move(result.image);
      return;
    }
    const auto a = first->pixels();
    const auto b = result.image.pixels();
    log.repeats += 1;
    if (std::memcmp(a.data(), b.data(), a.size_bytes()) == 0) {
      log.bit_identical += 1;
    }
  }

  WorkloadConfig config_;
  std::vector<Field> fields_;
  std::vector<Slot> cycle_;
  /// The first verified render of each slot, for the bit-identity count.
  std::vector<std::optional<ss::imageio::ImageF>> first_renders_;
  std::unique_ptr<gs::Device> devices_[std::size(kKinds)];
  std::unique_ptr<ss::Simulator> simulators_[std::size(kKinds)];
};

}  // namespace

std::unique_ptr<Workload> make_paper_frames(const WorkloadConfig& config) {
  return std::make_unique<PaperFrames>(config);
}

}  // namespace starbench
