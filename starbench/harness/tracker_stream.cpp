// tracker_stream — star trackers on one FrameService.
//
// kClients client threads, each a star tracker stepping along its own slow
// slew of attitudes against one shared synthesized catalogue. Requests carry
// only the attitude: the service projects its catalogue at admission and
// the scheduler picks the simulator. The service has kWorkers workers,
// batches up to kMaxBatch requests and keeps its frame cache on. Every
// fourth request of a client repeats the attitude that client asked for two
// requests earlier, so frame-cache hits are fixed by design.
#include <cmath>
#include <numbers>

#include "harness/verify.h"
#include "harness/workload.h"
#include "serve/service.h"
#include "starsim/catalog.h"
#include "starsim/projection.h"
#include "support/rng.h"
#include "support/timer.h"
#include "trace/trace.h"

namespace starbench {

namespace {

namespace ss = starsim;

constexpr int kClients = 4;
constexpr int kWorkers = 2;
constexpr std::size_t kMaxBatch = 8;
constexpr std::size_t kCacheFrames = 32;
constexpr int kEdge = 1024;
constexpr int kRoi = 10;
/// Catalogue size: about 390 stars fall in one 1024^2 field of view. That
/// keeps every field well below the scheduler's parallel/adaptive
/// crossover (700-800 stars at ROI 10 and batch hint 8), so the simulator
/// choice, and with it every per-frame count, repeats exactly for a seed.
constexpr std::size_t kCatalogStars = 20000;
/// Slew step between successive new attitudes, radians (~0.11 degrees).
constexpr double kSlewStepRad = 0.002;
/// Warm-up requests per client.
constexpr std::size_t kWarmupPerClient = 2;
/// Requests per second per client on a 4-core host, for fixed_requests().
constexpr double kNominalRequestsPerClientS = 36.0;
/// Lookup-table setting of the service's adaptive simulator.
constexpr ss::LookupTableOptions kWorkerLut{};

/// A client's slew: a seeded start attitude turning about a seeded axis.
struct Slew {
  ss::Quaternion start;
  ss::Vec3 axis;

  [[nodiscard]] ss::Quaternion at(std::size_t step) const {
    return start * ss::Quaternion::from_axis_angle(
                       axis, kSlewStepRad * static_cast<double>(step));
  }
};

Slew seeded_slew(std::uint64_t seed) {
  ss::support::Pcg32 rng(seed);
  const double yaw = rng.uniform(0.0, 2.0 * std::numbers::pi);
  const double pitch = std::asin(rng.uniform(-1.0, 1.0));
  const double roll = rng.uniform(0.0, 2.0 * std::numbers::pi);
  const ss::Vec3 axis{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                      rng.uniform(-1.0, 1.0)};
  return Slew{ss::Quaternion::from_euler(yaw, pitch, roll).normalized(),
              axis.norm() > 1e-3 ? axis : ss::Vec3{0.0, 0.0, 1.0}};
}

/// The slew step of request `index`: every fourth request repeats the step
/// of the request two before it; the others take consecutive new steps.
std::size_t slew_step(std::size_t index) {
  const std::size_t fresh = index % 4 == 3 ? index - 2 : index;
  return fresh - fresh / 4;
}

class TrackerStream final : public Workload {
 public:
  explicit TrackerStream(const WorkloadConfig& config) : config_(config) {
    scene_.image_width = kEdge;
    scene_.image_height = kEdge;
    scene_.roi_side = kRoi;
    camera_.width = kEdge;
    camera_.height = kEdge;
  }

  [[nodiscard]] Shape shape() const override {
    return Shape{kClients, kWorkers, 0, kEdge, "serve::FrameService::submit"};
  }

  [[nodiscard]] std::size_t fixed_requests(double seconds) const override {
    const auto requests =
        static_cast<std::size_t>(seconds * kNominalRequestsPerClientS);
    return std::max<std::size_t>(8, requests - requests % 4);
  }

  void prepare() override {
    catalog_ =
        ss::Catalog::synthesize(kCatalogStars, mix_seed(config_.seed, 0, 0));
    for (int c = 0; c < kClients; ++c) {
      const auto client = static_cast<std::uint64_t>(c);
      slews_.push_back(seeded_slew(mix_seed(config_.seed, 1, client)));
      warmup_slews_.push_back(seeded_slew(mix_seed(config_.seed, 2, client)));
    }
    table_.emplace(ss::LookupTable::build(scene_, kWorkerLut));
  }

  void setup() override {
    ss::serve::FrameServiceOptions options;
    options.workers = kWorkers;
    options.max_batch_size = kMaxBatch;
    options.cache_capacity = kCacheFrames;
    options.worker.lut = kWorkerLut;
    options.catalog = *catalog_;
    options.camera = camera_;
    service_ = std::make_unique<ss::serve::FrameService>(std::move(options));
    for (std::size_t i = 0; i < kWarmupPerClient; ++i) {
      for (const Slew& slew : warmup_slews_) {
        (void)service_->render(request_for(slew.at(i)));
      }
    }
  }

  void teardown() override { service_.reset(); }

  [[nodiscard]] PhaseResult run(const Budget& budget) override {
    return run_phase(
        kClients, budget, 1,
        [this](int client, std::size_t index, ClientLog& log) {
          request(client, index, log);
        },
        [this] { return stats(); });
  }

 private:
  [[nodiscard]] ss::serve::RenderRequest request_for(
      const ss::Quaternion& attitude) const {
    ss::serve::RenderRequest request;
    request.scene = scene_;
    request.attitude = attitude;
    return request;
  }

  [[nodiscard]] ProgramCounters stats() const {
    const ss::trace::TraceSpan span("bench", "stats");
    return counters_of(service_->stats());
  }

  void request(int client, std::size_t index, ClientLog& log) {
    const ss::Quaternion attitude =
        slews_[static_cast<std::size_t>(client)].at(slew_step(index));

    const ss::support::WallTimer wall;
    std::future<ss::serve::RenderResponse> future;
    {
      const ss::trace::TraceSpan span("bench", "submit");
      future = service_->submit(request_for(attitude));
    }
    ss::serve::RenderResponse response;
    {
      const ss::trace::TraceSpan span("bench", "get");
      response = future.get();
    }
    const double latency_ms = wall.millis();

    const ss::imageio::ImageF* frame = &response.result->image;
    ss::imageio::ImageF perturbed_frame;
    if (client == 0 && static_cast<long>(index) == config_.perturb_request) {
      perturbed_frame = perturbed(*frame);
      frame = &perturbed_frame;
    }
    bool verified = false;
    {
      const ss::trace::TraceSpan span("bench", "verify");
      const ss::StarField stars =
          ss::project_to_image(catalog_->stars(), attitude, camera_);
      verified = checkers_[static_cast<std::size_t>(client)].check(
          scene_, stars, response.simulator, &*table_, *frame);
    }
    if (!verified) {
      log.failed += 1;
      return;
    }
    log.latency_ms.push_back(latency_ms);
    log.modeled_ms += response.result->timing.application_s() * 1e3;
    if (!response.from_cache) {
      log.queue_wait_ms.push_back(response.latency.queue_wait_s * 1e3);
      log.batch_wait_ms.push_back(response.latency.batch_wait_s * 1e3);
    }
  }

  WorkloadConfig config_;
  ss::SceneConfig scene_;
  ss::CameraModel camera_;
  std::optional<ss::Catalog> catalog_;
  std::vector<Slew> slews_;
  std::vector<Slew> warmup_slews_;
  /// The table the service's adaptive simulator renders with.
  std::optional<ss::LookupTable> table_;
  Checker checkers_[kClients];
  std::unique_ptr<ss::serve::FrameService> service_;
};

}  // namespace

std::unique_ptr<Workload> make_tracker_stream(const WorkloadConfig& config) {
  return std::make_unique<TrackerStream>(config);
}

}  // namespace starbench
