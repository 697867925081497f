// fleet_survey — distinct explicit star fields through a loopback fleet.
//
// kClients client threads push distinct explicit star fields (kStars stars
// at subpixel positions, kEdge^2 frames, never repeated) that rotate over
// nine scenes: ROI {6, 10, 16} x PSF sigma {1.2, 1.7, 2.4}. Every request
// is pinned to the adaptive simulator with serve-bench's fine lookup table
// (100 bins per magnitude, 2 subpixel phases) and goes through a loopback
// ShardRouter of kShards shards x kWorkersPerShard worker, kReplicas
// replicas and hedging off. The scenes span magnitudes 0..10, so the
// fine table at ROI 16 still fits the device's texture rows.
#include "fleet/router.h"
#include "harness/verify.h"
#include "harness/workload.h"
#include "starsim/workload.h"
#include "support/timer.h"
#include "trace/trace.h"

namespace starbench {

namespace {

namespace ss = starsim;

constexpr int kClients = 4;
constexpr int kShards = 2;
constexpr int kWorkersPerShard = 1;
constexpr int kReplicas = 2;
constexpr int kRouterThreads = 4;
constexpr int kEdge = 512;
constexpr std::size_t kStars = 1024;
constexpr int kRois[] = {6, 10, 16};
constexpr double kSigmas[] = {1.2, 1.7, 2.4};
constexpr double kMagnitudeMax = 10.0;
constexpr ss::LookupTableOptions kWorkerLut{100, 2};
/// Requests per second per client on a 4-core host, for fixed_requests().
constexpr double kNominalRequestsPerClientS = 12.0;

/// Seed streams of the generated fields.
constexpr std::uint64_t kFieldStream = 10;
constexpr std::uint64_t kWarmupStream = 20;

class FleetSurvey final : public Workload {
 public:
  explicit FleetSurvey(const WorkloadConfig& config) : config_(config) {}

  [[nodiscard]] Shape shape() const override {
    return Shape{kClients, kWorkersPerShard, kShards, kEdge,
                 "fleet::ShardRouter::submit"};
  }

  [[nodiscard]] std::size_t fixed_requests(double seconds) const override {
    return std::max<std::size_t>(
        9, static_cast<std::size_t>(seconds * kNominalRequestsPerClientS));
  }

  void prepare() override {
    for (int roi : kRois) {
      for (double sigma : kSigmas) {
        ss::SceneConfig scene;
        scene.image_width = kEdge;
        scene.image_height = kEdge;
        scene.roi_side = roi;
        scene.psf_sigma = sigma;
        scene.magnitude_max = kMagnitudeMax;
        scenes_.push_back(scene);
        tables_.push_back(ss::LookupTable::build(scene, kWorkerLut));
      }
    }
  }

  void setup() override {
    ss::fleet::FleetOptions options;
    options.shards = kShards;
    options.replicas = kReplicas;
    options.router_threads = kRouterThreads;
    options.hedge_ms = -1.0;
    options.shard.workers = kWorkersPerShard;
    options.shard.worker.lut = kWorkerLut;
    router_ = std::make_unique<ss::fleet::ShardRouter>(std::move(options));
    for (std::size_t s = 0; s < scenes_.size(); ++s) {
      (void)router_->render(request_for(s, field(kWarmupStream, 0, s)));
    }
  }

  void teardown() override { router_.reset(); }

  [[nodiscard]] PhaseResult run(const Budget& budget) override {
    return run_phase(
        kClients, budget, 1,
        [this](int client, std::size_t index, ClientLog& log) {
          request(client, index, log);
        },
        [this] { return stats(); });
  }

 private:
  [[nodiscard]] ss::StarField field(std::uint64_t stream, std::uint64_t client,
                                    std::uint64_t index) const {
    ss::WorkloadConfig stars;
    stars.star_count = kStars;
    stars.image_width = kEdge;
    stars.image_height = kEdge;
    stars.magnitude_max = kMagnitudeMax;
    stars.integer_positions = false;
    stars.seed = mix_seed(config_.seed, stream + client, index);
    return ss::generate_stars(stars);
  }

  [[nodiscard]] ss::serve::RenderRequest request_for(
      std::size_t scene, ss::StarField stars) const {
    ss::serve::RenderRequest request;
    request.scene = scenes_[scene];
    request.stars = std::move(stars);
    request.simulator = ss::SimulatorKind::kAdaptive;
    return request;
  }

  /// Router wire bytes plus every shard's serve and scheduler counters.
  [[nodiscard]] ProgramCounters stats() const {
    const ss::trace::TraceSpan span("bench", "stats");
    const ss::fleet::FleetStats fleet = router_->stats();
    ProgramCounters counters;
    counters.wire_bytes = fleet.wire_request_bytes + fleet.wire_reply_bytes;
    for (int s = 0; s < router_->shard_count(); ++s) {
      counters += counters_of(router_->loopback_shard(s)->stats());
    }
    return counters;
  }

  void request(int client, std::size_t index, ClientLog& log) {
    const std::size_t scene =
        (index * static_cast<std::size_t>(kClients) +
         static_cast<std::size_t>(client)) %
        scenes_.size();
    const ss::StarField stars =
        field(kFieldStream, static_cast<std::uint64_t>(client), index);

    const ss::support::WallTimer wall;
    std::future<ss::serve::RenderResponse> future;
    {
      const ss::trace::TraceSpan span("bench", "submit");
      future = router_->submit(request_for(scene, stars));
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
    const bool verified = checkers_[static_cast<std::size_t>(client)].check(
        scenes_[scene], stars, response.simulator, &tables_[scene], *frame);
    if (!verified) {
      log.failed += 1;
      return;
    }
    log.latency_ms.push_back(latency_ms);
    log.modeled_ms += response.result->timing.application_s() * 1e3;
    log.queue_wait_ms.push_back(response.latency.queue_wait_s * 1e3);
    log.batch_wait_ms.push_back(response.latency.batch_wait_s * 1e3);
    log.fleet_overhead_ms.push_back(latency_ms -
                                    response.latency.total_s * 1e3);
  }

  WorkloadConfig config_;
  std::vector<ss::SceneConfig> scenes_;
  /// The table each scene's adaptive frames render with.
  std::vector<ss::LookupTable> tables_;
  Checker checkers_[kClients];
  std::unique_ptr<ss::fleet::ShardRouter> router_;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_survey(const WorkloadConfig& config) {
  return std::make_unique<FleetSurvey>(config);
}

}  // namespace starbench
