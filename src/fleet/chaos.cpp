#include "fleet/chaos.h"

#include <chrono>
#include <utility>

#include "support/error.h"

namespace starsim::fleet {

namespace {

[[nodiscard]] double steady_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64 — whitens the user seed so seed=0 and seed=1 produce
/// unrelated streams.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

ChaosTransport::ChaosTransport(std::unique_ptr<Transport> inner,
                               ChaosNetOptions options)
    : inner_(std::move(inner)),
      options_(options),
      rng_state_(mix64(options.seed)) {
  STARSIM_REQUIRE(inner_ != nullptr, "ChaosTransport needs an inner transport");
  // Two workers: reply-side faults block on take() (the inner render), and
  // a single worker would serialize a delayed reply behind a slow one.
  for (int i = 0; i < 2; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ChaosTransport::~ChaosTransport() { shutdown(); }

double ChaosTransport::roll() {
  // Caller holds mutex_. xorshift64* — tiny, deterministic, good enough
  // for fault rolls (this is chaos, not cryptography).
  rng_state_ ^= rng_state_ >> 12;
  rng_state_ ^= rng_state_ << 25;
  rng_state_ ^= rng_state_ >> 27;
  const std::uint64_t bits = rng_state_ * 0x2545F4914F6CDD1DULL;
  return static_cast<double>(bits >> 11) / 9007199254740992.0;  // [0, 1)
}

void ChaosTransport::enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (closed_) return;  // shutting down; the promise holder sees an error
    tasks_.push_back(std::move(task));
  }
  queue_cv_.notify_one();
}

void ChaosTransport::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return closed_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // closed and drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

void ChaosTransport::settle(std::shared_ptr<std::promise<WireBuffer>> promise,
                            WireBuffer bytes, bool reorder) {
  if (reorder) {
    bool stashed = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!held_.has_value()) {
        // Hold this reply until the next one passes; delivery order swaps,
        // reply bytes never cross requests.
        held_ = HeldReply{std::move(promise), std::move(bytes)};
        ++faults_reordered_;
        stashed = true;
      }
    }
    if (stashed) {
      // Bounded hold: on a quiet link no "next reply" ever passes, and a
      // held reply must not strand its router worker past the hold cap.
      const double hold_s = options_.reorder_hold_ms * 1e-3;
      enqueue([this, hold_s] {
        std::this_thread::sleep_for(std::chrono::duration<double>(hold_s));
        std::optional<HeldReply> release;
        {
          std::lock_guard<std::mutex> lock(mutex_);
          if (held_.has_value()) {
            release = std::move(held_);
            held_.reset();
          }
        }
        if (release.has_value()) {
          release->promise->set_value(std::move(release->bytes));
        }
      });
      return;
    }
  }
  promise->set_value(std::move(bytes));
  std::optional<HeldReply> release;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (held_.has_value()) {
      release = std::move(held_);
      held_.reset();
    }
  }
  if (release.has_value()) {
    release->promise->set_value(std::move(release->bytes));
  }
}

PendingReply ChaosTransport::submit(const WireBuffer& frame,
                                    std::optional<double> io_budget_s) {
  bool drop = false;
  bool duplicate = false;
  bool reorder = false;
  bool corrupt = false;
  bool block_requests = false;
  bool block_replies = false;
  double delay_s = 0.0;
  std::uint64_t corrupt_bits = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    block_requests = block_requests_;
    block_replies = block_replies_;
    if (!block_requests) {
      drop = roll() < options_.drop_rate;
      duplicate = roll() < options_.duplicate_rate;
      reorder = roll() < options_.reorder_rate;
      corrupt = roll() < options_.corrupt_rate;
      if (options_.delay_ms > 0.0 || options_.delay_jitter_ms > 0.0) {
        delay_s = (options_.delay_ms +
                   roll() * options_.delay_jitter_ms) *
                  1e-3;
      }
      if (corrupt) corrupt_bits = rng_state_;
      if (drop) ++faults_dropped_;
    } else {
      ++faults_partitioned_;
    }
  }
  if (block_requests) {
    // The frame never reaches the shard; to the dialer that is exactly a
    // burned I/O budget — surfaced immediately so nothing outlives its
    // deadline waiting on a partition.
    return PendingReply::failed(
        std::make_exception_ptr(support::TransportTimeoutError(
            instance() + " request blocked by injected partition")));
  }
  if (drop) {
    return PendingReply::failed(
        std::make_exception_ptr(support::TransportTimeoutError(
            instance() + " request dropped by chaos injection")));
  }

  PendingReply reply = inner_->submit(frame, io_budget_s);

  if (duplicate) {
    // The retransmitted copy reaches the shard too; its reply is taken and
    // discarded — first (original) reply wins, as on a real network.
    try {
      PendingReply copy = inner_->submit(frame, io_budget_s);
      auto discarded = std::make_shared<PendingReply>(std::move(copy));
      enqueue([discarded] { (void)discarded->take(); });
      std::lock_guard<std::mutex> lock(mutex_);
      ++faults_duplicated_;
    } catch (const std::exception&) {
      // The duplicate failing to send is itself realistic; ignore.
    }
  }

  if (block_replies) {
    // Asymmetric partition: the shard got the frame and renders, but its
    // answer evaporates. Drain the real reply off-thread so the inner
    // transport never wedges on an untaken handle.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++faults_partitioned_;
    }
    auto eaten = std::make_shared<PendingReply>(std::move(reply));
    enqueue([eaten] { (void)eaten->take(); });
    return PendingReply::failed(
        std::make_exception_ptr(support::TransportTimeoutError(
            instance() + " reply blocked by injected partition")));
  }

  if (delay_s <= 0.0 && !corrupt && !reorder) return reply;

  // Reply-side faults: a worker takes the real reply (take() folds any
  // transport failure into a typed error frame, so the pipeline below is
  // uniform), mutates or holds it, and settles the caller's future.
  auto promise = std::make_shared<std::promise<WireBuffer>>();
  std::future<WireBuffer> future = promise->get_future();
  auto pending = std::make_shared<PendingReply>(std::move(reply));
  const double submitted_s = steady_now_s();
  enqueue([this, pending, promise, delay_s, corrupt, corrupt_bits, reorder,
           submitted_s]() mutable {
    WireBuffer bytes = pending->take();
    if (corrupt && !bytes.empty()) {
      // Flip exactly one seeded-random bit anywhere in the frame. The wire
      // header CRC (kind + payload) plus the magic/version checks must
      // turn every such frame into WireFormatError at decode.
      const std::uint64_t bit_index =
          corrupt_bits % (static_cast<std::uint64_t>(bytes.size()) * 8u);
      bytes[static_cast<std::size_t>(bit_index / 8)] ^=
          static_cast<std::uint8_t>(1u << (bit_index % 8));
      std::lock_guard<std::mutex> lock(mutex_);
      ++faults_corrupted_;
    }
    if (delay_s > 0.0) {
      // Delay is measured from submit, not from reply readiness: a render
      // slower than the injected delay already "absorbed" it.
      const double release_s = submitted_s + delay_s;
      const double wait_s = release_s - steady_now_s();
      if (wait_s > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait_s));
      }
      std::lock_guard<std::mutex> lock(mutex_);
      ++faults_delayed_;
    }
    settle(std::move(promise), std::move(bytes), reorder);
  });
  return PendingReply::wire(std::move(future));
}

double ChaosTransport::heartbeat_age_ms() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (block_requests_ || block_replies_) {
      // The partition eats heartbeats in at least one direction; liveness
      // has been dark since it started.
      return (steady_now_s() - partition_since_s_) * 1e3;
    }
  }
  return inner_->heartbeat_age_ms();
}

std::vector<trace::MetricFamily> ChaosTransport::metric_families() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // A scrape cannot cross a partition either.
    if (block_requests_ || block_replies_) return {};
  }
  return inner_->metric_families();
}

TransportNetStats ChaosTransport::net_stats() {
  TransportNetStats net = inner_->net_stats();
  std::lock_guard<std::mutex> lock(mutex_);
  net.faults_dropped += faults_dropped_;
  net.faults_delayed += faults_delayed_;
  net.faults_duplicated += faults_duplicated_;
  net.faults_reordered += faults_reordered_;
  net.faults_corrupted += faults_corrupted_;
  net.faults_partitioned += faults_partitioned_;
  return net;
}

double ChaosTransport::partition_after_ms() {
  const double inner_threshold = inner_->partition_after_ms();
  if (inner_threshold >= 0.0) return inner_threshold;
  return options_.partition_after_ms;
}

void ChaosTransport::partition(bool block_requests, bool block_replies) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!block_requests_ && !block_replies_ &&
      (block_requests || block_replies)) {
    partition_since_s_ = steady_now_s();
  }
  block_requests_ = block_requests;
  block_replies_ = block_replies;
}

void ChaosTransport::heal() {
  std::lock_guard<std::mutex> lock(mutex_);
  block_requests_ = false;
  block_replies_ = false;
  partition_since_s_ = 0.0;
}

bool ChaosTransport::partitioned() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return block_requests_ || block_replies_;
}

void ChaosTransport::shutdown() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (closed_ && workers_.empty()) {
      inner_->shutdown();  // idempotent on both sides
      return;
    }
    closed_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  // A reply held for reorder when the fleet stops must still resolve —
  // every admitted future settles, partitioned or not.
  std::optional<HeldReply> release;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (held_.has_value()) {
      release = std::move(held_);
      held_.reset();
    }
  }
  if (release.has_value()) {
    release->promise->set_value(std::move(release->bytes));
  }
  inner_->shutdown();
}

}  // namespace starsim::fleet
