#include "noc/network.h"

#include <algorithm>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "util/error.h"

namespace specnoc::noc {
namespace {

// The traffic and energy observers are single-threaded code (the traffic
// recorder's pending-message map spans lanes), but partitioned runs emit
// hooks from several lanes at once. These forwarders serialize those two
// streams behind one shared mutex for the duration of a multi-threaded run
// (installed by HookSerializer below); one mutex for both keeps a consumer
// that implements both trivially safe. Metrics hooks are forwarded
// unlocked: MetricsObserver implementations take concurrent calls from
// different workers (see noc/hooks.h), stats::MetricsRegistry through
// per-worker shards.
class LockedTraffic final : public TrafficObserver {
 public:
  LockedTraffic(std::mutex& mutex, TrafficObserver& inner)
      : mutex_(mutex), inner_(inner) {}
  void on_flit_ejected(const Packet& packet, std::uint32_t dest,
                       FlitKind kind, TimePs when) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    inner_.on_flit_ejected(packet, dest, kind, when);
  }
  void on_packet_injected(const Packet& packet, TimePs when) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    inner_.on_packet_injected(packet, when);
  }

 private:
  std::mutex& mutex_;
  TrafficObserver& inner_;
};

class LockedEnergy final : public EnergyObserver {
 public:
  LockedEnergy(std::mutex& mutex, EnergyObserver& inner)
      : mutex_(mutex), inner_(inner) {}
  void on_node_op(const Node& node, NodeOp op, TimePs when) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    inner_.on_node_op(node, op, when);
  }
  void on_channel_flit(LengthUm length, TimePs when) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    inner_.on_channel_flit(length, when);
  }

 private:
  std::mutex& mutex_;
  EnergyObserver& inner_;
};

/// Scoped swap of the traffic/energy hook pointers for locking forwarders.
/// Restores the originals on destruction, so observers attached by
/// tests/experiments never see the wrappers outside the run call.
class HookSerializer {
 public:
  explicit HookSerializer(SimHooks& hooks) : hooks_(hooks), saved_(hooks) {
    if (saved_.traffic != nullptr) {
      traffic_.emplace(mutex_, *saved_.traffic);
      hooks_.traffic = &*traffic_;
    }
    if (saved_.energy != nullptr) {
      energy_.emplace(mutex_, *saved_.energy);
      hooks_.energy = &*energy_;
    }
  }
  ~HookSerializer() { hooks_ = saved_; }
  HookSerializer(const HookSerializer&) = delete;
  HookSerializer& operator=(const HookSerializer&) = delete;

 private:
  SimHooks& hooks_;
  SimHooks saved_;
  std::mutex mutex_;
  std::optional<LockedTraffic> traffic_;
  std::optional<LockedEnergy> energy_;
};

/// Runs `body` on the partitioned kernel at `threads` workers, with the
/// traffic/energy hooks serialized while more than one worker runs.
template <typename Body>
void run_workers(sim::PartitionedScheduler& psched, unsigned threads,
                 SimHooks& hooks, Body body) {
  psched.set_threads(threads);
  std::optional<HookSerializer> serialize;
  if (threads > 1) serialize.emplace(hooks);
  body();
}

}  // namespace

void Network::enable_partitions(std::uint32_t lanes, TimePs lookahead) {
  SPECNOC_EXPECTS(psched_ == nullptr);
  SPECNOC_EXPECTS(nodes_.empty() && channels_.empty());
  if (lanes <= 1) return;  // degenerate partitioning: stay sequential
  if (lanes > Channel::kMaxLanes) {
    throw ConfigError("partitioned execution supports at most " +
                      std::to_string(Channel::kMaxLanes) + " lanes, got " +
                      std::to_string(lanes));
  }
  if (lookahead <= 0) {
    throw ConfigError(
        "partitioned execution requires positive lookahead; a topology "
        "whose cross-partition channels have zero minimum latency must run "
        "sequentially");
  }
  psched_ = std::make_unique<sim::PartitionedScheduler>(scheduler_, lanes,
                                                        lookahead);
  psched_->set_mail_handler(&Channel::apply_mail);
}

void Network::set_worker_threads(unsigned threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  worker_threads_ = threads;
}

unsigned Network::effective_threads() const {
  return std::min<unsigned>(worker_threads_, partitions());
}

void Network::run() {
  if (psched_ == nullptr) {
    scheduler_.run();
    return;
  }
  run_workers(*psched_, effective_threads(), hooks_,
              [this] { psched_->run(); });
}

void Network::run_until(TimePs t) {
  if (psched_ == nullptr) {
    scheduler_.run_until(t);
    return;
  }
  run_workers(*psched_, effective_threads(), hooks_,
              [this, t] { psched_->run_until(t); });
}

TimePs Network::now() const {
  return psched_ != nullptr ? psched_->now() : scheduler_.now();
}

std::uint64_t Network::executed() const {
  return psched_ != nullptr ? psched_->executed() : scheduler_.executed();
}

std::size_t Network::pending() const {
  return psched_ != nullptr ? psched_->pending() : scheduler_.pending();
}

std::size_t Network::overflow_pending() const {
  return psched_ != nullptr ? psched_->overflow_pending()
                            : scheduler_.overflow_pending();
}

void Network::set_epoch_hook(TimePs epoch_ps, sim::Scheduler::EpochHook hook) {
  if (psched_ != nullptr) {
    psched_->set_epoch_hook(epoch_ps, std::move(hook));
  } else {
    scheduler_.set_epoch_hook(epoch_ps, std::move(hook));
  }
}

void Network::clear_epoch_hook() {
  if (psched_ != nullptr) {
    psched_->clear_epoch_hook();
  } else {
    scheduler_.clear_epoch_hook();
  }
}

void Network::add_channels(const ChannelSpec& spec, std::size_t count,
                           bool cross) {
  if (count == 0) return;
  SPECNOC_EXPECTS(!cross || partitioned());
  if (pipe_layout(spec, cross)) {
    channels_.append(arena_.run<Channel, PipeChannel>(declared_pipes_, count));
    declared_pipes_ += count;
  } else {
    channels_.append(arena_.run<Channel, WireChannel>(declared_wires_, count));
    declared_wires_ += count;
  }
}

void Network::reserve_channels() {
  arena_.reserve<WireChannel>(declared_wires_, "wire_channel");
  arena_.reserve<PipeChannel>(declared_pipes_, "pipe_channel");
}

Channel& Network::place_channel(std::size_t index, const ChannelSpec& spec,
                                Node& up, std::uint32_t up_port, Node& down,
                                std::uint32_t down_port) {
  SPECNOC_EXPECTS(up.partition() == down.partition());
  Channel& channel = place_channel(index, spec, up, up_port,
                                   down.partition(), 0);
  channel.connect_downstream(down, down_port);
  return channel;
}

Channel& Network::place_channel(std::size_t index, const ChannelSpec& spec,
                                Node& up, std::uint32_t up_port,
                                std::uint32_t down_partition,
                                std::uint32_t cross_index) {
  SPECNOC_EXPECTS(down_partition < partitions());
  const auto [run, slot] = channels_.locate(index);
  Channel& channel =
      arena_.holds<PipeChannel>(*run)
          ? static_cast<Channel&>(*arena_.create_at<PipeChannel>(slot, spec))
          : *arena_.create_at<WireChannel>(slot, spec);
  channel.connect_upstream(up, up_port);
  if (up.partition() != down_partition) {
    // The builder declared a lookahead no longer than its cross channels'
    // latency (the MoT's is its middle links' minimum, the mesh's its hop
    // latency), so this is a contract, not a ConfigError.
    SPECNOC_EXPECTS(std::min(spec.params.delay_fwd, spec.params.delay_ack) >=
                    psched_->lookahead());
    channel.make_cross_partition(cross_index);
  }
  return channel;
}

}  // namespace specnoc::noc
