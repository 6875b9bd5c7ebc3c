// Service benchmark: a replicated trusted service (§5) measured from the
// client's request to its verified threshold-signed receipt.
//
// Four replicas (app::Replica on NetworkedNode) and one client node
// (app::PartitionedClient, one ServiceClient per shard) exchange frames
// over one LoopbackHub inside this process, driven by one pump thread.
// The hub adds no message delay, so every latency here is processor time
// of the four replicas sharing the cores, not network time.
//
//   service_bench --workload NAME --seed N --seconds S --trace 0|1
//                 [--trace-out FILE]
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// splits each cluster's window in two halves, the first untraced and the
// second with spans around every call into a layer, and reports the
// per-layer ledger plus the tracing overhead (the gap between the halves).
// Human-readable lines come first; the last line is one JSON object
// {"correct", "attempted", "failed", "metrics"}.  Exit status 1 means an
// output failed its check, 2 a bad argument.  perfbench/README.md lists
// the workloads and what each metric is expected to move.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "adversary/quorum.hpp"
#include "app/client.hpp"
#include "app/directory.hpp"
#include "app/notary.hpp"
#include "app/replica.hpp"
#include "common/executor.hpp"
#include "crypto/sha256.hpp"
#include "net/transport/loopback.hpp"
#include "net/transport/networked_node.hpp"
#include "protocols/harness.hpp"

using namespace sintra;

namespace {

using Clock = std::chrono::steady_clock;
using app::DirRequest;
using app::DirResponse;
using app::NotaryRequest;
using app::NotaryResponse;
using app::PartitionedClient;
using app::Replica;
using app::ServiceClient;
using common::ExecutorPool;
using net::transport::LoopbackHub;
using net::transport::NetworkedNode;

constexpr int kServers = 4;
constexpr int kFaults = 1;
constexpr int kClientId = kServers;  ///< the fifth endpoint
constexpr std::size_t kKeys = 1000;  ///< directory key space
constexpr std::size_t kDocumentBytes = 32;
/// Each run deals, wires, warms up and measures this many independent
/// clusters in turn, each for its share of the window, and pools their
/// samples: one cluster's schedule (coin outcomes, batch alignment) does
/// not decide the run.  setup_s is the median of their set-up times.
constexpr int kClusters = 3;
constexpr auto kDrainLimit = std::chrono::seconds(30);
constexpr auto kSettleLimit = std::chrono::seconds(10);
constexpr auto kIdleSlice = std::chrono::microseconds(200);

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// ---- workloads --------------------------------------------------------

enum class Service { kDirectory, kNotary };

struct Workload {
  std::string_view name;
  Service service;
  bool curve;                  ///< CryptoConfig::curve() instead of fast()
  std::uint32_t shards;        ///< groups hosted by the same four machines
  bool executors;              ///< one machine-wide ExecutorPool
  double rate_rps;             ///< > 0: open loop at this fixed rate
  std::size_t outstanding;     ///< closed loop: requests kept in flight
  std::uint64_t binds_per_4;   ///< directory: binds out of every 4 requests
  std::size_t value_bytes;     ///< directory bind value size
  std::size_t warmup_requests;
};

const Workload kWorkloads[] = {
    // 22 req/s is about a quarter of the closed-loop capacity on a quiet
    // host.  Near half of capacity, a shared host running at half speed
    // saturates the one pump thread, and queueing magnifies the slowdown
    // in the latency figures.  A 50 s window still leaves 11 samples
    // beyond p99.
    {"directory-curve-open", Service::kDirectory, true, 1, false, 22.0, 0, 3, 64, 48},
    // 128 outstanding is about 32 per shard, under the replicas' 64
    // per-client admission cap.  With 32 in all, each round carried so
    // few requests that thread hand-offs set the pace, and throughput
    // spread 0.22 of its median across runs (0.13 at 128).
    {"notary-sharded-closed", Service::kNotary, false, 4, true, 0.0, 128, 0, 0, 64},
    {"directory-bulk-closed", Service::kDirectory, false, 1, false, 0.0, 32, 4, 4096, 64},
};

// ---- tracing ----------------------------------------------------------

enum Layer : std::uint8_t {
  kRequest,   ///< app: PartitionedClient::request (TDH2 encryption in causal mode)
  kVerify,    ///< app: ServiceClient::verify_receipt
  kPoll,      ///< net: NetworkedNode::poll (its flush callbacks are kSend children)
  kIngest,    ///< net: NetworkedNode::on_transport_receive (child of kStep)
  kSend,      ///< transport: LoopbackHub::send_many
  kStep,      ///< transport: LoopbackHub::step
  kWaitIdle,  ///< common: ExecutorPool::wait_idle
  kIdle,      ///< pump: sleeping with nothing to do
  kLayers
};
constexpr std::array<const char*, kLayers> kLayerName = {
    "app.request", "app.receipt_verify", "net.poll",  "net.ingest",
    "transport.send_many", "transport.step", "exec.wait_idle", "pump.idle"};

/// Spans around the benchmark's own calls into each layer, all on the
/// pump thread.  Per-layer totals (count, total and self time) cover every
/// span; the span list itself is capped and written out when the run ends.
class Tracer {
 public:
  static constexpr std::uint32_t kNone = UINT32_MAX;
  static constexpr std::size_t kMaxSpans = 400'000;

  struct Total {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  bool on = false;

  void begin(Layer layer, std::uint64_t request) {
    const std::uint32_t parent = stack_.empty() ? kNone : stack_.back().index;
    std::uint32_t index = kNone;
    const std::int64_t start = now_ns();
    if (spans_.size() < kMaxSpans) {
      index = static_cast<std::uint32_t>(spans_.size());
      spans_.push_back({start, 0, parent, layer, request});
    } else {
      ++dropped_;
    }
    stack_.push_back({start, 0, index, layer});
  }

  /// `keep == false` forgets an empty span (a poll that found nothing)
  /// unless a child was stored under it; its time still counts.
  void end(bool keep) {
    const Open open = stack_.back();
    stack_.pop_back();
    const std::int64_t stop = now_ns();
    const std::int64_t duration = stop - open.start;
    Total& total = totals_[open.layer];
    ++total.count;
    total.total_ns += duration;
    total.self_ns += duration - open.child_ns;
    if (!stack_.empty()) stack_.back().child_ns += duration;
    if (open.index == kNone) return;
    if (!keep && open.index + 1 == spans_.size()) {
      spans_.pop_back();
    } else {
      spans_[open.index].end_ns = stop;
    }
  }

  /// Set the request id of the innermost open span (known only after
  /// the call it wraps returned).
  void tag(std::uint64_t request) {
    const std::uint32_t index = stack_.back().index;
    if (index != kNone) spans_[index].request = request;
  }

  [[nodiscard]] const Total& total(Layer layer) const { return totals_[layer]; }
  [[nodiscard]] std::size_t spans() const { return spans_.size(); }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// One span per line: layer, start and end (ns from tracer creation),
  /// parent line index (-1 for none), request id.
  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "layer\tstart_ns\tend_ns\tparent\trequest\n";
    for (const auto& span : spans_) {
      out << kLayerName[span.layer] << '\t' << span.start_ns << '\t' << span.end_ns << '\t'
          << (span.parent == kNone ? -1 : static_cast<std::int64_t>(span.parent)) << '\t'
          << span.request << '\n';
    }
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint32_t parent;
    Layer layer;
    std::uint64_t request;
  };
  struct Open {
    std::int64_t start;
    std::int64_t child_ns;
    std::uint32_t index;
    Layer layer;
  };

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<Open> stack_;
  std::array<Total, kLayers> totals_{};
  std::uint64_t dropped_ = 0;
};

/// RAII span; a no-op while tracing is off (decided at construction, so a
/// toggle between begin and end cannot unbalance the stack).
class Span {
 public:
  Span(Tracer& tracer, Layer layer, std::uint64_t request = 0)
      : tracer_(tracer), active_(tracer.on) {
    if (active_) tracer_.begin(layer, request);
  }
  ~Span() {
    if (active_) tracer_.end(keep_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void discard() { keep_ = false; }
  void tag(std::uint64_t request) {
    if (active_) tracer_.tag(request);
  }

 private:
  Tracer& tracer_;
  bool active_;
  bool keep_ = true;
};

// ---- clocks (wall time for rates, getrusage/thread clock for CPU) ------

double process_cpu_ms() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ms = [](const timeval& tv) { return tv.tv_sec * 1e3 + tv.tv_usec / 1e3; };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return ts.tv_sec * 1e3 + ts.tv_nsec / 1e6;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

// ---- the cluster ------------------------------------------------------

struct SvcState {
  std::unique_ptr<Replica> replica;
};
using Host = protocols::HostedParty<SvcState>;

std::vector<adversary::Deployment> deal(const Workload& workload, std::uint64_t seed) {
  Rng rng(seed);
  const auto config = workload.curve ? adversary::CryptoConfig::curve()
                                     : adversary::CryptoConfig::fast();
  std::vector<adversary::Deployment> deployments;
  for (std::uint32_t s = 0; s < workload.shards; ++s) {
    deployments.push_back(adversary::Deployment::threshold(kServers, kFaults, rng, config));
  }
  return deployments;
}

/// Four replica machines plus the client machine, each a NetworkedNode
/// hosting one tenant per shard, wired through one LoopbackHub.
class Cluster {
 public:
  using ReplyFn = PartitionedClient::ReplyFn;

  Cluster(const Workload& workload, const std::vector<adversary::Deployment>& deployments,
          std::uint64_t seed, Tracer& tracer, ReplyFn on_reply)
      : tracer_(tracer), hub_(kServers + 1, seed) {
    if (workload.executors) {
      const std::size_t cores = std::max(2u, std::thread::hardware_concurrency());
      pool_ = std::make_unique<ExecutorPool>(cores - 1);  // plus the pump: nproc threads
    }
    const auto mode =
        workload.service == Service::kNotary ? Replica::Mode::kCausal : Replica::Mode::kAtomic;
    const auto shards = workload.shards;
    for (int id = 0; id <= kServers; ++id) {
      NetworkedNode::Config config;
      config.node_id = id;
      config.n = kServers + 1;
      nodes_.push_back(std::make_unique<NetworkedNode>(config));
    }
    client_ = std::make_unique<PartitionedClient>(seed ^ 0xc11e47u, std::move(on_reply));
    hosts_.resize(kServers);
    for (std::uint32_t s = 0; s < shards; ++s) {
      for (int id = 0; id < kServers; ++id) {
        auto& endpoint = nodes_[static_cast<std::size_t>(id)]->add_group(s);
        auto host = std::make_unique<Host>(
            endpoint, id, deployments[s], seed * 7919 + static_cast<std::uint64_t>(id) * 131 + s,
            [&](net::Party& party) {
              if (pool_) {
                party.set_executors(pool_.get());
                // Salt lanes per (machine, shard): the shared pool spreads
                // all sixteen instance trees instead of stacking a shard's
                // four replicas on one lane.
                party.set_lane_group(static_cast<std::uint64_t>(id) * shards + s);
              }
              auto state = std::make_unique<SvcState>();
              party.with_instance("svc", [&] {
                std::unique_ptr<app::StateMachine> machine;
                if (workload.service == Service::kNotary) {
                  machine = std::make_unique<app::Notary>();
                } else {
                  machine = std::make_unique<app::SecureDirectory>();
                }
                state->replica = std::make_unique<Replica>(party, "svc", mode, std::move(machine));
              });
              return state;
            });
        endpoint.attach(*host);
        hosts_[static_cast<std::size_t>(id)].push_back(std::move(host));
      }
      auto& client_endpoint = nodes_[kClientId]->add_group(s);
      client_endpoint.attach(
          client_->add_shard(s, client_endpoint, kClientId, deployments[s], "svc", mode));
    }
    for (int id = 0; id <= kServers; ++id) {
      auto& node = *nodes_[static_cast<std::size_t>(id)];
      if (pool_) node.set_executors(pool_.get());
      node.bind_transport_batched(
          [this, id](int peer, std::vector<net::transport::GroupPayload> payloads) {
            Span span(tracer_, kSend);
            for (const auto& p : payloads) send_bytes_ += p.payload.size();
            hub_.send_many(id, peer, std::move(payloads));
          });
      hub_.set_receiver(id, [this, raw = &node](int from, std::uint32_t group, BytesView payload) {
        Span span(tracer_, kIngest);
        raw->on_transport_receive(from, group, payload);
      });
    }
  }

  ~Cluster() {
    if (pool_) pool_->stop();  // drain executor tasks before parties die
  }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Poll every node once and move one frame.  Returns whether anything
  /// moved.
  bool pump_once() {
    bool progressed = false;
    for (auto& node : nodes_) {
      Span span(tracer_, kPoll);
      const std::size_t dispatched = node->poll();
      if (dispatched == 0) span.discard();
      progressed = dispatched > 0 || progressed;
    }
    Span span(tracer_, kStep);
    const bool moved = hub_.step();
    if (!moved) span.discard();
    return moved || progressed;
  }

  /// Nothing moved: let executor work finish, then run the hub's
  /// retransmit/ack pass.
  void settle() {
    if (pool_) {
      Span span(tracer_, kWaitIdle);
      pool_->wait_idle();
    }
    hub_.tick();
  }

  [[nodiscard]] PartitionedClient& client() { return *client_; }
  [[nodiscard]] ExecutorPool* pool() { return pool_.get(); }
  [[nodiscard]] const LoopbackHub& hub() const { return hub_; }
  [[nodiscard]] std::uint64_t send_bytes() const { return send_bytes_; }

  [[nodiscard]] Replica& replica(int id, std::uint32_t shard) {
    return *hosts_[static_cast<std::size_t>(id)][shard]->protocol().replica;
  }

  /// `dispatched` and `dropped_inbox` summed over all nodes; the other
  /// fields stay zero.
  [[nodiscard]] NetworkedNode::Stats node_totals() const {
    NetworkedNode::Stats sum;
    for (const auto& node : nodes_) {
      const auto stats = node->stats();
      sum.dispatched += stats.dispatched;
      sum.dropped_inbox += stats.dropped_inbox;
    }
    return sum;
  }

 private:
  Tracer& tracer_;
  LoopbackHub hub_;
  std::vector<std::unique_ptr<NetworkedNode>> nodes_;
  std::vector<std::vector<std::unique_ptr<Host>>> hosts_;  ///< [machine][shard]
  std::unique_ptr<PartitionedClient> client_;
  std::uint64_t send_bytes_ = 0;
  // Destroyed first (after the destructor stopped it): its tasks touch
  // the parties and nodes above.
  std::unique_ptr<ExecutorPool> pool_;
};

// ---- load generation and output checks --------------------------------

std::uint64_t fnv1a(BytesView data) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (auto b : data) h = (h ^ b) * 0x100000001b3ull;
  return h;
}

/// Request id in spans: shard in the top 16 bits, per-shard id below.
std::uint64_t request_label(std::uint32_t shard, std::uint64_t id) {
  return (std::uint64_t{shard} << 48) | id;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

/// Samples beyond the q-quantile's nearest rank.
std::size_t beyond(std::size_t samples, double q) {
  if (samples == 0) return 0;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(samples)));
  return samples - std::max<std::size_t>(rank, 1);
}

/// What one phase (issue window plus drain) measured.
struct Phase {
  double window_s = 0;
  double elapsed_ms = 0;               ///< window plus drain
  std::vector<double> latency_ms;      ///< per verified receipt of a window request
  std::vector<double> lag_ms;          ///< open loop: send time minus due time
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t receipts_in_window = 0;
  std::uint64_t receipts = 0;          ///< verified during the phase, drain included
  std::uint64_t busy = 0;
  double cpu_ms = 0;                   ///< process CPU over the window
  double cpu_ms_total = 0;             ///< process CPU over window plus drain
  double pump_cpu_ms_total = 0;
  std::uint64_t rounds = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t inbox_drops = 0;
  std::uint64_t frames = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t send_bytes = 0;
  std::uint64_t tasks = 0;

  [[nodiscard]] double throughput_rps() const {
    return window_s > 0 ? static_cast<double>(receipts_in_window) / window_s : 0.0;
  }

  /// Pool another cluster's phase into this one.
  Phase& operator+=(const Phase& other) {
    window_s += other.window_s;
    elapsed_ms += other.elapsed_ms;
    latency_ms.insert(latency_ms.end(), other.latency_ms.begin(), other.latency_ms.end());
    lag_ms.insert(lag_ms.end(), other.lag_ms.begin(), other.lag_ms.end());
    attempted += other.attempted;
    failed += other.failed;
    receipts_in_window += other.receipts_in_window;
    receipts += other.receipts;
    busy += other.busy;
    cpu_ms += other.cpu_ms;
    cpu_ms_total += other.cpu_ms_total;
    pump_cpu_ms_total += other.pump_cpu_ms_total;
    rounds += other.rounds;
    dispatched += other.dispatched;
    inbox_drops += other.inbox_drops;
    frames += other.frames;
    coalesced += other.coalesced;
    send_bytes += other.send_bytes;
    tasks += other.tasks;
    return *this;
  }
};

class Load {
 public:
  Load(const Workload& workload, std::uint64_t seed, Tracer& tracer)
      : workload_(workload), tracer_(tracer), inputs_(seed ^ 0x5eedf00dull),
        bound_(kKeys), versions_(kKeys), sequences_(workload.shards) {}

  void attach(Cluster& cluster) { cluster_ = &cluster; }

  /// Reply callback (pump thread, inside the client node's poll).
  void on_receipt(std::uint32_t shard, std::uint64_t id, ServiceClient::Receipt receipt) {
    auto it = outstanding_.find({shard, id});
    if (it == outstanding_.end()) {
      ++violations_;  // a receipt for a request never sent (or twice)
      return;
    }
    bool valid = false;
    {
      Span span(tracer_, kVerify, request_label(shard, id));
      valid = cluster_->client().shard_client(shard).verify_receipt(id, it->second.body, receipt);
    }
    const auto now = Clock::now();
    if (!valid || !check_reply(shard, it->second, receipt.reply)) {
      ++violations_;
      if (it->second.measured) ++measured_bad_;
    } else {
      ++receipts_;
      if (now <= window_end_) ++receipts_in_window_;
      if (it->second.measured) latency_ms_.push_back(ms_between(it->second.due, now));
    }
    outstanding_.erase(it);
  }

  /// Closed-loop warm-up outside any measurement: fills lazily built
  /// tables (registered-base caches, link state) before timing starts.
  bool warm_up() {
    window_end_ = Clock::time_point::min();
    for (std::size_t i = 0; i < workload_.warmup_requests; ++i) issue(Clock::now(), false);
    return pump_until([&] { return outstanding_.empty(); }, Clock::now() + kDrainLimit);
  }

  /// Issue for `seconds`, then drain.  Requests still unanswered after
  /// the drain limit count as failed.
  Phase run_phase(double seconds) {
    Phase phase;
    phase.window_s = seconds;
    const Snapshot before = snapshot();
    latency_ms_.clear();
    receipts_ = receipts_in_window_ = measured_bad_ = 0;
    const auto start = Clock::now();
    window_end_ = start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
    const double cpu_start = process_cpu_ms();
    const bool open = workload_.rate_rps > 0;
    const auto interval = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / (open ? workload_.rate_rps : 1.0)));
    auto next_due = start;
    std::uint64_t issued = 0;
    auto now = start;
    while (now < window_end_) {
      if (open) {
        for (; next_due <= now && next_due < window_end_; next_due += interval) {
          issue(next_due, true);
          phase.lag_ms.push_back(ms_between(next_due, Clock::now()));
          ++issued;
        }
      } else {
        while (outstanding_.size() < workload_.outstanding) {
          issue(now, true);
          ++issued;
          now = Clock::now();
        }
      }
      pump_step(open ? next_due : Clock::now() + kIdleSlice);
      now = Clock::now();
    }
    phase.cpu_ms = process_cpu_ms() - cpu_start;
    const bool drained = pump_until([&] { return outstanding_.empty(); }, Clock::now() + kDrainLimit);
    std::uint64_t unanswered = 0;
    if (!drained) {
      for (auto& [key, request] : outstanding_) unanswered += request.measured ? 1 : 0;
      outstanding_.clear();
    }
    const Snapshot after = snapshot();
    phase.elapsed_ms = ms_between(start, Clock::now());
    phase.latency_ms = latency_ms_;
    phase.attempted = issued;
    phase.receipts = receipts_;
    phase.receipts_in_window = receipts_in_window_;
    phase.busy = after.busy - before.busy;
    // A Busy reply cannot be tied to a request (causal mode hides the
    // id), so each one counts as a failed request.
    phase.failed = std::min(issued, unanswered + measured_bad_ + phase.busy);
    phase.cpu_ms_total = after.cpu_ms - before.cpu_ms;
    phase.pump_cpu_ms_total = after.pump_cpu_ms - before.pump_cpu_ms;
    phase.rounds = after.rounds - before.rounds;
    phase.dispatched = after.dispatched - before.dispatched;
    phase.inbox_drops = after.inbox_drops - before.inbox_drops;
    phase.frames = after.frames - before.frames;
    phase.coalesced = after.coalesced - before.coalesced;
    phase.send_bytes = after.send_bytes - before.send_bytes;
    phase.tasks = after.tasks - before.tasks;
    return phase;
  }

  /// Pump until the four replicas of every shard have executed the same
  /// number of requests, then check notary sequence bounds.  Returns the
  /// number of violations found.
  std::uint64_t final_check() {
    std::vector<std::uint64_t> executed(workload_.shards, 0);
    auto agreed = [&] {
      // Executor tasks may still run unless the pool was just drained;
      // replica counters are read only after a settle().
      for (std::uint32_t s = 0; s < workload_.shards; ++s) {
        executed[s] = cluster_->replica(0, s).executed_count();
        for (int id = 1; id < kServers; ++id) {
          if (cluster_->replica(id, s).executed_count() != executed[s]) return false;
        }
      }
      return true;
    };
    std::uint64_t found = 0;
    const auto deadline = Clock::now() + kSettleLimit;
    bool same = false;
    while (!same && Clock::now() < deadline) {
      if (cluster_->pump_once()) continue;
      cluster_->settle();
      if (cluster_->pump_once()) continue;
      same = agreed();
      if (!same) std::this_thread::sleep_for(kIdleSlice);
    }
    if (!same) {
      std::printf("check: replicas disagree on executed_count\n");
      ++found;
    }
    for (std::uint32_t s = 0; s < workload_.shards; ++s) {
      for (auto sequence : sequences_[s]) {
        if (sequence > executed[s]) ++found;
      }
    }
    return found;
  }

  [[nodiscard]] std::uint64_t violations() const { return violations_; }

 private:
  struct Request {
    Bytes body;
    Clock::time_point due;
    std::size_t key = 0;
    std::uint64_t value_hash = 0;
    bool bind = false;
    bool measured = false;
  };

  struct Snapshot {
    double cpu_ms;
    double pump_cpu_ms;
    std::uint64_t busy, rounds, dispatched, inbox_drops, frames, coalesced, send_bytes, tasks;
  };

  Snapshot snapshot() {
    Snapshot s{process_cpu_ms(), thread_cpu_ms(), 0, 0, 0, 0, 0, 0, 0, 0};
    auto& client = cluster_->client();
    for (std::uint32_t shard = 0; shard < workload_.shards; ++shard) {
      s.busy += client.shard_client(shard).busy_replies();
      // Round counters are readable only in atomic mode (the causal
      // broadcast keeps its inner atomic broadcast private), and only
      // without executors, where this thread is the only one running
      // protocol code.
      if (auto* abc = cluster_->replica(0, shard).atomic(); abc && !cluster_->pool()) {
        s.rounds += static_cast<std::uint64_t>(abc->rounds_completed());
      }
    }
    const auto node = cluster_->node_totals();
    s.dispatched = node.dispatched;
    s.inbox_drops = node.dropped_inbox;
    s.frames = cluster_->hub().stats().batches_sent;
    s.coalesced = cluster_->hub().stats().coalesced_payloads;
    s.send_bytes = cluster_->send_bytes();
    if (auto* pool = cluster_->pool()) s.tasks = pool->stats().posted;
    return s;
  }

  void issue(Clock::time_point due, bool measured) {
    Request request;
    request.due = due;
    request.measured = measured;
    std::string key;
    if (workload_.service == Service::kNotary) {
      NotaryRequest notary;
      notary.op = NotaryRequest::Op::kRegister;
      notary.document = inputs_.bytes(kDocumentBytes);
      key.assign(notary.document.begin(), notary.document.end());
      request.body = notary.encode();
    } else {
      DirRequest dir;
      request.key = static_cast<std::size_t>(inputs_.below(kKeys));
      request.bind = inputs_.below(4) < workload_.binds_per_4;
      dir.op = request.bind ? DirRequest::Op::kBind : DirRequest::Op::kLookup;
      dir.key = "key/" + std::to_string(request.key);
      if (request.bind) {
        dir.value = inputs_.bytes(workload_.value_bytes);
        request.value_hash = fnv1a(dir.value);
        bound_[request.key].insert(request.value_hash);
      }
      key = dir.key;
      request.body = dir.encode();
    }
    PartitionedClient::RequestHandle handle;
    {
      Span span(tracer_, kRequest);
      handle = cluster_->client().request(std::string_view(key), Bytes(request.body));
      span.tag(request_label(handle.shard, handle.request_id));
    }
    outstanding_.emplace(std::make_pair(handle.shard, handle.request_id), std::move(request));
  }

  /// The reply content a correct service may give for this request.
  bool check_reply(std::uint32_t shard, const Request& request, const Bytes& reply) {
    try {
      if (workload_.service == Service::kNotary) {
        const auto response = NotaryResponse::decode(reply);
        return response.status == NotaryResponse::Status::kRegistered &&
               sequences_[shard].insert(response.sequence).second;
      }
      const auto response = DirResponse::decode(reply);
      if (response.key != "key/" + std::to_string(request.key)) return false;
      if (request.bind) {
        return response.status == DirResponse::Status::kOk &&
               fnv1a(response.value) == request.value_hash &&
               versions_[request.key].insert(response.version).second;
      }
      return response.status == DirResponse::Status::kNotFound ||
             bound_[request.key].count(fnv1a(response.value)) > 0;
    } catch (const ProtocolError&) {
      return false;
    }
  }

  /// One pump cycle; with nothing to do, sleep until `wake` (capped).
  void pump_step(Clock::time_point wake) {
    if (cluster_->pump_once()) return;
    cluster_->settle();
    if (cluster_->pump_once()) return;
    Span span(tracer_, kIdle);
    std::this_thread::sleep_until(std::min(wake, Clock::now() + kIdleSlice));
  }

  bool pump_until(const std::function<bool()>& done, Clock::time_point deadline) {
    while (!done()) {
      if (Clock::now() >= deadline) return false;
      pump_step(Clock::now() + kIdleSlice);
    }
    return true;
  }

  const Workload& workload_;
  Tracer& tracer_;
  Cluster* cluster_ = nullptr;
  Rng inputs_;
  std::map<std::pair<std::uint32_t, std::uint64_t>, Request> outstanding_;
  std::vector<std::unordered_set<std::uint64_t>> bound_;  ///< key -> bound value hashes
  std::vector<std::set<std::uint64_t>> versions_;         ///< key -> bind versions seen
  std::vector<std::set<std::uint64_t>> sequences_;        ///< shard -> notary sequences
  Clock::time_point window_end_ = Clock::time_point::min();
  std::vector<double> latency_ms_;
  std::uint64_t receipts_ = 0;
  std::uint64_t receipts_in_window_ = 0;
  std::uint64_t measured_bad_ = 0;
  std::uint64_t violations_ = 0;
};

/// A dealt and wired service instance.  `cluster_seed` drives the keys,
/// party randomness, the hub's delivery order and the request inputs.
struct Run {
  Run(const Workload& workload, std::uint64_t cluster_seed, Tracer& tracer)
      : cluster_seed(cluster_seed),
        load(workload, cluster_seed, tracer),
        cluster(workload, deal(workload, cluster_seed), cluster_seed, tracer,
                [this](std::uint32_t shard, std::uint64_t id, ServiceClient::Receipt receipt) {
                  load.on_receipt(shard, id, std::move(receipt));
                }) {
    load.attach(cluster);
  }
  std::uint64_t cluster_seed;
  Load load;
  Cluster cluster;
};

// ---- crypto, timed from outside with the workload's own keys ----------

/// Median wall time of one call, over calls made for about `budget`.
template <typename Op>
double time_op_us(Op&& op, std::chrono::milliseconds budget = std::chrono::milliseconds(150)) {
  std::vector<double> samples;
  const auto stop = Clock::now() + budget;
  while (samples.size() < 5 || (Clock::now() < stop && samples.size() < 20000)) {
    const auto start = Clock::now();
    op();
    samples.push_back(std::chrono::duration<double, std::micro>(Clock::now() - start).count());
  }
  return percentile(std::move(samples), 0.5);
}

struct CryptoLedger {
  std::map<std::string, double> us;
  std::uint64_t failures = 0;
};

CryptoLedger time_crypto(const adversary::Deployment& deployment, std::uint64_t seed) {
  CryptoLedger ledger;
  Rng rng(seed ^ 0xc0ffeeull);
  const auto& keys = *deployment.keys;
  const auto& pk = keys.public_keys();
  const Bytes message = rng.bytes(64);
  auto expect = [&](bool ok) { ledger.failures += ok ? 0 : 1; };

  // Threshold RSA under the quorum (cert) key: what the ordering
  // protocols sign and combine on their critical path.
  std::vector<crypto::SigShare> sig_shares;
  for (int p = 0; p < kServers - kFaults; ++p) {
    for (auto& share : keys.share(p).cert_sig.sign(pk.cert_sig, message, rng)) {
      sig_shares.push_back(std::move(share));
    }
  }
  ledger.us["crypto.sig_share_us"] =
      time_op_us([&] { expect(!keys.share(0).cert_sig.sign(pk.cert_sig, message, rng).empty()); });
  ledger.us["crypto.sig_verify_share_us"] =
      time_op_us([&] { expect(pk.cert_sig.verify_share(message, sig_shares[0])); });
  ledger.us["crypto.sig_combine_us"] =
      time_op_us([&] { expect(pk.cert_sig.combine(message, sig_shares).has_value()); });

  const auto coin_share = keys.share(0).coin.share(pk.coin, message, rng);
  ledger.us["crypto.coin_verify_share_us"] =
      time_op_us([&] { expect(pk.coin.verify_share(message, coin_share.at(0))); });

  const auto ciphertext = pk.encryption.encrypt(message, bytes_of("perfbench"), rng);
  std::vector<crypto::Tdh2DecShare> dec_shares;
  for (int p = 0; p <= kFaults; ++p) {
    for (auto& share : keys.share(p).decryption.decrypt_shares(pk.encryption, ciphertext, rng)) {
      dec_shares.push_back(std::move(share));
    }
  }
  ledger.us["crypto.tdh2_verify_share_us"] =
      time_op_us([&] { expect(pk.encryption.verify_share(ciphertext, dec_shares.at(0))); });
  ledger.us["crypto.tdh2_combine_us"] = time_op_us([&] {
    const auto plain = pk.encryption.combine(ciphertext, dec_shares);
    expect(plain.has_value() && *plain == message);
  });

  constexpr std::size_t kKiB = 4;
  const Bytes block = rng.bytes(kKiB * 1024);
  const Bytes mac_key = rng.bytes(32);
  volatile std::uint8_t sink = 0;  // keeps the digests from being optimised away
  ledger.us["crypto.sha256_us_per_kib"] =
      time_op_us([&] { sink = crypto::sha256(block)[0]; }) / kKiB;
  ledger.us["crypto.hmac_us_per_kib"] =
      time_op_us([&] { sink = crypto::hmac_sha256(mac_key, block)[0]; }) / kKiB;
  return ledger;
}

// ---- output -----------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) std::printf("%-32s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double per(double value, std::uint64_t count) {
  return count == 0 ? 0.0 : value / static_cast<double>(count);
}

void describe_phase(const char* label, const Phase& phase) {
  std::printf(
      "%s: %llu attempted, %llu failed, %zu latency samples (%zu beyond p99), "
      "p50 %.3f ms, p99 %.3f ms, %.3f rps\n",
      label, static_cast<unsigned long long>(phase.attempted),
      static_cast<unsigned long long>(phase.failed), phase.latency_ms.size(),
      beyond(phase.latency_ms.size(), 0.99), percentile(phase.latency_ms, 0.5),
      percentile(phase.latency_ms, 0.99), phase.throughput_rps());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") args.workload = value;
      else if (flag == "--seed") args.seed = std::stoull(value);
      else if (flag == "--seconds") args.seconds = std::stod(value);
      else if (flag == "--trace") args.trace = std::stoi(value) != 0;
      else if (flag == "--trace-out") args.trace_out = value;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: service_bench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const auto& w : kWorkloads) {
    if (w.name == args.workload) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  Tracer tracer;
  std::vector<double> setup_s;
  Phase plain;     // trace mode: the untraced halves
  Phase measured;  // the traced halves in trace mode
  bool warmed = true;
  std::uint64_t violations = 0;
  std::uint64_t last_cluster_seed = 0;
  Rng cluster_seeds(args.seed);
  const double share = args.seconds / kClusters;
  std::printf("workload %s, seed %llu, %u shard(s), %s loop, %d clusters\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              workload->shards, workload->rate_rps > 0 ? "open" : "closed", kClusters);
  for (int c = 0; c < kClusters; ++c) {
    last_cluster_seed = cluster_seeds.next();
    const auto start = Clock::now();
    auto run = std::make_unique<Run>(*workload, last_cluster_seed, tracer);
    warmed = run->load.warm_up() && warmed;
    setup_s.push_back(ms_between(start, Clock::now()) / 1e3);
    if (!args.trace) {
      const Phase phase = run->load.run_phase(share);
      std::printf("cluster %d: setup %.3f s, ", c, setup_s.back());
      describe_phase("measured", phase);
      measured += phase;
    } else {
      // First half untraced, second half traced: the gap is the overhead.
      plain += run->load.run_phase(share / 2);
      tracer.on = true;
      measured += run->load.run_phase(share / 2);
      tracer.on = false;
      std::printf("cluster %d: setup %.3f s\n", c, setup_s.back());
    }
    violations += run->load.violations() + run->load.final_check();
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    describe_phase("measured", measured);
    const auto& lat = measured.latency_ms;
    metrics = {
        {"commit_p50_ms", percentile(lat, 0.5), "ms"},
        {"commit_p99_ms", percentile(lat, 0.99), "ms"},
        {"throughput_rps", measured.throughput_rps(), "1/s"},
        {"cpu_ms_per_req", per(measured.cpu_ms, measured.receipts_in_window), "ms"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"setup_s", percentile(setup_s, 0.5), "s"},
    };
    std::printf("failed_frac %.6f (%llu of %llu)\n",
                per(static_cast<double>(measured.failed), measured.attempted),
                static_cast<unsigned long long>(measured.failed),
                static_cast<unsigned long long>(measured.attempted));
  } else {
    describe_phase("untraced halves", plain);
    describe_phase("traced halves", measured);
    const auto receipts = measured.receipts;
    auto self_ms = [&](Layer layer) { return tracer.total(layer).self_ns / 1e6; };
    auto total_ms = [&](Layer layer) { return tracer.total(layer).total_ns / 1e6; };
    const auto ledger = time_crypto(deal(*workload, last_cluster_seed)[0], args.seed);
    if (ledger.failures != 0) std::printf("check: %llu crypto self-checks failed\n",
                                          static_cast<unsigned long long>(ledger.failures));
    metrics = {
        {"app.client_request_us", per(total_ms(kRequest) * 1e3, tracer.total(kRequest).count), "us"},
        {"app.receipt_verify_us", per(total_ms(kVerify) * 1e3, tracer.total(kVerify).count), "us"},
        {"app.busy_per_kreq", per(1e3 * static_cast<double>(measured.busy), measured.attempted), "count"},
        {"protocols.requests_per_round", per(static_cast<double>(receipts), measured.rounds), "count"},
        {"protocols.round_ms",
         per(measured.elapsed_ms * workload->shards, measured.rounds), "ms"},
        {"net.poll_self_ms", per(self_ms(kPoll), receipts), "ms"},
        {"net.ingest_us", per(total_ms(kIngest) * 1e3, receipts), "us"},
        {"net.dispatched", per(static_cast<double>(measured.dispatched), receipts), "count"},
        {"net.inbox_drops", static_cast<double>(measured.inbox_drops), "count"},
        {"transport.send_ms", per(total_ms(kSend), receipts), "ms"},
        {"transport.step_self_ms", per(self_ms(kStep), receipts), "ms"},
        {"transport.bytes", per(static_cast<double>(measured.send_bytes), receipts), "B"},
        {"transport.frames", per(static_cast<double>(measured.frames), receipts), "count"},
        {"transport.payloads_per_batch",
         per(static_cast<double>(measured.coalesced), measured.frames), "count"},
        {"exec.wait_ms", per(total_ms(kWaitIdle), receipts), "ms"},
        // Clamped: the two clocks tick at different granularities, so
        // without executors the difference can dip just below zero.
        {"exec.cpu_ms",
         per(std::max(0.0, measured.cpu_ms_total - measured.pump_cpu_ms_total), receipts), "ms"},
        {"exec.tasks", per(static_cast<double>(measured.tasks), receipts), "count"},
        {"exec.cores_busy", measured.cpu_ms_total / measured.elapsed_ms, "cores"},
        {"pump.idle_ms", per(total_ms(kIdle), receipts), "ms"},
        {"loadgen.lag_p99_ms", percentile(measured.lag_ms, 0.99), "ms"},
    };
    for (const auto& [name, us] : ledger.us) metrics.push_back({name, us, "us"});
    const double p50_plain = percentile(plain.latency_ms, 0.5);
    metrics.push_back({"trace.overhead_p50_frac",
                       p50_plain > 0 ? percentile(measured.latency_ms, 0.5) / p50_plain - 1 : 0,
                       "ratio"});
    metrics.push_back({"trace.overhead_rps_frac",
                       plain.throughput_rps() > 0
                           ? 1 - measured.throughput_rps() / plain.throughput_rps()
                           : 0,
                       "ratio"});
    measured.failed += plain.failed;
    measured.attempted += plain.attempted;
    if (ledger.failures != 0) measured.failed += ledger.failures;
    std::printf("trace: %zu spans kept, %llu beyond the cap\n", tracer.spans(),
                static_cast<unsigned long long>(tracer.dropped()));
    for (int layer = 0; layer < kLayers; ++layer) {
      const auto& total = tracer.total(static_cast<Layer>(layer));
      std::printf("span %-20s %10llu calls %12.3f ms total %12.3f ms self\n", kLayerName[layer],
                  static_cast<unsigned long long>(total.count), total.total_ns / 1e6,
                  total.self_ns / 1e6);
    }
    if (!args.trace_out.empty() && !tracer.write(args.trace_out)) {
      std::printf("trace: could not write %s\n", args.trace_out.c_str());
    }
  }

  const bool correct = warmed && violations == 0 && measured.failed == 0 &&
                       measured.receipts_in_window > 0;
  if (!correct) {
    std::printf("check: FAILED (%llu violations, %llu failed requests%s)\n",
                static_cast<unsigned long long>(violations),
                static_cast<unsigned long long>(measured.failed), warmed ? "" : ", warm-up stalled");
  }
  print_result(correct, std::max<std::uint64_t>(measured.attempted, 1), measured.failed, metrics);
  return correct ? 0 : 1;
}
