// Cluster harnesses: wire Deployments, n hosted protocol stacks and their
// substrate into one runnable cluster.  Cluster and ChaosCluster run on
// the deterministic Simulator (with a Scheduler, optional corrupted
// parties / client endpoints, crash-restarts and message faults);
// NodeCluster runs the same stacks on NetworkedNodes over a LoopbackHub.
// Header-only convenience used by the tests, the benchmarks and the
// examples — not by the protocols themselves.
#pragma once

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "common/assert.hpp"
#include "common/executor.hpp"
#include "common/work_pool.hpp"
#include "net/corruption.hpp"
#include "net/fault.hpp"
#include "net/party.hpp"
#include "net/scheduler.hpp"
#include "net/transport/loopback.hpp"
#include "net/transport/networked_node.hpp"

namespace sintra::protocols {

/// A Process that hosts a Party running one protocol object of type P.
template <typename P>
class HostedParty final : public net::Process {
 public:
  template <typename Factory>
  HostedParty(net::Network& network, int id, adversary::Deployment deployment,
              std::uint64_t seed, Factory&& factory)
      : party_(network, id, std::move(deployment), seed),
        protocol_(std::forward<Factory>(factory)(party_)) {}

  void on_message(const net::Message& message) override { party_.on_message(message); }

  // Crash recovery: what a hosted party persists is its Party's WAL.
  [[nodiscard]] Bytes snapshot() const override { return party_.snapshot(); }
  void restore(BytesView persisted) override { party_.restore(persisted); }

  [[nodiscard]] net::Party& party() { return party_; }
  [[nodiscard]] P& protocol() { return *protocol_; }

 private:
  net::Party party_;
  std::unique_ptr<P> protocol_;
};

/// n servers running protocol P; parties in `corrupted` are crashed unless
/// a custom Process is supplied for them before start().
template <typename P>
class Cluster {
 public:
  using Factory = std::function<std::unique_ptr<P>(net::Party& party, int id)>;

  Cluster(adversary::Deployment deployment, net::Scheduler& scheduler, Factory factory,
          crypto::PartySet corrupted = 0, int extra_endpoints = 0, std::uint64_t seed = 1,
          TraceLog* log = nullptr)
      : deployment_(std::move(deployment)),
        simulator_(deployment_.n() + extra_endpoints, scheduler, log),
        hosts_(static_cast<std::size_t>(deployment_.n()), nullptr) {
    for (int id = 0; id < deployment_.n(); ++id) {
      if (crypto::contains(corrupted, id)) {
        simulator_.attach(id, std::make_unique<net::CrashProcess>());
        continue;
      }
      auto host = std::make_unique<HostedParty<P>>(
          simulator_, id, deployment_, seed * 7919 + static_cast<std::uint64_t>(id),
          [&](net::Party& party) { return factory(party, id); });
      hosts_[static_cast<std::size_t>(id)] = host.get();
      simulator_.attach(id, std::move(host));
    }
  }

  /// Replace a party's process (e.g. a scripted Byzantine attacker).
  /// Call before start(); the slot is then no longer an honest host.
  void attach_custom(int id, std::unique_ptr<net::Process> process) {
    hosts_[static_cast<std::size_t>(id)] = nullptr;
    simulator_.attach(id, std::move(process));
  }

  /// Attach a client endpoint (ids deployment.n() .. n+extra-1).
  void attach_client(int id, std::unique_ptr<net::Process> process) {
    simulator_.attach(id, std::move(process));
  }

  void start() { simulator_.start(); }

  [[nodiscard]] net::Simulator& simulator() { return simulator_; }
  [[nodiscard]] const adversary::Deployment& deployment() const { return deployment_; }
  [[nodiscard]] int n() const { return deployment_.n(); }

  /// The protocol at an honest party (nullptr if corrupted/custom).
  [[nodiscard]] P* protocol(int id) {
    auto* host = hosts_[static_cast<std::size_t>(id)];
    return host == nullptr ? nullptr : &host->protocol();
  }
  [[nodiscard]] net::Party* party(int id) {
    auto* host = hosts_[static_cast<std::size_t>(id)];
    return host == nullptr ? nullptr : &host->party();
  }

  /// Run until `done(protocol)` holds at every honest party.
  bool run_until_all(const std::function<bool(P&)>& done, std::uint64_t max_steps) {
    return simulator_.run_until(
        [&] {
          for (int id = 0; id < n(); ++id) {
            P* p = protocol(id);
            if (p != nullptr && !done(*p)) return false;
          }
          return true;
        },
        max_steps);
  }

  /// Apply `fn` to every honest protocol instance.
  void for_each(const std::function<void(int id, P&)>& fn) {
    for (int id = 0; id < n(); ++id) {
      if (P* p = protocol(id)) fn(id, *p);
    }
  }

 private:
  adversary::Deployment deployment_;
  net::Simulator simulator_;
  std::vector<HostedParty<P>*> hosts_;
};

/// Cluster variant for fault-injection experiments (see net/fault.hpp and
/// tests/chaos_test.cpp): every party runs with its write-ahead log
/// enabled, any party can be scheduled to crash and restart mid-run, and a
/// FaultInjector can duplicate/replay/drop the cluster's traffic.
///
/// Unlike Cluster, the factory here must *also start* the protocol (feed
/// the input, submit the payload, ...): a crash-restarted party rebuilds
/// its whole stack through the factory, and the application-level start
/// calls are part of what it must redo — which is why the protocols'
/// start() entry points tolerate same-input re-entry.
template <typename P>
class ChaosCluster {
 public:
  /// Build AND start party `id`'s protocol object on `party`.
  using Factory = std::function<std::unique_ptr<P>(net::Party& party, int id)>;

  ChaosCluster(adversary::Deployment deployment, net::Scheduler& scheduler, Factory factory,
               std::uint64_t seed = 1)
      : deployment_(std::move(deployment)),
        simulator_(deployment_.n(), scheduler),
        factory_(std::move(factory)),
        seed_(seed),
        hosts_(static_cast<std::size_t>(deployment_.n()), nullptr),
        restarting_(static_cast<std::size_t>(deployment_.n()), nullptr) {}

  /// Attach an unreliable-delivery policy (call before start()).
  void set_fault_policy(std::uint64_t seed, net::FaultPolicy policy) {
    injector_ = std::make_unique<net::FaultInjector>(seed, policy);
    simulator_.set_fault_injector(injector_.get());
  }

  /// Schedule party `id` to crash after `crash_after` deliveries and come
  /// back after `down_for` stashed messages (call before start()).  With
  /// `lossy`, downtime traffic is dropped instead of stashed: the rejoined
  /// party genuinely missed it and must be recovered by a watchdog.
  void set_restarting(int id, std::uint64_t crash_after, std::uint64_t down_for,
                      int max_restarts = 1, bool lossy = false) {
    restart_plans_[id] = Plan{crash_after, down_for, max_restarts, lossy};
  }

  /// Replace party `id` with a scripted process (e.g. a FlooderProcess);
  /// the slot is then Byzantine, not an honest host.  Call before start().
  void set_custom(int id, std::function<std::unique_ptr<net::Process>()> factory) {
    custom_[id] = std::move(factory);
  }

  /// Resource budget installed on every honest party at (re)build time, so
  /// it also applies to crash-restarted incarnations.  Call before start().
  void set_budget(net::BudgetConfig config) { budget_ = config; }

  void start() {
    for (int id = 0; id < deployment_.n(); ++id) {
      if (auto custom = custom_.find(id); custom != custom_.end()) {
        simulator_.attach(id, custom->second());
        continue;
      }
      auto build = [this, id]() -> std::unique_ptr<net::Process> {
        auto host = std::make_unique<HostedParty<P>>(
            simulator_, id, deployment_, seed_ * 7919 + static_cast<std::uint64_t>(id),
            [this, id](net::Party& party) {
              party.enable_wal();
              if (budget_.has_value()) party.set_budget(*budget_);
              return factory_(party, id);
            });
        hosts_[static_cast<std::size_t>(id)] = host.get();
        return host;
      };
      auto plan = restart_plans_.find(id);
      if (plan != restart_plans_.end()) {
        auto process = std::make_unique<net::RestartingProcess>(
            build, plan->second.crash_after, plan->second.down_for, plan->second.max_restarts);
        process->set_lossy_downtime(plan->second.lossy);
        restarting_[static_cast<std::size_t>(id)] = process.get();
        simulator_.attach(id, std::move(process));
      } else {
        simulator_.attach(id, build());
      }
    }
    simulator_.start();
  }

  [[nodiscard]] net::Simulator& simulator() { return simulator_; }
  [[nodiscard]] const adversary::Deployment& deployment() const { return deployment_; }
  [[nodiscard]] int n() const { return deployment_.n(); }
  [[nodiscard]] const net::FaultInjector* injector() const { return injector_.get(); }
  [[nodiscard]] net::RestartingProcess* restarting(int id) {
    return restarting_[static_cast<std::size_t>(id)];
  }

  /// The current protocol incarnation at `id` (nullptr while crashed).
  [[nodiscard]] P* protocol(int id) {
    auto* process = restarting_[static_cast<std::size_t>(id)];
    if (process != nullptr && process->down()) return nullptr;
    auto* host = hosts_[static_cast<std::size_t>(id)];
    return host == nullptr ? nullptr : &host->protocol();
  }

  /// The current Party incarnation at `id` (nullptr while crashed or for a
  /// custom slot) — budget counters live here.
  [[nodiscard]] net::Party* party(int id) {
    auto* process = restarting_[static_cast<std::size_t>(id)];
    if (process != nullptr && process->down()) return nullptr;
    auto* host = hosts_[static_cast<std::size_t>(id)];
    return host == nullptr ? nullptr : &host->party();
  }

  /// Run until `done(protocol)` holds at every currently-up party.  When
  /// the network quiesces with a party still down (not enough traffic
  /// arrived to trigger its scheduled restart), the restart is forced and
  /// the run continues — a crashed replica that never restarts is outside
  /// the crash-*recovery* model.
  bool run_until_all(const std::function<bool(P&)>& done, std::uint64_t max_steps) {
    const std::uint64_t deadline = simulator_.now() + max_steps;
    auto all_done = [&] {
      for (int id = 0; id < n(); ++id) {
        auto* process = restarting_[static_cast<std::size_t>(id)];
        if (process != nullptr && process->down()) return false;
        P* p = protocol(id);
        if (p != nullptr && !done(*p)) return false;
      }
      return true;
    };
    while (true) {
      if (simulator_.run_until(all_done, deadline - simulator_.now())) return true;
      if (simulator_.now() >= deadline) return false;
      bool kicked = false;
      for (auto* process : restarting_) {
        if (process != nullptr && process->down()) {
          process->force_restart();
          kicked = true;
        }
      }
      if (!kicked) return false;  // quiescent with everyone up: stuck
    }
  }

  /// Apply `fn` to every currently-up protocol instance.
  void for_each(const std::function<void(int id, P&)>& fn) {
    for (int id = 0; id < n(); ++id) {
      if (P* p = protocol(id)) fn(id, *p);
    }
  }

 private:
  struct Plan {
    std::uint64_t crash_after;
    std::uint64_t down_for;
    int max_restarts;
    bool lossy = false;
  };

  adversary::Deployment deployment_;
  net::Simulator simulator_;
  Factory factory_;
  std::uint64_t seed_;
  std::unique_ptr<net::FaultInjector> injector_;
  std::map<int, Plan> restart_plans_;
  std::map<int, std::function<std::unique_ptr<net::Process>()>> custom_;
  std::optional<net::BudgetConfig> budget_;
  std::vector<HostedParty<P>*> hosts_;
  std::vector<net::RestartingProcess*> restarting_;
};

/// The networked deployment: one NetworkedNode per machine, all wired
/// through one LoopbackHub (the paper's asynchronous authenticated links,
/// with real framing, MACs and retransmission), each node hosting one
/// HostedParty<P> per group.  Every node owns one ExecutorPool and one
/// WorkPool (zero threads: inline), shared by all of its tenants; each
/// tenant's lanes are salted with its group id.  Partition schedules and
/// manual link surgery go through hub().
///
/// One pump policy drives every run: poll each live node and step the
/// hub; when nothing moves, wait for the pools to go idle, poll again
/// and tick the hub (retransmits, acks), then yield the core before the
/// next pass (only wall-clock timers can still be pending).  The pump
/// never sleeps, so timed bench regions measure protocol work.  Every run
/// is bounded by the same wall-clock budget.
template <typename P>
class NodeCluster {
 public:
  /// Build party `id`'s protocol object for `group`.  The party already
  /// holds its node's pools and its lane group; enabling the WAL and
  /// starting the protocol are the factory's choice.
  using Factory =
      std::function<std::unique_ptr<P>(net::Party& party, int id, std::uint32_t group)>;

  struct Config {
    std::vector<adversary::Deployment> groups;  ///< one tenant per entry; group id = index
    std::uint64_t seed = 1;                     ///< hub schedule and party seeds
    std::size_t executors = 0;                  ///< ExecutorPool threads per node
    std::size_t workers = 0;                    ///< WorkPool threads per node
    net::transport::LoopbackHub::FaultProfile faults{};
  };

  NodeCluster(Config config, Factory factory)
      : config_(std::move(config)),
        factory_(std::move(factory)),
        hub_(config_.groups.at(0).n(), config_.seed, config_.faults),
        machines_(static_cast<std::size_t>(n())) {
    for (const adversary::Deployment& group : config_.groups) {
      SINTRA_REQUIRE(group.n() == n(), "node_cluster: every group needs the same n");
    }
    for (int id = 0; id < n(); ++id) rebuild(id);
  }
  ~NodeCluster() {
    for (Machine& machine : machines_) teardown(machine);
  }
  NodeCluster(const NodeCluster&) = delete;
  NodeCluster& operator=(const NodeCluster&) = delete;

  [[nodiscard]] int n() const { return config_.groups.front().n(); }
  [[nodiscard]] net::transport::LoopbackHub& hub() { return hub_; }
  [[nodiscard]] net::transport::NetworkedNode& node(int id) { return *machine(id).node; }
  [[nodiscard]] HostedParty<P>& host(int id, std::uint32_t group = 0) {
    return *machine(id).hosts.at(group);
  }
  [[nodiscard]] P& state(int id, std::uint32_t group = 0) { return host(id, group).protocol(); }

  /// SIGKILL plus disk wipe: machine `id` and all its tenants are
  /// destroyed outright (no snapshot; the in-memory WAL dies with them),
  /// and frames addressed to it land in the void until rebuild(id).
  void kill(int id) {
    hub_.set_receiver(id, nullptr);
    teardown(machine(id));
  }

  /// Build machine `id` blank: fresh pools, node and one tenant per group
  /// from the factory.  Only the dealt keys in the Deployments survive a
  /// kill().
  void rebuild(int id) {
    Machine& m = machine(id);
    SINTRA_REQUIRE(m.node == nullptr, "node_cluster: rebuild of a live node");
    net::transport::NetworkedNode::Config node_config;
    node_config.node_id = id;
    node_config.n = n();
    m.executors = std::make_unique<common::ExecutorPool>(config_.executors);
    m.workers = std::make_unique<common::WorkPool>(config_.workers);
    m.node = std::make_unique<net::transport::NetworkedNode>(node_config);
    m.node->set_executors(m.executors.get());
    m.node->set_work_pool(m.workers.get());
    const auto groups = static_cast<std::uint32_t>(config_.groups.size());
    for (std::uint32_t group = 0; group < groups; ++group) {
      auto& endpoint = m.node->add_group(group);
      m.hosts.push_back(std::make_unique<HostedParty<P>>(
          endpoint, id, config_.groups[group],
          config_.seed * 7919 + static_cast<std::uint64_t>(id) * groups + group,
          [&](net::Party& party) {
            party.set_executors(m.executors.get());
            party.set_work_pool(m.workers.get());
            party.set_lane_group(group);
            return factory_(party, id, group);
          }));
      endpoint.attach(*m.hosts.back());
    }
    m.node->bind_transport_batched(
        [this, id](int peer, std::vector<net::transport::GroupPayload> payloads) {
          hub_.send_many(id, peer, std::move(payloads));
        });
    hub_.set_receiver(id, [node = m.node.get()](int from, std::uint32_t group, BytesView payload) {
      node->on_transport_receive(from, group, payload);
    });
  }

  /// Block until every live node's pools hold no work.  Afterwards, and
  /// until the next pump pass, protocol state is safe to read from the
  /// pump thread.
  void wait_idle() {
    for (Machine& m : machines_) {
      if (m.node == nullptr) continue;
      m.executors->wait_idle();
      m.workers->wait_idle();
    }
  }

  /// Drain and join every pool; afterwards protocol state is safe to read
  /// for good.
  void stop() {
    for (Machine& m : machines_) {
      if (m.node != nullptr) stop_pools(m);
    }
  }

  /// Pump until `done()` holds (see the class comment for the policy).
  /// With executors, done() runs on the pump thread while handlers run on
  /// executor threads, so it must read atomics or call wait_idle() first.
  /// Returns done()'s final value.
  bool run_until(const std::function<bool()>& done) {
    const auto deadline = std::chrono::steady_clock::now() + kRunBudget;
    while (!done()) {
      if (std::chrono::steady_clock::now() >= deadline) return done();
      bool progressed = poll_all();
      progressed = hub_.step() || progressed;
      if (progressed) continue;
      wait_idle();
      poll_all();
      hub_.tick();
      std::this_thread::yield();
    }
    return true;
  }

 private:
  /// Wall-clock bound on one run_until().
  static constexpr auto kRunBudget = std::chrono::seconds(120);

  struct Machine {
    std::unique_ptr<common::ExecutorPool> executors;
    std::unique_ptr<common::WorkPool> workers;
    std::unique_ptr<net::transport::NetworkedNode> node;
    std::vector<std::unique_ptr<HostedParty<P>>> hosts;  ///< [group]
  };

  Machine& machine(int id) { return machines_.at(static_cast<std::size_t>(id)); }

  static void stop_pools(Machine& m) {
    m.executors->stop();  // drains tasks that touch the parties
    m.workers->stop();    // completions re-enter the parties
  }

  /// Pools stop before the parties they run for; parties die before the
  /// node their endpoints point into.
  static void teardown(Machine& m) {
    if (m.node == nullptr) return;
    stop_pools(m);
    m.hosts.clear();
    m.node.reset();
    m.workers.reset();
    m.executors.reset();
  }

  bool poll_all() {
    bool progressed = false;
    for (Machine& m : machines_) {
      if (m.node != nullptr) progressed = (m.node->poll() > 0) || progressed;
    }
    return progressed;
  }

  Config config_;
  Factory factory_;
  net::transport::LoopbackHub hub_;
  std::vector<Machine> machines_;
};

}  // namespace sintra::protocols
