// NetworkedNode tests: the full protocol stack (Party + AtomicBroadcast,
// unchanged) running over the loopback transport instead of the simulator
// — fault-free and under the chaos fault profile — plus the adapter's own
// robustness properties: bounded inbox with drop-oldest, malformed
// payload rejection, and payload wire-format round trips.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "adversary/examples.hpp"
#include "net/transport/loopback.hpp"
#include "net/transport/networked_node.hpp"
#include "protocols/atomic.hpp"
#include "protocols/harness.hpp"

namespace sintra::net::transport {
namespace {

using protocols::AtomicBroadcast;

struct AbcState {
  std::unique_ptr<AtomicBroadcast> abc;
  std::vector<std::pair<int, Bytes>> delivered;
};

/// n protocol stacks, each on its own NetworkedNode, wired through one
/// LoopbackHub — the single-threaded deterministic version of the real
/// TCP deployment.
using AbcCluster = protocols::NodeCluster<AbcState>;

std::unique_ptr<AbcCluster> abc_cluster(int n, std::uint64_t seed,
                                        LoopbackHub::FaultProfile faults) {
  Rng rng(seed);
  auto deployment = adversary::Deployment::threshold(n, (n - 1) / 3, rng);
  return std::make_unique<AbcCluster>(
      AbcCluster::Config{.groups = {deployment}, .seed = seed, .faults = faults},
      [](net::Party& party, int, std::uint32_t) {
        auto state = std::make_unique<AbcState>();
        state->abc = std::make_unique<AtomicBroadcast>(
            party, "abc", [s = state.get()](int origin, Bytes payload) {
              s->delivered.emplace_back(origin, std::move(payload));
            });
        return state;
      });
}

/// Submit one payload per node and pump until every node delivered all
/// of them, in one total order.
void run_one_round(AbcCluster& cluster) {
  const int n = cluster.n();
  for (int id = 0; id < n; ++id) {
    cluster.state(id).abc->submit(bytes_of("m" + std::to_string(id)));
  }
  ASSERT_TRUE(cluster.run_until([&] {
    for (int id = 0; id < n; ++id) {
      if (cluster.state(id).delivered.size() < static_cast<std::size_t>(n)) return false;
    }
    return true;
  }));
  const auto& reference = cluster.state(0).delivered;
  for (int id = 1; id < n; ++id) {
    EXPECT_EQ(cluster.state(id).delivered, reference) << "total order violated";
  }
}

TEST(NetworkedNodeTest, AtomicBroadcastOverLoopback) {
  auto cluster = abc_cluster(4, /*seed=*/11, LoopbackHub::FaultProfile{});
  run_one_round(*cluster);
  for (int id = 0; id < 4; ++id) {
    EXPECT_EQ(cluster->node(id).stats().malformed, 0u);
  }
}

TEST(NetworkedNodeTest, AtomicBroadcastUnderChaosProfile) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_one_round(*abc_cluster(4, seed, LoopbackHub::FaultProfile::chaos()));
  }
}

/// Minimal process that records what reaches it.
struct RecordingProcess final : net::Process {
  std::vector<Bytes> seen;
  void on_message(const net::Message& message) override { seen.push_back(message.payload); }
};

TEST(NetworkedNodeTest, InboxQuotaDropsOldest) {
  NetworkedNode::Config config;
  config.node_id = 0;
  config.n = 2;
  config.max_inbox = 4;
  NetworkedNode node(config);
  RecordingProcess process;
  node.add_group(0).attach(process);
  for (int i = 0; i < 10; ++i) {
    net::Message m;
    m.from = 1;
    m.to = 0;
    m.tag = "t";
    m.payload = bytes_of("p" + std::to_string(i));
    const Bytes wire = NetworkedNode::encode_payload(m);
    node.on_transport_receive(1, 0, wire);
  }
  node.poll();
  // Drop-oldest: the newest 4 survive the quota.
  ASSERT_EQ(process.seen.size(), 4u);
  EXPECT_EQ(process.seen.front(), bytes_of("p6"));
  EXPECT_EQ(process.seen.back(), bytes_of("p9"));
  EXPECT_EQ(node.stats().dropped_inbox, 6u);
  EXPECT_EQ(node.stats().dispatched, 4u);
}

TEST(NetworkedNodeTest, MalformedPayloadCountedAndDropped) {
  NetworkedNode::Config config;
  config.node_id = 0;
  config.n = 2;
  NetworkedNode node(config);
  RecordingProcess process;
  node.add_group(0).attach(process);
  const Bytes junk = bytes_of("not a message");
  node.on_transport_receive(1, 0, junk);
  node.on_transport_receive(1, 0, BytesView{});
  node.poll();
  EXPECT_TRUE(process.seen.empty());
  EXPECT_EQ(node.stats().malformed, 2u);
  EXPECT_EQ(node.stats().dispatched, 0u);
}

TEST(NetworkedNodeTest, FreshNodeHostsNoTenantUntilAddGroup) {
  NetworkedNode::Config config;
  config.node_id = 0;
  config.n = 2;
  NetworkedNode node(config);
  net::Message m;
  m.from = 1;
  m.to = 0;
  m.tag = "t";
  m.payload = bytes_of("early");
  // No implicit group 0: a group-0 payload has no tenant to reach.
  node.on_transport_receive(1, 0, NetworkedNode::encode_payload(m));
  EXPECT_EQ(node.poll(), 0u);
  EXPECT_EQ(node.stats().unknown_group, 1u);
  EXPECT_EQ(node.stats().dispatched, 0u);

  // Tenants come only from add_group, with their starting epoch.
  RecordingProcess process;
  auto& group = node.add_group(0, /*epoch=*/3);
  group.attach(process);
  EXPECT_EQ(node.group(0).epoch(), 3u);
  node.on_transport_receive(1, 0, NetworkedNode::encode_payload(m, 3));
  EXPECT_EQ(node.poll(), 1u);
  ASSERT_EQ(process.seen.size(), 1u);
  EXPECT_EQ(process.seen[0], bytes_of("early"));
}

TEST(NetworkedNodeTest, PayloadWireFormatRoundTrips) {
  net::Message m;
  m.from = 3;
  m.to = 1;
  m.tag = "abc/vote";
  m.payload = bytes_of("ballot");
  const Bytes wire = NetworkedNode::encode_payload(m);
  const net::Message back = NetworkedNode::decode_payload(3, 1, wire);
  EXPECT_EQ(back.from, 3);
  EXPECT_EQ(back.to, 1);
  EXPECT_EQ(back.tag, "abc/vote");
  EXPECT_EQ(back.payload, bytes_of("ballot"));
  EXPECT_THROW(NetworkedNode::decode_payload(3, 1, bytes_of("junk")), ProtocolError);
}

TEST(NetworkedNodeTest, SelfSubmitLoopsThroughInbox) {
  NetworkedNode::Config config;
  config.node_id = 0;
  config.n = 2;
  NetworkedNode node(config);
  RecordingProcess process;
  node.add_group(0).attach(process);
  net::Message m;
  m.from = 0;
  m.to = 0;
  m.tag = "self";
  m.payload = bytes_of("loop");
  node.group(0).submit(m);
  EXPECT_TRUE(process.seen.empty());  // asynchronous, like the simulator
  node.poll();
  ASSERT_EQ(process.seen.size(), 1u);
  EXPECT_EQ(process.seen[0], bytes_of("loop"));
  EXPECT_EQ(node.stats().self_messages, 1u);
}

TEST(NetworkedNodeTest, TimersFireThroughPoll) {
  NetworkedNode::Config config;
  config.node_id = 0;
  config.n = 2;
  NetworkedNode node(config);
  RecordingProcess process;
  auto& endpoint = node.add_group(0);
  endpoint.attach(process);
  int fired = 0;
  endpoint.schedule_timer(0, 1, [&] { ++fired; });
  const auto cancelled = endpoint.schedule_timer(0, 1, [&] { ++fired; });
  endpoint.cancel_timer(cancelled);
  EXPECT_TRUE(node.run_until([&] { return fired >= 1; }, /*timeout_ms=*/2000));
  EXPECT_EQ(fired, 1);
}

}  // namespace
}  // namespace sintra::net::transport
