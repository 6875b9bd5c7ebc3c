// Experiment E17 — sharded multi-group operation (google-benchmark).
//
// Four machines, each one NetworkedNode hosting S independent SINTRA
// groups (distinct dealt keys per group) over ONE LoopbackHub link mesh,
// with ONE machine-wide ExecutorPool per node shared by every tenant.
// Each group runs a full atomic broadcast; the benchmark measures
// submit-to-last-delivery for S * K payloads, so items/s is the AGGREGATE
// committed request rate across shards — the number the shard-scaling
// acceptance gate reads at S = 1, 2, 4, 8.
//
// Because group ids ride per record inside the coalesced BATCH
// super-frames (wire v4), multiplexing S groups adds zero frames: the
// payloads-per-batch counter reported per row proves multi-shard flushes
// still cost one HMAC (and on TCP one sendmsg) per link flush.
//
// Rows report wall-clock time: items/s is requests committed per second
// of real time, whatever the thread count.  On a 1-core host the curve
// is flat; the committed BENCH_E17.json comes from a 4-CPU host.
#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "adversary/quorum.hpp"
#include "net/transport/loopback.hpp"
#include "protocols/atomic.hpp"
#include "protocols/harness.hpp"

using namespace sintra;

namespace {

using net::transport::LoopbackHub;
using protocols::AtomicBroadcast;

constexpr int kN = 4;
constexpr std::size_t kPayloadsPerShard = 4;

struct ShardAbcState {
  std::unique_ptr<AtomicBroadcast> abc;
  std::atomic<std::size_t> delivered{0};  ///< read by the pump's done()
};

/// Four machines × S tenants.  Every tenant of a machine shares that
/// machine's NetworkedNode (transport link, pump, timers) and its
/// ExecutorPool; lanes are salted by group id so two shards running the
/// same protocol tag spread across cores instead of colliding.
using ShardCluster = protocols::NodeCluster<ShardAbcState>;

std::unique_ptr<ShardCluster> shard_cluster(const std::vector<adversary::Deployment>& deployments,
                                            std::uint64_t seed, std::size_t executors) {
  return std::make_unique<ShardCluster>(
      ShardCluster::Config{.groups = deployments, .seed = seed, .executors = executors},
      [](net::Party& party, int, std::uint32_t) {
        auto state = std::make_unique<ShardAbcState>();
        party.with_instance("abc", [&party, &state] {
          state->abc = std::make_unique<AtomicBroadcast>(
              party, "abc", [st = state.get()](int, Bytes) {
                st->delivered.fetch_add(1, std::memory_order_relaxed);
              });
        });
        return state;
      });
}

void BM_E17ShardedAtomic(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  const std::size_t executors = std::min<std::size_t>(4, std::thread::hardware_concurrency());
  Rng rng(41);
  // Distinct dealt keys per group: each shard is a real independent
  // service, not a replay of one key set.  Dealt once, outside timing.
  std::vector<adversary::Deployment> deployments;
  for (std::size_t s = 0; s < shards; ++s) {
    deployments.push_back(adversary::Deployment::threshold(kN, 1, rng));
  }
  std::uint64_t seed = 1;
  std::uint64_t batches = 0;
  std::uint64_t coalesced = 0;
  bool live = true;
  for (auto _ : state) {
    state.PauseTiming();
    auto cluster = shard_cluster(deployments, ++seed, executors);
    state.ResumeTiming();
    for (std::size_t s = 0; s < shards; ++s) {
      for (std::size_t k = 0; k < kPayloadsPerShard; ++k) {
        auto& host = cluster->host(static_cast<int>((s + k) % kN), static_cast<std::uint32_t>(s));
        host.party().with_instance("abc", [&host, s, k] {
          host.protocol().abc->submit(bytes_of("s" + std::to_string(s) + "/p" + std::to_string(k)));
        });
      }
    }
    live = cluster->run_until([&] {
      for (int id = 0; id < kN; ++id) {
        for (std::size_t s = 0; s < shards; ++s) {
          const auto& tenant = cluster->state(id, static_cast<std::uint32_t>(s));
          if (tenant.delivered.load(std::memory_order_relaxed) < kPayloadsPerShard) return false;
        }
      }
      return true;
    }) && live;
    state.PauseTiming();
    const LoopbackHub::Stats wire = cluster->hub().stats();
    batches += wire.batches_sent;
    coalesced += wire.coalesced_payloads;
    cluster.reset();
    state.ResumeTiming();
  }
  if (!live) state.SkipWithError("sharded atomic broadcast did not deliver");
  // Aggregate committed requests across ALL shards: the scaling gate's
  // numerator.  payloads_per_batch > 1 is the one-HMAC-per-flush proof —
  // multi-shard traffic coalesced instead of fragmenting into frames.
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * shards * kPayloadsPerShard));
  state.counters["shards"] = static_cast<double>(shards);
  state.counters["batches"] = static_cast<double>(batches);
  state.counters["payloads_per_batch"] =
      batches == 0 ? 0.0 : static_cast<double>(coalesced) / static_cast<double>(batches);
}
// Real time: the protocol work runs on the pump and executor threads, so
// the main thread's CPU time would overstate items_per_second.
BENCHMARK(BM_E17ShardedAtomic)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
