// Micro-benchmark — cost of one FluidRateProvider::rates_into, the fluid
// substrate's per-component solve. The simulator calls it every time the set
// of in-flight transfers in a component changes, so it prices the "measured"
// side of every replay. Each iteration is one call on a warmed arena (the
// engine's steady state: no global allocation), on four component shapes:
//   - Singleton: one transfer, the most common component of an HPL replay;
//   - Ring: k transfers i -> i+1 over k hosts, one round of filling;
//   - Hotspot: k senders into one hub, a k-member RX bus and duplex bus;
//   - Random: k transfers over k/2 hosts, many rounds of filling.
// Complexity() fits the growth from 4 to 1024 transfers (docs/PERFORMANCE.md
// "Fluid provider cost").
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "flowsim/fluid_network.hpp"
#include "topo/network.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

namespace {

using namespace bwshare;

graph::CommGraph ring(int k) {
  graph::CommGraph g;
  for (int i = 0; i < k; ++i) g.add(i, (i + 1) % k, 4e6);
  return g;
}

graph::CommGraph hotspot(int k) {
  graph::CommGraph g;
  for (int i = 0; i < k; ++i) g.add(i + 1, 0, 4e6);
  return g;
}

graph::CommGraph random_comms(int k) {
  const int nodes = std::max(2, k / 2);
  Rng rng(99);
  graph::CommGraph g;
  for (int i = 0; i < k; ++i) {
    const int src = static_cast<int>(rng.below(static_cast<uint64_t>(nodes)));
    int dst = static_cast<int>(rng.below(static_cast<uint64_t>(nodes)));
    if (dst == src) dst = (dst + 1) % nodes;
    g.add(src, dst, 4e6);
  }
  return g;
}

void run(benchmark::State& state, const graph::CommGraph& g) {
  const flowsim::FluidRateProvider provider(
      topo::gigabit_ethernet_calibration());
  auto& arena = util::Arena::thread_local_instance();
  std::vector<double> out(static_cast<size_t>(g.size()));
  provider.rates_into(g, arena, out);  // warm the arena
  arena.reset();
  for (auto _ : state) {
    provider.rates_into(g, arena, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetComplexityN(g.size());
}

void BM_Singleton(benchmark::State& state) {
  graph::CommGraph g;
  g.add(0, 1, 4e6);
  run(state, g);
}
void BM_Ring(benchmark::State& state) {
  run(state, ring(static_cast<int>(state.range(0))));
}
void BM_Hotspot(benchmark::State& state) {
  run(state, hotspot(static_cast<int>(state.range(0))));
}
void BM_Random(benchmark::State& state) {
  run(state, random_comms(static_cast<int>(state.range(0))));
}

BENCHMARK(BM_Singleton)->Unit(benchmark::kNanosecond);
BENCHMARK(BM_Ring)->RangeMultiplier(4)->Range(4, 1024)->Complexity()->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Hotspot)->RangeMultiplier(4)->Range(4, 1024)->Complexity()->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Random)->RangeMultiplier(4)->Range(4, 1024)->Complexity()->Unit(benchmark::kMicrosecond);

}  // namespace
