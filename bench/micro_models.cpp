// Micro-benchmark A4 — evaluation cost of each penalty model on graphs of
// growing size (the predictive simulator re-evaluates the model every time
// the in-flight set changes, so this is the simulator's inner loop). Each
// iteration is one penalties_into() on a warmed arena, the call the
// simulator makes. The degree models run to 1024 comms so the growth rate
// (O(k log k), docs/MODELS.md) is visible; Myrinet stops at 64 because its
// state enumeration is exponential in conflict density.
#include <benchmark/benchmark.h>

#include <vector>

#include "graph/schemes.hpp"
#include "models/registry.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace {

using namespace bwshare;

graph::CommGraph random_comms(int comms, int nodes, uint64_t seed) {
  graph::CommGraph g;
  Rng rng(seed);
  for (int i = 0; i < comms; ++i) {
    const int src = static_cast<int>(rng.below(static_cast<uint64_t>(nodes)));
    int dst = static_cast<int>(rng.below(static_cast<uint64_t>(nodes)));
    if (dst == src) dst = (dst + 1) % nodes;
    g.add(strformat("c%d", i), src, dst, 4e6);
  }
  return g;
}

void BM_ModelPenalties(benchmark::State& state, const std::string& name) {
  const int comms = static_cast<int>(state.range(0));
  const auto g = random_comms(comms, comms, 99);
  const auto model = models::make_model(name);
  auto& arena = util::Arena::thread_local_instance();
  std::vector<double> p(static_cast<size_t>(g.size()));
  for (auto _ : state) {
    model->penalties_into(g, arena, p);
    benchmark::DoNotOptimize(p.data());
    benchmark::ClobberMemory();
  }
  state.SetComplexityN(comms);
}

void BM_Gige(benchmark::State& state) { BM_ModelPenalties(state, "gige"); }
void BM_Myrinet(benchmark::State& state) {
  BM_ModelPenalties(state, "myrinet");
}
void BM_Infiniband(benchmark::State& state) {
  BM_ModelPenalties(state, "infiniband");
}
void BM_KimLee(benchmark::State& state) { BM_ModelPenalties(state, "kimlee"); }

BENCHMARK(BM_Gige)->RangeMultiplier(2)->Range(4, 1024)->Complexity()->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Myrinet)->RangeMultiplier(2)->Range(4, 64)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Infiniband)->RangeMultiplier(2)->Range(4, 1024)->Complexity()->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_KimLee)->RangeMultiplier(2)->Range(4, 1024)->Complexity()->Unit(benchmark::kMicrosecond);

void BM_Fig2Scheme(benchmark::State& state) {
  const auto g = graph::schemes::fig2_scheme(static_cast<int>(state.range(0)));
  const auto model = models::make_model("myrinet");
  for (auto _ : state) {
    const auto p = model->penalties(g);
    benchmark::DoNotOptimize(p);
  }
}

BENCHMARK(BM_Fig2Scheme)->DenseRange(1, 6)->Unit(benchmark::kMicrosecond);

}  // namespace
