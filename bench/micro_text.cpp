// Micro-benchmark — the text front doors. Every trace a sweep loads and
// every scheme a served query carries goes through this code:
//   - WriteTrace / ReadTrace: write_trace and read_trace on the HPL trace at
//     perfbench's tiny shape (32 tasks) and at the paper's full shape (1024
//     tasks, ~14 MB of text, the hpl_grid workload's trace);
//   - ParseScheme: parse_scheme on a random:nodes=256,comms=160,spread=1
//     scheme rendered as text, the inline scheme of a served cache query.
// Bytes processed are the text's size (docs/PERFORMANCE.md "Text front
// doors").
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>

#include "graph/generator.hpp"
#include "graph/scheme_parser.hpp"
#include "hpl/hpl_trace.hpp"
#include "sim/trace_io.hpp"

namespace {

using namespace bwshare;

/// perfbench's hpl_grid trace: range(0) == 1 is the full shape, 0 the tiny.
sim::AppTrace hpl_trace(const benchmark::State& state) {
  hpl::HplParams params;  // lookahead on, the paper's 3.2 Gflop/s tasks
  if (state.range(0) == 1) {
    params.n = 20500;
    params.nb = 120;
    params.tasks = 1024;
  } else {
    params.n = 2400;
    params.nb = 40;
    params.tasks = 32;
  }
  return hpl::make_hpl_trace(params);
}

void BM_WriteTrace(benchmark::State& state) {
  const sim::AppTrace trace = hpl_trace(state);
  size_t bytes = 0;
  for (auto _ : state) {
    const std::string text = sim::write_trace(trace);
    bytes = text.size();
    benchmark::DoNotOptimize(text.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
}

void BM_ReadTrace(benchmark::State& state) {
  const std::string text = sim::write_trace(hpl_trace(state));
  for (auto _ : state) {
    const sim::AppTrace trace = sim::read_trace(text);
    benchmark::DoNotOptimize(trace);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
}

void BM_ParseScheme(benchmark::State& state) {
  const auto spec =
      graph::parse_generator_spec("random:nodes=256,comms=160,spread=1");
  const std::string text =
      graph::to_scheme_text(graph::generate_scheme(spec, 1), "bench");
  for (auto _ : state) {
    const graph::ParsedScheme parsed = graph::parse_scheme(text);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
}

BENCHMARK(BM_WriteTrace)->ArgName("full")->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ReadTrace)->ArgName("full")->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ParseScheme)->Unit(benchmark::kMicrosecond);

}  // namespace
