// Dynamic control flow — the differentiator against ahead-of-time DAG APIs
// (section II of the paper): the host program picks kernels with ordinary
// C++ control flow (data-dependent branches, loops, early exits), and the
// scheduler builds the computation DAG *as the calls arrive*. Nothing about
// the program structure is declared in advance — the same code under CUDA
// Graphs would need one pre-built graph per control-flow path.
//
// The program runs an iterative refinement loop: each round smooths a
// signal, measures the residual on the CPU, and — depending on the value it
// just read — either refines both halves in parallel, refines one half, or
// stops. The path taken depends on the data.
//
//   $ ./dynamic_control_flow
#include <cstdio>

#include "kernels/registry.hpp"

using namespace psched;

int main() {
  sim::GpuRuntime gpu(sim::DeviceSpec::gtx1660super());
  rt::Context ctx(gpu, kernels::default_options());
  ctx.record_dag();  // keep the DAG for the Graphviz dump at the end

  constexpr long kN = 1 << 18;

  auto lo = ctx.array<double>(kN, "lo");
  auto hi = ctx.array<double>(kN, "hi");
  auto residual = ctx.array<double>(1, "residual");

  {
    auto l = lo.span_for_write<double>();
    auto h = hi.span_for_write<double>();
    for (long i = 0; i < kN; ++i) {
      l[static_cast<std::size_t>(i)] = 2.0 + (i % 7) * 0.5;
      h[static_cast<std::size_t>(i)] = (i % 3) * 0.1;
    }
  }

  auto square = ctx.build_kernel("square", "pointer, sint32");
  auto reduce = ctx.build_kernel(
      "reduce_sum_diff", "const pointer, const pointer, pointer, sint32");

  int rounds = 0;
  int both_branches = 0;
  for (;;) {
    ++rounds;
    // Ordinary if/else on a value the host just read back from the GPU.
    // Under the hood, reading residual[0] synchronized exactly the stream
    // that produced it.
    reduce(64, 256)(lo, hi, residual, kN);
    const double r = residual.get(0);

    if (r > 1e7) {
      // Large residual: refine both halves — independent kernels the
      // scheduler overlaps on separate streams.
      square(64, 256)(lo, kN);
      square(64, 256)(hi, kN);
      ++both_branches;
    } else if (r > 0) {
      square(64, 256)(lo, kN);  // touch up one branch only
    } else {
      break;
    }
    if (rounds >= 6) break;
  }
  ctx.synchronize();

  const auto stats = ctx.stats();
  std::printf("rounds executed:        %d (both-branch rounds: %d)\n", rounds,
              both_branches);
  std::printf("computations recorded:  %ld across %ld streams\n",
              stats.computations, stats.streams_created);
  std::printf("dependency edges:       %ld, event waits: %ld\n", stats.edges,
              stats.event_waits);
  std::printf("host accesses modelled: %ld (immediate: %ld)\n",
              stats.host_accesses, stats.immediate_accesses);
  std::printf("\nThe DAG below was discovered at run time — no graph was "
              "declared anywhere:\n%s",
              ctx.dag().to_dot().c_str());
  return 0;
}
