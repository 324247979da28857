// Quickstart — the VEC program of Fig. 4, written exactly like the GrCUDA
// host code of the paper: declare kernels, declare managed arrays, invoke,
// read the result. No streams, no events, no synchronization anywhere —
// the runtime scheduler infers everything.
//
//   $ ./quickstart
#include <cstdio>

#include "kernels/registry.hpp"

using namespace psched;

int main() {
  // A simulated Tesla P100 hosts the computation.
  sim::GpuRuntime gpu(sim::DeviceSpec::tesla_p100());
  rt::Context ctx(gpu, kernels::default_options());
  ctx.record_dag();  // keep the DAG for the Graphviz dump at the end

  constexpr long kN = 1'000'000;

  // Declare kernels (source strings accepted for GrCUDA API fidelity;
  // dispatch goes to the registered implementations).
  auto square = ctx.build_kernel("square", "pointer, sint32");
  auto reduce = ctx.build_kernel(
      "reduce_sum_diff", "const pointer, const pointer, pointer, sint32");

  // Declare managed arrays — visible to both CPU and (simulated) GPU.
  auto x = ctx.array<double>(kN, "X");
  auto y = ctx.array<double>(kN, "Y");
  auto z = ctx.array<double>(1, "Z");

  // Initialize on the CPU: ordinary host writes.
  {
    auto xs = x.span_for_write<double>();
    auto ys = y.span_for_write<double>();
    for (long i = 0; i < kN; ++i) {
      xs[static_cast<std::size_t>(i)] = 1.0 / (i + 1);
      ys[static_cast<std::size_t>(i)] = 2.0 / (i + 1);
    }
  }

  // Launch: the two squares are independent — the scheduler runs them on
  // separate streams; the reduction depends on both and synchronizes with
  // events, never blocking the host.
  square(64, 256)(x, kN);
  square(64, 256)(y, kN);
  reduce(64, 256)(x, y, z, kN);

  // Reading z forces synchronization of exactly the producing stream.
  const double result = z.get(0);
  std::printf("sum(x^2 - y^2) = %.6f  (expected %.6f)\n", result,
              -3.0 * 1.6449340668482264 /* -3 * pi^2/6, asymptotically */);

  // Introspection: what did the scheduler build?
  const auto stats = ctx.stats();
  std::printf("computations: %ld (kernels %ld), edges %ld, streams %ld, "
              "event waits %ld\n",
              stats.computations, stats.kernels, stats.edges,
              stats.streams_created, stats.event_waits);
  std::printf("GPU busy time: %.1f us, data moved H2D %.1f MB\n",
              gpu.timeline().makespan(), gpu.bytes_h2d() / 1e6);
  std::printf("\nInferred computation DAG (Graphviz):\n%s",
              ctx.dag().to_dot().c_str());
  return 0;
}
