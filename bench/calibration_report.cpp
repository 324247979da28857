// Calibration report — the full paper-vs-measured comparison in one
// binary: Fig. 7 speedups and serial-time anchors, Fig. 9 contention
// ratios, Fig. 12 hardware-utilization ratios, each printed next to the
// paper's published value. This is the tool the calibration of the kernel
// cost descriptors (duty cycles, shared-memory tiles, fault bandwidth)
// was iterated against.
#include <cstdio>
#include <map>
#include <string>
#include <vector>
#include "bench_suite/runner.hpp"
using namespace psched;
using namespace psched::benchsuite;

struct Target { double v960, v1660, vp100; };
// Paper Fig. 7 parallel-vs-serial speedups (first scale column).
static const std::map<std::string, Target> kFig7 = {
    {"VEC", {1.17, 2.68, 2.55}}, {"B&S", {1.33, 1.83, 2.79}},
    {"IMG", {1.55, 1.34, 1.49}}, {"ML", {1.22, 1.28, 1.39}},
    {"HITS", {1.13, 1.38, 1.33}}, {"DL", {1.34, 1.19, 1.17}}};
// Paper Fig. 12 hardware ratios (1660 only).
static const std::map<std::string, double> kFig12 = {
    {"VEC", 1.00}, {"B&S", 1.26}, {"IMG", 1.24},
    {"ML", 1.63},  {"HITS", 1.05}, {"DL", 1.25}};
// Paper Fig. 7 median serial baseline times in ms (first scale, per GPU).
static const std::map<std::string, Target> kSerialMs = {
    {"VEC", {19, 33, 39}},  {"B&S", {67, 67, 41}},  {"IMG", {22, 8, 5}},
    {"ML", {682, 162, 170}}, {"HITS", {173, 121, 91}}, {"DL", {56, 21, 35}}};
// Paper Fig. 9 parallel time / contention-free bound (~inverse of plot).
static const std::map<std::string, double> kFig9 = {
    {"VEC", 0.9}, {"B&S", 0.2}, {"IMG", 0.7},
    {"ML", 0.7},  {"HITS", 0.7}, {"DL", 0.7}};

int main() {
  const auto gpus = paper_gpus();
  printf("Fig7 cells: parallel/serial speedup ours(paper), then the serial\n"
         "time: our unnormalised total over the benchmark's\n"
         "default_iterations() (it) against the paper's per-run ms.\n");
  printf("%-5s %4s | %22s | %22s | %22s\n", "bench", "it", "960 ours(paper)",
         "1660 ours(paper)", "P100 ours(paper)");
  std::vector<double> sp_all;
  for (BenchId id : all_benchmarks()) {
    const auto bench = make_benchmark(id);
    printf("%-5s %4d |", name(id), bench->default_iterations());
    const Target& t = kFig7.at(name(id));
    const double tv[3] = {t.v960, t.v1660, t.vp100};
    int gi = 0;
    for (const auto& gpu : gpus) {
      RunConfig cfg;
      cfg.scale = fitting_scales(id, gpu).front();
      const RunResult rp = run_benchmark(*bench, Variant::GrcudaParallel, gpu, cfg);
      const RunResult rs = run_benchmark(*bench, Variant::GrcudaSerial, gpu, cfg);
      const double s = rp.gpu_time_us > 0 ? rs.gpu_time_us / rp.gpu_time_us : 0;
      sp_all.push_back(s);
      const Target& st = kSerialMs.at(name(id));
      const double stv[3] = {st.v960, st.v1660, st.vp100};
      printf(" %4.2fx(%4.2fx) %5.0f(%4.0fms) |", s, tv[gi],
             rs.gpu_time_us / 1e3, stv[gi]);
      ++gi;
    }
    printf("\n");
  }
  printf("geomean speedup ours: %.2fx (paper 1.44x)\n\n", geomean(sp_all));

  printf("Fig12 (1660): bench ratio ours(paper); Fig9 ratio ours(paper)\n");
  for (BenchId id : all_benchmarks()) {
    const auto bench = make_benchmark(id);
    const auto gpu = sim::DeviceSpec::gtx1660super();
    RunConfig cfg;
    cfg.scale = fitting_scales(id, gpu).front();
    const RunResult ser = run_benchmark(*bench, Variant::GrcudaSerial, gpu, cfg);
    const RunResult par = run_benchmark(*bench, Variant::GrcudaParallel, gpu, cfg);
    const double ratio = ser.hw.kernel_busy_us > 0 && par.hw.kernel_busy_us > 0
        ? par.hw.dram_gbps / ser.hw.dram_gbps : 0;
    const double fig9 = par.critical_path_us / par.gpu_time_us;
    printf("%-5s  fig12 %.2f (%.2f)   fig9 %.2f (%.2f)  [serial DRAM %.0f GB/s, CT %.2f TC %.2f CC %.2f]\n",
           name(id), ratio, kFig12.at(name(id)), fig9, kFig9.at(name(id)),
           ser.hw.dram_gbps, par.overlap.ct, par.overlap.tc, par.overlap.cc);
  }
  return 0;
}
