// Reproduces Table 8 (Appendix G): peak HFTA speedups over the baselines
// split by precision (FP32 vs AMP) — unlike Table 5, which takes the
// better of the two. The rows are tensor-core *predictions* of the
// simulator; table 10 carries the measured CPU AMP-over-FP32 ratio.
//
//   --json PATH   write the sim table as JSON
#include <cstdio>
#include <cstring>
#include <vector>

#include "sim/counters.h"

using namespace hfta::sim;

namespace {

double peak_vs(const DeviceSpec& dev, Workload w, Mode mode, Precision prec) {
  const double denom = peak(sweep(dev, w, mode, prec));
  if (denom == 0) return 0;
  return peak(sweep(dev, w, Mode::kHfta, prec)) / denom;
}

struct SimRow {
  const char* gpu;
  const char* prec;
  const char* baseline;
  double vals[3];
};

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json PATH]\n", argv[0]);
      return 1;
    }
  }
  const DeviceSpec devices[] = {v100(), rtx6000(), a100()};
  const Workload workloads[] = {Workload::kPointNetCls, Workload::kPointNetSeg,
                                Workload::kDCGAN};
  std::vector<SimRow> rows;
  std::printf("Table 8: peak HFTA speedups split by precision (sim)\n");
  std::printf("%-9s %-5s %-11s %14s %14s %10s\n", "GPU", "prec", "baseline",
              "PointNet-Cls", "PointNet-Seg", "DCGAN");
  for (const DeviceSpec& dev : devices) {
    for (Precision prec : {Precision::kFP32, Precision::kAMP}) {
      for (Mode mode :
           {Mode::kSerial, Mode::kConcurrent, Mode::kMps, Mode::kMig}) {
        if (mode == Mode::kMig && dev.max_mig_instances == 0) continue;
        SimRow r{dev.name.c_str(), precision_name(prec), mode_name(mode), {}};
        std::printf("%-9s %-5s %-11s", r.gpu, r.prec, r.baseline);
        for (size_t wi = 0; wi < 3; ++wi) {
          r.vals[wi] = peak_vs(dev, workloads[wi], mode, prec);
          std::printf(" %13.2fx", r.vals[wi]);
        }
        std::printf("\n");
        rows.push_back(r);
      }
    }
  }

  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_path);
      return 1;
    }
    std::fprintf(f, "{\n  \"table\": \"table8_peak_by_precision\",\n"
                 "  \"sim_rows\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const SimRow& r = rows[i];
      std::fprintf(f,
                   "    {\"gpu\": \"%s\", \"precision\": \"%s\", "
                   "\"baseline\": \"%s\", \"pointnet_cls\": %.4f, "
                   "\"pointnet_seg\": %.4f, \"dcgan\": %.4f}%s\n",
                   r.gpu, r.prec, r.baseline, r.vals[0], r.vals[1], r.vals[2],
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  }
  return 0;
}
