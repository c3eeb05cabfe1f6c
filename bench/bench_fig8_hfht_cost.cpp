// Reproduces Figure 8: total GPU-hours of four end-to-end hyper-parameter
// tuning workloads on V100 — {PointNet, MobileNet} x {random search,
// Hyperband} — under the serial / concurrent / MPS / HFTA job schedulers.
// Paper headline: HFTA cuts total cost by up to 5.10x, and random search
// benefits more than Hyperband (Appendix E's fusion-opportunity argument).
//
// Flags (all optional; defaults reproduce the paper figure):
//   --trials N     shrink the tuning budgets (random-search set count and
//                  Hyperband's R) for CI smoke runs
//   --seed N       tuning seed (default 2021)
//   --json PATH    additionally write the table as JSON (CI artifact)
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "hfht/tuner.h"

using namespace hfta::hfht;

namespace {

struct Row {
  Task task;
  AlgorithmKind algo;
  double hours[4];
  int64_t trials;
};

void write_json(const char* path, uint64_t seed, int64_t trials_override,
                const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    std::exit(1);
  }
  std::fprintf(f,
               "{\n  \"figure\": \"fig8_hfht_cost\",\n  \"seed\": %llu,\n"
               "  \"trials_override\": %ld,\n  \"rows\": [\n",
               static_cast<unsigned long long>(seed), trials_override);
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"task\": \"%s\", \"algorithm\": \"%s\", "
                 "\"total_trials\": %ld, \"serial_h\": %.3f, "
                 "\"concurrent_h\": %.3f, \"mps_h\": %.3f, \"hfta_h\": %.3f, "
                 "\"saving\": %.4f}%s\n",
                 task_name(r.task), algorithm_name(r.algo), r.trials,
                 r.hours[0], r.hours[1], r.hours[2], r.hours[3],
                 r.hours[0] / r.hours[3], i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  int64_t trials_override = 0;
  int64_t seed = 2021;
  const char* json_path = nullptr;
  auto usage = [&]() {
    std::fprintf(stderr, "usage: %s [--trials N] [--seed N] [--json PATH]\n",
                 argv[0]);
    return 1;
  };
  // strtol instead of std::stol: malformed values print usage, not abort.
  auto parse_count = [&](const char* s, int64_t* out, int64_t lo) {
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(s, &end, 10);
    if (errno != 0 || end == s || *end != '\0' || v < lo) return false;
    *out = v;
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trials") == 0 && i + 1 < argc) {
      if (!parse_count(argv[++i], &trials_override, 1)) return usage();
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      if (!parse_count(argv[++i], &seed, 0)) return usage();
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      return usage();
    }
  }

  const auto dev = hfta::sim::v100();
  std::printf("Figure 8: total GPU-hours for tuning 8 hyper-parameters "
              "(V100)\n");
  std::printf("%-10s %-14s %12s %12s %12s %12s %9s\n", "task", "algorithm",
              "serial", "concurrent", "MPS", "HFTA", "saving");
  std::vector<Row> rows;
  for (Task task : {Task::kPointNet, Task::kMobileNet}) {
    for (AlgorithmKind algo :
         {AlgorithmKind::kRandomSearch, AlgorithmKind::kHyperband}) {
      Row row{task, algo, {0, 0, 0, 0}, 0};
      using hfta::sim::Mode;
      const Mode kinds[4] = {Mode::kSerial, Mode::kConcurrent, Mode::kMps,
                             Mode::kHfta};
      for (int k = 0; k < 4; ++k) {
        const TuneResult r =
            run_tuning(task, algo, kinds[k], dev,
                       static_cast<uint64_t>(seed), trials_override);
        row.hours[k] = r.total_device_hours;
        row.trials = r.total_trials;
      }
      std::printf("%-10s %-14s %11.1fh %11.1fh %11.1fh %11.1fh %8.2fx\n",
                  task_name(task), algorithm_name(algo), row.hours[0],
                  row.hours[1], row.hours[2], row.hours[3],
                  row.hours[0] / row.hours[3]);
      rows.push_back(row);
    }
  }
  std::printf("\npaper: HFTA saves up to 5.10x total GPU-hours; random search "
              "benefits more\nthan Hyperband (whose few-jobs/many-epochs "
              "rounds leave little to fuse).\n");
  if (json_path != nullptr) {
    write_json(json_path, static_cast<uint64_t>(seed), trials_override, rows);
    std::printf("wrote %s\n", json_path);
  }
  return 0;
}
