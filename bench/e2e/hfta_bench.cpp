// hfta_bench: the repository's end-to-end benchmark. For one workload it
// trains B per-model jobs as one fused array and as B serial models on the
// same seeded inputs, in one process with a closed training loop, and
// reports fused and serial throughput, set-up time and memory — or, with
// --trace, a per-layer breakdown from spans the benchmark records around
// its own calls into the library.
//
//   hfta_bench --workload NAME [--seed S] [--seconds T] [--threads N]
//              [--json OUT] [--trace DIR] [--git-sha SHA]
//   hfta_bench --smoke --trace DIR [--json OUT]
//
// Untraced runs time paired slices: K fused steps, then K steps of each of
// the B serial models back to back; the side that goes first alternates
// every pair, and each pair ends with a fused-vs-serial audit (a mismatch
// or a non-finite loss is a failed operation). Pairs continue until
// --seconds have passed (at least kMinPairs). Gated times are scaled to a
// nominal host speed by a host probe timed around each slice and set-up
// (host_probe.h); the raw medians are reported next to them. --smoke runs
// every workload at the minimum length, untraced and traced, and exits
// non-zero on any failed audit. bench/e2e/README.md defines every metric.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/op_counters.h"
#include "core/parallel.h"
#include "core/storage_pool.h"
#include "core/vec.h"
#include "host_probe.h"
#include "sim/device.h"
#include "sim/execution.h"
#include "trace.h"
#include "workloads.h"

#ifndef HFTA_BENCH_BUILD_TYPE
#define HFTA_BENCH_BUILD_TYPE "unknown"
#endif

namespace bench {
namespace {

using namespace hfta;
using Clock = std::chrono::steady_clock;

constexpr int kSetups = 5;    // fresh set-ups per run; setup_s is the median
constexpr int kMinPairs = 2;  // timed pairs; loss.final is taken after these
constexpr int kMinSteps = 3;  // per phase of the traced run

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int threads = 1;
  std::string json_path;
  std::string trace_dir;
  std::string git_sha = "unknown";
  bool smoke = false;
};

// Median, quartiles and the highest percentile with at least ten samples
// beyond it (when there are more than ten samples).
struct Summary {
  double median = 0, p25 = 0, p75 = 0;
  int64_t n = 0;
  double tail_q = 0, tail = 0;  // tail_q = 0: too few samples for a tail
};

double quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = static_cast<int64_t>(v.size());
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.median = quantile(v, 0.5);
  s.p25 = quantile(v, 0.25);
  s.p75 = quantile(v, 0.75);
  if (s.n > 10) {
    s.tail_q = std::floor(100.0 * static_cast<double>(s.n - 10) /
                          static_cast<double>(s.n)) / 100.0;
    s.tail = quantile(v, s.tail_q);
  }
  return s;
}

double median(const std::vector<double>& v) { return summarize(v).median; }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Metric {
  double value = 0;
  std::string unit;
  bool summarized = false;
  Summary s;
};

struct Result {
  std::string workload;
  bool traced = false;
  WorkloadInfo info;
  int64_t slices = 0;  // timed pairs (untraced runs)
  int64_t attempted = 0, failed = 0;
  std::map<std::string, Metric> metrics;
  std::string report;  // report-only JSON members, comma-separated

  void put(const std::string& name, double value, const char* unit) {
    Metric m;
    m.value = std::isfinite(value) ? value : 0.0;
    m.unit = unit;
    metrics[name] = m;
  }
  void put_summary(const std::string& name, const std::vector<double>& v,
                   const char* unit) {
    Metric m;
    m.s = summarize(v);
    m.value = m.s.median;
    m.unit = unit;
    m.summarized = true;
    metrics[name] = m;
  }
  void check(bool ok, const char* what) {
    ++attempted;
    if (ok) return;
    ++failed;
    std::fprintf(stderr, "%s: check failed: %s\n", workload.c_str(), what);
  }
};

std::string json_doubles(const std::vector<double>& v) {
  std::string out = "[";
  char buf[48];
  for (size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.9e", i ? ", " : "", v[i]);
    out += buf;
  }
  return out + "]";
}

// ---- untraced run -----------------------------------------------------------

// Times `fn` and scales the time to nominal host speed with the probe runs
// on either side of it; `*last_probe` carries the probe time between calls.
template <typename Fn>
std::pair<double, double> timed(HostProbe& probe, double* last_probe,
                                Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  const double raw = seconds_since(t0);
  const double after = probe.seconds();
  const double scaled =
      raw * 2.0 * HostProbe::kNominalSeconds / (*last_probe + after);
  *last_probe = after;
  return {raw, scaled};
}

void run_timed(Workload& w, const Options& o, Result& r) {
  StoragePool& pool = StoragePool::instance();
  HostProbe probe(o.threads);
  // Memory: heap bytes one fresh fused set-up plus one more step takes
  // from an empty pool (allocation is deterministic, so this is exact).
  pool.trim();
  const uint64_t bytes0 = pool.stats().heap_bytes;
  w.trainer().fused_setup_probe(1);
  const double mem_mb =
      static_cast<double>(pool.stats().heap_bytes - bytes0) / (1 << 20);
  std::vector<double> setup_s, raw_setup_s, probe_s;
  double last_probe = probe.seconds();
  for (int i = 0; i < kSetups; ++i) {
    pool.trim();
    const auto [raw, scaled] = timed(probe, &last_probe, [&] {
      w.trainer().fused_setup_probe(0);
    });
    raw_setup_s.push_back(raw);
    setup_s.push_back(scaled);
    probe_s.push_back(last_probe);
  }

  // Warm-up pair (untimed): the eager warm-up and capture steps of both
  // sides, and a warm pool for the timed slices.
  w.fused_slice();
  w.serial_slice();
  r.check(w.audit(), "fused-vs-serial audit");

  std::vector<double> sps[2], raw_sps[2], paired;
  std::vector<double> loss_fused, loss_serial;
  last_probe = probe.seconds();
  const auto start = Clock::now();
  for (int i = 0; i < kMinPairs || seconds_since(start) < o.seconds; ++i) {
    double raw_t[2] = {0, 0};
    for (int k = 0; k < 2; ++k) {
      const int side = (i + k) % 2;  // 0 = fused; first side alternates
      const auto [raw, scaled] = timed(probe, &last_probe, [&] {
        if (side == 0) {
          w.fused_slice();
        } else {
          w.serial_slice();
        }
      });
      const double samples = w.samples_per_slice();
      raw_t[side] = raw;
      raw_sps[side].push_back(samples / raw);
      sps[side].push_back(samples / scaled);
      probe_s.push_back(last_probe);
    }
    r.check(w.audit(), "fused-vs-serial audit");
    paired.push_back(raw_t[1] / raw_t[0]);
    if (i + 1 == kMinPairs) {
      loss_fused = w.final_values(true);
      loss_serial = w.final_values(false);
    }
    ++r.slices;
  }

  r.put_summary("fused_sps", sps[0], "samples/s");
  r.put_summary("serial_sps", sps[1], "samples/s");
  r.put_summary("setup_s", setup_s, "s");
  r.put("fused_mem_mb", mem_mb, "MB");
  const double raw_fused = median(raw_sps[0]), raw_serial = median(raw_sps[1]);

  // Serial jobs run one at a time, so B of them train at one job's rate.
  // At paper scale B models may not fit the device; the ratio is then null.
  const WorkloadInfo& info = w.info();
  const sim::RunResult sim_hfta = sim::simulate(
      sim::v100(), info.sim, sim::Mode::kHfta, info.B, sim::Precision::kFP32);
  const sim::RunResult sim_serial = sim::simulate(
      sim::v100(), info.sim, sim::Mode::kSerial, 1, sim::Precision::kFP32);
  char sim_value[32] = "null";
  if (sim_hfta.fits && sim_serial.fits)
    std::snprintf(sim_value, sizeof(sim_value), "%.17g",
                  ratio(sim_hfta.throughput, sim_serial.throughput));
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "\"raw\": {\"fused_sps\": %.17g, \"serial_sps\": %.17g, "
      "\"setup_s\": %.17g, \"probe_s\": %.17g, \"note\": \"unscaled "
      "medians; probe_s is the host probe's median time\"},\n"
      "    \"fused_over_serial\": {\"value\": %.17g, \"paired_median\": %.17g, "
      "\"fused_sps\": %.17g, \"serial_sps\": %.17g},\n"
      "    \"sim.fused_over_serial\": {\"value\": %s, \"fits\": %s, "
      "\"device\": \"V100\", \"precision\": \"FP32\", \"note\": \"analytic "
      "paper-scale GPU prediction, not a measurement\"},\n",
      raw_fused, raw_serial, median(raw_setup_s), median(probe_s),
      ratio(raw_fused, raw_serial), median(paired), raw_fused, raw_serial,
      sim_value, sim_hfta.fits ? "true" : "false");
  r.report = buf;
  r.report += "    \"loss.final\": {\"after_slices\": " +
              std::to_string(kMinPairs + 1) + ", \"fused\": " +
              json_doubles(loss_fused) + ", \"serial\": " +
              json_doubles(loss_serial) + "}";
}

// ---- traced run -------------------------------------------------------------

void run_traced(Workload& w, const Options& o, Result& r) {
  Tracer& tr = Tracer::instance();
  StoragePool& pool = StoragePool::instance();
  Trainer& t = w.trainer();
  tr.clear();

  pool.trim();
  const uint64_t bytes0 = pool.stats().heap_bytes;
  t.serial_setup_probe();
  const double serial_mb =
      static_cast<double>(pool.stats().heap_bytes - bytes0) / (1 << 20);

  tr.set_enabled(true);
  for (int i = 0; i < kSetups; ++i) {
    pool.trim();
    Span root("setup");
    t.fused_setup_probe(0);
  }
  tr.set_enabled(false);

  // The trainer's warm-up and capture steps on both sides, audited.
  for (int k = 0; k < 2; ++k) {
    t.fused_step();
    for (int64_t b = 0; b < w.info().B; ++b) t.serial_step(b);
  }
  r.check(t.audit(), "fused-vs-serial audit");

  const auto start = Clock::now();
  auto phase_over = [&](double share) {
    return seconds_since(start) >= o.seconds * share;
  };

  // Whole timed steps, alternating untraced and traced, so the traced
  // steps' overhead shows against the untraced ones.
  std::vector<double> untraced_ms, allocs, hits;
  uint64_t step_nodes = 0;
  for (int i = 0; i < kMinSteps || !phase_over(0.4); ++i) {
    const auto t0 = Clock::now();
    t.fused_step();
    untraced_ms.push_back(seconds_since(t0) * 1e3);
    tr.set_enabled(true);
    const StoragePool::Stats s0 = pool.stats();
    const uint64_t n0 = counters::node_constructions();
    {
      Span root("train.step");
      t.fused_step();
    }
    const StoragePool::Stats s1 = pool.stats();
    step_nodes += counters::node_constructions() - n0;
    allocs.push_back(static_cast<double>(s1.heap_allocs - s0.heap_allocs));
    hits.push_back(static_cast<double>(s1.pool_hits - s0.pool_hits));
    tr.set_enabled(false);
  }
  if (t.replays()) r.check(step_nodes == 0, "replay builds no tape");

  // Eager steps assembled by the benchmark, a span per layer; the first
  // checks the assembled forward against the library's.
  tr.set_enabled(true);
  r.check(t.traced_eager_step(true), "assembled forward == library forward");
  std::vector<double> nodes;
  for (int i = 0; i < kMinSteps || !phase_over(0.6); ++i) {
    const uint64_t n0 = counters::node_constructions();
    t.traced_eager_step(false);
    nodes.push_back(static_cast<double>(counters::node_constructions() - n0));
  }
  for (int i = 0; i < kMinSteps || !phase_over(0.8); ++i)
    t.traced_serial_round();
  tr.set_enabled(false);

  // Thread scaling: the same steps at 1 thread and at the run's count.
  std::vector<double> fused_ms[2], serial_ms[2];
  for (int i = 0; i < kMinSteps || !phase_over(1.0); ++i) {
    for (int k = 0; k < 2; ++k) {
      set_num_threads(k == 0 ? 1 : o.threads);
      auto t0 = Clock::now();
      t.fused_step();
      fused_ms[k].push_back(seconds_since(t0));
      t0 = Clock::now();
      for (int64_t b = 0; b < w.info().B; ++b) t.serial_step(b);
      serial_ms[k].push_back(seconds_since(t0));
    }
  }
  set_num_threads(o.threads);

  std::map<std::string, double> extra;
  tr.set_enabled(true);
  w.traced_extra(&extra);
  tr.set_enabled(false);

  std::vector<double> losses = t.losses(true);
  const std::vector<double> serial_losses = t.losses(false);
  losses.insert(losses.end(), serial_losses.begin(), serial_losses.end());
  bool finite = !losses.empty();
  for (double l : losses) finite = finite && std::isfinite(l);
  r.check(finite, "finite losses");

  const std::string trace_path = o.trace_dir + "/" + w.info().name +
                                 ".trace.json";
  r.check(tr.write_chrome_json(trace_path), "trace file written");

  auto per = [&](const char* root, const std::string& name) {
    return median(tr.per_root_ms(root, name));
  };
  r.put("data.stage_ms", per("train.step", "data.stage"), "ms");
  r.put("fusion.compile_ms", per("setup", "fusion.compile"), "ms");
  r.put("train.capture_ms", per("setup", "train.capture"), "ms");
  const double eager = per("train.eager_step", "train.eager_step");
  const double replay = t.replays() ? per("train.step", "train.step") : 0.0;
  r.put("train.eager_step_ms", eager, "ms");
  r.put("train.replay_step_ms", replay, "ms");
  r.put("autograd.tape_ms", t.replays() ? eager - replay : 0.0, "ms");
  r.put("autograd.backward_ms", per("train.eager_step", "autograd.backward"),
        "ms");
  r.put("autograd.nodes_per_step", median(nodes), "count");
  r.put("fwd.total_ms", per("train.eager_step", "fwd.total"), "ms");
  r.put("fwd.layout_ms", per("train.eager_step", "fwd.layout"), "ms");
  r.put("loss.fwd_ms", per("train.eager_step", "loss.fwd"), "ms");
  std::vector<std::string> kinds;
  for (const Tracer::Record& rec : tr.records())
    if (rec.name.compare(0, 4, "fwd.") == 0 && rec.name != "fwd.total" &&
        rec.name != "fwd.layout" &&
        std::find(kinds.begin(), kinds.end(), rec.name) == kinds.end())
      kinds.push_back(rec.name);
  for (const std::string& k : kinds)
    r.put(k + "_ms", per("train.eager_step", k), "ms");
  r.put("optim.zero_grad_ms", per("train.eager_step", "optim.zero_grad"), "ms");
  r.put("optim.step_ms", per("train.eager_step", "optim.step"), "ms");
  r.put("optim.serial_step_ms", per("serial.round", "optim.serial_step"), "ms");
  r.put("serial.fwd_ms", per("serial.round", "serial.fwd"), "ms");
  r.put("serial.backward_ms", per("serial.round", "serial.backward"), "ms");
  r.put("pool.heap_allocs_per_step", median(allocs), "count");
  r.put("pool.hits_per_step", median(hits), "count");
  r.put("pool.serial_mb", serial_mb, "MB");
  r.put("parallel.fused_t1_over_tN",
        ratio(median(fused_ms[0]), median(fused_ms[1])), "x");
  r.put("parallel.serial_t1_over_tN",
        ratio(median(serial_ms[0]), median(serial_ms[1])), "x");
  const bool amp = w.info().dtype != "f32";
  const fused::LossScaler& scaler = t.fused_train_step().scaler();
  r.put("amp.overflow_skips",
        amp ? static_cast<double>(scaler.overflow_skips()) : 0.0, "count");
  r.put("amp.final_scale", amp ? scaler.scale() : 0.0, "x");
  for (const char* name : {"hfht.trials", "hfht.compiles", "hfht.repacks",
                           "hfht.merges", "hfht.captures"})
    r.put(name, extra.count(name) ? extra[name] : 0.0, "count");
  r.put("hfht.replay_share",
        extra.count("hfht.replay_share") ? extra["hfht.replay_share"] : 0.0,
        "fraction");
  r.put("hfht.round_ms", median(tr.durations_ms("hfht.round")), "ms");
  const double untraced = median(untraced_ms);
  r.put("trace.overhead_pct",
        100.0 * ratio(median(tr.durations_ms("train.step")) - untraced,
                      untraced),
        "%");
  r.report = "\"trace_file\": \"" + trace_path + "\"";
}

// ---- output -----------------------------------------------------------------

void write_result(std::FILE* f, const Result& r, const Options& o) {
  const WorkloadInfo& info = r.info;
  std::fprintf(f, "{\n  \"schema\": \"hfta-e2e-result/1\",\n");
  std::fprintf(f, "  \"workload\": \"%s\",\n  \"traced\": %s,\n",
               r.workload.c_str(), r.traced ? "true" : "false");
  std::fprintf(
      f,
      "  \"settings\": {\"threads\": %d, \"hardware_threads\": %u, "
      "\"simd\": \"%s\", \"B\": %ld, \"N\": %ld, \"dtype\": \"%s\", "
      "\"seed\": %llu, \"steps_per_side\": %ld, \"slices\": %ld, "
      "\"seconds\": %.17g, \"build_type\": \"%s\", \"git_sha\": \"%s\"},\n",
      o.threads, std::thread::hardware_concurrency(), vec::simd_name(),
      static_cast<long>(info.B), static_cast<long>(info.N),
      info.dtype.c_str(), static_cast<unsigned long long>(o.seed),
      static_cast<long>(info.steps_per_side), static_cast<long>(r.slices),
      o.seconds, HFTA_BENCH_BUILD_TYPE, o.git_sha.c_str());
  std::fprintf(f,
               "  \"correct\": %s,\n  \"attempted\": %ld,\n  \"failed\": %ld,\n",
               r.failed == 0 ? "true" : "false",
               static_cast<long>(r.attempted), static_cast<long>(r.failed));
  std::fprintf(f, "  \"metrics\": {\n");
  size_t i = 0;
  for (const auto& [name, m] : r.metrics) {
    std::fprintf(f, "    \"%s\": {\"value\": %.17g, \"unit\": \"%s\"",
                 name.c_str(), m.value, m.unit.c_str());
    if (m.summarized) {
      std::fprintf(f,
                   ", \"median\": %.17g, \"p25\": %.17g, \"p75\": %.17g, "
                   "\"n\": %ld",
                   m.s.median, m.s.p25, m.s.p75, static_cast<long>(m.s.n));
      if (m.s.tail_q > 0)
        std::fprintf(f, ", \"tail_q\": %.2f, \"tail\": %.17g", m.s.tail_q,
                     m.s.tail);
    }
    std::fprintf(f, "}%s\n", ++i < r.metrics.size() ? "," : "");
  }
  std::fprintf(f, "  },\n  \"report\": {\n    %s\n  }\n}", r.report.c_str());
}

bool run_one(const std::string& name, bool traced, const Options& o,
             Result* r) {
  std::unique_ptr<Workload> w = make_workload(name, o.seed);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
    return false;
  }
  r->workload = name;
  r->traced = traced;
  r->info = w->info();
  if (traced) {
    run_traced(*w, o, *r);
  } else {
    run_timed(*w, o, *r);
  }
  std::fprintf(stderr, "%s%s: %ld/%ld operations failed\n", name.c_str(),
               traced ? " (traced)" : "", static_cast<long>(r->failed),
               static_cast<long>(r->attempted));
  return true;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME [--seed S] [--seconds T] "
               "[--threads N] [--json OUT] [--trace DIR] [--git-sha SHA]\n"
               "       %s --smoke --trace DIR [--json OUT]\n"
               "workloads:",
               argv0, argv0);
  for (const std::string& n : workload_names())
    std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

int run(int argc, char** argv) {
  Options o;
  const unsigned hw = std::thread::hardware_concurrency();
  o.threads = static_cast<int>(std::max(1u, std::min(4u, hw)));
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::atof(argv[++i]);
      if (!(o.seconds >= 0)) return usage(argv[0]);
    } else if (a == "--threads" && has_value) {
      o.threads = std::atoi(argv[++i]);
      if (o.threads < 1) return usage(argv[0]);
      if (hw > 0 && static_cast<unsigned>(o.threads) > hw) {
        std::fprintf(stderr, "--threads %d exceeds the %u hardware threads\n",
                     o.threads, hw);
        return 2;
      }
    } else if (a == "--json" && has_value) {
      o.json_path = argv[++i];
    } else if (a == "--trace" && has_value) {
      o.trace_dir = argv[++i];
    } else if (a == "--git-sha" && has_value) {
      o.git_sha = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  if (o.smoke ? o.trace_dir.empty() : o.workload.empty()) return usage(argv[0]);
  set_num_threads(o.threads);

  std::vector<Result> results;
  if (o.smoke) {
    o.seconds = 0;  // minimum length: kMinPairs pairs, kMinSteps per phase
    for (const std::string& name : workload_names()) {
      for (bool traced : {false, true}) {
        results.emplace_back();
        run_one(name, traced, o, &results.back());
      }
    }
  } else {
    results.emplace_back();
    if (!run_one(o.workload, !o.trace_dir.empty(), o, &results.back()))
      return usage(argv[0]);
  }

  std::FILE* f = o.json_path.empty() ? stdout : std::fopen(o.json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", o.json_path.c_str());
    return 1;
  }
  if (o.smoke) std::fprintf(f, "[\n");
  for (size_t i = 0; i < results.size(); ++i) {
    write_result(f, results[i], o);
    std::fprintf(f, "%s\n", i + 1 < results.size() ? "," : "");
  }
  if (o.smoke) std::fprintf(f, "]\n");
  if (f != stdout && std::fclose(f) != 0) return 1;

  int64_t failed = 0;
  for (const Result& r : results) failed += r.failed;
  return o.smoke && failed > 0 ? 1 : 0;
}

}  // namespace
}  // namespace bench

int main(int argc, char** argv) {
  try {
    return bench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hfta_bench: %s\n", e.what());
    return 1;
  }
}
