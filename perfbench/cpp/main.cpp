// perfbench: the repository benchmark (perfbench/README.md).
//
//   perfbench --workload signoff|build|fleet --seed N --seconds S
//             --trace 0|1 --work-dir DIR --fleet-rate R --fleet-window W
//             [--spans FILE]
//
// Prints "# ..." information lines, then one JSON line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1); the traced run writes its spans to FILE, one JSON object per
// line. Exits 1 when a correctness check failed, 2 on bad usage or
// an error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common.hpp"
#include "linalg/kernels/registry.hpp"
#include "obs/json.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace perfbench;

bool parse(int argc, char** argv, Options* opt) {
  std::string trace;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        opt->workload = value;
      } else if (flag == "--seed") {
        opt->seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt->seconds = std::stod(value);
      } else if (flag == "--trace") {
        trace = value;
      } else if (flag == "--work-dir") {
        opt->work_dir = value;
      } else if (flag == "--spans") {
        opt->spans_path = value;
      } else if (flag == "--fleet-rate") {
        opt->fleet_rate = std::stod(value);
      } else if (flag == "--fleet-window") {
        opt->fleet_window = std::stoi(value);
      } else {
        std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
        return false;
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "perfbench: bad value for %s: %s\n", flag.c_str(),
                   value.c_str());
      return false;
    }
  }
  if (argc % 2 != 1 || (trace != "0" && trace != "1") ||
      opt->work_dir.empty() || (trace == "1" && opt->spans_path.empty()) ||
      !(opt->seconds > 0.0) ||
      !(opt->fleet_rate > 0.0) || opt->fleet_window <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload signoff|build|fleet --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR --fleet-rate R "
                 "--fleet-window W [--spans FILE]\n");
    return false;
  }
  opt->trace = trace == "1";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, &opt)) return 2;
  Result (*run)(const Options&, SpanLog&) = nullptr;
  if (opt.workload == "signoff") run = run_signoff;
  if (opt.workload == "build") run = run_build;
  if (opt.workload == "fleet") run = run_fleet;
  if (run == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }

  SpanLog log(opt.trace);
  Result result;
  try {
    info("workload %s, seed %llu, %g s, trace %d, nproc %u, kernel %s",
         opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
         opt.seconds, opt.trace ? 1 : 0, std::thread::hardware_concurrency(),
         pdnn::linalg::backend_name(pdnn::linalg::active_backend()));
    result = run(opt, log);
    info("pool %d threads", pdnn::util::ThreadPool::global().num_threads());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  if (opt.trace) {
    if (!log.write_jsonl(opt.spans_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   opt.spans_path.c_str());
      return 2;
    }
    info("spans written to %s", opt.spans_path.c_str());
  }

  pdnn::obs::JsonValue metrics = pdnn::obs::JsonValue::object();
  std::string absent;
  for (const MetricSpec& spec : metric_specs()) {
    if (spec.end_to_end == opt.trace) continue;
    const auto it = result.metrics.find(spec.name);
    double value = 0.0;
    if (it != result.metrics.end()) {
      value = it->second;
    } else if (spec.end_to_end) {
      std::fprintf(stderr, "perfbench: %s was not measured\n", spec.name);
      return 2;
    } else {
      absent += absent.empty() ? spec.name : std::string(", ") + spec.name;
    }
    pdnn::obs::JsonValue m = pdnn::obs::JsonValue::object();
    m.set("value", value);
    m.set("unit", spec.unit);
    metrics.set(spec.name, m);
  }
  if (!absent.empty()) {
    info("layers this workload does not run (reported as 0): %s",
         absent.c_str());
  }
  pdnn::obs::JsonValue out = pdnn::obs::JsonValue::object();
  out.set("correct", result.correct());
  out.set("attempted", result.attempted);
  out.set("failed", result.failed);
  out.set("metrics", metrics);
  std::printf("%s\n", out.dump(0).c_str());
  return result.correct() ? 0 : 1;
}
