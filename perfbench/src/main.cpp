// hc3i_perfbench: the benchmark harness binary (perfbench/run.py builds and
// runs it; see perfbench/README.md).
//
//   hc3i_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--spans-out <file>]
//
// Prints one line per metric, then, as the last line, the JSON result
// object {"correct", "attempted", "failed", "metrics"}.  Must run from the
// root of a checkout: the seed-1 goldens are read from bench/.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: hc3i_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans-out <file>]\nworkloads:",
               why);
  for (const std::string& w : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

/// Parse a whole decimal number >= `min`; false on anything else.
bool parse_count(const std::string& text, long min, long* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (*end != '\0' || v < min) return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string spans_out;
  long seed = -1;
  long seconds = -1;
  long trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    bool ok = true;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--spans-out") {
      spans_out = value;
    } else if (flag == "--seed") {
      ok = parse_count(value, 1, &seed);
    } else if (flag == "--seconds") {
      ok = parse_count(value, 1, &seconds);
    } else if (flag == "--trace") {
      ok = parse_count(value, 0, &trace) && trace <= 1;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
    if (!ok) return usage(("bad value for " + flag + ": " + value).c_str());
  }
  if (workload.empty() || seed < 0 || seconds < 0 || trace < 0) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }

  try {
    const perfbench::Workload wl = perfbench::make_workload(
        workload, static_cast<std::uint64_t>(seed));
    perfbench::Report report;
    std::printf("workload %s seed %ld, %ld s, trace %ld\n", workload.c_str(),
                seed, seconds, trace);
    if (trace == 1) {
      perfbench::run_layers(wl, static_cast<double>(seconds), spans_out,
                            report);
    } else {
      perfbench::run_end_to_end(wl, static_cast<double>(seconds), report);
    }
    std::printf("%s\n", report.json().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hc3i_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
