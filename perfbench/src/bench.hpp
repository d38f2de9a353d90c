#pragma once

// Shared pieces of the HC3I benchmark harness (see perfbench/README.md).
//
// The harness links the simulator library and drives it the way its users
// do: driver::run_simulation for solo runs, batch::Runner for seed grids.
// Every workload is a one-cell sweep grid, so both paths run the very same
// cases.  Two modes share this header:
//
//   end_to_end.cpp  --trace 0: timed passes, the user-visible metrics
//   layers.cpp      --trace 1: one traced pass plus per-layer kernels and
//                   the phase-timed Stack, the per-layer metrics

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "batch/sweep.hpp"
#include "driver/run.hpp"
#include "driver/sim_context.hpp"
#include "fault/engine.hpp"
#include "fed/federation.hpp"
#include "hc3i/runtime.hpp"
#include "stats/registry.hpp"
#include "util/walltime.hpp"

namespace perfbench {

// --- host clock and allocation counting -----------------------------------

/// Monotonic host seconds (the repository's one sanctioned wall clock).
inline double now() { return hc3i::util::now_sec(); }

/// operator-new calls so far in this process (counting shims, common.cpp).
std::uint64_t allocs();

/// Peak resident set size of this process image, MiB.
double peak_rss_mb();

/// Host nanoseconds per event of the harness's own reference kernel (a
/// fixed, seeded event loop), run for at least `budget_s`.  It never changes
/// with the simulator, so its speed measures only how fast the host runs
/// code of this kind at that moment.
double reference_ns_per_event(double budget_s);

/// Moves the calling thread round the CPUs it may use, one per next(), so
/// timed passes spread over every CPU instead of all landing on one that a
/// neighbour on a shared host happens to slow down; the median over the
/// passes then describes the program, not the placement.  The destructor
/// gives the thread back its original CPU set.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pin to the next allowed CPU (a no-op with fewer than two).
  void next();
  std::size_t cpus() const { return cpus_.size(); }

 private:
  std::vector<int> cpus_;
  std::size_t turns_{0};
};

// --- small statistics -------------------------------------------------------

/// Linear-interpolation quantile, q in [0, 1] (0 for an empty sample).
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Median seconds per call of `body`, which performs `calls` calls per
/// invocation: invoked in batches until `budget_s` has elapsed (at least
/// nine times), each batch timed on its own.  `prepare`, when given, runs
/// untimed before each batch.
double time_per_call(const std::function<void()>& body, std::uint64_t calls,
                     double budget_s,
                     const std::function<void()>& prepare = {});

// --- output -----------------------------------------------------------------

/// The metrics of one invocation plus its pass/fail tally; renders the
/// JSON result line that ends the output.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A run that threw, reported violations, or missed a reference dump.
  void fail(const std::string& why);
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  std::uint64_t failed() const { return failed_; }
  /// One JSON object: correct, attempted, failed, metrics.
  std::string json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::uint64_t attempted_{0};
  std::uint64_t failed_{0};
};

/// Host-time spans recorded from the harness: name, start, end, parent.
/// Kept in memory; written once at the end of the traced run.
class Spans {
 public:
  /// Open a span under `parent` (-1 = root); returns its id.
  int open(std::string name, int parent = -1);
  void close(int id);
  /// Every span as JSON, times in microseconds since the store was made.
  std::string json() const;

 private:
  struct Span {
    std::string name;
    int parent;
    double start;
    double end;
  };
  std::vector<Span> spans_;
  double origin_{now()};
};

// --- workloads --------------------------------------------------------------

/// One named workload: the sweep cells a pass runs, in grid order.
struct Workload {
  std::string name;
  std::vector<hc3i::batch::RunCase> cases;
  /// Committed counter dump the seed-1 case must reproduce ("" = none).
  std::string golden;
  /// The paper scenario: its census is scored against Table 1.
  bool census{false};
};

/// Names accepted by --workload.
const std::vector<std::string>& workload_names();

/// Build a workload's cases from --seed (the same seed, the same cases).
Workload make_workload(const std::string& name, std::uint64_t seed);

/// Counters of a pass, summed over its runs (ratios are formed from sums).
struct Counts {
  std::uint64_t runs{0};
  std::uint64_t events{0};
  std::uint64_t clc_commits{0};
  std::uint64_t clc_forced{0};
  std::uint64_t app_msgs{0};
  std::uint64_t ctl_msgs{0};
  std::uint64_t ctl_bytes{0};
  std::uint64_t store_max_bytes{0};
  std::uint64_t store_max_clcs{0};   ///< max over clusters and runs
  std::uint64_t log_max_entries{0};  ///< max over clusters and runs
  std::uint64_t gc_rounds{0};
  std::uint64_t faults{0};
  std::uint64_t rollbacks{0};
  std::uint64_t rollback_nodes{0};
  std::uint64_t replayed_msgs{0};
  double lost_work_s{0};
  std::uint64_t undone_events{0};
  std::uint64_t ledger_events{0};
  std::uint64_t recoveries{0};
  double recovery_s_sum{0};
  std::uint64_t ckpt_stall_us{0};
  std::uint64_t ckpt_bytes{0};
  std::uint64_t ckpt_saved{0};
  double table1_err_pct_sum{0};  ///< per-run census error, summed

  /// Add one run; `census` scores its cluster-pair census against Table 1.
  void add(const hc3i::stats::Registry& reg, std::uint64_t run_events,
           bool census);
};

// --- the phase-timed stack --------------------------------------------------

/// driver::run_simulation(opts, ctx) for the HC3I protocol, taken apart so
/// each phase can be timed from outside: the constructor is the set-up
/// (everything before the first event), run() the event loop, audit() the
/// end-of-run checks.  It supports what the workloads use — a campaign, no
/// legacy failure fields, no recorder — and refuses anything else.  The
/// layers mode checks its dump against run_simulation's, byte for byte.
class Stack {
 public:
  Stack(const hc3i::driver::RunOptions& opts, hc3i::driver::SimContext& ctx);
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Run to the horizon plus the drain window in `slices` equal slices of
  /// simulated time, calling `between` after every slice but the last.
  void run(std::size_t slices = 1, const std::function<void()>& between = {});
  /// Ledger validation and cluster agreement; returns the violations.
  std::vector<std::string> audit();

  const hc3i::stats::Registry& registry() const { return registry_; }
  const hc3i::sim::Simulation& simulation() const { return sim_; }
  const hc3i::core::Hc3iRuntime& runtime() const { return runtime_; }

 private:
  hc3i::proto::ScopedPayloadArena arena_scope_;
  hc3i::driver::RunOptions opts_;
  hc3i::sim::Simulation sim_;
  hc3i::stats::Registry registry_;
  hc3i::fed::Federation fed_;
  hc3i::app::Workload workload_;
  hc3i::core::Hc3iRuntime runtime_;
  std::unique_ptr<hc3i::fault::CampaignEngine> engine_;
};

// --- modes ------------------------------------------------------------------

/// --trace 0: timed passes; fills `report` with the end-to-end metrics.
void run_end_to_end(const Workload& wl, double seconds, Report& report);

/// --trace 1: traced pass, phase-timed passes and layer kernels; fills
/// `report` with the per-layer metrics and writes the spans to
/// `spans_out` when it is not empty.
void run_layers(const Workload& wl, double seconds,
                const std::string& spans_out, Report& report);

// --- shared by both modes ---------------------------------------------------

/// Solo run_simulation of every case with validate=true: the correctness
/// pass.  Returns each case's counter dump ("" when it threw), checks the
/// golden, and accumulates `counts`.
std::vector<std::string> correctness_pass(const Workload& wl, Report& report,
                                          Counts& counts);

/// At seed 1 a workload with a committed golden must reproduce it byte for
/// byte; `dumps` are the pass's counter dumps in case order.
void check_golden(const Workload& wl, const std::vector<std::string>& dumps,
                  Report& report);

/// Compare one case's dump with its reference; a mismatch is a failure.
void expect_same_dump(const std::string& what, const std::string& got,
                      const std::string& want, Report& report);

}  // namespace perfbench
