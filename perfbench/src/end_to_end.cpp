// --trace 0: the end-to-end metrics.
//
// One process runs one workload, closed loop and single-threaded: one
// simulation at a time, the next only after the previous returned.
//
//   1. correctness solo run_simulation(validate=true) per case; golden at
//                  seed 1; also warms the process (not timed)
//   2. determinism batch::Runner pass with dumps kept; every dump must equal
//                  the solo one (not timed)
//   3. timed       batch::Runner passes (one worker, so one simulation at a
//                  time on this thread) until --seconds have passed, each
//                  pinned to the next CPU in turn (CpuRotation) and
//                  bracketed by two runs of the reference kernel, which give
//                  the pass's host-speed factor; after each pass,
//                  kSetupReps timings of the Stack's constructor, whose
//                  median is setup_s
//
// A timed pass is the workload's whole seed grid: one run for the 10x100
// workloads, kPaperSeeds runs through one worker SimContext for paper_2x100.

#include <algorithm>
#include <cstdio>

#include "batch/runner.hpp"
#include "bench.hpp"

namespace perfbench {

using namespace hc3i;

namespace {

/// Set-up samples taken after every timed pass, so they see the same host
/// conditions as the passes; the median over all of them is setup_s.
constexpr int kSetupReps = 16;
/// Timed passes: at least this many, whatever --seconds says.
constexpr int kMinPasses = 3;

/// The host-time metrics are given at the speed of a reference host: one on
/// which reference_ns_per_event() measures this many ns per event (about
/// what the 4-vCPU x86-64 VM the benchmark was tuned on measures when
/// quiet).  A shared host's speed drifts by up to 2x over minutes; the
/// reference kernel runs on the pass's CPU just before and just after each
/// pass, and the pass's times are scaled by this constant over the mean of
/// the two.  The kernel is harness code, so a change to the simulator moves
/// the scaled times exactly as it moves the raw ones.
constexpr double kReferenceNsPerEvent = 150.0;
/// Each reference-kernel run lasts this share of the previous pass's host
/// time, and at least kReferenceMinS.
constexpr double kReferenceShare = 0.15;
constexpr double kReferenceMinS = 0.03;

/// Host seconds of the Stack's constructor, kSetupReps times over the
/// workload's cases.  A pass of several cases shares one SimContext, as a
/// batch worker does; a single-case pass gets a fresh one each time, as a
/// solo run_simulation call does.
void sample_setup(const Workload& wl, driver::SimContext& shared,
                  std::vector<double>& samples) {
  for (int i = 0; i < kSetupReps; ++i) {
    const batch::RunCase& rc = wl.cases[samples.size() % wl.cases.size()];
    const driver::RunOptions opts = rc.options();
    driver::SimContext fresh;
    driver::SimContext& ctx = wl.cases.size() > 1 ? shared : fresh;
    const double t0 = now();
    const Stack stack(opts, ctx);
    samples.push_back(now() - t0);
  }
}

}  // namespace

void run_end_to_end(const Workload& wl, double seconds, Report& report) {
  Counts counts;
  const std::vector<std::string> dumps = correctness_pass(wl, report, counts);

  batch::RunnerOptions with_dumps;
  with_dumps.threads = 1;
  with_dumps.keep_dumps = true;
  const double check_t0 = now();
  const batch::BatchReport check = batch::Runner(with_dumps).run(wl.cases);
  const double check_s = now() - check_t0;
  report.attempt(check.cases.size());
  for (std::size_t i = 0; i < check.cases.size(); ++i) {
    const batch::CaseResult& cr = check.cases[i];
    if (!cr.ok) {
      report.fail(wl.cases[i].name() + ": " + cr.error);
    } else {
      expect_same_dump(wl.cases[i].name() + " batch vs solo", cr.dump,
                       dumps[i], report);
    }
  }

  batch::RunnerOptions timed;
  timed.threads = 1;
  const batch::Runner runner(timed);
  // Raw host times of the timed passes, and the host-speed factor of each.
  std::vector<double> pass_s;
  std::vector<double> pass_factor;
  std::vector<double> ref_ns;
  // Host times scaled to the reference host (see kReferenceNsPerEvent).
  std::vector<double> wall_s;
  std::vector<double> run_ms;
  std::vector<double> setup_s;
  std::vector<double> setup_raw_s;
  driver::SimContext setup_ctx;
  std::uint64_t timed_allocs = 0;
  std::uint64_t timed_events = 0;
  // The correctness and determinism passes ran every case twice, solo and
  // through a Runner; the peak is read here, before the reference kernel
  // first maps its table.
  const double peak_mb = peak_rss_mb();
  double last_pass_s = check_s;
  CpuRotation rotation;
  const double start = now();
  while (static_cast<int>(pass_s.size()) < kMinPasses ||
         now() - start < seconds) {
    rotation.next();
    const double budget =
        std::max(kReferenceMinS, kReferenceShare * last_pass_s);
    const double before_ns = reference_ns_per_event(budget);
    const std::uint64_t a0 = allocs();
    const double t0 = now();
    const batch::BatchReport pass = runner.run(wl.cases);
    last_pass_s = now() - t0;
    timed_allocs += allocs() - a0;
    const std::size_t first_setup = setup_raw_s.size();
    sample_setup(wl, setup_ctx, setup_raw_s);
    const double after_ns = reference_ns_per_event(budget);
    // The pass ran between the two kernel runs on the same CPU.
    const double factor =
        kReferenceNsPerEvent / (0.5 * (before_ns + after_ns));
    pass_s.push_back(last_pass_s);
    pass_factor.push_back(factor);
    ref_ns.push_back(before_ns);
    ref_ns.push_back(after_ns);
    wall_s.push_back(last_pass_s * factor);
    for (std::size_t i = first_setup; i < setup_raw_s.size(); ++i) {
      setup_s.push_back(setup_raw_s[i] * factor);
    }
    report.attempt(pass.cases.size());
    for (std::size_t i = 0; i < pass.cases.size(); ++i) {
      const batch::CaseResult& cr = pass.cases[i];
      run_ms.push_back(cr.wall_sec * 1e3 * factor);
      timed_events += cr.events;
      // The full dump was compared above; a timed pass must at least
      // reproduce the determinism pass's headline counts.
      const batch::CaseResult& ref = check.cases[i];
      if (!cr.ok || cr.events != ref.events || cr.clcs != ref.clcs ||
          cr.rollbacks != ref.rollbacks || cr.ckpt_bytes != ref.ckpt_bytes) {
        report.fail(wl.cases[i].name() + ": timed pass failed or diverged " +
                    cr.error);
      }
    }
  }

  const double runs = static_cast<double>(counts.runs);
  std::printf("%s: %zu timed passes of %zu run(s), %llu events each, over "
              "%zu CPU(s); %zu run samples, %zu set-up samples\n",
              wl.name.c_str(), pass_s.size(), wl.cases.size(),
              static_cast<unsigned long long>(timed_events / pass_s.size()),
              rotation.cpus(), run_ms.size(), setup_s.size());
  std::printf("host s per pass:");
  for (const double x : pass_s) std::printf(" %.4f", x);
  std::printf("\nhost-speed factor:");
  for (const double x : pass_factor) std::printf(" %.3f", x);
  std::printf("\nreference kernel ns/event, before and after each pass:");
  for (const double x : ref_ns) std::printf(" %.2f", x);
  std::printf("\nhost wall_s %.6f s unscaled, reference kernel %.2f ns/event "
              "(median of %zu runs)\n",
              median(pass_s), median(ref_ns), ref_ns.size());
  report.metric("wall_s", median(wall_s), "s");
  report.metric("setup_s", median(setup_s), "s");
  report.metric("run_ms_p50", quantile(run_ms, 0.5), "ms");
  report.metric("run_ms_p90", quantile(run_ms, 0.9), "ms");
  report.metric("peak_rss_mb", peak_mb, "MiB");
  const auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
  };
  report.metric("allocs_per_event", ratio(timed_allocs, timed_events),
                "allocs/event");
  report.metric("forced_clcs", static_cast<double>(counts.clc_forced) / runs,
                "count");
  report.metric("ctl_msgs_per_app_msg", ratio(counts.ctl_msgs, counts.app_msgs),
                "ratio");
  report.metric("store_max_mb",
                static_cast<double>(counts.store_max_bytes) / 1e6 / runs, "MB");
}

}  // namespace perfbench
