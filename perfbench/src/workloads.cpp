// The three workloads, the counters read from a run, the correctness pass,
// and the phase-timed Stack.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "config/presets.hpp"
#include "driver/consistency.hpp"

namespace perfbench {

using namespace hc3i;

namespace {

/// Seeds one paper_2x100 pass runs: --seed s selects the s-th block of
/// kPaperSeeds consecutive seeds (s = 1 -> 1..32).
constexpr std::uint64_t kPaperSeeds = 32;

/// Expected census of the paper workload: Table 1 (paper §5.2) with the
/// cluster 1 -> cluster 0 entry set to the 103 messages the Table 2 / Fig. 9
/// configuration asks paper_reference_application for.
constexpr double kCensus[2][2] = {{2920.0, 145.0}, {103.0, 2497.0}};

std::uint64_t sum_prefix(const stats::Registry& reg,
                         const std::string& prefix) {
  std::uint64_t total = 0;
  for (const std::string& name : reg.counter_names()) {
    if (name.compare(0, prefix.size(), prefix) == 0) total += reg.get(name);
  }
  return total;
}

std::uint64_t max_prefix(const stats::Registry& reg,
                         const std::string& prefix) {
  std::uint64_t best = 0;
  for (const std::string& name : reg.counter_names()) {
    if (name.compare(0, prefix.size(), prefix) == 0) {
      best = std::max(best, reg.get(name));
    }
  }
  return best;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames{
      "ring_10x100", "overlap_storage_10x100", "paper_2x100"};
  return kNames;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  batch::SweepSpec sweep;
  Workload wl;
  wl.name = name;
  if (name == "ring_10x100" || name == "overlap_storage_10x100") {
    // The scale_federation scenario (examples/scale_federation.cpp): 10
    // clusters x 100 nodes of ring traffic for 30 simulated minutes.
    sweep.topologies.push_back(batch::scale_topology(10, 100, minutes(30)));
    sweep.seeds = {seed};
    if (name == "ring_10x100") {
      sweep.campaigns.push_back(batch::no_campaign());
      wl.golden = "bench/golden_counters_scale.txt";
    } else {
      // scale_federation --storage --overlap: the overlapping-burst
      // campaign and a striped-remote store (default cost model) on every
      // cluster.
      sweep.campaigns.push_back(batch::overlap_campaign());
      config::StorageSpec striped;
      striped.kind = config::StorageSpec::Kind::kStripedRemote;
      sweep.storage.push_back(batch::storage_point("striped", striped));
      wl.golden = "bench/golden_counters_scale_storage.txt";
    }
  } else if (name == "paper_2x100") {
    // Paper §5.2 reference scenario in its Table 2 configuration: both CLC
    // timers 30 min, GC every 2 h, 103 messages cluster 1 -> 0, 10 h.
    config::RunSpec spec;
    spec.topology = config::paper_reference_topology();
    spec.application = config::paper_reference_application(103.0);
    spec.timers =
        config::paper_reference_timers(minutes(30), minutes(30), hours(2));
    sweep.topologies.push_back(batch::TopologyPoint{
        "paper_2x100", std::make_shared<const config::RunSpec>(spec)});
    sweep.campaigns.push_back(batch::no_campaign());
    wl.census = true;
    for (std::uint64_t i = 1; i <= kPaperSeeds; ++i) {
      sweep.seeds.push_back((seed - 1) * kPaperSeeds + i);
    }
  } else {
    throw std::invalid_argument("unknown workload " + name);
  }
  wl.cases = batch::expand(sweep);
  return wl;
}

void Counts::add(const stats::Registry& reg, std::uint64_t run_events,
                 bool census) {
  ++runs;
  events += run_events;
  clc_commits += sum_prefix(reg, "clc.total.");
  clc_forced += sum_prefix(reg, "clc.forced.");
  app_msgs += reg.get("net.app.inter.msgs") + reg.get("net.app.intra.msgs");
  ctl_msgs += reg.get("net.ctl.inter.msgs") + reg.get("net.ctl.intra.msgs");
  ctl_bytes += reg.get("net.ctl.inter.bytes") + reg.get("net.ctl.intra.bytes");
  store_max_bytes += sum_prefix(reg, "store.max_bytes.");
  store_max_clcs = std::max(store_max_clcs, max_prefix(reg, "store.max_clcs."));
  log_max_entries =
      std::max(log_max_entries, max_prefix(reg, "log.max_entries."));
  gc_rounds += reg.get("gc.rounds");
  faults += reg.get("fault.injected");
  rollbacks += reg.get("rollback.count");
  rollback_nodes += reg.get("rollback.nodes");
  replayed_msgs += reg.get("log.resent_msgs");
  lost_work_s += reg.summary("rollback.lost_work_s").sum();
  undone_events += reg.get("ledger.undone_events");
  ledger_events += reg.get("ledger.total_events");
  const stats::Summary& latency = reg.summary("fault.recovery_latency_s");
  recoveries += latency.count();
  recovery_s_sum += latency.sum();
  ckpt_stall_us += reg.get("ckpt.stall_us");
  ckpt_bytes += reg.get("ckpt.bytes_written");
  ckpt_saved += reg.get("ckpt.bytes_delta_saved");
  if (census) {
    double err = 0;
    for (int s = 0; s < 2; ++s) {
      for (int d = 0; d < 2; ++d) {
        const double got = static_cast<double>(reg.get(
            "net.app.pair." + std::to_string(s) + "." + std::to_string(d)));
        err += std::fabs(got - kCensus[s][d]) / kCensus[s][d];
      }
    }
    table1_err_pct_sum += 100.0 * err / 4.0;
  }
}

void expect_same_dump(const std::string& what, const std::string& got,
                      const std::string& want, Report& report) {
  if (got != want) report.fail(what + ": counter dump differs");
}

std::vector<std::string> correctness_pass(const Workload& wl, Report& report,
                                          Counts& counts) {
  std::vector<std::string> dumps;
  for (const batch::RunCase& rc : wl.cases) {
    report.attempt();
    driver::RunOptions opts = rc.options();
    opts.validate = true;
    try {
      const driver::RunResult r = driver::run_simulation(opts);
      dumps.push_back(r.registry.dump());
      counts.add(r.registry, r.events_executed, wl.census);
    } catch (const std::exception& e) {
      dumps.emplace_back();
      report.fail(rc.name() + ": " + e.what());
    }
  }
  check_golden(wl, dumps, report);
  return dumps;
}

void check_golden(const Workload& wl, const std::vector<std::string>& dumps,
                  Report& report) {
  if (wl.golden.empty() || wl.cases.size() != 1 || wl.cases[0].seed != 1) {
    return;
  }
  const std::string golden = read_file(wl.golden);
  if (golden.empty()) {
    report.fail("cannot read " + wl.golden);
  } else {
    expect_same_dump(wl.name + " seed 1 vs " + wl.golden, dumps[0], golden,
                     report);
  }
}

// --- Stack ------------------------------------------------------------------

namespace {
driver::RunOptions checked(const driver::RunOptions& opts) {
  HC3I_CHECK(opts.protocol == driver::ProtocolKind::kHc3i && !opts.trace &&
                 opts.metrics_interval == SimTime::zero() &&
                 !opts.auto_failures && opts.scripted_failures.empty(),
             "Stack: only plain HC3I runs with a campaign are supported");
  driver::RunOptions o = opts;
  o.spec.validate();
  return o;
}
}  // namespace

Stack::Stack(const driver::RunOptions& opts, driver::SimContext& ctx)
    : arena_scope_(ctx.arena()),
      opts_(checked(opts)),
      sim_(opts_.seed),
      fed_(sim_, opts_.spec, registry_),
      workload_(sim_, fed_.topology(), opts_.spec.application, registry_,
                opts_.replay),
      runtime_(opts_.spec, opts_.hc3i) {
  fed_.build_agents(runtime_.factory(), workload_.handles());
  workload_.bind_agents([this](NodeId n) { return &fed_.agent(n); });
  fed_.start();
  workload_.start();
  if (!opts_.campaign.empty()) {
    engine_ = std::make_unique<fault::CampaignEngine>(
        fed_, &runtime_, opts_.campaign, opts_.spec.application.total_time);
    engine_->arm();
  }
}

void Stack::run(std::size_t slices, const std::function<void()>& between) {
  const SimTime end = opts_.spec.application.total_time + opts_.drain;
  for (std::size_t i = 1; i <= slices; ++i) {
    // run_until(t) stops at t and leaves the clock there; nothing is
    // scheduled from outside between slices, so the event sequence is the
    // one a single run_until(end) executes.
    sim_.run_until(i == slices ? end
                               : SimTime{end.ns / static_cast<std::int64_t>(
                                                      slices) *
                                         static_cast<std::int64_t>(i)});
    if (i < slices && between) between();
  }
  if (engine_) engine_->finalize();
}

std::vector<std::string> Stack::audit() {
  std::vector<std::string> violations =
      fed_.ledger().validate(/*allow_in_flight=*/false);
  driver::append_cluster_agreement_violations(runtime_, violations,
                                              /*expect_ddv_agreement=*/true);
  for (std::size_t c = 0; c < runtime_.cluster_count(); ++c) {
    registry_.set("store.final_clcs.c" + std::to_string(c),
                  runtime_.store(ClusterId{static_cast<std::uint32_t>(c)})
                      .size());
  }
  registry_.set("ledger.undone_events", fed_.ledger().undone_events());
  registry_.set("ledger.total_events", fed_.ledger().total_events());
  return violations;
}

}  // namespace perfbench
