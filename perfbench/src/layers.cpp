// --trace 1: the per-layer metrics.
//
//   1. batch     a batch::Runner pass (one worker) with dumps kept: the
//                reference dumps, the seed-1 golden, payload-pool reuse
//   2. driver    phase-timed passes through the Stack (setup / loop /
//                audit / teardown) until kPhasedShare of --seconds, each
//                dump equal to the reference; the first pass also samples
//                the live state between kSlices slices of the loop
//   3. obs       a traced pass (run_simulation, trace on, validate on),
//                each run next to an untraced one for the overhead: the
//                trace records, the simulated round histogram, the export
//                cost; its dumps must equal the untraced ones
//   4. kernels   one public call per layer, timed from outside, on inputs
//                sized from the workload's counters and samples
//   5. hc3i      a timer-only single-cluster run of the workload's
//                cluster size: host time per 2PC round
//
// A layer's share is its kernel time times the workload's count of that
// call, less what the kernels of the layers below (the event queue, the
// network) already charge, divided by the median phase-timed pass.
// unattributed_pct is what the kernels do not explain.

#include <cstdio>
#include <fstream>

#include "batch/runner.hpp"
#include "bench.hpp"
#include "config/presets.hpp"
#include "net/network.hpp"
#include "obs/export.hpp"
#include "proto/clc_store.hpp"
#include "proto/gc_wire.hpp"
#include "proto/msg_log.hpp"
#include "proto/recovery_line.hpp"
#include "sim/event_queue.hpp"
#include "storage/state_region.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace hc3i;

namespace {

/// Host-time budget of one kernel, seconds.
constexpr double kKernelBudget = 0.2;
/// Kernels whose times are subtracted from one another alternate this many
/// times, a fifth of the budget each, so drift in host speed hits them
/// alike; each reports its median.
constexpr int kAlternations = 5;
/// Loop slices of the sampling pass.
constexpr std::size_t kSlices = 64;
/// Phase-timed passes continue until this share of --seconds has passed.
constexpr double kPhasedShare = 0.6;

/// Keeps kernel results observable so the calls are not optimised away.
volatile std::uint64_t g_sink = 0;

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Live state sampled between loop slices.
struct Samples {
  std::vector<double> pending;      ///< pending events
  std::vector<double> store_clcs;   ///< retained CLCs, mean over clusters
  std::vector<double> log_entries;  ///< cluster log entries, mean
  /// Host seconds of one ClcStore::storage_bytes() call on a live store,
  /// one sample per cluster per slice: the call runs on every commit at
  /// whatever size the store has then, on data laid out by the run itself,
  /// which a synthetic store held hot in cache does not reproduce.
  std::vector<double> store_bytes_s;
};

/// Per-pass phase times, seconds.
struct Phases {
  std::vector<double> setup, loop, audit, pass;
};

/// Kernel input sizes, printed with the results so a change shows.
struct Inputs {
  std::size_t clusters{0};
  std::size_t nodes{0};             ///< per cluster
  std::size_t pending_depth{0};     ///< sampled mean pending events
  std::size_t store_clcs{0};        ///< sampled mean retained CLCs
  std::size_t log_entries{0};       ///< sampled mean cluster log entries
  std::size_t chain_len{0};         ///< records a chain read walks
  std::uint64_t state_bytes{0};
  std::uint64_t delta_bytes{0};     ///< mean bytes one capture writes
  std::uint64_t ctl_bytes{0};       ///< mean control message size
  std::uint64_t app_bytes{0};       ///< application message size
  bool storage{false};
  bool incremental{false};
};

// --- passes -----------------------------------------------------------------

/// One pass through the Stack with every phase timed; the first pass also
/// samples the live state between loop slices.
void phased_pass(const Workload& wl, const std::vector<std::string>& ref,
                 Samples* samples, Phases& ph, Spans& spans, int parent,
                 Report& report) {
  driver::SimContext shared;
  const int pass_span = spans.open("phased_pass", parent);
  double setup = 0, loop = 0, audit = 0, teardown = 0;
  for (std::size_t i = 0; i < wl.cases.size(); ++i) {
    report.attempt();
    driver::SimContext fresh;
    driver::SimContext& ctx = wl.cases.size() > 1 ? shared : fresh;
    const driver::RunOptions opts = wl.cases[i].options();

    int span = spans.open("driver.setup", pass_span);
    double t0 = now();
    auto stack = std::make_unique<Stack>(opts, ctx);
    setup += now() - t0;
    spans.close(span);

    span = spans.open("driver.loop", pass_span);
    double sampling = 0;
    t0 = now();
    if (samples == nullptr) {
      stack->run();
    } else {
      const core::Hc3iRuntime& rt = stack->runtime();
      stack->run(kSlices, [&] {
        const double s0 = now();
        double clcs = 0, logs = 0;
        for (std::size_t c = 0; c < rt.cluster_count(); ++c) {
          const ClusterId id{static_cast<std::uint32_t>(c)};
          clcs += static_cast<double>(rt.store(id).size());
          logs += static_cast<double>(rt.cluster_log_entries(id));
          const double b0 = now();
          g_sink = g_sink + rt.store(id).storage_bytes();
          samples->store_bytes_s.push_back(now() - b0);
        }
        const auto n = static_cast<double>(rt.cluster_count());
        samples->pending.push_back(
            static_cast<double>(stack->simulation().pending_events()));
        samples->store_clcs.push_back(clcs / n);
        samples->log_entries.push_back(logs / n);
        sampling += now() - s0;
      });
    }
    loop += now() - t0 - sampling;
    spans.close(span);

    span = spans.open("driver.audit", pass_span);
    t0 = now();
    const std::vector<std::string> violations = stack->audit();
    audit += now() - t0;
    spans.close(span);
    const std::string dump = stack->registry().dump();

    span = spans.open("driver.teardown", pass_span);
    t0 = now();
    stack.reset();
    teardown += now() - t0;
    spans.close(span);

    if (!violations.empty()) {
      report.fail(wl.cases[i].name() + ": " + violations.front());
    }
    expect_same_dump(wl.cases[i].name() + " Stack vs run_simulation", dump,
                     ref[i], report);
  }
  spans.close(pass_span);
  ph.setup.push_back(setup);
  ph.loop.push_back(loop);
  ph.audit.push_back(audit);
  ph.pass.push_back(setup + loop + audit + teardown);
}

// --- kernels ----------------------------------------------------------------

/// Batch size of the per-message kernels: small enough that the prepared
/// inputs stay in cache, as they do when the simulator builds them.
constexpr std::uint64_t kOps = 256;

/// EventQueue holding `depth` far-future events (the run's timers and
/// compute steps): per op one near-future schedule, as a message arrival
/// is, and one pop; on every eighth op also a cancel plus reschedule (a
/// timer reset).  Times are drawn untimed.
double kernel_queue_ns(std::size_t depth, double budget) {
  sim::EventQueue q;
  RngStream rng(1, 0x51);
  std::uint64_t fired = 0;
  SimTime clock = SimTime::zero();
  for (std::size_t i = 0; i < depth; ++i) {
    q.schedule(hours(100000) + SimTime{static_cast<std::int64_t>(i)},
               [&fired] { ++fired; });
  }
  std::vector<std::int64_t> delays(kOps + kOps / 8);
  const auto prepare = [&] {
    for (std::int64_t& d : delays) {
      d = 10000 + static_cast<std::int64_t>(rng.next_below(1000));  // ~10 us
    }
  };
  const double s = time_per_call(
      [&] {
        std::size_t next = 0;
        for (std::uint64_t op = 0; op < kOps; ++op) {
          const sim::EventId id = q.schedule(clock + SimTime{delays[next++]},
                                             [&fired] { ++fired; });
          if (op % 8 == 0) {
            q.cancel(id);
            q.schedule(clock + SimTime{delays[next++]},
                       [&fired] { ++fired; });
          }
          auto [t, cb] = q.pop();
          clock = t;
          cb();
        }
      },
      kOps, budget, prepare);
  g_sink = g_sink + fired;
  return s * 1e9;
}

/// Network::send plus delivery (the arrival event popped and dispatched)
/// of control messages on the workload's topology, with `depth` far-future
/// events pending beside them, as in kernel_queue_ns.  The traffic has the
/// shape of the 2PC that makes most of it: a cluster's first node sends to
/// each other node of the cluster in turn, and each answers.  Envelopes are
/// built untimed.
double kernel_net_ns(const config::RunSpec& spec, const Inputs& in,
                     std::size_t depth, double budget) {
  sim::Simulation sim(1);
  stats::Registry reg;
  const net::Topology topo(spec.topology);
  net::Network network(sim, topo, reg);
  std::uint64_t delivered = 0;
  for (std::uint32_t n = 0; n < topo.node_count(); ++n) {
    network.attach(NodeId{n},
                   [&delivered](const net::Envelope&) { ++delivered; });
  }
  RngStream rng(1, 0x52);
  std::vector<net::Envelope> batch;
  std::uint32_t base = 0;
  std::uint32_t peer = 0;
  const auto prepare = [&] {
    batch.assign(kOps, net::Envelope{});
    for (std::size_t i = 0; i < kOps; ++i) {
      if (i % 2 == 0 && ++peer == in.nodes) peer = 0;
      if (peer == 0) {  // next round, in a random cluster
        base = topo.first_node(ClusterId{static_cast<std::uint32_t>(
                                   rng.next_below(in.clusters))}).v;
        peer = 1;
      }
      net::Envelope& env = batch[i];
      env.cls = net::MsgClass::kControl;
      env.payload_bytes = in.ctl_bytes;
      env.src = NodeId{i % 2 == 0 ? base : base + peer};
      env.dst = NodeId{i % 2 == 0 ? base + peer : base};
    }
  };
  prepare();
  for (std::size_t i = 0; i < depth; ++i) {
    sim.schedule_at(hours(100000) + SimTime{static_cast<std::int64_t>(i)},
                    [] {});
  }
  const double s = time_per_call(
      [&] {
        for (net::Envelope& env : batch) {
          network.send(std::move(env));
          sim.step();
        }
      },
      kOps, budget, prepare);
  g_sink = g_sink + delivered;
  return s * 1e9;
}

/// A cluster's retained CLCs: `store_clcs` records of one part per node,
/// the cluster's `log_entries` logged sends spread over its nodes' logs.
struct StoreFixture {
  const Inputs& in;
  std::vector<proto::MsgLog> logs;
  proto::ClcStore store;

  explicit StoreFixture(const Inputs& inputs)
      : in(inputs),
        logs(inputs.nodes),
        store(ClusterId{0}, static_cast<std::uint32_t>(inputs.nodes)) {
    for (std::size_t i = 0; i < in.log_entries; ++i) {
      net::Envelope env;
      env.id = MsgId{i + 1};
      env.cls = net::MsgClass::kApp;
      env.payload_bytes = in.app_bytes;
      env.src_cluster = ClusterId{0};
      env.dst_cluster = ClusterId{1};
      logs[i % in.nodes].add(env);
    }
    for (std::size_t r = 0; r < in.store_clcs; ++r) store.commit(record(r + 1));
  }

  proto::ClcRecord record(std::size_t sn) const {
    proto::ClcRecord rec;
    rec.sn = static_cast<SeqNum>(sn);
    rec.ddv = proto::Ddv(in.clusters, ClusterId{0}, rec.sn);
    rec.parts.resize(in.nodes);
    for (std::size_t n = 0; n < in.nodes; ++n) {
      proto::NodePart& p = rec.parts[n];
      p.app.state_bytes = in.state_bytes;
      p.app.incremental = in.incremental && sn > 1;
      p.app.delta_bytes = p.app.incremental ? in.delta_bytes : in.state_bytes;
      p.log = logs[n].capture();
    }
    return rec;
  }
};

/// Per-cluster CLC metadata of a ring federation: every record depends on
/// an older CLC of both ring neighbours, so a failure cascades.
std::vector<std::vector<proto::ClcMeta>> ring_metas(const Inputs& in) {
  std::vector<std::vector<proto::ClcMeta>> metas(in.clusters);
  for (std::size_t c = 0; c < in.clusters; ++c) {
    for (std::size_t r = 0; r < in.store_clcs; ++r) {
      proto::Ddv ddv(in.clusters, ClusterId{static_cast<std::uint32_t>(c)},
                     static_cast<SeqNum>(r + 1));
      for (const std::size_t nb : {c + 1, c + in.clusters - 1}) {
        if (nb % in.clusters != c) {
          ddv.raise(ClusterId{static_cast<std::uint32_t>(nb % in.clusters)},
                    static_cast<SeqNum>(r / 2 + 1));
        }
      }
      metas[c].push_back(proto::ClcMeta{static_cast<SeqNum>(r + 1), ddv});
    }
  }
  return metas;
}

struct ProtoKernels {
  double store_commit_ns, store_truncate_ns, chain_read_ns;
  double recovery_line_us, gc_bound_us, ddv_merge_ns, gc_wire_ns;
};

ProtoKernels kernel_proto(const Inputs& in) {
  ProtoKernels k{};
  StoreFixture fx(in);
  // commit a batch of records, then truncate_after drops the same batch.
  constexpr std::size_t kBatch = 16;
  std::vector<double> commit_s, truncate_s;
  const double start = now();
  while (commit_s.size() < 9 || now() - start < kKernelBudget) {
    std::vector<proto::ClcRecord> batch;
    for (std::size_t b = 0; b < kBatch; ++b) {
      batch.push_back(fx.record(in.store_clcs + 1 + b));
    }
    const double t0 = now();
    for (proto::ClcRecord& rec : batch) fx.store.commit(std::move(rec));
    const double t1 = now();
    g_sink = g_sink +
             fx.store.truncate_after(static_cast<SeqNum>(in.store_clcs));
    truncate_s.push_back(now() - t1);
    commit_s.push_back((t1 - t0) / kBatch);
  }
  k.store_commit_ns = median(commit_s) * 1e9;
  k.store_truncate_ns = median(truncate_s) * 1e9;

  std::uint32_t node = 0;
  const SeqNum last = fx.store.last().sn;
  const auto nodes = static_cast<std::uint32_t>(in.nodes);
  k.chain_read_ns = 1e9 * time_per_call(
                              [&] {
                                g_sink = g_sink +
                                         fx.store.chain_read_bytes(last, node);
                                node = (node + 1) % nodes;
                              },
                              1, kKernelBudget);

  const auto metas = ring_metas(in);
  k.recovery_line_us = 1e6 * time_per_call(
                                 [&] {
                                   const proto::RecoveryLine line =
                                       proto::compute_recovery_line(
                                           metas, ClusterId{0});
                                   g_sink = g_sink + line.restored[0];
                                 },
                                 1, kKernelBudget);
  k.gc_bound_us = 1e6 * time_per_call(
                            [&] {
                              g_sink = g_sink +
                                       proto::gc_min_restored_sns(metas)[0];
                            },
                            1, kKernelBudget);
  k.gc_wire_ns = 1e9 * time_per_call(
                           [&] {
                             const proto::EncodedClcMetas enc =
                                 proto::encode_clc_metas(metas[0]);
                             g_sink = g_sink +
                                      proto::decode_clc_metas(enc).size();
                           },
                           1, kKernelBudget);

  proto::Ddv acc(in.clusters, ClusterId{0}, 1);
  const proto::Ddv a = metas[0].back().ddv;
  const proto::Ddv b = metas[1 % in.clusters].back().ddv;
  constexpr std::uint64_t kMerges = 1024;
  k.ddv_merge_ns = 1e9 * time_per_call(
                             [&] {
                               for (std::uint64_t i = 0; i < kMerges; ++i) {
                                 acc.merge_max(i % 2 == 0 ? a : b);
                               }
                               g_sink = g_sink + acc[0];
                             },
                             kMerges, kKernelBudget);
  return k;
}

/// StateRegion::capture(kIncremental) after one application touch, the
/// per-node work of a storage-modelled checkpoint.
double kernel_capture_ns(const Inputs& in) {
  storage::StateRegion region(in.state_bytes);
  const std::uint64_t stride =
      std::max<std::uint64_t>(1, in.state_bytes / 1024);
  std::uint64_t step = 0;
  return 1e9 * time_per_call(
                   [&] {
                     for (std::uint64_t i = 0; i < kOps; ++i) {
                       region.touch((++step * stride) % in.state_bytes, stride);
                       const storage::CaptureRecord rec =
                           region.capture(storage::CaptureMode::kIncremental);
                       g_sink = g_sink + rec.length;
                     }
                   },
                   kOps, kKernelBudget);
}

/// StateRegion::rebuild of one process image from a chain of
/// `chain_len` materialized captures.
double kernel_rebuild_us(const Inputs& in) {
  storage::StateRegion region(in.state_bytes,
                              storage::StateRegion::Content::kMaterialized);
  const std::uint64_t stride =
      std::max<std::uint64_t>(1, in.state_bytes / 1024);
  std::vector<storage::CaptureRecord> chain;
  chain.push_back(region.capture(storage::CaptureMode::kFull));
  for (std::size_t i = 1; i < in.chain_len; ++i) {
    region.touch((i * stride) % in.state_bytes, stride, i);
    chain.push_back(region.capture(storage::CaptureMode::kIncremental));
  }
  return 1e6 * time_per_call(
                   [&] {
                     const std::vector<std::uint8_t> image =
                         storage::StateRegion::rebuild(in.state_bytes, chain);
                     g_sink = g_sink + image.size();
                   },
                   1, kKernelBudget);
}

/// Timer-only run of one cluster of the workload's size: no application
/// traffic (compute steps longer than the run), a CLC every simulated
/// minute for ten minutes, no GC; the store stays small, so its scan
/// hardly weighs on the round.  Returns the host time of one 2PC round and
/// the events and control messages a round costs.
struct RoundCost {
  double round_s{0};
  double events{0};
  double msgs{0};
};

RoundCost timer_only_rounds(const config::RunSpec& base, double budget,
                            Report& report) {
  config::RunSpec spec = config::scale_federation_spec(
      1, base.topology.clusters[0].nodes, minutes(10));
  spec.topology.clusters[0].storage = base.topology.clusters[0].storage;
  spec.application.state_bytes = base.application.state_bytes;
  spec.application.clusters[0].traffic.assign(1, 0.0);
  spec.application.clusters[0].mean_compute = hours(1000);
  spec.timers.clusters[0].clc_period = minutes(1);
  spec.timers.gc_period = SimTime::infinity();
  driver::RunOptions opts;
  opts.spec = spec;

  RoundCost cost;
  std::vector<double> per_round;
  const double start = now();
  while (per_round.size() < 9 || now() - start < budget) {
    report.attempt();
    driver::SimContext ctx;
    Stack stack(opts, ctx);
    const double t0 = now();
    stack.run();
    const double loop = now() - t0;
    if (!stack.audit().empty()) report.fail("timer-only run: violations");
    const stats::Registry& reg = stack.registry();
    const double rounds = static_cast<double>(reg.get("clc.unforced.c0") +
                                              reg.get("clc.forced.c0"));
    if (rounds == 0) {
      report.fail("timer-only run committed no CLC");
      return cost;
    }
    per_round.push_back(loop / rounds);
    cost.events =
        static_cast<double>(stack.simulation().events_executed()) / rounds;
    cost.msgs = static_cast<double>(reg.get("net.ctl.intra.msgs")) / rounds;
  }
  cost.round_s = median(per_round);
  return cost;
}

}  // namespace

void run_layers(const Workload& wl, double seconds,
                const std::string& spans_out, Report& report) {
  const double start = now();
  Spans spans;
  const int root = spans.open("layers." + wl.name);

  // 1. batch: reference dumps, golden, pool reuse.
  int span = spans.open("batch.runner_pass", root);
  batch::RunnerOptions ropts;
  ropts.threads = 1;
  ropts.keep_dumps = true;
  const batch::BatchReport batch_pass = batch::Runner(ropts).run(wl.cases);
  spans.close(span);
  report.attempt(batch_pass.cases.size());
  std::vector<std::string> ref;
  for (std::size_t i = 0; i < batch_pass.cases.size(); ++i) {
    const batch::CaseResult& cr = batch_pass.cases[i];
    if (!cr.ok) report.fail(wl.cases[i].name() + ": " + cr.error);
    ref.push_back(cr.dump);
  }
  check_golden(wl, ref, report);

  // 2. driver: phase-timed passes; the first one samples the live state.
  span = spans.open("driver.phased_passes", root);
  Samples samples;
  Phases phases;
  phased_pass(wl, ref, &samples, phases, spans, span, report);
  while (phases.pass.size() < 3 || now() - start < kPhasedShare * seconds) {
    phased_pass(wl, ref, nullptr, phases, spans, span, report);
  }
  spans.close(span);
  const double wall = median(phases.pass);

  // 3. obs: the traced pass.  Each traced run follows an untraced run of
  // the same case, so the overhead compares neighbours in time.
  span = spans.open("obs.traced_pass", root);
  Counts counts;
  stats::Log2Histogram round_us;
  std::uint64_t records = 0;
  double untraced_s = 0, traced_s = 0, export_s = 0, t0 = 0;
  for (std::size_t i = 0; i < wl.cases.size(); ++i) {
    report.attempt(2);
    driver::RunOptions opts = wl.cases[i].options();
    try {
      int run_span = spans.open("obs.untraced_run", span);
      t0 = now();
      driver::run_simulation(opts);
      untraced_s += now() - t0;
      spans.close(run_span);
      opts.trace = true;
      run_span = spans.open("obs.traced_run", span);
      t0 = now();
      const driver::RunResult r = driver::run_simulation(opts);
      traced_s += now() - t0;
      spans.close(run_span);
      const int export_span = spans.open("obs.export", span);
      t0 = now();
      g_sink = g_sink + obs::trace_json(*r.obs).size();
      export_s += now() - t0;
      spans.close(export_span);
      records += r.obs->recorder.records().size();
      round_us.merge(r.obs->recorder.round_us());
      counts.add(r.registry, r.events_executed, wl.census);
      expect_same_dump(wl.cases[i].name() + " traced vs untraced",
                       r.registry.dump(), ref[i], report);
    } catch (const std::exception& e) {
      report.fail(wl.cases[i].name() + " traced: " + e.what());
    }
  }
  spans.close(span);

  // 4. kernels, on inputs sized from this workload.
  const config::RunSpec& spec = *wl.cases[0].spec;
  const config::StorageSpec& storage = spec.topology.clusters[0].storage;
  Inputs in;
  in.clusters = spec.topology.cluster_count();
  in.nodes = spec.topology.clusters[0].nodes;
  in.pending_depth = static_cast<std::size_t>(median(samples.pending));
  in.store_clcs = std::max<std::size_t>(
      1, static_cast<std::size_t>(median(samples.store_clcs) + 0.5));
  in.log_entries = static_cast<std::size_t>(median(samples.log_entries) + 0.5);
  in.storage = storage.enabled();
  in.incremental = in.storage && storage.incremental;
  in.chain_len = in.incremental ? in.store_clcs : 1;
  in.state_bytes = spec.application.state_bytes;
  const std::uint64_t parts = counts.clc_commits * in.nodes;
  in.delta_bytes =
      in.storage && parts > 0 ? counts.ckpt_bytes / parts : in.state_bytes;
  in.ctl_bytes = counts.ctl_msgs > 0 ? counts.ctl_bytes / counts.ctl_msgs : 64;
  in.app_bytes = spec.application.clusters[0].message_bytes;
  std::printf(
      "kernel inputs: clusters=%zu nodes=%zu pending_depth=%zu "
      "store_clcs=%zu (high-water %llu) log_entries=%zu (high-water %llu) "
      "chain_len=%zu state_bytes=%llu delta_bytes=%llu ctl_bytes=%llu "
      "app_bytes=%llu storage=%d\n",
      in.clusters, in.nodes, in.pending_depth, in.store_clcs,
      static_cast<unsigned long long>(counts.store_max_clcs), in.log_entries,
      static_cast<unsigned long long>(counts.log_max_entries), in.chain_len,
      static_cast<unsigned long long>(in.state_bytes),
      static_cast<unsigned long long>(in.delta_bytes),
      static_cast<unsigned long long>(in.ctl_bytes),
      static_cast<unsigned long long>(in.app_bytes), in.storage ? 1 : 0);

  span = spans.open("kernels", root);
  // The queue and the network at the workload's pending depth, and a lone
  // 2PC round with the queue and network as it sees them (about one
  // cluster's worth of events pending): alternated, because each share
  // subtracts one of these times from another.
  const double slot = kKernelBudget / kAlternations;
  std::vector<double> queue, net, round_s, round_queue, round_net;
  RoundCost round;
  for (int i = 0; i < kAlternations; ++i) {
    int k = spans.open("sim.queue", span);
    queue.push_back(kernel_queue_ns(in.pending_depth, slot));
    spans.close(k);
    k = spans.open("net.send_deliver", span);
    net.push_back(kernel_net_ns(spec, in, in.pending_depth, slot));
    spans.close(k);
    k = spans.open("hc3i.timer_only_rounds", span);
    round = timer_only_rounds(spec, 2 * slot, report);
    round_s.push_back(round.round_s);
    spans.close(k);
    k = spans.open("hc3i.round_children", span);
    round_queue.push_back(kernel_queue_ns(in.nodes, slot));
    round_net.push_back(kernel_net_ns(spec, in, in.nodes, slot));
    spans.close(k);
  }
  const double queue_ns = median(queue);
  const double net_ns = median(net);
  round.round_s = median(round_s);
  const double round_queue_ns = median(round_queue);
  const double round_net_ns = median(round_net);
  std::printf("timer-only round: %.0f events, %.0f control messages\n",
              round.events, round.msgs);

  int k = spans.open("proto.kernels", span);
  const ProtoKernels pk = kernel_proto(in);
  spans.close(k);
  k = spans.open("storage.capture", span);
  const double capture_ns = kernel_capture_ns(in);
  spans.close(k);
  k = spans.open("storage.rebuild", span);
  const double rebuild_us = kernel_rebuild_us(in);
  spans.close(k);
  spans.close(span);
  spans.close(root);

  // 5. attribution: kernel time x the workload's call count, self time only.
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const auto pct = [](double part, double whole) {
    return whole > 0 ? 100.0 * part / whole : 0.0;
  };
  const double nodes = d(in.nodes);
  const double commits = d(counts.clc_commits);
  const double acks = commits * nodes;
  // A round's own work: its host time minus the queue, network, DDV-merge
  // and capture costs the other layers' kernels already charge for it.
  const double round_children_ns =
      round.events * round_queue_ns +
      round.msgs * (round_net_ns - round_queue_ns) +
      nodes * (pk.ddv_merge_ns + (in.storage ? capture_ns : 0.0));
  const double round_self_s =
      std::max(0.0, round.round_s - 1e-9 * round_children_ns);
  const double store_bytes_ns = 1e9 * mean(samples.store_bytes_s);
  const double sim_s = 1e-9 * queue_ns * d(counts.events);
  const double net_s = 1e-9 * std::max(0.0, net_ns - queue_ns) *
                       d(counts.app_msgs + counts.ctl_msgs);
  const double hc3i_s = round_self_s * commits;
  const double proto_ns =
      (store_bytes_ns + pk.store_commit_ns) * commits +
      pk.store_truncate_ns * d(counts.rollbacks) +
      (in.storage ? pk.chain_read_ns * d(counts.rollback_nodes) : 0.0) +
      pk.ddv_merge_ns * acks +
      pk.gc_wire_ns * d(counts.gc_rounds * in.clusters) +
      1e3 * pk.gc_bound_us * d(counts.gc_rounds);
  const double proto_s = 1e-9 * proto_ns;
  const double storage_s = in.storage ? 1e-9 * capture_ns * acks : 0.0;
  const auto share = [&](double s) { return pct(s, wall); };

  const double runs = d(std::max<std::uint64_t>(counts.runs, 1));
  const batch::WorkerStats& worker = batch_pass.workers.front();
  report.metric("sim.events", d(counts.events), "count");
  report.metric("sim.queue_ns", queue_ns, "ns");
  report.metric("sim.share_pct", share(sim_s), "%");
  report.metric("net.app_msgs", d(counts.app_msgs), "count");
  report.metric("net.ctl_msgs", d(counts.ctl_msgs), "count");
  report.metric("net.ctl_bytes", d(counts.ctl_bytes), "bytes");
  report.metric("net.send_deliver_ns", net_ns, "ns");
  report.metric("net.share_pct", share(net_s), "%");
  report.metric("hc3i.clc_commits", commits, "count");
  report.metric("hc3i.clc_forced", d(counts.clc_forced), "count");
  report.metric("hc3i.round_us", round.round_s * 1e6, "us");
  report.metric("hc3i.round_sim_ms_p50", round_us.quantile(0.5) / 1e3,
                "sim_ms");
  report.metric("hc3i.round_sim_ms_p95", round_us.quantile(0.95) / 1e3,
                "sim_ms");
  report.metric("hc3i.share_pct", share(hc3i_s), "%");
  report.metric("proto.store_max_clcs", d(counts.store_max_clcs), "count");
  report.metric("proto.log_max_entries", d(counts.log_max_entries), "count");
  report.metric("proto.store_commit_ns", pk.store_commit_ns, "ns");
  report.metric("proto.store_bytes_ns", store_bytes_ns, "ns");
  report.metric("proto.store_truncate_ns", pk.store_truncate_ns, "ns");
  report.metric("proto.chain_read_ns", pk.chain_read_ns, "ns");
  report.metric("proto.recovery_line_us", pk.recovery_line_us, "us");
  report.metric("proto.gc_bound_us", pk.gc_bound_us, "us");
  report.metric("proto.ddv_merge_ns", pk.ddv_merge_ns, "ns");
  report.metric("proto.gc_wire_ns", pk.gc_wire_ns, "ns");
  report.metric("proto.share_pct", share(proto_s), "%");
  report.metric("storage.bytes_written", d(counts.ckpt_bytes), "bytes");
  report.metric("storage.delta_saved_pct",
                pct(d(counts.ckpt_saved),
                    d(counts.ckpt_bytes + counts.ckpt_saved)),
                "%");
  report.metric("storage.capture_ns", capture_ns, "ns");
  report.metric("storage.rebuild_us", rebuild_us, "us");
  report.metric("storage.share_pct", share(storage_s), "%");
  report.metric("fault.injected", d(counts.faults), "count");
  report.metric("fault.rollbacks", d(counts.rollbacks), "count");
  report.metric("fault.rollback_nodes", d(counts.rollback_nodes), "count");
  report.metric("fault.replayed_msgs", d(counts.replayed_msgs), "count");
  report.metric("fault.lost_work_s", counts.lost_work_s, "node_s");
  report.metric("fault.undone_pct",
                pct(d(counts.undone_events), d(counts.ledger_events)), "%");
  report.metric("batch.runs", d(worker.runs), "count");
  report.metric("batch.pool_reuse_pct",
                pct(d(worker.pool_reused),
                    d(worker.pool_reused + worker.pool_fresh)),
                "%");
  report.metric("driver.setup_ms", median(phases.setup) * 1e3, "ms");
  report.metric("driver.loop_s", median(phases.loop), "s");
  report.metric("driver.audit_ms", median(phases.audit) * 1e3, "ms");
  report.metric("obs.records", d(records), "count");
  report.metric("obs.export_ms", export_s * 1e3, "ms");
  report.metric("obs.trace_overhead_pct",
                pct(traced_s - untraced_s, untraced_s), "%");
  report.metric("unattributed_pct",
                100.0 - share(sim_s) - share(net_s) - share(hc3i_s) -
                    share(proto_s) - share(storage_s),
                "%");
  report.metric("recovery_ms_mean",
                counts.recoveries > 0
                    ? 1e3 * counts.recovery_s_sum / d(counts.recoveries)
                    : 0.0,
                "sim_ms");
  report.metric("ckpt_stall_s", d(counts.ckpt_stall_us) / 1e6 / runs,
                "node_s");
  report.metric("table1_err_pct", counts.table1_err_pct_sum / runs, "%");
  report.metric("failed_runs", static_cast<double>(report.failed()), "count");

  if (!spans_out.empty()) {
    std::ofstream out(spans_out, std::ios::binary);
    out << spans.json();
    if (!out) report.fail("cannot write " + spans_out);
  }
}

}  // namespace perfbench
