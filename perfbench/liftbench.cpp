/// liftbench — the repository benchmark: simulator throughput and protocol
/// outcomes of the paper's deployments, plus a per-layer trace taken from
/// outside the library. perfbench/README.md has the metric table, the
/// layer-to-metric map and the reasons for each workload.
///
/// Usage:
///   liftbench --workload stream_5k|bare_5k|sweep_mixed --seed N
///             --seconds S --trace 0|1
///
/// --seed 0 runs the preset seeds (planetlab 1202, the sweep's case seeds);
/// any other value derives fresh stream and per-task seeds from it.
/// --trace 0 runs untraced repetitions for --seconds (at least two) and
/// prints the end-to-end metrics; --trace 1 runs untraced, traced,
/// recorder-armed and again untraced passes and prints the per-layer
/// metrics. The last line of
/// stdout is one JSON object {correct, attempted, failed, metrics}; the
/// exit code is 1 when any correctness check failed, 2 on bad arguments.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "alloc_tally.hpp"
#include "adversary/strategy.hpp"
#include "layer_trace.hpp"
#include "obs/registry.hpp"
#include "runtime/experiment.hpp"
#include "runtime/runner.hpp"
#include "runtime/sweep.hpp"

namespace {

using namespace lifting;
using bench::AllocSnapshot;
using perfbench::LayerTrace;
using runtime::Experiment;
using runtime::RunSpec;
using runtime::ScenarioConfig;
using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kStreamNodes = 5000;
/// stream_5k's horizon is bench_scale_nodes' 8 s row. bare_5k runs 30 s so
/// that, without LiFTinG's extra events, a repetition takes about as long.
constexpr double kStreamHorizon = 8.0;
constexpr double kBareHorizon = 30.0;
constexpr std::uint64_t kPlanetlabSeed = 1202;
/// sweep_mixed: randomized sweep cases and reliable-UDP audit cells per
/// batch (plus the frontier baseline and every catalog strategy).
constexpr std::uint32_t kSweepCases = 80;
constexpr std::uint64_t kFaultCells = 6;
constexpr unsigned kSweepThreads = 2;
/// Simulated-time slice of the traced pass (queue-depth sampling period).
constexpr Duration kSlice = milliseconds(100);
constexpr std::size_t kRecorderCapacity = std::size_t{1} << 16;
/// Stream workloads: construction-only set-up samples taken before each
/// repetition, on top of the one the repetition takes.
constexpr int kSetupSamplesPerRep = 9;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU time of the calling thread.
double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::uint64_t counter(const obs::Registry& reg, std::string_view name) {
  for (const auto& e : reg.entries()) {
    if (e.name == name) return e.counter;
  }
  return 0;
}

// ------------------------------------------------------------------ output

class Report {
 public:
  /// A non-finite value (not valid JSON) fails the run and prints as 0.
  void metric(std::string name, double value, const char* unit) {
    if (!std::isfinite(value)) {
      record(name, "value is not finite");
      value = 0.0;
    }
    metrics_.push_back({std::move(name), value, unit});
  }
  /// One attempted operation (a deployment); a nonempty `error` fails it.
  void record(const std::string& label, const std::string& error) {
    ++attempted_;
    if (error.empty()) return;
    ++failed_;
    std::fprintf(stderr, "liftbench: %s FAILED: %s\n", label.c_str(),
                 error.c_str());
  }
  int print() const {
    for (const auto& m : metrics_) {
      std::printf("%-44s %.6g %s\n", m.name.c_str(), m.value, m.unit);
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                failed_ == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const auto& m = metrics_[i];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit);
    }
    std::printf("}}\n");
    std::fflush(stdout);
    return failed_ == 0 ? 0 : 1;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// --------------------------------------------------------------- workloads

/// bench_scale_nodes' Fig. 1 shape at 5,000 nodes: planetlab preset,
/// 674 kbps, f = 7, 10% deterred freeriders, 20% weak links.
ScenarioConfig stream_config(bool lifting_on, std::uint64_t seed) {
  auto cfg = ScenarioConfig::planetlab();
  const double horizon = lifting_on ? kStreamHorizon : kBareHorizon;
  cfg.nodes = kStreamNodes;
  cfg.seed = seed == 0 ? kPlanetlabSeed
                       : runtime::derive_task_seed(kPlanetlabSeed, seed);
  cfg.duration = seconds(horizon);
  cfg.stream.duration = seconds(horizon * 0.9);
  cfg.weak_fraction = 0.2;
  cfg.freerider_fraction = 0.10;
  cfg.freerider_behavior = gossip::BehaviorSpec::freerider(0.035);
  cfg.lifting_enabled = lifting_on;
  return cfg;
}

/// bench_fault_matrix's reliable-UDP cell at 10% Gilbert–Elliott burst
/// loss (mean burst 4 datagrams, 90% loss while bad), audits at p = 0.1.
ScenarioConfig fault_cell_config(std::uint64_t seed) {
  auto cfg = ScenarioConfig::small(60);
  cfg.seed = seed;
  cfg.freerider_fraction = 0.15;
  cfg.freerider_behavior = gossip::BehaviorSpec::freerider(0.5);
  cfg.link.loss = 0.02;
  cfg.lifting.audit_probability = 0.1;
  cfg.lifting.audit_warmup_periods = 10;
  cfg.lifting.audit_channel = LiftingParams::AuditChannel::kReliableUdp;
  constexpr double kBurstLoss = 0.10;
  constexpr double kLossBad = 0.9;
  constexpr double kBadToGood = 0.25;
  const double pi_bad = kBurstLoss / kLossBad;
  cfg.faults.loss_bad = kLossBad;
  cfg.faults.p_bad_to_good = kBadToGood;
  cfg.faults.p_good_to_bad = pi_bad * kBadToGood / (1.0 - pi_bad);
  return cfg;
}

/// One sweep_mixed batch. Seed 0 keeps every preset seed; another seed is
/// mixed into each task's seed (frontier timelines are regenerated from
/// the mixed seed; sweep-case timelines stay those of the case seed).
std::vector<RunSpec> sweep_specs(std::uint64_t seed) {
  const auto mix = [seed](std::uint64_t s) {
    return seed == 0 ? s : runtime::derive_task_seed(s, seed);
  };
  std::vector<RunSpec> specs;
  // The frontier tasks are the longest; queued first, the two lanes end
  // together.
  const auto frontier = [&](const std::string& name,
                            const adversary::AdversaryConfig& adv) {
    auto cfg = runtime::adversary_frontier_config(
        /*handoff_on=*/true, mix(runtime::derive_task_seed(0xF407ULL, 0)));
    cfg.adversary = adv;
    specs.emplace_back(cfg, cfg.seed, "frontier/" + name);
  };
  frontier("static", {});
  for (const auto& entry : adversary::catalog()) {
    frontier(entry.name, entry.config);
  }
  for (std::uint64_t rep = 0; rep < kFaultCells; ++rep) {
    const auto s = mix(runtime::derive_task_seed(0xFA27ULL, rep));
    specs.emplace_back(fault_cell_config(s), s,
                       "faults/rep" + std::to_string(rep));
  }
  for (auto spec : runtime::scenario_sweep_specs(kSweepCases)) {
    spec.seed = mix(spec.seed);
    spec.config.seed = spec.seed;
    specs.push_back(std::move(spec));
  }
  return specs;
}

// -------------------------------------------------------------- deployment

/// Every deterministic output of one deployment. A change that only makes
/// the simulator faster must leave it bit-identical.
struct Digest {
  runtime::RunDigest run;
  /// Nonzero sent.<kind>.{count,bytes} counters, sorted by name (a reset
  /// deployment keeps zeroed slots of kinds earlier runs used).
  std::vector<std::pair<std::string, std::uint64_t>> wire;
  double health_clear = 0.0;
  std::uint64_t chunks_received = 0;
  runtime::OverheadReport overhead;
  runtime::DetectionStats detection;

  friend bool operator==(const Digest& a, const Digest& b) {
    return a.run == b.run && a.wire == b.wire &&
           a.health_clear == b.health_clear &&
           a.chunks_received == b.chunks_received &&
           a.overhead.dissemination_bytes == b.overhead.dissemination_bytes &&
           a.overhead.verification_bytes == b.overhead.verification_bytes &&
           a.overhead.audit_bytes == b.overhead.audit_bytes &&
           a.detection.detection == b.detection.detection &&
           a.detection.false_positive == b.detection.false_positive &&
           a.detection.freeriders == b.detection.freeriders &&
           a.detection.honest == b.detection.honest;
  }
};

/// Reads the deployment's outcomes; `counters` receives its folded
/// counter registry.
Digest read_outcomes(Experiment& ex, obs::Registry& counters) {
  Digest d;
  ex.collect_metrics(counters);
  d.chunks_received = counter(counters, "engine.chunks_received");
  d.run = runtime::RunDigest::of(ex);
  for (auto& entry : ex.metrics().snapshot()) {
    if (entry.second != 0) d.wire.push_back(std::move(entry));
  }
  std::sort(d.wire.begin(), d.wire.end());
  // Viewers' outcome: honest nodes clear (>= 95% of chunks) at a 5 s
  // playback lag, chunks emitted after a 2 s warmup.
  gossip::PlaybackConfig playback;
  playback.clear_threshold = 0.95;
  playback.warmup = seconds(2.0);
  const auto curve = ex.health_curve({5.0}, /*honest_only=*/true, playback);
  d.health_clear = curve.empty() ? 0.0 : curve.front().fraction_clear;
  d.overhead = ex.overhead();
  if (ex.has_agents()) d.detection = ex.detection_at(ex.config().lifting.eta);
  return d;
}

/// How a deployment's run phase is driven.
struct Drive {
  LayerTrace* spans = nullptr;  ///< traced: spans + sliced run + queue samples
  bool recorder = false;        ///< flight recorder armed
  double alloc_window_from = 0.0;  ///< > 0: allocator tally from this sim s
};

struct QueueSamples {
  std::vector<double> pending;
  std::size_t in_flight_max = 0;
};

struct Deployment {
  std::uint32_t nodes = 0;
  double setup_s = 0.0;
  double run_s = 0.0;
  double run_cpu_s = 0.0;
  double read_s = 0.0;
  double wall_s = 0.0;  ///< whole sweep task, wind_down included
  std::uint64_t events = 0;
  std::uint64_t setup_allocs = 0;
  std::uint64_t run_allocs = 0;
  std::uint64_t run_alloc_bytes = 0;
  std::uint64_t window_events = 0;
  std::uint64_t window_allocs = 0;
  std::uint64_t window_alloc_bytes = 0;
  std::uint64_t heap_high_water = 0;
  Digest digest;
  obs::Registry counters;
  Experiment::AdversaryStats adversary;
  std::string error;

  [[nodiscard]] double total_s() const { return setup_s + run_s + read_s; }
  void fail(const std::string& why) {
    error += error.empty() ? why : "; " + why;
  }
};

/// Runs a built deployment to its horizon, reads its outcomes, winds it
/// down and checks that the drain left nothing behind.
void run_built(Experiment& ex, const Drive& drive, QueueSamples* queue,
               Deployment& out) {
  if (drive.recorder) ex.enable_trace(kRecorderCapacity);
  if (drive.spans != nullptr) drive.spans->install(ex);
  const TimePoint end = kSimEpoch + ex.config().duration;
  const auto alloc0 = AllocSnapshot::now();
  const auto t0 = Clock::now();
  const double cpu0 = thread_cpu_s();
  if (drive.spans != nullptr) {
    // Fixed simulated-time slices; run_until checkpoints are transparent,
    // which the digest comparison against the untraced pass checks.
    for (TimePoint t = kSimEpoch;;) {
      t = std::min(t + kSlice, end);
      ex.run_until(t);
      if (queue != nullptr) {
        queue->pending.push_back(
            static_cast<double>(ex.simulator().pending_events()));
        queue->in_flight_max =
            std::max(queue->in_flight_max, ex.network().in_flight());
      }
      if (t == end) break;
    }
  } else if (drive.alloc_window_from > 0.0) {
    ex.run_until(kSimEpoch + seconds(drive.alloc_window_from));
    const auto events0 = ex.simulator().events_processed();
    const auto window0 = AllocSnapshot::now();
    ex.run_until(end);
    const auto cost = AllocSnapshot::now().delta_since(window0);
    out.window_events = ex.simulator().events_processed() - events0;
    out.window_allocs = cost.calls;
    out.window_alloc_bytes = cost.bytes;
  } else {
    ex.run();
  }
  out.run_s = since(t0);
  out.run_cpu_s = thread_cpu_s() - cpu0;
  const auto run_cost = AllocSnapshot::now().delta_since(alloc0);
  out.run_allocs = run_cost.calls;
  out.run_alloc_bytes = run_cost.bytes;
  out.events = ex.simulator().events_processed();
  const auto t1 = Clock::now();
  out.digest = read_outcomes(ex, out.counters);
  out.read_s = since(t1);
  out.adversary = ex.adversary_stats();
  if (drive.spans != nullptr) drive.spans->stop();
  ex.wind_down();
  if (ex.network().in_flight() != 0) {
    out.fail(std::to_string(ex.network().in_flight()) +
             " deliveries in flight after wind_down");
  }
  if (ex.simulator().has_pending()) {
    out.fail(std::to_string(ex.simulator().pending_events()) +
             " events pending after wind_down");
  }
}

/// Builds a fresh deployment, runs it, and destroys it. Heap accounting
/// is process-global, so this runs on the calling thread alone.
Deployment fresh_deployment(const ScenarioConfig& cfg, const Drive& drive,
                            QueueSamples* queue) {
  Deployment d;
  d.nodes = cfg.nodes;
  bench::reset_live_high_water();
  const auto mem0 = AllocSnapshot::now();
  const auto t0 = Clock::now();
  std::optional<Experiment> ex;
  ex.emplace(cfg);
  d.setup_s = since(t0);
  d.setup_allocs = AllocSnapshot::now().delta_since(mem0).calls;
  run_built(*ex, drive, queue, d);
  d.heap_high_water = AllocSnapshot::now().high_water_since(mem0);
  return d;
}

struct Batch {
  std::vector<Deployment> tasks;
  double wall_s = 0.0;
  std::uint64_t heap_high_water = 0;
  std::uint32_t threads = 1;
};

/// Runs every spec on the runner's lanes: the first task of a lane
/// constructs its Experiment, later ones reset it (ParallelRunner::
/// run_specs' lane reuse, with the set-up step timed).
Batch run_batch(runtime::ParallelRunner& runner,
                const std::vector<RunSpec>& specs, const Drive& drive,
                QueueSamples* queue) {
  Batch b;
  b.threads = runner.threads();
  b.tasks.resize(specs.size());
  std::vector<std::unique_ptr<Experiment>> lanes(runner.threads());
  bench::reset_live_high_water();
  const auto mem0 = AllocSnapshot::now();
  const auto t0 = Clock::now();
  runner.for_each(specs.size(), [&](std::size_t i, unsigned worker) {
    auto cfg = specs[i].config;
    cfg.seed = specs[i].seed;
    auto& d = b.tasks[i];
    d.nodes = cfg.nodes;
    const auto a0 = AllocSnapshot::now();
    const auto s0 = Clock::now();
    auto& lane = lanes[worker];
    if (lane == nullptr) {
      lane = std::make_unique<Experiment>(std::move(cfg));
    } else {
      lane->reset(std::move(cfg));
    }
    d.setup_s = since(s0);
    d.setup_allocs = AllocSnapshot::now().delta_since(a0).calls;
    run_built(*lane, drive, queue, d);
    d.wall_s = since(s0);
  });
  b.wall_s = since(t0);
  b.heap_high_water = AllocSnapshot::now().high_water_since(mem0);
  return b;
}

// ----------------------------------------------------------------- metrics

/// Outcome metrics pooled over a set of deployments (identical across
/// repetitions; the sweep pools over its tasks).
struct Pooled {
  double health_clear = 0.0;
  double bytes_per_chunk = 0.0;
  double verification_overhead = 0.0;
  double detection = 0.0;
  double false_positive = 0.0;
};

Pooled pool(const std::vector<Deployment>& ds) {
  Pooled p;
  double bytes = 0, chunks = 0, verif = 0, dissem = 0;
  double detected = 0, freeriders = 0, flagged = 0, honest = 0;
  for (const auto& d : ds) {
    p.health_clear += d.digest.health_clear;
    bytes += static_cast<double>(d.digest.run.bytes_sent);
    chunks += static_cast<double>(d.digest.chunks_received);
    verif += static_cast<double>(d.digest.overhead.verification_bytes);
    dissem += static_cast<double>(d.digest.overhead.dissemination_bytes);
    const auto& det = d.digest.detection;
    detected += det.detection * static_cast<double>(det.freeriders);
    freeriders += static_cast<double>(det.freeriders);
    flagged += det.false_positive * static_cast<double>(det.honest);
    honest += static_cast<double>(det.honest);
  }
  p.health_clear = ratio(p.health_clear, static_cast<double>(ds.size()));
  p.bytes_per_chunk = ratio(bytes, chunks);
  p.verification_overhead = ratio(verif, dissem);
  p.detection = ratio(detected, freeriders);
  p.false_positive = ratio(flagged, honest);
  return p;
}

/// Flags `d` when its digest differs from the reference repetition's.
void check_same(Deployment& d, const Digest& reference, const char* what) {
  if (!(d.digest == reference)) {
    d.fail(std::string("deterministic outputs differ from ") + what +
           " (events " + std::to_string(d.digest.run.events) + " vs " +
           std::to_string(reference.run.events) + ")");
  }
}

void emit_outcomes(Report& r, const Pooled& p) {
  r.metric("health_clear", p.health_clear, "fraction");
  r.metric("bytes_per_chunk", p.bytes_per_chunk, "B");
}

struct Layer {
  const char* name;
  std::size_t first;
  std::size_t last;  ///< inclusive Message variant index range
  bool per_kind;     ///< also report handle_ns / msgs per kind
};
constexpr Layer kLayers[] = {
    {"gossip", 0, 3, true},
    {"lifting.verifier", 4, 5, true},
    {"lifting.managers", 6, 11, true},
    {"lifting.auditor", 12, 16, true},
    {"membership", 17, 17, false},
};
constexpr std::size_t kBlameKind = 6;
static_assert(std::is_same_v<std::variant_alternative_t<kBlameKind, gossip::Message>,
                             gossip::BlameMsg>);
static_assert(std::is_same_v<std::variant_alternative_t<17, gossip::Message>,
                             gossip::RpsShuffleMsg>);

double run_seconds(const std::vector<Deployment>& ds) {
  double total = 0;
  for (const auto& d : ds) total += d.run_s;
  return total;
}

/// Per-layer metrics of one traced workload. T are the traced (sliced,
/// spanned) deployments; `untraced_s` and `armed_s` are the run times of
/// the same work untraced and with the flight recorder armed.
void emit_layers(Report& r, const LayerTrace& spans, const QueueSamples& queue,
                 const std::vector<Deployment>& T, double untraced_s,
                 double armed_s, double alloc_events, double alloc_calls,
                 double alloc_bytes, double runner_busy,
                 double parallel_efficiency) {
  const double traced_s = run_seconds(T);
  double events = 0, setup_allocs = 0;
  obs::Registry sum;
  std::uint64_t switches = 0, probes = 0;
  for (const auto& d : T) {
    events += static_cast<double>(d.events);
    setup_allocs += static_cast<double>(d.setup_allocs);
    for (const auto& e : d.counters.entries()) sum.counter(e.name) += e.counter;
    switches += d.adversary.behavior_switches;
    probes += d.adversary.probes;
  }
  const auto c = [&sum](std::string_view name) {
    return static_cast<double>(counter(sum, name));
  };
  const double delivered =
      c("net.datagrams_delivered") + c("net.reliable_delivered");
  const double traced_ns = traced_s * 1e9;

  double spanned_ns = 0;
  for (const auto& layer : kLayers) {
    double layer_ns = 0;
    for (std::size_t k = layer.first; k <= layer.last; ++k) {
      const auto& ks = spans.kind(k);
      const std::string kind = gossip::message_kind_name(k);
      layer_ns += static_cast<double>(ks.ns);
      if (!layer.per_kind) continue;
      r.metric(std::string(layer.name) + ".handle_ns." + kind,
               ratio(static_cast<double>(ks.ns), static_cast<double>(ks.count)),
               "ns");
      r.metric(std::string(layer.name) + ".handle_ns_p99." + kind,
               static_cast<double>(ks.hist.quantile(0.99, ks.count)), "ns");
      r.metric(std::string(layer.name) + ".msgs." + kind,
               static_cast<double>(ks.count), "count");
    }
    spanned_ns += layer_ns;
    r.metric(std::string(layer.name) + ".busy_share", ratio(layer_ns, traced_ns),
             "fraction");
  }
  r.metric("lifting.managers.blame_share_of_msgs",
           ratio(static_cast<double>(spans.kind(kBlameKind).count),
                 static_cast<double>(spans.spanned())),
           "fraction");
  r.metric("gossip.useful_serve_share",
           ratio(c("engine.chunks_received"),
                 c("engine.chunks_received") + c("engine.duplicate_serves")),
           "fraction");
  const Pooled p = pool(T);
  r.metric("lifting.verification_overhead", p.verification_overhead, "ratio");
  r.metric("lifting.detection", p.detection, "fraction");
  r.metric("lifting.false_positive", p.false_positive, "fraction");

  r.metric("audit_channel.retries", c("audit_channel.retries"), "count");
  r.metric("audit_channel.give_ups", c("audit_channel.give_ups"), "count");
  r.metric("audit_channel.dups_suppressed", c("audit_channel.dups_suppressed"),
           "count");
  r.metric("faults.dropped",
           c("faults.dropped_burst") + c("faults.dropped_partition"), "count");
  r.metric("faults.duplicated", c("faults.duplicated"), "count");
  r.metric("faults.delayed", c("faults.delayed") + c("faults.reordered"),
           "count");
  r.metric("adversary.behavior_switches", static_cast<double>(switches),
           "count");
  r.metric("adversary.probes", static_cast<double>(probes), "count");
  r.metric("churn.joins", c("churn.joins"), "count");
  r.metric("churn.departures", c("churn.departures"), "count");
  r.metric("churn.rejoins", c("churn.rejoins"), "count");
  r.metric("handoffs.executed", c("handoffs.executed"), "count");
  r.metric("expulsions.applied", c("expulsions.applied"), "count");

  const double unattributed_ns = traced_ns - spanned_ns;
  r.metric("sim.unattributed_share", ratio(unattributed_ns, traced_ns),
           "fraction");
  r.metric("sim.unattributed_ns_per_event", ratio(unattributed_ns, events),
           "ns");
  r.metric("sim.events", events, "count");
  const double sent = c("net.datagrams_sent");
  r.metric("sim.network.datagrams_sent", sent, "count");
  r.metric("sim.network.delivered_share",
           ratio(c("net.datagrams_delivered"), sent), "fraction");
  r.metric("sim.network.queue_drop_share",
           ratio(c("net.datagrams_dropped"), sent), "fraction");
  r.metric("sim.network.no_route", c("net.no_route"), "count");
  r.metric("sim.queue.pending_p50", median(queue.pending), "count");
  r.metric("sim.queue.pending_max",
           queue.pending.empty()
               ? 0.0
               : *std::max_element(queue.pending.begin(), queue.pending.end()),
           "count");
  r.metric("sim.network.in_flight_max",
           static_cast<double>(queue.in_flight_max), "count");

  r.metric("alloc.steady_calls_per_kevent", ratio(alloc_calls, alloc_events / 1e3),
           "count");
  r.metric("alloc.steady_bytes_per_kevent", ratio(alloc_bytes, alloc_events / 1e3),
           "B");
  r.metric("runtime.runner.busy_share", runner_busy, "fraction");
  r.metric("runtime.runner.parallel_efficiency", parallel_efficiency,
           "fraction");
  r.metric("runtime.setup_allocs",
           ratio(setup_allocs, static_cast<double>(T.size())), "count");
  r.metric("trace.overhead", ratio(traced_s, untraced_s) - 1.0, "ratio");
  r.metric("trace.coverage",
           ratio(static_cast<double>(spans.spanned()), delivered), "fraction");
  r.metric("obs.recorder_share", ratio(armed_s, untraced_s) - 1.0, "ratio");
}

// ------------------------------------------------------------ workload runs

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

int stream_workload(const Options& o, bool lifting_on) {
  Report r;
  const auto cfg = stream_config(lifting_on, o.seed);
  const std::string label = o.workload;
  if (!o.trace) {
    // Construction takes milliseconds against a run of seconds, so set-up
    // is also sampled on its own, spread over the run.
    std::vector<double> setup;
    std::vector<Deployment> reps;
    const auto start = Clock::now();
    double last_s = 0.0;
    while (reps.size() < 2 || since(start) + last_s <= o.seconds) {
      const auto t0 = Clock::now();
      for (int i = 0; i < kSetupSamplesPerRep; ++i) {
        const auto s0 = Clock::now();
        { const Experiment ex(cfg); }
        setup.push_back(since(s0));
      }
      reps.push_back(fresh_deployment(cfg, {}, nullptr));
      last_s = since(t0);
      const auto& d = reps.back();
      if (reps.size() > 1) check_same(reps.back(), reps.front().digest, "rep 0");
      r.record(label + " rep " + std::to_string(reps.size() - 1), d.error);
      std::fprintf(stderr,
                   "[%s] rep %zu: setup %.4f s, run %.3f s (cpu %.3f s), %llu events\n",
                   label.c_str(), reps.size() - 1, d.setup_s, d.run_s, d.run_cpu_s,
                   static_cast<unsigned long long>(d.events));
    }
    std::vector<double> rate, scen;
    for (const auto& d : reps) {
      rate.push_back(static_cast<double>(d.events) / d.run_s);
      scen.push_back(1.0 / d.total_s());
      setup.push_back(d.setup_s);
    }
    r.metric("events_per_s", median(rate), "1/s");
    r.metric("scenarios_per_s", median(scen), "1/s");
    r.metric("setup_s", median(setup), "s");
    emit_outcomes(r, pool({reps.front()}));
    // Later repetitions reuse blocks the first one cached, so only the
    // first one's heap peak is the same from run to run.
    r.metric("heap_bytes_per_node",
             static_cast<double>(reps.front().heap_high_water) /
                 reps.front().nodes,
             "B");
    return r.print();
  }

  // Traced pass: untraced (with the allocator window over the second half
  // of the horizon), spanned + sliced, recorder-armed, and untraced again;
  // the two untraced runs bracket the others against drift.
  const double horizon = to_seconds(cfg.duration);
  std::vector<Deployment> U{
      fresh_deployment(cfg, {.alloc_window_from = horizon / 2}, nullptr)};
  r.record(label + " untraced", U[0].error);
  LayerTrace spans;
  QueueSamples queue;
  std::vector<Deployment> T{fresh_deployment(cfg, {.spans = &spans}, &queue)};
  check_same(T[0], U[0].digest, "the untraced run");
  r.record(label + " traced", T[0].error);
  std::vector<Deployment> A{fresh_deployment(cfg, {.recorder = true}, nullptr)};
  check_same(A[0], U[0].digest, "the untraced run (recorder armed)");
  r.record(label + " recorder", A[0].error);
  U.push_back(fresh_deployment(cfg, {}, nullptr));
  check_same(U[1], U[0].digest, "the first untraced run");
  r.record(label + " untraced", U[1].error);
  emit_layers(r, spans, queue, T, run_seconds(U) / 2, run_seconds(A),
              static_cast<double>(U[0].window_events),
              static_cast<double>(U[0].window_allocs),
              static_cast<double>(U[0].window_alloc_bytes),
              /*runner_busy=*/0.0, /*parallel_efficiency=*/0.0);
  return r.print();
}

int sweep_workload(const Options& o) {
  Report r;
  const auto specs = sweep_specs(o.seed);
  runtime::ParallelRunner serial(1);
  runtime::ParallelRunner runner(kSweepThreads);
  const auto record_batch = [&](Batch& b, const Batch* reference,
                                const char* what) {
    double setup_s = 0, run_s = 0, events = 0;
    for (const auto& d : b.tasks) {
      setup_s += d.setup_s;
      run_s += d.run_s;
      events += static_cast<double>(d.events);
    }
    std::fprintf(stderr,
                 "[sweep_mixed] %zu tasks on %u thread(s): wall %.3f s, "
                 "setup %.4f s, run %.3f s, %.0f events\n",
                 b.tasks.size(), b.threads, b.wall_s, setup_s, run_s, events);
    for (std::size_t i = 0; i < b.tasks.size(); ++i) {
      if (reference != nullptr) {
        check_same(b.tasks[i], reference->tasks[i].digest, what);
      }
      r.record("sweep_mixed " + specs[i].label, b.tasks[i].error);
    }
  };

  if (!o.trace) {
    // Timed batches run on one thread: at two, host noise on either lane
    // widened the run-to-run spread past the bound. An untimed first serial
    // batch is the reference every other digest must equal, and its heap
    // peak is deterministic (one thread, one lane). One untimed 2-thread
    // batch checks that parallel runs equal it.
    Batch reference = run_batch(serial, specs, {}, nullptr);
    record_batch(reference, nullptr, "");
    Batch parallel = run_batch(runner, specs, {}, nullptr);
    record_batch(parallel, &reference, "the serial batch");
    std::vector<Batch> batches;
    const auto start = Clock::now();
    while (batches.size() < 2 ||
           since(start) + batches.back().wall_s <= o.seconds) {
      batches.push_back(run_batch(serial, specs, {}, nullptr));
      record_batch(batches.back(), &reference, "the first serial batch");
    }
    std::vector<double> rate, scen, setup;
    std::uint32_t largest = 0;
    for (const auto& s : specs) largest = std::max(largest, s.config.nodes);
    for (const auto& b : batches) {
      double events = 0, run_s = 0, setup_s = 0;
      for (const auto& d : b.tasks) {
        events += static_cast<double>(d.events);
        run_s += d.run_s;
        setup_s += d.setup_s;
      }
      rate.push_back(events / run_s);
      scen.push_back(static_cast<double>(b.tasks.size()) / b.wall_s);
      setup.push_back(setup_s);
    }
    r.metric("events_per_s", median(rate), "1/s");
    r.metric("scenarios_per_s", median(scen), "1/s");
    r.metric("setup_s", median(setup), "s");
    emit_outcomes(r, pool(reference.tasks));
    r.metric("heap_bytes_per_node",
             static_cast<double>(reference.heap_high_water) / largest, "B");
    return r.print();
  }

  // Traced pass. Serial batches: untraced (the reference every other batch
  // must equal), spanned + sliced, recorder-armed, and untraced again to
  // bracket the others against drift. 2-thread batches, the first a
  // warm-up, give the runner's busy share and parallel efficiency.
  Batch S = run_batch(serial, specs, {}, nullptr);
  record_batch(S, nullptr, "");
  Batch P;
  for (int i = 0; i < 2; ++i) {
    P = run_batch(runner, specs, {}, nullptr);
    record_batch(P, &S, "the serial batch");
  }
  LayerTrace spans;
  QueueSamples queue;
  Batch T = run_batch(serial, specs, {.spans = &spans}, &queue);
  record_batch(T, &S, "the serial untraced batch");
  Batch A = run_batch(serial, specs, {.recorder = true}, nullptr);
  record_batch(A, &S, "the serial untraced batch (recorder armed)");
  Batch S2 = run_batch(serial, specs, {}, nullptr);
  record_batch(S2, &S, "the first serial batch");

  double task_wall = 0, run_events = 0, run_allocs = 0, run_bytes = 0;
  for (const auto& d : P.tasks) task_wall += d.wall_s;
  for (const auto& d : T.tasks) {
    run_events += static_cast<double>(d.events);
    run_allocs += static_cast<double>(d.run_allocs);
    run_bytes += static_cast<double>(d.run_alloc_bytes);
  }
  emit_layers(r, spans, queue, T.tasks,
              (run_seconds(S.tasks) + run_seconds(S2.tasks)) / 2,
              run_seconds(A.tasks), run_events, run_allocs, run_bytes,
              ratio(task_wall, P.threads * P.wall_s),
              ratio(S.wall_s, P.threads * P.wall_s));
  return r.print();
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "liftbench: %s\nusage: liftbench --workload "
               "stream_5k|bare_5k|sweep_mixed --seed N --seconds S "
               "--trace 0|1\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value, &end);
      if (!(o.seconds > 0.0 && o.seconds <= 3600.0)) {
        usage("--seconds must be in (0, 3600]");
      }
    } else if (flag == "--trace") {
      const std::string v = value;
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (end == value || *end != '\0')) {
      usage(("malformed value for " + flag).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  if (o.workload == "stream_5k") return stream_workload(o, true);
  if (o.workload == "bare_5k") return stream_workload(o, false);
  if (o.workload == "sweep_mixed") return sweep_workload(o);
  usage(("unknown workload " + o.workload).c_str());
}
