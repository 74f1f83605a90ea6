/// perfbench — the measuring program behind `perfbench/run.py`.
///
///   perfbench train --store DIR
///       Train the V100 model set with the trainer's defaults (the same
///       fit synergy_train performs) and save it to DIR.
///   perfbench run --workload NAME --seed N --seconds S --trace 0|1
///                 --store DIR --scratch DIR [--scale full|tiny] [--perturb]
///       Repeat one workload for S wall seconds and print, as the last line
///       of standard output, one JSON object with every repetition's timings
///       and result digests plus the metrics of the requested mode.
///
/// Everything here calls the public API of the cluster, core, simsycl and
/// workloads libraries. Per-layer timings (--trace 1) come from wrappers
/// around public seams: a forwarding scheduling_policy, a wrapping plan_fn,
/// plan_service::cache_stats() deltas, the checkpoint read/restore/serialize
/// calls, and a suite kernel launched on a plain simsycl::queue.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "simsycl/sycl.hpp"
#include "synergy/cluster/checkpoint.hpp"
#include "synergy/cluster/job_trace.hpp"
#include "synergy/cluster/policy.hpp"
#include "synergy/cluster/simulator.hpp"
#include "synergy/common/rng.hpp"
#include "synergy/context.hpp"
#include "synergy/gpusim/device_spec.hpp"
#include "synergy/model_store.hpp"
#include "synergy/obs/energy_ledger.hpp"
#include "synergy/plan_service.hpp"
#include "synergy/queue.hpp"
#include "synergy/telemetry/metrics_registry.hpp"
#include "synergy/telemetry/trace.hpp"
#include "synergy/trainer.hpp"
#include "synergy/workloads/benchmark.hpp"
#include "synergy/workloads/kernels.hpp"

namespace {

namespace fs = std::filesystem;
namespace sc = synergy::cluster;
namespace sw = synergy::workloads;
using clk = std::chrono::steady_clock;

constexpr const char* device_name = "V100";

double since(clk::time_point t0) {
  return std::chrono::duration<double>(clk::now() - t0).count();
}

// ------------------------------------------------------------ statistics ---

template <typename T>
double median(std::vector<T> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (double(v[n / 2 - 1]) + double(v[n / 2]));
}

/// Nearest-rank quantile: the smallest sample with at least q of the
/// samples at or below it.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// --------------------------------------------------------------- digests ---

/// FNV-1a over a byte stream; stable across platforms and builds.
class digest {
 public:
  digest& add(std::string_view s) {
    for (const unsigned char c : s) h_ = (h_ ^ c) * 0x100000001b3ULL;
    return *this;
  }
  digest& add(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    return add(hex(bits));
  }
  digest& add(std::uint64_t u) { return add(hex(u)); }
  [[nodiscard]] std::string str() const { return hex(h_); }

 private:
  static std::string hex(std::uint64_t u) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(u));
    return buf;
  }
  std::uint64_t h_{0xcbf29ce484222325ULL};
};

/// "<summary-csv digest>:<per-job digest>". Every double enters as its bit
/// pattern, so any change in any job's outcome shows. `perturb` flips the
/// lowest bit of the first job's energy: the self-test's proof that the gate
/// fires.
std::string replay_digest(const sc::run_summary& summary,
                          const std::vector<sc::job_result>& results, bool perturb) {
  std::ostringstream csv;
  summary.csv(csv);
  digest jobs;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    double energy = r.gpu_energy_j;
    if (perturb && i == 0) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &energy, sizeof bits);
      bits ^= 1;
      std::memcpy(&energy, &bits, sizeof bits);
    }
    jobs.add(static_cast<std::uint64_t>(r.id)).add(r.kernel).add(r.target);
    jobs.add(static_cast<std::uint64_t>(r.state)).add(static_cast<std::uint64_t>(r.n_gpus));
    jobs.add(r.submit_s).add(r.start_s).add(r.end_s).add(r.queue_wait_s).add(energy);
    jobs.add(r.core_mhz).add(static_cast<std::uint64_t>(r.requeues)).add(r.failure_reason);
    jobs.add(static_cast<std::uint64_t>((r.demoted ? 1 : 0) | (r.clock_set_failed ? 2 : 0) |
                                        (r.energy_degraded ? 4 : 0)));
  }
  return digest{}.add(csv.str()).str() + ":" + jobs.str();
}

/// The process-global singletons a run writes into (ledger, metrics
/// registry, trace ring) — cleared before every repetition so repetitions
/// cannot see each other's state.
void reset_process_state() {
  synergy::obs::energy_ledger::instance().reset();
  synergy::telemetry::metrics_registry::instance().reset_values();
  synergy::telemetry::trace_recorder::instance().clear();
}

// ----------------------------------------------------------------- sizes ---

struct sizes {
  std::size_t backfill_jobs;
  std::size_t governed_jobs;
  std::size_t chaos_jobs;
  double checkpoint_interval_s;
  std::size_t restore_samples;   ///< artefacts restored per repetition
  std::size_t pair_recurrences;  ///< submissions per (kernel, target) pair
  std::size_t plain_launches;    ///< plain simsycl launches per traced repetition
};

sizes sizes_for(const std::string& scale) {
  if (scale == "full") return {3000, 4000, 4000, 100.0, 8, 10, 400};
  if (scale == "tiny") return {200, 200, 200, 100.0, 2, 2, 20};
  throw std::invalid_argument("unknown --scale " + scale);
}

// -------------------------------------------------------- layer tracing ---

/// Per-repetition counters filled by the traced wrappers. The per-call
/// samples are floats: a congested backfill replay makes millions of calls.
struct layer_stats {
  std::vector<float> place_ns;
  std::size_t place_calls{0};
  std::size_t placements{0};
  double place_s{0.0};          ///< inclusive of plan calls made inside place()
  double plan_in_place_s{0.0};  ///< the plan time nested in place()
  std::vector<float> plan_hit_ns;
  std::vector<float> plan_miss_ns;
  double plan_s{0.0};
  // Medians of the sample vectors, taken when the repetition ends and the
  // vectors are released.
  double place_ns_p50{0.0};
  double plan_hit_ns_p50{0.0};
  double plan_miss_ns_p50{0.0};
  std::size_t plan_hits{0};
  std::size_t plan_misses{0};

  void summarize() {
    place_ns_p50 = median(std::move(place_ns));
    plan_hit_ns_p50 = median(plan_hit_ns);
    plan_miss_ns_p50 = median(plan_miss_ns);
    plan_hits = plan_hit_ns.size();
    plan_misses = plan_miss_ns.size();
    place_ns = {};
    plan_hit_ns = {};
    plan_miss_ns = {};
  }
};

/// Forwarding policy carried by every replay repetition. It stamps the wall
/// clock at the first place() call of each simulated instant, the start of
/// the scheduling pass run there (passes at one instant merge); on traced
/// repetitions (`traced` non-null) it also times every place() call.
class observed_policy final : public sc::scheduling_policy {
 public:
  observed_policy(std::unique_ptr<sc::scheduling_policy> inner,
                  std::vector<clk::time_point>& pass_starts, layer_stats* traced)
      : inner_(std::move(inner)), pass_starts_(pass_starts), traced_(traced) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] bool backfills() const override { return inner_->backfills(); }
  [[nodiscard]] bool defer(const sc::queued_job& job,
                           const sc::cluster_view& view) const override {
    return inner_->defer(job, view);
  }

  [[nodiscard]] std::optional<sc::placement> place(const sc::queued_job& job,
                                                   const sc::cluster_view& view) override {
    if (view.now != pass_now_) {
      pass_now_ = view.now;
      pass_starts_.push_back(clk::now());
    }
    if (!traced_) return inner_->place(job, view);
    const double plan_before = traced_->plan_s;
    const auto t0 = clk::now();
    auto verdict = inner_->place(job, view);
    const auto t1 = clk::now();
    const double dt = std::chrono::duration<double>(t1 - t0).count();
    traced_->place_ns.push_back(static_cast<float>(dt * 1e9));
    traced_->place_s += dt;
    traced_->plan_in_place_s += traced_->plan_s - plan_before;
    ++traced_->place_calls;
    if (verdict) ++traced_->placements;
    return verdict;
  }

 private:
  std::unique_ptr<sc::scheduling_policy> inner_;
  std::vector<clk::time_point>& pass_starts_;
  double pass_now_{-std::numeric_limits<double>::infinity()};
  layer_stats* traced_;
};

/// Wrapping plan_fn: times each resolution and classes it as a hit or a
/// miss by the plan service's cache_stats() delta around it. Without a
/// service (the compiled-table planner) nothing can miss.
sc::plan_fn timed_plan(sc::plan_fn inner, std::shared_ptr<synergy::plan_service> service,
                       layer_stats& stats) {
  return [inner = std::move(inner), service = std::move(service), &stats](
             const std::string& kernel, const synergy::metrics::target& target) {
    const std::size_t misses_before = service ? service->cache_stats().misses : 0;
    const auto t0 = clk::now();
    auto planned = inner(kernel, target);
    const double dt = since(t0);
    stats.plan_s += dt;
    const bool miss = service && service->cache_stats().misses != misses_before;
    (miss ? stats.plan_miss_ns : stats.plan_hit_ns).push_back(static_cast<float>(dt * 1e9));
    return planned;
  };
}

// ------------------------------------------------------------ repetitions ---

enum class mode { untraced, traced, bare };

const char* to_string(mode m) {
  switch (m) {
    case mode::untraced: return "untraced";
    case mode::traced: return "traced";
    case mode::bare: return "bare";
  }
  return "?";
}

/// One repetition's measurements. Replay and library workloads fill
/// different parts; unused vectors stay empty.
struct rep {
  mode m{mode::untraced};
  double setup_s{0.0};
  double timed_s{0.0};  ///< simulator::run, or the whole submission loop
  std::size_t ops{0};   ///< trace jobs, or submissions
  std::size_t failed_ops{0};
  std::string digest;
  std::string resume_digest;  ///< chaos: the resumed middle artefact
  double sim_energy_j{0.0};
  double sim_makespan_s{0.0};
  sc::run_summary summary;
  layer_stats layers;
  // chaos checkpoint artefacts
  std::size_t artefacts{0};
  std::vector<double> artefact_bytes;
  std::vector<double> read_ms, restore_ms, serialize_ms;
  // library submission path
  std::vector<double> submit_us;  ///< library: per submission; replays: per pass, see pass_costs
  std::vector<double> miss_submit_us;  ///< a plan-service miss during the call
  std::vector<double> vec_add_hit_us;  ///< hit submissions of the plain-launch kernel
  std::vector<double> plain_launch_us;
  std::size_t plan_calls{0}, plan_misses{0};
  std::vector<double> probe_hit_ns, probe_miss_ns;
};

struct run_args {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{10.0};
  bool trace{false};
  fs::path store;
  fs::path scratch;
  sizes sz{sizes_for("full")};
  bool perturb{false};
};

// ---------------------------------------------------------------- replays ---

/// Everything a replay repetition builds before its timed call.
struct replay_env {
  sc::job_trace trace;
  sc::cluster_config cfg;
  std::string policy;
  sc::plan_fn plan;
  std::shared_ptr<synergy::plan_service> service;
};

replay_env setup_replay(const run_args& a) {
  replay_env env;
  sc::trace_config gen;
  gen.seed = a.seed;
  if (a.workload == "replay_backfill_congested") {
    gen.n_jobs = a.sz.backfill_jobs;
    gen.mean_interarrival_s = 0.5;
    env.trace = sc::generate_trace(gen);
    env.policy = "backfill";
  } else if (a.workload == "replay_governed_drift") {
    gen.n_jobs = a.sz.governed_jobs;
    gen.mean_interarrival_s = 2.0;
    gen.target_mix = {"MIN_EDP", "ES_25", "ES_50", "PL_25", "PL_50"};
    env.trace = sc::generate_trace(gen);
    env.policy = "energy";
    auto spec = synergy::governor::parse_governor_spec("hybrid");
    env.cfg.governor.enabled = true;
    env.cfg.governor.spec = std::move(spec).value();
    env.cfg.governor.tick_interval_s = 0.25;
    env.cfg.drift.at_s = env.trace.jobs[env.trace.jobs.size() / 2].submit_s;
    env.cfg.drift.power_skew = 1.3;
    env.cfg.drift.freq_exponent = 1.5;
    auto guarded = sc::make_guarded_suite_planner(device_name, a.store);
    if (!guarded.model_loaded)
      throw std::runtime_error("model store unusable:\n" + guarded.load_summary);
    env.plan = std::move(guarded.plan);
    env.service = guarded.service;
  } else if (a.workload == "replay_chaos_checkpoint") {
    gen.n_jobs = a.sz.chaos_jobs;
    env.trace = sc::generate_trace(gen);
    env.policy = "energy";
    env.cfg.faults.seed = a.seed ^ 0xfa0175eedULL;
    env.cfg.faults.clock_set_fail_rate = 0.05;
    env.cfg.faults.device_lost_rate = 0.005;
    env.cfg.faults.max_node_losses = 2;
    env.cfg.chaos.seed = a.seed ^ 0xc4a05c4a05ULL;
    env.cfg.chaos.mtbf_s = 300.0;
    env.cfg.chaos.restart_delay_s = 120.0;
    env.cfg.chaos.max_crashes = 8;
    env.plan = sc::make_suite_planner(device_name);
  } else {
    throw std::invalid_argument("unknown workload " + a.workload);
  }
  return env;
}

sc::checkpoint_options checkpoint_opts(const run_args& a, const fs::path& dir) {
  sc::checkpoint_options opts;
  opts.interval_s = a.sz.checkpoint_interval_s;
  opts.dir = dir;
  fs::create_directories(dir);
  return opts;
}

std::unique_ptr<sc::simulator> make_simulator(const replay_env& env, mode m, layer_stats& stats,
                                              std::vector<clk::time_point>& pass_starts) {
  const bool traced = m == mode::traced;
  auto policy = std::make_unique<observed_policy>(
      sc::make_policy(env.policy, traced ? timed_plan(env.plan, env.service, stats) : env.plan),
      pass_starts, traced ? &stats : nullptr);
  return std::make_unique<sc::simulator>(env.cfg, std::move(policy));
}

/// A replay's per-pass wall cost: the wall time from each scheduling pass
/// start back to the previous one (the pass plus the events handled since),
/// the first from the start of simulator::run.
std::vector<double> pass_costs(clk::time_point start,
                               const std::vector<clk::time_point>& pass_starts) {
  std::vector<double> out;
  out.reserve(pass_starts.size());
  for (const auto t : pass_starts) {
    out.push_back(std::chrono::duration<double>(t - start).count() * 1e6);
    start = t;
  }
  return out;
}

/// Read + restore every k-th artefact into a fresh simulator, then resume
/// the middle artefact to completion for the byte-identity check.
void restore_artefacts(const run_args& a, const replay_env& env, const fs::path& rep_dir,
                       rep& r) {
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(rep_dir / "ckpt"))
    if (e.is_regular_file() && e.path().extension() == ".synergy") files.push_back(e.path());
  std::sort(files.begin(), files.end());
  r.artefacts = files.size();
  if (files.empty()) throw std::runtime_error("checkpointed replay wrote no artefacts");
  for (const auto& f : files) r.artefact_bytes.push_back(static_cast<double>(fs::file_size(f)));

  const std::size_t stride = std::max<std::size_t>(1, files.size() / a.sz.restore_samples);
  layer_stats unused_stats;
  std::vector<clk::time_point> unused_stamps;
  for (std::size_t i = stride / 2; i < files.size(); i += stride) {
    auto sim = make_simulator(env, mode::untraced, unused_stats, unused_stamps);
    sim->set_checkpointing(checkpoint_opts(a, rep_dir / "restore"));
    const auto t0 = clk::now();
    const auto payload = sc::read_checkpoint_payload(files[i]);
    const double read_s = since(t0);
    if (!payload.has_value()) {
      ++r.failed_ops;
      continue;
    }
    const auto t1 = clk::now();
    const auto st = sim->restore_checkpoint(payload.value(), env.trace);
    const double restore_s = since(t1);
    if (!st.ok()) {
      ++r.failed_ops;
      continue;
    }
    r.read_ms.push_back(read_s * 1e3);
    r.restore_ms.push_back(restore_s * 1e3);
    if (r.m == mode::traced) {
      const auto t2 = clk::now();
      const auto bytes = sim->serialize_checkpoint();
      r.serialize_ms.push_back(since(t2) * 1e3);
      if (bytes.empty()) ++r.failed_ops;
    }
  }

  auto sim = make_simulator(env, mode::untraced, unused_stats, unused_stamps);
  sim->set_checkpointing(checkpoint_opts(a, rep_dir / "resume"));
  const auto payload = sc::read_checkpoint_payload(files[files.size() / 2]);
  if (!payload.has_value() || !sim->restore_checkpoint(payload.value(), env.trace).ok()) {
    ++r.failed_ops;
    r.resume_digest = "restore-failed";
    return;
  }
  const auto summary = sim->resume(env.trace);
  r.resume_digest = replay_digest(summary, sim->results(), false);
}

rep run_replay_rep(const run_args& a, mode m, std::size_t index) {
  rep r;
  r.m = m;
  reset_process_state();
  const fs::path rep_dir = a.scratch / ("rep" + std::to_string(index));
  const bool checkpoints = a.workload == "replay_chaos_checkpoint" && m != mode::bare;

  const auto t0 = clk::now();
  replay_env env = setup_replay(a);
  std::vector<clk::time_point> pass_starts;
  auto sim = make_simulator(env, m, r.layers, pass_starts);
  if (checkpoints) sim->set_checkpointing(checkpoint_opts(a, rep_dir / "ckpt"));
  pass_starts.reserve(env.trace.jobs.size() * 3);
  r.setup_s = since(t0);

  const auto t1 = clk::now();
  r.summary = sim->run(env.trace);
  r.timed_s = since(t1);
  r.submit_us = pass_costs(t1, pass_starts);

  r.layers.summarize();
  r.ops = env.trace.jobs.size();
  r.failed_ops = r.summary.failed;
  r.digest = replay_digest(r.summary, sim->results(), a.perturb && index == 1);
  r.sim_energy_j = r.summary.total_gpu_energy_j;
  r.sim_makespan_s = r.summary.makespan_s;
  if (checkpoints) {
    sim.reset();
    restore_artefacts(a, env, rep_dir, r);
  }
  fs::remove_all(rep_dir);
  return r;
}

// ---------------------------------------------------------------- library ---

/// The queue's target mix: MIN_EDP plus two energy-saving and two
/// performance-loss goals whose percentages the seed draws.
std::vector<synergy::metrics::target> library_targets(std::uint64_t seed) {
  synergy::common::pcg32 rng{seed ^ 0x11b4a7ULL};
  auto pct = [&] { return std::to_string(10 + static_cast<int>(rng.uniform() * 41.0)); };
  std::vector<synergy::metrics::target> out;
  for (const auto* name : {"MIN_EDP", "ES_", "ES_", "PL_", "PL_"}) {
    std::string t = name;
    if (t.back() == '_') t += pct();
    out.push_back(synergy::metrics::target::parse(t));
  }
  return out;
}

/// vec_add exactly as the suite's runner launches it (same data, buffers
/// and annotation), but on a plain simsycl::queue: no planner, no clocks.
double plain_vec_add_us(simsycl::queue& q) {
  const auto& b = sw::find("vec_add");
  const std::size_t n = b.real_items;
  const auto t0 = clk::now();
  auto data = [n](std::uint64_t seed) {
    synergy::common::pcg32 rng{seed};
    std::vector<float> v(n);
    for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
    return v;
  };
  auto xh = data(1);
  auto yh = data(2);
  std::vector<float> zh(n, 0.0f);
  simsycl::buffer<float> x{xh}, y{yh}, z{zh};
  auto e = q.submit([&](simsycl::handler& h) {
    simsycl::accessor<float, 1, simsycl::access_mode::read> xa{x, h};
    simsycl::accessor<float, 1, simsycl::access_mode::read> ya{y, h};
    simsycl::accessor<float, 1, simsycl::access_mode::write> za{z, h};
    h.parallel_for(simsycl::range<1>{n}, b.info,
                   [=](simsycl::id<1> i) { sw::vec_add_body::item(i, xa, ya, za); });
  });
  e.wait();
  return since(t0) * 1e6;
}

rep run_library_rep(const run_args& a, mode m, std::size_t index) {
  rep r;
  r.m = m;
  reset_process_state();
  const auto& suite = sw::suite();
  const auto targets = library_targets(a.seed);

  // Submission order: one seeded permutation of every (kernel, target)
  // pair, repeated pair_recurrences times.
  std::vector<std::pair<std::size_t, std::size_t>> order;
  for (std::size_t t = 0; t < targets.size(); ++t)
    for (std::size_t k = 0; k < suite.size(); ++k) order.emplace_back(k, t);
  synergy::common::pcg32 rng{a.seed};
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[static_cast<std::size_t>(rng.uniform() * static_cast<double>(i))]);

  const auto t0 = clk::now();
  simsycl::device dev{synergy::gpusim::make_device_spec(device_name)};
  auto ctx = std::make_shared<synergy::context>(std::vector<simsycl::device>{dev});
  auto guarded = sc::make_guarded_suite_planner(device_name, a.store);
  if (!guarded.model_loaded)
    throw std::runtime_error("model store unusable:\n" + guarded.load_summary);
  synergy::queue q{dev, ctx};
  q.set_plan_service(guarded.service);
  r.setup_s = since(t0);

  const auto& service = *guarded.service;
  const double sim_start = dev.board()->now().value;
  const auto stats_before = service.cache_stats();
  digest energy;
  const bool traced = m == mode::traced;
  const auto t1 = clk::now();
  for (std::size_t c = 0; c < a.sz.pair_recurrences; ++c) {
    for (const auto& [k, t] : order) {
      const auto& bench = suite[k];
      q.set_target(targets[t]);
      const std::size_t misses_before = traced ? service.cache_stats().misses : 0;
      const auto s0 = clk::now();
      auto e = bench.run(q);
      e.wait();
      const double us = since(s0) * 1e6;
      r.submit_us.push_back(us);
      if (traced) {
        if (service.cache_stats().misses != misses_before) {
          r.miss_submit_us.push_back(us);
        } else if (bench.name == "vec_add") {
          r.vec_add_hit_us.push_back(us);
        }
      }
      const auto& rec = e.record();
      r.sim_energy_j += rec.cost.energy.value;
      energy.add(bench.name).add(rec.cost.energy.value).add(rec.cost.time.value);
      energy.add(rec.config.core.value);
    }
  }
  r.timed_s = since(t1);
  const auto stats_after = service.cache_stats();
  r.plan_calls = (stats_after.hits + stats_after.misses) - (stats_before.hits + stats_before.misses);
  r.plan_misses = stats_after.misses - stats_before.misses;
  r.ops = r.submit_us.size();
  r.sim_makespan_s = dev.board()->now().value - sim_start;
  if (a.perturb && index == 1) energy.add("perturbed");
  r.digest = energy.str();

  if (traced) {
    // The same kernel on a plain simsycl::queue over a fresh board.
    simsycl::device plain_dev{synergy::gpusim::make_device_spec(device_name)};
    simsycl::queue plain{plain_dev};
    for (std::size_t i = 0; i < a.sz.plain_launches; ++i)
      r.plain_launch_us.push_back(plain_vec_add_us(plain));
    // Plan-service probe: one cold and one warm resolution per pair on a
    // fresh service over a freshly loaded model set (the submission loop's
    // service has seen drift observations; this one has not).
    auto probe = sc::make_guarded_suite_planner(device_name, a.store);
    for (const auto& [k, t] : order) {
      const auto& features = suite[k].info.features;
      for (auto* sink : {&r.probe_miss_ns, &r.probe_hit_ns}) {
        const auto p0 = clk::now();
        const auto sp = probe.service->plan(suite[k].name, features, targets[t]);
        sink->push_back(since(p0) * 1e9);
        if (sp.decision.config.core.value <= 0.0) ++r.failed_ops;
      }
    }
  }
  return r;
}

// ------------------------------------------------------------------ output ---

class json_object {
 public:
  json_object& num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return raw(key, buf);
  }
  json_object& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  json_object& raw(const std::string& key, const std::string& v) {
    os_ << (first_ ? "" : ", ") << '"' << key << "\": " << v;
    first_ = false;
    return *this;
  }
  [[nodiscard]] std::string str() const { return "{" + os_.str() + "}"; }

 private:
  std::ostringstream os_;
  bool first_{true};
};

template <typename F>
std::vector<double> collect(const std::vector<rep>& reps, mode m, F f) {
  std::vector<double> out;
  for (const auto& r : reps)
    if (r.m == m) out.push_back(f(r));
  return out;
}

template <typename F>
std::vector<double> pool(const std::vector<rep>& reps, mode m, F f) {
  std::vector<double> out;
  for (const auto& r : reps)
    if (r.m == m) {
      const std::vector<double>& v = f(r);
      out.insert(out.end(), v.begin(), v.end());
    }
  return out;
}

void end_to_end_metrics(const run_args& a, const std::vector<rep>& reps, double rss_mb,
                        json_object& out) {
  const auto setup = collect(reps, mode::untraced, [](const rep& r) { return r.setup_s; });
  const auto rate = collect(reps, mode::untraced, [](const rep& r) {
    return static_cast<double>(r.ops) / r.timed_s;
  });
  out.num("setup_s", median(setup));
  // One rate, reported under both names: on replays a submission is a trace
  // job, on library_submit a job is a submission.
  out.num("jobs_per_s", median(rate));
  out.num("submits_per_s", median(rate));
  out.num("peak_rss_mb", rss_mb);
  // Library: latency of each submission. Replays: the wall cost of each
  // scheduling pass, which is where a submitted job is answered. Quantiles are taken within each repetition, then the median across them.
  out.num("submit_p50_us", median(collect(reps, mode::untraced, [](const rep& r) {
            return quantile(r.submit_us, 0.5);
          })));
  out.num("submit_p99_us", median(collect(reps, mode::untraced, [](const rep& r) {
            return quantile(r.submit_us, 0.99);
          })));
  if (a.workload == "replay_chaos_checkpoint") {
    std::vector<double> restore;
    for (const auto& r : reps)
      for (std::size_t i = 0; i < r.restore_ms.size(); ++i)
        restore.push_back(r.read_ms[i] + r.restore_ms[i]);
    out.num("restore_ms", median(restore));
  } else {
    // Without checkpoints a restart rebuilds the workload from its inputs:
    // an alias of setup_s here.
    out.num("restore_ms", median(setup) * 1e3);
  }
  const auto& first = *std::find_if(reps.begin(), reps.end(),
                                    [](const rep& r) { return r.m == mode::untraced; });
  out.num("sim_gpu_energy_mj", first.sim_energy_j / 1e6);
  out.num("sim_makespan_s", first.sim_makespan_s);
}

void per_layer_metrics(const run_args& a, const std::vector<rep>& reps, json_object& out) {
  const auto med = [&](mode m, auto f) { return median(collect(reps, m, f)); };
  const auto traced = mode::traced;
  const bool library = a.workload == "library_submit";

  // cluster.policy / cluster.sim
  out.num("cluster.policy.place_calls_per_job", med(traced, [](const rep& r) {
            return static_cast<double>(r.layers.place_calls) / static_cast<double>(r.ops);
          }));
  out.num("cluster.policy.useful_ratio", med(traced, [](const rep& r) {
            return r.layers.place_calls
                       ? static_cast<double>(r.layers.placements) /
                             static_cast<double>(r.layers.place_calls)
                       : 0.0;
          }));
  out.num("cluster.policy.busy_s", med(traced, [](const rep& r) {
            return r.layers.place_s - r.layers.plan_in_place_s;
          }));
  out.num("cluster.policy.place_ns_p50", med(traced, [](const rep& r) { return r.layers.place_ns_p50; }));
  const auto self_s = [library](const rep& r) {
    if (library) return 0.0;
    return r.timed_s - (r.layers.place_s - r.layers.plan_in_place_s) - r.layers.plan_s;
  };
  const auto events = [](const rep& r) {
    const auto& s = r.summary;
    return static_cast<double>(s.jobs + s.completed + s.requeues + s.governor_ticks +
                               s.node_crashes + s.node_restarts + r.artefacts);
  };
  out.num("cluster.sim.self_s", med(traced, self_s));
  out.num("cluster.sim.events", med(traced, events));
  out.num("cluster.sim.self_ns_per_event", med(traced, [&](const rep& r) {
            const double ev = events(r);
            return ev > 0 ? self_s(r) * 1e9 / ev : 0.0;
          }));

  // core.plan: the plan_fn wrapper on replays, a plan-service probe on the
  // library path (where the queue resolves through the service internally).
  if (library) {
    out.num("core.plan.calls", med(traced, [](const rep& r) { return double(r.plan_calls); }));
    out.num("core.plan.misses", med(traced, [](const rep& r) { return double(r.plan_misses); }));
    out.num("core.plan.hit_ratio", med(traced, [](const rep& r) {
              return r.plan_calls ? 1.0 - double(r.plan_misses) / double(r.plan_calls) : 0.0;
            }));
    out.num("core.plan.hit_ns_p50",
            med(traced, [](const rep& r) { return median(r.probe_hit_ns); }));
    out.num("core.plan.miss_ms_p50",
            med(traced, [](const rep& r) { return median(r.probe_miss_ns) / 1e6; }));
    out.num("core.plan.busy_s", med(traced, [](const rep& r) {
              double s = 0.0;
              for (const double ns : r.probe_miss_ns) s += ns;
              return s / 1e9;
            }));
  } else {
    const auto calls = [](const rep& r) { return double(r.layers.plan_hits + r.layers.plan_misses); };
    out.num("core.plan.calls", med(traced, calls));
    out.num("core.plan.misses", med(traced, [](const rep& r) { return double(r.layers.plan_misses); }));
    out.num("core.plan.hit_ratio", med(traced, [&](const rep& r) {
              const double c = calls(r);
              return c > 0 ? double(r.layers.plan_hits) / c : 0.0;
            }));
    out.num("core.plan.hit_ns_p50", med(traced, [](const rep& r) { return r.layers.plan_hit_ns_p50; }));
    out.num("core.plan.miss_ms_p50",
            med(traced, [](const rep& r) { return r.layers.plan_miss_ns_p50 / 1e6; }));
    out.num("core.plan.busy_s", med(traced, [](const rep& r) { return r.layers.plan_s; }));
  }

  // Counts that show each workload does what it claims.
  out.num("governor.ticks", med(traced, [](const rep& r) { return double(r.summary.governor_ticks); }));
  out.num("governor.clock_changes",
          med(traced, [](const rep& r) { return double(r.summary.governor_clock_changes); }));
  out.num("cluster.fault.requeues", med(traced, [](const rep& r) { return double(r.summary.requeues); }));
  out.num("cluster.chaos.crashes", med(traced, [](const rep& r) { return double(r.summary.node_crashes); }));

  // Checkpoint write/read/restore/serialize.
  const bool chaos = a.workload == "replay_chaos_checkpoint";
  out.num("cluster.checkpoint.artefacts", med(traced, [](const rep& r) { return double(r.artefacts); }));
  out.num("cluster.checkpoint.bytes_mean", med(traced, [](const rep& r) {
            double s = 0.0;
            for (const double b : r.artefact_bytes) s += b;
            return r.artefact_bytes.empty() ? 0.0 : s / double(r.artefact_bytes.size());
          }));
  double write_ms = 0.0;
  if (chaos) {
    // Marginal cost per artefact: checkpointed replay against a bare replay
    // of the same trace, both untraced.
    const double with = med(mode::untraced, [](const rep& r) { return r.timed_s; });
    const double bare = med(mode::bare, [](const rep& r) { return r.timed_s; });
    const double n = med(mode::untraced, [](const rep& r) { return double(r.artefacts); });
    write_ms = n > 0 ? (with - bare) * 1e3 / n : 0.0;
  }
  out.num("cluster.checkpoint.write_ms", write_ms);
  const auto pooled = [&](auto f) {
    std::vector<double> all = pool(reps, mode::untraced, f);
    const auto t = pool(reps, traced, f);
    all.insert(all.end(), t.begin(), t.end());
    return median(all);
  };
  out.num("cluster.checkpoint.read_ms", pooled([](const rep& r) -> const auto& { return r.read_ms; }));
  out.num("cluster.checkpoint.restore_ms",
          pooled([](const rep& r) -> const auto& { return r.restore_ms; }));
  out.num("cluster.checkpoint.serialize_ms",
          median(pool(reps, traced, [](const rep& r) -> const auto& { return r.serialize_ms; })));

  // Single-node submission path.
  const double launch = median(pool(reps, traced, [](const rep& r) -> const auto& { return r.plain_launch_us; }));
  const double vec_add_hit =
      median(pool(reps, traced, [](const rep& r) -> const auto& { return r.vec_add_hit_us; }));
  out.num("simsycl.launch_us_p50", launch);
  out.num("core.queue.overhead_us_p50", vec_add_hit - launch);
  out.num("core.queue.miss_submit_us_p50",
          median(pool(reps, traced, [](const rep& r) -> const auto& { return r.miss_submit_us; })));

  const double untraced_s = med(mode::untraced, [](const rep& r) { return r.timed_s; });
  const double traced_s = med(traced, [](const rep& r) { return r.timed_s; });
  out.num("trace.overhead_share", untraced_s > 0 ? (traced_s - untraced_s) / untraced_s : 0.0);
}

std::string rep_json(const rep& r) {
  json_object o;
  o.str("mode", to_string(r.m)).num("setup_s", r.setup_s).num("timed_s", r.timed_s);
  o.num("ops", double(r.ops)).num("failed_ops", double(r.failed_ops)).str("digest", r.digest);
  if (!r.resume_digest.empty()) o.str("resume_digest", r.resume_digest);
  o.num("restore_samples", double(r.restore_ms.size()));
  return o.str();
}

int run(const run_args& a) {
  const bool library = a.workload == "library_submit";
  std::vector<mode> cycle{mode::untraced};
  if (a.trace) {
    cycle.push_back(mode::traced);
    if (a.workload == "replay_chaos_checkpoint") cycle.push_back(mode::bare);
  }
  // Untraced runs need two repetitions (the cross-repetition check needs a
  // pair), traced runs one full cycle; then repeat until the wall budget is
  // spent.
  const std::size_t min_reps = a.trace ? cycle.size() : 2;
  std::vector<rep> reps;
  // Peak RSS as of the first repetition: what a process running the
  // workload once needs. Later repetitions add only allocator
  // fragmentation, which varies with how many of them a run fits in.
  double rss_mb = 0.0;
  const auto t0 = clk::now();
  while (reps.size() < min_reps || since(t0) < a.seconds) {
    const mode m = cycle[reps.size() % cycle.size()];
    reps.push_back(library ? run_library_rep(a, m, reps.size())
                           : run_replay_rep(a, m, reps.size()));
    if (reps.size() == 1) rss_mb = peak_rss_mb();
  }

  json_object metrics;
  if (a.trace)
    per_layer_metrics(a, reps, metrics);
  else
    end_to_end_metrics(a, reps, rss_mb, metrics);

  std::string rep_list = "[";
  for (std::size_t i = 0; i < reps.size(); ++i)
    rep_list += (i ? ", " : "") + rep_json(reps[i]);
  rep_list += "]";
  json_object out;
  out.str("workload", a.workload).num("seed", double(a.seed)).raw("reps", rep_list);
  out.raw("metrics", metrics.str());
  std::cout << out.str() << std::endl;
  return 0;
}

int train(const fs::path& store_dir) {
  const auto t0 = clk::now();
  synergy::model_trainer trainer{synergy::gpusim::make_device_spec(device_name)};
  const auto models = trainer.train_default();
  synergy::model_store store{store_dir};
  if (const auto st = store.save(device_name, models); !st.ok()) {
    std::cerr << "error: cannot save models: " << st.err().to_string() << '\n';
    return 1;
  }
  std::cout << json_object{}.num("train_s", since(t0)).str() << std::endl;
  return 0;
}

int usage() {
  std::cerr << "usage: perfbench train --store DIR\n"
               "       perfbench run --workload NAME --seed N --seconds S --trace 0|1\n"
               "                     --store DIR --scratch DIR [--scale full|tiny] [--perturb]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::map<std::string, std::string> opt;
  bool perturb = false;
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--perturb") {
      perturb = true;
    } else if (key.rfind("--", 0) == 0 && i + 1 < argc) {
      opt[key.substr(2)] = argv[++i];
    } else {
      return usage();
    }
  }
  const auto need = [&](const std::string& k) {
    const auto it = opt.find(k);
    if (it == opt.end()) throw std::invalid_argument("missing --" + k);
    return it->second;
  };
  try {
    if (cmd == "train") return train(need("store"));
    if (cmd != "run") return usage();
    run_args a;
    a.workload = need("workload");
    a.seed = std::stoull(need("seed"));
    a.seconds = std::stod(need("seconds"));
    a.trace = need("trace") == "1";
    a.store = need("store");
    a.scratch = need("scratch");
    if (opt.count("scale")) a.sz = sizes_for(opt["scale"]);
    a.perturb = perturb;
    return run(a);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
