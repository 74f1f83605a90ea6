#include "synergy/cluster/checkpoint.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "archive.hpp"
#include "synergy/cluster/simulator.hpp"
#include "synergy/common/checksum.hpp"
#include "synergy/common/envelope.hpp"
#include "synergy/common/log.hpp"
#include "synergy/guarded_planner.hpp"
#include "synergy/obs/slo_watchdog.hpp"
#include "synergy/plan_service.hpp"
#include "synergy/telemetry/metrics_registry.hpp"

namespace synergy::cluster {

namespace fs = std::filesystem;
using common::errc;
using common::error;

namespace {

/// Everything a payload carries besides the run_state: the header, the
/// pending events, the inventory and the attached subsystems. Built from the
/// live objects on write; read into a fresh frame on restore and committed
/// only after validation.
struct checkpoint_frame {
  std::uint64_t version{checkpoint_version};
  std::uint32_t fingerprint{0};
  std::uint64_t trace_crc{0};
  engine_state engine;             ///< persisted kinds only
  std::vector<std::size_t> nodes;  ///< node numbers, in controller order
  std::size_t budget_rebalances{0};
  std::size_t budget_demotions{0};
  std::optional<guard_state> guard;
  std::optional<std::vector<cached_plan>> cache;
  obs::ledger_state ledger;
  std::optional<obs::watchdog_state> watchdog;
  std::vector<telemetry::metric_snapshot> metrics;
  std::optional<econ::cost_meter::state> econ;
};

}  // namespace

// The schema: one visit() per persisted struct, walked by both archives.
// The overloads live in the archive namespace, where the archives find
// them by argument-dependent lookup.
namespace archive {

template <> struct enum_range<sched::job_state> {
  static constexpr auto max = sched::job_state::cancelled;
};
template <> struct enum_range<obs::cause> {
  static constexpr auto max = static_cast<obs::cause>(obs::n_causes - 1);
};
template <> struct enum_range<plan_tier> {
  static constexpr auto max = plan_tier::default_clocks;
};
template <> struct enum_range<telemetry::metric_snapshot::kind> {
  static constexpr auto max = telemetry::metric_snapshot::kind::histogram;
};
/// Kinds after econ_tick are process-local and never persisted.
template <> struct enum_range<event_kind> {
  static constexpr auto max = event_kind::econ_tick;
};

template <class Ar> void visit(Ar& ar, common::pcg32_state& s) {
  ar(s.state, s.inc, s.has_spare, s.spare);
}
template <class Ar> void visit(Ar& ar, common::pcg32& rng) {
  auto s = rng.state();
  ar(s);
  if constexpr (Ar::reading) rng.set_state(s);
}
template <class Ar> void visit(Ar& ar, common::megahertz& m) { ar(m.value); }
template <class Ar> void visit(Ar& ar, event& e) { ar(e.t, e.seq, e.kind, e.id); }
template <class Ar> void visit(Ar& ar, engine_state& s) { ar(s.now, s.next_seq, s.pending); }
template <class Ar> void visit(Ar& ar, slot_state& s) { ar(s.busy, s.busy_until); }
template <class Ar> void visit(Ar& ar, gpu_slot& s) { ar(s.node, s.gpu); }
template <class Ar> void visit(Ar& ar, traced_job& j) {
  ar(j.id, j.name, j.submit_s, j.n_gpus, j.kernel, j.work_items, j.iterations, j.target,
     j.deferrable, j.deadline_s);
}
template <class Ar> void visit(Ar& ar, queued_job& q) { ar(q.job, q.est_runtime_s); }
/// The live entries in queue order, written as a plain list; the reader
/// rebuilds the candidate index from them.
template <class Ar> void visit(Ar& ar, job_queue& q) {
  std::vector<queued_job> entries;
  if constexpr (!Ar::reading) entries.assign(q.begin(), q.end());
  ar(entries);
  if constexpr (Ar::reading) q = job_queue{std::move(entries)};
}
template <class Ar> void visit(Ar& ar, job_result& r) {
  ar(r.id, r.name, r.kernel, r.target, r.state, r.n_gpus, r.submit_s, r.start_s, r.end_s,
     r.queue_wait_s, r.gpu_energy_j, r.core_mhz, r.demoted, r.clock_set_failed,
     r.energy_degraded, r.requeues, r.failure_reason);
}
/// Governor fields are absent: governed runs are not checkpointable.
template <class Ar> void visit(Ar& ar, running_job& j) {
  ar(j.id, j.epoch, j.gpus, j.job, j.est, j.start_s, j.duration, j.energy_j, j.avg_power_w,
     j.why, j.node);
}
template <class Ar> void visit(Ar& ar, drift_state& d) {
  ar(d.scale, d.window, d.next, d.window_sum, d.total, d.rejected, d.quarantined, d.reason);
}
template <class Ar> void visit(Ar& ar, guard_state& g) {
  ar(g.generation, g.model_plans, g.table_fallbacks, g.default_fallbacks, g.ood_rejections,
     g.prediction_rejections, g.quarantine_rejections, g.quarantine_probes, g.drift);
}
template <class Ar> void visit(Ar& ar, cached_plan& c) {
  auto& d = c.decision;
  ar(c.kernel, c.target, d.config.memory, d.config.core, d.tier, d.ood, d.clamped, d.probe,
     d.reason);
}
template <class Ar> void visit(Ar& ar, obs::ledger_entry& e) {
  ar(e.key.node, e.key.device, e.key.job, e.key.kernel, e.by_cause, e.total_j);
}
template <class Ar> void visit(Ar& ar, obs::scrape_sample& s) {
  ar(s.t_s, s.by_cause, s.total_j, s.charges);
}
template <class Ar> void visit(Ar& ar, obs::ledger_state& l) {
  ar(l.cells, l.totals, l.total_j, l.charges, l.series);
}
template <class Ar> void visit(Ar& ar, obs::alert& a) {
  ar(a.t_s, a.rule, a.kind_name, a.value, a.threshold, a.detail);
}
template <class Ar> void visit(Ar& ar, obs::watchdog_state& w) {
  ar(w.firing, w.alerts, w.job_energies, w.job_costs, w.job_carbons, w.plans_total,
     w.plans_model, w.quarantine_since, w.breaker_opens_base);
}
template <class Ar> void visit(Ar& ar, telemetry::metric_snapshot& m) {
  using kind = telemetry::metric_snapshot::kind;
  ar(m.type, m.name);
  if (m.type == kind::histogram) {
    ar(m.count, m.sum, m.min, m.max, m.bounds, m.buckets);
    ar.check(m.buckets.size() == m.bounds.size() + 1, "histogram bucket count mismatch");
  } else if (m.type == kind::gauge) {
    ar(m.value);
  } else {
    // Counter totals are integers and travel as such, so a hostile payload
    // cannot hand the registry a NaN or out-of-range count.
    auto n = static_cast<std::uint64_t>(m.value);
    ar(n);
    m.value = static_cast<double>(n);
  }
}
template <class Ar> void visit(Ar& ar, econ::cost_meter::state& s) {
  ar(s.facility_cost_usd, s.facility_carbon_g, s.capex_usd, s.attributed_cost_usd,
     s.attributed_carbon_g, s.cost_by_cause, s.carbon_by_cause, s.jobs_completed);
}
template <class Ar> void visit(Ar& ar, run_state& s) {
  ar.section("clock");
  ar(s.last_integrated_s, s.last_live_t, s.facility_energy_j, s.busy_gpu_seconds,
     s.peak_power_w, s.wasted_energy_j);
  ar.section("counts");
  ar(s.next_epoch, s.clock_set_faults, s.degraded_samples, s.requeues, s.nodes_lost,
     s.node_crashes, s.node_restarts, s.quarantines, s.promotions, s.rollbacks,
     s.governor_ticks, s.governor_clock_changes, s.econ_jobs_deferred, s.econ_price_demotions,
     s.scrape_ticks, s.ckpt_index);
  ar.section("rng");
  ar(s.fault_rng, s.chaos_rng);
  ar.section("slots");
  ar(s.slots);
  ar.section("results");
  ar(s.results);
  ar.section("queue");
  ar(s.queue);
  ar.section("running");
  ar(s.running);
  ar.section("econ_deferred");
  ar(s.econ_deferred_ids);
}
/// The whole payload, top to bottom.
template <class Ar> void visit(Ar& ar, checkpoint_frame& f, run_state& s) {
  ar.section("synergy_ckpt");
  ar(f.version);
  if constexpr (Ar::reading)
    if (f.version != checkpoint_version)
      ar.fail("payload schema version " + std::to_string(f.version) +
              " is not supported (this build reads version " +
              std::to_string(checkpoint_version) + ")");
  ar.section("fingerprint");
  ar(f.fingerprint);
  ar.section("trace");
  ar(f.trace_crc);
  ar.section("events");
  ar(f.engine);
  ar.section("nodes");
  ar(f.nodes);
  ar.section("budget");
  ar(f.budget_rebalances, f.budget_demotions);
  ar(s);
  ar.section("guard");
  ar(f.guard);
  ar.section("service");
  ar(f.cache);
  ar.section("ledger");
  ar(f.ledger);
  ar.section("watchdog");
  ar(f.watchdog);
  ar.section("metrics");
  ar(f.metrics);
  ar.section("econ");
  ar(f.econ);
  ar.section("end");
}

}  // namespace archive

namespace {

/// Why the restored event set cannot continue this run (nullptr when it
/// can): every event must lie at or after the restored clock, in strictly
/// increasing sequence order below next_seq, and point at something the run
/// has — a trace index not yet arrived, a placement epoch already issued,
/// a node number of the configured inventory. Every running job needs a
/// pending completion of its own, or the run could never drain; governed
/// runs are not checkpointable, so no governor tick is valid.
const char* bad_events(const engine_state& eng, const run_state& s, std::size_t n_jobs,
                       std::size_t n_nodes) {
  if (!std::isfinite(eng.now) || eng.now < 0.0) return "clock out of range";
  std::vector<char> arrival(n_jobs, 0);
  std::set<std::uint64_t> epochs;
  std::uint64_t min_seq = 0;
  for (const auto& e : eng.pending) {
    if (e.seq < min_seq || e.seq >= eng.next_seq) return "sequence numbers out of order";
    min_seq = e.seq + 1;
    if (!std::isfinite(e.t) || e.t < eng.now) return "event time before the restored clock";
    switch (e.kind) {
      case event_kind::arrival:
        if (e.id >= n_jobs) return "arrival index out of range";
        if (arrival[e.id]++) return "two arrivals for one job";
        break;
      case event_kind::completion:
        if (e.id >= s.next_epoch) return "placement epoch out of range";
        epochs.insert(e.id);
        break;
      case event_kind::governor_tick:
        return "governor tick in an ungoverned run";
      case event_kind::device_lost:
      case event_kind::node_restart:
        if (e.id >= n_nodes) return "node number out of range";
        break;
      default:
        if (e.id != 0) return "unexpected event id";
        break;
    }
  }
  for (const auto& rj : s.running)
    if (!epochs.erase(rj.epoch)) return "running job without a pending completion";
  return nullptr;
}

}  // namespace

// ---------------------------------------------------------------------------
// Checkpoint artefact file helpers
// ---------------------------------------------------------------------------

std::string checkpoint_file_name(std::uint64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "ckpt-%06llu.synergy", static_cast<unsigned long long>(index));
  return buf;
}

common::result<fs::path> latest_checkpoint(const fs::path& dir) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec))
    return error{errc::not_found, "checkpoint directory missing: " + dir.string()};
  // Zero-padded names make lexical order numeric order, so the maximum
  // filename is the newest checkpoint.
  std::string best;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() == std::string("ckpt-000000.synergy").size() &&
        name.starts_with("ckpt-") && name.ends_with(".synergy") && name > best)
      best = name;
  }
  if (ec) return error{errc::unavailable, "cannot list " + dir.string() + ": " + ec.message()};
  if (best.empty())
    return error{errc::not_found, "no checkpoint artefacts in " + dir.string()};
  return dir / best;
}

common::result<std::string> read_checkpoint_payload(const fs::path& file) {
  std::ifstream in(file, std::ios::binary);
  if (!in) return error{errc::unavailable, "cannot read checkpoint " + file.string()};
  std::ostringstream buf;
  buf << in.rdbuf();
  const auto op = common::envelope::open(buf.str(), checkpoint_kind, checkpoint_version);
  if (!op.ok())
    return error{errc::invalid_argument,
                 "checkpoint " + file.string() + " failed to open (" +
                     common::envelope::to_string(op.error) + "): " + op.detail};
  return op.payload;
}

common::status write_checkpoint_file(const fs::path& file, std::string_view payload) {
  return common::atomic_write_file(
      file, common::envelope::seal(checkpoint_kind, checkpoint_version, payload));
}

// ---------------------------------------------------------------------------
// simulator: checkpoint configuration
// ---------------------------------------------------------------------------

void simulator::set_checkpointing(checkpoint_options opts) {
  if (config_.governor.enabled)
    throw std::invalid_argument(
        "simulator: checkpointing is incompatible with the reactive governor "
        "(per-job governor state is not serialisable; see ARCHITECTURE Sec. 17)");
  if (recovery_manager_)
    throw std::invalid_argument(
        "simulator: checkpointing is incompatible with the lifecycle recovery loop "
        "(in-memory retrain state is not serialisable; see ARCHITECTURE Sec. 17)");
  ckpt_ = std::move(opts);
  ckpt_enabled_ = true;
}

std::string simulator::config_fingerprint() const {
  // Everything that shapes replay decisions. A checkpoint refuses to restore
  // into a simulator whose fingerprint differs — resuming under a different
  // policy or fault plan would silently diverge instead of failing loudly.
  const auto& c = config_;
  archive::writer w;
  w.section("cfg");
  w(c.n_nodes, c.gpus_per_node, c.device, c.host_power_w, c.facility_cap_w, c.tag_nvgpufreq);
  w(c.faults.seed, c.faults.clock_set_fail_rate, c.faults.power_read_dropout_rate,
    c.faults.device_lost_rate, c.faults.max_node_losses);
  w(c.drift.at_s, c.drift.power_skew, c.drift.freq_exponent);
  w(c.chaos.seed, c.chaos.mtbf_s, c.chaos.restart_delay_s, c.chaos.max_crashes);
  w(c.governor.enabled, c.obs_scrape_interval_s, policy_->name());
  // Econ parameters shape deferral/demotion decisions and every cost figure;
  // the step traces hash via their canonical CSV rendering.
  w(c.econ.enabled, c.econ.capex_usd_per_node_hour, c.econ.defer_price_ratio,
    c.econ.demote_price_ratio, common::crc32(c.econ.price.to_csv("price")),
    common::crc32(c.econ.carbon.to_csv("carbon")));
  return w.take();
}

// ---------------------------------------------------------------------------
// simulator: serialize + restore
// ---------------------------------------------------------------------------

std::string simulator::serialize_checkpoint() const {
  for (const auto& rj : st_.running)
    if (rj.gov) throw std::logic_error("simulator: cannot checkpoint a governed job");

  checkpoint_frame f;
  f.fingerprint = common::crc32(config_fingerprint());
  f.trace_crc = trace_crc_;
  f.engine = st_.engine.export_state();
  std::erase_if(f.engine.pending,
                [](const event& e) { return e.kind > archive::enum_range<event_kind>::max; });
  for (std::size_t i = 0; i < ctl_->node_count(); ++i) f.nodes.push_back(node_number(i));
  f.budget_rebalances = budget_->rebalances();
  f.budget_demotions = budget_->demotions();
  if (ckpt_.guard) f.guard = ckpt_.guard->export_state();
  if (ckpt_.service) f.cache = ckpt_.service->export_cache();
  f.ledger = obs::energy_ledger::instance().export_state();
  if (watchdog_) f.watchdog = watchdog_->export_state();
  f.metrics = telemetry::metrics_registry::instance().snapshot();
  // Econ accumulators travel verbatim (never recomputed) so the resumed
  // run's cost report is byte-identical.
  if (st_.econ_meter.active()) f.econ = st_.econ_meter.export_state();

  archive::writer w;
  visit(w, f, const_cast<run_state&>(st_));  // the writer only reads
  return w.take();
}

common::status simulator::restore_checkpoint(const std::string& payload,
                                             const job_trace& trace) {
  if (!ckpt_enabled_)
    return error{errc::invalid_argument,
                 "restore: call set_checkpointing() before restore_checkpoint()"};
  const auto reject = [](const std::string& what) {
    return error{errc::invalid_argument, "restore: " + what};
  };

  // Read into fresh objects; nothing below touches the simulator until every
  // check has passed, so a failed restore really does restore nothing.
  checkpoint_frame f;
  run_state s = fresh_state();
  try {
    archive::reader r{payload};
    visit(r, f, s);
    r.finish();
  } catch (const std::exception& e) {
    return reject(std::string("malformed checkpoint: ") + e.what());
  }

  if (f.fingerprint != common::crc32(config_fingerprint()))
    return reject("config fingerprint mismatch (different cluster/policy/fault setup)");
  if (f.trace_crc != common::crc32(trace.to_csv()))
    return reject("trace mismatch (checkpoint was taken replaying a different trace)");
  if (f.guard.has_value() != (ckpt_.guard != nullptr) ||
      f.cache.has_value() != (ckpt_.service != nullptr))
    return reject("planner guard/service presence differs from the exporting run");
  if (f.watchdog.has_value() != (watchdog_ != nullptr))
    return reject("watchdog presence differs from the exporting run");
  if (f.econ.has_value() != s.econ_meter.active())
    return reject("econ accounting presence differs from the exporting run");
  const std::set<std::size_t> distinct(f.nodes.begin(), f.nodes.end());
  if (f.nodes.empty() || s.slots.size() != f.nodes.size() || distinct.size() != f.nodes.size() ||
      *distinct.rbegin() >= config_.n_nodes)
    return reject("node/slot tables inconsistent");
  for (const auto& row : s.slots)
    if (row.size() != config_.gpus_per_node) return reject("GPU slot row width mismatch");
  // arrive() counts crashed nodes still due back (crashes - restarts).
  if (s.node_restarts > s.node_crashes) return reject("counts: more node restarts than crashes");
  if (s.results.size() != trace.jobs.size()) return reject("per-job result count mismatch");
  for (std::size_t i = 0; i < s.results.size(); ++i)
    if (s.results[i].id != trace.jobs[i].id) return reject("job id order mismatch");
  try {
    s.result_index = index_job_ids(trace);
  } catch (const std::invalid_argument& e) {
    return reject(e.what());
  }
  const auto& ids = s.result_index;
  for (const auto& qj : s.queue)
    if (!ids.contains(qj.job.id)) return reject("queued job id not in the trace");
  for (const auto& rj : s.running) {
    if (!ids.contains(rj.id)) return reject("running job id not in the trace");
    if (rj.epoch >= s.next_epoch) return reject("running-job epoch out of range");
    for (const auto& g : rj.gpus)
      if (g.node >= s.slots.size() || g.gpu >= config_.gpus_per_node)
        return reject("running-job GPU slot out of range");
  }
  for (const int id : s.econ_deferred_ids)
    if (std::none_of(s.queue.begin(), s.queue.end(),
                     [id](const queued_job& qj) { return qj.job.id == id; }))
      return reject("econ-deferred job id not present in the queue");
  if (const char* why = bad_events(f.engine, s, trace.jobs.size(), config_.n_nodes))
    return reject(std::string("events: ") + why);

  // --- external subsystem imports (each is individually atomic) ---
  if (!telemetry::metrics_registry::instance().restore(f.metrics))
    return reject("metrics registry shape mismatch");
  if (ckpt_.guard && !ckpt_.guard->import_state(*f.guard))
    return reject("guard/drift state inconsistent with this guard's options");
  if (watchdog_ && !watchdog_->import_state(*f.watchdog))
    return reject("watchdog rule count differs from the exporting run");
  obs::energy_ledger::instance().import_state(f.ledger);
  if (ckpt_.service) ckpt_.service->import_cache(*f.cache);

  // --- commit (cannot fail past this point) ---
  std::vector<sched::node_config> nodes;
  for (const std::size_t number : f.nodes) nodes.push_back(make_node_config(number));
  ctl_ = std::make_unique<sched::controller>(std::move(nodes));
  // Fresh budget over the restored inventory; running jobs re-register their
  // demand and node occupancy. No restore-time rebalance — the counters
  // carry the exporting run's totals, and a gratuitous rebalance here would
  // put the resumed summary one count ahead.
  budget_ = std::make_unique<power_budget>(*ctl_, config_.facility_cap_w, f.budget_rebalances,
                                           f.budget_demotions);
  for (const auto& rj : s.running) {
    std::set<std::size_t> nodes_used;
    for (const auto& g : rj.gpus) {
      budget_->gpu_busy(g.node, g.gpu, rj.avg_power_w);
      nodes_used.insert(g.node);
    }
    for (const std::size_t n : nodes_used) ctl_->node_at(n).add_job();
  }
  if (f.econ) s.econ_meter.import_state(*f.econ);
  s.live_events = static_cast<std::size_t>(std::count_if(
      f.engine.pending.begin(), f.engine.pending.end(),
      [](const event& e) { return is_live(e.kind); }));
  s.engine.import_state(std::move(f.engine));
  st_ = std::move(s);
  trace_crc_ = f.trace_crc;
  restored_ = true;
  return common::status::success();
}

// ---------------------------------------------------------------------------
// simulator: resume + periodic tick
// ---------------------------------------------------------------------------

run_summary simulator::resume(const job_trace& trace) {
  if (!restored_)
    throw std::logic_error("simulator::resume without a successful restore_checkpoint");
  restored_ = false;
  trace_ = &trace;
  // The restored events already sit in the engine with their original
  // sequence numbers. Only the process-local events re-arm, from this
  // simulator's options: the checkpoint cadence (the artefact was written
  // by a tick at the restored clock) and a crash injection still ahead.
  if (ckpt_.interval_s > 0.0 && has_live_work())
    schedule(now() + ckpt_.interval_s, event_kind::checkpoint_tick);
  if (ckpt_.crash_at_s >= 0.0 && ckpt_.crash_at_s > now())
    schedule(ckpt_.crash_at_s, event_kind::crash_injection);
  return finish_run(trace);
}

void simulator::checkpoint_tick() {
  // Decide the next tick *before* serializing, as resume() will. The tick
  // itself is inert: no integrate, no power sample — a checkpointed run's
  // accounting spans are identical to an uncheckpointed one's.
  const bool more = has_live_work();
  ++st_.ckpt_index;

  const std::string payload = serialize_checkpoint();
  const fs::path file = ckpt_.dir / checkpoint_file_name(st_.ckpt_index - 1);
  if (const auto st = write_checkpoint_file(file, payload); !st.ok()) {
    // Warn-and-continue: a full disk must not kill the replay it exists to
    // protect; the previous checkpoint (atomic rename) is still intact.
    common::log_warn("cluster: checkpoint write failed: ", st.err().to_string());
  }

  if (more) schedule(now() + ckpt_.interval_s, event_kind::checkpoint_tick);
}

}  // namespace synergy::cluster
