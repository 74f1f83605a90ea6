// Tests for the discrete-event cluster simulator: engine ordering and
// determinism, the synthetic trace generator and its CSV round-trip, the
// three scheduling policies, facility power budgeting, and the
// reproducibility of the summary CSV.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "synergy/cluster/checkpoint.hpp"
#include "synergy/cluster/simulator.hpp"
#include "synergy/common/rng.hpp"
#include "synergy/gpusim/dvfs_model.hpp"
#include "synergy/obs/energy_ledger.hpp"
#include "synergy/telemetry/metrics_registry.hpp"
#include "synergy/workloads/benchmark.hpp"

namespace sc = synergy::cluster;
namespace sm = synergy::metrics;
namespace ss = synergy::sched;
namespace sw = synergy::workloads;

namespace {

sc::traced_job make_job(int id, double submit_s, int n_gpus, int iterations,
                        const std::string& kernel = "mat_mul",
                        const std::string& target = "default") {
  sc::traced_job j;
  j.id = id;
  j.name = kernel + "_" + std::to_string(id);
  j.submit_s = submit_s;
  j.n_gpus = n_gpus;
  j.kernel = kernel;
  j.work_items = 1 << 26;
  j.iterations = iterations;
  j.target = target;
  return j;
}

/// Engine handler that records (kind, id) of every fired event.
struct fired_log {
  std::vector<std::pair<sc::event_kind, std::uint64_t>> fired;
  void operator()(const sc::event& e) { fired.emplace_back(e.kind, e.id); }
};

}  // namespace

// ------------------------------------------------------------------ engine ----

TEST(EventEngine, FiresInTimeOrderRegardlessOfScheduleOrder) {
  sc::event_engine eng;
  eng.at(5.0, sc::event_kind::arrival, 5);
  eng.at(1.0, sc::event_kind::completion, 1);
  eng.at(3.0, sc::event_kind::scrape_tick);
  EXPECT_EQ(eng.pending(), 3u);
  std::vector<double> times;
  std::vector<std::uint64_t> ids;
  const std::size_t fired = eng.run([&](const sc::event& e) {
    times.push_back(eng.now());
    ids.push_back(e.id);
  });
  EXPECT_EQ(fired, 3u);
  EXPECT_EQ(times, (std::vector<double>{1.0, 3.0, 5.0}));
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 0, 5}));
  EXPECT_DOUBLE_EQ(eng.now(), 5.0);
  EXPECT_TRUE(eng.empty());
}

TEST(EventEngine, EqualTimestampsFireInScheduleOrder) {
  sc::event_engine eng;
  EXPECT_EQ(eng.at(1.0, sc::event_kind::arrival, 'a'), 0u);
  EXPECT_EQ(eng.at(1.0, sc::event_kind::arrival, 'b'), 1u);
  EXPECT_EQ(eng.at(1.0, sc::event_kind::arrival, 'c'), 2u);
  std::vector<char> fired;
  eng.run([&](const sc::event& e) { fired.push_back(static_cast<char>(e.id)); });
  EXPECT_EQ(fired, (std::vector<char>{'a', 'b', 'c'}));
}

TEST(EventEngine, HandlersMayScheduleFurtherEvents) {
  sc::event_engine eng;
  std::vector<double> times;
  eng.at(1.0, sc::event_kind::arrival);
  eng.run([&](const sc::event& e) {
    times.push_back(eng.now());
    if (e.kind != sc::event_kind::arrival) return;
    eng.after(2.0, sc::event_kind::completion);
    // Scheduling into the past clamps to now: fires next, not never.
    eng.at(0.25, sc::event_kind::completion);
  });
  ASSERT_EQ(times.size(), 3u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 1.0);  // clamped past event
  EXPECT_DOUBLE_EQ(times[2], 3.0);
}

TEST(EventEngine, RunUntilStopsAtTheFence) {
  sc::event_engine eng;
  eng.at(1.0, sc::event_kind::arrival);
  eng.at(2.0, sc::event_kind::arrival);
  eng.at(10.0, sc::event_kind::arrival);
  fired_log log;
  EXPECT_EQ(eng.run_until(5.0, log), 2u);
  EXPECT_EQ(log.fired.size(), 2u);
  EXPECT_DOUBLE_EQ(eng.now(), 5.0);
  EXPECT_EQ(eng.pending(), 1u);
}

TEST(EventEngine, ExportedPendingSetFiresIdenticallyAfterImport) {
  // Equal-time ties scheduled out of time order, some already fired, so the
  // heap's internal layout differs from schedule order.
  sc::event_engine eng;
  eng.at(4.0, sc::event_kind::arrival, 1);
  eng.at(2.0, sc::event_kind::completion, 2);
  eng.at(4.0, sc::event_kind::node_restart, 3);
  eng.at(1.0, sc::event_kind::scrape_tick);
  eng.at(2.0, sc::event_kind::device_lost, 4);
  eng.at(4.0, sc::event_kind::completion, 5);
  eng.at(3.0, sc::event_kind::econ_tick);
  eng.run_until(1.5, fired_log{});

  const sc::engine_state exported = eng.export_state();
  EXPECT_DOUBLE_EQ(exported.now, 1.5);
  EXPECT_EQ(exported.next_seq, 7u);
  ASSERT_EQ(exported.pending.size(), 6u);
  for (std::size_t i = 1; i < exported.pending.size(); ++i)
    EXPECT_LT(exported.pending[i - 1].seq, exported.pending[i].seq);

  sc::event_engine copy;
  copy.import_state(exported);
  EXPECT_DOUBLE_EQ(copy.now(), 1.5);
  EXPECT_EQ(copy.pending(), 6u);

  std::vector<sc::event> a, b;
  eng.run([&](const sc::event& e) { a.push_back(e); });
  copy.run([&](const sc::event& e) { b.push_back(e); });
  EXPECT_EQ(a, b);
  ASSERT_EQ(b.size(), 6u);
  EXPECT_EQ(b[0].seq, 1u);  // t=2, scheduled before the device-lost tie
  EXPECT_EQ(b[1].seq, 4u);
  EXPECT_EQ(b[3].seq, 0u);  // t=4 ties fire in schedule order: 0, 2, 5
  EXPECT_EQ(b[4].seq, 2u);
  EXPECT_EQ(b[5].seq, 5u);
  // Sequence numbering continues where the exporting engine stopped.
  EXPECT_EQ(eng.at(9.0, sc::event_kind::arrival), copy.at(9.0, sc::event_kind::arrival));
}

// ------------------------------------------------------------- trace model ----

TEST(JobTrace, GenerationIsDeterministicInTheSeed) {
  sc::trace_config cfg;
  cfg.n_jobs = 50;
  const auto a = sc::generate_trace(cfg);
  const auto b = sc::generate_trace(cfg);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.to_csv(), b.to_csv());

  cfg.seed = 43;
  const auto c = sc::generate_trace(cfg);
  EXPECT_NE(a, c);
}

TEST(JobTrace, CsvRoundTripIsExact) {
  sc::trace_config cfg;
  cfg.n_jobs = 100;
  cfg.target_mix = {"ES_50", "MIN_EDP", "default"};
  const auto trace = sc::generate_trace(cfg);
  const auto csv = trace.to_csv();
  // The seed is recorded in the header for bit-identical replay.
  EXPECT_NE(csv.find("# synergy-cluster-trace v1 seed=42 jobs=100"), std::string::npos);
  EXPECT_EQ(sc::job_trace::from_csv(csv), trace);
}

TEST(JobTrace, LoaderRejectsMalformedInput) {
  EXPECT_THROW((void)sc::job_trace::from_csv(""), std::invalid_argument);
  EXPECT_THROW((void)sc::job_trace::from_csv("id,name\n1,x\n"), std::invalid_argument);
  const auto csv = sc::generate_trace({.n_jobs = 3}).to_csv();
  EXPECT_THROW((void)sc::job_trace::from_csv(csv + "9,bad,0,1,mat_mul,1,1\n"),
               std::invalid_argument);  // short row
}

TEST(JobTrace, LoaderRejectsPartialAndNonFiniteNumbers) {
  const std::string head =
      "# synergy-cluster-trace v1 seed=1 jobs=1\n"
      "id,name,submit_s,n_gpus,kernel,work_items,iterations,target\n";
  const auto load = [&](const std::string& row) { return sc::job_trace::from_csv(head + row); };
  EXPECT_EQ(load("1,a,0.5,2,mat_mul,64,3,ES_50\n").jobs.at(0).n_gpus, 2);
  for (const char* row : {
           "1,a,0.5,1abc,mat_mul,64,3,ES_50\n",           // partial integer
           "1x,a,0.5,1,mat_mul,64,3,ES_50\n",             // partial id
           "1,a,0.5s,1,mat_mul,64,3,ES_50\n",             // partial double
           "1,a,0.5,1,mat_mul,inf,3,ES_50\n",             // non-finite work
           "1,a,0.5,1,mat_mul,nan,3,ES_50\n",             //
           "1,a,inf,1,mat_mul,64,3,ES_50\n",              // non-finite submit
           "99999999999,a,0.5,1,mat_mul,64,3,ES_50\n",    // id overflow
           "1,a,0.5,1,mat_mul,64,99999999999,ES_50\n",    // iterations overflow
           "1,a,0.5,1,mat_mul,64,,ES_50\n",               // empty field
           "1,a,0.5, 1,mat_mul,64,3,ES_50\n",             // padded field
       })
    EXPECT_THROW((void)load(row), std::invalid_argument) << row;
  EXPECT_THROW((void)sc::job_trace::from_csv("# synergy-cluster-trace v1 seed=4x2 jobs=0\n"),
               std::invalid_argument);
  EXPECT_THROW(
      (void)sc::job_trace::from_csv("# synergy-cluster-trace v1 seed=99999999999999999999\n"),
      std::invalid_argument);
}

TEST(JobTrace, CorruptionFuzzMutatedTracesFailClosedOrRoundTrip) {
  // Every seeded mutant of a generated trace either throws the documented
  // std::invalid_argument or parses to a trace that round-trips exactly.
  sc::trace_config cfg;
  cfg.n_jobs = 12;
  cfg.deferrable_fraction = 0.5;
  const std::string csv = sc::generate_trace(cfg).to_csv();
  synergy::common::pcg32 rng{0x7ace0001u};
  std::size_t parsed = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string bad = csv;
    const auto n = static_cast<std::uint32_t>(bad.size());
    switch (rng.bounded(4)) {
      case 0: bad[rng.bounded(n)] ^= static_cast<char>(1u << rng.bounded(8)); break;
      case 1: bad.resize(rng.bounded(n)); break;
      case 2: {  // a character the numeric and CSV parsers care about
        constexpr std::string_view alphabet = "0123456789.-+eEinfa, \"\n";
        bad[rng.bounded(n)] = alphabet[rng.bounded(alphabet.size())];
        break;
      }
      default: {  // splice
        const auto len = 1 + rng.bounded(n / 8);
        bad.replace(rng.bounded(n - len), len, csv.substr(rng.bounded(n - len), len));
        break;
      }
    }
    sc::job_trace trace;
    try {
      trace = sc::job_trace::from_csv(bad);
    } catch (const std::invalid_argument&) {
      continue;
    }
    ++parsed;
    EXPECT_EQ(sc::job_trace::from_csv(trace.to_csv()), trace) << "mutant " << i << ":\n" << bad;
  }
  EXPECT_GT(parsed, 0u);
}

TEST(JobTrace, DrawsKernelsFromTheRequestedPool) {
  sc::trace_config cfg;
  cfg.n_jobs = 40;
  cfg.kernels = {"mat_mul", "sobel3"};
  for (const auto& j : sc::generate_trace(cfg).jobs)
    EXPECT_TRUE(j.kernel == "mat_mul" || j.kernel == "sobel3") << j.kernel;
}

// ---------------------------------------------------------------- policies ----

TEST(Policies, FifoHeadBlocksBackfillDoesNot) {
  // 1 node x 2 GPUs. A (1 GPU, long) occupies one GPU; B (2 GPUs) blocks
  // at the head; C (1 GPU, short) fits the free GPU and finishes before
  // A drains, so EASY may slide it forward while FIFO may not.
  sc::job_trace trace;
  trace.jobs = {make_job(1, 0.0, 1, 600), make_job(2, 1.0, 2, 100),
                make_job(3, 2.0, 1, 10)};

  sc::cluster_config cc;
  cc.n_nodes = 1;
  cc.gpus_per_node = 2;

  sc::simulator fifo{cc, sc::make_fifo()};
  fifo.run(trace);
  sc::simulator easy{cc, sc::make_easy_backfill()};
  easy.run(trace);

  // Everybody completes either way.
  for (const auto* sim : {&fifo, &easy})
    for (const auto& r : sim->results()) EXPECT_EQ(r.state, ss::job_state::completed);

  EXPECT_GT(fifo.result(3).queue_wait_s, 0.0);         // stuck behind B
  EXPECT_DOUBLE_EQ(easy.result(3).queue_wait_s, 0.0);  // backfilled
  // The head is never delayed by the backfill.
  EXPECT_DOUBLE_EQ(easy.result(2).start_s, fifo.result(2).start_s);
}

TEST(Policies, EnergyAwareRunsLowerClocksAndSavesEnergy) {
  sc::trace_config tc;
  tc.n_jobs = 120;
  tc.target_mix = {"ES_50"};
  tc.seed = 9;
  const auto trace = sc::generate_trace(tc);

  sc::cluster_config cc;
  cc.n_nodes = 4;
  cc.gpus_per_node = 4;

  sc::simulator fifo{cc, sc::make_fifo()};
  const auto base = fifo.run(trace);
  sc::simulator energy{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
  const auto tuned = energy.run(trace);

  const auto default_mhz =
      synergy::gpusim::make_device_spec(cc.device).default_core_clock().value;
  bool any_lower = false;
  for (const auto& r : energy.results()) any_lower |= r.core_mhz < default_mhz;
  EXPECT_TRUE(any_lower);
  for (const auto& r : fifo.results()) EXPECT_DOUBLE_EQ(r.core_mhz, default_mhz);

  // The acceptance bar: less total energy at <= 10% makespan loss.
  EXPECT_LT(tuned.total_gpu_energy_j, base.total_gpu_energy_j);
  EXPECT_LE(tuned.makespan_s, base.makespan_s * 1.10);
}

TEST(Policies, UncapablenodesRunDefaultClocks) {
  sc::trace_config tc;
  tc.n_jobs = 30;
  tc.gpu_mix = {1, 1, 2};  // fits the 4-GPU test cluster
  tc.target_mix = {"ES_50"};
  const auto trace = sc::generate_trace(tc);

  sc::cluster_config cc;
  cc.n_nodes = 2;
  cc.gpus_per_node = 2;
  cc.tag_nvgpufreq = false;  // Sec. 7.2 chain fails at the GRES check
  sc::simulator sim{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
  sim.run(trace);

  const auto default_mhz =
      synergy::gpusim::make_device_spec(cc.device).default_core_clock().value;
  for (const auto& r : sim.results()) EXPECT_DOUBLE_EQ(r.core_mhz, default_mhz);
}

TEST(Policies, RegistryResolvesNamesAndRejectsUnknown) {
  EXPECT_EQ(sc::make_policy("fifo")->name(), "fifo");
  EXPECT_EQ(sc::make_policy("backfill")->name(), "backfill");
  EXPECT_EQ(sc::make_policy("energy")->name(), "energy");
  EXPECT_THROW((void)sc::make_policy("sjf"), std::invalid_argument);
}

// ------------------------------------------------------------ power budget ----

TEST(PowerBudget, FacilityPowerNeverExceedsTheCapAtAnyEvent) {
  sc::trace_config tc;
  tc.n_jobs = 80;
  tc.gpu_mix = {1, 1, 2};  // fits the 4-GPU test cluster
  tc.seed = 5;
  const auto trace = sc::generate_trace(tc);

  sc::cluster_config cc;
  cc.n_nodes = 2;
  cc.gpus_per_node = 2;
  // Hosts draw 700 W, idle GPUs ~160 W; four busy GPUs could reach
  // ~1900 W, so 1400 W forces the budget manager to defer and demote.
  cc.facility_cap_w = 1400.0;
  sc::simulator sim{cc, sc::make_easy_backfill()};
  const auto summary = sim.run(trace);

  ASSERT_FALSE(sim.power_samples().empty());
  for (const auto& [t, w] : sim.power_samples())
    ASSERT_LE(w, cc.facility_cap_w + 1e-6) << "at t=" << t;
  EXPECT_LE(summary.peak_facility_power_w, cc.facility_cap_w + 1e-6);
  EXPECT_GT(summary.cap_rebalances, 0u);
  EXPECT_GT(summary.cap_demotions, 0u);
  EXPECT_EQ(summary.completed, summary.jobs);
}

TEST(PowerBudget, UncappedRunNeverRebalances) {
  const auto trace = sc::generate_trace({.n_jobs = 20, .gpu_mix = {1, 2, 4}});
  sc::cluster_config cc;
  cc.n_nodes = 2;
  cc.gpus_per_node = 2;
  sc::simulator sim{cc, sc::make_fifo()};
  const auto summary = sim.run(trace);
  EXPECT_EQ(summary.cap_rebalances, 0u);
  EXPECT_EQ(summary.cap_demotions, 0u);
  EXPECT_EQ(summary.completed, summary.jobs);
}

TEST(PowerBudget, ImpossibleJobsFailInsteadOfStarvingTheQueue) {
  sc::job_trace trace;
  trace.jobs = {make_job(1, 0.0, 8, 10),   // more GPUs than the cluster has
                make_job(2, 1.0, 1, 10)};  // fine
  sc::cluster_config cc;
  cc.n_nodes = 1;
  cc.gpus_per_node = 2;
  sc::simulator sim{cc, sc::make_fifo()};
  const auto summary = sim.run(trace);
  EXPECT_EQ(sim.result(1).state, ss::job_state::failed);
  EXPECT_EQ(sim.result(2).state, ss::job_state::completed);
  EXPECT_EQ(summary.failed, 1u);

  // A cap below the job's minimum draw also fails it at arrival.
  cc.facility_cap_w = 460.0;  // host 350 + 2 idle GPUs is ~430 W
  sc::job_trace hot;
  hot.jobs = {make_job(1, 0.0, 2, 50)};
  sc::simulator capped{cc, sc::make_fifo()};
  capped.run(hot);
  EXPECT_EQ(capped.result(1).state, ss::job_state::failed);
  EXPECT_FALSE(capped.result(1).failure_reason.empty());
}

// ----------------------------------------------------------- reproducibility ----

TEST(Simulator, SummaryCsvIsBitIdenticalAcrossRuns) {
  sc::trace_config tc;
  tc.n_jobs = 60;
  tc.seed = 123;
  const auto trace = sc::generate_trace(tc);

  sc::cluster_config cc;
  cc.n_nodes = 2;
  cc.gpus_per_node = 4;
  cc.facility_cap_w = 2500.0;

  const auto run_once = [&] {
    sc::simulator sim{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
    const auto summary = sim.run(trace);
    std::ostringstream os;
    summary.csv(os);
    return os.str();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("# seed=123 policy=energy"), std::string::npos);
}

TEST(Simulator, ChargesEnergyThroughTheGpusimModel) {
  sc::job_trace trace;
  trace.jobs = {make_job(1, 0.0, 2, 25, "black_scholes")};
  sc::cluster_config cc;
  cc.n_nodes = 1;
  cc.gpus_per_node = 2;
  sc::simulator sim{cc, sc::make_fifo()};
  sim.run(trace);
  const auto& r = sim.result(1);
  ASSERT_EQ(r.state, ss::job_state::completed);

  // Recompute the job's cost from the public gpusim model at the clocks it
  // ran at: the simulator must charge exactly this energy per GPU.
  const auto spec = synergy::gpusim::make_device_spec(cc.device);
  auto profile = sw::find("black_scholes").info.to_profile(1);
  profile.work_items = trace.jobs[0].work_items * trace.jobs[0].iterations;
  const auto cost = synergy::gpusim::dvfs_model{}.evaluate(
      spec, profile, {spec.default_config().memory, synergy::common::megahertz{r.core_mhz}});
  EXPECT_NEAR(r.gpu_energy_j, cost.energy.value * r.n_gpus, 1e-9 * r.gpu_energy_j);
  EXPECT_NEAR(r.end_s - r.start_s, cost.time.value, 1e-12);
}

TEST(Simulator, ReplaysALoadedTraceIdentically) {
  sc::trace_config tc;
  tc.n_jobs = 40;
  tc.seed = 77;
  const auto trace = sc::generate_trace(tc);
  const auto reloaded = sc::job_trace::from_csv(trace.to_csv());

  sc::cluster_config cc;
  cc.n_nodes = 2;
  cc.gpus_per_node = 2;
  sc::simulator a{cc, sc::make_easy_backfill()};
  const auto sa = a.run(trace);
  sc::simulator b{cc, sc::make_easy_backfill()};
  const auto sb = b.run(reloaded);

  std::ostringstream oa, ob;
  sa.csv(oa);
  sb.csv(ob);
  EXPECT_EQ(oa.str(), ob.str());
}

TEST(Simulator, RejectsATraceWithADuplicateJobId) {
  // The third row reuses id 1: replaying it used to exit 0 with that job
  // left PENDING forever ("3 (2/0)"), because results are looked up by id.
  const auto trace = sc::job_trace::from_csv(
      "# synergy-cluster-trace v1 seed=0 jobs=3\n"
      "id,name,submit_s,n_gpus,kernel,work_items,iterations,target\n"
      "1,a,0,1,mat_mul,1048576,2,default\n"
      "2,b,1,1,mat_mul,1048576,2,default\n"
      "1,c,2,1,mat_mul,1048576,2,default\n");
  sc::cluster_config cc;
  cc.n_nodes = 1;
  cc.gpus_per_node = 2;
  sc::simulator sim{cc, sc::make_fifo()};
  try {
    (void)sim.run(trace);
    FAIL() << "duplicate job id accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate job id 1"), std::string::npos) << e.what();
  }
}

// ------------------------------------------------------- trace robustness ----

TEST(JobTrace, LoaderAcceptsCrlfLineEndings) {
  // Traces written on (or piped through) Windows tooling arrive with CRLF;
  // replay must still be exact.
  const auto trace = sc::generate_trace({.n_jobs = 20});
  std::string csv = trace.to_csv();
  std::string crlf;
  for (const char c : csv) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  EXPECT_EQ(sc::job_trace::from_csv(crlf), trace);
}

TEST(JobTrace, LoaderAcceptsMissingTrailingNewline) {
  const auto trace = sc::generate_trace({.n_jobs = 20});
  std::string csv = trace.to_csv();
  ASSERT_EQ(csv.back(), '\n');
  csv.pop_back();
  EXPECT_EQ(sc::job_trace::from_csv(csv), trace);
}

TEST(JobTrace, RoundTripsQuotedNamesWithNewlinesAndCommas) {
  // csv_writer quotes names containing separators; the loader's record
  // splitter must not cut a quoted field at its embedded newline.
  sc::job_trace trace;
  trace.seed = 5;
  sc::traced_job j;
  j.id = 1;
  j.name = "weird \"job\",\nwith newline";
  j.submit_s = 0.25;
  j.n_gpus = 1;
  j.kernel = "mat_mul";
  j.work_items = 1 << 20;
  j.iterations = 2;
  j.target = "ES_50";
  trace.jobs.push_back(j);
  EXPECT_EQ(sc::job_trace::from_csv(trace.to_csv()), trace);
}

// --------------------------------------------------------- fault injection ----

namespace {

sc::run_summary run_with(const sc::cluster_config& cc, const sc::job_trace& trace) {
  sc::simulator sim{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
  return sim.run(trace);
}

}  // namespace

TEST(Faults, FaultyRunCompletesEveryJobDeterministically) {
  sc::trace_config tc;
  tc.n_jobs = 60;
  tc.seed = 9;
  const auto trace = sc::generate_trace(tc);

  sc::cluster_config cc;
  cc.n_nodes = 4;
  cc.gpus_per_node = 4;
  cc.faults.seed = 11;
  cc.faults.clock_set_fail_rate = 0.1;
  cc.faults.power_read_dropout_rate = 0.1;
  cc.faults.device_lost_rate = 0.02;
  cc.faults.max_node_losses = 1;

  const auto run_once = [&] {
    sc::simulator sim{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
    const auto summary = sim.run(trace);
    std::ostringstream os;
    summary.csv(os);
    return std::make_pair(summary, os.str());
  };
  const auto [summary, csv_a] = run_once();
  const auto [summary2, csv_b] = run_once();

  // Same seed, same fault pattern, same schedule: bit-identical CSV.
  EXPECT_EQ(csv_a, csv_b);
  // Faults degrade, they never lose work.
  EXPECT_EQ(summary.completed, 60u);
  EXPECT_EQ(summary.failed, 0u);
  // The plan actually fired.
  EXPECT_GT(summary.clock_set_faults, 0u);
  EXPECT_GT(summary.degraded_samples, 0u);
}

TEST(Faults, ClockSetFaultEnergyIsBoundedByTunedAndDefaultRuns) {
  // Degradation contract: a clock-set fault makes that job run at default
  // clocks, so the faulty run's total GPU energy lies between the fault-free
  // tuned total and the fault-free default-clock total of the same trace.
  sc::trace_config tc;
  tc.n_jobs = 40;
  tc.seed = 21;
  tc.target_mix = {"MIN_ENERGY"};  // maximally different from default clocks
  const auto trace = sc::generate_trace(tc);

  sc::cluster_config cc;
  cc.n_nodes = 4;
  cc.gpus_per_node = 4;

  const auto tuned = run_with(cc, trace);

  sc::cluster_config cc_default = cc;
  cc_default.tag_nvgpufreq = false;  // every job at default clocks
  const auto dflt = run_with(cc_default, trace);
  ASSERT_GT(dflt.total_gpu_energy_j, tuned.total_gpu_energy_j);

  sc::cluster_config cc_faulty = cc;
  cc_faulty.faults.clock_set_fail_rate = 0.5;  // no dropouts/device loss: the
  const auto faulty = run_with(cc_faulty, trace);  // job set stays identical

  EXPECT_GT(faulty.clock_set_faults, 0u);
  EXPECT_GE(faulty.total_gpu_energy_j, tuned.total_gpu_energy_j * (1.0 - 1e-9));
  EXPECT_LE(faulty.total_gpu_energy_j, dflt.total_gpu_energy_j * (1.0 + 1e-9));
}

TEST(Faults, DeviceLostRequeuesJobsAndRemovesNode) {
  sc::trace_config tc;
  tc.n_jobs = 30;
  tc.seed = 3;
  tc.gpu_mix = {1, 2};  // jobs must still fit the surviving node
  const auto trace = sc::generate_trace(tc);

  sc::cluster_config cc;
  cc.n_nodes = 2;
  cc.gpus_per_node = 4;
  cc.faults.device_lost_rate = 1.0;  // first placement kills its node
  cc.faults.max_node_losses = 1;

  sc::simulator sim{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
  const auto summary = sim.run(trace);

  EXPECT_EQ(summary.nodes_lost, 1u);
  EXPECT_EQ(sim.controller().node_count(), 1u);
  EXPECT_GE(summary.requeues, 1u);
  EXPECT_GT(summary.wasted_gpu_energy_j, 0.0);
  // Requeued, not lost: every job still completes on the surviving node.
  EXPECT_EQ(summary.completed, 30u);
  EXPECT_EQ(summary.failed, 0u);
  // Per-job bookkeeping: at least one result records its requeue.
  bool saw_requeued = false;
  for (const auto& r : sim.results())
    if (r.requeues > 0) saw_requeued = true;
  EXPECT_TRUE(saw_requeued);
}

TEST(Faults, SimulatorIsReusableAfterLosingNodes) {
  // run() must rebuild the full inventory: a second replay on the same
  // simulator starts from all nodes again and reproduces a fresh run.
  const auto trace = sc::generate_trace({.n_jobs = 20, .gpu_mix = {1}, .seed = 5});

  sc::cluster_config cc;
  cc.n_nodes = 2;
  cc.gpus_per_node = 2;
  cc.faults.device_lost_rate = 1.0;
  cc.faults.max_node_losses = 1;

  sc::simulator sim{cc, sc::make_fifo()};
  const auto first = sim.run(trace);
  ASSERT_EQ(first.nodes_lost, 1u);
  const auto second = sim.run(trace);
  EXPECT_EQ(second.nodes_lost, 1u);  // same plan seed, same fate
  EXPECT_EQ(second.completed, 20u);

  std::ostringstream oa, ob;
  first.csv(oa);
  second.csv(ob);
  EXPECT_EQ(oa.str(), ob.str());
}

TEST(Faults, FaultFreeRunReportsZeroFaultCounters) {
  const auto trace = sc::generate_trace({.n_jobs = 15});
  sc::cluster_config cc;
  cc.n_nodes = 2;
  cc.gpus_per_node = 2;
  const auto summary = run_with(cc, trace);
  EXPECT_EQ(summary.clock_set_faults, 0u);
  EXPECT_EQ(summary.degraded_samples, 0u);
  EXPECT_EQ(summary.requeues, 0u);
  EXPECT_EQ(summary.nodes_lost, 0u);
  EXPECT_DOUBLE_EQ(summary.wasted_gpu_energy_j, 0.0);
}

// ------------------------------------------------- scheduling-pass parity ----

namespace {

/// FNV-1a over a byte stream; doubles enter as their IEEE bit patterns, so
/// any change in any job's outcome shows in the digest.
class fnv_digest {
 public:
  fnv_digest& add(std::string_view s) {
    for (const unsigned char c : s) h_ = (h_ ^ c) * 0x100000001b3ULL;
    return *this;
  }
  fnv_digest& add(double d) { return add(std::bit_cast<std::uint64_t>(d)); }
  fnv_digest& add(std::uint64_t u) { return add(hex(u)); }
  [[nodiscard]] std::string str() const { return hex(h_); }

 private:
  static std::string hex(std::uint64_t u) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(u));
    return buf;
  }
  std::uint64_t h_{0xcbf29ce484222325ULL};
};

/// "<summary-csv digest>:<per-job digest>" over every job_result field.
std::string replay_digest(const sc::run_summary& summary, const sc::simulator& sim) {
  std::ostringstream csv;
  summary.csv(csv);
  fnv_digest jobs;
  for (const auto& r : sim.results()) {
    jobs.add(static_cast<std::uint64_t>(r.id)).add(r.name).add(r.kernel).add(r.target);
    jobs.add(static_cast<std::uint64_t>(r.state)).add(static_cast<std::uint64_t>(r.n_gpus));
    jobs.add(r.submit_s).add(r.start_s).add(r.end_s).add(r.queue_wait_s).add(r.gpu_energy_j);
    jobs.add(r.core_mhz).add(static_cast<std::uint64_t>(r.requeues)).add(r.failure_reason);
    jobs.add(static_cast<std::uint64_t>((r.demoted ? 1 : 0) | (r.clock_set_failed ? 2 : 0) |
                                        (r.energy_degraded ? 4 : 0)));
  }
  return fnv_digest{}.add(csv.str()).str() + ":" + jobs.str();
}

const sc::plan_fn& suite_plan() {
  static const sc::plan_fn plan = sc::make_suite_planner("V100");
  return plan;
}

void reset_process_state() {
  synergy::obs::energy_ledger::instance().reset();
  synergy::telemetry::metrics_registry::instance().reset_values();
}

sc::job_trace parity_trace(std::uint64_t seed, std::size_t n_jobs, double interarrival_s) {
  sc::trace_config tc;
  tc.seed = seed;
  tc.n_jobs = n_jobs;
  tc.mean_interarrival_s = interarrival_s;
  return sc::generate_trace(tc);
}

/// Replay `trace` under `policy_name` and digest the outcome.
std::string parity_run(const sc::cluster_config& cc, const std::string& policy_name,
                       const sc::job_trace& trace, sc::run_summary* out = nullptr) {
  reset_process_state();
  sc::simulator sim{cc, sc::make_policy(policy_name, suite_plan(), std::nullopt, &cc.econ)};
  const auto summary = sim.run(trace);
  if (out) *out = summary;
  return replay_digest(summary, sim);
}

}  // namespace

// Pinned digests of whole replays: every policy at congested (0.5 s) and
// stable (2 s) load, the econ defer rule, cap admission, and a faulted
// chaos run resumed from a mid-run checkpoint. They were taken from a scan
// that offered every queue entry to place(), so any shortcut in the
// scheduling pass that changes which job starts when, or where, shows here.
TEST(SchedulingParity, FifoAndBackfillReplaysAreUnchanged) {
  const sc::cluster_config cc;  // 16x4 V100
  EXPECT_EQ(parity_run(cc, "fifo", parity_trace(101, 400, 0.5)),
            "1905ff0b97d2c517:9fbc0d6619c11efc");
  EXPECT_EQ(parity_run(cc, "backfill", parity_trace(102, 600, 0.5)),
            "1051c796519f87b3:cdeebc5572650805");
  EXPECT_EQ(parity_run(cc, "backfill", parity_trace(103, 600, 2.0)),
            "1bc3c21ca9c18717:99052607df9b8cf0");
}

TEST(SchedulingParity, EnergyAwareReplaysAreUnchanged) {
  const sc::cluster_config cc;
  EXPECT_EQ(parity_run(cc, "energy", parity_trace(104, 400, 0.5)),
            "eefadda25a8cd4cc:2b70080e05d72bbf");
  EXPECT_EQ(parity_run(cc, "energy", parity_trace(105, 400, 2.0)),
            "c077c74df942d280:03258b719b386a6c");
}

// Far over capacity the queue holds thousands of jobs, so backfill
// candidates sit deep behind the head and the pass's search over them is
// what these digests pin.
TEST(SchedulingParity, DeepQueueReplaysAreUnchanged) {
  const sc::cluster_config cc;  // 16x4 V100
  sc::run_summary summary;
  EXPECT_EQ(parity_run(cc, "backfill", parity_trace(109, 3000, 0.5), &summary),
            "4d84672a87379c8e:d69a6e8ba6dd988a");
  EXPECT_GT(summary.mean_wait_s, 500.0);  // hundreds of jobs queued
  EXPECT_EQ(parity_run(cc, "energy", parity_trace(110, 3000, 0.5), &summary),
            "a753ea92e7e41343:3affc6dc67ed7ca6");
  EXPECT_GT(summary.mean_wait_s, 500.0);  // hundreds of jobs queued
}

TEST(SchedulingParity, CostAwareDeferralIsUnchanged) {
  sc::cluster_config cc;
  cc.n_nodes = 4;
  cc.gpus_per_node = 4;
  cc.econ.enabled = true;
  cc.econ.capex_usd_per_node_hour = 0.05;
  // A 400 s tariff, expensive for its first half: deferrable jobs wait for
  // the cheap half, and placements in the pricey half step one clock down.
  cc.econ.price = synergy::econ::step_trace{{{0.0, 0.30}, {200.0, 0.05}}, 400.0};
  cc.econ.carbon = synergy::econ::step_trace{{{0.0, 600.0}, {200.0, 100.0}}, 400.0};
  cc.econ.defer_price_ratio = 1.0;
  cc.econ.demote_price_ratio = 1.3;
  sc::trace_config tc;
  tc.seed = 106;
  tc.n_jobs = 200;
  tc.mean_interarrival_s = 2.0;
  tc.target_mix = {"ES_50", "PL_50", "default"};
  tc.deferrable_fraction = 0.5;
  tc.deadline_slack_s = 700.0;
  const auto trace = sc::generate_trace(tc);

  reset_process_state();
  sc::simulator sim{cc, sc::make_policy("cost", suite_plan(), std::nullopt, &cc.econ)};
  const auto summary = sim.run(trace);
  EXPECT_GT(summary.econ_jobs_deferred, 0u);
  EXPECT_GT(summary.econ_price_demotions, 0u);
  // The cause split pins which joules carry the deferral tag. Re-recorded
  // when a held head stopped holding the EASY reservation: jobs behind it
  // that do not defer now start inside the pricey window.
  fnv_digest causes;
  for (const double v : sim.econ_meter().cost_by_cause()) causes.add(v);
  EXPECT_EQ(replay_digest(summary, sim) + ":" + causes.str(),
            "dc8eae35238ca4b6:e357dc54125ae44c:ca47602d321f8b7d");
}

TEST(SchedulingParity, CapDemotionReplayIsUnchanged) {
  sc::cluster_config cc;
  cc.n_nodes = 4;
  cc.gpus_per_node = 4;
  cc.facility_cap_w = 3500.0;
  sc::run_summary summary;
  EXPECT_EQ(parity_run(cc, "energy", parity_trace(107, 200, 1.0), &summary),
            "b7aebe83f859f8ef:905e0be36c4bdfb3");
  EXPECT_GT(summary.cap_demotions, 0u);
}

TEST(SchedulingParity, ChaosReplayResumedFromACheckpointIsUnchanged) {
  sc::cluster_config cc;
  cc.n_nodes = 6;
  cc.gpus_per_node = 4;
  cc.faults.seed = 11;
  cc.faults.clock_set_fail_rate = 0.05;
  cc.faults.power_read_dropout_rate = 0.05;
  cc.faults.device_lost_rate = 0.01;
  cc.faults.max_node_losses = 1;
  cc.chaos.seed = 77;
  cc.chaos.mtbf_s = 60.0;
  cc.chaos.restart_delay_s = 45.0;
  cc.chaos.max_crashes = 3;
  sc::trace_config tc;
  tc.seed = 108;
  tc.n_jobs = 150;
  tc.gpu_mix = {1, 1, 2, 2, 4};
  tc.mean_interarrival_s = 1.0;
  const auto trace = sc::generate_trace(tc);

  const auto dir = std::filesystem::temp_directory_path() /
                   ("synergy_parity." + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  reset_process_state();
  sc::simulator full{cc, sc::make_policy("energy", suite_plan())};
  full.set_checkpointing({.interval_s = 30.0, .dir = dir});
  const auto full_summary = full.run(trace);
  EXPECT_GT(full_summary.node_crashes, 0u);
  EXPECT_GT(full_summary.requeues, 0u);
  const std::string expected = replay_digest(full_summary, full);

  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::directory_iterator(dir)) files.push_back(e.path());
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 3u);
  const auto payload = sc::read_checkpoint_payload(files[files.size() / 2]);
  ASSERT_TRUE(payload.has_value());
  reset_process_state();
  sc::simulator resumed{cc, sc::make_policy("energy", suite_plan())};
  resumed.set_checkpointing({});
  ASSERT_TRUE(resumed.restore_checkpoint(payload.value(), trace).ok());
  const auto resumed_summary = resumed.resume(trace);
  std::filesystem::remove_all(dir);

  EXPECT_EQ(replay_digest(resumed_summary, resumed), expected);
  EXPECT_EQ(expected, "a524942755db70e1:c7a8948849e969d8");
}

// -------------------------------------------------------------- job queue ----

namespace {

/// The candidate query as a linear filter over the queue in order: the
/// index of the first entry at or after `from` that fits, or -1.
int brute_find(const std::vector<sc::queued_job>& q, std::size_t from, std::size_t free_gpus,
               double now, double reservation) {
  for (std::size_t i = from; i < q.size(); ++i)
    if (static_cast<std::size_t>(q[i].job.n_gpus) <= free_gpus &&
        !(now + q[i].est_runtime_s > reservation))
      return static_cast<int>(i);
  return -1;
}

/// Queue positions of the live entries, in order.
std::vector<std::size_t> positions(const sc::job_queue& q) {
  std::vector<std::size_t> out;
  for (std::size_t p = q.head(); p != sc::job_queue::npos; p = q.next(p)) out.push_back(p);
  return out;
}

}  // namespace

TEST(JobQueue, CandidateIndexMatchesALinearFilterOverRandomQueues) {
  synergy::common::pcg32 rng{0x9e3779b9ULL};
  // Few distinct estimates, so equal estimates are common; `now` runs up to
  // 1e16, where adding an estimate rounds.
  const double ests[] = {0.0, 0.5, 1.0, 1.0, 2.5, 7.0, 100.0, 3600.0};
  const int gpu_counts[] = {1, 1, 2, 4, 8};
  const double nows[] = {0.0, 0.25, 1000.0, 1e16};
  constexpr double inf = std::numeric_limits<double>::infinity();

  sc::job_queue q;
  std::vector<sc::queued_job> ref;
  int next_id = 0;
  std::size_t queries = 0, hits = 0;
  for (int step = 0; step < 20000; ++step) {
    const std::uint32_t op = rng.bounded(10);
    if (op < 5 || ref.empty()) {  // arrival
      sc::queued_job qj;
      qj.job = make_job(next_id++, 0.0, gpu_counts[rng.bounded(5)], 1);
      qj.est_runtime_s = ests[rng.bounded(8)];
      q.push_back(qj);
      ref.push_back(qj);
    } else {  // a start anywhere in the queue, sometimes requeued at the back
      const std::size_t k = rng.bounded(static_cast<std::uint32_t>(ref.size()));
      const auto taken = q.take(positions(q)[k]);
      ASSERT_EQ(taken.job.id, ref[k].job.id);
      ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(k));
      if (op == 9) {
        q.push_back(taken);
        ref.push_back(taken);
      }
    }
    // A long drain now and then, so compaction shrinks a large queue.
    if (step % 5000 == 4999)
      while (ref.size() > 3) {
        (void)q.take(q.head());
        ref.erase(ref.begin());
      }

    ASSERT_EQ(q.size(), ref.size());
    const auto pos = positions(q);
    ASSERT_EQ(pos.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) ASSERT_EQ(q[pos[i]].job.id, ref[i].job.id);

    for (int k = 0; k < 4; ++k) {
      const std::size_t from = ref.empty() ? 0 : rng.bounded(static_cast<std::uint32_t>(ref.size()));
      const std::size_t free_gpus = rng.bounded(10);  // 0 included
      const double now = nows[rng.bounded(4)];
      const std::uint32_t r = rng.bounded(4);
      const double reservation = r == 0   ? inf
                                 : r == 1 ? now
                                          : now + ests[rng.bounded(8)] * (r == 2 ? 1.0 : 0.999);
      const int want = brute_find(ref, from, free_gpus, now, reservation);
      const std::size_t got =
          q.find(ref.empty() ? 0 : pos[from], free_gpus, now, reservation);
      ++queries;
      if (want < 0) {
        ASSERT_EQ(got, sc::job_queue::npos) << "step " << step;
      } else {
        ++hits;
        ASSERT_NE(got, sc::job_queue::npos) << "step " << step;
        ASSERT_EQ(q[got].job.id, ref[static_cast<std::size_t>(want)].job.id) << "step " << step;
      }
    }
  }
  // Both outcomes are exercised often.
  EXPECT_GT(hits, queries / 10);
  EXPECT_LT(hits, queries - queries / 10);
}

TEST(JobQueue, IteratesLiveEntriesInOrderAndRebuildsFromThem) {
  sc::job_queue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.head(), sc::job_queue::npos);
  EXPECT_EQ(q.find(0, 64, 0.0, 1.0), sc::job_queue::npos);
  for (int id = 0; id < 100; ++id) q.push_back({make_job(id, 0.0, 1 + id % 3, 1), 1.0 * id});
  for (int id = 0; id < 100; id += 2) (void)q.take(positions(q)[static_cast<std::size_t>(id / 2)]);
  std::vector<int> ids;
  for (const auto& qj : q) ids.push_back(qj.job.id);
  ASSERT_EQ(ids.size(), 50u);
  for (std::size_t i = 0; i < ids.size(); ++i) EXPECT_EQ(ids[i], static_cast<int>(2 * i + 1));

  const sc::job_queue copy{std::vector<sc::queued_job>(q.begin(), q.end())};
  EXPECT_TRUE(std::equal(q.begin(), q.end(), copy.begin(), copy.end(),
                         [](const sc::queued_job& a, const sc::queued_job& b) {
                           return a.job.id == b.job.id && a.est_runtime_s == b.est_runtime_s;
                         }));
  // Job 1 is the first entry that fits two GPUs and ends by t = 5.
  EXPECT_EQ(copy[copy.find(0, 2, 0.0, 5.0)].job.id, 1);
  EXPECT_EQ(q[q.find(0, 2, 0.0, 5.0)].job.id, 1);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(q.begin() == q.end());
}

// ---------------------------------------------------------- pass contract ----

namespace {

/// Forwarding policy that audits every place() offer. Without faults the
/// queue is every arrived, unstarted job in trace order, and a job at
/// default clocks holds its GPUs for exactly its runtime estimate, so the
/// auditor rebuilds the head and its EASY reservation on its own.
class pass_auditor final : public sc::scheduling_policy {
 public:
  pass_auditor(std::unique_ptr<sc::scheduling_policy> inner, const sc::job_trace& trace)
      : inner_(std::move(inner)), trace_(trace) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] bool backfills() const override { return inner_->backfills(); }

  std::optional<sc::placement> place(const sc::queued_job& job,
                                     const sc::cluster_view& view) override {
    ++offers;
    if (static_cast<std::size_t>(job.job.n_gpus) > view.free_gpus()) ++over_capacity;
    const sc::traced_job& head = queue_head(view.now);
    if (view.is_head) {
      if (job.job.id != head.id) ++wrong_head;
    } else if (view.now + job.est_runtime_s > reservation(view, head.n_gpus)) {
      ++past_reservation;
    }
    auto verdict = inner_->place(job, view);
    if (verdict) {
      started_.insert(job.job.id);
      for (const auto& g : verdict->gpus)
        busy_until_[{g.node, g.gpu}] = view.now + job.est_runtime_s;
    }
    return verdict;
  }

  std::size_t offers{0};
  std::size_t over_capacity{0};
  std::size_t past_reservation{0};
  std::size_t wrong_head{0};

 private:
  [[nodiscard]] const sc::traced_job& queue_head(double now) const {
    for (const auto& j : trace_.jobs)
      if (j.submit_s <= now && !started_.contains(j.id)) return j;
    throw std::logic_error("place() offered with an empty queue");
  }

  /// The head's shadow time: the n-th earliest instant a GPU is free.
  [[nodiscard]] double reservation(const sc::cluster_view& view, int n) const {
    std::vector<double> avail;
    for (std::size_t ni = 0; ni < view.nodes.size(); ++ni)
      for (std::size_t g = 0; g < view.nodes[ni].gpu_busy.size(); ++g)
        avail.push_back(view.nodes[ni].gpu_busy[g] ? busy_until_.at({ni, g}) : view.now);
    if (static_cast<std::size_t>(n) > avail.size()) return std::numeric_limits<double>::infinity();
    std::sort(avail.begin(), avail.end());
    return avail[static_cast<std::size_t>(n) - 1];
  }

  std::unique_ptr<sc::scheduling_policy> inner_;
  const sc::job_trace& trace_;
  std::set<int> started_;
  std::map<std::pair<std::size_t, std::size_t>, double> busy_until_;
};

/// Forwarding policy that logs every defer() and place() call.
class call_log final : public sc::scheduling_policy {
 public:
  struct call {
    double now;
    int id;
    bool is_place;
  };

  explicit call_log(std::unique_ptr<sc::scheduling_policy> inner) : inner_(std::move(inner)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] bool backfills() const override { return inner_->backfills(); }
  [[nodiscard]] bool defer(const sc::queued_job& job,
                           const sc::cluster_view& view) const override {
    calls.push_back({view.now, job.job.id, false});
    return inner_->defer(job, view);
  }
  std::optional<sc::placement> place(const sc::queued_job& job,
                                     const sc::cluster_view& view) override {
    calls.push_back({view.now, job.job.id, true});
    return inner_->place(job, view);
  }

  /// "d<id>" per defer() and "p<id>" per place() call made at `now`.
  [[nodiscard]] std::vector<std::string> at(double now) const {
    std::vector<std::string> out;
    for (const auto& c : calls)
      if (c.now == now) out.push_back((c.is_place ? "p" : "d") + std::to_string(c.id));
    return out;
  }

  mutable std::vector<call> calls;

 private:
  std::unique_ptr<sc::scheduling_policy> inner_;
};

}  // namespace

TEST(SchedulingPass, PlaceIsOnlyOfferedJobsThatCanStartNow) {
  sc::cluster_config cc;
  cc.n_nodes = 4;
  cc.gpus_per_node = 4;
  for (const double interarrival_s : {0.5, 4.0}) {
    const auto trace = parity_trace(211, 300, interarrival_s);
    auto auditor = std::make_unique<pass_auditor>(sc::make_easy_backfill(), trace);
    const pass_auditor& audit = *auditor;
    sc::simulator sim{cc, std::move(auditor)};
    const auto summary = sim.run(trace);
    EXPECT_EQ(summary.completed, trace.jobs.size());
    EXPECT_GT(audit.offers, 0u);
    EXPECT_EQ(audit.over_capacity, 0u) << "interarrival " << interarrival_s;
    EXPECT_EQ(audit.past_reservation, 0u) << "interarrival " << interarrival_s;
    EXPECT_EQ(audit.wrong_head, 0u) << "interarrival " << interarrival_s;
  }
}

TEST(SchedulingPass, DeferIsAskedOfEveryQueuedJobBeforeAnyFilter) {
  // 1 node x 4 GPUs; pricey until t=100. Job 1 fills the node. Jobs 2 (too
  // big for the free GPUs) and 3 (behind the head) are deferrable; job 4
  // is not, but no GPU is free for it.
  sc::cluster_config cc;
  cc.n_nodes = 1;
  cc.gpus_per_node = 4;
  cc.econ.enabled = true;
  cc.econ.price = synergy::econ::step_trace{{{0.0, 0.30}, {100.0, 0.05}, {300.0, 0.05}}, 0.0};
  sc::job_trace trace;
  trace.jobs = {make_job(1, 0.0, 4, 600), make_job(2, 1.0, 4, 10), make_job(3, 2.0, 1, 10),
                make_job(4, 3.0, 1, 10)};
  trace.jobs[1].deferrable = true;
  trace.jobs[2].deferrable = true;

  reset_process_state();
  auto log = std::make_unique<call_log>(sc::make_policy("cost", {}, std::nullopt, &cc.econ));
  const call_log& calls = *log;
  sc::simulator sim{cc, std::move(log)};
  const auto summary = sim.run(trace);
  ASSERT_GT(sim.result(1).end_s, 3.0);

  using v = std::vector<std::string>;
  EXPECT_EQ(calls.at(0.0), (v{"d1", "p1"}));
  EXPECT_EQ(calls.at(1.0), (v{"d2"}));
  EXPECT_EQ(calls.at(2.0), (v{"d2", "d3"}));
  EXPECT_EQ(calls.at(3.0), (v{"d2", "d3", "d4"}));  // no GPU free: job 4 is not offered
  EXPECT_EQ(summary.econ_jobs_deferred, 2u);
  EXPECT_EQ(summary.completed, trace.jobs.size());
  EXPECT_GE(sim.result(2).start_s, 100.0);
  EXPECT_GT(sim.econ_meter().cost_by_cause()[static_cast<std::size_t>(
                synergy::obs::cause::econ_deferred)],
            0.0);
}

TEST(SchedulingPass, DeferredHeadGivesUpItsReservation) {
  // 1 node x 4 GPUs, pricey until t=100. Job 1 (deferrable, the whole node)
  // is held at the head; job 2 is neither deferrable nor in its way.
  sc::cluster_config cc;
  cc.n_nodes = 1;
  cc.gpus_per_node = 4;
  cc.econ.enabled = true;
  cc.econ.price = synergy::econ::step_trace{{{0.0, 0.30}, {100.0, 0.05}, {300.0, 0.05}}, 0.0};
  sc::job_trace trace;
  trace.jobs = {make_job(1, 0.0, 4, 10), make_job(2, 1.0, 1, 10)};
  trace.jobs[0].deferrable = true;

  reset_process_state();
  sc::simulator sim{cc, sc::make_policy("cost", {}, std::nullopt, &cc.econ)};
  const auto summary = sim.run(trace);
  EXPECT_EQ(summary.completed, 2u);
  EXPECT_EQ(summary.econ_jobs_deferred, 1u);
  // With GPUs free the held head would reserve them from now on, and job 2
  // would wait for the price boundary.
  EXPECT_EQ(sim.result(2).start_s, 1.0);
  EXPECT_GE(sim.result(1).start_s, 100.0);
}

TEST(SchedulingPass, ResultLookupRejectsUnknownIds) {
  sc::cluster_config cc;
  cc.n_nodes = 1;
  cc.gpus_per_node = 2;
  sc::simulator sim{cc, sc::make_fifo()};
  EXPECT_THROW((void)sim.result(1), std::out_of_range);
  sc::job_trace trace;
  trace.jobs = {make_job(7, 0.0, 1, 10), make_job(3, 1.0, 2, 10)};
  sim.run(trace);
  EXPECT_EQ(sim.result(7).id, 7);
  EXPECT_EQ(sim.result(3).n_gpus, 2);
  EXPECT_THROW((void)sim.result(1), std::out_of_range);
  EXPECT_THROW((void)sim.result(-7), std::out_of_range);
}

// ----------------------------------------------------------- chaos outage ----

namespace {

/// The crash time of a one-crash chaos plan: the simulator draws it as the
/// first exponential inter-arrival of the chaos stream.
double first_crash_s(const sc::chaos_plan& chaos) {
  synergy::common::pcg32 rng{chaos.seed};
  return -chaos.mtbf_s * std::log1p(-rng.uniform());
}

}  // namespace

TEST(ChaosOutage, FullFleetJobArrivingDuringAnOutageWaitsForTheRestart) {
  sc::cluster_config cc;
  cc.n_nodes = 2;
  cc.gpus_per_node = 4;
  cc.chaos.mtbf_s = 50.0;
  cc.chaos.restart_delay_s = 100.0;
  cc.chaos.max_crashes = 1;
  const double crash_s = first_crash_s(cc.chaos);
  sc::job_trace trace;
  trace.jobs = {make_job(1, crash_s + 1.0, 8, 10)};

  sc::simulator sim{cc, sc::make_easy_backfill()};
  const auto summary = sim.run(trace);
  EXPECT_EQ(summary.node_crashes, 1u);
  EXPECT_EQ(summary.node_restarts, 1u);
  const auto& r = sim.result(1);
  EXPECT_EQ(r.state, ss::job_state::completed) << r.failure_reason;
  EXPECT_GE(r.start_s, crash_s + cc.chaos.restart_delay_s);
  EXPECT_EQ(summary.completed, 1u);
}

TEST(ChaosOutage, PermanentLossStillFailsAJobTheFleetCanNoLongerHold) {
  sc::cluster_config cc;
  cc.n_nodes = 2;
  cc.gpus_per_node = 4;
  cc.chaos.mtbf_s = 50.0;
  cc.chaos.restart_delay_s = 0.0;  // crashed nodes never return
  cc.chaos.max_crashes = 1;
  sc::job_trace trace;
  trace.jobs = {make_job(1, first_crash_s(cc.chaos) + 1.0, 8, 10)};

  sc::simulator sim{cc, sc::make_easy_backfill()};
  const auto summary = sim.run(trace);
  EXPECT_EQ(summary.node_crashes, 1u);
  EXPECT_EQ(sim.result(1).state, ss::job_state::failed);
  EXPECT_EQ(sim.result(1).failure_reason, "requests more GPUs than the cluster has");
}
