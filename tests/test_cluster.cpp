// Tests for the discrete-event cluster simulator: engine ordering and
// determinism, the synthetic trace generator and its CSV round-trip, the
// three scheduling policies, facility power budgeting, and the
// reproducibility of the summary CSV.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "synergy/cluster/simulator.hpp"
#include "synergy/common/rng.hpp"
#include "synergy/gpusim/dvfs_model.hpp"
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

const sc::job_result& result_for(const sc::simulator& sim, int id) {
  for (const auto& r : sim.results())
    if (r.id == id) return r;
  throw std::out_of_range("no such job");
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

  EXPECT_GT(result_for(fifo, 3).queue_wait_s, 0.0);       // stuck behind B
  EXPECT_DOUBLE_EQ(result_for(easy, 3).queue_wait_s, 0.0);  // backfilled
  // The head is never delayed by the backfill.
  EXPECT_DOUBLE_EQ(result_for(easy, 2).start_s, result_for(fifo, 2).start_s);
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
  EXPECT_EQ(result_for(sim, 1).state, ss::job_state::failed);
  EXPECT_EQ(result_for(sim, 2).state, ss::job_state::completed);
  EXPECT_EQ(summary.failed, 1u);

  // A cap below the job's minimum draw also fails it at arrival.
  cc.facility_cap_w = 460.0;  // host 350 + 2 idle GPUs is ~430 W
  sc::job_trace hot;
  hot.jobs = {make_job(1, 0.0, 2, 50)};
  sc::simulator capped{cc, sc::make_fifo()};
  capped.run(hot);
  EXPECT_EQ(result_for(capped, 1).state, ss::job_state::failed);
  EXPECT_FALSE(result_for(capped, 1).failure_reason.empty());
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
  const auto& r = result_for(sim, 1);
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
