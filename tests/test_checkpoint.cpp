/// Checkpoint/resume tests: periodic checkpointing must be inert (a
/// checkpointed replay is byte-identical to an uncheckpointed one), every
/// mid-run artefact must restore + resume to the byte-identical final
/// summary of the uninterrupted run, node-level chaos must conserve energy
/// in the ledger, and corrupted artefacts must fail closed — structured
/// errors, never throws, never a partial restore.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "synergy/cluster/checkpoint.hpp"
#include "synergy/cluster/simulator.hpp"
#include "synergy/common/envelope.hpp"
#include "synergy/common/rng.hpp"
#include "synergy/obs/energy_ledger.hpp"
#include "synergy/obs/snapshot.hpp"
#include "synergy/telemetry/metrics_registry.hpp"

namespace sc = synergy::cluster;
namespace obs = synergy::obs;
namespace tel = synergy::telemetry;
namespace env = synergy::common::envelope;

using synergy::common::pcg32;

// Ledger charges flow through SYNERGY_CHARGE_ENERGY sites; with
// -DSYNERGY_TELEMETRY=OFF those compile to nothing, so conservation
// assertions against the ledger are skipped (byte-identity still holds).
#if SYNERGY_TELEMETRY_ENABLED
#define SYNERGY_REQUIRE_CHARGE_SITES() ((void)0)
#else
#define SYNERGY_REQUIRE_CHARGE_SITES() \
  GTEST_SKIP() << "charge sites compiled out (SYNERGY_TELEMETRY=OFF)"
#endif

namespace {

std::filesystem::path temp_dir(const char* name) {
  // ctest runs each test case as its own process, possibly in parallel; a
  // per-process suffix keeps concurrent cases out of each other's directories.
  const auto dir = std::filesystem::temp_directory_path() /
                   (std::string{name} + "." + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in{p, std::ios::binary};
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

void write_file(const std::filesystem::path& p, const std::string& content) {
  std::ofstream out{p, std::ios::binary};
  out << content;
}

/// Apply one seeded mutation to `text`: bit-flip, truncation, or splice
/// (copy a chunk of the text over another position).
std::string mutate(const std::string& text, pcg32& rng) {
  if (text.empty()) return text;
  std::string out = text;
  const auto n = static_cast<std::uint32_t>(out.size());
  switch (rng.bounded(3)) {
    case 0: {  // bit flip
      const auto pos = rng.bounded(n);
      out[pos] = static_cast<char>(out[pos] ^ (1u << rng.bounded(8)));
      break;
    }
    case 1: {  // truncate
      out.resize(rng.bounded(n));
      break;
    }
    default: {  // splice
      const auto len = 1 + rng.bounded(std::max(1u, n / 4));
      const auto span = n > len ? n - len : 1;
      const auto src = rng.bounded(span);
      const auto dst = rng.bounded(span);
      out.replace(dst, len, text.substr(src, len));
      break;
    }
  }
  return out;
}

/// The replay every test here checkpoints: faults AND node chaos enabled, so
/// the serialized state exercises every persisted event kind (pending
/// faults, crashes, restarts, requeues) rather than just arrivals and
/// completions.
sc::cluster_config chaotic_config() {
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
  cc.chaos.max_crashes = 2;
  cc.obs_scrape_interval_s = 5.0;
  return cc;
}

sc::job_trace chaotic_trace() {
  sc::trace_config tc;
  tc.n_jobs = 80;
  tc.seed = 7;
  tc.gpu_mix = {1, 1, 2, 2, 4};  // jobs must still fit a degraded inventory
  return sc::generate_trace(tc);
}

std::string csv_of(const sc::run_summary& summary) {
  std::ostringstream os;
  summary.csv(os);
  return os.str();
}

/// Render the global ledger with pinned sequence/time so two renders differ
/// only if the accounting itself differs.
std::string ledger_json() {
  obs::snapshot_options opts;
  opts.sequence = 1;
  opts.time_s = 0.0;
  return obs::render_json(obs::energy_ledger::instance(), nullptr, opts);
}

/// Arm a fresh simulator for restore_checkpoint() without periodic
/// checkpointing (interval 0: restore/resume only).
void enable_restore(sc::simulator& sim) { sim.set_checkpointing(sc::checkpoint_options{}); }

void reset_globals() {
  obs::energy_ledger::instance().reset();
  obs::energy_ledger::instance().set_enabled(true);
  tel::metrics_registry::instance().reset_values();
}

class checkpoint_test : public ::testing::Test {
 protected:
  void SetUp() override { reset_globals(); }
  void TearDown() override { obs::energy_ledger::instance().reset(); }
};

/// A payload split into lines, with the event records located: the
/// `events <now> <next_seq> <count>` header is followed by one
/// `<t> <seq> <kind> <id>` line per pending event.
struct payload_lines {
  std::vector<std::string> lines;
  std::size_t events{0};  ///< index of the events header line

  explicit payload_lines(const std::string& payload) {
    std::istringstream in{payload};
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    while (events < lines.size() && !lines[events].starts_with("events ")) ++events;
  }
  [[nodiscard]] static std::vector<std::string> tokens(const std::string& line) {
    std::istringstream in{line};
    std::vector<std::string> out;
    for (std::string t; in >> t;) out.push_back(t);
    return out;
  }
  [[nodiscard]] std::size_t event_count() const {
    return std::stoul(tokens(lines.at(events)).at(3));
  }
  /// Tokens of the i-th event record.
  [[nodiscard]] std::vector<std::string> event(std::size_t i) const {
    return tokens(lines.at(events + 1 + i));
  }
  /// Index of the first event record of `kind`, or event_count().
  [[nodiscard]] std::size_t find(sc::event_kind kind) const {
    std::size_t i = 0;
    while (i < event_count() && event(i)[2] != std::to_string(static_cast<int>(kind))) ++i;
    return i;
  }
  void set_event(std::size_t i, const std::vector<std::string>& tok) {
    lines.at(events + 1 + i) = tok[0] + " " + tok[1] + " " + tok[2] + " " + tok[3];
  }
  /// First token after `section` on its header line.
  [[nodiscard]] std::string first_of(const std::string& section) const {
    for (const auto& l : lines)
      if (l.starts_with(section + " ")) return tokens(l).at(1);
    return {};
  }
  [[nodiscard]] std::string join() const {
    std::string out;
    for (const auto& l : lines) out += l + "\n";
    return out;
  }
};

/// The 16-hex IEEE-754 token a payload carries for `v`.
std::string hex_double(double v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  return buf;
}

/// Sorted list of checkpoint artefacts in `dir`.
std::vector<std::filesystem::path> checkpoint_files(const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    if (e.is_regular_file()) files.push_back(e.path());
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace

// ------------------------------------------------- checkpointing is inert ----

TEST_F(checkpoint_test, PeriodicCheckpointingDoesNotPerturbTheReplay) {
  const auto trace = chaotic_trace();
  const auto cc = chaotic_config();

  sc::simulator ref{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
  const auto csv_ref = csv_of(ref.run(trace));
  const auto json_ref = ledger_json();

  const auto dir = temp_dir("synergy_ckpt_inert");
  reset_globals();
  sc::simulator sim{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
  sc::checkpoint_options opts;
  opts.interval_s = 20.0;
  opts.dir = dir;
  sim.set_checkpointing(std::move(opts));
  const auto csv_ckpt = csv_of(sim.run(trace));

  // The checkpoint tick is a pure observer: byte-identical summary and
  // byte-identical ledger accounting, with artefacts actually on disk.
  EXPECT_EQ(csv_ckpt, csv_ref);
  EXPECT_EQ(ledger_json(), json_ref);
  EXPECT_GE(sim.checkpoints_written(), 3u);
  EXPECT_GE(checkpoint_files(dir).size(), 3u);

  std::filesystem::remove_all(dir);
}

// ------------------------------------------------ resume byte-identity ----

TEST_F(checkpoint_test, EveryMidRunCheckpointResumesByteIdentical) {
  const auto trace = chaotic_trace();
  const auto cc = chaotic_config();

  sc::simulator ref{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
  const auto summary_ref = ref.run(trace);
  const auto csv_ref = csv_of(summary_ref);
  const auto json_ref = ledger_json();
  ASSERT_EQ(summary_ref.completed + summary_ref.failed, trace.jobs.size());

  const auto dir = temp_dir("synergy_ckpt_resume");
  reset_globals();
  {
    sc::simulator sim{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
    sc::checkpoint_options opts;
    opts.interval_s = 20.0;
    opts.dir = dir;
    sim.set_checkpointing(std::move(opts));
    ASSERT_EQ(csv_of(sim.run(trace)), csv_ref);
  }
  const auto files = checkpoint_files(dir);
  ASSERT_GE(files.size(), 3u);

  for (const auto& file : files) {
    const auto payload = sc::read_checkpoint_payload(file);
    ASSERT_TRUE(payload.has_value()) << file << ": " << payload.err().message;

    // Dirty the globals first: a restore must overwrite, not merge.
    reset_globals();
    obs::energy_ledger::instance().charge({"stale", "V100", "job", "k"},
                                          obs::cause::idle, 1234.5);

    sc::simulator resumed{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
    enable_restore(resumed);
    const auto st = resumed.restore_checkpoint(payload.value(), trace);
    ASSERT_TRUE(st.ok()) << file << ": " << st.err().message;
    const auto summary = resumed.resume(trace);

    // Byte-identical summary CSV and ledger snapshot from any resume point.
    EXPECT_EQ(csv_of(summary), csv_ref) << "resumed from " << file;
    EXPECT_EQ(ledger_json(), json_ref) << "resumed from " << file;
    ASSERT_EQ(resumed.results().size(), ref.results().size());
    for (std::size_t i = 0; i < ref.results().size(); ++i) {
      EXPECT_EQ(resumed.results()[i].id, ref.results()[i].id);
      // Exact double equality on purpose: the contract is bit-identity.
      EXPECT_EQ(resumed.results()[i].gpu_energy_j, ref.results()[i].gpu_energy_j);
      EXPECT_EQ(resumed.results()[i].end_s, ref.results()[i].end_s);
      EXPECT_EQ(resumed.results()[i].requeues, ref.results()[i].requeues);
    }
  }

  std::filesystem::remove_all(dir);
}

// -------------------------------------------- chaos conserves the ledger ----

TEST_F(checkpoint_test, NodeChaosReplaysConserveEnergyAcrossResume) {
  SYNERGY_REQUIRE_CHARGE_SITES();
  const auto trace = chaotic_trace();
  const auto cc = chaotic_config();

  const auto dir = temp_dir("synergy_ckpt_chaos");
  sc::simulator sim{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
  sc::checkpoint_options opts;
  opts.interval_s = 20.0;
  opts.dir = dir;
  sim.set_checkpointing(std::move(opts));
  const auto summary = sim.run(trace);

  // The chaos plan actually fired and lost no work.
  ASSERT_GT(summary.node_crashes, 0u);
  ASSERT_GT(summary.node_restarts, 0u);
  EXPECT_EQ(summary.completed + summary.failed, trace.jobs.size());
  EXPECT_GT(summary.wasted_gpu_energy_j, 0.0);

  // Ledger conservation: every simulated joule (busy + crash-wasted) lands
  // in the ledger exactly once, within 0.1% for accumulation order.
  const auto check_conservation = [&](const sc::run_summary& s) {
    auto& l = obs::energy_ledger::instance();
    const double simulated = s.total_gpu_energy_j + s.wasted_gpu_energy_j;
    ASSERT_GT(simulated, 0.0);
    EXPECT_NEAR(l.total_j(), simulated, 1e-3 * simulated);
    double cause_sum = 0.0;
    for (const double c : l.totals_by_cause()) cause_sum += c;
    EXPECT_NEAR(cause_sum, l.total_j(), 1e-9 * std::max(1.0, l.total_j()));
    EXPECT_NEAR(l.totals_by_cause()[static_cast<std::size_t>(obs::cause::fault_wasted)],
                s.wasted_gpu_energy_j, 1e-6 * std::max(1.0, s.wasted_gpu_energy_j));
  };
  check_conservation(summary);

  // And conservation survives a restore + resume from the latest artefact.
  const auto latest = sc::latest_checkpoint(dir);
  ASSERT_TRUE(latest.has_value()) << latest.err().message;
  const auto payload = sc::read_checkpoint_payload(latest.value());
  ASSERT_TRUE(payload.has_value()) << payload.err().message;
  reset_globals();
  sc::simulator resumed{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
  enable_restore(resumed);
  ASSERT_TRUE(resumed.restore_checkpoint(payload.value(), trace).ok());
  const auto summary2 = resumed.resume(trace);
  EXPECT_EQ(summary2.node_crashes, summary.node_crashes);
  EXPECT_EQ(summary2.node_restarts, summary.node_restarts);
  check_conservation(summary2);

  std::filesystem::remove_all(dir);
}

// ------------------------------------------------- fail-closed restores ----

TEST_F(checkpoint_test, RestoreRejectsWrongTraceAndWrongCluster) {
  const auto trace = chaotic_trace();
  const auto cc = chaotic_config();

  sc::simulator sim{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
  sc::checkpoint_options opts;
  opts.interval_s = 20.0;
  opts.dir = temp_dir("synergy_ckpt_reject");
  const auto dir = opts.dir;
  sim.set_checkpointing(std::move(opts));
  (void)sim.run(trace);
  const auto latest = sc::latest_checkpoint(dir);
  ASSERT_TRUE(latest.has_value());
  const auto payload = sc::read_checkpoint_payload(latest.value());
  ASSERT_TRUE(payload.has_value());

  // Different trace: the recorded trace CRC must not match.
  auto other_trace = chaotic_trace();
  other_trace.jobs[0].iterations += 1;
  {
    reset_globals();
    sc::simulator fresh{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
    enable_restore(fresh);
    const auto st = fresh.restore_checkpoint(payload.value(), other_trace);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.err().message.find("trace"), std::string::npos) << st.err().message;
  }

  // Different cluster shape: the config fingerprint must not match.
  auto other_cc = cc;
  other_cc.n_nodes += 1;
  {
    reset_globals();
    sc::simulator fresh{other_cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
    enable_restore(fresh);
    const auto st = fresh.restore_checkpoint(payload.value(), trace);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.err().message.find("fingerprint"), std::string::npos) << st.err().message;
  }

  std::filesystem::remove_all(dir);
}

TEST_F(checkpoint_test, LatestCheckpointFailsClosedOnMissingOrForeignDirs) {
  const auto dir = temp_dir("synergy_ckpt_latest");

  // Missing directory.
  EXPECT_FALSE(sc::latest_checkpoint(dir / "nope").has_value());
  // Empty directory.
  EXPECT_FALSE(sc::latest_checkpoint(dir).has_value());
  // Foreign files only.
  write_file(dir / "notes.txt", "not a checkpoint");
  write_file(dir / "ckpt-junk.synergy", "wrong name shape");
  EXPECT_FALSE(sc::latest_checkpoint(dir).has_value());
  // Real artefact names: the numerically-highest one wins.
  write_file(dir / sc::checkpoint_file_name(3), "x");
  write_file(dir / sc::checkpoint_file_name(12), "y");
  const auto latest = sc::latest_checkpoint(dir);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest.value().filename().string(), sc::checkpoint_file_name(12));
  // ...but an unreadable payload still fails closed at open time.
  EXPECT_FALSE(sc::read_checkpoint_payload(latest.value()).has_value());

  std::filesystem::remove_all(dir);
}

// --------------------------------------------------- corruption fuzzing ----

TEST_F(checkpoint_test, CorruptionFuzzMutatedArtefactsFailClosed) {
  const auto trace = chaotic_trace();
  const auto cc = chaotic_config();

  const auto dir = temp_dir("synergy_ckpt_fuzz");
  sc::simulator sim{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
  sc::checkpoint_options opts;
  opts.interval_s = 20.0;
  opts.dir = dir;
  sim.set_checkpointing(std::move(opts));
  (void)sim.run(trace);
  const auto latest = sc::latest_checkpoint(dir);
  ASSERT_TRUE(latest.has_value());
  const auto sealed = read_file(latest.value());
  ASSERT_FALSE(sealed.empty());
  const auto payload = sc::read_checkpoint_payload(latest.value());
  ASSERT_TRUE(payload.has_value());

  reset_globals();
  sc::simulator victim{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
  enable_restore(victim);
  const auto mutant_file = dir / "mutant.synergy";

  // Mutations of the sealed artefact: the envelope (magic, size, CRC-32)
  // must catch essentially everything at open time; whatever squeaks
  // through must still restore-or-reject without throwing.
  pcg32 rng{0xcafe0001u};
  for (int i = 0; i < 200; ++i) {
    const auto bad = mutate(sealed, rng);
    if (bad == sealed) continue;
    write_file(mutant_file, bad);
    const auto opened = sc::read_checkpoint_payload(mutant_file);
    if (!opened.has_value()) {
      EXPECT_FALSE(opened.err().message.empty());
      continue;
    }
    // A mutation that preserved the checksum reproduced the payload.
    const auto st = victim.restore_checkpoint(opened.value(), trace);  // must not throw
    if (!st.ok()) EXPECT_FALSE(st.err().message.empty());
  }

  // Mutations of the *payload*, re-sealed with a valid envelope: a hostile
  // artefact with a correct CRC. The parser/validator must reject or accept
  // structurally — never throw, never leave a partial restore that crashes
  // a subsequent resume.
  pcg32 rng2{0xcafe0002u};
  for (int i = 0; i < 200; ++i) {
    const auto bad = mutate(payload.value(), rng2);
    const auto st = victim.restore_checkpoint(bad, trace);  // must not throw
    if (!st.ok()) EXPECT_FALSE(st.err().message.empty());
  }

  // The victim simulator is still coherent: a clean restore + resume after
  // all that fuzzing reproduces the uninterrupted run's job outcomes.
  reset_globals();
  ASSERT_TRUE(victim.restore_checkpoint(payload.value(), trace).ok());
  const auto summary = victim.resume(trace);
  EXPECT_EQ(summary.completed + summary.failed, trace.jobs.size());

  std::filesystem::remove_all(dir);
}

// ------------------------------------------------- one schema, both ways ----

TEST_F(checkpoint_test, RestoreThenSerializeReproducesEveryArtefact) {
  const auto trace = chaotic_trace();
  const auto cc = chaotic_config();

  // The metrics registry is process-global and keeps every instrument it
  // ever created (zeroed, not removed, on restore). Register them all with
  // one plain replay first, so every artefact and every re-serialization
  // lists the same instrument set.
  {
    sc::simulator warm{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
    (void)warm.run(trace);
  }
  reset_globals();

  const auto dir = temp_dir("synergy_ckpt_symmetry");
  {
    sc::simulator sim{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
    sc::checkpoint_options opts;
    opts.interval_s = 20.0;
    opts.dir = dir;
    sim.set_checkpointing(std::move(opts));
    (void)sim.run(trace);
  }
  const auto files = checkpoint_files(dir);
  ASSERT_GE(files.size(), 3u);
  for (const auto& file : files) {
    const auto payload = sc::read_checkpoint_payload(file);
    ASSERT_TRUE(payload.has_value()) << file << ": " << payload.err().message;
    reset_globals();
    sc::simulator sim{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
    enable_restore(sim);
    const auto st = sim.restore_checkpoint(payload.value(), trace);
    ASSERT_TRUE(st.ok()) << file << ": " << st.err().message;
    // The writer and the reader walk one schema: whatever the reader
    // accepted, the writer renders back byte for byte.
    EXPECT_EQ(sim.serialize_checkpoint(), payload.value()) << file;
  }

  std::filesystem::remove_all(dir);
}

TEST_F(checkpoint_test, VersionOneArtefactsFailClosedNamingTheVersion) {
  const auto trace = chaotic_trace();
  const auto cc = chaotic_config();
  const auto dir = temp_dir("synergy_ckpt_v1");
  sc::simulator sim{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
  sc::checkpoint_options opts;
  opts.interval_s = 20.0;
  opts.dir = dir;
  sim.set_checkpointing(std::move(opts));
  (void)sim.run(trace);
  const auto latest = sc::latest_checkpoint(dir);
  ASSERT_TRUE(latest.has_value());
  const auto payload = sc::read_checkpoint_payload(latest.value());
  ASSERT_TRUE(payload.has_value());

  // An artefact sealed at envelope version 1 still opens (1 <= 2); its v1
  // payload header must then stop the restore with a diagnostic naming it.
  std::string v1 = payload.value();
  ASSERT_EQ(v1.rfind("synergy_ckpt 2\n", 0), 0u);
  v1.replace(0, 15, "synergy_ckpt 1\n");
  write_file(dir / "v1.synergy", env::seal(sc::checkpoint_kind, 1, v1));
  const auto opened = sc::read_checkpoint_payload(dir / "v1.synergy");
  ASSERT_TRUE(opened.has_value()) << opened.err().message;

  reset_globals();
  sc::simulator fresh{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
  enable_restore(fresh);
  const auto st = fresh.restore_checkpoint(opened.value(), trace);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.err().message.find("version 1"), std::string::npos) << st.err().message;

  std::filesystem::remove_all(dir);
}

TEST_F(checkpoint_test, CorruptionFuzzHostileEventRecordsFailClosed) {
  const auto trace = chaotic_trace();
  const auto cc = chaotic_config();
  const auto dir = temp_dir("synergy_ckpt_events");
  {
    sc::simulator sim{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
    sc::checkpoint_options opts;
    opts.interval_s = 20.0;
    opts.dir = dir;
    sim.set_checkpointing(std::move(opts));
    (void)sim.run(trace);
  }
  // The first artefact still has pending arrivals next to the completions.
  const auto payload = sc::read_checkpoint_payload(checkpoint_files(dir).front());
  ASSERT_TRUE(payload.has_value());
  const payload_lines clean{payload.value()};
  ASSERT_LT(clean.events, clean.lines.size());
  const std::size_t first_arrival = clean.find(sc::event_kind::arrival);
  const std::size_t first_completion = clean.find(sc::event_kind::completion);
  ASSERT_LT(first_arrival + 1, clean.event_count());
  ASSERT_EQ(clean.event(first_arrival + 1)[2], "0") << "need two pending arrivals";
  ASSERT_LT(first_completion, clean.event_count());
  const std::string now = clean.tokens(clean.lines[clean.events]).at(1);
  const double now_s = std::bit_cast<double>(std::uint64_t{std::stoull(now, nullptr, 16)});
  ASSERT_GT(now_s, 1.0);

  // Each hostile variant keeps the payload well-formed everywhere else.
  using edit = void (*)(payload_lines&, std::size_t, std::size_t, double, const std::string&);
  const std::vector<std::pair<std::string, edit>> variants = {
      {"unknown event kind",
       [](payload_lines& p, std::size_t a, std::size_t, double, const std::string&) {
         auto e = p.event(a);
         e[2] = "8";  // checkpoint_tick: process-local, never persisted
         p.set_event(a, e);
       }},
      {"arrival index past the trace",
       [](payload_lines& p, std::size_t a, std::size_t, double, const std::string&) {
         auto e = p.event(a);
         e[3] = "80";
         p.set_event(a, e);
       }},
      {"two arrivals for one index",
       [](payload_lines& p, std::size_t a, std::size_t, double, const std::string&) {
         auto e = p.event(a + 1);
         e[3] = p.event(a)[3];
         p.set_event(a + 1, e);
       }},
      {"completion epoch at next_epoch",
       [](payload_lines& p, std::size_t, std::size_t c, double, const std::string& next_epoch) {
         auto e = p.event(c);
         e[3] = next_epoch;
         p.set_event(c, e);
       }},
      {"event before the restored clock",
       [](payload_lines& p, std::size_t a, std::size_t, double now_s, const std::string&) {
         auto e = p.event(a);
         e[0] = hex_double(now_s - 1.0);
         p.set_event(a, e);
       }},
      {"node event for a node the run never had",
       [](payload_lines& p, std::size_t a, std::size_t, double, const std::string&) {
         auto e = p.event(a);
         e[2] = std::to_string(static_cast<int>(sc::event_kind::node_restart));
         e[3] = "6";  // the cluster has nodes 0..5
         p.set_event(a, e);
       }},
  };

  reset_globals();
  sc::simulator victim{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
  enable_restore(victim);
  ASSERT_TRUE(victim.restore_checkpoint(payload.value(), trace).ok());
  const std::string before = victim.serialize_checkpoint();

  for (const auto& [what, apply] : variants) {
    payload_lines hostile = clean;
    apply(hostile, first_arrival, first_completion, now_s, clean.first_of("counts"));
    const std::string bad = hostile.join();
    ASSERT_NE(bad, payload.value()) << what;
    const auto st = victim.restore_checkpoint(bad, trace);  // must not throw
    ASSERT_FALSE(st.ok()) << what;
    EXPECT_NE(st.err().message.find("events"), std::string::npos)
        << what << ": " << st.err().message;
    // Fail-closed: the earlier successful restore is still what it was.
    EXPECT_EQ(victim.serialize_checkpoint(), before) << what;
  }

  // And the untouched victim still resumes to the run's full job count.
  const auto summary = victim.resume(trace);
  EXPECT_EQ(summary.completed + summary.failed, trace.jobs.size());

  std::filesystem::remove_all(dir);
}

TEST_F(checkpoint_test, RestoreRejectsMoreNodeRestartsThanCrashes) {
  // Arrivals count crashed nodes still due back (crashes - restarts)
  // towards the fleet, so restore refuses counts that would wrap that.
  const auto trace = chaotic_trace();
  const auto cc = chaotic_config();
  const auto dir = temp_dir("synergy_ckpt_counts");
  {
    sc::simulator sim{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
    sc::checkpoint_options opts;
    opts.interval_s = 20.0;
    opts.dir = dir;
    sim.set_checkpointing(std::move(opts));
    (void)sim.run(trace);
  }
  const auto payload = sc::read_checkpoint_payload(checkpoint_files(dir).back());
  ASSERT_TRUE(payload.has_value());
  payload_lines hostile{payload.value()};
  auto counts = std::find_if(hostile.lines.begin(), hostile.lines.end(),
                             [](const std::string& l) { return l.starts_with("counts "); });
  ASSERT_NE(counts, hostile.lines.end());
  // counts <next_epoch> <clock_set_faults> <degraded> <requeues> <nodes_lost>
  //        <node_crashes> <node_restarts> ...
  auto tok = payload_lines::tokens(*counts);
  ASSERT_GT(tok.size(), 7u);
  tok[7] = std::to_string(std::stoull(tok[6]) + 1);
  std::string line = tok[0];
  for (std::size_t i = 1; i < tok.size(); ++i) line += " " + tok[i];
  *counts = line;

  reset_globals();
  sc::simulator victim{cc, sc::make_energy_aware(sc::make_suite_planner(cc.device))};
  enable_restore(victim);
  ASSERT_TRUE(victim.restore_checkpoint(payload.value(), trace).ok());
  const auto st = victim.restore_checkpoint(hostile.join(), trace);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.err().message.find("more node restarts than crashes"), std::string::npos)
      << st.err().message;
  std::filesystem::remove_all(dir);
}
