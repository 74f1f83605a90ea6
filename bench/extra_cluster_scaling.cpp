/// Cluster-scale energy/makespan study (beyond the paper's single-node
/// evaluation): the same Poisson job trace replayed at 16 -> 256 GPUs under
/// FIFO, EASY backfill, and the energy-aware policy at MIN_EDP / ES_50 /
/// PL_50. The per-kernel savings of Sec. 8.3 compose across a cluster: the
/// energy policy keeps (or beats) backfill's makespan while cutting GPU
/// energy, which is the paper's "scalable energy saving" claim at facility
/// scale.
///
/// The arrival rate scales with the GPU count so every cluster sees the
/// same offered load per GPU; each scale replays one fixed-seed trace under
/// all five schedulers, so rows differ only by policy.
///
/// The second part is a jobs axis for the replay itself: EASY backfill on
/// 16x4 V100s at stable load (2 s mean interarrival; 62.5k, 250k and 10^6
/// jobs) and congested load (0.5 s; 2k, 8k and 32k jobs), reporting wall
/// time, jobs/s, events/s, place() calls per job and peak RSS. The results
/// go to BENCH_cluster_replay.json at the source root (or --out PATH). The
/// run exits 1 unless both regimes scale roughly linearly, where linear is
/// 4x: stable load wall(10^6 jobs) <= 5 x wall(250k jobs), and congested
/// load wall(32k jobs) <= 5 x wall(8k jobs). Each congested row reports
/// the fastest of five runs.
///
///   extra_cluster_scaling [--out PATH]

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "synergy/cluster/simulator.hpp"
#include "synergy/common/csv.hpp"
#include "synergy/common/table.hpp"

namespace sc = synergy::cluster;
namespace sm = synergy::metrics;
using synergy::common::text_table;

namespace {

struct policy_case {
  std::string label;
  std::string policy;
  std::optional<sm::target> target;
};

/// Forwarding policy that counts place() calls.
class counting_policy final : public sc::scheduling_policy {
 public:
  explicit counting_policy(std::unique_ptr<sc::scheduling_policy> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] bool backfills() const override { return inner_->backfills(); }
  std::optional<sc::placement> place(const sc::queued_job& job,
                                     const sc::cluster_view& view) override {
    ++calls;
    return inner_->place(job, view);
  }

  std::size_t calls{0};

 private:
  std::unique_ptr<sc::scheduling_policy> inner_;
};

/// A load level of the jobs axis: one trace seed, three sizes.
struct regime {
  const char* name;
  double interarrival_s;
  std::size_t jobs[3];
};

constexpr std::uint64_t replay_seed = 2023;
constexpr regime congested{"congested", 0.5, {2000, 8000, 32000}};
constexpr regime stable{"stable", 2.0, {62500, 250000, 1000000}};

/// One timed replay of the jobs axis.
struct replay_row {
  std::string regime;
  double interarrival_s{0.0};
  std::size_t jobs{0};
  std::size_t completed{0};
  double wall_s{0.0};
  std::uint64_t events{0};
  double place_calls_per_job{0.0};
  double peak_rss_mb{0.0};
};

/// Process peak RSS so far; rows run in ascending size, so each row's value
/// is (to within the smaller rows before it) that replay's own peak.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

replay_row time_replay(const sc::cluster_config& cc, const regime& load, std::size_t n_jobs) {
  sc::trace_config tc;
  tc.seed = replay_seed;
  tc.n_jobs = n_jobs;
  tc.mean_interarrival_s = load.interarrival_s;
  const auto trace = sc::generate_trace(tc);

  auto counter = std::make_unique<counting_policy>(sc::make_easy_backfill());
  const counting_policy& policy = *counter;
  sc::simulator sim{cc, std::move(counter)};
  const auto t0 = std::chrono::steady_clock::now();
  const auto summary = sim.run(trace);
  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - t0;

  replay_row row{load.name, load.interarrival_s, n_jobs};
  row.completed = summary.completed;
  row.wall_s = wall.count();
  row.events = sim.events_scheduled();
  row.place_calls_per_job = static_cast<double>(policy.calls) / static_cast<double>(n_jobs);
  row.peak_rss_mb = peak_rss_mb();
  return row;
}

/// HEAD of the source tree, suffixed "-dirty" when it has uncommitted changes.
std::string git_sha() {
  std::string sha;
  const char* cmd =
      "git -C \"" SYNERGY_SOURCE_DIR "\" describe --always --dirty --abbrev=40 2>/dev/null";
  if (FILE* p = popen(cmd, "r")) {
    char buf[64] = {};
    if (std::fgets(buf, sizeof buf, p)) sha = buf;
    pclose(p);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) sha.pop_back();
  return sha.empty() ? "unknown" : sha;
}

void write_json(const std::filesystem::path& out, const sc::cluster_config& cc,
                const std::vector<replay_row>& rows, double stable_ratio,
                double congested_ratio, double max_ratio, bool passed) {
  std::ofstream os{out};
  os.precision(10);
  const auto regime_json = [&](const regime& r) {
    os << "\"" << r.name << "\": {\"interarrival_s\": " << r.interarrival_s << ", \"jobs\": ["
       << r.jobs[0] << ", " << r.jobs[1] << ", " << r.jobs[2] << "]}";
  };
  os << "{\n  \"bench\": \"cluster_replay\",\n  \"git_sha\": \"" << git_sha()
     << "\",\n  \"build_type\": \"" << SYNERGY_BUILD_TYPE << "\",\n"
     << "  \"workload\": {\"device\": \"" << cc.device << "\", \"nodes\": " << cc.n_nodes
     << ", \"gpus_per_node\": " << cc.gpus_per_node
     << ", \"policy\": \"backfill\", \"trace_seed\": " << replay_seed << ", \"regimes\": {";
  regime_json(stable);
  os << ", ";
  regime_json(congested);
  os << "}},\n"
     << "  \"metrics\": {\n    \"stable_wall_ratio_1m_over_250k\": " << stable_ratio
     << ",\n    \"stable_wall_ratio_max\": " << max_ratio
     << ",\n    \"congested_wall_ratio_32k_over_8k\": " << congested_ratio
     << ",\n    \"congested_wall_ratio_max\": " << max_ratio
     << ",\n    \"gate_passed\": " << (passed ? "true" : "false") << ",\n    \"rows\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    os << (i ? "," : "") << "\n      {\"regime\": \"" << r.regime
       << "\", \"interarrival_s\": " << r.interarrival_s << ", \"jobs\": " << r.jobs
       << ", \"completed\": " << r.completed << ", \"wall_s\": " << r.wall_s
       << ", \"jobs_per_s\": " << static_cast<double>(r.jobs) / r.wall_s
       << ", \"events\": " << r.events
       << ", \"events_per_s\": " << static_cast<double>(r.events) / r.wall_s
       << ", \"place_calls_per_job\": " << r.place_calls_per_job
       << ", \"peak_rss_mb\": " << r.peak_rss_mb << "}";
  }
  os << "\n    ]\n  }\n}\n";
}

void policy_table() {
  const std::string device = "V100";
  const auto plan = sc::make_suite_planner(device);

  const std::vector<policy_case> cases = {
      {"fifo", "fifo", std::nullopt},
      {"backfill", "backfill", std::nullopt},
      {"energy MIN_EDP", "energy", sm::MIN_EDP},
      {"energy ES_50", "energy", sm::ES_50},
      {"energy PL_50", "energy", sm::PL_50},
  };
  const std::size_t node_counts[] = {4, 16, 64};  // x4 GPUs: 16, 64, 256

  synergy::common::print_banner(std::cout, "Cluster scaling: energy vs. makespan by policy");

  text_table table;
  table.header({"GPUs", "policy", "jobs", "makespan (s)", "GPU energy (J)",
                "facility E (J)", "mean wait (s)", "util", "vs fifo E", "vs fifo T"});
  std::vector<std::string> csv_rows;

  for (const std::size_t n_nodes : node_counts) {
    sc::cluster_config cc;
    cc.n_nodes = n_nodes;
    cc.gpus_per_node = 4;
    cc.device = device;
    const auto gpus = cc.n_nodes * cc.gpus_per_node;

    sc::trace_config tc;
    tc.seed = 2023;
    tc.n_jobs = 250 * n_nodes / 4;  // grows with the cluster
    tc.mean_interarrival_s = 2.0 * 64.0 / static_cast<double>(gpus);
    const auto trace = sc::generate_trace(tc);

    double fifo_energy = 0.0;
    double fifo_makespan = 0.0;
    for (const auto& pc : cases) {
      sc::simulator sim{cc, sc::make_policy(pc.policy, plan, pc.target)};
      const auto s = sim.run(trace);
      if (pc.label == "fifo") {
        fifo_energy = s.total_gpu_energy_j;
        fifo_makespan = s.makespan_s;
      }
      table.row({std::to_string(gpus), pc.label,
                 std::to_string(s.completed) + "/" + std::to_string(s.jobs),
                 text_table::fmt(s.makespan_s, 1), text_table::fmt(s.total_gpu_energy_j, 0),
                 text_table::fmt(s.facility_energy_j, 0), text_table::fmt(s.mean_wait_s, 2),
                 text_table::fmt(s.gpu_utilization, 3),
                 text_table::fmt(s.total_gpu_energy_j / fifo_energy, 3),
                 text_table::fmt(s.makespan_s / fifo_makespan, 3)});
      csv_rows.push_back(
          std::to_string(gpus) + "," + pc.label + "," + std::to_string(trace.seed) + "," +
          synergy::common::csv_writer::num(s.makespan_s) + "," +
          synergy::common::csv_writer::num(s.total_gpu_energy_j) + "," +
          synergy::common::csv_writer::num(s.facility_energy_j) + "," +
          synergy::common::csv_writer::num(s.mean_wait_s) + "," +
          synergy::common::csv_writer::num(s.gpu_utilization));
    }
  }
  table.print(std::cout);

  std::cout << "\nCSV:\n# trace seed=2023 policy column names the scheduler\n"
               "gpus,policy,seed,makespan_s,gpu_energy_j,facility_energy_j,mean_wait_s,"
               "gpu_utilization\n";
  for (const auto& row : csv_rows) std::cout << row << '\n';

  std::cout << "\nnote: 'vs fifo' columns normalise to the FIFO row of the same scale;\n"
               "the ES_50 policy must stay below 1.0 on energy within 1.10 on makespan\n"
               "(the repository's acceptance bar for this bench).\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::filesystem::path out =
      std::filesystem::path{SYNERGY_SOURCE_DIR} / "BENCH_cluster_replay.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::cerr << "usage: extra_cluster_scaling [--out PATH]\n";
      return 2;
    }
  }

  policy_table();

  synergy::common::print_banner(std::cout, "Cluster replay throughput: EASY backfill, 16x4 V100");
  const sc::cluster_config cc;  // 16x4 V100
  std::vector<replay_row> rows;
  for (const regime* load : {&congested, &stable}) {
    // Congested replays take well under a second, so each congested row is
    // the fastest of five, timed in rounds over the three sizes so that
    // machine noise falls on every size alike. Peak RSS is read in the
    // first, ascending round.
    const int rounds = load == &congested ? 5 : 1;
    const std::size_t first = rows.size();
    for (int round = 0; round < rounds; ++round)
      for (std::size_t i = 0; i < 3; ++i) {
        auto row = time_replay(cc, *load, load->jobs[i]);
        if (round == 0) {
          rows.push_back(row);
        } else if (row.wall_s < rows[first + i].wall_s) {
          row.peak_rss_mb = rows[first + i].peak_rss_mb;
          rows[first + i] = row;
        }
      }
  }

  text_table table;
  table.header({"load", "jobs", "completed", "wall (s)", "jobs/s", "events/s", "place()/job",
                "peak RSS (MiB)"});
  for (const auto& r : rows)
    table.row({r.regime, std::to_string(r.jobs), std::to_string(r.completed),
               text_table::fmt(r.wall_s, 3),
               text_table::fmt(static_cast<double>(r.jobs) / r.wall_s, 0),
               text_table::fmt(static_cast<double>(r.events) / r.wall_s, 0),
               text_table::fmt(r.place_calls_per_job, 2), text_table::fmt(r.peak_rss_mb, 1)});
  table.print(std::cout);

  constexpr double max_ratio = 5.0;
  // Rows 1 and 2 are congested load at 8k and 32k jobs; the last two are
  // stable load at 250k and 10^6 jobs.
  const double congested_ratio = rows[2].wall_s / rows[1].wall_s;
  const double stable_ratio = rows.back().wall_s / rows[rows.size() - 2].wall_s;
  const bool passed = congested_ratio <= max_ratio && stable_ratio <= max_ratio;
  write_json(out, cc, rows, stable_ratio, congested_ratio, max_ratio, passed);
  const auto report = [&](const char* what, double ratio) {
    std::cout << what << text_table::fmt(ratio, 2) << " (linear: 4.00, gate: <= "
              << text_table::fmt(max_ratio, 2) << ") -> "
              << (ratio <= max_ratio ? "PASS" : "FAIL") << '\n';
  };
  std::cout << '\n';
  report("congested load: wall(32k) / wall(8k) = ", congested_ratio);
  report("stable load: wall(1M) / wall(250k) = ", stable_ratio);
  std::cout << "wrote " << out.string() << '\n';
  return passed ? 0 : 1;
}
