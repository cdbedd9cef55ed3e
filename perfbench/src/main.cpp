/// perfbench — runs one workload of the campaign benchmark and writes its raw
/// measurements as JSON; `run.py` turns them into metrics.
///
///   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
///             --raw=FILE --cache-dir=DIR [--corrupt-front]
///   perfbench --setup-only --workload=NAME --seed=N --cache-dir=DIR
///
/// Order of a run: machine record and reference kernel; an untraced
/// warm-up round; rounds of the workload's plan until S seconds have
/// passed, each started only after the previous one finished; the output
/// checks; (traced runs: the replay probes); the JSON.  `--corrupt-front`
/// perturbs one front point after the rounds, so the self-tests can prove
/// the checks fire.  `--setup-only` starts round 0 on the workload's real
/// path and ends the process, printing `dispatch`, when its first cell is
/// dispatched: `run.py` times process start until that line.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "aedb/scenario.hpp"
#include "common/cli.hpp"
#include "moo/core/aga_archive.hpp"
#include "moo/core/front_io.hpp"
#include "moo/core/nds.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// A fixed integer and floating-point loop that calls no repository code:
/// its time tells a slow machine from a slow program.
double reference_kernel_ms() {
  const std::int64_t start = now_ns();
  std::uint64_t state = 0x9E3779B97F4A7C15ULL;
  double acc = 0.0;
  for (int i = 0; i < 4'000'000; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    acc += static_cast<double>(state >> 11) * 0x1.0p-53 * 1.0000001;
  }
  const double ms = static_cast<double>(now_ns() - start) * 1e-6;
  if (acc < 0.0) std::puts("unreachable");  // keeps the loop observable
  return ms;
}

/// User plus system CPU seconds of the whole process so far.
double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t begin = line.find_first_not_of(' ', colon + 1);
        return begin == std::string::npos ? "" : line.substr(begin);
      }
    }
  }
  return "unknown";
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escape[8];
      std::snprintf(escape, sizeof escape, "\\u%04x", c);
      out += escape;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

template <typename T>
std::string array(const std::vector<T>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    if constexpr (std::is_floating_point_v<T>) {
      out += number(values[i]);
    } else {
      out += std::to_string(values[i]);
    }
  }
  return out + "]";
}

std::string round_json(const RoundOut& round) {
  std::ostringstream out;
  out << "{\"seed\":" << round.seed << ",\"wall_s\":" << number(round.wall_s)
      << ",\"error\":" << quoted(round.error)
      << ",\"csv_digest\":" << quoted(round.csv_digest)
      << ",\"fronts_digest\":" << quoted(round.fronts_digest)
      << ",\"messages\":" << round.messages << ",\"bytes\":" << round.bytes
      << ",\"cells\":[";
  for (std::size_t i = 0; i < round.cells.size(); ++i) {
    const CellOut& cell = round.cells[i];
    const CellStats& s = cell.stats;
    const core::AedbMls::Stats& m = s.mls_stats;
    out << (i > 0 ? "," : "") << "{\"algorithm\":"
        << quoted(cell.record.algorithm)
        << ",\"scenario\":" << quoted(cell.record.scenario)
        << ",\"seed\":" << cell.record.run_seed
        << ",\"wall_s\":" << number(static_cast<double>(s.end_ns - s.start_ns) * 1e-9)
        << ",\"full_evals\":" << s.full_evals
        << ",\"screen_evals\":" << s.screen_evals
        << ",\"sim_runs\":" << s.sim_runs << ",\"sim_events\":" << s.sim_events
        << ",\"mls\":" << (s.mls ? 1 : 0)
        << ",\"accepted_moves\":" << m.accepted_moves
        << ",\"resets\":" << m.resets
        << ",\"archive_inserts\":" << m.archive_inserts_accepted
        << ",\"screened\":" << m.screened
        << ",\"screen_rejected\":" << m.screen_rejected
        << ",\"promoted\":" << m.promoted
        << ",\"engine_batches\":" << s.engine_batches
        << ",\"engine_chunks\":" << s.engine_chunks
        << ",\"front_size\":" << cell.record.front.size()
        << ",\"front_digest\":" << quoted(cell.front_digest)
        << ",\"check\":" << quoted(cell.check) << "}";
  }
  out << "]}";
  return out.str();
}

struct SimProbe {
  std::uint64_t runs = 0;
  std::uint64_t events = 0;
  std::uint64_t collisions = 0;
  std::uint64_t mac_drops = 0;
  double seconds = 0.0;
};

/// Replays `aedb::run_scenario` on one workspace, single-threaded, over up
/// to `samples` evenly spaced full-fidelity points of the evaluated stream.
SimProbe probe_sim(const std::vector<EvaluatedPoint>& stream,
                   std::size_t samples) {
  SimProbe probe;
  if (stream.empty()) return probe;
  aedb::ScenarioWorkspace workspace;
  const std::size_t count = std::min(samples, stream.size());
  for (std::size_t k = 0; k < count; ++k) {
    const EvaluatedPoint& point = stream[k * stream.size() / count];
    const aedb::AedbParams params =
        aedb::AedbParams::from_vector(point.solution.x);
    aedb::ScenarioConfig config = point.problem->scenario;
    for (std::size_t net = 0; net < point.problem->network_count; ++net) {
      config.network.network_index = net;
      (void)aedb::run_scenario(config, params, workspace);  // warm the pool
      const std::int64_t start = now_ns();
      const aedb::ScenarioResult result =
          aedb::run_scenario(config, params, workspace);
      probe.seconds += static_cast<double>(now_ns() - start) * 1e-9;
      ++probe.runs;
      probe.events += result.events_executed;
      probe.collisions += result.stats.collisions;
      probe.mac_drops += result.stats.mac_drops;
    }
  }
  return probe;
}

/// Median seconds of `reps` timed calls of `body`.
template <typename Body>
double median_seconds(int reps, Body&& body) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t start = now_ns();
    body();
    times.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

int run(const aedbmls::CliArgs& args) {
  const std::string workload_name = args.get("workload", "");
  const std::uint64_t seed = std::stoull(args.get("seed", "20130520"));
  const double seconds = args.get_double("seconds", 10.0);
  const bool trace = args.get_int("trace", 0) != 0;
  const std::string cache_dir = args.get("cache-dir", "");
  if (cache_dir.empty()) {
    std::cerr << "perfbench: --cache-dir is required\n";
    return 2;
  }
  if (args.has("setup-only")) {
    // Round 0 through the workload's real path in a fresh process; the
    // observer prints `dispatch` and ends the process when the first cell
    // is dispatched, and the caller times process start until that line.
    const Workload workload = make_workload(workload_name);
    Observer observer;
    observe_algorithms(workload.algorithms, observer);
    observer.set_exit_at_dispatch(true);
    const RoundOut round = run_round(workload, plan_of(workload, seed, 0),
                                     observer, false, cache_dir);
    std::cerr << "perfbench: round 0 ended without dispatching a cell"
              << (round.error.empty() ? "" : ": " + round.error) << "\n";
    return 1;
  }
  const std::string raw_path = args.get("raw", "");
  if (raw_path.empty()) {
    std::cerr << "perfbench: --raw is required\n";
    return 2;
  }
  const Workload workload = make_workload(workload_name);

  std::vector<double> kernel_ms;
  for (int r = 0; r < 5; ++r) kernel_ms.push_back(reference_kernel_ms());

  Observer observer;
  observe_algorithms(workload.algorithms, observer);

  // Round 0 runs once untraced before the measured phase: it fills the
  // process's caches and, on the deterministic workloads, is the reference
  // the measured round 0 must reproduce byte for byte (which, in a traced
  // run, proves the spans changed nothing).
  const RoundOut warmup =
      run_round(workload, plan_of(workload, seed, 0), observer, false, cache_dir);

  observer.set_tracing(trace);
  std::vector<RoundOut> rounds;
  const double cpu_start_s = process_cpu_s();
  const std::int64_t phase_start = now_ns();
  do {
    rounds.push_back(run_round(workload, plan_of(workload, seed, rounds.size()),
                               observer, trace, cache_dir));
    if (!rounds.back().error.empty()) break;
  } while (static_cast<double>(now_ns() - phase_start) * 1e-9 < seconds);
  const double phase_cpu_s = process_cpu_s() - cpu_start_s;
  observer.set_tracing(false);
  std::filesystem::remove_all(cache_dir);

  if (args.has("corrupt-front") && !rounds.empty() &&
      !rounds.front().cells.empty() &&
      !rounds.front().cells.front().record.front.empty()) {
    CellOut& cell = rounds.front().cells.front();
    double& value = cell.record.front.front().objectives.front();
    value = std::nextafter(value, value + 1.0);
    cell.front_digest = digest(moo::front_to_csv(cell.record.front));
  }
  check_cells(workload, rounds, std::thread::hardware_concurrency());

  std::ostringstream probes;
  if (trace) {
    const SimProbe sim = probe_sim(observer.stream(), 12);
    std::vector<const moo::Solution*> archive_stream;
    for (const EvaluatedPoint& point : observer.stream()) {
      archive_stream.push_back(&point.solution);
    }
    const double archive_s = median_seconds(5, [&] {
      moo::AgaArchive archive(100, 4);
      for (const moo::Solution* s : archive_stream) (void)archive.try_insert(*s);
    });
    // NSGA-II sorts parents and offspring together: pair each captured
    // offspring batch with the one before it.
    std::vector<std::vector<moo::Solution>> unions;
    const auto& batches = observer.batches();
    for (std::size_t k = 1; k < batches.size(); ++k) {
      std::vector<moo::Solution> both = batches[k - 1];
      both.insert(both.end(), batches[k].begin(), batches[k].end());
      unions.push_back(std::move(both));
    }
    const double nds_s = median_seconds(5, [&] {
      for (const auto& population : unions) {
        (void)moo::fast_non_dominated_sort(population);
      }
    });
    probes << "{\"sim_runs\":" << sim.runs << ",\"sim_events\":" << sim.events
           << ",\"sim_collisions\":" << sim.collisions
           << ",\"sim_mac_drops\":" << sim.mac_drops
           << ",\"sim_s\":" << number(sim.seconds)
           << ",\"archive_inserts\":" << archive_stream.size()
           << ",\"archive_s\":" << number(archive_s)
           << ",\"nds_calls\":" << unions.size()
           << ",\"nds_s\":" << number(nds_s) << "}";
  } else {
    probes << "null";
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);

  std::ostringstream out;
  out << "{\"workload\":" << quoted(workload.name) << ",\"seed\":" << seed
      << ",\"trace\":" << (trace ? 1 : 0)
      << ",\"build_type\":" << quoted(PERFBENCH_BUILD_TYPE)
      << ",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"cpu_model\":" << quoted(cpu_model())
      << ",\"ref_kernel_ms\":" << array(kernel_ms)
      << ",\"phase_cpu_s\":" << number(phase_cpu_s)
      << ",\"driver_workers\":" << workload.driver_workers
      << ",\"deterministic\":" << (workload.deterministic ? 1 : 0)
      << ",\"cells_per_round\":" << plan_of(workload, seed, 0).cell_count()
      << ",\"peak_rss_kb\":" << usage.ru_maxrss
      << ",\"warmup_round\":" << round_json(warmup)
      << ",\"rounds\":[";
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    out << (i > 0 ? "," : "") << round_json(rounds[i]);
  }
  out << "],\"spans\":[";
  const std::vector<Span>& spans = observer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i > 0 ? "," : "") << "[" << s.id << "," << s.parent << ","
        << quoted(kSpanNames[static_cast<int>(s.kind)]) << "," << s.thread
        << "," << s.start_ns << "," << s.end_ns << "," << s.units << "]";
  }
  out << "],\"worker_waits_ns\":" << array(observer.worker_waits())
      << ",\"probes\":" << probes.str() << "}\n";

  std::ofstream file(raw_path, std::ios::binary | std::ios::trunc);
  file << out.str();
  file.close();
  if (!file) {
    std::cerr << "perfbench: cannot write " << raw_path << "\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(aedbmls::CliArgs(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 2;
  }
}
