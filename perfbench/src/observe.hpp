#pragma once

/// Observation from outside the program: spans and counters recorded by
/// benchmark code around public calls into each library layer.
///
///  * `ObservedAlgorithm` shadows a registered algorithm (the registry's
///    documented last-registration-wins hook), so every cell any driver
///    builds — `ExperimentDriver`, a campaign worker, or the benchmark's
///    own traced loop — reports its work counters, and, when tracing,
///    wraps `Algorithm::run` in a `moo.algorithm.run` span and the problem
///    in an `ObservedProblem`.
///  * `ObservedProblem` forwards every `moo::Problem` virtual to the real
///    `AedbTuningProblem` and records `aedb.evaluate_batch` spans per
///    thread, plus the evaluated stream the replay probes reuse.
///  * `ObservedTransport` forwards a `par::net::Transport` endpoint,
///    counts messages and bytes, and when tracing records
///    `par.net.send`/`par.net.recv` spans and the worker-side `expt.cell`
///    span (assignment received until result sent).
///
/// Spans live in memory until the run ends.  Forwarding changes no result:
/// the benchmark checks traced output bytes against untraced ones.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "aedb/tuning_problem.hpp"
#include "core/mls.hpp"
#include "expt/experiment.hpp"
#include "moo/algorithms/algorithm.hpp"
#include "par/net/transport.hpp"

namespace perfbench {

namespace aedb = aedbmls::aedb;
namespace core = aedbmls::core;
namespace expt = aedbmls::expt;
namespace moo = aedbmls::moo;
namespace par = aedbmls::par;

[[nodiscard]] std::int64_t now_ns();

/// Dense per-thread index (0 for the first thread that asks).
[[nodiscard]] std::uint32_t thread_index();

enum class SpanKind : std::uint8_t {
  kCell,
  kAlgorithmRun,
  kEvaluate,
  kSend,
  kRecv,
  kReduce,
};

/// Span names, indexed by `SpanKind`.
inline constexpr const char* kSpanNames[] = {
    "expt.cell",  "moo.algorithm.run", "aedb.evaluate_batch",
    "par.net.send", "par.net.recv",    "expt.reduce"};

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  SpanKind kind = SpanKind::kCell;
  std::uint32_t thread = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Kind-specific size: solutions evaluated, payload bytes, or the MLS
  /// worker-thread count of an algorithm run (0 for other algorithms).
  std::uint64_t units = 0;
};

/// What one `Algorithm::run` did.
struct CellStats {
  std::string algorithm;
  std::uint64_t seed = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t full_evals = 0;
  std::uint64_t screen_evals = 0;
  std::uint64_t sim_runs = 0;
  std::uint64_t sim_events = 0;
  bool mls = false;
  core::AedbMls::Stats mls_stats{};
  std::uint64_t engine_batches = 0;
  std::uint64_t engine_chunks = 0;
};

/// One full-fidelity evaluation seen through an `ObservedProblem`.
struct EvaluatedPoint {
  std::shared_ptr<const aedb::AedbTuningProblem::Config> problem;
  moo::Solution solution;
};

/// Key that names one cell to every observer: algorithm and run seed.
[[nodiscard]] std::string cell_key(const std::string& algorithm,
                                   std::uint64_t seed);

class Observer {
 public:
  /// Caps on the evaluated stream kept for the replay probes.
  static constexpr std::size_t kStreamCap = 20000;
  static constexpr std::size_t kBatchCap = 4000;

  void set_tracing(bool on) { tracing_.store(on); }
  [[nodiscard]] bool tracing() const { return tracing_.load(); }

  /// Set-up probe: when on, the first cell dispatched (an algorithm run
  /// starting, or a campaign worker receiving its first assignment)
  /// prints `dispatch` and ends the process at once.
  void set_exit_at_dispatch(bool on) { exit_at_dispatch_.store(on); }
  /// Ends the process as described above, if that is on.
  void dispatched() const;

  [[nodiscard]] std::uint64_t next_span_id() { return ++last_id_; }
  void record(const Span& span);
  /// Records a span measured by the caller (tracing only).
  void record_interval(SpanKind kind, std::int64_t start_ns,
                       std::int64_t end_ns);

  /// Opens the `expt.cell` span of `key` (tracing only); returns its id.
  std::uint64_t open_cell(const std::string& key);
  /// Closes the open `expt.cell` span of `key`, if any.
  void close_cell(const std::string& key);
  /// Id of the open `expt.cell` span of `key`, or 0.
  [[nodiscard]] std::uint64_t cell_span(const std::string& key);

  void cell_done(CellStats stats);
  /// Cells finished since the last call.
  [[nodiscard]] std::vector<CellStats> take_cells();

  void capture_point(EvaluatedPoint point);
  void capture_batch(std::vector<moo::Solution> batch);
  void add_message(std::size_t bytes) {
    messages_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void add_worker_wait(std::int64_t ns);

  /// Messages and bytes sent since the last call.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> take_traffic();

  // Read after the measured phase, when no cell runs any more.
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::vector<EvaluatedPoint>& stream() const {
    return stream_;
  }
  [[nodiscard]] const std::vector<std::vector<moo::Solution>>& batches() const {
    return batches_;
  }
  [[nodiscard]] const std::vector<std::int64_t>& worker_waits() const {
    return worker_waits_;
  }

 private:
  std::atomic<bool> tracing_{false};
  std::atomic<bool> exit_at_dispatch_{false};
  std::atomic<std::uint64_t> last_id_{0};
  std::atomic<std::uint64_t> messages_{0};
  std::atomic<std::uint64_t> bytes_{0};

  std::mutex mutex_;  // guards everything below
  std::vector<Span> spans_;
  std::map<std::string, Span> open_cells_;
  std::vector<CellStats> cells_;
  std::vector<EvaluatedPoint> stream_;
  std::vector<std::vector<moo::Solution>> batches_;
  std::vector<std::int64_t> worker_waits_;
};

/// Re-registers `names` in the algorithm registry as `ObservedAlgorithm`
/// shadows of their current factories.
void observe_algorithms(const std::vector<std::string>& names,
                        Observer& observer);

/// Forwards one transport endpoint (see file comment).  `cells` maps the
/// coordinator's `cell <index>` assignments back to cell keys.
class ObservedTransport final : public par::net::Transport {
 public:
  ObservedTransport(par::net::Transport& inner, Observer& observer,
                    const std::vector<expt::ExperimentPlan::Cell>& cells)
      : inner_(inner), observer_(observer), cells_(cells) {}

  [[nodiscard]] std::size_t rank() const override { return inner_.rank(); }
  [[nodiscard]] std::size_t world_size() const override {
    return inner_.world_size();
  }
  bool send(std::size_t to, std::string payload) override;
  [[nodiscard]] std::optional<par::net::Message> recv() override;
  void close() override { inner_.close(); }

 private:
  [[nodiscard]] std::string key_of(const std::string& payload,
                                   std::size_t prefix) const;

  par::net::Transport& inner_;
  Observer& observer_;
  const std::vector<expt::ExperimentPlan::Cell>& cells_;
};

}  // namespace perfbench
