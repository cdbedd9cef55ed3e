#include "observe.hpp"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "common/clock.hpp"
#include "expt/algorithm_registry.hpp"

namespace perfbench {
namespace {

/// Records one span over its scope (when tracing).
class SpanScope {
 public:
  SpanScope(Observer& observer, SpanKind kind, std::uint64_t parent,
            std::uint64_t units = 0)
      : observer_(observer), active_(observer.tracing()) {
    if (!active_) return;
    span_.id = observer.next_span_id();
    span_.parent = parent;
    span_.kind = kind;
    span_.thread = thread_index();
    span_.units = units;
    span_.start_ns = now_ns();
  }
  ~SpanScope() {
    if (!active_) return;
    span_.end_ns = now_ns();
    observer_.record(span_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  [[nodiscard]] std::uint64_t id() const { return span_.id; }

 private:
  Observer& observer_;
  bool active_;
  Span span_;
};

/// Forwards every `moo::Problem` virtual to the real problem; records one
/// `aedb.evaluate_batch` span per call (a single evaluation is a batch of
/// one) and keeps the full-fidelity results for the replay probes.
class ObservedProblem final : public moo::Problem {
 public:
  ObservedProblem(const moo::Problem& inner, Observer& observer,
                  std::uint64_t parent,
                  std::shared_ptr<const aedb::AedbTuningProblem::Config> config,
                  bool keep_batches)
      : inner_(inner),
        observer_(observer),
        parent_(parent),
        config_(std::move(config)),
        keep_batches_(keep_batches) {}

  [[nodiscard]] std::size_t dimensions() const override {
    return inner_.dimensions();
  }
  [[nodiscard]] std::size_t objective_count() const override {
    return inner_.objective_count();
  }
  [[nodiscard]] std::pair<double, double> bounds(
      std::size_t dim) const override {
    return inner_.bounds(dim);
  }
  [[nodiscard]] std::size_t fidelity_levels() const override {
    return inner_.fidelity_levels();
  }
  [[nodiscard]] std::size_t screening_tier() const override {
    return inner_.screening_tier();
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  [[nodiscard]] Result evaluate(const std::vector<double>& x) const override {
    Result result;
    {
      const SpanScope span(observer_, SpanKind::kEvaluate, parent_, 1);
      result = inner_.evaluate(x);
    }
    keep(x, result, 0);
    return result;
  }

  [[nodiscard]] Result evaluate_at(const std::vector<double>& x,
                                   std::size_t tier) const override {
    Result result;
    {
      const SpanScope span(observer_, SpanKind::kEvaluate, parent_, 1);
      result = inner_.evaluate_at(x, tier);
    }
    keep(x, result, tier);
    return result;
  }

  void evaluate_batch(std::span<moo::Solution> batch) const override {
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (!batch[i].evaluated) pending.push_back(i);
    }
    {
      const SpanScope span(observer_, SpanKind::kEvaluate, parent_,
                           pending.size());
      inner_.evaluate_batch(batch);
    }
    std::vector<moo::Solution> kept;
    for (const std::size_t i : pending) {
      if (batch[i].fidelity == 0) {
        observer_.capture_point({config_, batch[i]});
      }
      if (keep_batches_) kept.push_back(batch[i]);
    }
    if (keep_batches_ && !kept.empty()) observer_.capture_batch(std::move(kept));
  }

 private:
  void keep(const std::vector<double>& x, const Result& result,
            std::size_t tier) const {
    if (tier != 0 || config_ == nullptr || config_->forced_tier != 0) return;
    moo::Solution solution;
    solution.x = x;
    solution.objectives = result.objectives;
    solution.constraint_violation = result.constraint_violation;
    solution.evaluated = true;
    observer_.capture_point({config_, std::move(solution)});
  }

  const moo::Problem& inner_;
  Observer& observer_;
  std::uint64_t parent_;
  std::shared_ptr<const aedb::AedbTuningProblem::Config> config_;
  bool keep_batches_;
};

/// Shadows one registered algorithm; see the header comment.
class ObservedAlgorithm final : public moo::Algorithm {
 public:
  ObservedAlgorithm(std::unique_ptr<moo::Algorithm> inner,
                    std::string registered_name,
                    const moo::EvaluationEngine* engine, Observer& observer)
      : inner_(std::move(inner)),
        registered_name_(std::move(registered_name)),
        engine_(engine),
        observer_(observer) {}

  [[nodiscard]] moo::AlgorithmResult run(const moo::Problem& problem,
                                         std::uint64_t seed) override {
    observer_.dispatched();
    const auto* aedb_problem =
        dynamic_cast<const aedb::AedbTuningProblem*>(&problem);
    if (aedb_problem == nullptr) {
      throw std::logic_error("perfbench observes AEDB tuning problems only");
    }
    auto* mls = dynamic_cast<core::AedbMls*>(inner_.get());
    const moo::EvaluationEngine::Stats engine_before =
        engine_ != nullptr ? engine_->stats() : moo::EvaluationEngine::Stats{};

    CellStats stats;
    stats.algorithm = registered_name_;
    stats.seed = seed;
    stats.mls = mls != nullptr;
    moo::AlgorithmResult result;
    stats.start_ns = now_ns();
    if (observer_.tracing()) {
      const std::uint64_t threads =
          mls != nullptr ? mls->config().populations *
                               mls->config().threads_per_population
                         : 0;
      const SpanScope span(observer_, SpanKind::kAlgorithmRun,
                           observer_.cell_span(cell_key(registered_name_, seed)),
                           threads);
      const ObservedProblem observed(
          problem, observer_, span.id(),
          std::make_shared<const aedb::AedbTuningProblem::Config>(
              aedb_problem->config()),
          registered_name_ == "NSGAII");
      result = inner_->run(observed, seed);
    } else {
      result = inner_->run(problem, seed);
    }
    stats.end_ns = now_ns();

    stats.full_evals = aedb_problem->tier_counters(0).evaluations;
    for (std::size_t tier = 1; tier < aedb_problem->fidelity_levels(); ++tier) {
      stats.screen_evals += aedb_problem->tier_counters(tier).evaluations;
    }
    stats.sim_runs = aedb_problem->scenario_runs();
    stats.sim_events = aedb_problem->events_executed();
    if (mls != nullptr) stats.mls_stats = mls->stats();
    if (engine_ != nullptr) {
      const moo::EvaluationEngine::Stats after = engine_->stats();
      stats.engine_batches = after.batches - engine_before.batches;
      stats.engine_chunks = after.chunks - engine_before.chunks;
    }
    observer_.cell_done(std::move(stats));
    return result;
  }

  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<moo::Algorithm> inner_;
  std::string registered_name_;
  const moo::EvaluationEngine* engine_;
  Observer& observer_;
};

}  // namespace

std::int64_t now_ns() { return aedbmls::monotonic_ns(); }

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

std::string cell_key(const std::string& algorithm, std::uint64_t seed) {
  return algorithm + "/" + std::to_string(seed);
}

void Observer::dispatched() const {
  if (!exit_at_dispatch_.load()) return;
  std::puts("dispatch");
  std::fflush(stdout);
  std::_Exit(0);
}

void Observer::record(const Span& span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

void Observer::record_interval(SpanKind kind, std::int64_t start_ns,
                               std::int64_t end_ns) {
  if (!tracing()) return;
  Span span;
  span.id = next_span_id();
  span.kind = kind;
  span.thread = thread_index();
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  record(span);
}

std::uint64_t Observer::open_cell(const std::string& key) {
  if (!tracing()) return 0;
  Span span;
  span.id = next_span_id();
  span.kind = SpanKind::kCell;
  span.thread = thread_index();
  span.start_ns = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  open_cells_[key] = span;
  return span.id;
}

void Observer::close_cell(const std::string& key) {
  const std::int64_t end = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = open_cells_.find(key);
  if (it == open_cells_.end()) return;
  it->second.end_ns = end;
  spans_.push_back(it->second);
  open_cells_.erase(it);
}

std::uint64_t Observer::cell_span(const std::string& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = open_cells_.find(key);
  return it == open_cells_.end() ? 0 : it->second.id;
}

void Observer::cell_done(CellStats stats) {
  const std::lock_guard<std::mutex> lock(mutex_);
  cells_.push_back(std::move(stats));
}

std::vector<CellStats> Observer::take_cells() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(cells_, {});
}

void Observer::capture_point(EvaluatedPoint point) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (stream_.size() < kStreamCap) stream_.push_back(std::move(point));
}

void Observer::capture_batch(std::vector<moo::Solution> batch) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (batches_.size() < kBatchCap) batches_.push_back(std::move(batch));
}

void Observer::add_worker_wait(std::int64_t ns) {
  const std::lock_guard<std::mutex> lock(mutex_);
  worker_waits_.push_back(ns);
}

std::pair<std::uint64_t, std::uint64_t> Observer::take_traffic() {
  return {messages_.exchange(0), bytes_.exchange(0)};
}

void observe_algorithms(const std::vector<std::string>& names,
                        Observer& observer) {
  expt::AlgorithmRegistry& registry = expt::AlgorithmRegistry::instance();
  for (const std::string& name : names) {
    const expt::AlgorithmRegistry::Entry* entry = registry.find(name);
    if (entry == nullptr) {
      throw std::invalid_argument("unknown algorithm " + name);
    }
    expt::AlgorithmRegistry::Factory inner = entry->factory;
    std::string description = entry->description;
    registry.add({name, std::move(description),
                  [inner = std::move(inner), name, &observer](
                      const expt::Scale& scale,
                      const moo::EvaluationEngine* engine) {
                    return std::make_unique<ObservedAlgorithm>(
                        inner(scale, engine), name, engine, observer);
                  }});
  }
}

std::string ObservedTransport::key_of(const std::string& payload,
                                      std::size_t prefix) const {
  const std::size_t end = payload.find_first_of(" \n", prefix);
  try {
    const std::size_t index =
        std::stoul(payload.substr(prefix, end == std::string::npos
                                              ? std::string::npos
                                              : end - prefix));
    if (index < cells_.size()) {
      return cell_key(cells_[index].algorithm, cells_[index].seed);
    }
  } catch (const std::exception&) {
  }
  return {};
}

bool ObservedTransport::send(std::size_t to, std::string payload) {
  observer_.add_message(payload.size());
  if (rank() != 0 && payload.rfind("result ", 0) == 0) {
    observer_.close_cell(key_of(payload, 7));
  }
  const SpanScope span(observer_, SpanKind::kSend, 0, payload.size());
  return inner_.send(to, std::move(payload));
}

std::optional<par::net::Message> ObservedTransport::recv() {
  const std::int64_t start = now_ns();
  std::optional<par::net::Message> message;
  {
    const SpanScope span(observer_, SpanKind::kRecv, 0);
    message = inner_.recv();
  }
  if (rank() != 0 && message &&
      message->kind == par::net::Message::Kind::kData &&
      message->payload.rfind("cell ", 0) == 0) {
    observer_.dispatched();
    if (!observer_.tracing()) return message;
    observer_.add_worker_wait(now_ns() - start);
    observer_.open_cell(key_of(message->payload, 5));
  }
  return message;
}

}  // namespace perfbench
