/// E11b — google-benchmark micro-benchmarks of the optimiser substrate:
/// archive insertion (AGA vs crowding), non-dominated sorting, exact 3-D
/// hypervolume, the Eq.-2 BLX step, Wilcoxon, and the mailbox round trip.

#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "moo/core/aga_archive.hpp"
#include "moo/core/crowding_archive.hpp"
#include "moo/core/nds.hpp"
#include "moo/indicators/hypervolume.hpp"
#include "moo/operators/blx_alpha.hpp"
#include "moo/stats/wilcoxon.hpp"
#include "par/mailbox.hpp"

namespace {

using namespace aedbmls;

moo::Solution random_solution(Xoshiro256& rng, std::size_t objectives = 3) {
  moo::Solution s;
  s.x = {rng.uniform(), rng.uniform()};
  s.objectives.resize(objectives);
  for (double& f : s.objectives) f = rng.uniform();
  s.evaluated = true;
  return s;
}

void BM_AgaArchiveInsert(benchmark::State& state) {
  Xoshiro256 rng(1);
  moo::AgaArchive archive(100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(archive.try_insert(random_solution(rng)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AgaArchiveInsert);

void BM_CrowdingArchiveInsert(benchmark::State& state) {
  Xoshiro256 rng(1);
  moo::CrowdingArchive archive(100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(archive.try_insert(random_solution(rng)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CrowdingArchiveInsert);

void BM_FastNonDominatedSort(benchmark::State& state) {
  Xoshiro256 rng(2);
  std::vector<moo::Solution> population;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    population.push_back(random_solution(rng));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(moo::fast_non_dominated_sort(population));
  }
}
BENCHMARK(BM_FastNonDominatedSort)->Arg(100)->Arg(200);

void BM_Hypervolume3d(benchmark::State& state) {
  Xoshiro256 rng(3);
  std::vector<std::vector<double>> points;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    // Near-simplex points: mostly mutually non-dominated (worst case).
    const double a = rng.uniform();
    const double b = rng.uniform() * (1.0 - a);
    points.push_back({a, b, 1.0 - a - b});
  }
  const std::vector<double> reference{1.1, 1.1, 1.1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(moo::hypervolume(points, reference));
  }
}
BENCHMARK(BM_Hypervolume3d)->Arg(50)->Arg(100)->Unit(benchmark::kMicrosecond);

void BM_PaperBlxStep(benchmark::State& state) {
  Xoshiro256 rng(4);
  double value = 0.5;
  for (auto _ : state) {
    value = moo::paper_blx_step(value, 0.7, 0.2, rng);
    if (value < 0.0 || value > 1.0) value = 0.5;
    benchmark::DoNotOptimize(value);
  }
}
BENCHMARK(BM_PaperBlxStep);

void BM_WilcoxonRankSum(benchmark::State& state) {
  Xoshiro256 rng(5);
  std::vector<double> a(30);
  std::vector<double> b(30);
  for (double& v : a) v = rng.normal();
  for (double& v : b) v = rng.normal() + 0.3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(moo::wilcoxon_rank_sum(a, b));
  }
}
BENCHMARK(BM_WilcoxonRankSum);

void BM_MailboxRoundTrip(benchmark::State& state) {
  par::Mailbox<int> mailbox;
  for (auto _ : state) {
    mailbox.send(1);
    benchmark::DoNotOptimize(mailbox.recv());
  }
}
BENCHMARK(BM_MailboxRoundTrip);

}  // namespace
