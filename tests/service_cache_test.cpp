#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "experiment/scenario_spec.hpp"
#include "service/artifacts.hpp"
#include "service/cache.hpp"

namespace service = sdcgmres::service;
namespace experiment = sdcgmres::experiment;

namespace {

/// Builder for a string artifact of a stated size; counts invocations.
service::ArtifactCache::Builder sized(std::size_t bytes, int* builds) {
  return [bytes, builds] {
    if (builds != nullptr) ++*builds;
    return std::pair<std::shared_ptr<const void>, std::size_t>(
        std::make_shared<const std::string>("artifact"), bytes);
  };
}

} // namespace

TEST(ArtifactCache, HitAfterMissAndCounters) {
  service::ArtifactCache cache(1024);
  int builds = 0;
  const auto first = cache.get_or_build("k", sized(100, &builds));
  const auto second = cache.get_or_build("k", sized(100, &builds));
  EXPECT_EQ(builds, 1) << "the second lookup must not rebuild";
  EXPECT_EQ(first.get(), second.get()) << "hits share the instance";
  const service::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, 100u);
  EXPECT_EQ(stats.byte_budget, 1024u);
}

TEST(ArtifactCache, EvictsLeastRecentlyUsedUnderTightBudget) {
  service::ArtifactCache cache(250);
  (void)cache.get_or_build("a", sized(100, nullptr));
  (void)cache.get_or_build("b", sized(100, nullptr));
  // Touch "a" so "b" is the LRU victim when "c" overflows the budget.
  (void)cache.get_or_build("a", sized(100, nullptr));
  (void)cache.get_or_build("c", sized(100, nullptr));
  service::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, 200u);
  // "a" survived (recently used): looking it up is a hit...
  const std::size_t hits_before = stats.hits;
  (void)cache.get_or_build("a", sized(100, nullptr));
  EXPECT_EQ(cache.stats().hits, hits_before + 1);
  // ...and "b" was the victim: looking it up is a miss that rebuilds.
  int rebuilds = 0;
  (void)cache.get_or_build("b", sized(100, &rebuilds));
  EXPECT_EQ(rebuilds, 1);
}

TEST(ArtifactCache, EvictionNeverInvalidatesHeldArtifacts) {
  service::ArtifactCache cache(100);
  const auto held = cache.get_or_build("a", sized(100, nullptr));
  (void)cache.get_or_build("b", sized(100, nullptr)); // evicts "a"
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(*std::static_pointer_cast<const std::string>(held), "artifact")
      << "the holder's shared_ptr keeps the evicted artifact alive";
}

TEST(ArtifactCache, OversizeArtifactsAreBuiltButNeverStored) {
  service::ArtifactCache cache(50);
  int builds = 0;
  const auto value = cache.get_or_build("big", sized(100, &builds));
  EXPECT_NE(value, nullptr);
  const service::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.oversize, 1u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  // Every lookup rebuilds: it can never become resident.
  (void)cache.get_or_build("big", sized(100, &builds));
  EXPECT_EQ(builds, 2);
}

TEST(ArtifactCache, BuilderExceptionCachesNothing) {
  service::ArtifactCache cache(1024);
  EXPECT_THROW(
      (void)cache.get_or_build(
          "k", []() -> std::pair<std::shared_ptr<const void>, std::size_t> {
            throw std::runtime_error("builder failed");
          }),
      std::runtime_error);
  EXPECT_EQ(cache.stats().entries, 0u);
  int builds = 0;
  (void)cache.get_or_build("k", sized(10, &builds));
  EXPECT_EQ(builds, 1) << "the failed build left no poisoned entry";
}

TEST(ArtifactCache, ConcurrentLookupsShareOneInstance) {
  service::ArtifactCache cache(1u << 20);
  std::vector<std::shared_ptr<const void>> seen(8);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < seen.size(); ++t) {
    threads.emplace_back([&cache, &seen, t] {
      for (int i = 0; i < 50; ++i) {
        seen[t] = cache.get_or_build(
            "shared", sized(64, nullptr));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const auto& ptr : seen) EXPECT_EQ(ptr.get(), seen[0].get());
  const service::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u) << "exactly one build under contention";
  EXPECT_EQ(stats.hits, 8u * 50u - 1u);
}

TEST(ArtifactCacheArtifacts, ProblemKeyedByEveryProblemInput) {
  service::ArtifactCache cache(64u << 20);
  const auto spec_a = experiment::ScenarioSpec::parse("matrix=poisson n=12");
  const auto spec_b = experiment::ScenarioSpec::parse("matrix=poisson n=13");
  const auto p1 = service::cached_problem(cache, spec_a);
  const auto p2 = service::cached_problem(cache, spec_a);
  const auto p3 = service::cached_problem(cache, spec_b);
  EXPECT_EQ(p1.get(), p2.get());
  EXPECT_NE(p1.get(), p3.get()) << "n=12 and n=13 must not collide";
  EXPECT_EQ(p1->A.rows(), 144u);
  EXPECT_EQ(p3->A.rows(), 169u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(ArtifactCacheArtifacts, CalibrationTransposeMirrorAndPrecond) {
  service::ArtifactCache cache(64u << 20);
  const auto spec = experiment::ScenarioSpec::parse(
      "matrix=poisson n=10 precond=ilu0 solver=gmres");
  const auto problem = service::cached_problem(cache, spec);

  const auto fro = service::cached_calibration(cache, spec, *problem);
  EXPECT_DOUBLE_EQ(*fro, problem->A.frobenius_norm());
  EXPECT_EQ(fro.get(),
            service::cached_calibration(cache, spec, *problem).get());

  const auto at = service::cached_transpose(cache, spec, *problem);
  EXPECT_EQ(at->nnz(), problem->A.nnz());
  // Poisson is symmetric: A^T == A entrywise.
  EXPECT_EQ(at->values(), problem->A.values());

  const auto precond = service::cached_preconditioner(cache, spec, *problem);
  ASSERT_NE(precond, nullptr);
  EXPECT_EQ(precond.get(),
            service::cached_preconditioner(cache, spec, *problem).get())
      << "the ILU0 factorization is shared, not refactored";

  const auto none_spec = experiment::ScenarioSpec::parse("matrix=poisson n=10");
  EXPECT_EQ(service::cached_preconditioner(cache, none_spec, *problem),
            nullptr);
}

TEST(ArtifactCacheArtifacts, TightBudgetEvictsProblemsButJobsStillRun) {
  // Budget fits roughly one small problem: a 3-matrix rotation must show
  // evictions while every lookup still returns a usable artifact.
  const auto bytes_of = [](const char* text) {
    service::ArtifactCache probe(1u << 30);
    const auto spec = experiment::ScenarioSpec::parse(text);
    const auto problem = service::cached_problem(probe, spec);
    return service::csr_bytes(problem->A) +
           problem->b.size() * sizeof(double);
  };
  const std::size_t one_problem = bytes_of("matrix=poisson n=12");
  service::ArtifactCache cache(one_problem + one_problem / 2);
  const char* specs[] = {"matrix=poisson n=12", "matrix=poisson n=13",
                         "matrix=poisson n=14"};
  for (int round = 0; round < 2; ++round) {
    for (const char* text : specs) {
      const auto spec = experiment::ScenarioSpec::parse(text);
      const auto problem = service::cached_problem(cache, spec);
      ASSERT_NE(problem, nullptr);
      EXPECT_GT(problem->A.rows(), 0u);
    }
  }
  const service::CacheStats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, stats.byte_budget);
}

TEST(ArtifactCacheArtifacts, SellBackendIsCachedCsrIsNot) {
  service::ArtifactCache cache(64u << 20);
  const auto sell_spec = sdcgmres::experiment::ScenarioSpec::parse(
      "matrix=poisson n=10 backend=sell:4:1");
  const auto problem = service::cached_problem(cache, sell_spec);
  const auto before = cache.stats();

  const auto b1 = service::cached_backend(cache, sell_spec, *problem);
  const auto b2 = service::cached_backend(cache, sell_spec, *problem);
  ASSERT_NE(b1, nullptr);
  EXPECT_EQ(b1.get(), b2.get()) << "SELL assembly must be shared";
  EXPECT_EQ(b1->name(), "sell:4:1");
  EXPECT_EQ(cache.stats().hits, before.hits + 1)
      << "the second lookup is a cache hit";
  EXPECT_EQ(cache.stats().misses, before.misses + 1);
  EXPECT_GT(b1->resident_bytes(), 0u);

  // CSR carries no assembled state: it bypasses the cache entirely.
  const auto csr_spec =
      sdcgmres::experiment::ScenarioSpec::parse("matrix=poisson n=10");
  const auto counters = cache.stats();
  const auto c1 = service::cached_backend(cache, csr_spec, *problem);
  ASSERT_NE(c1, nullptr);
  EXPECT_EQ(c1->name(), "csr");
  EXPECT_EQ(cache.stats().hits, counters.hits);
  EXPECT_EQ(cache.stats().misses, counters.misses);
  EXPECT_EQ(cache.stats().entries, counters.entries);
}

TEST(ArtifactCacheArtifacts, BackendKeyedByGeometryAndMatrix) {
  service::ArtifactCache cache(64u << 20);
  const auto spec_a = sdcgmres::experiment::ScenarioSpec::parse(
      "matrix=poisson n=10 backend=sell:4:1");
  const auto spec_b = sdcgmres::experiment::ScenarioSpec::parse(
      "matrix=poisson n=10 backend=sell:8:1");
  const auto spec_c = sdcgmres::experiment::ScenarioSpec::parse(
      "matrix=poisson n=11 backend=sell:4:1");
  const auto pa = service::cached_problem(cache, spec_a);
  const auto pc = service::cached_problem(cache, spec_c);
  const auto ba = service::cached_backend(cache, spec_a, *pa);
  const auto bb = service::cached_backend(cache, spec_b, *pa);
  const auto bc = service::cached_backend(cache, spec_c, *pc);
  EXPECT_NE(ba.get(), bb.get()) << "different geometry, different entry";
  EXPECT_NE(ba.get(), bc.get()) << "different matrix, different entry";
}
