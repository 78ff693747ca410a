// Tests for the memoizing evaluation cache (core/caching_backend.hpp):
// registry composition ("cached:<kind>" / BackendConfig::cache), exact
// cached==uncached parity through the pipeline, LRU eviction and stats
// accounting, determinism across thread counts (clones share one
// cache), correctness under concurrent access, and cross-run sharing —
// each over both parameter domains where the path differs.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include "common/text.hpp"
#include "common/thread_pool.hpp"
#include "core/batch_runner.hpp"
#include "core/caching_backend.hpp"
#include "core/clifford_ansatz.hpp"
#include "core/evaluator.hpp"
#include "core/pipeline.hpp"
#include "problems/molecule_factory.hpp"

namespace cafqa {
namespace {

Circuit
tiny_ansatz()
{
    Circuit ansatz(2);
    ansatz.ry_param(0);
    ansatz.ry_param(1);
    ansatz.cx(0, 1);
    return ansatz;
}

/** The two parameter domains of the caching decorator, by the kind of
 *  the wrapped backend. */
const std::vector<std::string> kDomainKinds{"clifford", "statevector"};

/** Prepare `backend` at a quarter-turn point: the steps verbatim in
 *  the discrete domain, the matching radians in the continuous one. */
void
prepare_steps(Backend& backend, const std::vector<int>& steps)
{
    if (auto* discrete = dynamic_cast<DiscreteBackend*>(&backend)) {
        discrete->prepare(steps);
    } else {
        dynamic_cast<ContinuousBackend&>(backend).prepare(
            steps_to_angles(steps));
    }
}

std::unique_ptr<Backend>
backend_of(const std::string& kind, const Circuit& ansatz,
           const CacheOptions& cache = {})
{
    BackendConfig config;
    config.kind = kind;
    config.ansatz = ansatz;
    config.cache = cache;
    return make_backend(config);
}

CacheStats
stats_of(const Backend& backend)
{
    const std::optional<CacheStats> stats = cache_stats_of(backend);
    EXPECT_TRUE(stats.has_value()) << backend.kind() << " is not cached";
    return stats.value_or(CacheStats{});
}

CacheOptions
cache_on(std::size_t capacity = std::size_t{1} << 16,
         std::size_t shards = 8)
{
    CacheOptions options;
    options.enabled = true;
    options.capacity = capacity;
    options.shards = shards;
    return options;
}

PipelineConfig
h2_config(std::uint64_t seed, const std::string& search_kind = "bayes")
{
    const auto system = problems::make_molecular_system("H2", 2.2);
    PipelineConfig config;
    config.ansatz = system.ansatz;
    config.objective = problems::make_objective(system);
    config.search.warmup = 50;
    config.search.iterations = 80;
    config.search.seed = seed;
    config.search_optimizer = optimizer_config(search_kind);
    return config;
}

TEST(CachingBackend, RegistryComposesByPrefixAndConfigBlock)
{
    BackendConfig config;
    config.kind = "cached:clifford";
    config.ansatz = tiny_ansatz();
    const auto by_prefix = make_discrete_backend(config);
    EXPECT_EQ(by_prefix->kind(), "cached:clifford");
    EXPECT_TRUE(by_prefix->discrete());
    EXPECT_EQ(by_prefix->num_params(), 2u);

    BackendConfig block;
    block.kind = "statevector";
    block.ansatz = tiny_ansatz();
    block.cache.enabled = true;
    const auto by_block = make_continuous_backend(block);
    EXPECT_EQ(by_block->kind(), "cached:statevector");
    EXPECT_FALSE(by_block->discrete());

    BackendConfig prefixed;
    prefixed.ansatz = tiny_ansatz();
    prefixed.kind = "cached:density";
    EXPECT_EQ(make_backend(prefixed)->kind(), "cached:density");
    prefixed.kind = "cached:no-such-backend";
    EXPECT_THROW(make_backend(prefixed), std::invalid_argument);
    prefixed.kind = "cached:";
    EXPECT_THROW(make_backend(prefixed), std::invalid_argument);
}

TEST(CachingBackend, HitsSkipPreparationAndLruEvictsOldest)
{
    const PauliSum op = PauliSum::from_terms(2, {{1.0, "ZZ"}});
    const std::vector<int> a{0, 0};
    const std::vector<int> b{1, 0};
    const std::vector<int> c{2, 0};

    for (const std::string& kind : kDomainKinds) {
        SCOPED_TRACE(kind);
        const auto wrapper = backend_of(
            kind, tiny_ansatz(), cache_on(/*capacity=*/2, /*shards=*/1));

        prepare_steps(*wrapper, a);
        const double value_a = wrapper->expectation(op); // miss, prepares
        EXPECT_DOUBLE_EQ(wrapper->expectation(op), value_a); // hit
        prepare_steps(*wrapper, a);
        EXPECT_DOUBLE_EQ(wrapper->expectation(op), value_a); // hit, no prep

        CacheStats stats = stats_of(*wrapper);
        EXPECT_EQ(stats.hits, 2u);
        EXPECT_EQ(stats.misses, 1u);
        EXPECT_EQ(stats.preparations, 1u);
        EXPECT_EQ(stats.entries, 1u);
        EXPECT_EQ(stats.evictions, 0u);
        EXPECT_GT(stats.bytes, 0u);
        EXPECT_NEAR(stats.hit_rate(), 2.0 / 3.0, 1e-12);

        prepare_steps(*wrapper, b);
        wrapper->expectation(op); // miss: {b, a} resident
        prepare_steps(*wrapper, a);
        wrapper->expectation(op); // hit refreshes a: {a, b}
        prepare_steps(*wrapper, c);
        wrapper->expectation(op); // miss at capacity: evicts b -> {c, a}

        stats = stats_of(*wrapper);
        EXPECT_EQ(stats.evictions, 1u);
        EXPECT_EQ(stats.entries, 2u);

        prepare_steps(*wrapper, a);
        wrapper->expectation(op); // still resident (was refreshed)
        EXPECT_EQ(stats_of(*wrapper).hits, stats.hits + 1);

        prepare_steps(*wrapper, b);
        wrapper->expectation(op); // evicted above: a fresh miss + prep
        const CacheStats final_stats = stats_of(*wrapper);
        EXPECT_EQ(final_stats.misses, stats.misses + 1);
        EXPECT_EQ(final_stats.evictions, 2u);
        EXPECT_EQ(final_stats.preparations, final_stats.misses);
        // Re-evaluations of evicted points recompute the same values.
        EXPECT_DOUBLE_EQ(wrapper->expectation(op), wrapper->expectation(op));
    }
}

TEST(CachingBackend, CachedPipelineMatchesUncachedExactlyOnH2)
{
    CafqaPipeline uncached(h2_config(19));
    const CafqaResult& reference = uncached.run_clifford_search();

    PipelineConfig config = h2_config(19);
    config.cache = cache_on();
    CafqaPipeline cached(std::move(config));
    const CafqaResult& result = cached.run_clifford_search();

    EXPECT_EQ(result.best_steps, reference.best_steps);
    EXPECT_DOUBLE_EQ(result.best_objective, reference.best_objective);
    EXPECT_DOUBLE_EQ(result.best_energy, reference.best_energy);
    EXPECT_EQ(result.history, reference.history);
}

TEST(CachingBackend, CachedPipelineMatchesUncachedExactlyOnLiH)
{
    const auto system = problems::make_molecular_system("LiH", 2.4);
    auto make_config = [&](bool with_cache) {
        PipelineConfig config;
        config.ansatz = system.ansatz;
        config.objective = problems::make_objective(system);
        config.search.warmup = 40;
        config.search.iterations = 40;
        config.search.seed = 5;
        if (with_cache) {
            config.cache = cache_on();
        }
        return config;
    };

    CafqaPipeline uncached(make_config(false));
    CafqaPipeline cached(make_config(true));
    const CafqaResult& reference = uncached.run_clifford_search();
    const CafqaResult& result = cached.run_clifford_search();

    EXPECT_EQ(result.best_steps, reference.best_steps);
    EXPECT_DOUBLE_EQ(result.best_energy, reference.best_energy);
    EXPECT_EQ(result.history, reference.history);
}

TEST(CachingBackend, AnnealingRevisitsHitTheCacheAndStatsReachObserver)
{
    CafqaPipeline uncached(h2_config(7, "anneal"));
    const CafqaResult& reference = uncached.run_clifford_search();

    PipelineConfig config = h2_config(7, "anneal");
    config.cache = cache_on();
    CafqaPipeline cached(std::move(config));

    std::optional<CacheStats> observed;
    cached.set_observer([&](const PipelineEvent& event) {
        if (event.event == PipelineEvent::Kind::StageEnd &&
            event.cache != nullptr) {
            observed = *event.cache;
        }
    });
    const CafqaResult& result = cached.run_clifford_search();

    // Pure memoization: the trajectory is bit-identical...
    EXPECT_EQ(result.history, reference.history);
    EXPECT_DOUBLE_EQ(result.best_energy, reference.best_energy);

    // ...while annealing's re-visits were served from the cache.
    ASSERT_TRUE(observed.has_value());
    EXPECT_GT(observed->hits, 0u);
    EXPECT_GT(observed->hit_rate(), 0.0);
    // Preparations < recorded evaluations: re-visited points skipped
    // state preparation entirely.
    EXPECT_LT(observed->preparations, result.history.size());
}

TEST(CachingBackend, NoCacheStatsOnObserverWhenDisabled)
{
    CafqaPipeline pipeline(h2_config(3));
    bool saw_stage_end = false;
    pipeline.set_observer([&](const PipelineEvent& event) {
        if (event.event == PipelineEvent::Kind::StageEnd) {
            saw_stage_end = true;
            EXPECT_EQ(event.cache, nullptr);
        }
    });
    pipeline.run_clifford_search();
    EXPECT_TRUE(saw_stage_end);
}

TEST(CachingBackend, DeterministicAcrossThreadCountsWithSharedCache)
{
    std::vector<CafqaResult> results;
    for (const std::size_t threads : {1u, 4u}) {
        PipelineConfig config = h2_config(11);
        config.cache = cache_on();
        config.threads = threads;
        CafqaPipeline pipeline(std::move(config));
        results.push_back(pipeline.run_clifford_search());
    }
    EXPECT_EQ(results[0].best_steps, results[1].best_steps);
    EXPECT_EQ(results[0].history, results[1].history);
    EXPECT_DOUBLE_EQ(results[0].best_energy, results[1].best_energy);
}

TEST(CachingBackend, CachedVqaTuneMatchesUncached)
{
    auto tune_config = [](bool with_cache) {
        PipelineConfig config = h2_config(13);
        config.search.warmup = 20;
        config.search.iterations = 20;
        config.tuner.iterations = 30;
        if (with_cache) {
            config.cache = cache_on();
        }
        return config;
    };

    CafqaPipeline uncached(tune_config(false));
    CafqaPipeline cached(tune_config(true));
    const VqaTuneResult& reference = uncached.run_vqa_tune();
    const VqaTuneResult& result = cached.run_vqa_tune();

    EXPECT_EQ(result.trace, reference.trace);
    EXPECT_DOUBLE_EQ(result.final_value, reference.final_value);
    EXPECT_EQ(result.final_params, reference.final_params);
}

TEST(CachingBackend, ConcurrentClonesShareOneCacheCorrectly)
{
    // Clones produced by clone() share the cache; hammer it from a
    // thread pool with deliberately repeated candidates and a small
    // capacity (constant eviction churn), then check every value
    // against an uncached reference. Run under ASan/UBSan in CI.
    const auto system = problems::make_molecular_system("H2", 1.5);
    const VqaObjective objective = problems::make_objective(system);
    const std::vector<PauliSum> observables = objective.gather_observables();

    Rng rng(99);
    std::vector<std::vector<int>> distinct(40);
    for (auto& steps : distinct) {
        steps.resize(system.ansatz.num_params());
        for (auto& s : steps) {
            s = static_cast<int>(rng.uniform_int(0, 3));
        }
    }
    // Each point appears twice back-to-back (so re-visits land inside
    // the tiny LRU window despite the eviction churn), for 4 rounds.
    std::vector<std::vector<int>> candidates;
    for (int round = 0; round < 4; ++round) {
        for (const auto& steps : distinct) {
            candidates.push_back(steps);
            candidates.push_back(steps);
        }
    }

    for (const std::string& kind : kDomainKinds) {
        SCOPED_TRACE(kind);
        const auto prototype = backend_of(
            kind, system.ansatz, cache_on(/*capacity=*/16, /*shards=*/4));

        ThreadPool pool(4);
        std::vector<double> values(candidates.size());
        std::vector<std::unique_ptr<Backend>> clones(pool.size());
        pool.parallel_for(candidates.size(),
                          [&](std::size_t worker, std::size_t index) {
                              auto& backend = clones[worker];
                              if (!backend) {
                                  backend = prototype->clone();
                              }
                              prepare_steps(*backend, candidates[index]);
                              values[index] = objective.combine(
                                  backend->expectations(observables));
                          });

        const auto reference = backend_of(kind, system.ansatz);
        for (std::size_t i = 0; i < candidates.size(); ++i) {
            prepare_steps(*reference, candidates[i]);
            EXPECT_DOUBLE_EQ(values[i], objective.evaluate(*reference))
                << "candidate " << i;
        }

        const CacheStats stats = stats_of(*prototype);
        EXPECT_EQ(stats.hits + stats.misses,
                  candidates.size() * observables.size());
        EXPECT_GT(stats.hits, 0u);
        EXPECT_GT(stats.evictions, 0u);
        EXPECT_LE(stats.entries, 16u + 4u); // capacity, rounded per shard
    }
}

TEST(CachingBackend, ContinuousQuantizationSharesEntriesWithinResolution)
{
    CacheOptions options = cache_on();
    options.resolution = 1e-6;
    CachingContinuousBackend wrapper(
        std::make_unique<IdealEvaluator>(tiny_ansatz()),
        std::make_shared<EvaluationCache>(options));
    const PauliSum op = PauliSum::from_terms(2, {{1.0, "ZZ"}});

    wrapper.prepare({0.5, 1.0});
    const double first = wrapper.expectation(op);
    // Within one quantization step: served from the cache.
    wrapper.prepare({0.5 + 1e-9, 1.0});
    EXPECT_DOUBLE_EQ(wrapper.expectation(op), first);
    EXPECT_EQ(wrapper.cache_stats().hits, 1u);
    // Beyond the step: a genuine re-evaluation.
    wrapper.prepare({0.5 + 1e-3, 1.0});
    wrapper.expectation(op);
    EXPECT_EQ(wrapper.cache_stats().misses, 2u);
    EXPECT_EQ(wrapper.cache_stats().preparations, 2u);
}

TEST(OutcomeRecorder, RepeatedPointsConsumeBudget)
{
    // Every record consumes budget, repeats included: the third record
    // exhausts a budget of 3.
    const std::vector<int> a{0, 0};
    const std::vector<int> b{1, 0};
    StoppingCriteria criteria;
    criteria.max_evaluations = 3;
    OutcomeRecorder recorder(criteria, criteria.max_evaluations, {});
    recorder.record(a, 1.0);
    recorder.record(b, 2.0);
    EXPECT_THROW(recorder.record(a, 1.0), OutcomeRecorder::EarlyStop);
}

TEST(CacheStats, JsonRoundTripsEveryCounter)
{
    CacheStats stats;
    stats.hits = 41;
    stats.misses = 7;
    stats.evictions = 3;
    stats.entries = 4;
    stats.bytes = 2048;
    stats.preparations = 7;

    const std::string json = stats.to_json();
    const std::vector<JsonField> fields = parse_flat_json_object(json);
    const auto value = [&](const std::string& name) {
        const JsonField* field = find_json_field(fields, name);
        EXPECT_NE(field, nullptr) << name << " missing from " << json;
        return field != nullptr ? field->value : std::string{};
    };
    EXPECT_EQ(value("hits"), "41");
    EXPECT_EQ(value("misses"), "7");
    EXPECT_EQ(value("evictions"), "3");
    EXPECT_EQ(value("entries"), "4");
    EXPECT_EQ(value("bytes"), "2048");
    EXPECT_EQ(value("preparations"), "7");
    EXPECT_EQ(value("hit_rate"), format_real(stats.hit_rate()));

    // Zero-lookup stats serialize a well-defined rate.
    const std::string empty = CacheStats{}.to_json();
    const auto empty_fields = parse_flat_json_object(empty);
    EXPECT_EQ(find_json_field(empty_fields, "hit_rate")->value, "0");
}

TEST(SharedCache, CrossRunSharingIsBitIdenticalAndHits)
{
    // Two identical runs over one process-wide cache: the second hits
    // the first's entries, and both records match the uncached solo
    // run exactly — the serving cache is a pure memoizer. The "tune"
    // input also routes the statevector tuning stage through the
    // shared cache.
    for (const std::string stages : {"", " tune=20"}) {
        SCOPED_TRACE("stages:" + stages);
        const RunSpec spec = RunSpec::parse(
            "problem=maxcut:ring-6 warmup=6 iterations=6" + stages);
        const RunRecord solo = execute_run_spec(spec);
        EXPECT_EQ(solo.tuned_value.has_value(), !stages.empty());

        RunContext context;
        context.shared_cache =
            std::make_shared<EvaluationCache>(cache_on());
        const RunRecord first = execute_run_spec(spec, context);
        const CacheStats after_first = context.shared_cache->stats();
        EXPECT_GT(after_first.misses, 0u);

        const RunRecord second = execute_run_spec(spec, context);
        const CacheStats after_second = context.shared_cache->stats();
        EXPECT_GT(after_second.hits, after_first.hits);
        // Every point of the second run was already materialized.
        EXPECT_EQ(after_second.entries, after_first.entries);
        EXPECT_EQ(after_second.preparations, after_first.preparations);

        for (const RunRecord* record : {&first, &second}) {
            EXPECT_EQ(record->best_objective, solo.best_objective);
            EXPECT_EQ(record->cafqa_energy, solo.cafqa_energy);
            EXPECT_EQ(record->tuned_value, solo.tuned_value);
            EXPECT_EQ(record->evaluations_to_best,
                      solo.evaluations_to_best);
            EXPECT_EQ(record->stop_reason, solo.stop_reason);
        }

        // Distinct problems sharing the cache must not alias: a
        // different instance over the same cache still matches ITS solo
        // run.
        const RunSpec other = RunSpec::parse(
            "problem=maxcut:ring-8 warmup=6 iterations=6" + stages);
        const RunRecord other_solo = execute_run_spec(other);
        const RunRecord other_shared = execute_run_spec(other, context);
        EXPECT_EQ(other_shared.best_objective, other_solo.best_objective);
        EXPECT_EQ(other_shared.cafqa_energy, other_solo.cafqa_energy);
        EXPECT_EQ(other_shared.tuned_value, other_solo.tuned_value);
    }
}

} // namespace
} // namespace cafqa
