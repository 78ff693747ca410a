#include "opt/optimizer_registry.hpp"

#include <string_view>

#include "common/error.hpp"
#include "common/registry.hpp"

namespace cafqa {

namespace {

/** `Options` from `config`, with the config's seed override applied. */
template <typename Options>
Options
seeded(Options options, std::uint64_t seed)
{
    if (seed != 0) {
        options.seed = seed;
    }
    return options;
}

/** The process-wide registry, with the built-in kinds pre-registered.
 *  Function-local static so registration order is independent of
 *  translation-unit initialization order. */
Registry<OptimizerFactory>&
registry()
{
    static Registry<OptimizerFactory> instance(
        "optimizer kind",
        {{"bayes",
          [](const OptimizerConfig& config) {
              return std::make_unique<BayesOptimizer>(
                  seeded(config.bayes, config.seed));
          }},
         {"anneal",
          [](const OptimizerConfig& config) {
              return std::make_unique<SimulatedAnnealingOptimizer>(
                  seeded(config.anneal, config.seed));
          }},
         {"random",
          [](const OptimizerConfig& config) {
              return std::make_unique<RandomSearchOptimizer>(
                  seeded(config.random, config.seed));
          }},
         {"tempering",
          [](const OptimizerConfig& config) {
              return std::make_unique<ParallelTempering>(
                  seeded(config.tempering, config.seed));
          }},
         {"exhaustive",
          [](const OptimizerConfig&) {
              return std::make_unique<ExhaustiveOptimizer>();
          }},
         {"nelder-mead",
          [](const OptimizerConfig& config) {
              return std::make_unique<NelderMeadOptimizer>(
                  config.nelder_mead);
          }},
         {"spsa", [](const OptimizerConfig& config) {
              return std::make_unique<SpsaOptimizer>(
                  seeded(config.spsa, config.seed));
          }}});
    return instance;
}

constexpr std::string_view kPortfolioPrefix = "portfolio:";

/** Build a `PortfolioSearch` from a "portfolio:<k1+k2+...>" key: one
 *  arm per '+'-separated discrete kind, arm i seeded `seed + i` (when
 *  a seed override is set) so a one-arm portfolio matches the bare
 *  optimizer bit for bit. */
std::unique_ptr<Optimizer>
make_portfolio_optimizer(const OptimizerConfig& config)
{
    const std::string spec =
        config.kind.substr(kPortfolioPrefix.size());
    std::vector<std::string> kinds;
    std::size_t begin = 0;
    while (begin <= spec.size()) {
        const std::size_t end = spec.find('+', begin);
        kinds.push_back(spec.substr(
            begin, end == std::string::npos ? end : end - begin));
        if (end == std::string::npos) {
            break;
        }
        begin = end + 1;
    }
    const auto discrete_kinds = [] {
        std::string all;
        for (const std::string& kind : registered_discrete_optimizers()) {
            all += all.empty() ? kind : ", " + kind;
        }
        return all;
    };
    for (const std::string& kind : kinds) {
        CAFQA_REQUIRE(!kind.empty(),
                      "empty portfolio arm in \"" + config.kind +
                          "\": expected \"portfolio:<kind1+kind2+...>\" "
                          "over discrete kinds (" +
                          discrete_kinds() + "), e.g. "
                          "\"portfolio:anneal+bayes+random\"");
        CAFQA_REQUIRE(kind.rfind(kPortfolioPrefix, 0) != 0,
                      "portfolio arm \"" + kind +
                          "\" in \"" + config.kind +
                          "\": portfolios cannot nest");
    }
    std::vector<PortfolioArm> arms;
    arms.reserve(kinds.size());
    for (std::size_t i = 0; i < kinds.size(); ++i) {
        OptimizerConfig arm_config = config;
        arm_config.kind = kinds[i];
        if (config.seed != 0) {
            arm_config.seed = config.seed + i;
        }
        try {
            arms.push_back(PortfolioArm{
                kinds[i], make_discrete_optimizer(arm_config)});
        } catch (const std::exception& error) {
            CAFQA_REQUIRE(false, "portfolio arm \"" + kinds[i] +
                                     "\" in \"" + config.kind +
                                     "\": " + error.what());
        }
    }
    return std::make_unique<PortfolioSearch>(
        std::move(arms), config.portfolio, config.kind);
}

template <typename Interface>
std::vector<std::string>
registered_kinds_of()
{
    std::vector<std::string> kinds;
    for (const std::string& kind : registered_optimizers()) {
        OptimizerConfig config;
        config.kind = kind;
        // Classification needs an instance; a third-party factory that
        // rejects the default config is skipped rather than breaking
        // every listing (CLI usage text, ablation bench, ...).
        try {
            const std::unique_ptr<Optimizer> optimizer =
                make_optimizer(config);
            if (dynamic_cast<const Interface*>(optimizer.get()) !=
                nullptr) {
                kinds.push_back(kind);
            }
        } catch (const std::exception&) {
            continue;
        }
    }
    return kinds;
}

} // namespace

void
register_optimizer(const std::string& kind, OptimizerFactory factory)
{
    CAFQA_REQUIRE(!kind.empty(), "optimizer kind must be non-empty");
    CAFQA_REQUIRE(kind.rfind(kPortfolioPrefix, 0) != 0,
                  "optimizer kind \"" + kind +
                      "\" starts with the reserved composition prefix "
                      "\"portfolio:\"");
    CAFQA_REQUIRE(factory != nullptr, "optimizer factory must be callable");
    registry().add(kind, std::move(factory));
}

std::vector<std::string>
registered_optimizers()
{
    return registry().names();
}

std::vector<std::string>
registered_discrete_optimizers()
{
    return registered_kinds_of<DiscreteOptimizer>();
}

std::vector<std::string>
registered_continuous_optimizers()
{
    return registered_kinds_of<ContinuousOptimizer>();
}

std::unique_ptr<Optimizer>
make_optimizer(const OptimizerConfig& config)
{
    if (config.kind.rfind(kPortfolioPrefix, 0) == 0) {
        return make_portfolio_optimizer(config);
    }
    const OptimizerFactory factory = registry().get(
        config.kind, {},
        "; discrete kinds also compose as "
        "\"portfolio:<kind1+kind2+...>\"");
    std::unique_ptr<Optimizer> optimizer = factory(config);
    CAFQA_ASSERT(optimizer != nullptr, "optimizer factory returned null");
    return optimizer;
}

std::unique_ptr<DiscreteOptimizer>
make_discrete_optimizer(const OptimizerConfig& config)
{
    std::unique_ptr<Optimizer> optimizer = make_optimizer(config);
    auto* discrete = dynamic_cast<DiscreteOptimizer*>(optimizer.get());
    CAFQA_REQUIRE(discrete != nullptr,
                  "optimizer kind \"" + config.kind +
                      "\" does not minimize over a discrete space");
    optimizer.release();
    return std::unique_ptr<DiscreteOptimizer>(discrete);
}

std::unique_ptr<ContinuousOptimizer>
make_continuous_optimizer(const OptimizerConfig& config)
{
    std::unique_ptr<Optimizer> optimizer = make_optimizer(config);
    auto* continuous = dynamic_cast<ContinuousOptimizer*>(optimizer.get());
    CAFQA_REQUIRE(continuous != nullptr,
                  "optimizer kind \"" + config.kind +
                      "\" does not minimize from a continuous start point");
    optimizer.release();
    return std::unique_ptr<ContinuousOptimizer>(continuous);
}

} // namespace cafqa
