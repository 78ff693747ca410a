// Trajectory goldens: the Clifford-search stage of fixed RunSpecs must
// reproduce committed results bit for bit. Each row pins the best
// objective (as a hexfloat), the best quarter-turn assignment and a
// 64-bit FNV-1a digest over the bit patterns of the full evaluation
// history, so any change to the search trajectory - the sampled
// points, their order or their values - fails here.
//
// The rows are the contract for refactors that must not change
// behaviour. A deliberate trajectory change replaces the affected rows
// with the actual rows this test prints on mismatch, and says why.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core/run_spec.hpp"

namespace cafqa {
namespace {

struct Golden
{
    const char* spec;
    double best_objective;
    std::vector<int> best_steps;
    std::uint64_t history_digest;
};

/** FNV-1a over the little-endian bytes of each value's bit pattern. */
std::uint64_t
history_digest(const std::vector<double>& history)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const double value : history) {
        const auto bits = std::bit_cast<std::uint64_t>(value);
        for (int byte = 0; byte < 8; ++byte) {
            hash ^= (bits >> (8 * byte)) & 0xffU;
            hash *= 0x100000001b3ULL;
        }
    }
    return hash;
}

/** One table row in the source form of `kGoldens`. */
std::string
table_row(const char* spec, const CafqaResult& result)
{
    char objective[40];
    std::snprintf(objective, sizeof objective, "%a", result.best_objective);
    char digest[24];
    std::snprintf(digest, sizeof digest, "0x%016llx",
                  static_cast<unsigned long long>(
                      history_digest(result.history)));
    std::string steps;
    for (const int step : result.best_steps) {
        steps += (steps.empty() ? "" : ", ") + std::to_string(step);
    }
    return std::string("{\"") + spec + "\",\n     " + objective + ", {" +
           steps + "},\n     " + digest + "ULL},";
}

/** gtest prints a parameter by its spec instead of its raw bytes. */
void
PrintTo(const Golden& golden, std::ostream* out)
{
    *out << golden.spec;
}

// The paper-default 200+300 `bayes` search runs on H2 and LiH; the
// other problems use smaller `bayes` budgets to keep the suite short.
const std::vector<Golden> kGoldens = {
    {"problem=molecule:H2?bond=0.74",
     -0x1.1de3f02b35c66p+0, {2, 2, 0, 0, 0, 0, 0, 0},
     0x890d543ed7ce7dbaULL},
    {"problem=molecule:H2?bond=0.74 search=anneal",
     -0x1.1de3f02b35c66p+0, {2, 2, 0, 0, 0, 0, 0, 0},
     0x6e805b2098573e6cULL},
    {"problem=molecule:H2?bond=0.74 search=tempering",
     -0x1.1de3f02b35c66p+0, {2, 2, 0, 0, 0, 0, 0, 0},
     0xf76dda9412fff633ULL},
    {"problem=molecule:H2?bond=0.74 search=portfolio:anneal+bayes+tempering warmup=40 iterations=60",
     -0x1.1de3f02b35c66p+0, {2, 2, 0, 0, 0, 0, 0, 0},
     0x2b262b48567d4eebULL},
    {"problem=molecule:LiH?bond=1.6",
     -0x1.f728caed136d7p+2, {2, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
     0x3a46f1d27586a86cULL},
    {"problem=molecule:LiH?bond=1.6 search=anneal",
     -0x1.f728caed136d7p+2, {2, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
     0xa11d6ae8417e1235ULL},
    {"problem=molecule:LiH?bond=1.6 search=tempering",
     -0x1.f728caed136d7p+2, {2, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
     0x898606ef1bc3655bULL},
    {"problem=molecule:LiH?bond=1.6 search=portfolio:anneal+bayes+tempering warmup=40 iterations=60",
     -0x1.f728caed136d7p+2, {2, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
     0xe0827165db5b34a2ULL},
    {"problem=maxcut:ring-8 warmup=40 iterations=60",
     -0x1.ap+2, {0, 2, 2, 2, 0, 3, 0, 2, 3, 0, 0, 2, 1, 0, 2, 0, 2, 2, 2, 2, 0, 1, 0, 0, 3, 2, 3, 0, 3, 1, 3, 0},
     0x0b05279f847977a7ULL},
    {"problem=maxcut:ring-8 search=anneal",
     -0x1p+3, {0, 0, 0, 0, 2, 2, 0, 2, 2, 2, 0, 2, 2, 1, 1, 3, 0, 2, 0, 2, 2, 2, 0, 0, 0, 3, 2, 1, 0, 0, 2, 3},
     0x861a51d874507b77ULL},
    {"problem=maxcut:ring-8 search=tempering",
     -0x1.ap+2, {1, 1, 2, 3, 0, 0, 2, 0, 3, 0, 2, 2, 1, 1, 0, 2, 3, 3, 1, 2, 0, 2, 2, 0, 2, 2, 0, 2, 3, 0, 1, 1},
     0x695c78fe85e83d4bULL},
    {"problem=maxcut:ring-8 search=portfolio:anneal+bayes+tempering warmup=40 iterations=60",
     -0x1.8p+2, {1, 0, 1, 0, 2, 2, 0, 0, 2, 1, 2, 0, 2, 2, 3, 1, 3, 1, 2, 0, 3, 2, 0, 2, 2, 0, 2, 3, 3, 1, 0, 0},
     0x7c00504f190fe2d3ULL},
    {"problem=tfim:chain-6 warmup=40 iterations=60",
     -0x1.4p+2, {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
     0xd9dbfb427d88c94cULL},
    {"problem=tfim:chain-6 search=anneal",
     -0x1.4p+2, {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
     0xde1f399e3f9a0f00ULL},
    {"problem=tfim:chain-6 search=tempering",
     -0x1.4p+2, {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
     0x95c9e1003347918dULL},
    {"problem=tfim:chain-6 search=portfolio:anneal+bayes+tempering warmup=40 iterations=60",
     -0x1.4p+2, {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
     0xdbd484c03a1209e0ULL},
};

class Goldens : public ::testing::TestWithParam<Golden>
{
};

TEST_P(Goldens, CliffordSearchTrajectoryIsUnchanged)
{
    const Golden& golden = GetParam();
    const RunSpec spec = RunSpec::parse(golden.spec);
    const problems::Problem problem = problems::make_problem(spec.problem);
    CafqaPipeline pipeline(make_pipeline_config(spec, problem));
    const CafqaResult& result = pipeline.run_clifford_search();

    const bool matches =
        std::bit_cast<std::uint64_t>(result.best_objective) ==
            std::bit_cast<std::uint64_t>(golden.best_objective) &&
        result.best_steps == golden.best_steps &&
        history_digest(result.history) == golden.history_digest;
    EXPECT_TRUE(matches) << "actual row:\n    "
                         << table_row(golden.spec, result);
}

INSTANTIATE_TEST_SUITE_P(
    Trajectories, Goldens, ::testing::ValuesIn(kGoldens),
    [](const ::testing::TestParamInfo<Golden>& info) {
        std::string name = std::to_string(info.index) + "_";
        for (const char* c = info.param.spec; *c != '\0'; ++c) {
            const bool alnum = (*c >= 'a' && *c <= 'z') ||
                               (*c >= 'A' && *c <= 'Z') ||
                               (*c >= '0' && *c <= '9');
            name += alnum ? *c : '_';
        }
        return name;
    });

} // namespace
} // namespace cafqa
