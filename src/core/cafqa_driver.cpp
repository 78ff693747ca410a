#include "core/cafqa_driver.hpp"

#include <memory>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/clifford_ansatz.hpp"
#include "core/evaluator.hpp"

namespace cafqa {

CafqaResult
exhaustive_clifford_search(const Circuit& ansatz,
                           const VqaObjective& objective)
{
    require_clifford_ansatz(ansatz);
    const std::size_t num_params = ansatz.num_params();
    CAFQA_REQUIRE(num_params <= 12,
                  "exhaustive search limited to 12 parameters (4^12)");
    CAFQA_REQUIRE(objective.hamiltonian.num_qubits() == ansatz.num_qubits(),
                  "Hamiltonian and ansatz qubit counts differ");

    const CliffordEvaluator prototype(ansatz);
    const std::vector<PauliSum> observables = objective.gather_observables();
    const std::uint64_t limit = std::uint64_t{1} << (2 * num_params);

    const auto decode = [num_params](std::uint64_t code,
                                     std::vector<int>& steps) {
        for (std::size_t i = 0; i < num_params; ++i) {
            steps[i] = static_cast<int>(code & 3);
            code >>= 2;
        }
    };

    // Fan the ascending code scan out in contiguous chunks; each worker
    // keeps its own backend clone and chunk-local minimum, and the merge
    // prefers lower codes on ties, so the result is identical to the
    // serial scan (first code achieving the minimum wins).
    ThreadPool& pool = ThreadPool::shared();
    const std::uint64_t chunk_count = std::min<std::uint64_t>(
        limit, static_cast<std::uint64_t>(pool.size()) * 8);
    const std::uint64_t chunk_size =
        (limit + chunk_count - 1) / chunk_count;

    struct ChunkBest
    {
        double value = 0.0;
        std::uint64_t code = 0;
        bool valid = false;
    };
    std::vector<ChunkBest> chunk_best(chunk_count);
    std::vector<std::unique_ptr<DiscreteBackend>> clones(pool.size());

    pool.parallel_for(
        chunk_count, [&](std::size_t worker, std::size_t chunk) {
            auto& backend = clones[worker];
            if (!backend) {
                backend = clone_as(prototype);
            }
            const std::uint64_t lo = chunk * chunk_size;
            const std::uint64_t hi =
                std::min<std::uint64_t>(lo + chunk_size, limit);
            std::vector<int> steps(num_params, 0);
            ChunkBest best;
            for (std::uint64_t code = lo; code < hi; ++code) {
                decode(code, steps);
                backend->prepare(steps);
                const double value =
                    objective.combine(backend->expectations(observables));
                if (!best.valid || value < best.value) {
                    best.value = value;
                    best.code = code;
                    best.valid = true;
                }
            }
            chunk_best[chunk] = best;
        });

    CafqaResult result;
    result.num_parameters = num_params;
    ChunkBest overall;
    for (const ChunkBest& candidate : chunk_best) {
        if (!candidate.valid) {
            continue;
        }
        if (!overall.valid || candidate.value < overall.value) {
            overall = candidate;
        }
    }
    CAFQA_ASSERT(overall.valid, "exhaustive search evaluated nothing");

    result.best_objective = overall.value;
    result.evaluations_to_best = overall.code + 1;
    result.stop_reason = StopReason::SpaceExhausted;
    result.best_steps.assign(num_params, 0);
    decode(overall.code, result.best_steps);

    CliffordEvaluator evaluator(ansatz);
    evaluator.prepare(result.best_steps);
    result.best_energy = objective.energy(evaluator);
    return result;
}

} // namespace cafqa
