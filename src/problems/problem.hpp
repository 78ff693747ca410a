/**
 * @file
 * Unified workload-facing problem API: every variational workload —
 * molecules, MaxCut, spin chains — resolves through one string-keyed
 * registry, mirroring the backend (`core/backend_registry.hpp`) and
 * optimizer (`opt/optimizer_registry.hpp`) registries.
 *
 * A problem key is `family:instance[?param=value[&param=value]...]`:
 *
 * | key example                        | workload                       |
 * |------------------------------------|--------------------------------|
 * | "molecule:LiH?bond=1.5"            | VQE molecule (paper Table 1)   |
 * | "maxcut:ring-64"                   | MaxCut on the cycle graph C_64 |
 * | "maxcut:er-256?p=0.03&seed=11"     | MaxCut on an Erdos-Renyi graph |
 * | "tfim:chain-8?h=1.25"              | transverse-field Ising chain   |
 * | "xxz:ring-6?delta=0.5"             | Heisenberg XXZ ring            |
 *
 * `make_problem(key)` returns a fully prepared `Problem`: qubit count,
 * constrained objective (Hamiltonian + sector penalties), a
 * Clifford-searchable hardware-efficient ansatz, prior-injection seed
 * steps (the Hartree-Fock point for molecules), an optional classical
 * reference energy, and a lazy exact ground energy (Lanczos / brute
 * force, small sizes only). Unknown families and unknown query
 * parameters are rejected with self-describing errors that list the
 * valid choices. New families can be registered at runtime with
 * `register_problem_family` and are immediately usable from the CLI,
 * the batch runner and every example.
 *
 * A `ProblemMemo` shares built problems across the jobs of a
 * long-lived process (the job server): repeated keys pay for one build
 * and one exact solve.
 */
#ifndef CAFQA_PROBLEMS_PROBLEM_HPP
#define CAFQA_PROBLEMS_PROBLEM_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/thread_safety.hpp"
#include "core/objective.hpp"
#include "pauli/pauli_sum.hpp"

namespace cafqa::problems {

/** A parsed problem key: `family:instance?param=value&...`. */
struct ProblemKey
{
    std::string family;
    std::string instance;
    /** Query parameters in source order (keys must be unique). */
    std::vector<std::pair<std::string, std::string>> params;

    /** Parse a key; throws std::invalid_argument on malformed input
     *  (missing family/instance, empty or duplicate parameters). */
    static ProblemKey parse(const std::string& key);

    /** Reassemble `family:instance?k=v&...`. */
    std::string to_string() const;

    /** The raw value of one parameter, if present. */
    std::optional<std::string> find(const std::string& name) const;
};

/**
 * A fully prepared variational problem, ready for `CafqaPipeline` (set
 * `PipelineConfig::ansatz/objective` from the fields here, or go
 * through `make_pipeline_config` in `core/run_spec.hpp`).
 */
struct Problem
{
    /** Canonical registry key; `make_problem(key)` reproduces this
     *  problem exactly (round-trip). */
    std::string key;
    /** Registry family ("molecule", "maxcut", "tfim", "xxz", ...). */
    std::string family;
    /** Short display name, e.g. "H2" or "ring8". */
    std::string name;
    /** One-line human description of the instance. */
    std::string detail;
    std::size_t num_qubits = 0;

    /** Hamiltonian plus any sector-constraint penalties. */
    VqaObjective objective;
    /** Clifford-searchable hardware-efficient ansatz. */
    Circuit ansatz;
    /** Step assignments worth prior-injecting into the discrete search
     *  (the Hartree-Fock determinant for molecules; may be empty). */
    std::vector<std::vector<int>> seed_steps;

    /** Classical baseline energy (Hartree-Fock for molecules), with a
     *  label naming it; nullopt when the family has no baseline. */
    std::optional<double> reference_energy;
    std::string reference_name;

    /** Named scalar facts about the instance (bond length, edge count,
     *  model couplings, ...) for reporting. */
    std::vector<std::pair<std::string, double>> metrics;

    /** Solver for the exact ground energy; nullopt-returning (or
     *  absent) when the instance is too large. Set by the factory;
     *  invoked lazily by `exact_energy()`. */
    std::function<std::optional<double>()> exact_solver;

    /** The problem Hamiltonian (alias of `objective.hamiltonian`). */
    const PauliSum& hamiltonian() const { return objective.hamiltonian; }

    /** Value of one metric, if recorded. */
    std::optional<double> metric(const std::string& name) const;

    /**
     * Exact ground energy of the bare Hamiltonian (Lanczos for
     * molecules and spin chains, brute force for MaxCut), or nullopt
     * when the instance is too large for an exact solve. Computed on
     * first call and memoized; potentially expensive.
     *
     * Safe to call from several threads at once: `exact_solver` runs
     * once and every caller gets its result (a solver that throws
     * leaves the energy uncomputed, and the next call tries again).
     * Copies of a problem share that one solve, so set `exact_solver`
     * before copying or asking.
     */
    std::optional<double> exact_energy() const;

  private:
    struct ExactOnce
    {
        /** Idle, solving or done; callers that find a solve running
         *  block on it with `std::atomic::wait`. */
        std::atomic<int> state{0};
        std::optional<double> energy;
    };
    std::shared_ptr<ExactOnce> exact_ = std::make_shared<ExactOnce>();
};

/** Factory signature stored in the registry. The factory receives the
 *  parsed key and must reject unknown parameters. */
using ProblemFactory = std::function<Problem(const ProblemKey&)>;

/** One registry entry's metadata (for usage text and docs). */
struct ProblemFamilyInfo
{
    std::string family;
    /** One-line description including the accepted parameters. */
    std::string description;
    /** A small example key that resolves quickly. */
    std::string sample_key;
};

/** Register (or replace) a family under `family`. */
void register_problem_family(const std::string& family,
                             ProblemFactory factory,
                             std::string description = {},
                             std::string sample_key = {});

/** Sorted list of registered families. */
std::vector<std::string> registered_problem_families();

/** Sorted metadata for every registered family. */
std::vector<ProblemFamilyInfo> problem_family_catalog();

/** Resolve a problem key; throws std::invalid_argument on unknown
 *  family (listing the registered ones), unknown parameters, or
 *  invalid parameter values. */
Problem make_problem(const std::string& key);

/**
 * A bounded, thread-safe memo of built problems for a long-lived
 * process that sees the same keys again and again (the job server).
 *
 * Keys are the problem strings as given (no canonicalization), mapped
 * to one shared immutable `Problem`, so jobs on one key also share its
 * exact solve. The memo keeps the `kCapacity` most recently used keys.
 * `make_problem` runs outside the memo's lock; when two callers miss
 * the same key at once both build, the first insert wins and both
 * return it. A build that throws is not stored and the exception
 * reaches the caller unchanged. Re-registering a family with
 * `register_problem_family` makes every entry built before it stale.
 *
 * Lookups count into `cafqa_problem_memo_total{result="hit"|"miss"}`;
 * a miss is a lookup that had to build.
 */
class ProblemMemo
{
  public:
    static constexpr std::size_t kCapacity = 8;

    ProblemMemo() = default;
    ProblemMemo(const ProblemMemo&) = delete;
    ProblemMemo& operator=(const ProblemMemo&) = delete;

    /** The problem for `key`, built on a miss. Throws what
     *  `make_problem(key)` throws. */
    std::shared_ptr<const Problem> get(const std::string& key);

  private:
    struct Entry
    {
        std::string key;
        /** Registry generation read before the build started. */
        std::uint64_t generation = 0;
        std::shared_ptr<const Problem> problem;
    };

    std::vector<Entry>::iterator find_locked(const std::string& key)
        CAFQA_REQUIRES(memo_mutex_);

    Mutex memo_mutex_{"memo_mutex"};
    /** Most recently used first; at most `kCapacity` entries. */
    std::vector<Entry> entries_ CAFQA_GUARDED_BY(memo_mutex_);
};

} // namespace cafqa::problems

#endif // CAFQA_PROBLEMS_PROBLEM_HPP
