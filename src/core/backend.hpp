/**
 * @file
 * The unified state-preparation backend hierarchy (the evaluation API the
 * whole library is built on).
 *
 * A `Backend` owns an ansatz circuit, prepares the ansatz state for one
 * parameter assignment, and measures expectation values of Hermitian
 * Pauli-sum observables on the prepared state. The two concrete shapes
 * differ only in the parameter domain:
 *
 * - `DiscreteBackend`:   integer quarter-turn steps (theta = k * pi/2),
 *   the CAFQA search domain. Implementations: `CliffordEvaluator`
 *   ("clifford"), `CliffordTEvaluator` ("clifford_t").
 * - `ContinuousBackend`: radian parameter vectors, the VQA tuning
 *   domain. Implementations: `IdealEvaluator` ("statevector"),
 *   `NoisyEvaluator` ("density"), `SampledEvaluator` ("sampled").
 *
 * Both share one evaluation contract: `prepare(point)`, then
 * `expectations(std::span<const PauliSum>)` measures many observables
 * on the prepared state, amortizing state preparation across the
 * Hamiltonian and constraint operators of an objective. Thread-pool
 * fan-out gives each worker a `clone_as` copy and runs that contract
 * per candidate.
 *
 * Backends are constructed directly or through the string-keyed registry
 * in `core/backend_registry.hpp` (`make_backend(BackendConfig)`).
 */
#ifndef CAFQA_CORE_BACKEND_HPP
#define CAFQA_CORE_BACKEND_HPP

#include <memory>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "pauli/pauli_sum.hpp"

namespace cafqa {

/** Common backend base: measure observables on the prepared state. */
class Backend
{
  public:
    virtual ~Backend() = default;

    /** Registry key of this backend's kind (e.g. "clifford"). */
    virtual std::string_view kind() const = 0;

    /** Qubit count of the underlying ansatz/state. */
    virtual std::size_t num_qubits() const = 0;

    /** Parameter count of the underlying ansatz. */
    virtual std::size_t num_params() const = 0;

    /** True when prepare() takes integer quarter-turn steps. */
    virtual bool discrete() const = 0;

    /** Expectation of one Hermitian operator on the prepared state. */
    virtual double expectation(const PauliSum& op) const = 0;

    /**
     * Expectations of several operators on the *same* prepared state —
     * one state preparation amortized across all observables. The
     * default implementation loops `expectation`; backends with
     * per-call setup cost override it.
     */
    virtual std::vector<double>
    expectations(std::span<const PauliSum> ops) const;

    /** Deep copy in the unprepared-or-prepared current state, for
     *  per-thread fan-out. */
    virtual std::unique_ptr<Backend> clone() const = 0;
};

/** Backend over the discrete quarter-turn domain (CAFQA search). */
class DiscreteBackend : public Backend
{
  public:
    bool discrete() const final { return true; }

    /** A point of the domain: one quarter-turn step per parameter. */
    using Point = std::vector<int>;

    /** Prepare the ansatz state for a step assignment
     *  (steps[i] in {0, 1, 2, 3}, theta = steps[i] * pi/2). */
    virtual void prepare(const Point& steps) = 0;
};

/** Backend over continuous radian parameters (VQA tuning). */
class ContinuousBackend : public Backend
{
  public:
    bool discrete() const final { return false; }

    /** A point of the domain: one radian angle per parameter. */
    using Point = std::vector<double>;

    /** Prepare the ansatz state for a radian parameter vector. */
    virtual void prepare(const Point& params) = 0;
};

/** Throws std::invalid_argument: backend kind `kind` is not a
 *  discrete (`want_discrete`) or continuous backend. */
[[noreturn]] void throw_domain_mismatch(std::string_view kind,
                                        bool want_discrete);

/** Checked downcast of an owned backend to `B` (typically
 *  `DiscreteBackend` or `ContinuousBackend`); throws
 *  std::invalid_argument naming the backend's kind on a mismatch. */
template <class B>
std::unique_ptr<B>
downcast_backend(std::unique_ptr<Backend> backend)
{
    B* typed = dynamic_cast<B*>(backend.get());
    if (typed == nullptr) {
        throw_domain_mismatch(backend->kind(),
                              std::is_base_of_v<DiscreteBackend, B>);
    }
    backend.release();
    return std::unique_ptr<B>(typed);
}

/** `backend.clone()` with the static type `B` restored. */
template <class B>
std::unique_ptr<B>
clone_as(const B& backend)
{
    return downcast_backend<B>(backend.clone());
}

} // namespace cafqa

#endif // CAFQA_CORE_BACKEND_HPP
