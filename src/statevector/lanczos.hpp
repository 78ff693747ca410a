/**
 * @file
 * Lanczos ground-state solver for qubit Hamiltonians — the "Exact"
 * reference of the paper's evaluation (possible only for small problem
 * sizes; here up to ~18-20 qubits).
 *
 * The matvec applies the Hamiltonian grouped once per solve by X mask
 * (`GroupedPauliSum`) to a dense vector, so no matrix is ever
 * materialized.
 */
#ifndef CAFQA_STATEVECTOR_LANCZOS_HPP
#define CAFQA_STATEVECTOR_LANCZOS_HPP

#include <functional>
#include <optional>

#include "pauli/pauli_sum.hpp"
#include "statevector/statevector.hpp"

namespace cafqa {

/** Options for the Lanczos iteration. */
struct LanczosOptions
{
    /** Maximum Krylov dimension. */
    std::size_t max_iterations = 300;
    /** Stop when the smallest Ritz value changes less than this. */
    double tolerance = 1e-10;
    /** Seed for the random start vector. */
    std::uint64_t seed = 7;
    /**
     * Also reconstruct the ground-state vector. This stores the full
     * Krylov basis (with reorthogonalization), so it is restricted to
     * small qubit counts; energy-only mode keeps three vectors.
     */
    bool want_vector = false;
    /**
     * Optional symmetry-sector restriction: basis states for which the
     * predicate returns false are projected out of the start vector and
     * after every matvec. It is called exactly once per basis state per
     * solve. The Hamiltonian must preserve the subspace
     * (e.g. an electron-number sector of a molecular Hamiltonian) —
     * the solve then returns the lowest eigenvalue *within the sector*.
     */
    std::function<bool(std::uint64_t)> basis_filter;
};

/** Result of a ground-state solve. */
struct GroundState
{
    double energy = 0.0;
    /** Present when LanczosOptions::want_vector was set. */
    std::optional<Statevector> state;
    /** Krylov iterations actually performed. */
    std::size_t iterations = 0;
};

/** Smallest eigenvalue (and optionally eigenvector) of a Hermitian
 *  Pauli sum. */
GroundState lanczos_ground_state(const PauliSum& hamiltonian,
                                 const LanczosOptions& options = {});

/**
 * Dense reference eigenvalues for tiny systems (<= 10 qubits): builds the
 * full matrix as a real-symmetric embedding and diagonalizes it. Used by
 * tests to validate Lanczos.
 */
std::vector<double> dense_spectrum(const PauliSum& hamiltonian);

} // namespace cafqa

#endif // CAFQA_STATEVECTOR_LANCZOS_HPP
