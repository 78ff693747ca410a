/**
 * @file
 * Dense statevector simulator — the "ideal machine" reference used for
 * exact expectation values, cross-validation of the stabilizer simulator,
 * post-CAFQA noise-free VQA tuning and the Clifford+kT branch evaluation.
 *
 * Qubit 0 is the least significant bit of the amplitude index.
 */
#ifndef CAFQA_STATEVECTOR_STATEVECTOR_HPP
#define CAFQA_STATEVECTOR_STATEVECTOR_HPP

#include <array>
#include <complex>
#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "pauli/pauli_sum.hpp"

namespace cafqa {

using Complex = std::complex<double>;

/** Dense pure state on up to 28 qubits. */
class Statevector
{
  public:
    /** |0...0> on `num_qubits` qubits. */
    explicit Statevector(std::size_t num_qubits);

    /** Computational basis state |bits> (bit q of `bits` is qubit q). */
    static Statevector basis_state(std::size_t num_qubits,
                                   std::uint64_t bits);

    std::size_t num_qubits() const { return num_qubits_; }
    std::size_t dim() const { return amplitudes_.size(); }

    const std::vector<Complex>& amplitudes() const { return amplitudes_; }
    std::vector<Complex>& amplitudes() { return amplitudes_; }

    /** Apply a 2x2 unitary (row-major [u00,u01,u10,u11]) on one qubit. */
    void apply_1q(const std::array<Complex, 4>& u, std::size_t q);

    void apply_cx(std::size_t control, std::size_t target);
    void apply_cz(std::size_t a, std::size_t b);
    void apply_swap(std::size_t a, std::size_t b);

    /** Apply one gate op, resolving rotation parameters. */
    void apply(const GateOp& op, const std::vector<double>& params = {});

    /** Apply a full circuit. */
    void apply_circuit(const Circuit& circuit,
                       const std::vector<double>& params = {});

    /** Apply a Pauli string (including its phase) in place. */
    void apply_pauli(const PauliString& pauli);

    /** <psi|P|psi>. */
    Complex expectation(const PauliString& pauli) const;

    /** Real part of <psi|op|psi> (the expectation of a Hermitian sum).
     *  One-shot: groups `op` for this call only; hold a
     *  `GroupedPauliSum` to evaluate the same sum repeatedly. */
    double expectation(const PauliSum& op) const;

    /** <this|other>. */
    Complex inner(const Statevector& other) const;

    /** Squared norm. */
    double norm_squared() const;

    /** Scale so that norm == 1; throws on the zero vector. */
    void normalize();

    /** The 2x2 matrix for a single-qubit gate kind (rotations need
     *  `angle`). */
    static std::array<Complex, 4> gate_matrix(GateKind kind, double angle);

  private:
    std::size_t num_qubits_;
    std::vector<Complex> amplitudes_;
};

/**
 * A Pauli sum grouped once by X mask, for repeated dense evaluation.
 *
 * Every string is i^k X^x Z^z, so the sum regroups as
 *     H = c_I + sum_x X^x D_x,
 *     D_x(b) = sum_{t in x} c_t i^{k_t} (-1)^{|b & z_t|},
 * with one diagonal D_x per distinct X mask. Expectation and matvec
 * then make one pass over the vector per group instead of one per
 * term (molecular Hamiltonians have 6-7x fewer groups than terms):
 *     <a|H|a>  = c_I <a|a> + sum_x sum_b conj(a[b ^ x]) a[b] D_x[b]
 *     y[b ^ x] += D_x[b] x[b].
 * The identity coefficient c_I (a molecule's large constant offset)
 * stays out of D_0: folded in, its rounding would land on every
 * entry, and states the per-term sum scores exactly equal — which a
 * search's tie-breaking depends on — would no longer tie.
 *
 * The constructor stores every D_x as a table when groups * 2^n stays
 * within a fixed budget (2^22 complex entries, 64 MiB); otherwise, and
 * for the one-shot `Statevector::expectation(const PauliSum&)` and
 * `accumulate_apply(const PauliSum&, ...)`, each group's diagonal is
 * filled into one 2^n scratch vector just before its pass. Immutable
 * after construction: concurrent calls on one instance are safe.
 */
class GroupedPauliSum
{
  public:
    /** Group `op` (at most 28 qubits) and tabulate its diagonals when
     *  they fit the budget. */
    explicit GroupedPauliSum(const PauliSum& op);

    /** Number of distinct X masks. */
    std::size_t num_groups() const { return groups_.size(); }
    /** True when every diagonal is stored (within the budget). */
    bool has_tables() const { return !tables_.empty(); }

    /** Real part of <a|H|a> over amplitudes of length 2^n. */
    double expectation(const std::vector<Complex>& amplitudes) const;

    /** y += H x over vectors of length 2^n. */
    void accumulate_apply(const std::vector<Complex>& x,
                          std::vector<Complex>& y) const;

  private:
    struct Term
    {
        std::uint64_t z_mask;
        Complex weight; // coefficient * i^phase
    };
    struct Group
    {
        std::uint64_t x_mask;
        std::vector<Term> terms;
    };

    /** One-shot form: groups only, never tabulates. */
    GroupedPauliSum(const PauliSum& op, bool tabulate);

    /** Write D_x of group `g` into d[0 .. 2^n). */
    void fill_diagonal(std::size_t g, Complex* d) const;
    /** D_x of group `g`: the stored table or `scratch`, filled. */
    const Complex* diagonal(std::size_t g,
                            std::vector<Complex>& scratch) const;

    friend class Statevector;
    friend void accumulate_apply(const PauliSum&, const std::vector<Complex>&,
                                 std::vector<Complex>&);

    std::size_t num_qubits_ = 0;
    /** Summed weight of the identity terms (c_I). */
    Complex identity_{0.0, 0.0};
    std::vector<Group> groups_;
    /** groups * 2^n entries, group-major; empty over budget. */
    std::vector<Complex> tables_;
};

/**
 * y += op x: accumulate a Pauli-sum application into a work buffer
 * (one-shot grouped kernel; see `GroupedPauliSum`).
 */
void accumulate_apply(const PauliSum& op, const std::vector<Complex>& x,
                      std::vector<Complex>& y);

} // namespace cafqa

#endif // CAFQA_STATEVECTOR_STATEVECTOR_HPP
