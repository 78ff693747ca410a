// Tests for the dense statevector simulator, the grouped Pauli-sum
// kernel and the Lanczos eigensolver.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <numbers>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "problems/molecule_factory.hpp"
#include "statevector/lanczos.hpp"
#include "statevector/statevector.hpp"

namespace cafqa {
namespace {

// ------------------------------------------------- per-term oracle

// The one-pass-per-term loops the grouped kernel replaced, kept as the
// reference the differential tests compare against.

Complex
i_power(std::uint8_t k)
{
    const Complex powers[] = {{1.0, 0.0}, {0.0, 1.0}, {-1.0, 0.0},
                              {0.0, -1.0}};
    return powers[k & 3];
}

double
oracle_expectation(const std::vector<Complex>& a, const PauliSum& op)
{
    double total = 0.0;
    for (const auto& term : op.terms()) {
        const std::uint64_t xm = term.string.x_words()[0];
        const std::uint64_t zm = term.string.z_words()[0];
        Complex sum{0.0, 0.0};
        for (std::uint64_t b = 0; b < a.size(); ++b) {
            const double sign = (std::popcount(b & zm) & 1) ? -1.0 : 1.0;
            sum += std::conj(a[b ^ xm]) * sign * a[b];
        }
        total += (term.coefficient *
                  i_power(term.string.phase_exponent()) * sum)
                     .real();
    }
    return total;
}

void
oracle_accumulate_apply(const PauliSum& op, const std::vector<Complex>& x,
                        std::vector<Complex>& y)
{
    for (const auto& term : op.terms()) {
        const std::uint64_t xm = term.string.x_words()[0];
        const std::uint64_t zm = term.string.z_words()[0];
        const Complex w =
            term.coefficient * i_power(term.string.phase_exponent());
        for (std::uint64_t b = 0; b < x.size(); ++b) {
            const double sign = (std::popcount(b & zm) & 1) ? -1.0 : 1.0;
            y[b ^ xm] += w * sign * x[b];
        }
    }
}

std::vector<Complex>
random_vector(Rng& rng, std::size_t dim)
{
    std::vector<Complex> v(dim);
    double n2 = 0.0;
    for (auto& a : v) {
        a = Complex{rng.normal(), rng.normal()};
        n2 += std::norm(a);
    }
    for (auto& a : v) {
        a /= std::sqrt(n2);
    }
    return v;
}

PauliString
random_string(Rng& rng, std::size_t n)
{
    PauliString p(n);
    for (std::size_t q = 0; q < n; ++q) {
        p.set_letter(q, static_cast<PauliLetter>(rng.uniform_int(0, 3)));
    }
    return p;
}

/**
 * A random sum with Y letters, an identity term and three terms per X
 * mask (a random string's letters re-drawn within its X support: X or
 * Y on it, I or Z off it). Complex coefficients make it non-Hermitian.
 */
PauliSum
random_sum(Rng& rng, std::size_t n, std::size_t masks, bool hermitian)
{
    auto coefficient = [&]() {
        return hermitian ? Complex{rng.normal(), 0.0}
                         : Complex{rng.normal(), rng.normal()};
    };
    auto pick = [&](PauliLetter a, PauliLetter b) {
        return rng.uniform_int(0, 1) == 1 ? a : b;
    };
    PauliSum op(n);
    op.add_term(coefficient(), PauliString(n));
    for (std::size_t m = 0; m < masks; ++m) {
        const PauliString base = random_string(rng, n);
        for (int t = 0; t < 3; ++t) {
            PauliString p(n);
            for (std::size_t q = 0; q < n; ++q) {
                p.set_letter(q, base.x_bit(q)
                                    ? pick(PauliLetter::X, PauliLetter::Y)
                                    : pick(PauliLetter::I, PauliLetter::Z));
            }
            op.add_term(coefficient(), p);
        }
    }
    return op;
}

double
max_abs_diff(const std::vector<Complex>& a, const std::vector<Complex>& b)
{
    double worst = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        worst = std::max(worst, std::abs(a[i] - b[i]));
    }
    return worst;
}

/** Expectation and accumulate_apply of `op` on both kernel paths —
 *  the stored-table operator and the one-shot scratch wrappers —
 *  against the oracle, to 1e-12 of the operator's one-norm. */
void
expect_matches_oracle(const PauliSum& op, Rng& rng, bool expect_tables)
{
    const std::size_t n = op.num_qubits();
    const std::size_t dim = std::size_t{1} << n;
    const double tol = 1e-12 * op.one_norm();
    const GroupedPauliSum grouped(op);
    EXPECT_EQ(grouped.has_tables(), expect_tables);

    Statevector psi(n);
    psi.amplitudes() = random_vector(rng, dim);
    const double reference = oracle_expectation(psi.amplitudes(), op);
    EXPECT_NEAR(grouped.expectation(psi.amplitudes()), reference, tol)
        << "n=" << n;
    EXPECT_NEAR(psi.expectation(op), reference, tol) << "n=" << n;

    const std::vector<Complex> x = random_vector(rng, dim);
    const std::vector<Complex> start = random_vector(rng, dim);
    std::vector<Complex> want = start;
    oracle_accumulate_apply(op, x, want);
    std::vector<Complex> tabled = start;
    grouped.accumulate_apply(x, tabled);
    std::vector<Complex> one_shot = start;
    accumulate_apply(op, x, one_shot);
    EXPECT_LE(max_abs_diff(tabled, want), tol) << "n=" << n;
    EXPECT_LE(max_abs_diff(one_shot, want), tol) << "n=" << n;
}

TEST(Statevector, InitialState)
{
    Statevector psi(3);
    EXPECT_EQ(psi.dim(), 8u);
    EXPECT_NEAR(std::abs(psi.amplitudes()[0]), 1.0, 1e-15);
    EXPECT_NEAR(psi.norm_squared(), 1.0, 1e-15);
}

TEST(Statevector, BasisState)
{
    const Statevector psi = Statevector::basis_state(3, 0b101);
    EXPECT_NEAR(std::abs(psi.amplitudes()[5]), 1.0, 1e-15);
    // Qubit 0 and qubit 2 are |1>.
    EXPECT_NEAR(psi.expectation(PauliString::from_label("ZII")).real(), -1.0,
                1e-15);
    EXPECT_NEAR(psi.expectation(PauliString::from_label("IZI")).real(), 1.0,
                1e-15);
    EXPECT_NEAR(psi.expectation(PauliString::from_label("IIZ")).real(), -1.0,
                1e-15);
}

TEST(Statevector, HadamardAndMeasurementBasis)
{
    Statevector psi(1);
    Circuit c(1);
    c.h(0);
    psi.apply_circuit(c);
    EXPECT_NEAR(psi.expectation(PauliString::from_label("X")).real(), 1.0,
                1e-14);
    EXPECT_NEAR(psi.expectation(PauliString::from_label("Z")).real(), 0.0,
                1e-14);
}

TEST(Statevector, RotationGatesMatchAnalyticForm)
{
    // RY(theta)|0> = cos(theta/2)|0> + sin(theta/2)|1>.
    const double theta = 0.731;
    Statevector psi(1);
    Circuit c(1);
    c.ry(0, theta);
    psi.apply_circuit(c);
    EXPECT_NEAR(psi.amplitudes()[0].real(), std::cos(theta / 2), 1e-14);
    EXPECT_NEAR(psi.amplitudes()[1].real(), std::sin(theta / 2), 1e-14);

    // <Z> = cos(theta), <X> = sin(theta).
    EXPECT_NEAR(psi.expectation(PauliString::from_label("Z")).real(),
                std::cos(theta), 1e-14);
    EXPECT_NEAR(psi.expectation(PauliString::from_label("X")).real(),
                std::sin(theta), 1e-14);
}

TEST(Statevector, ApplyPauliMatchesExpectation)
{
    Rng rng(3);
    const std::size_t n = 3;
    Statevector psi(n);
    Circuit c(n);
    c.ry(0, 0.4);
    c.cx(0, 1);
    c.rz(1, 1.1);
    c.ry(2, 2.2);
    c.cx(1, 2);
    psi.apply_circuit(c);

    for (int trial = 0; trial < 30; ++trial) {
        PauliString p(n);
        for (std::size_t q = 0; q < n; ++q) {
            p.set_letter(q, static_cast<PauliLetter>(rng.uniform_int(0, 3)));
        }
        Statevector applied = psi;
        applied.apply_pauli(p);
        const Complex via_inner = psi.inner(applied);
        const Complex via_expect = psi.expectation(p);
        EXPECT_NEAR(std::abs(via_inner - via_expect), 0.0, 1e-12)
            << p.to_label();
    }
}

TEST(Statevector, PauliSumExpectationLinearity)
{
    Statevector psi(2);
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    psi.apply_circuit(c); // Bell state
    const PauliSum op = PauliSum::from_terms(
        2, {{0.25, "XX"}, {0.5, "ZZ"}, {-1.0, "YY"}, {3.0, "II"}});
    EXPECT_NEAR(psi.expectation(op), 0.25 + 0.5 + 1.0 + 3.0, 1e-13);
}

TEST(Statevector, SwapAndCzGates)
{
    Statevector psi = Statevector::basis_state(2, 0b01);
    Circuit c(2);
    c.swap(0, 1);
    psi.apply_circuit(c);
    EXPECT_NEAR(std::abs(psi.amplitudes()[0b10]), 1.0, 1e-15);

    // CZ phase: |11> picks up -1.
    Statevector phi = Statevector::basis_state(2, 0b11);
    Circuit c2(2);
    c2.cz(0, 1);
    phi.apply_circuit(c2);
    EXPECT_NEAR(phi.amplitudes()[3].real(), -1.0, 1e-15);
}

TEST(GroupedPauliSum, MatchesPerTermOracleOnRandomSums)
{
    Rng rng(29);
    for (std::size_t n = 1; n <= 10; ++n) {
        for (const bool hermitian : {true, false}) {
            const PauliSum op = random_sum(rng, n, 1 + n % 4, hermitian);
            expect_matches_oracle(op, rng, true);
        }
    }
}

TEST(GroupedPauliSum, GroupsByXMask)
{
    // XX, YY and XY share the X mask 11, ZI is the diagonal group and
    // IX the third; the identity term is kept apart from the groups.
    const PauliSum op = PauliSum::from_terms(
        2, {{0.5, "XX"}, {0.25, "YY"}, {0.125, "XY"}, {1.0, "ZI"},
            {-2.0, "II"}, {0.75, "IX"}});
    EXPECT_EQ(GroupedPauliSum(op).num_groups(), 3u);
    Rng rng(3);
    expect_matches_oracle(op, rng, true);
}

TEST(GroupedPauliSum, OverBudgetSumFillsScratchPerGroup)
{
    // 5+ X masks at 20 qubits need 5 * 2^20 or more table entries,
    // over the 2^22 budget: every call refills one scratch diagonal
    // per group.
    Rng rng(41);
    const PauliSum op = random_sum(rng, 20, 5, true);
    ASSERT_GE(GroupedPauliSum(op).num_groups(), 5u);
    expect_matches_oracle(op, rng, false);
}

TEST(GroupedPauliSum, RejectsMismatchedBuffers)
{
    const GroupedPauliSum grouped(PauliSum::from_terms(2, {{1.0, "XZ"}}));
    std::vector<Complex> x(8);
    std::vector<Complex> y(8);
    EXPECT_THROW(grouped.accumulate_apply(x, y), std::invalid_argument);
    EXPECT_THROW((void)grouped.expectation(x), std::invalid_argument);
}

TEST(Lanczos, TwoQubitXXGroundState)
{
    // H = XX has eigenvalues {+1, +1, -1, -1}.
    const PauliSum h = PauliSum::from_terms(2, {{1.0, "XX"}});
    const GroundState gs = lanczos_ground_state(h);
    EXPECT_NEAR(gs.energy, -1.0, 1e-9);
}

TEST(Lanczos, TransverseFieldIsingChain)
{
    // H = -sum Z_i Z_{i+1} - g sum X_i at g=1 on 6 sites (open chain).
    const std::size_t n = 6;
    PauliSum h(n);
    for (std::size_t i = 0; i + 1 < n; ++i) {
        PauliString zz(n);
        zz.set_letter(i, PauliLetter::Z);
        zz.set_letter(i + 1, PauliLetter::Z);
        h.add_term(-1.0, zz);
    }
    for (std::size_t i = 0; i < n; ++i) {
        PauliString x(n);
        x.set_letter(i, PauliLetter::X);
        h.add_term(-1.0, x);
    }
    h.simplify();

    const GroundState gs = lanczos_ground_state(h);
    const std::vector<double> dense = dense_spectrum(h);
    EXPECT_NEAR(gs.energy, dense.front(), 1e-8);
}

TEST(Lanczos, RandomHamiltoniansMatchDenseSpectrum)
{
    Rng rng(11);
    for (int trial = 0; trial < 5; ++trial) {
        const std::size_t n = 2 +
            static_cast<std::size_t>(rng.uniform_int(0, 2));
        PauliSum h(n);
        for (int t = 0; t < 12; ++t) {
            PauliString p(n);
            for (std::size_t q = 0; q < n; ++q) {
                p.set_letter(q,
                             static_cast<PauliLetter>(rng.uniform_int(0, 3)));
            }
            h.add_term(rng.normal(), p);
        }
        h.simplify();
        if (h.num_terms() == 0) {
            continue;
        }
        const GroundState gs =
            lanczos_ground_state(h, {.max_iterations = 200,
                                     .tolerance = 1e-12,
                                     .seed = 5,
                                     .want_vector = false});
        const std::vector<double> dense = dense_spectrum(h);
        EXPECT_NEAR(gs.energy, dense.front(), 1e-7) << "trial " << trial;
    }
}

TEST(Lanczos, EigenvectorReconstruction)
{
    const PauliSum h = PauliSum::from_terms(
        2, {{1.0, "XX"}, {0.5, "ZI"}, {0.5, "IZ"}, {0.2, "ZZ"}});
    const GroundState gs = lanczos_ground_state(
        h, {.max_iterations = 100, .tolerance = 1e-12, .seed = 5,
            .want_vector = true});
    ASSERT_TRUE(gs.state.has_value());
    // Rayleigh quotient of the reconstructed state equals the energy.
    EXPECT_NEAR(gs.state->expectation(h), gs.energy, 1e-8);
    EXPECT_NEAR(gs.state->norm_squared(), 1.0, 1e-10);
}

TEST(Lanczos, MoleculeEnergiesMatchReferences)
{
    // Small molecules against the dense spectrum; the fig-bench
    // molecules too large for it against the per-term solve they had
    // before the grouped kernel (its summation order moves them only
    // at round-off).
    struct Case
    {
        const char* molecule;
        double bond;
        double reference; // NaN: use dense_spectrum
    };
    const double dense = std::nan("");
    const Case cases[] = {
        {"H2", 0.74, dense},
        {"LiH", 1.6, dense},
        {"H2O", 1.0, -0x1.2c1454d21f3b3p+6},
        {"H6", 0.9, -0x1.9f4d28f69cbc9p+1},
        {"N2", 1.1, -0x1.ae6dda01537dbp+6},
        {"BeH2", 1.3, -0x1.f30aa01fd8c56p+3},
    };
    for (const Case& c : cases) {
        const auto system = problems::make_molecular_system(c.molecule, c.bond);
        const double want = std::isnan(c.reference)
                                ? dense_spectrum(system.hamiltonian).front()
                                : c.reference;
        EXPECT_NEAR(lanczos_ground_state(system.hamiltonian).energy, want,
                    1e-10)
            << c.molecule;
    }
}

TEST(Lanczos, SectorFilterIsCalledOncePerBasisState)
{
    // A number-conserving chain: hopping (XX + YY) / 2, on-site Z and
    // nearest-neighbour ZZ. Its 3-particle ground state is the ground
    // state of H + 10 (N - 3)^2, which the dense spectrum gives.
    const std::size_t n = 6;
    PauliSum h(n);
    PauliSum number(n);
    for (std::size_t i = 0; i < n; ++i) {
        PauliString z(n);
        z.set_letter(i, PauliLetter::Z);
        h.add_term(0.3 * static_cast<double>(i) - 0.5, z);
        number.add_term(0.5, PauliString(n));
        number.add_term(-0.5, z);
        if (i + 1 < n) {
            for (const PauliLetter letter : {PauliLetter::X, PauliLetter::Y}) {
                PauliString hop(n);
                hop.set_letter(i, letter);
                hop.set_letter(i + 1, letter);
                h.add_term(0.5, hop);
            }
            PauliString zz(n);
            zz.set_letter(i, PauliLetter::Z);
            zz.set_letter(i + 1, PauliLetter::Z);
            h.add_term(0.25, zz);
        }
    }
    h.simplify();
    PauliSum shifted = number;
    shifted -= PauliSum::from_terms(n, {{3.0, "IIIIII"}});
    PauliSum penalized = h + Complex{10.0, 0.0} * (shifted * shifted);
    penalized.simplify();

    std::size_t calls = 0;
    LanczosOptions options;
    options.basis_filter = [&calls](std::uint64_t b) {
        ++calls;
        return std::popcount(b) == 3;
    };
    const double energy = lanczos_ground_state(h, options).energy;
    EXPECT_EQ(calls, std::size_t{1} << n);
    EXPECT_NEAR(energy, dense_spectrum(penalized).front(), 1e-9);

    calls = 0;
    EXPECT_EQ(lanczos_ground_state(h, options).energy, energy);
    EXPECT_EQ(calls, std::size_t{1} << n);
}

TEST(DenseSpectrum, PauliEigenvaluesAreSigns)
{
    const PauliSum h = PauliSum::from_terms(1, {{1.0, "Y"}});
    const std::vector<double> spectrum = dense_spectrum(h);
    ASSERT_EQ(spectrum.size(), 2u);
    EXPECT_NEAR(spectrum[0], -1.0, 1e-10);
    EXPECT_NEAR(spectrum[1], 1.0, 1e-10);
}

} // namespace
} // namespace cafqa
