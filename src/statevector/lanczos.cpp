#include "statevector/lanczos.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/linalg.hpp"
#include "common/rng.hpp"

namespace cafqa {

namespace {

using Vec = std::vector<Complex>;

Complex
dot(const Vec& a, const Vec& b)
{
    Complex total{0.0, 0.0};
    for (std::size_t i = 0; i < a.size(); ++i) {
        total += std::conj(a[i]) * b[i];
    }
    return total;
}

double
norm(const Vec& a)
{
    double total = 0.0;
    for (const auto& v : a) {
        total += std::norm(v);
    }
    return std::sqrt(total);
}

void
axpy(Vec& y, Complex alpha, const Vec& x)
{
    for (std::size_t i = 0; i < y.size(); ++i) {
        y[i] += alpha * x[i];
    }
}

void
scale(Vec& y, double alpha)
{
    for (auto& v : y) {
        v *= alpha;
    }
}

Vec
random_unit_vector(std::size_t dim, std::uint64_t seed)
{
    Rng rng(seed);
    Vec v(dim);
    for (auto& a : v) {
        a = Complex{rng.normal(), rng.normal()};
    }
    Vec tmp = v;
    double n = norm(tmp);
    for (auto& a : v) {
        a /= n;
    }
    return v;
}

} // namespace

GroundState
lanczos_ground_state(const PauliSum& hamiltonian, const LanczosOptions& options)
{
    CAFQA_REQUIRE(hamiltonian.num_terms() > 0, "empty Hamiltonian");
    CAFQA_REQUIRE(hamiltonian.max_imag_coefficient() < 1e-8,
                  "Hamiltonian must be Hermitian");
    const std::size_t n = hamiltonian.num_qubits();
    const std::size_t dim = std::size_t{1} << n;
    if (options.want_vector) {
        CAFQA_REQUIRE(n <= 16,
                      "eigenvector reconstruction supported up to 16 qubits");
    }

    const GroupedPauliSum op(hamiltonian);
    std::vector<double> alpha;
    std::vector<double> beta;
    std::vector<Vec> basis; // only filled in want_vector mode

    // The sector filter is evaluated once per basis state, up front.
    std::vector<char> in_sector;
    if (options.basis_filter) {
        in_sector.resize(dim);
        for (std::uint64_t b = 0; b < dim; ++b) {
            in_sector[b] = options.basis_filter(b) ? 1 : 0;
        }
    }
    auto project = [&in_sector](Vec& v) {
        if (in_sector.empty()) {
            return;
        }
        for (std::uint64_t b = 0; b < v.size(); ++b) {
            if (!in_sector[b]) {
                v[b] = Complex{0.0, 0.0};
            }
        }
    };

    Vec v_prev(dim, Complex{0.0, 0.0});
    Vec v_cur = random_unit_vector(dim, options.seed);
    if (!in_sector.empty()) {
        project(v_cur);
        const double n = norm(v_cur);
        CAFQA_REQUIRE(n > 1e-12, "basis filter leaves an empty subspace");
        scale(v_cur, 1.0 / n);
    }
    Vec w(dim);

    double best = 0.0;
    bool have_best = false;
    std::size_t iters = 0;

    for (std::size_t j = 0; j < options.max_iterations; ++j) {
        ++iters;
        if (options.want_vector) {
            basis.push_back(v_cur);
        }
        std::fill(w.begin(), w.end(), Complex{0.0, 0.0});
        op.accumulate_apply(v_cur, w);
        project(w); // guard against roundoff leakage out of the sector

        const double a_j = dot(v_cur, w).real();
        alpha.push_back(a_j);
        axpy(w, Complex{-a_j, 0.0}, v_cur);
        if (j > 0) {
            axpy(w, Complex{-beta.back(), 0.0}, v_prev);
        }
        if (options.want_vector) {
            // Full reorthogonalization keeps the Krylov basis clean.
            for (const auto& b : basis) {
                const Complex overlap = dot(b, w);
                axpy(w, -overlap, b);
            }
        }

        const double b_j = norm(w);
        const std::vector<double> ritz =
            tridiagonal_eigenvalues(alpha, beta);
        const double current = ritz.front();
        if (have_best && std::abs(current - best) < options.tolerance) {
            best = current;
            break;
        }
        best = current;
        have_best = true;

        if (b_j < 1e-12) {
            break; // invariant subspace found; Ritz value is exact
        }
        beta.push_back(b_j);
        v_prev = v_cur;
        v_cur = w;
        scale(v_cur, 1.0 / b_j);
    }

    GroundState result;
    result.energy = best;
    result.iterations = iters;

    if (options.want_vector) {
        // Eigenvector of the tridiagonal matrix for the smallest Ritz value.
        const std::size_t m = alpha.size();
        Matrix t(m, m);
        for (std::size_t i = 0; i < m; ++i) {
            t(i, i) = alpha[i];
            if (i + 1 < m && i < beta.size()) {
                t(i, i + 1) = beta[i];
                t(i + 1, i) = beta[i];
            }
        }
        const SymmetricEigen eig = symmetric_eigen(t);
        Statevector ground(n);
        auto& amp = ground.amplitudes();
        std::fill(amp.begin(), amp.end(), Complex{0.0, 0.0});
        for (std::size_t k = 0; k < m && k < basis.size(); ++k) {
            const double coeff = eig.vectors(k, 0);
            for (std::size_t i = 0; i < dim; ++i) {
                amp[i] += coeff * basis[k][i];
            }
        }
        ground.normalize();
        result.state = std::move(ground);
    }
    return result;
}

std::vector<double>
dense_spectrum(const PauliSum& hamiltonian)
{
    const std::size_t n = hamiltonian.num_qubits();
    CAFQA_REQUIRE(n <= 8, "dense spectrum limited to 8 qubits");
    CAFQA_REQUIRE(hamiltonian.max_imag_coefficient() < 1e-8,
                  "Hamiltonian must be Hermitian");
    const std::size_t dim = std::size_t{1} << n;

    // Build H column by column via Pauli application.
    const GroupedPauliSum op(hamiltonian);
    std::vector<Vec> columns(dim, Vec(dim, Complex{0.0, 0.0}));
    Vec unit(dim);
    for (std::size_t c = 0; c < dim; ++c) {
        std::fill(unit.begin(), unit.end(), Complex{0.0, 0.0});
        unit[c] = Complex{1.0, 0.0};
        op.accumulate_apply(unit, columns[c]);
    }

    // Real-symmetric embedding [[A, -B], [B, A]] of A + iB doubles each
    // eigenvalue; keep every other one.
    Matrix big(2 * dim, 2 * dim);
    for (std::size_t r = 0; r < dim; ++r) {
        for (std::size_t c = 0; c < dim; ++c) {
            const double re = columns[c][r].real();
            const double im = columns[c][r].imag();
            big(r, c) = re;
            big(r + dim, c + dim) = re;
            big(r, c + dim) = -im;
            big(r + dim, c) = im;
        }
    }
    const SymmetricEigen eig = symmetric_eigen(big);
    std::vector<double> values;
    values.reserve(dim);
    for (std::size_t i = 0; i < 2 * dim; i += 2) {
        values.push_back(eig.values[i]);
    }
    return values;
}

} // namespace cafqa
