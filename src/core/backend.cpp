#include "core/backend.hpp"

#include <string>

#include "common/error.hpp"

namespace cafqa {

std::vector<double>
Backend::expectations(std::span<const PauliSum> ops) const
{
    std::vector<double> values;
    values.reserve(ops.size());
    for (const PauliSum& op : ops) {
        values.push_back(expectation(op));
    }
    return values;
}

void
throw_domain_mismatch(std::string_view kind, bool want_discrete)
{
    throw_require_failure(
        want_discrete ? "discrete()" : "!discrete()", __FILE__, __LINE__,
        "backend kind \"" + std::string(kind) +
            (want_discrete ? "\" is not a discrete (quarter-turn) backend"
                           : "\" is not a continuous-parameter backend"));
}

} // namespace cafqa
