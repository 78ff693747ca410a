#include "bench_util.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

#include "common/text.hpp"

namespace perfbench {

double
now_ms()
{
    static const Clock::time_point origin = Clock::now();
    return ms_between(origin, Clock::now());
}

double
ms_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint64_t
derive_seed(std::uint64_t workload_seed,
            std::initializer_list<std::uint64_t> path)
{
    std::uint64_t state = mix64(workload_seed);
    for (const std::uint64_t step : path) {
        state = mix64(state ^ mix64(step + 1));
    }
    return 1 + state % 1'000'000;
}

Json
Json::object()
{
    return Json('{', '}');
}

Json
Json::array()
{
    return Json('[', ']');
}

void
Json::separator()
{
    if (!empty_) {
        body_ += ',';
    }
    empty_ = false;
}

Json&
Json::raw(const std::string& name, const std::string& value)
{
    separator();
    body_ += cafqa::json_quote(name);
    body_ += ':';
    body_ += value;
    return *this;
}

Json&
Json::num(const std::string& name, double value)
{
    return raw(name, json_number(value));
}

Json&
Json::num(const std::string& name, std::uint64_t value)
{
    return raw(name, std::to_string(value));
}

Json&
Json::str(const std::string& name, const std::string& value)
{
    return raw(name, cafqa::json_quote(value));
}

Json&
Json::flag(const std::string& name, bool value)
{
    return raw(name, value ? "true" : "false");
}

Json&
Json::push(const std::string& value)
{
    separator();
    body_ += value;
    return *this;
}

Json&
Json::push_num(double value)
{
    return push(json_number(value));
}

std::string
Json::text() const
{
    return open_ + body_ + close_;
}

std::string
json_number(double value)
{
    return std::isfinite(value) ? cafqa::format_real(value) : "null";
}

std::uint64_t
peak_rss_kib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            std::uint64_t kib = 0;
            fields >> kib;
            return kib;
        }
    }
    return 0;
}

} // namespace perfbench
