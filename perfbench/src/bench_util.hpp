/**
 * @file
 * Small helpers shared by the benchmark's translation units: a
 * monotonic clock relative to the process start, a flat JSON writer
 * for the raw result document, and the deterministic seed mixer every
 * workload draws its inputs from.
 */
#ifndef CAFQA_PERFBENCH_BENCH_UTIL_HPP
#define CAFQA_PERFBENCH_BENCH_UTIL_HPP

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <string>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds since the first call (the process's time origin; every
 *  span and stamp in one run shares it). */
double now_ms();

/** Milliseconds between two clock readings. */
double ms_between(Clock::time_point a, Clock::time_point b);

/** SplitMix64 finalizer: a well-mixed 64-bit value from `x`. */
std::uint64_t mix64(std::uint64_t x);

/** Deterministic per-input seed derived from the workload seed and a
 *  path of indices (client, job, ...), kept small enough to read. */
std::uint64_t derive_seed(std::uint64_t workload_seed,
                          std::initializer_list<std::uint64_t> path);

/** One JSON value being assembled: objects and arrays append members
 *  as pre-rendered JSON text, so nesting composes by value. */
class Json
{
  public:
    static Json object();
    static Json array();

    /** Object member (`value` is rendered JSON text). */
    Json& raw(const std::string& name, const std::string& value);
    Json& num(const std::string& name, double value);
    Json& num(const std::string& name, std::uint64_t value);
    Json& str(const std::string& name, const std::string& value);
    Json& flag(const std::string& name, bool value);

    /** Array element (rendered JSON text). */
    Json& push(const std::string& value);
    Json& push_num(double value);

    /** The closed JSON text. */
    std::string text() const;

  private:
    Json(char open, char close) : open_(open), close_(close) {}
    void separator();

    char open_;
    char close_;
    std::string body_;
    bool empty_ = true;
};

/** A finite double as shortest round-trip JSON text (non-finite values
 *  become null). */
std::string json_number(double value);

/** Peak resident set size of this process in KiB (VmHWM), 0 when the
 *  platform does not report it. */
std::uint64_t peak_rss_kib();

} // namespace perfbench

#endif // CAFQA_PERFBENCH_BENCH_UTIL_HPP
