/**
 * cafqa_perfbench: runs one benchmark workload and prints its raw
 * observations (per-job latencies and records, set-up samples, server
 * stamps, and with --trace 1 the traced replay's spans and the layer
 * probes) as one JSON line on stdout. `perfbench/run.py` builds this
 * program, runs it, and derives the metrics and correctness checks.
 *
 * Usage: cafqa_perfbench --workload NAME --seed N --seconds S --trace 0|1
 */

#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench_util.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void
usage(const std::string& message)
{
    std::cerr << "cafqa_perfbench: " << message << '\n'
              << "usage: cafqa_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1\n"
              << "workloads:";
    for (const std::string& name : perfbench::workload_names()) {
        std::cerr << ' ' << name;
    }
    std::cerr << '\n';
    std::exit(2);
}

} // namespace

int
main(int argc, char** argv)
{
    perfbench::now_ms(); // fix the time origin before any work
    perfbench::WorkloadArgs args;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            usage("missing value for " + flag);
        }
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                args.name = value;
                have_workload = true;
            } else if (flag == "--seed") {
                args.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                args.seconds = std::stod(value);
            } else if (flag == "--trace") {
                if (value != "0" && value != "1") {
                    usage("--trace takes 0 or 1");
                }
                args.trace = value == "1";
            } else {
                usage("unknown flag " + flag);
            }
        } catch (const std::logic_error&) {
            usage("bad value '" + value + "' for " + flag);
        }
    }
    if (!have_workload) {
        usage("--workload is required");
    }
    try {
        std::cout << perfbench::run_workload(args) << '\n';
    } catch (const std::exception& error) {
        std::cerr << "cafqa_perfbench: " << error.what() << '\n';
        return 1;
    }
    return 0;
}
