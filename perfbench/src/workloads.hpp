/**
 * @file
 * The benchmark's workloads. Each one turns a workload seed into a
 * fixed list of RunSpecs (the seed sets only the RunSpec seeds, so
 * every seed does the same amount of work), runs it untraced on its
 * public path for at least the requested seconds, and with tracing on
 * replays the distinct specs on the traced path. The raw observations
 * come back as one JSON document; `perfbench/harness.py` turns them
 * into metrics and checks.
 *
 * - bo_default: paper-default Bayesian searches, one after another
 *   through `execute_run_spec` (the CLI path), threads=2.
 * - scan_anneal: a dissociation sweep through `BatchRunner`,
 *   concurrency 2, one thread per run, anneal search, no cache.
 * - server_repeat: an in-process `JobServer` over loopback, two closed-
 *   loop client connections, repeated keys sharing the server cache.
 */
#ifndef CAFQA_PERFBENCH_WORKLOADS_HPP
#define CAFQA_PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct WorkloadArgs
{
    std::string name;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** Names accepted by `run_workload`. */
std::vector<std::string> workload_names();

/** Run one workload; returns the raw result document (one JSON
 *  object). Throws std::invalid_argument on an unknown name. */
std::string run_workload(const WorkloadArgs& args);

} // namespace perfbench

#endif // CAFQA_PERFBENCH_WORKLOADS_HPP
