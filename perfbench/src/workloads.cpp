#include "workloads.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <thread>

#include "bench_util.hpp"
#include "common/text.hpp"
#include "common/thread_pool.hpp"
#include "core/batch_runner.hpp"
#include "core/run_spec.hpp"
#include "server/client.hpp"
#include "server/job_server.hpp"
#include "traced.hpp"

namespace perfbench {

namespace {

using cafqa::RunRecord;
using cafqa::RunSpec;

/** Concurrency of every workload: threads per bo_default job, batch
 *  runs side by side, server workers and client connections. With the
 *  server's two client threads this stays within a 4-core machine. */
constexpr std::size_t kConcurrency = 2;

/** Set-up repetitions per run; the harness reports their median. */
constexpr int kSetupRepeats = 101;

/** Outstanding submits per server client connection (closed loop). */
constexpr std::size_t kServerWindow = 2;

/** Equal time slices of the server's closed loop; each is one block of
 *  the jobs_per_s median. */
constexpr std::size_t kServerSlices = 10;

/** Server jobs per client whose records feed the energy metrics: a
 *  fixed prefix of each client's deterministic sequence, so those
 *  metrics depend on the seed alone, not on how many jobs a run
 *  completes. */
constexpr std::size_t kServerEnergyPrefix = 48;

/** scan_anneal batches whose records feed the energy metrics; every
 *  run executes at least this many (about 30 s on a 4-core x86 VM).
 *  All of their seed-to-seed spread comes from the two N2 rows, whose
 *  anneal gap lands anywhere from about 116 to 838 mHa (the HF gap)
 *  depending on the seed; every other row ends on the same point for
 *  any seed. */
constexpr std::size_t kScanEnergyCycles = 7;

RunSpec
spec_with_seed(const std::string& text, std::uint64_t seed)
{
    return RunSpec::parse(text + " seed=" + std::to_string(seed));
}

// ---- Workload inputs ------------------------------------------------

/** Figs. 8-9: H2 and LiH at and away from equilibrium, the paper's
 *  default 200 + 300 Bayesian search with the HF seed, exact reference
 *  and a 200-iteration VQA tune. Six jobs take 30-37 s on a 4-core
 *  x86 VM, so one whole list covers a 30 s run. Every bond here gives
 *  the same search result for any seed; at LiH 4.0 A the result is
 *  seed-dependent (111-124 mHa gap), which would make the energy
 *  metrics swing from seed to seed. */
std::vector<RunSpec>
bo_default_specs(std::uint64_t seed)
{
    const std::vector<std::string> keys = {
        "molecule:H2?bond=0.74", "molecule:LiH?bond=1.6",
        "molecule:LiH?bond=2.4", "molecule:H2?bond=2.2",
        "molecule:LiH?bond=3.2", "molecule:LiH?bond=2.0"};
    std::vector<RunSpec> specs;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        specs.push_back(spec_with_seed(
            "problem=" + keys[i] + " threads=2 tune=200",
            derive_seed(seed, {i})));
    }
    return specs;
}

/** A dissociation sweep over every Table-1 molecule that fits an exact
 *  solve (H2O's 2 s solve is left out), longest rows first. Five small
 *  rows and H10 below the four N2/BeH2 rows put the median job in the
 *  middle of that group rather than on an edge between rows of
 *  different cost. Each batch `cycle`
 *  draws fresh RunSpec seeds, so no batch repeats another's work and
 *  the energy metrics average over several searches per row. */
std::vector<RunSpec>
scan_anneal_specs(std::uint64_t seed, std::size_t cycle)
{
    const std::vector<std::string> rows = {
        "molecule:H6?bond=0.9 tune=200",
        "molecule:H6?bond=1.8 tune=200",
        "molecule:N2?bond=1.1",
        "molecule:N2?bond=1.6",
        "molecule:BeH2?bond=1.3",
        "molecule:BeH2?bond=2.0",
        "molecule:H10?bond=1.0 exact=0",
        "molecule:LiH?bond=1.6 tune=200",
        "molecule:LiH?bond=2.4 tune=200",
        "molecule:LiH?bond=3.2 tune=200",
        "molecule:H2?bond=0.74 tune=200",
        "molecule:H2?bond=2.5 tune=200",
    };
    std::vector<RunSpec> specs;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        specs.push_back(spec_with_seed("problem=" + rows[i] + " search=anneal",
                                       derive_seed(seed, {cycle, i})));
    }
    return specs;
}

/** The server mix: a rotation of ten slots over six keys (H2 in five,
 *  LiH in four, H6 in one), each job either an identical repeat of its
 *  key's base spec or a fresh seed variant. T-boost and tuning run on
 *  separate LiH jobs: together they fail whenever T-boost accepts a T
 *  gate ("initial parameter count mismatch" in run_vqa_tune), e.g.
 *  `problem=molecule:LiH?bond=3.2 seed=54125 search=anneal max-t=1
 *  tune=200`. */
const std::vector<std::string>&
server_keys()
{
    static const std::vector<std::string> keys = {
        "problem=molecule:H2?bond=2.0 search=anneal",
        "problem=molecule:LiH?bond=1.6 search=anneal max-t=1",
        "problem=molecule:LiH?bond=2.4 search=anneal tune=200",
        "problem=molecule:LiH?bond=3.2 search=anneal max-t=1",
        "problem=molecule:LiH?bond=3.2 search=anneal tune=200",
        "problem=molecule:H6?bond=0.9 search=anneal exact=1",
    };
    return keys;
}

RunSpec
server_spec(std::uint64_t seed, std::size_t client, std::size_t job)
{
    static const std::size_t slots[] = {0, 1, 0, 2, 0, 3, 0, 4, 0, 5};
    constexpr std::size_t kSlots = sizeof(slots) / sizeof(slots[0]);
    const std::size_t key = slots[(job + 3 * client) % kSlots];
    const bool repeat = mix64(derive_seed(seed, {client, job})) % 2 == 0;
    const std::uint64_t spec_seed =
        repeat ? derive_seed(seed, {key})
               : derive_seed(seed, {1000 + client, job});
    return spec_with_seed(server_keys()[key], spec_seed);
}

// ---- Raw observations -------------------------------------------------

std::string
setup_json(const std::vector<double>& setup_ms)
{
    Json samples = Json::array();
    for (const double ms : setup_ms) {
        samples.push_num(ms);
    }
    return samples.text();
}

/** One measurement block: jobs completed in it and its wall time. The
 *  harness reports jobs_per_s as the median block throughput, so a
 *  burst of host contention that slows one block does not move it. */
std::string
block_json(std::size_t jobs, double wall_ms)
{
    return Json::object()
        .num("jobs", static_cast<std::uint64_t>(jobs))
        .num("wall_ms", wall_ms)
        .text();
}

Json
job_json(const RunSpec& spec, std::size_t cycle, double latency_ms)
{
    Json job = Json::object();
    job.str("spec", spec.to_string())
        .num("cycle", static_cast<std::uint64_t>(cycle))
        .num("latency_ms", latency_ms);
    return job;
}

/** One execute_run_spec call; a throw becomes a record-less entry.
 *  `block`, when given, receives the call as one measurement block. */
Json
timed_solo_job(const RunSpec& spec, std::size_t cycle, Json* block = nullptr)
{
    const auto start = Clock::now();
    std::string record;
    std::string error;
    try {
        record = cafqa::execute_run_spec(spec).to_json();
    } catch (const std::exception& caught) {
        error = caught.what();
    }
    const double latency_ms = ms_between(start, Clock::now());
    Json job = job_json(spec, cycle, latency_ms);
    if (error.empty()) {
        job.str("record", record);
    } else {
        job.str("error", error);
    }
    if (block != nullptr) {
        block->push(block_json(error.empty() ? 1 : 0, latency_ms));
    }
    return job;
}

/** The traced replay of `specs`, `concurrency` at a time, plus the
 *  layer probes over what it ran. */
std::string
traced_pass(const std::vector<RunSpec>& specs, std::size_t concurrency,
            std::uint64_t seed)
{
    std::vector<TracedJob> traced(specs.size());
    std::vector<std::string> errors(specs.size());
    std::vector<std::size_t> workers(specs.size(), 0);
    {
        cafqa::ThreadPool pool(concurrency);
        pool.parallel_for(specs.size(), [&](std::size_t worker,
                                            std::size_t index) {
            workers[index] = worker;
            // What BatchRunner and the server do with their
            // run_threads=1: a spec without a thread count runs on one
            // thread, and the record reports the spec as submitted.
            RunSpec spec = specs[index];
            if (spec.threads == 0) {
                spec.threads = 1;
            }
            try {
                traced[index] = run_traced_job(spec);
                traced[index].record.spec = specs[index];
            } catch (const std::exception& error) {
                errors[index] = error.what();
            }
        });
    }

    Json jobs = Json::array();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const TracedJob& job = traced[i];
        Json entry = job_json(specs[i], 0, job.latency_ms);
        if (!errors[i].empty()) {
            entry.str("error", errors[i]);
            jobs.push(entry.text());
            continue;
        }
        Json spans = Json::array();
        for (const Span& span : job.spans) {
            spans.push(Json::array()
                           .push(cafqa::json_quote(span.name))
                           .push(std::to_string(span.id))
                           .push(std::to_string(span.parent))
                           .push_num(span.start_ms)
                           .push_num(span.end_ms)
                           .text());
        }
        entry.str("record", job.record.to_json());
        entry.num("tid", static_cast<std::uint64_t>(workers[i]))
            .num("search_evals", static_cast<std::uint64_t>(job.search_evals))
            .num("tboost_evals", static_cast<std::uint64_t>(job.tboost_evals))
            .num("tune_evals", static_cast<std::uint64_t>(job.tune_evals))
            .num("model_iters", static_cast<std::uint64_t>(job.model_iters))
            .num("warmup_evals", static_cast<std::uint64_t>(job.warmup_evals))
            .num("width", static_cast<std::uint64_t>(
                              job.problem->ansatz.num_params()))
            .raw("spans", spans.text());
        jobs.push(entry.text());
    }

    // ---- Probes. The forest replays a recorded history: one of the
    // job's own width when the workload has one, else the first job's.
    const auto history_for = [&traced](std::size_t width) {
        const std::vector<double>* fallback = nullptr;
        for (const TracedJob& job : traced) {
            if (!job.problem) {
                continue;
            }
            if (job.problem->ansatz.num_params() == width) {
                return job.search_history;
            }
            if (fallback == nullptr) {
                fallback = &job.search_history;
            }
        }
        return fallback ? *fallback : std::vector<double>{};
    };
    const auto forest_json = [&](std::size_t width, std::size_t rows) {
        const ForestProbe probe = probe_forest(
            width, rows, history_for(width), derive_seed(seed, {width, rows}));
        return Json::object()
            .num("width", static_cast<std::uint64_t>(probe.width))
            .num("rows", static_cast<std::uint64_t>(probe.rows))
            .num("fit_ms", probe.fit_ms)
            .num("predict_us", probe.predict_us)
            .text();
    };
    Json forest = Json::array();
    // LiH and H2O widths (16 and 48 parameters) at the full 500-point
    // training set the last model-guided iteration fits.
    forest.push(forest_json(16, 500)).push(forest_json(48, 500));
    // Each model-guided job at its own width and mean training size,
    // for the predicted share of its model phase.
    std::set<std::pair<std::size_t, std::size_t>> shapes;
    for (const TracedJob& job : traced) {
        if (job.model_iters > 0) {
            shapes.insert({job.problem->ansatz.num_params(),
                           job.warmup_evals + job.model_iters / 2});
        }
    }
    for (const auto& [width, rows] : shapes) {
        forest.push(forest_json(width, rows));
    }

    Json evals = Json::array();
    std::set<std::string> probed;
    for (const TracedJob& job : traced) {
        if (!job.problem || !probed.insert(job.problem->key).second) {
            continue;
        }
        const EvalProbe probe =
            probe_evaluation(*job.problem, derive_seed(seed, {probed.size()}));
        evals.push(Json::object()
                       .str("problem", probe.problem_key)
                       .num("prepare_us", probe.prepare_us)
                       .num("expectation_us", probe.expectation_us)
                       .num("objective_us", probe.objective_us)
                       .text());
    }

    return Json::object()
        .num("concurrency", static_cast<std::uint64_t>(concurrency))
        .raw("jobs", jobs.text())
        .raw("forest", forest.text())
        .raw("evals", evals.text())
        .text();
}

// ---- bo_default ---------------------------------------------------------

std::string
run_bo_default(const WorkloadArgs& args, Json& out)
{
    std::vector<double> setup_ms;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        const auto start = Clock::now();
        const std::vector<RunSpec> specs = bo_default_specs(args.seed);
        cafqa::ThreadPool pool(kConcurrency);
        setup_ms.push_back(ms_between(start, Clock::now()));
    }
    out.raw("setup_ms", setup_json(setup_ms));

    const std::vector<RunSpec> specs = bo_default_specs(args.seed);
    Json jobs = Json::array();
    Json blocks = Json::array();
    // One whole pass over the list (it feeds the energy metrics), then
    // job by job through the list again until the time is up. Jobs run
    // one after another, so each job is one block.
    const auto start = Clock::now();
    for (std::size_t n = 0;
         n < specs.size() ||
         ms_between(start, Clock::now()) < 1e3 * args.seconds;
         ++n) {
        jobs.push(timed_solo_job(specs[n % specs.size()], n / specs.size(),
                                 &blocks)
                      .text());
    }
    out.num("wall_ms", ms_between(start, Clock::now()))
        .num("concurrency", static_cast<std::uint64_t>(1))
        .num("energy_cycles", static_cast<std::uint64_t>(1))
        .raw("jobs", jobs.text())
        .raw("blocks", blocks.text());
    return args.trace ? traced_pass(specs, 1, args.seed) : std::string{};
}

// ---- scan_anneal --------------------------------------------------------

std::string
run_scan_anneal(const WorkloadArgs& args, Json& out)
{
    std::vector<double> setup_ms;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        const auto start = Clock::now();
        const std::vector<RunSpec> specs = scan_anneal_specs(args.seed, 0);
        cafqa::ThreadPool pool(kConcurrency);
        setup_ms.push_back(ms_between(start, Clock::now()));
    }
    out.raw("setup_ms", setup_json(setup_ms));

    const std::size_t rows = scan_anneal_specs(args.seed, 0).size();
    cafqa::BatchRunner runner(
        cafqa::BatchOptions{.concurrency = kConcurrency, .run_threads = 1});
    // Per-run stamps: the warm-start hook fires on the worker as the run
    // is called (before its problem build), the first observer event
    // when its search begins (after it). Each run index is written by
    // one worker only and read after `run` returns.
    std::vector<double> called(rows);
    std::vector<double> searching(rows);
    runner.set_warm_start([&called](std::size_t index, const RunSpec&,
                                    const std::vector<RunRecord>&) {
        called[index] = now_ms();
        return std::vector<int>{};
    });
    runner.set_observer([&searching](std::size_t index, const RunSpec&,
                                     const cafqa::PipelineEvent&) {
        if (searching[index] < 0.0) {
            searching[index] = now_ms();
        }
    });

    Json jobs = Json::array();
    Json batches = Json::array();
    const auto start = Clock::now();
    for (std::size_t cycle = 0;
         cycle < kScanEnergyCycles ||
         ms_between(start, Clock::now()) < 1e3 * args.seconds;
         ++cycle) {
        const std::vector<RunSpec> specs = scan_anneal_specs(args.seed, cycle);
        std::fill(called.begin(), called.end(), -1.0);
        std::fill(searching.begin(), searching.end(), -1.0);
        const auto batch_start = Clock::now();
        const std::vector<RunRecord> records = runner.run(specs);
        batches.push(
            block_json(records.size(), ms_between(batch_start, Clock::now())));
        for (std::size_t i = 0; i < specs.size(); ++i) {
            // Call to record: the build before the search began, then
            // the record's own wall time (search, stages, exact solve).
            const double build_ms =
                searching[i] >= 0.0 ? searching[i] - called[i] : 0.0;
            Json job = job_json(specs[i], cycle, build_ms + records[i].wall_ms);
            job.str("record", records[i].to_json());
            jobs.push(job.text());
        }
    }
    out.num("wall_ms", ms_between(start, Clock::now()))
        .num("concurrency", static_cast<std::uint64_t>(kConcurrency))
        .num("energy_cycles", static_cast<std::uint64_t>(kScanEnergyCycles))
        .raw("jobs", jobs.text())
        .raw("blocks", batches.text());
    return args.trace ? traced_pass(scan_anneal_specs(args.seed, 0),
                                    kConcurrency, args.seed)
                      : std::string{};
}

// ---- server_repeat ------------------------------------------------------

cafqa::server::ServerOptions
server_options()
{
    cafqa::server::ServerOptions options;
    options.host = "127.0.0.1";
    options.port = 0;
    options.workers = kConcurrency;
    options.run_threads = 1;
    return options;
}

/** Stats through a short-lived control connection. */
cafqa::server::Event
server_stats(int port)
{
    auto client = cafqa::server::BlockingClient::connect_tcp("127.0.0.1", port);
    client.send_line(cafqa::server::stats_line());
    while (const auto line = client.read_line()) {
        cafqa::server::Event event = cafqa::server::parse_event(*line);
        if (event.event == "stats") {
            return event;
        }
    }
    throw std::runtime_error("server closed before answering stats");
}

std::string
stats_json(const cafqa::server::Event& stats)
{
    return Json::object()
        .raw("cache", stats.cache_json.empty() ? "{}" : stats.cache_json)
        .num("completed", stats.counters.completed)
        .num("rejected", stats.counters.rejected)
        .text();
}

/** One submitted job as the client saw it. */
struct ClientJob
{
    RunSpec spec;
    std::size_t index = 0;
    double submit = -1.0;
    double accepted = -1.0;
    double started = -1.0;
    double result = -1.0;
    std::size_t queued = 0;
    bool rejected = false;
    std::string reason;
    std::string record;
};

/** A closed loop over one connection: keep `kServerWindow` submits
 *  outstanding until `deadline_ms`, then drain. */
std::vector<ClientJob>
client_loop(int port, std::uint64_t seed, std::size_t client,
            double deadline_ms, std::string& error)
{
    std::vector<ClientJob> jobs;
    try {
        auto connection =
            cafqa::server::BlockingClient::connect_tcp("127.0.0.1", port);
        std::map<std::string, std::size_t> by_id;
        std::size_t outstanding = 0;
        const auto submit = [&] {
            ClientJob job;
            job.index = jobs.size();
            job.spec = server_spec(seed, client, job.index);
            const std::string id =
                "c" + std::to_string(client) + "-" + std::to_string(job.index);
            by_id[id] = job.index;
            job.submit = now_ms();
            jobs.push_back(std::move(job));
            connection.send_line(
                cafqa::server::submit_line(id, jobs.back().spec));
            ++outstanding;
        };
        for (std::size_t w = 0; w < kServerWindow; ++w) {
            submit();
        }
        while (outstanding > 0) {
            const auto line = connection.read_line();
            if (!line) {
                throw std::runtime_error("server closed the connection");
            }
            const double stamp = now_ms();
            const cafqa::server::Event event =
                cafqa::server::parse_event(*line);
            const auto found = by_id.find(event.id);
            if (found == by_id.end()) {
                continue;
            }
            ClientJob& job = jobs[found->second];
            if (event.event == "accepted") {
                job.accepted = stamp;
                job.queued = event.queued;
                continue;
            }
            if (event.event == "started") {
                job.started = stamp;
                continue;
            }
            if (event.event == "rejected") {
                job.rejected = true;
                job.reason = event.reason;
            } else if (event.event == "result") {
                job.record = event.record_json;
            } else {
                continue;
            }
            job.result = stamp;
            --outstanding;
            if (stamp < deadline_ms) {
                submit();
            }
        }
    } catch (const std::exception& caught) {
        error = caught.what();
    }
    return jobs;
}

std::string
run_server_repeat(const WorkloadArgs& args, Json& out)
{
    std::vector<double> setup_ms;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        const auto start = Clock::now();
        cafqa::server::JobServer server(server_options());
        server.start();
        std::vector<cafqa::server::BlockingClient> clients;
        for (std::size_t c = 0; c < kConcurrency; ++c) {
            clients.push_back(cafqa::server::BlockingClient::connect_tcp(
                "127.0.0.1", server.port()));
        }
        setup_ms.push_back(ms_between(start, Clock::now()));
        clients.clear();
        server.shutdown(false);
        server.wait();
    }
    out.raw("setup_ms", setup_json(setup_ms));

    cafqa::server::JobServer server(server_options());
    server.start();
    const cafqa::server::Event before = server_stats(server.port());

    std::vector<std::vector<ClientJob>> per_client(kConcurrency);
    std::vector<std::string> errors(kConcurrency);
    const auto start = Clock::now();
    const double loop_start = now_ms();
    const double deadline = loop_start + 1e3 * args.seconds;
    {
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < kConcurrency; ++c) {
            threads.emplace_back([&, c] {
                per_client[c] = client_loop(server.port(), args.seed, c,
                                            deadline, errors[c]);
            });
        }
        for (std::thread& thread : threads) {
            thread.join();
        }
    }
    const double wall_ms = ms_between(start, Clock::now());
    const cafqa::server::Event after = server_stats(server.port());
    server.shutdown(true);
    server.wait();

    // Results per equal slice of the submit window (the drain after the
    // deadline is left out: its last few jobs are no steady load).
    const double slice_ms = 1e3 * args.seconds / kServerSlices;
    std::vector<std::size_t> per_slice(kServerSlices, 0);
    for (const std::vector<ClientJob>& jobs : per_client) {
        for (const ClientJob& job : jobs) {
            if (job.result < 0.0 || job.rejected || job.result < loop_start ||
                job.result >= deadline) {
                continue;
            }
            const auto slice = static_cast<std::size_t>(
                (job.result - loop_start) / slice_ms);
            ++per_slice[std::min(slice, kServerSlices - 1)];
        }
    }
    Json blocks = Json::array();
    for (const std::size_t count : per_slice) {
        blocks.push(block_json(count, slice_ms));
    }

    Json jobs = Json::array();
    std::vector<RunSpec> distinct;
    std::set<std::string> seen;
    for (std::size_t c = 0; c < kConcurrency; ++c) {
        for (const ClientJob& job : per_client[c]) {
            const std::size_t cycle = job.index < kServerEnergyPrefix ? 0 : 1;
            Json entry = job_json(job.spec, cycle, job.result - job.submit);
            entry.num("client", static_cast<std::uint64_t>(c))
                .num("submit", job.submit)
                .num("accepted", job.accepted)
                .num("started", job.started)
                .num("result", job.result)
                .num("queued", static_cast<std::uint64_t>(job.queued))
                .flag("rejected", job.rejected);
            if (job.rejected) {
                entry.str("error", "rejected: " + job.reason);
            } else if (job.result < 0.0) {
                entry.str("error", "no result");
            } else {
                entry.str("record", job.record);
            }
            jobs.push(entry.text());
            if (seen.insert(job.spec.to_string()).second) {
                distinct.push_back(job.spec);
            }
        }
    }
    Json client_errors = Json::array();
    for (const std::string& error : errors) {
        if (!error.empty()) {
            client_errors.push(cafqa::json_quote(error));
        }
    }

    // Every distinct spec once more, solo through execute_run_spec, for
    // the streamed-equals-solo check.
    std::vector<std::string> solo(distinct.size());
    {
        cafqa::ThreadPool pool(kConcurrency);
        pool.parallel_for(distinct.size(), [&](std::size_t, std::size_t i) {
            solo[i] = timed_solo_job(distinct[i], 0).text();
        });
    }
    Json solo_jobs = Json::array();
    for (const std::string& job : solo) {
        solo_jobs.push(job);
    }

    out.num("wall_ms", wall_ms)
        .num("concurrency", static_cast<std::uint64_t>(kConcurrency))
        .num("energy_cycles", static_cast<std::uint64_t>(1))
        .raw("jobs", jobs.text())
        .raw("blocks", blocks.text())
        .raw("client_errors", client_errors.text())
        .raw("stats_before", stats_json(before))
        .raw("stats_after", stats_json(after))
        .raw("solo", solo_jobs.text());
    return args.trace ? traced_pass(distinct, kConcurrency, args.seed)
                      : std::string{};
}

} // namespace

std::vector<std::string>
workload_names()
{
    return {"bo_default", "scan_anneal", "server_repeat"};
}

std::string
run_workload(const WorkloadArgs& args)
{
    Json out = Json::object();
    out.str("workload", args.name)
        .num("seed", args.seed)
        .num("seconds", args.seconds);
    std::string traced;
    if (args.name == "bo_default") {
        traced = run_bo_default(args, out);
    } else if (args.name == "scan_anneal") {
        traced = run_scan_anneal(args, out);
    } else if (args.name == "server_repeat") {
        traced = run_server_repeat(args, out);
    } else {
        throw std::invalid_argument("unknown workload '" + args.name + "'");
    }
    if (!traced.empty()) {
        out.raw("traced", traced);
    }
    out.num("peak_rss_kib", peak_rss_kib());
    return out.text();
}

} // namespace perfbench
