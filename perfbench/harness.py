"""Metrics and correctness checks over the raw observations that
`cafqa_perfbench` prints for one workload run.

Everything here is plain data in, plain data out, so the self-tests in
`perfbench/tests/` exercise it without building the program.
"""

import json
import math
import re

# ---------------------------------------------------------------- names

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
METRIC_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def valid_metric_name(name):
    """True when `name` can be a metric name of the result line."""
    return bool(METRIC_NAME.match(name))


def valid_unit(unit):
    return bool(METRIC_UNIT.match(unit))


# ---------------------------------------------------------- percentiles


def percentile(samples, p):
    """The nearest-rank `p`-th percentile: the smallest sample with at
    least p% of the samples at or below it. Exact (always one of the
    samples); raises ValueError on an empty list or p outside (0, 100].
    """
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError("percentile rank must be in (0, 100]")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def samples_beyond(count, p):
    """How many of `count` samples lie strictly above the nearest-rank
    p-th percentile's rank."""
    if count == 0:
        return 0
    return count - max(1, math.ceil(p / 100.0 * count - 1e-9))


def median(samples):
    """Median of a non-empty list (mean of the middle two when even)."""
    if not samples:
        raise ValueError("median of no samples")
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


# ------------------------------------------------------------- records

_WALL_MS = re.compile(r'"wall_ms":[^,}]*,?')


def strip_wall_ms(record_json):
    """The record's bytes without its `wall_ms` field (the one field
    that is not deterministic)."""
    stripped = _WALL_MS.sub("", record_json, count=1)
    return stripped.replace(",}", "}")


def hf_seeded(spec_text):
    """True unless the spec text turns the Hartree-Fock seed off."""
    return "hf-seed=0" not in spec_text.split()


def record_violations(job, tolerance=1e-9):
    """Violations of one job on its own: an error or reject, a record
    that is not ok, or a Hartree-Fock-seeded energy outside
    [exact, HF]."""
    if "error" in job:
        return ["error: " + job["error"]]
    if "record" not in job:
        return ["no record"]
    record = json.loads(job["record"])
    if not record.get("ok", False):
        return ["record not ok: " + str(record.get("error", ""))]
    found = []
    if hf_seeded(job["spec"]):
        energy = record["cafqa_energy"]
        exact = record.get("exact_energy")
        hf = record.get("reference_energy")
        if exact is not None and energy < exact - tolerance:
            found.append("cafqa_energy %.12g below exact %.12g" % (energy, exact))
        if hf is not None and energy > hf + tolerance:
            found.append("cafqa_energy %.12g above HF %.12g" % (energy, hf))
    return found


def reference_records(jobs):
    """spec text -> wall_ms-stripped record of the first job that has
    one."""
    refs = {}
    for job in jobs:
        if "record" in job and job["spec"] not in refs:
            refs[job["spec"]] = strip_wall_ms(job["record"])
    return refs


def mismatch(job, refs, what):
    """A violation when `job`'s record differs from the reference for
    its spec (or the reference is missing)."""
    if "record" not in job:
        return []
    ref = refs.get(job["spec"])
    if ref is None:
        return ["no %s record for spec" % what]
    if strip_wall_ms(job["record"]) != ref:
        return ["record differs from the %s record" % what]
    return []


def check_run(raw):
    """All correctness checks of one run.

    Returns (attempted, failed, violations): every untraced and traced
    job is an attempt; a job with any violation is one failure; a
    client connection that broke is one failed attempt of its own.
    """
    jobs = raw.get("jobs", [])
    traced = raw.get("traced", {}).get("jobs", [])
    violations = []
    failed = 0

    repeats = reference_records(jobs)
    solo = reference_records(raw["solo"]) if "solo" in raw else None
    solo_errors = [s for s in raw.get("solo", []) if "error" in s]
    for job in jobs:
        found = record_violations(job)
        found += mismatch(job, repeats, "first repeat")
        if solo is not None:
            found += mismatch(job, solo, "solo execute_run_spec")
        if found:
            failed += 1
            violations.append((job["spec"], found))
    for job in traced:
        found = record_violations(job) + mismatch(job, repeats, "untraced")
        if found:
            failed += 1
            violations.append(("traced " + job["spec"], found))
    for spec in solo_errors:
        violations.append(("solo " + spec["spec"], ["error: " + spec["error"]]))
    client_errors = raw.get("client_errors", [])
    for error in client_errors:
        failed += 1
        violations.append(("client", ["connection: " + error]))
    attempted = len(jobs) + len(traced) + len(client_errors)
    return attempted, failed, violations


# ------------------------------------------------------------ end to end


def _records(jobs):
    return [json.loads(job["record"]) for job in jobs if "record" in job]


def _mean(values):
    return sum(values) / len(values) if values else float("nan")


def energy_metrics(jobs, cycles=1):
    """Search-quality means over the records of the first `cycles`
    cycles (a fixed, seed-determined job list, whatever the run's
    length):

    energy_gap_mha      mean cafqa_energy - exact, mHa
    corr_recovered_pct  mean share of the correlation energy HF misses
                        that CAFQA recovers, (HF - cafqa) / (HF - exact)
    tuned_gap_mha       mean tuned_value - exact, mHa, over tuned jobs
    """
    records = _records([job for job in jobs if job.get("cycle", 0) < cycles])
    gaps, recovered, tuned = [], [], []
    for record in records:
        exact = record.get("exact_energy")
        if exact is None:
            continue
        gaps.append(1e3 * (record["cafqa_energy"] - exact))
        hf = record.get("reference_energy")
        if hf is not None and hf - exact > 1e-9:
            recovered.append(100.0 * (hf - record["cafqa_energy"]) / (hf - exact))
        if record.get("tuned_value") is not None:
            tuned.append(1e3 * (record["tuned_value"] - exact))
    return {
        "energy_gap_mha": _mean(gaps),
        "corr_recovered_pct": _mean(recovered),
        "tuned_gap_mha": _mean(tuned),
    }


END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p99_ms": "ms",
    "setup_s": "s",
    "energy_gap_mha": "mHa",
    "corr_recovered_pct": "%",
    "tuned_gap_mha": "mHa",
}


def block_rates(raw):
    """Jobs per second of each measurement block of the run: a job of
    bo_default, a batch of scan_anneal, a time slice of server_repeat."""
    return [block["jobs"] / (block["wall_ms"] / 1e3) for block in raw["blocks"]]


def end_to_end(raw):
    """name -> (value, unit, note) for every end-to-end metric."""
    jobs = raw["jobs"]
    done = [job for job in jobs if "record" in job]
    latencies = [job["latency_ms"] for job in done]
    n = len(latencies)
    beyond = samples_beyond(n, 99)
    rates = block_rates(raw)
    metrics = {
        "jobs_per_s": (
            median(rates),
            "median of %d blocks; %d jobs in %.1f s" % (len(rates), len(done), raw["wall_ms"] / 1e3),
        ),
        "job_p50_ms": (percentile(latencies, 50), "n=%d" % n),
        "job_p99_ms": (
            percentile(latencies, 99),
            "n=%d, %d beyond p99%s" % (n, beyond, "" if beyond >= 10 else " (not a tail)"),
        ),
        "setup_s": (
            median(raw["setup_ms"]) / 1e3,
            "median of %d set-ups" % len(raw["setup_ms"]),
        ),
    }
    cycles = raw.get("energy_cycles", 1)
    for name, value in energy_metrics(jobs, cycles).items():
        metrics[name] = (value, "first %d cycle(s)" % cycles)
    return {
        name: (value, END_TO_END_UNITS[name], note)
        for name, (value, note) in metrics.items()
    }


# ------------------------------------------------------------- per layer

# Span names of the traced path (see perfbench/src/traced.cpp) and the
# repository module each one measures.
LAYER_SPANS = {
    "problem_build": "problems/chem/mapping: make_problem",
    "core_setup": "core: make_pipeline_config + CafqaPipeline",
    "search_eval": "stabilizer via core: search outside the surrogate",
    "search_model": "opt: surrogate-guided search iterations",
    "tboost": "core: T-boost stage (clifford_t backend)",
    "tune": "core: VQA tune stage (statevector backend)",
    "exact_solve": "statevector: Lanczos exact reference",
    "core_record": "core: run-record assembly",
}
ROOT_SPAN = "job"


def self_times(spans):
    """Span id -> self milliseconds: duration minus the duration of its
    direct children (children of one span never overlap: a job runs on
    one thread). `spans` are [name, id, parent, start_ms, end_ms]."""
    own = {span[1]: span[4] - span[3] for span in spans}
    for _, _, parent, start, end in spans:
        if parent in own:
            own[parent] -= end - start
    return own


def layer_self_ms(traced_jobs):
    """Span name -> total self milliseconds over the traced jobs, with
    the root's self time (what no layer span covers) under "job"."""
    totals = {name: 0.0 for name in list(LAYER_SPANS) + [ROOT_SPAN]}
    for job in traced_jobs:
        spans = job.get("spans", [])
        own = self_times(spans)
        for span in spans:
            totals[span[0]] = totals.get(span[0], 0.0) + own[span[1]]
    return totals


def _span_total(traced_jobs, name):
    return sum(
        span[4] - span[3]
        for job in traced_jobs
        for span in job.get("spans", [])
        if span[0] == name
    )


PER_LAYER_UNITS = {
    "problem.build_ms": "ms",
    "problem.builds": "count",
    "exact.solve_ms": "ms",
    "exact.solves": "count",
    "search.stage_ms": "ms",
    "search.warmup_ms": "ms",
    "search.model_ms": "ms",
    "search.model_ms_per_iter": "ms",
    "search.model_pct": "%",
    "search.evals": "count",
    "surrogate.fit_ms.w16": "ms",
    "surrogate.fit_ms.w48": "ms",
    "surrogate.predict_us": "us",
    "probe.model_pred_pct": "%",
    "eval.expectation_us": "us",
    "eval.objective_us": "us",
    "probe.eval_pred_pct": "%",
    "tboost.stage_ms": "ms",
    "tboost.evals": "count",
    "tune.stage_ms": "ms",
    "tune.evals": "count",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_rate": "ratio",
    "cache.entries": "count",
    "batch.busy_frac": "ratio",
    "queue.wait_ms_p50": "ms",
    "server.outside_run_ms_p50": "ms",
    "queue.depth_max": "count",
    "server.rejected": "count",
    "trace.coverage_pct": "%",
    "trace.overhead_pct": "%",
    "peak_rss_mb": "MB",
}
for _name in list(LAYER_SPANS) + [ROOT_SPAN]:
    PER_LAYER_UNITS["self_ms." + _name] = "ms"


def _server_layers(raw):
    """Queue and wire figures from the client-side event stamps."""
    jobs = [job for job in raw["jobs"] if "record" in job]
    waits = [job["started"] - job["accepted"] for job in jobs]
    outside = [
        job["result"] - job["started"] - json.loads(job["record"])["wall_ms"]
        for job in jobs
    ]
    before, after = raw["stats_before"], raw["stats_after"]
    hits = after["cache"].get("hits", 0) - before["cache"].get("hits", 0)
    misses = after["cache"].get("misses", 0) - before["cache"].get("misses", 0)
    rejected = sum(1 for job in raw["jobs"] if job.get("rejected"))
    return {
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "cache.entries": after["cache"].get("entries", 0),
        "queue.wait_ms_p50": percentile(waits, 50) if waits else 0.0,
        "server.outside_run_ms_p50": percentile(outside, 50) if outside else 0.0,
        "queue.depth_max": max((job["queued"] for job in raw["jobs"]), default=0),
        "server.rejected": max(rejected, after["rejected"] - before["rejected"]),
    }


def _untraced_latency(raw):
    """spec -> untraced call-to-record latency of the same spec run
    solo (the server's solo re-runs) or in the untraced pass."""
    source = raw["solo"] if "solo" in raw else raw["jobs"]
    latency = {}
    for job in source:
        if "record" in job:
            latency.setdefault(job["spec"], job["latency_ms"])
    return latency


def per_layer(raw):
    """name -> value for every per-layer metric (traced runs only)."""
    traced = raw["traced"]
    jobs = [job for job in traced["jobs"] if "spans" in job]
    forest = {(probe["width"], probe["rows"]): probe for probe in traced["forest"]}
    evals = {probe["problem"]: probe for probe in traced["evals"]}
    records = [json.loads(job["record"]) for job in jobs]

    search_ms = _span_total(jobs, "search")
    model_ms = _span_total(jobs, "search_model")
    warmup_ms = _span_total(jobs, "search_eval")
    job_ms = _span_total(jobs, ROOT_SPAN)
    model_iters = sum(job["model_iters"] for job in jobs)
    search_evals = sum(job["search_evals"] for job in jobs)

    # What the probes predict: per-call cost x calls, over stage time.
    predicted_model = 0.0
    for job in jobs:
        if job["model_iters"]:
            probe = forest[(job["width"], job["warmup_evals"] + job["model_iters"] // 2)]
            predicted_model += job["model_iters"] * (
                probe["fit_ms"] + 384 * probe["predict_us"] / 1e3
            )

    def weighted(field):
        """Probe cost summed over the search evaluations that paid it."""
        return sum(
            job["search_evals"] * evals[rec["problem"]][field]
            for job, rec in zip(jobs, records)
        )

    def pct(part, whole):
        return 100.0 * part / whole if whole else 0.0

    predicted_eval = weighted("objective_us") / 1e3

    untraced = _untraced_latency(raw)
    matched = [job for job in jobs if job["spec"] in untraced]
    traced_ms = sum(job["latency_ms"] for job in matched)
    plain_ms = sum(untraced[job["spec"]] for job in matched)

    busy = sum(json.loads(job["record"])["wall_ms"] for job in raw["jobs"] if "record" in job)
    metrics = {
        "problem.build_ms": _span_total(jobs, "problem_build"),
        "problem.builds": len(jobs),
        "exact.solve_ms": _span_total(jobs, "exact_solve"),
        "exact.solves": sum(1 for rec in records if rec.get("exact_energy") is not None),
        "search.stage_ms": search_ms,
        "search.warmup_ms": warmup_ms,
        "search.model_ms": model_ms,
        "search.model_ms_per_iter": model_ms / model_iters if model_iters else 0.0,
        "search.model_pct": pct(model_ms, job_ms),
        "search.evals": search_evals,
        "surrogate.fit_ms.w16": forest[(16, 500)]["fit_ms"],
        "surrogate.fit_ms.w48": forest[(48, 500)]["fit_ms"],
        "surrogate.predict_us": forest[(16, 500)]["predict_us"],
        "probe.model_pred_pct": pct(predicted_model, search_ms),
        "eval.expectation_us": weighted("expectation_us") / search_evals if search_evals else 0.0,
        "eval.objective_us": weighted("objective_us") / search_evals if search_evals else 0.0,
        "probe.eval_pred_pct": pct(predicted_eval, search_ms),
        "tboost.stage_ms": _span_total(jobs, "tboost"),
        "tboost.evals": sum(job["tboost_evals"] for job in jobs),
        "tune.stage_ms": _span_total(jobs, "tune"),
        "tune.evals": sum(job["tune_evals"] for job in jobs),
        "cache.hits": 0,
        "cache.misses": 0,
        "cache.hit_rate": 0.0,
        "cache.entries": 0,
        "batch.busy_frac": busy / (raw["concurrency"] * raw["wall_ms"]),
        "queue.wait_ms_p50": 0.0,
        "server.outside_run_ms_p50": 0.0,
        "queue.depth_max": 0,
        "server.rejected": 0,
        "trace.coverage_pct": 0.0,
        "trace.overhead_pct": pct(traced_ms - plain_ms, plain_ms),
        "peak_rss_mb": raw["peak_rss_kib"] / 1024.0,
    }
    if "stats_after" in raw:
        metrics.update(_server_layers(raw))
    own = layer_self_ms(jobs)
    for name, value in own.items():
        metrics["self_ms." + name] = value
    covered = sum(value for name, value in own.items() if name != ROOT_SPAN)
    metrics["trace.coverage_pct"] = pct(covered, job_ms)
    return metrics


# ----------------------------------------------------------- chrome trace


def chrome_trace(raw):
    """Chrome Trace Event JSON (opens in Perfetto): the traced replay's
    spans on pid 1, one track per worker, and for the server the
    streamed jobs' event stamps on pid 2, one track per client."""
    events = []
    for index, job in enumerate(raw.get("traced", {}).get("jobs", [])):
        for name, _, _, start, end in job.get("spans", []):
            events.append({
                "name": name, "cat": "traced", "ph": "X", "pid": 1,
                "tid": job.get("tid", 0), "ts": start * 1e3,
                "dur": (end - start) * 1e3,
                "args": {"job": index, "spec": job["spec"]},
            })
    for index, job in enumerate(raw.get("jobs", [])):
        if "submit" not in job or "record" not in job:
            continue
        wall = json.loads(job["record"])["wall_ms"]
        phases = [
            ("server_admit", job["submit"], job["accepted"]),
            ("server_queue", job["accepted"], job["started"]),
            ("server_execute", job["started"], job["result"]),
        ]
        for name, start, end in phases:
            events.append({
                "name": name, "cat": "server", "ph": "X", "pid": 2,
                "tid": job["client"], "ts": start * 1e3,
                "dur": (end - start) * 1e3,
                "args": {"job": index, "spec": job["spec"], "record_wall_ms": wall},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# ---------------------------------------------------------------- result


def result_line(raw, trace, end_to_end_names, per_layer_names):
    """(human-readable lines, result object) for one run. The result
    carries exactly the declared metrics of the mode."""
    attempted, failed, violations = check_run(raw)
    lines = []
    metrics = {}
    if trace:
        values = per_layer(raw)
        for name in per_layer_names:
            unit = PER_LAYER_UNITS[name]
            metrics[name] = {"value": values[name], "unit": unit}
            lines.append("%-28s %14.6g %s" % (name, values[name], unit))
    else:
        values = end_to_end(raw)
        for name in end_to_end_names:
            value, unit, note = values[name]
            metrics[name] = {"value": value, "unit": unit}
            lines.append("%-28s %14.6g %-6s %s" % (name, value, unit, note))
    frac = failed / attempted if attempted else 1.0
    lines.append("%-28s %14.6g %-6s %d of %d attempted" % ("failed_frac", frac, "ratio", failed, attempted))
    for where, found in violations:
        for violation in found:
            lines.append("VIOLATION %s: %s" % (where, violation))
    correct = failed == 0 and not violations and attempted > 0
    for name, metric in metrics.items():
        if not isinstance(metric["value"], (int, float)) or not math.isfinite(metric["value"]):
            correct = False
            lines.append("VIOLATION metric %s is not a finite number" % name)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return lines, result
