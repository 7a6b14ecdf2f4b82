//! End-to-end and per-layer benchmark of the sort service, the sort
//! engines, and the LSM engine. See `perfbench/README.md` for the
//! workloads, every metric, and which layer metric should move which
//! end-to-end metric.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sort-bulk|sort-inline|kv-mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Service roots live under `.bench_work/`
//! and are deleted when the run ends; a traced run leaves its spans in
//! `.bench_work/trace-<workload>-<seed>.jsonl`. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod gauge;
mod kvload;
mod layers;
mod sortload;
mod stats;
mod trace;
mod wire;

use asym_model::stats::mean;
use stats::{median, percentile, ratio};
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Span;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    SortBulk,
    SortInline,
    KvMixed,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "sort-bulk" => Some(Workload::SortBulk),
            "sort-inline" => Some(Workload::SortInline),
            "kv-mixed" => Some(Workload::KvMixed),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::SortBulk => "sort-bulk",
            Workload::SortInline => "sort-inline",
            Workload::KvMixed => "kv-mixed",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {:?} has no value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: trace.unwrap_or(false),
    })
}

/// Metrics in print order: name, unit, value.
type Metrics = Vec<(String, &'static str, f64)>;

/// What one measured phase produced.
struct Phase {
    e2e: Metrics,
    attempted: u64,
    errors: Vec<String>,
    /// Exact counts of each pass, which must all be equal.
    exact: Vec<Vec<u64>>,
    spans: Vec<Span>,
    sort_passes: Vec<sortload::Pass>,
    kv_passes: Vec<kvload::Pass>,
}

/// Inputs generated once per run from the seed.
struct Inputs {
    jobs: Vec<sortload::Job>,
    kv_ops: Vec<kvload::Op>,
    generate_ms: f64,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let cwd = std::env::current_dir().expect("current directory");
    let bench_dir = cwd.join(".bench_work");
    let work = bench_dir.join(format!("{}-{}", args.workload.name(), std::process::id()));
    std::fs::create_dir_all(work.join("tmp")).expect("create work directory");
    // File-backed stores outside a service root (direct reference runs)
    // take `std::env::temp_dir()`: keep them inside the checkout too. Set
    // before any thread starts.
    std::env::set_var("TMPDIR", work.join("tmp"));

    let mut errors = Vec::new();
    let (attempted, metrics) = run(&args, &work, &bench_dir, &mut errors);
    let _ = std::fs::remove_dir_all(&work);

    for e in errors.iter().take(20) {
        eprintln!("perfbench: {e}");
    }
    let failed = errors.len() as u64;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        body.join(", ")
    );
    std::process::exit(if failed == 0 { 0 } else { 1 });
}

fn run(args: &Args, work: &Path, bench_dir: &Path, errors: &mut Vec<String>) -> (u64, Metrics) {
    let inputs = match args.workload {
        Workload::SortBulk => Inputs {
            jobs: sortload::bulk_jobs(args.seed),
            kv_ops: Vec::new(),
            generate_ms: 0.0,
        },
        Workload::SortInline => {
            let (jobs, gen) = sortload::inline_jobs(args.seed);
            let generate_ms = gen.as_secs_f64() * 1e3 / jobs.len() as f64;
            Inputs {
                jobs,
                kv_ops: Vec::new(),
                generate_ms,
            }
        }
        Workload::KvMixed => {
            let (kv_ops, gen) = kvload::ops(args.seed, 50_000, 100_000);
            Inputs {
                jobs: Vec::new(),
                kv_ops,
                generate_ms: gen.as_secs_f64() * 1e3,
            }
        }
    };
    let epoch = Instant::now();
    if !args.trace {
        let phase = measure(
            args.workload,
            &inputs,
            work,
            "run",
            args.seconds,
            false,
            epoch,
        );
        let attempted = phase.attempted;
        errors.extend(phase.errors.iter().cloned());
        check_exact(&[&phase], errors);
        if args.workload == Workload::SortBulk {
            let requests: Vec<_> = inputs.jobs.iter().map(|j| j.request.clone()).collect();
            match layers::direct_runs(&requests) {
                Ok(direct) => verify_bulk(&direct, &phase.sort_passes, errors),
                Err(e) => errors.push(e),
            }
        }
        return (attempted, phase.e2e);
    }

    per_layer(args, &inputs, work, bench_dir, epoch, errors)
}

/// The traced run: an untraced and a traced half, then every per-layer
/// metric from the traced half, replays of its requests, and probes.
fn per_layer(
    args: &Args,
    inputs: &Inputs,
    work: &Path,
    bench_dir: &Path,
    epoch: Instant,
    errors: &mut Vec<String>,
) -> (u64, Metrics) {
    let half = args.seconds / 2.0;
    let plain = measure(args.workload, inputs, work, "plain", half, false, epoch);
    let traced = measure(args.workload, inputs, work, "traced", half, true, epoch);
    let mut attempted = plain.attempted + traced.attempted;
    errors.extend(plain.errors.iter().chain(&traced.errors).cloned());
    check_exact(&[&plain, &traced], errors);
    let mut spans = traced.spans;

    let mut out = Metrics::new();
    let mut put =
        |name: &str, unit: &'static str, value: f64| out.push((name.to_string(), unit, value));

    // model::workload
    let generate_ms = match args.workload {
        Workload::SortBulk => {
            let gen: Vec<f64> = inputs
                .jobs
                .iter()
                .map(|j| {
                    let t = Instant::now();
                    std::hint::black_box(sortload::materialize(&j.request));
                    t.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            mean(&gen)
        }
        _ => inputs.generate_ms,
    };
    put("workload.generate_ms", "ms", generate_ms);

    // The real requests of this run: the jobs, or a strided sample of the
    // compactions the engine shipped to its service.
    let requests: Vec<asym_serve::JobRequest> = match args.workload {
        Workload::KvMixed => {
            let all = &traced.kv_passes[0].wal.requests;
            let stride = all.len().div_ceil(48).max(1);
            all.iter().step_by(stride).cloned().collect()
        }
        _ => inputs.jobs.iter().map(|j| j.request.clone()).collect(),
    };

    // serve::http: the sort workloads' own traced passes (whose spans are
    // already in `spans`); kv-mixed's compactions replayed through the
    // front door by the same clients.
    let wire = |p: &sortload::Pass| -> (u64, u64) {
        let recs = p
            .done
            .iter()
            .map(|d| requests[d.job].record_count() as u64)
            .sum();
        (p.wire_bytes, recs)
    };
    let (wire_bytes, wire_recs) = match args.workload {
        Workload::KvMixed => {
            let jobs: Vec<sortload::Job> = requests
                .iter()
                .map(|r| {
                    let mut expected = sortload::materialize(r);
                    expected.sort_unstable();
                    sortload::Job {
                        request: r.clone(),
                        expected: Some(expected),
                    }
                })
                .collect();
            let mut p = sortload::run_pass(
                &jobs,
                sortload::DEFAULT_WAIT,
                &work.join("http-probe"),
                true,
                epoch,
            );
            attempted += jobs.len() as u64;
            errors.extend(p.errors.iter().cloned());
            trace::append(&mut spans, std::mem::take(&mut p.spans));
            wire(&p)
        }
        _ => traced
            .sort_passes
            .iter()
            .map(wire)
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1)),
    };

    let direct = layers::direct_runs(&requests).unwrap_or_else(|e| {
        errors.push(e);
        Vec::new()
    });
    if args.workload == Workload::SortBulk && !direct.is_empty() {
        verify_bulk(
            &direct,
            plain.sort_passes.iter().chain(&traced.sort_passes),
            errors,
        );
    }
    let replay = if direct.len() == requests.len() {
        layers::replay(&requests, &direct, &work.join("replay")).unwrap_or_else(|e| {
            errors.push(e);
            layers::Replay::default()
        })
    } else {
        layers::Replay::default()
    };
    attempted += requests.len() as u64;

    let submit_rtt = trace::mean_ms(&spans, "http.submit");
    put("http.submit_rtt_ms", "ms", submit_rtt);
    put(
        "http.wait_rtt_ms",
        "ms",
        trace::mean_ms(&spans, "http.wait"),
    );
    put(
        "http.accept_wait_ms",
        "ms",
        submit_rtt - replay.request_decode_ms - replay.submit_us / 1e3,
    );
    put(
        "http.body_bytes_per_rec",
        "B/rec",
        ratio(wire_bytes as f64, wire_recs as f64),
    );

    // serve::job + core::sort::wire, serve::service + core::sort::predict
    put("codec.request_encode_ms", "ms", replay.request_encode_ms);
    put("codec.request_decode_ms", "ms", replay.request_decode_ms);
    put("codec.outcome_encode_ms", "ms", replay.outcome_encode_ms);
    put("codec.outcome_decode_ms", "ms", replay.outcome_decode_ms);
    put("service.submit_us", "us", replay.submit_us);
    put("service.overhead_ms", "ms", replay.overhead_ms);
    put("admission.predict_us", "us", replay.predict_us);

    // serve::audit, core::sort / core::em: the first traced pass (traced
    // passes decode their logs).
    let (wal, jobs, user_recs, reads, writes) = match args.workload {
        Workload::KvMixed => {
            let p = &traced.kv_passes[0];
            (
                &p.wal,
                p.compactions,
                p.ops,
                p.compaction_reads,
                p.compaction_writes,
            )
        }
        _ => {
            let p = &traced.sort_passes[0];
            let recs = p
                .done
                .iter()
                .map(|d| requests[d.job].record_count() as u64)
                .sum();
            let reads = p.done.iter().map(|d| d.outcome.stats.block_reads).sum();
            let writes = p.done.iter().map(|d| d.outcome.stats.block_writes).sum();
            (&p.wal, p.done.len() as u64, recs, reads, writes)
        }
    };
    let jobs = jobs as f64;
    put(
        "wal.accepted_bytes",
        "B/job",
        ratio(wal.accepted_bytes as f64, jobs),
    );
    put(
        "wal.completed_bytes",
        "B/job",
        ratio(wal.completed_bytes as f64, jobs),
    );
    put(
        "wal.checkpointed_bytes",
        "B/job",
        ratio(wal.checkpointed_bytes as f64, jobs),
    );
    put("wal.lines", "lines/job", ratio(wal.lines as f64, jobs));
    put("sort.run_ms", "ms", replay.run_ms);
    put("sort.staged_ms", "ms", replay.staged_ms);
    put("sort.manifest_bytes", "B/job", replay.manifest_bytes);
    put(
        "sort.modeled_reads",
        "io/rec",
        ratio(reads as f64, user_recs as f64),
    );
    put(
        "sort.modeled_writes",
        "io/rec",
        ratio(writes as f64, user_recs as f64),
    );

    // em_sim
    let probe_recs = asym_model::workload::Workload::UniformRandom.generate(100_000, args.seed);
    let store_dir = work.join("store-probe");
    let _ = std::fs::create_dir_all(&store_dir);
    for (label, dir) in [("mem", None), ("file", Some(store_dir.as_path()))] {
        match layers::store_probe(dir, &probe_recs) {
            Ok(p) => {
                put(&format!("store.us_per_io.{label}"), "us", p.us_per_io);
                put(
                    &format!("store.stream_recs_per_s.{label}"),
                    "rec/s",
                    p.recs_per_s,
                );
            }
            Err(e) => errors.push(e),
        }
    }

    // kv::engine: kv-mixed's traced pass, or a short probe of the same
    // engine for the sort workloads.
    let probe;
    let kvp = match args.workload {
        Workload::KvMixed => &traced.kv_passes[0],
        _ => {
            let (ops, _) = kvload::ops(args.seed, 10_000, 20_000);
            probe = kvload::run_pass(&ops, &work.join("kv-probe"), true, epoch);
            attempted += probe.ops;
            errors.extend(probe.errors.iter().cloned());
            trace::append(&mut spans, probe.spans.clone());
            &probe
        }
    };
    put("kv.put_plain_us", "us", mean(&kvp.put_plain_us));
    put("kv.put_compacting_ms", "ms", mean(&kvp.compacting_ms));
    put("kv.compactions", "count", kvp.compactions as f64);
    put(
        "kv.compaction_input_recs",
        "rec",
        kvp.compaction_input_recs as f64,
    );
    put(
        "kv.probes_per_get",
        "io/get",
        ratio(kvp.get_probes as f64, kvp.gets as f64),
    );
    put(
        "kv.write_amp",
        "x",
        ratio(
            (kvp.block_writes as usize * sortload::B) as f64,
            kvp.writes as f64,
        ),
    );
    put("kv.put_p999_us", "us", percentile(&kvp.put_us, 0.999));
    put("kv.get_p50_us", "us", median(&kvp.get_us));
    put("kv.get_p99_us", "us", percentile(&kvp.get_us, 0.99));
    put("kv.scan_p50_us", "us", median(&kvp.scan_us));

    // Self time per layer, and what tracing cost each end-to-end metric.
    let self_ms = trace::self_ms_per_op(&spans);
    for layer in ["client", "codec", "http", "kv"] {
        put(
            &format!("self.{layer}_ms"),
            "ms",
            self_ms.get(layer).copied().unwrap_or(0.0),
        );
    }
    for ((name, unit, traced_v), (_, _, plain_v)) in traced.e2e.iter().zip(&plain.e2e) {
        put(&format!("overhead.{name}"), unit, traced_v - plain_v);
    }
    put("peak_rss_mb", "MB", peak_rss_mb());

    let trace_file = bench_dir.join(format!(
        "trace-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    if let Err(e) = trace::write_jsonl(&trace_file, &spans) {
        errors.push(format!("write {}: {e}", trace_file.display()));
    }
    (attempted, out)
}

/// Service boots timed after every pass, so that `setup_s` does not hang on
/// the host's state in the run's first milliseconds. A boot starts and
/// joins threads, and runs pinned to one CPU (see [`CpuPin`]): unpinned,
/// waking threads on the idle other vCPU of a 2-vCPU VM moved the median
/// boot from 64 to 253 µs from run to run, against about 35 µs pinned.
const BOOTS: usize = 10;

/// Run one untimed warm-up pass, then passes until `seconds` have elapsed
/// (at least two, so exact counts can be compared), booting the system
/// `BOOTS` times after each, and reduce them to the end-to-end metrics. A
/// kv-mixed phase runs pinned to one CPU (see [`CpuPin`]).
fn measure(
    workload: Workload,
    inputs: &Inputs,
    work: &Path,
    tag: &str,
    seconds: f64,
    tracing: bool,
    epoch: Instant,
) -> Phase {
    let mut phase = Phase {
        e2e: Metrics::new(),
        attempted: 0,
        errors: Vec::new(),
        exact: Vec::new(),
        spans: Vec::new(),
        sort_passes: Vec::new(),
        kv_passes: Vec::new(),
    };
    let _pin = (workload == Workload::KvMixed).then(CpuPin::current);
    let root = |i: usize| -> PathBuf { work.join(format!("svc-{tag}-{i}")) };
    // Every boot reuses one root, so the timing is the system's start-up,
    // not the file system creating and unlinking directories.
    let boot_root = work.join(format!("boot-{tag}"));
    let boot = || -> f64 {
        let t = Instant::now();
        match workload {
            Workload::KvMixed => {
                let kv = kvload::open(&boot_root);
                let s = t.elapsed();
                drop(kv);
                s
            }
            _ => {
                let server = sortload::boot(&boot_root);
                let s = t.elapsed();
                drop(server);
                s
            }
        }
        .as_secs_f64()
    };
    let mut setups = Vec::new();
    let wait = match workload {
        Workload::SortBulk => sortload::BULK_WAIT,
        _ => sortload::DEFAULT_WAIT,
    };
    // Gauge readings between passes, while the system is idle, so its own
    // load never slows the kernel.
    let mut gauge = gauge::Gauge::new();
    let mut readings = Vec::new();
    let mut start = Instant::now();
    let mut i = 0;
    // Pass 0 warms caches and the allocator; it is checked but not timed.
    while i < 3 || start.elapsed().as_secs_f64() < seconds {
        let warm = i == 0;
        match workload {
            Workload::KvMixed => {
                let mut p = kvload::run_pass(&inputs.kv_ops, &root(i), tracing && !warm, epoch);
                phase.attempted += p.ops;
                phase.errors.append(&mut p.errors);
                phase.exact.push(vec![
                    p.total_cost,
                    p.compactions,
                    p.compaction_input_recs,
                    p.wal.bytes,
                    p.wal.lines,
                ]);
                if !warm {
                    // Every pass is traced alike, but one pass's 150k spans
                    // are enough to keep.
                    if phase.kv_passes.is_empty() {
                        trace::append(&mut phase.spans, std::mem::take(&mut p.spans));
                    } else {
                        p.shed();
                    }
                    phase.kv_passes.push(p);
                }
            }
            _ => {
                let mut p =
                    sortload::run_pass(&inputs.jobs, wait, &root(i), tracing && !warm, epoch);
                p.wal.requests = Vec::new(); // the jobs themselves are at hand
                phase.attempted += inputs.jobs.len() as u64;
                phase.errors.append(&mut p.errors);
                phase.exact.push(
                    [
                        p.done.iter().map(|d| d.outcome.stats.block_reads).sum(),
                        p.done.iter().map(|d| d.outcome.stats.block_writes).sum(),
                        p.wal.bytes,
                        p.wal.lines,
                    ]
                    .to_vec(),
                );
                if !warm {
                    trace::append(&mut phase.spans, std::mem::take(&mut p.spans));
                    phase.sort_passes.push(p);
                }
            }
        }
        gauge.read(&mut readings);
        let pin = CpuPin::current();
        setups.extend((0..BOOTS).map(|_| boot()));
        drop(pin);
        if warm {
            start = Instant::now();
        }
        i += 1;
    }
    let _ = std::fs::remove_dir_all(&boot_root);
    let slowdown = gauge::slowdown(&readings);
    eprintln!(
        "perfbench: {tag}: {} gauge readings, slowdown {slowdown:.4}",
        readings.len()
    );
    phase.e2e = match workload {
        Workload::KvMixed => kv_e2e(&phase.kv_passes, slowdown),
        _ => sort_e2e(&inputs.jobs, &phase.sort_passes, slowdown),
    };
    phase
        .e2e
        .insert(0, ("setup_s".into(), "s", median(&setups) / slowdown));
    phase
}

/// Timings over every timed pass, scaled to the reference host by the run's
/// `slowdown`: throughputs and latency percentiles are medians over passes.
/// Exact counts come from the first timed pass.
fn sort_e2e(jobs: &[sortload::Job], passes: &[sortload::Pass], slowdown: f64) -> Metrics {
    let recs = |d: &sortload::Done| jobs[d.job].request.record_count() as f64;
    let rate = |x: &dyn Fn(&sortload::Done) -> f64| {
        let rates: Vec<f64> = passes
            .iter()
            .map(|p| ratio(p.done.iter().map(x).sum(), p.active.as_secs_f64()))
            .collect();
        median(&rates) * slowdown
    };
    let latency_ms = |p: &sortload::Pass| -> Vec<f64> {
        p.done
            .iter()
            .map(|d| d.latency.as_secs_f64() * 1e3 / slowdown)
            .collect()
    };
    let first = &passes[0];
    let first_recs: f64 = first.done.iter().map(recs).sum();
    let io: f64 = first.done.iter().map(|d| d.outcome.io_cost() as f64).sum();
    vec![
        ("ops_per_s".into(), "1/s", rate(&|_| 1.0)),
        ("sorted_recs_per_s".into(), "rec/s", rate(&recs)),
        ("job_p50_ms".into(), "ms", per_pass(passes, latency_ms, 0.5)),
        ("job_p90_ms".into(), "ms", per_pass(passes, latency_ms, 0.9)),
        ("modeled_io_per_rec".into(), "io/rec", ratio(io, first_recs)),
        (
            "wal_bytes_per_user_byte".into(),
            "B/B",
            ratio(first.wal.bytes as f64, first_recs * 16.0),
        ),
    ]
}

/// Timings as work per second spent inside engine calls and latencies of
/// the compacting writes, medians over every timed pass, scaled to the
/// reference host by the run's `slowdown`. Exact counts come from the first
/// timed pass.
fn kv_e2e(passes: &[kvload::Pass], slowdown: f64) -> Metrics {
    let rate = |x: fn(&kvload::Pass) -> u64| {
        let rates: Vec<f64> = passes
            .iter()
            .map(|p| ratio(x(p) as f64, p.engine_s))
            .collect();
        median(&rates) * slowdown
    };
    let compacting_ms =
        |p: &kvload::Pass| -> Vec<f64> { p.compacting_ms.iter().map(|ms| ms / slowdown).collect() };
    let first = &passes[0];
    vec![
        ("ops_per_s".into(), "1/s", rate(|p| p.ops)),
        (
            "sorted_recs_per_s".into(),
            "rec/s",
            rate(|p| p.compaction_input_recs),
        ),
        (
            "job_p50_ms".into(),
            "ms",
            per_pass(passes, compacting_ms, 0.5),
        ),
        (
            "job_p90_ms".into(),
            "ms",
            per_pass(passes, compacting_ms, 0.9),
        ),
        (
            "modeled_io_per_rec".into(),
            "io/rec",
            ratio(first.total_cost as f64, first.ops as f64),
        ),
        (
            "wal_bytes_per_user_byte".into(),
            "B/B",
            ratio(first.wal.bytes as f64, first.ops as f64 * 16.0),
        ),
    ]
}

/// The median over passes of each pass's `p` percentile of its latency
/// samples. A sort-bulk pass's ten jobs are ten different sorts, and the
/// slowest, heapsort on `file`, is a tenth of the jobs: a p90 over the
/// pooled jobs of every pass would be the slowest of all the others, a
/// maximum; a pass's own p90 is its second-slowest job.
fn per_pass<T>(passes: &[T], samples: impl Fn(&T) -> Vec<f64>, p: f64) -> f64 {
    let each: Vec<f64> = passes.iter().map(|x| percentile(&samples(x), p)).collect();
    median(&each)
}

/// Every pass of every phase must reproduce the first pass's exact counts.
fn check_exact(phases: &[&Phase], errors: &mut Vec<String>) {
    let mut all = phases.iter().flat_map(|p| &p.exact);
    let Some(first) = all.next() else { return };
    for (i, other) in all.enumerate() {
        if other != first {
            errors.push(format!(
                "pass {}: exact counts {other:?} differ from {first:?}",
                i + 1
            ));
        }
    }
}

/// `sort-bulk`: every served job's telemetry stats equal a direct
/// `sort::run` of the same spec and seed (whose output
/// [`layers::direct_runs`] checked is sorted).
fn verify_bulk<'a>(
    direct: &[asym_core::sort::SortOutcome],
    passes: impl IntoIterator<Item = &'a sortload::Pass>,
    errors: &mut Vec<String>,
) {
    for d in passes.into_iter().flat_map(|p| &p.done) {
        if !layers::same_stats(&d.outcome, &direct[d.job]) {
            errors.push(format!(
                "job {}: served stats differ from a direct run",
                d.job
            ));
        }
    }
}

/// A CPU set of up to 1024 CPUs, as `sched_{get,set}affinity` take it.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// While alive, keeps the calling thread, and every thread it spawns, on
/// the CPU it is running on now; dropping it restores the earlier CPU set.
///
/// `kv-mixed` has two threads that never run at once: the engine, and its
/// embedded service's one worker, which the engine blocks on for every
/// compaction. Where the scheduler happens to place the worker decides
/// whether each hand-off crosses cores, and on a 2-vCPU VM that moved the
/// compacting writes' p50 by 13% from run to run (IQR over median, five
/// seeds); on one core the hand-off costs the same in every run, and the
/// spread fell to 3–5%. The pin also puts the gauge on the core that does
/// the work. So kv-mixed's timed passes leave the cross-core hand-off out
/// of what they measure. The only other pinned code is the timed boots
/// (see [`BOOTS`]).
struct CpuPin {
    saved: Option<CpuSet>,
}

impl CpuPin {
    fn current() -> CpuPin {
        let mut saved: CpuSet = [0; 16];
        // SAFETY: `saved` is a live, writable CPU set for the duration of
        // the call and `cpusetsize` is its exact size; pid 0 is the calling
        // thread. `sched_getcpu` takes no arguments.
        let cpu = unsafe {
            if sched_getaffinity(0, std::mem::size_of_val(&saved), saved.as_mut_ptr()) != 0 {
                return CpuPin { saved: None };
            }
            sched_getcpu()
        };
        let mut mask: CpuSet = [0; 16];
        match usize::try_from(cpu) {
            Ok(cpu) if cpu < mask.len() * 64 => mask[cpu / 64] |= 1 << (cpu % 64),
            _ => return CpuPin { saved: None },
        }
        CpuPin {
            saved: set_affinity(&mask).then_some(saved),
        }
    }
}

impl Drop for CpuPin {
    fn drop(&mut self) {
        if let Some(saved) = &self.saved {
            set_affinity(saved);
        }
    }
}

/// Set the calling thread's CPU set; false when the kernel refuses it.
fn set_affinity(mask: &CpuSet) -> bool {
    // SAFETY: `mask` is a live CPU set for the duration of the call and
    // `cpusetsize` is its exact size; pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
}

/// Peak resident set size of this process so far, in MB.
fn peak_rss_mb() -> f64 {
    #[repr(C)]
    struct RUsage {
        times: [i64; 4],
        maxrss_kb: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut usage = RUsage {
        times: [0; 4],
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `RUsage` matches the 64-bit Linux `struct rusage` layout (two
    // timevals, then fourteen longs, `ru_maxrss` first), and the pointer is
    // to a live, writable value for the duration of the call.
    let rc = unsafe { getrusage(0, &mut usage) };
    let _ = (usage.times, usage.rest);
    if rc == 0 {
        usage.maxrss_kb as f64 / 1024.0
    } else {
        0.0
    }
}
