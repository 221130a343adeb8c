//! The lacc benchmark: end-to-end host cost of simulating the paper's
//! machine, and its attribution to layers.
//!
//! ```text
//! lacc-perfbench run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                    --root <checkout> --bin-dir <release dir> --out-dir <dir>
//! lacc-perfbench profile --workload <name> --seed <n>
//! ```
//!
//! `run` prints one JSON result line last (see `perfbench/README.md` for
//! the workloads and metrics). `profile` is the child the traced run
//! starts with `LACC_SIM_PROFILE=1` to read the engine's per-kind split.

mod figures;
mod gen;
mod kernels;
mod reference;
mod spans;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use lacc_experiments::{config_for_cores, run_jobs};
use lacc_model::SystemConfig;
use lacc_sim::ltf::{
    read_workload_bytes, workload_from_shared, workload_to_ltf_bytes_v2, SharedBuf,
};
use lacc_sim::monitor::MonitorReport;
use lacc_sim::{SimOptions, SimReport, Simulator, TraceOp, Workload};
use lacc_workloads::Benchmark;

use kernels::Costs;
use reference::Reference;
use spans::Spans;

/// Scale of the ocean-nc trace: ≈3.8M engine events at 64 cores.
const OCEAN_SCALE: f64 = 0.1;
/// Machine size and scale of the figure binaries' CI configuration, at
/// which the traced run times the sweep pool.
const FIG_CORES: usize = 8;
const FIG_SCALE: f64 = 0.02;
/// PCT values of the fixed 8-core grid the sweep pool is timed on.
const POOL_PCTS: [u32; 2] = [1, 4];
/// Fewest timed simulation passes a run reports the median of.
const MIN_PASSES: usize = 5;
/// Rounds of untraced, traced and monitor-off passes in a traced run.
const TRACED_ROUNDS: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Ocean,
    Matmul,
}

impl Kind {
    fn parse(name: &str) -> Option<Kind> {
        match name {
            "sim64-ocean" => Some(Kind::Ocean),
            "replay64-matmul" => Some(Kind::Matmul),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::Ocean => "sim64-ocean",
            Kind::Matmul => "replay64-matmul",
        }
    }

    /// The simulations one pass runs.
    fn jobs(self, seed: u64) -> Vec<Job> {
        match self {
            Kind::Ocean => vec![Job { source: Source::Ocean(seed), cores: 64, ltf: false }],
            Kind::Matmul => vec![Job { source: Source::Matmul(seed), cores: 64, ltf: true }],
        }
    }

    /// The workload's scale, as a JSON value (matmul has no scaled phase).
    fn scale_json(self) -> String {
        match self {
            Kind::Ocean => OCEAN_SCALE.to_string(),
            Kind::Matmul => "null".to_string(),
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Source {
    Ocean(u64),
    Matmul(u64),
}

/// One simulation: its trace, machine size, and whether set-up round-trips
/// the trace through LTF v2 bytes so the run decodes from a shared buffer.
#[derive(Clone, Copy, Debug)]
struct Job {
    source: Source,
    cores: usize,
    ltf: bool,
}

impl Job {
    fn generate(self) -> Workload {
        match self.source {
            Source::Ocean(seed) => gen::ocean(self.cores, OCEAN_SCALE, seed),
            Source::Matmul(seed) => gen::matmul(self.cores, seed),
        }
    }

    fn label(self) -> &'static str {
        match self.source {
            Source::Ocean(_) => Benchmark::OceanNc.name(),
            Source::Matmul(_) => Benchmark::Matmul.name(),
        }
    }

    fn cfg(self) -> SystemConfig {
        config_for_cores(self.cores)
    }
}

fn options(monitor: bool) -> SimOptions {
    SimOptions { monitor, panic_on_violation: false, ..SimOptions::default() }
}

fn encode(w: Workload) -> Vec<u8> {
    workload_to_ltf_bytes_v2(w).expect("generated traces encode")
}

fn open(bytes: Vec<u8>) -> Workload {
    workload_from_shared(SharedBuf::from_vec(bytes)).expect("freshly encoded LTF opens")
}

/// Everything before the first simulated event.
fn set_up(job: Job, opts: SimOptions, spans: &mut Spans) -> Simulator {
    let w = spans.time("workloads.generate", || job.generate());
    let w = if job.ltf {
        let bytes = spans.time("ltf.encode", || encode(w));
        spans.time("ltf.open", || open(bytes))
    } else {
        w
    };
    spans.time("engine.new", || Simulator::with_options(job.cfg(), w, opts)).expect("valid config")
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

struct Sim {
    setup_ns: u64,
    run_ns: u64,
    report: SimReport,
}

/// Sets up and runs one job; a panic becomes an `Err`.
fn simulate(job: Job, opts: SimOptions, spans: &mut Spans) -> Result<Sim, String> {
    let depth = spans.depth();
    let out = catch_unwind(AssertUnwindSafe(|| {
        let t0 = Instant::now();
        let id = spans.enter("job");
        let sim = set_up(job, opts, spans);
        let t1 = Instant::now();
        let report = spans.time("engine.run", || sim.run());
        spans.exit(id);
        Sim {
            setup_ns: (t1 - t0).as_nanos() as u64,
            run_ns: t1.elapsed().as_nanos() as u64,
            report,
        }
    }));
    out.map_err(|p| {
        spans.close_to(depth);
        panic_message(p.as_ref())
    })
}

/// One simulation of every job of a workload.
struct Pass {
    sims: Vec<Result<Sim, String>>,
}

impl Pass {
    fn run(jobs: &[Job], opts: SimOptions, spans: &mut Spans) -> Pass {
        let id = spans.enter("pass");
        let sims = jobs.iter().map(|&j| simulate(j, opts, spans)).collect();
        spans.exit(id);
        Pass { sims }
    }

    fn ok(&self) -> bool {
        self.sims.iter().all(Result::is_ok)
    }

    fn reports(&self) -> impl Iterator<Item = &SimReport> {
        self.sims.iter().filter_map(|s| s.as_ref().ok()).map(|s| &s.report)
    }

    fn sum(&self, f: impl Fn(&Sim) -> u64) -> u64 {
        self.sims.iter().filter_map(|s| s.as_ref().ok()).map(f).sum()
    }

    fn setup_s(&self) -> f64 {
        self.sum(|s| s.setup_ns) as f64 / 1e9
    }

    fn run_s(&self) -> f64 {
        self.sum(|s| s.run_ns) as f64 / 1e9
    }
}

/// Operations attempted and failed, with the reason for each failure.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    fn op(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(f) = failure {
            self.failed += 1;
            eprintln!("[perfbench] FAILED: {f}");
            self.notes.push(f);
        }
    }
}

/// The full report, or the report without the monitor's counters (for
/// comparing runs with the monitor on and off).
fn report_key(r: &SimReport, with_monitor: bool) -> String {
    if with_monitor {
        format!("{r:?}")
    } else {
        format!("{:?}", SimReport { monitor: MonitorReport::default(), ..r.clone() })
    }
}

/// Counts each simulation of `pass` as one operation: failed if it
/// panicked, saw a coherence violation, or its report differs from the
/// reference for its job (the first one seen becomes the reference).
fn judge(
    tally: &mut Tally,
    what: &str,
    jobs: &[Job],
    pass: &Pass,
    reference: &mut [Option<String>],
    with_monitor: bool,
) {
    for ((job, sim), reference) in jobs.iter().zip(&pass.sims).zip(reference) {
        let label = job.label();
        let failure = match sim {
            Err(msg) => Some(format!("{what} {label}: panicked: {msg}")),
            Ok(sim) if with_monitor && sim.report.monitor.violations > 0 => Some(format!(
                "{what} {label}: {} coherence violation(s)",
                sim.report.monitor.violations
            )),
            Ok(sim) => {
                let key = report_key(&sim.report, with_monitor);
                match reference {
                    None => {
                        *reference = Some(key);
                        None
                    }
                    Some(r) if *r != key => Some(format!("{what} {label}: report differs")),
                    Some(_) => None,
                }
            }
        };
        tally.op(failure);
    }
}

fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Named metrics in output order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    root: PathBuf,
    bin_dir: PathBuf,
    out_dir: PathBuf,
}

/// The value after `flag` in `args`.
fn flag(args: &[String], flag: &str) -> Result<String, String> {
    let i = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
    args.get(i + 1).cloned().ok_or(format!("{flag} takes a value"))
}

fn workload_and_seed(args: &[String]) -> Result<(Kind, u64), String> {
    let workload = flag(args, "--workload")?;
    let kind = Kind::parse(&workload).ok_or(format!("unknown workload {workload:?}"))?;
    let seed = flag(args, "--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    Ok((kind, seed))
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let get = |name: &str| flag(args, name);
    let (kind, seed) = workload_and_seed(args)?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    // Absolute, because the figure binaries run in their own directories.
    let cwd = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
        root: cwd.join(get("--root")?),
        bin_dir: cwd.join(get("--bin-dir")?),
        out_dir: cwd.join(get("--out-dir")?),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_args(&args[1..]).and_then(|a| run(&a)),
        Some("profile") => profile_child(&args[1..]),
        _ => Err("usage: lacc-perfbench run|profile --workload <name> --seed <n> ...".into()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("[perfbench] error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(a: &Args) -> Result<(), String> {
    std::fs::create_dir_all(&a.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", a.out_dir.display()))?;
    let jobs = a.kind.jobs(a.seed);
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let mut record = vec![
        ("workload", json_str(a.kind.name())),
        ("seed", a.seed.to_string()),
        ("cores", jobs[0].cores.to_string()),
        ("scale", a.kind.scale_json()),
        ("simulations_per_pass", jobs.len().to_string()),
        ("jobs", "1".to_string()),
    ];
    if a.trace {
        traced(a, &jobs, &mut tally, &mut metrics, &mut record)?;
    } else {
        untraced(a, &jobs, &mut tally, &mut metrics, &mut record);
    }

    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() {
                *value
            } else {
                tally.op(Some(format!("metric {name} is not a finite number")));
                0.0
            };
            format!("{}:{{\"value\":{value},\"unit\":{}}}", json_str(name), json_str(unit))
        })
        .collect();
    let failed_share =
        if tally.attempted == 0 { 0.0 } else { tally.failed as f64 / tally.attempted as f64 };
    record.push(("failed_share", failed_share.to_string()));
    let notes: Vec<String> = tally.notes.iter().map(|n| json_str(n)).collect();
    record.push(("failures", format!("[{}]", notes.join(","))));
    let fields: Vec<String> = record.iter().map(|(k, v)| format!("{}:{v}", json_str(k))).collect();
    println!("{{\"record\":{{{}}}}}", fields.join(","));
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(",")
    );
    Ok(())
}

/// This process's peak resident set so far, in KiB (`VmHWM`).
fn own_peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// End-to-end metrics, tracing off. A warm-up pass, which is judged but
/// not timed, is followed by timed passes until `--seconds` have passed
/// (at least `MIN_PASSES`), with a sample of the host-speed reference
/// before each timed pass and after the last. Each pass's times are
/// scaled by the mean of the two samples around it, and every timing is
/// the median over the passes (README.md). `peak_rss_mb` is read after
/// the warm-up pass, before the reference's buffers exist, since later
/// passes add only allocator fragmentation and their number depends on
/// the host's speed.
fn untraced(
    a: &Args,
    jobs: &[Job],
    tally: &mut Tally,
    metrics: &mut Metrics,
    record: &mut Vec<(&'static str, String)>,
) {
    let mut reference = vec![None; jobs.len()];
    let warm_up = Pass::run(jobs, options(true), &mut Spans::new(false));
    judge(tally, "warm-up pass", jobs, &warm_up, &mut reference, true);
    let peak_rss_mb = own_peak_rss_kib() as f64 / 1024.0;

    let mut speed = Reference::new();
    let deadline = Instant::now() + Duration::from_secs_f64(a.seconds);
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || Instant::now() < deadline {
        speed.sample();
        let pass = Pass::run(jobs, options(true), &mut Spans::new(false));
        judge(tally, "pass", jobs, &pass, &mut reference, true);
        passes.push(pass);
    }
    speed.sample();

    let list = |values: &mut dyn Iterator<Item = f64>| {
        let v: Vec<String> = values.map(|x| format!("{x:.4}")).collect();
        format!("[{}]", v.join(","))
    };
    record.push(("pass_setup_s", list(&mut passes.iter().map(Pass::setup_s))));
    record.push(("pass_run_s", list(&mut passes.iter().map(Pass::run_s))));
    record.push(("reference_s", reference::REFERENCE_S.to_string()));
    record.push(("reference_samples_s", list(&mut speed.samples().iter().copied())));

    // (scale, pass) for every pass that did not fail.
    let good: Vec<(f64, &Pass)> = passes
        .iter()
        .enumerate()
        .filter(|(_, p)| p.ok())
        .map(|(i, p)| (speed.scale_around(i), p))
        .collect();
    let wall_s = median(good.iter().map(|(k, p)| k * (p.setup_s() + p.run_s())).collect());
    let setup_s = median(good.iter().map(|(k, p)| k * p.setup_s()).collect());
    let kips = median(
        good.iter()
            .map(|(k, p)| p.sum(|s| s.report.instructions) as f64 / (k * p.run_s()) / 1e3)
            .collect(),
    );
    let reports: Vec<&SimReport> = std::iter::once(&warm_up)
        .chain(&passes)
        .find(|p| p.ok())
        .map_or(Vec::new(), |p| p.reports().collect());
    let sim_cycles: u64 = reports.iter().map(|r| r.completion_time).sum();
    let sim_energy_pj: f64 = reports.iter().map(|r| r.total_energy()).sum();
    metrics.put("wall_s", wall_s, "s");
    metrics.put("setup_s", setup_s, "s");
    metrics.put("sim_kips", kips, "kinstr/s");
    metrics.put("peak_rss_mb", peak_rss_mb, "MB");
    metrics.put("sim_cycles", sim_cycles as f64, "cycles");
    metrics.put("sim_energy_uj", sim_energy_pj / 1e6, "uJ");
}

/// The engine's per-kind split for one simulation, as printed by
/// `LACC_SIM_PROFILE=1`.
#[derive(Default, Debug)]
struct Profile {
    events: u64,
    pop_ms: f64,
    /// (events, ms) for core_step, deliver, home_lookup.
    kinds: [(u64, f64); 3],
}

fn parse_profile(line: &str) -> Result<Profile, String> {
    let mut p = Profile::default();
    let mut kind = None;
    for token in line.split_whitespace().skip(1) {
        match token {
            "core_step:" => kind = Some(0),
            "deliver:" => kind = Some(1),
            "home_lookup:" => kind = Some(2),
            _ => {
                let Some((key, value)) = token.split_once('=') else { continue };
                let num = |v: &str| v.parse::<f64>().map_err(|e| format!("{token}: {e}"));
                match (kind, key) {
                    (None, "events") => p.events = num(value)? as u64,
                    (None, "pop_ms") => p.pop_ms = num(value)?,
                    (Some(k), "n") => p.kinds[k].0 = num(value)? as u64,
                    (Some(k), "ms") => p.kinds[k].1 = num(value)?,
                    _ => {}
                }
            }
        }
    }
    if p.events == 0 {
        return Err(format!("no event count in {line:?}"));
    }
    Ok(p)
}

/// Runs one pass in a child with `LACC_SIM_PROFILE=1` and parses the
/// engine's profile line for each simulation.
fn profile(kind: Kind, seed: u64) -> Result<Vec<Profile>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["profile", "--workload", kind.name(), "--seed", &seed.to_string()])
        .env("LACC_SIM_PROFILE", "1")
        .output()
        .map_err(|e| format!("cannot start the profile child: {e}"))?;
    if !out.status.success() {
        return Err(format!("profile child exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stderr)
        .lines()
        .filter(|l| l.starts_with("[lacc-sim-profile]"))
        .map(parse_profile)
        .collect()
}

fn profile_child(args: &[String]) -> Result<(), String> {
    let (kind, seed) = workload_and_seed(args)?;
    let pass = Pass::run(&kind.jobs(seed), options(true), &mut Spans::new(false));
    match pass.sims.iter().find_map(|s| s.as_ref().err()) {
        Some(e) => Err(format!("simulation panicked: {e}")),
        None => Ok(()),
    }
}

/// Host seconds of `run_jobs` over a fixed 8-core figure grid at one and
/// at two workers; the two sweeps must agree.
fn pool_speedup(tally: &mut Tally) -> f64 {
    let grid: Vec<(String, Benchmark, SystemConfig)> = POOL_PCTS
        .iter()
        .flat_map(|&pct| {
            Benchmark::ALL
                .iter()
                .map(move |&b| (format!("pct{pct}"), b, config_for_cores(FIG_CORES).with_pct(pct)))
        })
        .collect();
    let sweep = |workers: usize| {
        let t = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| {
            let r = run_jobs(grid.clone(), FIG_SCALE, true, SimOptions::default(), workers);
            r.iter().map(|(_, report)| report_key(report, true)).collect::<Vec<_>>()
        }));
        (out, t.elapsed().as_secs_f64())
    };
    let (serial, t1) = sweep(1);
    let (pooled, t2) = sweep(2);
    let failure = match (serial, pooled) {
        (Ok(a), Ok(b)) if a == b => None,
        (Ok(_), Ok(_)) => Some("run_jobs at 1 and 2 workers disagree".to_string()),
        (Err(p), _) | (_, Err(p)) => {
            Some(format!("run_jobs panicked: {}", panic_message(p.as_ref())))
        }
    };
    tally.op(failure);
    t1 / t2
}

/// Per-layer metrics: traced passes (spans around every layer call),
/// untraced passes for the tracing overhead, monitor-off passes, the LTF
/// round trip, the engine's profile line, the replayed kernels, the sweep
/// pool and the per-binary figure times. A fixed amount of work: the
/// traced run does not scale with `--seconds`.
fn traced(
    a: &Args,
    jobs: &[Job],
    tally: &mut Tally,
    metrics: &mut Metrics,
    record: &mut Vec<(&'static str, String)>,
) -> Result<(), String> {
    let mut spans = Spans::new(true);
    let mut reference = vec![None; jobs.len()];

    // Untraced, traced and monitor-off passes, interleaved so that each
    // kind samples the same stretch of host time.
    let mut unmonitored = vec![None; jobs.len()];
    let (mut plains, mut traceds, mut offs) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..TRACED_ROUNDS {
        let plain = Pass::run(jobs, options(true), &mut Spans::new(false));
        judge(tally, "untraced pass", jobs, &plain, &mut reference, true);
        for (u, sim) in unmonitored.iter_mut().zip(&plain.sims) {
            if let (None, Ok(sim)) = (&u, sim) {
                *u = Some(report_key(&sim.report, false));
            }
        }
        plains.push(plain);
        let traced = Pass::run(jobs, options(true), &mut spans);
        judge(tally, "traced pass", jobs, &traced, &mut reference, true);
        traceds.push(traced);
        let off = Pass::run(jobs, options(false), &mut Spans::new(false));
        judge(tally, "monitor-off pass", jobs, &off, &mut unmonitored, false);
        offs.push(off);
    }
    let plain = &plains[0];

    // LTF: encode, open and drain each trace; replay the other form and
    // compare with the in-memory report of the same trace.
    let (mut ops, mut bytes_total) = (0u64, 0u64);
    let mut decoded: Vec<(Vec<lacc_sim::RegionDecl>, Vec<Vec<TraceOp>>)> = Vec::new();
    for (i, &job) in jobs.iter().enumerate() {
        let w = job.generate();
        let bytes = spans.time("ltf.encode_trace", || encode(w));
        bytes_total += bytes.len() as u64;
        let mut w = spans.time("ltf.open_trace", || open(bytes.clone()));
        let drained = spans.time("ltf.decode_trace", || {
            let mut batch = Vec::with_capacity(256);
            let mut n = 0u64;
            for trace in &mut w.traces {
                loop {
                    batch.clear();
                    let got = trace.next_ops(&mut batch, 256);
                    n += got as u64;
                    std::hint::black_box(&batch);
                    if got < 256 {
                        break;
                    }
                }
            }
            n
        });
        ops += drained;
        let (header, per_core) = read_workload_bytes(&bytes).map_err(|e| e.to_string())?;
        decoded.push((header.regions, per_core));

        let other = if job.ltf { job.generate() } else { open(bytes) };
        let replay = catch_unwind(AssertUnwindSafe(|| {
            Simulator::with_options(job.cfg(), other, options(true)).expect("valid config").run()
        }));
        let failure = match (replay, plain.sims[i].as_ref()) {
            (Ok(r), Ok(sim)) if report_key(&r, true) == report_key(&sim.report, true) => None,
            (Ok(_), Ok(_)) => Some(format!("{}: LTF and in-memory reports differ", job.label())),
            (Err(p), _) => {
                Some(format!("{}: replay panicked: {}", job.label(), panic_message(p.as_ref())))
            }
            (_, Err(_)) => Some(format!("{}: no in-memory report to compare", job.label())),
        };
        tally.op(failure);
    }

    let profiles = match profile(a.kind, a.seed) {
        Ok(p) if p.len() == jobs.len() => {
            tally.op(None);
            p
        }
        Ok(p) => {
            tally.op(Some(format!(
                "profile child printed {} lines for {} jobs",
                p.len(),
                jobs.len()
            )));
            Vec::new()
        }
        Err(e) => {
            tally.op(Some(e));
            Vec::new()
        }
    };

    let mut costs = Costs::default();
    for (i, (job, sim)) in jobs.iter().zip(&plain.sims).enumerate() {
        let (Ok(sim), Some((regions, per_core))) = (sim, decoded.get(i)) else { continue };
        let cfg = job.cfg();
        let input = kernels::Input {
            cfg: &cfg,
            regions,
            ops: per_core,
            report: &sim.report,
            events: profiles.get(i).map_or(0, |p| p.events),
        };
        costs.add(&kernels::replay(&input, &mut spans));
    }

    let speedup = spans.time("experiments.pool", || pool_speedup(tally));
    let work = a.out_dir.join(format!("work-{}-traced", std::process::id()));
    let figs = spans.time("figures.per_binary", || figures::regenerate(&a.bin_dir, &a.root, &work));
    tally.op(figs.failures.first().map(|f| format!("figure binaries: {f}")));
    let preset_ok = spans.time("selftest", || gen::preset_matches(64, OCEAN_SCALE));
    tally.op((!preset_ok).then(|| "seeded generators differ from the presets at their seeds".into()));

    // Derived metrics.
    let reports: Vec<&SimReport> = plain.reports().collect();
    let total = |f: &dyn Fn(&SimReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>() as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let rounds = TRACED_ROUNDS as f64;
    let events: u64 = profiles.iter().map(|p| p.events).sum();
    let instructions = total(&|r| r.instructions);
    let kind_ns = |k: usize| {
        let n: u64 = profiles.iter().map(|p| p.kinds[k].0).sum();
        ratio(profiles.iter().map(|p| p.kinds[k].1).sum::<f64>() * 1e6, n as f64)
    };

    metrics.put(
        "workloads.generate_ms",
        spans.self_total_ns("workloads.generate") as f64 / 1e6 / rounds,
        "ms",
    );
    let per_op = |span: &str| ratio(spans.total_ns(span) as f64, ops as f64);
    metrics.put("ltf.encode_ns_per_op", per_op("ltf.encode_trace"), "ns");
    metrics.put("ltf.decode_ns_per_op", per_op("ltf.decode_trace"), "ns");
    metrics.put("ltf.bytes_per_op", ratio(bytes_total as f64, ops as f64), "B");
    metrics.put(
        "engine.new_ms",
        spans.total_ns("engine.new") as f64 / 1e6 / rounds / jobs.len() as f64,
        "ms",
    );
    metrics.put("engine.events", events as f64, "count");
    metrics.put("engine.events_per_instr", ratio(events as f64, instructions), "ratio");
    metrics.put(
        "engine.ns_per_event",
        ratio(spans.total_ns("engine.run") as f64 / rounds, events as f64),
        "ns",
    );
    let pops: f64 = profiles.iter().map(|p| p.pop_ms).sum::<f64>() * 1e6;
    metrics.put("engine.queue_pop_ns", ratio(pops, events as f64), "ns");
    metrics.put("engine.core_step_ns", kind_ns(0), "ns");
    metrics.put("engine.deliver_ns", kind_ns(1), "ns");
    metrics.put("engine.home_lookup_ns", kind_ns(2), "ns");
    metrics.put("engine.queue_push_pop_ns", costs.queue_push_pop.per_call(), "ns");
    let run_on = median(plains.iter().map(Pass::run_s).collect());
    let run_off = median(offs.iter().map(Pass::run_s).collect());
    metrics.put("monitor.cost_pct", 100.0 * ratio(run_on - run_off, run_off), "%");
    metrics.put("monitor.reads_checked", total(&|r| r.monitor.reads_checked), "count");

    let words = total(&|r| r.protocol.word_reads + r.protocol.word_writes);
    let lines = total(&|r| r.protocol.line_grants + r.protocol.upgrades);
    metrics.put("core.remote_access_share", ratio(words, words + lines), "ratio");
    metrics.put("core.promotions", total(&|r| r.protocol.promotions), "count");
    metrics.put("core.demotions", total(&|r| r.protocol.demotions), "count");
    metrics.put("core.invalidations_sent", total(&|r| r.protocol.invalidations_sent), "count");
    metrics.put("core.broadcasts", total(&|r| r.protocol.broadcasts), "count");
    let l1d_accesses = total(&|r| r.l1d.total_accesses());
    metrics.put("l1d.accesses", l1d_accesses, "count");
    metrics.put("l1d.miss_pct", 100.0 * ratio(total(&|r| r.l1d.total_misses()), l1d_accesses), "%");
    metrics.put("core.l1_access_ns", costs.l1_access.per_call(), "ns");
    metrics.put("core.dir_request_ns", costs.dir_request.per_call(), "ns");

    let unicasts = total(&|r| r.net.unicasts);
    metrics.put("mesh.unicasts", unicasts, "count");
    metrics.put("mesh.link_flits", total(&|r| r.net.link_flits), "count");
    metrics.put(
        "mesh.contention_cycles_per_msg",
        ratio(total(&|r| r.net.contention_cycles), unicasts + total(&|r| r.net.broadcasts)),
        "cycles",
    );
    metrics.put("mesh.unicast_ns", costs.mesh_unicast.per_call(), "ns");
    let dram = total(&|r| r.dram.accesses);
    metrics.put("dram.accesses", dram, "count");
    metrics.put(
        "dram.queue_cycles_per_access",
        ratio(total(&|r| r.dram.queue_cycles), dram),
        "cycles",
    );
    metrics.put("dram.access_ns", costs.dram_access.per_call(), "ns");
    let aliased = total(&|r| r.slab.bytes_aliased);
    metrics.put(
        "cache.slab_alias_share",
        ratio(aliased, aliased + total(&|r| r.slab.bytes_copied)),
        "ratio",
    );
    metrics.put("cache.slab_allocs", total(&|r| r.slab.allocs), "count");
    metrics.put("cache.slab_op_ns", costs.slab_op.per_call(), "ns");

    metrics.put("experiments.pool_speedup", speedup, "ratio");
    // A run that could not start the binaries has failed already; it
    // still names every metric.
    for (i, bin) in figures::BINARIES.iter().enumerate() {
        metrics.put(
            format!("figures.{bin}_s"),
            figs.per_binary_s.get(i).copied().unwrap_or(0.0),
            "s",
        );
    }
    let wall = |passes: &[Pass]| median(passes.iter().map(|p| p.setup_s() + p.run_s()).collect());
    metrics.put(
        "trace.overhead_pct",
        100.0 * ratio(wall(&traceds) - wall(&plains), wall(&plains)),
        "%",
    );

    let path = a.out_dir.join(format!("spans-{}-seed{}.jsonl", a.kind.name(), a.seed));
    spans.write_jsonl(&path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    record.push(("spans", json_str(&path.display().to_string())));
    record.push(("engine_events", events.to_string()));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_engine_profile_line() {
        let line = "[lacc-sim-profile] workload=ocean-nc events=100 windows=0 scans=0 pending=0 \
                    pop_ms=1.500 core_step: n=10 ms=0.100 deliver: n=60 ms=2.000 \
                    home_lookup: n=30 ms=0.300";
        let p = parse_profile(line).unwrap();
        assert_eq!(p.events, 100);
        assert_eq!(p.pop_ms, 1.5);
        assert_eq!(p.kinds, [(10, 0.1), (60, 2.0), (30, 0.3)]);
        assert!(parse_profile("[lacc-sim-profile] workload=x").is_err());
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(Vec::new()), 0.0);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
