//! Runs workloads as child processes and turns their reports into the
//! outputs: the driver's one JSON line, the `run` and `trace` tables, and
//! the `check` comparison.

use crate::digest;
use crate::env;
use crate::report::{LegOpts, LegReport, Metric, WAITING, WORKLOADS};
use crate::stats;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitStatus, Stdio};
use std::time::Instant;

// ---------------------------------------------------------------------------
// BENCHMARK.json and pins.json
// ---------------------------------------------------------------------------

/// The parts of `BENCHMARK.json` the benchmark itself reads.
#[derive(Debug, Deserialize)]
pub struct Benchmark {
    pub run_seconds: u64,
    pub end_to_end: Vec<EndToEnd>,
    pub per_layer: Vec<Layer>,
}

#[derive(Debug, Deserialize)]
pub struct EndToEnd {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: f64,
}

#[derive(Debug, Deserialize)]
pub struct Layer {
    pub name: String,
}

impl Benchmark {
    /// `BENCHMARK.json` sits beside `perf/`, at the root of the checkout.
    pub fn load() -> Result<Benchmark, String> {
        let path = env::perf_dir().join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// What is pinned for one seed: the digests that must repeat byte for byte
/// (inputs, report skeletons) and each report's float sum, which must
/// repeat within `digest::FLOAT_TOLERANCE`.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct SeedPins {
    digests: BTreeMap<String, String>,
    float_sums: BTreeMap<String, f64>,
}

/// `pins.json`: by dependency build ([`env::deps`]: the stand-in `rand`
/// draws other values than the published one, so the inputs differ), then
/// by seed.
pub type Pins = BTreeMap<String, BTreeMap<String, SeedPins>>;

fn load_pins() -> Result<Pins, String> {
    let path = env::perf_dir().join("pins.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Compares a leg's digests and float sums with the ones pinned for its
/// seed and this build's dependencies; each is an output check. Where
/// nothing is pinned the leg only has the consistency checks it made
/// itself.
fn check_pins(leg: &mut LegReport, pins: &Pins) {
    let seed = leg.seed;
    let Some(pinned) = pins
        .get(env::deps())
        .and_then(|seeds| seeds.get(&seed.to_string()))
    else {
        return;
    };
    for (name, value) in leg.digests.clone() {
        match pinned.digests.get(&name) {
            Some(expected) => leg.check(*expected == value, || {
                format!("digest {name} is {value}, pinned {expected} for seed {seed}")
            }),
            None => leg.fail(format!("digest {name} has no pin for seed {seed}")),
        }
    }
    for (name, value) in leg.float_sums.clone() {
        match pinned.float_sums.get(&name) {
            Some(&expected) => leg.check(digest::close(expected, value), || {
                format!("float sum of {name} is {value:?}, pinned {expected:?} for seed {seed}")
            }),
            None => leg.fail(format!("float sum of {name} has no pin for seed {seed}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Children
// ---------------------------------------------------------------------------

/// Where things go unless the command line says otherwise.
#[derive(Debug, Clone)]
pub struct Places {
    pub wal_root: PathBuf,
    pub out_dir: PathBuf,
}

impl Default for Places {
    fn default() -> Self {
        let out_dir = env::perf_dir().join("out");
        Places {
            wal_root: out_dir.join("wal"),
            out_dir,
        }
    }
}

/// The command line of a leg: this executable, `leg`, and the options.
fn leg_command(opts: &LegOpts) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut command = Command::new(exe);
    command
        .arg("leg")
        .args(["--workload", &opts.workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .arg("--wal-root")
        .arg(&opts.wal_root)
        .arg("--out-dir")
        .arg(&opts.out_dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if opts.quick {
        command.arg("--quick");
    }
    Ok(command)
}

/// A finished child's report: the last line of its standard output.
fn leg_report(
    workload: &str,
    status: ExitStatus,
    last_line: &str,
    pins: &Pins,
) -> Result<LegReport, String> {
    if !status.success() {
        return Err(format!("the {workload} child failed: {last_line}"));
    }
    let mut leg: LegReport =
        serde_json::from_str(last_line).map_err(|e| format!("{workload} child's report: {e}"))?;
    check_pins(&mut leg, pins);
    Ok(leg)
}

/// What the turn scheduler knows about a leg.
#[derive(Debug, Clone, Copy)]
struct TurnClock {
    /// The share of the run's seconds the leg should get.
    share: f64,
    /// Seconds its turns have taken so far, and the last of them.
    used: f64,
    last_turn: f64,
}

/// A child (`skynet-perf leg`): set up, then blocked on its standard input
/// until it is given seconds to run rounds in.
struct TurnLeg {
    workload: String,
    clock: TurnClock,
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl TurnLeg {
    /// Starts the child and returns once its set-up is done.
    fn start(opts: &LegOpts, share: f64) -> Result<TurnLeg, String> {
        let mut child = leg_command(opts)?
            .spawn()
            .map_err(|e| format!("starting the {} child: {e}", opts.workload))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut leg = TurnLeg {
            workload: opts.workload.clone(),
            clock: TurnClock {
                share,
                used: 0.0,
                last_turn: 0.0,
            },
            child,
            stdin,
            stdout,
        };
        leg.wait_idle()?;
        Ok(leg)
    }

    /// Reads the child's output until it asks for a turn.
    fn wait_idle(&mut self) -> Result<(), String> {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self
                .stdout
                .read_line(&mut line)
                .map_err(|e| format!("reading the {} child: {e}", self.workload))?;
            if n == 0 {
                return Err(format!("the {} child ended before its turn", self.workload));
            }
            if line.trim_end() == WAITING {
                return Ok(());
            }
        }
    }

    fn tell(&mut self, message: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().expect("stdin is open until `finish`");
        writeln!(stdin, "{message}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("writing to the {} child: {e}", self.workload))
    }

    /// One turn: the child runs rounds for `seconds` (one at least).
    fn turn(&mut self, seconds: f64) -> Result<(), String> {
        let started = Instant::now();
        self.tell(&format!("go {seconds}"))?;
        self.wait_idle()?;
        self.clock.last_turn = started.elapsed().as_secs_f64();
        self.clock.used += self.clock.last_turn;
        Ok(())
    }

    /// Ends the timed part and collects the report.
    fn finish(mut self, pins: &Pins) -> Result<LegReport, String> {
        self.tell("end")?;
        self.stdin = None;
        let mut rest = String::new();
        self.stdout
            .read_to_string(&mut rest)
            .map_err(|e| format!("reading the {} child: {e}", self.workload))?;
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for the {} child: {e}", self.workload))?;
        leg_report(
            &self.workload,
            status,
            rest.lines().last().unwrap_or(""),
            pins,
        )
    }
}

impl Drop for TurnLeg {
    /// No child outlives the run, whatever went wrong; after `finish` the
    /// child has been waited for and both calls are no-ops.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One run: some or all workloads, one child each, one after the other.
pub struct SuiteRun {
    pub legs: Vec<LegReport>,
}

impl SuiteRun {
    pub fn leg(&self, workload: &str) -> Option<&LegReport> {
        self.legs.iter().find(|l| l.workload == workload)
    }

    pub fn attempted(&self) -> u64 {
        self.legs.iter().map(|l| l.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.legs.iter().map(|l| l.failed).sum()
    }

    /// Why timings of this run are not to be trusted, by workload
    /// ([`LegReport::invalid`]); empty for a valid run.
    pub fn invalid(&self) -> impl Iterator<Item = (&str, &str)> {
        self.legs.iter().flat_map(|l| {
            l.invalid
                .iter()
                .map(move |why| (l.workload.as_str(), why.as_str()))
        })
    }
}

/// What a run is asked to do.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    pub trace: bool,
    /// One turn of one round per workload, and shorter probes.
    pub quick: bool,
    pub places: Places,
}

impl RunOpts {
    fn leg(&self, workload: &str) -> LegOpts {
        LegOpts {
            workload: workload.to_string(),
            seed: self.seed,
            trace: self.trace,
            quick: self.quick,
            wal_root: self.places.wal_root.clone(),
            out_dir: self.places.out_dir.clone(),
        }
    }
}

// ---------------------------------------------------------------------------
// One run: all four workloads, taking turns
// ---------------------------------------------------------------------------

/// The share of a run's seconds the workload in front gets in the driver's
/// form; the other three split the rest evenly. The driver wants every
/// end-to-end metric on every run, so a run of one workload also runs the
/// other three, shorter. `run` and `trace` have nobody in front.
pub const PRIMARY_SHARE: f64 = 0.34;

/// How long a turn is. A turn always completes the round it is in: a flood
/// round takes 0.6 s, a paced round 1 s, an analysis pair and a restart
/// 0.5 s.
const TURN_SECONDS: f64 = 1.0;

/// Whose turn it is `elapsed` seconds into a run of `seconds`: the leg
/// furthest behind its share, among those whose last turn would still fit
/// into what is left. `None` ends the timed part.
fn next_turn(legs: &[TurnClock], elapsed: f64, seconds: f64) -> Option<usize> {
    let behind = |leg: &TurnClock| leg.share * elapsed - leg.used;
    (0..legs.len())
        .filter(|&i| elapsed + legs[i].last_turn <= seconds)
        .max_by(|&a, &b| behind(&legs[a]).total_cmp(&behind(&legs[b])))
}

/// The one way workloads are run: all four as children, taking turns of
/// [`TURN_SECONDS`] for `seconds` in all, so that every workload's rounds
/// are spread over the whole run. The host's speed drifts by a fifth over
/// tens of seconds; a metric sampled in one block of the run reads that
/// block's speed, one sampled all along reads the run's average. `primary`
/// gets [`PRIMARY_SHARE`] of the seconds; without one the shares are equal.
///
/// Children are started one at a time, so each set-up runs beside idle
/// siblings only. Then every leg gets a first turn, and after that the leg
/// furthest behind its share goes next, as long as a turn like its last
/// still fits into what is left of `seconds`. A quick run ends after the
/// first turns.
pub fn run_shared(
    opts: &RunOpts,
    primary: Option<&str>,
    seconds: f64,
    pins: &Pins,
) -> Result<SuiteRun, String> {
    let mut legs = Vec::new();
    for workload in WORKLOADS {
        let others = (WORKLOADS.len() - 1) as f64;
        let share = match primary {
            None => 1.0 / WORKLOADS.len() as f64,
            Some(primary) if primary == workload => PRIMARY_SHARE,
            Some(_) => (1.0 - PRIMARY_SHARE) / others,
        };
        legs.push(TurnLeg::start(&opts.leg(workload), share)?);
    }
    let started = Instant::now();
    for leg in &mut legs {
        leg.turn(if opts.quick { 0.0 } else { TURN_SECONDS })?;
    }
    // A quick run has no seconds left after the first turns.
    let seconds = if opts.quick { 0.0 } else { seconds };
    loop {
        let clocks: Vec<TurnClock> = legs.iter().map(|leg| leg.clock).collect();
        match next_turn(&clocks, started.elapsed().as_secs_f64(), seconds) {
            Some(next) => legs[next].turn(TURN_SECONDS)?,
            None => break,
        }
    }
    let legs = legs
        .into_iter()
        .map(|leg| leg.finish(pins))
        .collect::<Result<_, _>>()?;
    Ok(SuiteRun { legs })
}

/// Which workload a metric is read from in the driver's form (the table in
/// README.md). One home each, whatever workload is in front: `ack_p50_ms`
/// and `ack_p99_ms` are the paced feed's, per request from its due time;
/// the flood's per-batch latency stays in its own table under `run`.
fn home_of(metric: &str) -> &'static str {
    match metric {
        "ack_p50_ms" | "ack_p99_ms" => "paced_single",
        "analyze_s" | "analyze_sharded_s" => "batch_analyze",
        "restart_s" => "restart_replay",
        _ => "flood_batched",
    }
}

/// The issue's end-to-end metrics this sandbox cannot hold inside any bound
/// the driver accepts (README.md, "Demoted"): they are per-layer metrics
/// in `BENCHMARK.json`, and `check` shows them beside the others, ungated.
const DEMOTED: [&str; 3] = ["report_s", "analyze_sharded_s", "ack_p99_ms"];

#[derive(Serialize)]
struct DriverLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Metric>,
}

/// `--workload W --seed N --seconds S --trace T`: one [`run_shared`] with W
/// in front, printed as the one JSON object the driver reads. Exits 0 once
/// the object is printed; a failed output check shows as `correct: false`.
/// A run whose timings are invalid (the host stalled the load generator all
/// along) is reported as measured, with the reason on standard error: its
/// outputs were correct, and whether the numbers are steady is what the
/// driver's own repetitions judge.
pub fn driver(
    primary: &str,
    seconds: f64,
    opts: &RunOpts,
    json_out: Option<&PathBuf>,
) -> Result<(), String> {
    let benchmark = Benchmark::load()?;
    if !WORKLOADS.contains(&primary) {
        return Err(format!(
            "unknown workload {primary:?}; one of {WORKLOADS:?}"
        ));
    }
    let run = run_shared(opts, Some(primary), seconds, &load_pins()?)?;
    eprintln!("# deps: {}", env::deps());
    for leg in &run.legs {
        for failure in &leg.failures {
            eprintln!("FAILED [{}] {failure}", leg.workload);
        }
    }
    for (workload, why) in run.invalid() {
        eprintln!("INVALID TIMING [{workload}] {why}");
    }
    if let Some(path) = json_out {
        write_json(path, &run.legs)?;
    }
    let mut metrics = BTreeMap::new();
    let mut missing = Vec::new();
    if opts.trace {
        for layer in &benchmark.per_layer {
            match layer_value(&run, &layer.name, primary) {
                Some(metric) => drop(metrics.insert(layer.name.clone(), metric)),
                None => missing.push(layer.name.clone()),
            }
        }
    } else {
        for metric in &benchmark.end_to_end {
            match end_to_end_value(&run, &metric.name, primary) {
                Some(value) => drop(metrics.insert(metric.name.clone(), value)),
                None => missing.push(metric.name.clone()),
            }
        }
    }
    if !missing.is_empty() {
        return Err(format!("no workload produced {missing:?}"));
    }
    let line = DriverLine {
        correct: run.failed() == 0,
        attempted: run.attempted(),
        failed: run.failed(),
        metrics,
    };
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| format!("output: {e}"))?
    );
    Ok(())
}

fn end_to_end_value(run: &SuiteRun, name: &str, primary: &str) -> Option<Metric> {
    match name {
        // Set-up several times in a run, median reported: each of the four
        // children generates its inputs and starts its engine afresh.
        "setup_s" => {
            let all: Vec<f64> = run
                .legs
                .iter()
                .filter_map(|l| l.metrics.get("setup_s"))
                .map(|m| m.value)
                .collect();
            (!all.is_empty()).then(|| Metric {
                value: stats::median(&all),
                unit: "s".to_string(),
            })
        }
        "peak_rss_mb" => run.leg(primary)?.metrics.get(name).cloned(),
        _ => run.leg(home_of(name))?.metrics.get(name).cloned(),
    }
}

/// A per-layer metric: from the workload in front when it takes it, else
/// from the first workload that does.
fn layer_value(run: &SuiteRun, name: &str, primary: &str) -> Option<Metric> {
    if name == "failed_share" {
        return Some(Metric {
            value: run.failed() as f64 / run.attempted().max(1) as f64,
            unit: "ratio".to_string(),
        });
    }
    run.leg(primary)
        .and_then(|l| l.metrics.get(name))
        .or_else(|| run.legs.iter().find_map(|l| l.metrics.get(name)))
        .cloned()
}

// ---------------------------------------------------------------------------
// `run` and `trace`: every workload with an equal share, as tables
// ---------------------------------------------------------------------------

/// `--json <file>`: what was printed, as JSON.
fn write_json(path: &PathBuf, value: &impl Serialize) -> Result<(), String> {
    let text = serde_json::to_string_pretty(value).map_err(|e| format!("json: {e}"))?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn print_stamps(seed: u64, places: &Places) {
    for (key, value) in env::stamps(seed, &places.wal_root) {
        println!("# {key}: {value}");
    }
}

fn print_leg(leg: &LegReport) {
    println!();
    println!("## {}", leg.workload);
    for (name, metric) in &leg.metrics {
        println!("{:<34} {:>16.6} {}", name, metric.value, metric.unit);
    }
    println!(
        "{:<34} {:>16.6} ratio   ({} failed of {} attempted)",
        "failed_share",
        leg.failed as f64 / leg.attempted.max(1) as f64,
        leg.failed,
        leg.attempted
    );
    for note in &leg.notes {
        println!("  note: {note}");
    }
    for (name, value) in &leg.digests {
        println!("  digest {name} {value}");
    }
    for (name, value) in &leg.float_sums {
        println!("  float sum {name} {value:?}");
    }
    for failure in &leg.failures {
        println!("  FAILED: {failure}");
    }
    for why in &leg.invalid {
        println!("  INVALID TIMING: {why}");
    }
}

/// `run` / `trace`: the four workloads with equal shares of `seconds`,
/// printed by name with units. Returns whether every check passed and every
/// workload's timings are valid.
pub fn run_and_print(
    opts: &RunOpts,
    seconds: f64,
    json_out: Option<&PathBuf>,
) -> Result<bool, String> {
    print_stamps(opts.seed, &opts.places);
    let pins = load_pins()?;
    let run = run_shared(opts, None, seconds, &pins)?;
    if !pins.contains_key(env::deps()) {
        println!(
            "# no digests are pinned for a build against the {} dependencies",
            env::deps()
        );
    }
    for leg in &run.legs {
        print_leg(leg);
    }
    if opts.trace {
        print_interactions(&run);
        println!();
        println!(
            "spans: {}/trace-<workload>.jsonl",
            opts.places.out_dir.display()
        );
    }
    if let Some(path) = json_out {
        write_json(path, &run.legs)?;
    }
    println!();
    println!("{} failed of {} attempted", run.failed(), run.attempted());
    let invalid = run.invalid().count();
    if invalid > 0 {
        println!("the run is invalid: {invalid} workload timing(s) rejected above");
    }
    Ok(run.failed() == 0 && invalid == 0)
}

/// How the layer numbers should add up to the end-to-end ones (README.md,
/// "How the metrics combine"), with both sides and the miss.
fn print_interactions(run: &SuiteRun) {
    let get = |workload: &str, name: &str| -> Option<f64> {
        run.leg(workload)?.metrics.get(name).map(|m| m.value)
    };
    let mut lines: Vec<(String, Option<f64>, Option<f64>)> = Vec::new();
    let flood = "flood_batched";
    let events = run
        .leg(flood)
        .map(|l| l.round_events as f64)
        .filter(|&events| events > 0.0);
    let engine_us = (|| {
        Some(
            get("batch_analyze", "guard.us_per_event")?
                + get("batch_analyze", "preprocess.us_per_event")?
                + get("batch_analyze", "locator.insert_us_per_alert")?
                    / get("batch_analyze", "preprocess.compression")?,
        )
    })();
    lines.push((
        "flood_to_report_s ~ events / acked_events_per_s + report_s".to_string(),
        get(flood, "flood_to_report_s"),
        (|| Some(events? / get(flood, "acked_events_per_s")? + get(flood, "report_s")?))(),
    ));
    let finish_ms = (|| {
        Some(
            get("batch_analyze", "locator.advance_ms")?
                + get("batch_analyze", "locator.finish_ms")?
                + get("batch_analyze", "evaluator.rank_ms")?
                + get("batch_analyze", "sop.match_ms")?
                + get("batch_analyze", "report.json_ms")?,
        )
    })();
    lines.push((
        "report_s ~ backlog x engine per event + advance + finish + rank + sop + json".to_string(),
        get(flood, "report_s"),
        (|| Some(get(flood, "service.backlog_at_last_ack")? * engine_us? / 1e6 + finish_ms? / 1e3))(
        ),
    ));
    lines.push((
        "restart_s ~ snapshot.load_ms + events x (wal.scan + engine per event)".to_string(),
        get("restart_replay", "restart_s"),
        (|| {
            Some(
                get("restart_replay", "snapshot.load_ms")? / 1e3
                    + events? * (get("restart_replay", "wal.scan_us_per_event")? + engine_us?)
                        / 1e6,
            )
        })(),
    ));
    println!();
    println!("## how the layer numbers combine (measured, sum of layers, miss)");
    for (what, measured, modelled) in lines {
        match (measured, modelled) {
            (Some(m), Some(s)) => println!(
                "{what}\n    measured {m:.4}  layers {s:.4}  miss {:+.1} %",
                (s - m) / m * 100.0
            ),
            _ => println!("{what}\n    (a term is missing from this run)"),
        }
    }
}

// ---------------------------------------------------------------------------
// `check`: two sets of runs of the same build
// ---------------------------------------------------------------------------

/// What the issue asks every end-to-end metric to hold between two sets of
/// runs of one build. `check` gates on the bounds in `BENCHMARK.json` (which
/// the driver's acceptance of single runs sets, README.md "Bounds") and
/// says for every row whether it also held this.
const TARGET: f64 = 0.10;

/// By how much set B's median reads worse than set A's, as a share of A's;
/// negative when it reads better.
fn worse_by(better: &str, median_a: f64, median_b: f64) -> f64 {
    match better {
        "higher" => (median_a - median_b) / median_a,
        _ => (median_b - median_a) / median_a,
    }
}

/// Runs the driver's form of every workload for every seed `runs` times
/// for each of two sets, and compares the sets' medians with the bounds in
/// `BENCHMARK.json`. The sets' runs alternate (A B, then B A, …), so that
/// a slow drift of the host reaches both alike. Returns whether every
/// pairing agrees within its bound, no check failed and no run's timings
/// were invalid.
pub fn check(
    seeds: &[u64],
    runs: usize,
    seconds: f64,
    places: &Places,
    json_out: Option<&PathBuf>,
) -> Result<bool, String> {
    let benchmark = Benchmark::load()?;
    let pins = load_pins()?;
    print_stamps(seeds[0], places);
    println!("# seeds: {seeds:?}, {runs} run(s) per seed, workload and set, {seconds} s per run");
    // What a row is gated by: `None` for the demoted metrics.
    let mut gated: Vec<(&str, &str, &str, Option<f64>)> = benchmark
        .end_to_end
        .iter()
        .map(|m| {
            (
                m.name.as_str(),
                m.unit.as_str(),
                m.better.as_str(),
                Some(m.bound),
            )
        })
        .collect();
    gated.extend(DEMOTED.iter().map(|&name| {
        let unit = if name.ends_with("_ms") { "ms" } else { "s" };
        (name, unit, "lower", None)
    }));
    // values[set][(workload, metric)] = one value per run
    let mut values: [BTreeMap<(String, String), Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
    let mut failed = 0;
    let mut attempted = 0;
    let mut invalid = 0;
    let mut first = 0;
    for &seed in seeds {
        for _ in 0..runs {
            for primary in WORKLOADS {
                for set in [first, 1 - first] {
                    let opts = RunOpts {
                        seed,
                        trace: false,
                        quick: false,
                        places: places.clone(),
                    };
                    let run = run_shared(&opts, Some(primary), seconds, &pins)?;
                    failed += run.failed();
                    attempted += run.attempted();
                    for leg in &run.legs {
                        for failure in &leg.failures {
                            println!(
                                "FAILED [{primary} / {} / seed {seed}] {failure}",
                                leg.workload
                            );
                        }
                    }
                    for (workload, why) in run.invalid() {
                        println!("INVALID TIMING [{primary} / {workload} / seed {seed}] {why}");
                        invalid += 1;
                    }
                    for &(name, ..) in &gated {
                        let value = end_to_end_value(&run, name, primary)
                            .ok_or_else(|| format!("{primary} produced no {name}"))?;
                        values[set]
                            .entry((primary.to_string(), name.to_string()))
                            .or_default()
                            .push(value.value);
                    }
                }
                first = 1 - first;
            }
        }
    }
    println!();
    println!(
        "{:<16} {:<22} {:>14} {:>14} {:>9} {:>7} {:>9} {:>9}  verdict",
        "workload", "metric", "median A", "median B", "B vs A", "bound", "spread A", "spread B"
    );
    let mut within = true;
    let mut rows = Vec::new();
    for primary in WORKLOADS {
        for &(name, unit, better, bound) in &gated {
            let key = (primary.to_string(), name.to_string());
            let (a, b) = (&values[0][&key], &values[1][&key]);
            let (ma, mb) = (stats::median(a), stats::median(b));
            let worse = worse_by(better, ma, mb);
            // Quartiles of fewer than four values are extrapolated, not measured.
            let spread = |v: &[f64]| (v.len() >= 4).then(|| stats::spread(v));
            let ok = bound.is_none_or(|bound| worse.abs() <= bound);
            within &= ok;
            let held = worse.abs() <= TARGET;
            let verdict = match (bound, ok, held) {
                (None, ..) => "not gated (demoted)",
                (_, false, _) => "OUT OF BOUND",
                (_, true, true) => "ok",
                (_, true, false) => "ok, but not within 10 %",
            };
            let show = |s: Option<f64>| {
                s.map_or_else(|| "-".to_string(), |s| format!("{:.1} %", s * 100.0))
            };
            println!(
                "{:<16} {:<22} {:>14.6} {:>14.6} {:>+8.1} % {:>7} {:>9} {:>9}  {verdict}",
                primary,
                name,
                ma,
                mb,
                worse * 100.0,
                bound.map_or_else(|| "-".to_string(), |b| format!("{:.0} %", b * 100.0)),
                show(spread(a)),
                show(spread(b)),
            );
            rows.push(CheckRow {
                workload: primary.to_string(),
                metric: name.to_string(),
                unit: unit.to_string(),
                median_a: ma,
                median_b: mb,
                b_worse_by: worse,
                bound,
                within_target: held,
                spread_a: spread(a),
                spread_b: spread(b),
                values_a: a.clone(),
                values_b: b.clone(),
            });
        }
    }
    println!();
    println!("{failed} failed of {attempted} attempted, {invalid} invalid timing(s)");
    if let Some(path) = json_out {
        write_json(path, &rows)?;
    }
    Ok(within && failed == 0 && invalid == 0)
}

#[derive(Serialize)]
struct CheckRow {
    workload: String,
    metric: String,
    unit: String,
    median_a: f64,
    median_b: f64,
    b_worse_by: f64,
    /// `None` for a demoted metric: shown, not gated.
    bound: Option<f64>,
    /// Whether the medians agree within the issue's ±10 %.
    within_target: bool,
    spread_a: Option<f64>,
    spread_b: Option<f64>,
    values_a: Vec<f64>,
    values_b: Vec<f64>,
}

/// `pins`: one quick run per seed, what it found printed in the shape of
/// `pins.json` under this build's dependencies. The only way that file is
/// meant to change: regenerate it when an input or report change is
/// intended, and say so in the commit.
pub fn print_pins(seeds: &[u64], places: &Places) -> Result<bool, String> {
    let mut by_seed = BTreeMap::new();
    let mut clean = true;
    for &seed in seeds {
        let opts = RunOpts {
            seed,
            trace: false,
            quick: true,
            places: places.clone(),
        };
        let mut found = SeedPins::default();
        // Checked against no pins: the ones on file are being replaced.
        for leg in run_shared(&opts, None, 0.0, &Pins::new())?.legs {
            for failure in &leg.failures {
                eprintln!("FAILED [{} / seed {seed}] {failure}", leg.workload);
            }
            clean &= leg.failures.is_empty();
            found.digests.extend(leg.digests);
            found.float_sums.extend(leg.float_sums);
        }
        by_seed.insert(seed.to_string(), found);
    }
    let mut pins = load_pins()?;
    pins.insert(env::deps().to_string(), by_seed);
    println!(
        "{}",
        serde_json::to_string_pretty(&pins).map_err(|e| format!("json: {e}"))?
    );
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock(share: f64, used: f64, last_turn: f64) -> TurnClock {
        TurnClock {
            share,
            used,
            last_turn,
        }
    }

    #[test]
    fn the_leg_furthest_behind_its_share_goes_next() {
        // Ten seconds in: the 40 % leg is owed 4 s and has had 2, the
        // others are owed 2 s and have had 1.0, 1.9 and 3.5.
        let legs = [
            clock(0.4, 2.0, 1.0),
            clock(0.2, 1.0, 1.0),
            clock(0.2, 1.9, 1.0),
            clock(0.2, 3.5, 3.5),
        ];
        assert_eq!(next_turn(&legs, 10.0, 24.0), Some(0));
        // Once it has caught up, the next most starved leg follows.
        let mut legs = legs;
        legs[0].used = 4.0;
        assert_eq!(next_turn(&legs, 10.0, 24.0), Some(1));
    }

    #[test]
    fn worse_is_measured_in_the_direction_of_the_metric() {
        assert!((worse_by("lower", 2.0, 2.2) - 0.1).abs() < 1e-12);
        assert!((worse_by("higher", 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!(worse_by("higher", 100.0, 120.0) < 0.0, "B reads better");
    }

    #[test]
    fn pins_are_per_dependency_build_and_floats_get_the_tolerance() {
        let mut leg = LegReport::default();
        leg.seed = 1;
        leg.digests.insert("input.x".to_string(), "aa".to_string());
        leg.float_sums
            .insert("report.x".to_string(), 435690.8532517519);
        let pinned = SeedPins {
            digests: [("input.x".to_string(), "aa".to_string())].into(),
            float_sums: [("report.x".to_string(), 435690.85325175186)].into(),
        };
        let mut pins = Pins::new();
        pins.insert(
            "some-other-build".to_string(),
            [("1".to_string(), SeedPins::default())].into(),
        );
        check_pins(&mut leg, &pins);
        assert_eq!(
            (leg.attempted, leg.failed),
            (0, 0),
            "no pins for this build: no checks"
        );
        pins.insert(env::deps().to_string(), [("1".to_string(), pinned)].into());
        check_pins(&mut leg, &pins);
        assert_eq!((leg.attempted, leg.failed), (2, 0));
        // A moved digest, a moved float and an output nobody pinned all fail.
        leg.digests.insert("input.x".to_string(), "ab".to_string());
        leg.float_sums.insert("report.x".to_string(), 435690.9);
        leg.digests
            .insert("input.new".to_string(), "cc".to_string());
        check_pins(&mut leg, &pins);
        assert_eq!((leg.attempted, leg.failed), (5, 3));
    }

    #[test]
    fn a_turn_that_no_longer_fits_is_not_started() {
        // One whole pass of the paced feed takes 3.5 s: with 3 s left it
        // is passed over however far behind it is, and the run ends when
        // nobody's turn fits.
        let legs = [clock(0.4, 9.0, 1.2), clock(0.2, 0.0, 3.5)];
        assert_eq!(next_turn(&legs, 21.0, 24.0), Some(0));
        assert_eq!(next_turn(&legs, 23.0, 24.0), None);
    }
}
