//! The repository benchmark. For one workload and seed it generates the
//! input file, mines it to rules with the serial miner, with CD/IDD/HD on
//! the native backend at P = host cores (and CD at P = 1), and with the
//! three formulations on the simulator, for `--seconds` seconds. Every
//! run is checked against a serial reference. `--trace 1` adds a traced
//! serial run and reports the per-layer split instead of the end-to-end
//! metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --workdir <dir> [--commit <id>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! holds the run's context. Any failed or mismatching run makes the exit
//! code 1.

mod json;
mod pipeline;
mod trace;
mod workload;

use armine_core::apriori::PassInfo;
use armine_core::io::{read_transactions_file, write_transactions_file};
use armine_parallel::{Algorithm, ParallelRun};
use json::{Metrics, Object};
use pipeline::{Output, FORMULATIONS};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::{Workload, WORKLOADS};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    workdir: PathBuf,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(name.to_owned(), value);
    }
    let get = |name: &str| {
        flags
            .get(name)
            .cloned()
            .ok_or_else(|| format!("missing --{name}"))
    };
    let name = get("workload")?;
    let workload = Workload::by_name(&name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    let number = |name: &str| {
        get(name)?
            .parse::<u64>()
            .map_err(|_| format!("--{name} must be a whole number"))
    };
    let seconds = number("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed: number("seed")?,
        seconds,
        trace,
        workdir: PathBuf::from(get("workdir")?),
        commit: flags.get("commit").cloned().unwrap_or_default(),
    })
}

/// Attempted and failed mining runs.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Runs `f`, counting an error or a panic as a failure.
    fn attempt<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(out)) => Some(out),
            Ok(Err(e)) => {
                eprintln!("perfbench: {what} failed: {e}");
                self.failed += 1;
                None
            }
            Err(_) => {
                eprintln!("perfbench: {what} panicked");
                self.failed += 1;
                None
            }
        }
    }

    /// Counts a mismatch against the reference as a failure.
    fn check(&mut self, what: &str, ok: bool) {
        if !ok {
            eprintln!("perfbench: {what} differs from the serial reference");
            self.failed += 1;
        }
    }
}

/// Wall-time samples and exact values, by metric name.
#[derive(Default)]
struct Record {
    samples: BTreeMap<String, Vec<f64>>,
    exact: BTreeMap<String, f64>,
    /// Exact values that changed between iterations of one run.
    unstable: Vec<String>,
}

impl Record {
    fn time(&mut self, name: impl Into<String>, seconds: f64) {
        self.samples.entry(name.into()).or_default().push(seconds);
    }

    fn exact(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.exact.get(&name) {
            Some(v) if v.to_bits() != value.to_bits() => {
                if !self.unstable.contains(&name) {
                    self.unstable.push(name);
                }
            }
            Some(_) => {}
            None => {
                self.exact.insert(name, value);
            }
        }
    }

    fn median(&self, name: &str) -> f64 {
        median(self.samples.get(name).map_or(&[][..], Vec::as_slice))
    }

    /// An exact value; NaN (which fails the run) if no run produced it.
    fn value(&self, name: &str) -> f64 {
        self.exact.get(name).copied().unwrap_or(f64::NAN)
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn max_over_ranks(run: &ParallelRun, field: impl Fn(&armine_mpsim::WallTimings) -> f64) -> f64 {
    run.wall.iter().map(field).fold(0.0, f64::max)
}

fn messages(run: &ParallelRun) -> u64 {
    run.ranks.iter().map(|r| r.messages_sent).sum()
}

/// Peak resident memory of this process, MiB (Linux `VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Generates the input, writes it and parses it back once (the warm-up).
/// Returns the generate seconds and the whole set-up's seconds.
fn set_up(workload: &Workload, seed: u64, path: &Path) -> Result<(f64, f64), String> {
    let start = Instant::now();
    let base = workload.quest().generate();
    let generate_s = start.elapsed().as_secs_f64();
    let dataset = workload.input(&base, seed);
    // Write a new file each time rather than truncate the last one: ext4
    // flushes a truncated and rewritten file to disk when it is closed.
    let _ = std::fs::remove_file(path);
    write_transactions_file(path, &dataset).map_err(|e| format!("{}: {e}", path.display()))?;
    let parsed = read_transactions_file(path).map_err(|e| format!("{}: {e}", path.display()))?;
    if parsed.len() != dataset.len() {
        return Err(format!(
            "{} parsed back {} transactions",
            path.display(),
            parsed.len()
        ));
    }
    Ok((generate_s, start.elapsed().as_secs_f64()))
}

/// Whether two runs made the same passes with the same counter ledgers.
fn same_passes(a: &[PassInfo], b: &[PassInfo]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            (x.k, x.candidates, x.frequent, x.tree_stats)
                == (y.k, y.candidates, y.frequent, y.tree_stats)
        })
}

struct Bench<'a> {
    args: &'a Args,
    path: PathBuf,
    procs: usize,
    sim_procs: usize,
    reference: Output,
    reference_passes: Vec<PassInfo>,
    dataset: armine_core::Dataset,
    tally: Tally,
    record: Record,
}

impl Bench<'_> {
    fn reference_rules(&self) -> usize {
        self.reference.rules.as_ref().map_or(0, Vec::len)
    }

    /// One iteration: `rounds` of the serial and native pipelines, then
    /// the simulator mines, each run checked.
    fn iteration(&mut self, first: bool) {
        for _ in 0..self.args.workload.rounds {
            self.pipelines();
        }
        self.sims(first);
    }

    fn pipelines(&mut self) {
        let wl = self.args.workload;
        let path = self.path.clone();
        if let Some(run) = self.tally.attempt("serial", || pipeline::serial(&path, wl)) {
            self.record.time("serial_s", run.seconds);
            let ok = run.output.matches(&self.reference);
            self.tally.check("serial", ok);
        }
        if self.args.trace {
            self.traced_serial();
        }
        let mut natives: Vec<(&str, Algorithm, usize)> = FORMULATIONS
            .iter()
            .map(|&(name, algo)| (name, algo, self.procs))
            .collect();
        natives.push(("cd_p1", Algorithm::Cd, 1));
        for (name, algo, procs) in natives {
            let what = format!("native {name}");
            let Some(run) = self
                .tally
                .attempt(&what, || pipeline::native(&path, wl, algo, procs))
            else {
                continue;
            };
            self.record.time(format!("{name}_s"), run.total_s);
            if procs == self.procs {
                self.record.time("rules.parallel_s", run.rules_s);
            }
            let prefix = format!("parallel.{name}");
            self.record.time(format!("{prefix}.mine_s"), run.mine_s);
            self.record.time(
                format!("{prefix}.counting_s"),
                max_over_ranks(&run.run, |w| w.counting),
            );
            self.record.time(
                format!("{prefix}.exchange_s"),
                max_over_ranks(&run.run, |w| w.exchange),
            );
            self.record
                .time(format!("{prefix}.skew"), run.run.compute_imbalance());
            self.record
                .exact(format!("{prefix}.bytes"), run.run.total_bytes() as f64);
            self.record
                .exact(format!("{prefix}.messages"), messages(&run.run) as f64);
            let output = Output {
                frequent: run.run.frequent,
                rules: Some(run.rules),
            };
            let ok = output.matches(&self.reference);
            self.tally.check(&what, ok);
        }
    }

    fn sims(&mut self, first: bool) {
        let wl = self.args.workload;
        let mut sim_host_s = 0.0;
        for &(name, algo) in &FORMULATIONS {
            let what = format!("sim {name}");
            let (dataset, sim_procs) = (&self.dataset, self.sim_procs);
            let Some((run, host_s)) = self
                .tally
                .attempt(&what, || Ok(pipeline::sim(dataset, wl, algo, sim_procs)))
            else {
                continue;
            };
            sim_host_s += host_s;
            let prefix = format!("mpsim.{name}");
            self.record.time(format!("{prefix}.host_s"), host_s);
            self.record
                .exact(format!("{prefix}.virtual_s"), run.response_time);
            self.record
                .exact(format!("{prefix}.bytes"), run.total_bytes() as f64);
            self.record
                .exact(format!("{prefix}.messages"), messages(&run) as f64);
            // Rules are a function of the lattice; check the simulator's
            // rule generation once per run.
            let rules = first.then(|| pipeline::sim_rules(&run.frequent, sim_procs));
            let output = Output {
                frequent: run.frequent,
                rules,
            };
            let ok = output.matches(&self.reference);
            self.tally.check(&what, ok);
        }
        self.record.time("sim_host_s", sim_host_s);
    }

    fn traced_serial(&mut self) {
        let (path, wl) = (self.path.clone(), self.args.workload);
        let Some((output, spans)) = self
            .tally
            .attempt("traced serial", || trace::traced_serial(&path, wl))
        else {
            return;
        };
        let same =
            output.matches(&self.reference) && same_passes(&spans.passes, &self.reference_passes);
        self.tally.check("traced serial", same);
        let r = &mut self.record;
        r.time("trace.total_s", spans.total_s);
        r.time("io.parse_s", spans.parse_s);
        r.time("apriori.pass1_s", spans.pass1_s);
        r.time("apriori.gen_s", spans.gen_s);
        r.time("counter.build_s", spans.build_s);
        r.time("counter.count_k2_s", spans.count_k2_s);
        r.time("counter.count_k3plus_s", spans.count_k3plus_s);
        r.time("counter.extract_s", spans.extract_s);
        r.time("rules.serial_s", spans.rules_s);
        let candidates: usize = spans.passes.iter().map(|p| p.candidates).sum();
        let frequent: usize = spans.passes.iter().map(|p| p.frequent).sum();
        let k2 = spans
            .passes
            .iter()
            .find(|p| p.k == 2)
            .map_or(0, |p| p.candidates);
        r.exact("apriori.passes", spans.passes.len() as f64);
        r.exact("apriori.candidates", candidates as f64);
        r.exact("apriori.candidates_k2", k2 as f64);
        r.exact("apriori.frequent", frequent as f64);
        r.exact("apriori.yield", frequent as f64 / candidates.max(1) as f64);
        let s = spans.stats;
        r.exact("counter.inserts", s.inserts as f64);
        r.exact("counter.traversal_steps", s.traversal_steps as f64);
        r.exact(
            "counter.distinct_leaf_visits",
            s.distinct_leaf_visits as f64,
        );
        r.exact("counter.candidate_checks", s.candidate_checks as f64);
        r.exact("counter.intersection_words", s.intersection_words as f64);
        r.exact(
            "counter.checks_per_tx",
            s.candidate_checks as f64 / spans.transactions.max(1) as f64,
        );
    }
}

/// The per-layer metrics `--trace 1` reports, with their units.
fn per_layer(bench: &Bench, input_mib: f64) -> Metrics {
    let r = &bench.record;
    let mut m = Metrics::default();
    let time = |m: &mut Metrics, key: &str| m.add(key, r.median(key), "s");
    let exact = |m: &mut Metrics, key: &str, unit| m.add(key, r.value(key), unit);
    time(&mut m, "io.parse_s");
    m.add("io.input_mib", input_mib, "MiB");
    time(&mut m, "datagen.generate_s");
    time(&mut m, "apriori.pass1_s");
    time(&mut m, "apriori.gen_s");
    for name in ["passes", "candidates", "candidates_k2", "frequent"] {
        exact(&mut m, &format!("apriori.{name}"), "count");
    }
    exact(&mut m, "apriori.yield", "ratio");
    for name in ["build_s", "count_k2_s", "count_k3plus_s", "extract_s"] {
        time(&mut m, &format!("counter.{name}"));
    }
    for name in [
        "inserts",
        "traversal_steps",
        "distinct_leaf_visits",
        "candidate_checks",
        "intersection_words",
    ] {
        exact(&mut m, &format!("counter.{name}"), "count");
    }
    exact(&mut m, "counter.checks_per_tx", "1/tx");
    time(&mut m, "rules.serial_s");
    time(&mut m, "rules.parallel_s");
    m.add("rules.count", bench.reference_rules() as f64, "count");
    for name in ["cd", "cd_p1", "idd", "hd"] {
        let p = format!("parallel.{name}");
        time(&mut m, &format!("{p}.mine_s"));
        time(&mut m, &format!("{p}.counting_s"));
        time(&mut m, &format!("{p}.exchange_s"));
        m.add(
            &format!("{p}.skew"),
            r.median(&format!("{p}.skew")),
            "ratio",
        );
        exact(&mut m, &format!("{p}.bytes"), "B");
        exact(&mut m, &format!("{p}.messages"), "count");
    }
    for (name, _) in FORMULATIONS {
        let p = format!("mpsim.{name}");
        time(&mut m, &format!("{p}.host_s"));
        exact(&mut m, &format!("{p}.virtual_s"), "s");
        exact(&mut m, &format!("{p}.bytes"), "B");
        exact(&mut m, &format!("{p}.messages"), "count");
    }
    let overhead = r.median("trace.total_s") - r.median("serial_s");
    m.add("trace.overhead_s", overhead, "s");
    m
}

fn run(args: &Args) -> Result<bool, String> {
    let wl = args.workload;
    let procs = std::thread::available_parallelism().map_or(1, |p| p.get());
    std::fs::create_dir_all(&args.workdir)
        .map_err(|e| format!("{}: {e}", args.workdir.display()))?;
    let path = args.workdir.join(format!("{}-{}.txt", wl.name, args.seed));

    let mut record = Record::default();
    for _ in 0..SETUP_REPS {
        let (generate_s, setup_s) = set_up(wl, args.seed, &path)?;
        record.time("datagen.generate_s", generate_s);
        record.time("setup_s", setup_s);
    }
    let input_mib = std::fs::metadata(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .len() as f64
        / (1024.0 * 1024.0);

    // The serial reference every run is checked against.
    let reference_start = Instant::now();
    let reference = pipeline::serial(&path, wl)?;
    let reference_s = reference_start.elapsed().as_secs_f64();
    let dataset = read_transactions_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;

    let mut bench = Bench {
        args,
        path: path.clone(),
        procs,
        sim_procs: wl.sim_procs.unwrap_or(procs),
        reference: reference.output,
        reference_passes: reference.passes,
        dataset,
        tally: Tally::default(),
        record,
    };
    let budget = Duration::from_secs(args.seconds);
    let loop_start = Instant::now();
    let mut iterations = 0;
    let mut last = Duration::ZERO;
    while iterations == 0 || loop_start.elapsed() + last <= budget {
        let start = Instant::now();
        bench.iteration(iterations == 0);
        last = start.elapsed();
        iterations += 1;
    }
    let _ = std::fs::remove_file(&path);

    let passes = &bench.reference_passes;
    let mut shape = Object::default();
    shape.num(
        "c2",
        passes.iter().find(|p| p.k == 2).map_or(0, |p| p.candidates) as f64,
    );
    shape.num("passes", passes.len() as f64);
    shape.num("frequent_itemsets", bench.reference.frequent.len() as f64);
    shape.num("rules", bench.reference_rules() as f64);
    let mut params = Object::default();
    params.num("transactions", wl.transactions as f64);
    params.num("items", wl.items as f64);
    params.num("patterns", wl.patterns as f64);
    params.num("min_support", wl.min_support);
    params.num("min_confidence", workload::MIN_CONFIDENCE);
    params.num("max_k", wl.max_k.map_or(0.0, |k| k as f64));
    params.str("counter", wl.counter.name());
    params.str("sim_counter", wl.sim_counter.name());
    params.num("page_size", wl.page_size as f64);
    params.num("rounds", wl.rounds as f64);
    params.num("native_procs", procs as f64);
    params.num("sim_procs", bench.sim_procs as f64);
    params.str("sim_machine", "cray_t3e");
    params.num("hd_group_threshold", workload::HD_GROUP_THRESHOLD as f64);
    let mut timings = Object::default();
    for (name, values) in &bench.record.samples {
        let mut t = Object::default();
        t.num("median", median(values));
        t.num("min", values.iter().copied().fold(f64::MAX, f64::min));
        t.num("max", values.iter().copied().fold(f64::MIN, f64::max));
        t.num("n", values.len() as f64);
        timings.obj(name, t);
    }
    let Tally { attempted, failed } = bench.tally;
    let mut context = Object::default();
    context.str("workload", wl.name);
    context.num("seed", args.seed as f64);
    context.num("host_cores", procs as f64);
    context.str("commit", &args.commit);
    context.num("trace", if args.trace { 1.0 } else { 0.0 });
    context.obj("params", params);
    context.obj("shape", shape);
    context.num("iterations", iterations as f64);
    context.num("reference_s", reference_s);
    context.num("error_rate", failed as f64 / attempted.max(1) as f64);
    context.strs("unstable_counts", &bench.record.unstable);
    context.obj("timings", timings);
    let mut outer = Object::default();
    outer.obj("context", context);
    println!("{}", outer.render());

    let metrics = if args.trace {
        per_layer(&bench, input_mib)
    } else {
        let r = &bench.record;
        let mut m = Metrics::default();
        for name in ["serial_s", "cd_s", "idd_s", "hd_s", "cd_p1_s", "sim_host_s"] {
            m.add(name, r.median(name), "s");
        }
        m.add("setup_s", r.median("setup_s"), "s");
        m.add("peak_rss_mib", peak_rss_mib()?, "MiB");
        m
    };
    let correct = failed == 0 && bench.record.unstable.is_empty() && metrics.all_finite();
    let mut result = Object::default();
    result.bool("correct", correct);
    result.num("attempted", attempted as f64);
    result.num("failed", failed as f64);
    result.obj("metrics", metrics.into_object());
    println!("{}", result.render());
    Ok(correct)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
