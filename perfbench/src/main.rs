//! Command-line entry of the benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table2|system|jeddc|paged> --seed <n> --seconds <s> --trace <0|1> \
//!     [--program-seed <n>]
//! ```
//!
//! `--seed` picks the sequence in which the run cycles through a fixed
//! pool of fact load orders;
//! `--program-seed` replaces the preset's synth seed (default: the
//! preset's own). Prints one line per metric, then one JSON object as the
//! last line of standard output. Exits 1 when a rep failed or disagreed
//! with its oracle, 2 on a usage error.

use perfbench::run::{self, Outcome};
use perfbench::workloads::{Setup, Workload};
use perfbench::{calib, probe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    program_seed: u64,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut program_seed = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(&value).ok_or_else(bad)?),
            "--program-seed" => program_seed = Some(parse_u64(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(parse_u64(&value).ok_or_else(bad)?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        program_seed: program_seed.unwrap_or(workload.preset().config().seed),
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The repository root this binary was built from.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits inside the repository")
        .to_path_buf()
}

/// The commit, when the checkout is a git repository of its own (never
/// one found further up the directory tree).
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_DIR", repo_root().join(".git"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "none".to_string(), |s| s.trim().to_string())
}

/// FNV-1a digest of the library sources under `crates/`, identifying the
/// measured code when the checkout carries no git metadata.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p
                .extension()
                .is_some_and(|x| x == "rs" || x == "toml" || x == "jedd")
            {
                out.push(p);
            }
        }
    }
    let root = repo_root();
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let rel = f
            .strip_prefix(&root)
            .unwrap_or(f)
            .to_string_lossy()
            .into_owned();
        let body = std::fs::read(f).unwrap_or_default();
        for b in rel.as_bytes().iter().chain(&body) {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn json(o: &Outcome, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    if std::env::args().skip(1).eq(["--calibrate"]) {
        return match calib::reference_in_process() {
            Ok(secs) => {
                println!("{secs}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let cleared = probe::clear_kernel_env();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch = std::env::current_dir()
        .unwrap_or_default()
        .join(".bench_scratch")
        .join(format!("{}-{}", args.workload.name(), std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    // The paged workload's page files go to the run's own directory.
    std::env::set_var("JEDD_PAGE_DIR", &scratch);
    println!(
        "perfbench workload={} preset={} program_seed={:#x} seed={} seconds={} trace={} \
         cpus={} commit={} source={} cleared_env=[{}]",
        args.workload.name(),
        args.workload.preset().name(),
        args.program_seed,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        commit(),
        source_digest(),
        cleared.join(",")
    );

    let outcome = Setup::new(
        args.workload,
        args.workload.preset(),
        args.program_seed,
        args.seed,
        &scratch,
    )
    .map(|setup| {
        // Oracle memory is not the workload's: restart the peak here.
        if !probe::reset_peak_rss() {
            eprintln!("perfbench: cannot reset VmHWM; peak_rss_mib includes set-up");
        }
        run::run(&setup, args.seconds, args.trace)
    });
    let _ = std::fs::remove_dir_all(&scratch);
    if let Some(parent) = scratch.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    let o = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: oracle failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for e in &o.errors {
        eprintln!("perfbench: FAILED {e}");
    }
    let metrics = if args.trace {
        &o.per_layer
    } else {
        &o.end_to_end
    };
    for (name, v, unit) in o.end_to_end.iter().chain(&o.per_layer) {
        println!("{name:<24} {v:>16.6} {unit}");
    }
    if args.trace {
        println!(
            "traced reps {}: nested self times sum to {:.4} of the traced solve",
            o.traced_reps, o.self_sum_ratio
        );
    }
    println!("{}", json(&o, metrics));
    if o.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
