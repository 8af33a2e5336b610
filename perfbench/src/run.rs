//! One benchmark run: closed-loop reps for a fixed time, then medians.

use crate::calib;
use crate::probe;
use crate::trace::CATEGORIES;
use crate::workloads::{Rep, Setup, LOAD_ORDERS};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// End-to-end metrics (`--trace 0`): name, unit, which way is better.
/// Every workload reports all of them. Times are quoted at the speed
/// reference's speed ([`calib`]).
pub const END_TO_END: [(&str, &str, &str); 3] = [
    ("setup_s", "s", "lower"),
    ("solve_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
];

/// Per-layer metrics (`--trace 1`): name, unit, which way is better. A
/// metric a workload does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str, &str); 47] = [
    ("handcoded_s", "s", "lower"),
    ("compile_s", "s", "lower"),
    ("fail_ratio", "ratio", "lower"),
    ("bdd.nodes_created", "count", "lower"),
    ("bdd.cache_lookups", "count", "lower"),
    ("bdd.cache_hit_ratio", "ratio", "higher"),
    ("bdd.gc_runs", "count", "lower"),
    ("bdd.gc_reclaimed", "count", "lower"),
    ("bdd.live_nodes_end", "count", "lower"),
    ("core.relational_ops", "count", "lower"),
    ("core.auto_replaces", "count", "lower"),
    ("core.replace_s", "s", "lower"),
    ("core.join_s", "s", "lower"),
    ("core.compose_s", "s", "lower"),
    ("core.setop_s", "s", "lower"),
    ("core.other_s", "s", "lower"),
    ("core.overhead_ratio", "ratio", "lower"),
    ("fixpoint.rounds", "count", "lower"),
    ("fixpoint.rule_s", "s", "lower"),
    ("fixpoint.self_s", "s", "lower"),
    ("facts.nodes_created", "count", "lower"),
    ("analyses.hierarchy_s", "s", "lower"),
    ("analyses.pointsto_s", "s", "lower"),
    ("analyses.callgraph_s", "s", "lower"),
    ("analyses.sideeffect_s", "s", "lower"),
    ("analyses.self_s", "s", "lower"),
    ("jeddc.parse_s", "s", "lower"),
    ("jeddc.check_s", "s", "lower"),
    ("jeddc.assign_s", "s", "lower"),
    ("sat.solve_s", "s", "lower"),
    ("sat.vars", "count", "lower"),
    ("sat.clauses", "count", "lower"),
    ("exec.rules_run", "count", "lower"),
    ("exec.rule_s", "s", "lower"),
    ("exec.self_s", "s", "lower"),
    ("pager.faults", "count", "lower"),
    ("pager.writes", "count", "lower"),
    ("pager.evictions", "count", "lower"),
    ("pager.max_resident", "count", "lower"),
    ("store.checkpoints", "count", "lower"),
    ("store.bytes_written", "bytes", "lower"),
    ("trace.solve_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.glue_s", "s", "lower"),
    ("wall.setup_s", "s", "lower"),
    ("wall.solve_s", "s", "lower"),
    ("calib.reference_s", "s", "lower"),
];

/// Traced self times must sum to the traced solve within this share.
pub const SELF_SUM_TOLERANCE: f64 = 0.03;

/// Reps of each kind a run makes however short `--seconds` is: one full
/// cycle through the load orders.
const MIN_REPS: usize = LOAD_ORDERS;
/// A run stops starting reps after this long, so it ends well within the
/// 180 s a run may take.
const HARD_STOP: Duration = Duration::from_secs(120);

/// What one run measured.
pub struct Outcome {
    /// Reps attempted, including failed ones.
    pub attempted: usize,
    /// Reps that errored or disagreed with the oracle.
    pub failed: usize,
    /// One line per failure.
    pub errors: Vec<String>,
    /// End-to-end metrics, in [`END_TO_END`] order.
    pub end_to_end: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics, in [`PER_LAYER`] order (traced runs only).
    pub per_layer: Vec<(&'static str, f64, &'static str)>,
    /// Traced reps, and the median share of their solve span that the
    /// nested self times add up to (the trace's consistency check).
    pub traced_reps: usize,
    /// See [`Outcome::traced_reps`].
    pub self_sum_ratio: f64,
}

/// The median of `v` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(v: &[f64]) -> f64 {
    let mut s: Vec<f64> = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The factor that quotes `rep`'s times at the reference speed.
fn scale(rep: &Rep) -> f64 {
    calib::REFERENCE_S / rep.reference_s
}

/// The median over `reps` of time `key`, scaled to the reference speed.
fn median_of(reps: &[Rep], key: &str) -> f64 {
    median_by(reps, |r| r.times.get(key).map(|t| t * scale(r)))
}

fn median_by(reps: &[Rep], f: impl Fn(&Rep) -> Option<f64>) -> f64 {
    median(&reps.iter().filter_map(f).collect::<Vec<_>>())
}

/// Runs reps for about `seconds`: untraced only, or alternating untraced
/// and traced reps when `traced`. A rep starts only if it should end
/// before `seconds` plus half a rep, so a run overshoots by little even
/// when reps are long. The k-th rep of each kind runs the run's k-th load
/// order ([`Setup::order_of`]), so every run's medians cover every load
/// order and the traced and untraced reps see the same inputs.
pub fn run(setup: &Setup, seconds: f64, traced: bool) -> Outcome {
    let mut plain: Vec<Rep> = Vec::new();
    let mut with_trace: Vec<Rep> = Vec::new();
    let mut errors = Vec::new();
    let mut attempted = 0;
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut last_rep = Duration::ZERO;
    let (mut plain_tried, mut traced_tried) = (0, 0);
    loop {
        let want_traced = traced && with_trace.len() < plain.len();
        let enough = plain.len() >= MIN_REPS && (!traced || with_trace.len() >= MIN_REPS);
        let elapsed = start.elapsed();
        if (enough && elapsed + last_rep / 2 >= budget) || elapsed >= HARD_STOP {
            break;
        }
        attempted += 1;
        let (kind, tried) = if want_traced {
            ("traced", &mut traced_tried)
        } else {
            ("untraced", &mut plain_tried)
        };
        let index = *tried;
        *tried += 1;
        let rep = setup
            .rep(want_traced, index)
            .and_then(|rep| match &rep.trace {
                Some(b) if (b.self_sum_ratio() - 1.0).abs() > SELF_SUM_TOLERANCE => Err(format!(
                    "traced self times sum to {:.4} of the solve span",
                    b.self_sum_ratio()
                )),
                _ => Ok(rep),
            })
            .and_then(|mut rep| {
                // Time the reference right after the rep, under the same
                // machine conditions, and quote the rep at its speed.
                rep.reference_s = calib::reference()?;
                Ok(rep)
            });
        if let Ok(rep) = &rep {
            let times: Vec<String> = ["handcoded_s", "compile_s", "setup_s", "solve_s"]
                .iter()
                .filter_map(|k| rep.times.get(k).map(|v| format!("{k}={v:.4}")))
                .collect();
            eprintln!(
                "rep {attempted} ({kind}, load order {}): {} reference_s={:.4}",
                setup.order_of(index),
                times.join(" "),
                rep.reference_s
            );
        }
        last_rep = start.elapsed() - elapsed;
        match rep {
            Ok(rep) if want_traced => with_trace.push(rep),
            Ok(rep) => plain.push(rep),
            Err(e) => {
                errors.push(format!("rep {attempted} ({kind}): {e}"));
                // A failing workload fails every rep; stop early.
                if errors.len() >= MIN_REPS {
                    break;
                }
            }
        }
    }
    let failed = errors.len();
    let peak_rss = probe::peak_rss_mib().unwrap_or(0.0);
    let end_to_end = END_TO_END
        .iter()
        .map(|&(name, unit, _)| match name {
            "peak_rss_mib" => (name, peak_rss, unit),
            _ => (name, median_of(&plain, name), unit),
        })
        .collect();
    let per_layer = if traced {
        per_layer(&plain, &with_trace, failed as f64 / attempted.max(1) as f64)
    } else {
        Vec::new()
    };
    let sums: Vec<f64> = with_trace
        .iter()
        .filter_map(|r| r.trace.as_ref().map(|b| b.self_sum_ratio()))
        .collect();
    Outcome {
        attempted,
        failed,
        errors,
        end_to_end,
        per_layer,
        traced_reps: with_trace.len(),
        self_sum_ratio: median(&sums),
    }
}

fn per_layer(
    plain: &[Rep],
    with_trace: &[Rep],
    fail_ratio: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    // Counts: the mean over the first cycle through the load orders, which
    // every run measures, so they repeat exactly between runs whatever
    // their seeds.
    let first = &plain[..plain.len().min(MIN_REPS)];
    let count = |k: &str| {
        let sum: u64 = first.iter().filter_map(|r| r.counts.get(k)).sum();
        sum as f64 / first.len().max(1) as f64
    };
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, unit, _) in PER_LAYER {
        if unit == "count" || unit == "bytes" {
            values.insert(name, count(name));
        } else if unit == "s" {
            values.insert(name, median_of(plain, name));
        }
    }
    let traced_median = |f: &dyn Fn(&crate::trace::Breakdown) -> f64| {
        median_by(with_trace, |r| r.trace.as_ref().map(|b| f(b) * scale(r)))
    };
    for c in CATEGORIES {
        values.insert(c, traced_median(&|b| b.self_s[c]));
    }
    // jeddc's compile phases are split only in traced reps.
    for name in ["jeddc.parse_s", "jeddc.check_s", "jeddc.assign_s"] {
        values.insert(name, median_of(with_trace, name));
    }
    let solve = median_of(plain, "solve_s");
    let traced_solve = traced_median(&|b| b.total_s);
    let handcoded = median_of(plain, "handcoded_s");
    let lookups = count("bdd.cache_lookups");
    values.insert("fail_ratio", fail_ratio);
    values.insert(
        "bdd.cache_hit_ratio",
        if lookups > 0.0 {
            count("bdd.cache_hits") / lookups
        } else {
            0.0
        },
    );
    values.insert(
        "core.overhead_ratio",
        if handcoded > 0.0 {
            (median_of(plain, "setup_s") + solve) / handcoded - 1.0
        } else {
            0.0
        },
    );
    values.insert(
        "fixpoint.rounds",
        median_by(with_trace, |r| {
            r.trace.as_ref().map(|b| b.fixpoint_rounds as f64)
        }),
    );
    for (name, key) in [("wall.setup_s", "setup_s"), ("wall.solve_s", "solve_s")] {
        values.insert(name, median_by(plain, |r| r.times.get(key).copied()));
    }
    values.insert(
        "calib.reference_s",
        median_by(plain, |r| Some(r.reference_s)),
    );
    values.insert("trace.solve_s", traced_solve);
    values.insert(
        "trace.overhead_ratio",
        if solve > 0.0 {
            traced_solve / solve - 1.0
        } else {
            0.0
        },
    );
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| (name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}
