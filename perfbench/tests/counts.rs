//! Exact-count self-test: every count metric must repeat exactly between
//! two reps of one workload on one input, or no claim may rest on it. The pager and
//! store counters must read 0 on the resident workloads and above 0 on
//! `paged`. One test walks all workloads in turn, because the kernel
//! environment is process-wide.

use jedd_analyses::synth::Benchmark;
use perfbench::probe;
use perfbench::run::SELF_SUM_TOLERANCE;
use perfbench::workloads::{generate, load_order, visit_order, Setup, Workload, LOAD_ORDERS};

const IO_COUNTS: [&str; 6] = [
    "pager.faults",
    "pager.writes",
    "pager.evictions",
    "pager.max_resident",
    "store.checkpoints",
    "store.bytes_written",
];

#[test]
fn counts_repeat_exactly_and_pager_counts_only_when_paged() {
    probe::clear_kernel_env();
    let scratch = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-counts");
    std::fs::create_dir_all(&scratch).unwrap();
    std::env::set_var("JEDD_PAGE_DIR", &scratch);
    for w in Workload::ALL {
        let preset = Benchmark::Tiny;
        let mut setup = Setup::new(w, preset, preset.config().seed, 7, &scratch).unwrap();
        // Tiny fits in a few frames; four force evictions.
        setup.frames = 4;
        let a = setup.rep(false, 0).unwrap();
        let b = setup.rep(false, 0).unwrap();
        assert!(!a.counts.is_empty(), "{}", w.name());
        assert_eq!(
            a.counts,
            b.counts,
            "{}: counts must repeat exactly",
            w.name()
        );
        assert_eq!(a.counts["bdd.par_ops"], 0, "{}", w.name());
        for k in IO_COUNTS {
            let v = a.counts.get(k).copied().unwrap_or(0);
            if w == Workload::Paged {
                assert!(v > 0, "{}: {k} must be above 0", w.name());
            } else {
                assert_eq!(v, 0, "{}: {k} must be 0 when resident", w.name());
            }
        }

        // Another rep loads another order; the oracle check inside `rep`
        // still holds.
        let traced = setup.rep(true, 1).unwrap();
        let again = setup.rep(true, 1).unwrap();
        assert_eq!(traced.counts, again.counts, "{}: traced counts", w.name());
        let t = traced.trace.expect("a traced rep carries its breakdown");
        assert!(
            (t.self_sum_ratio() - 1.0).abs() <= SELF_SUM_TOLERANCE,
            "{}: self times sum to {} of the solve",
            w.name(),
            t.self_sum_ratio()
        );
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn load_orders_reorder_inputs_but_not_results() {
    let preset = Benchmark::Tiny;
    let base = generate(preset, preset.config().seed);
    assert_eq!(
        load_order(&base, 0),
        base,
        "order 0 is the generated program"
    );
    let a = load_order(&base, 1);
    let b = load_order(&base, 2);
    assert_eq!(a, load_order(&base, 1), "an order is reproducible");
    assert_ne!(a.news, b.news, "orders differ");
    let sorted = |mut v: Vec<(u32, u32, u32)>| {
        v.sort_unstable();
        v
    };
    assert_eq!(sorted(a.news.clone()), sorted(b.news.clone()));
    assert_eq!(
        jedd_analyses::baseline_sets::points_to(&a).pt,
        jedd_analyses::baseline_sets::points_to(&b).pt
    );
}

#[test]
fn every_seed_visits_every_load_order() {
    let mut sequences = std::collections::BTreeSet::new();
    for seed in 0..32 {
        let visit = visit_order(seed);
        assert_eq!(
            visit,
            visit_order(seed),
            "a seed's sequence is reproducible"
        );
        let mut sorted = visit;
        sorted.sort_unstable();
        assert_eq!(sorted, std::array::from_fn::<usize, LOAD_ORDERS, _>(|k| k));
        sequences.insert(visit);
    }
    assert!(sequences.len() > 1, "seeds pick different sequences");
}
