//! The four workloads: one set-up per run (program, oracle, inputs) and one
//! checked rep per call of [`Setup::rep`].

use crate::trace::{Breakdown, Sink};
use jedd_analyses::facts::Facts;
use jedd_analyses::ir::Program;
use jedd_analyses::pointsto::{CallGraphMode, PointsTo};
use jedd_analyses::synth::{self, Benchmark};
use jedd_analyses::{
    baseline_bdd, baseline_sets, callgraph, driver, hierarchy, jedd_src, persist, pointsto,
    sideeffect,
};
use jedd_bdd::rng::XorShift64Star;
use jedd_core::{AttrId, KernelStats, Relation, Strategy, Universe};
use jeddc::{CompiledProgram, Executor};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Resident frames of the `paged` workload. At 512 frames paging is about
/// two thirds of the solve on javac (9.4k faults) without thrashing; 448
/// frames already costs 4x the faults.
pub const PAGED_FRAMES: usize = 512;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Hand-coded vs relational naive points-to: the paper's Table 2.
    Table2,
    /// The five analyses in `driver::run`'s order, semi-naive.
    System,
    /// jeddc compiles the five modules, then interprets the combined one.
    Jeddc,
    /// Points-to on the disk-backed pager with a checkpoint every round.
    Paged,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Table2,
        Workload::System,
        Workload::Jeddc,
        Workload::Paged,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table2 => "table2",
            Workload::System => "system",
            Workload::Jeddc => "jeddc",
            Workload::Paged => "paged",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The synthetic program preset the workload runs.
    pub fn preset(self) -> Benchmark {
        match self {
            Workload::Table2 | Workload::System => Benchmark::Jedit,
            Workload::Jeddc | Workload::Paged => Benchmark::Javac,
        }
    }
}

/// Sorted, de-duplicated tuples: the form every oracle comparison uses.
type Tuples = Vec<Vec<u64>>;

fn sorted(mut t: Tuples) -> Tuples {
    t.sort_unstable();
    t.dedup();
    t
}

fn rel(r: &Relation, order: &[AttrId]) -> Result<Tuples, String> {
    r.tuples_by(order).map(sorted).map_err(|e| e.to_string())
}

fn pairs<A: Copy + Into<u64>>(set: &BTreeSet<(A, A)>) -> Tuples {
    set.iter().map(|&(a, b)| vec![a.into(), b.into()]).collect()
}

/// Baseline side-effect triples are `(method, baseobj, field)`.
fn triples(set: &BTreeSet<(u32, u32, u32)>) -> Tuples {
    set.iter()
        .map(|&(m, o, f)| vec![m.into(), o.into(), f.into()])
        .collect()
}

fn check(what: &str, got: &Tuples, want: &Tuples) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: {} tuples, oracle has {}",
            got.len(),
            want.len()
        ))
    }
}

/// The expected results, computed once per run outside timing.
enum Oracle {
    /// `baseline_sets::points_to` pairs `(var, obj)`.
    Table2 { pt: Tuples },
    /// `baseline_sets` hierarchy, points-to and side effects.
    System {
        subtype: Tuples,
        pt: Tuples,
        side_effects: [Tuples; 4],
    },
    /// The Rust relational results (`driver::run`), in the Jedd relations'
    /// declared column orders.
    Jeddc {
        relations: Vec<(&'static str, Tuples)>,
    },
    /// A resident points-to run: `pt`, `field_pt`, `cg`.
    Paged { resident: [Tuples; 3] },
}

/// Per-run state: the program, its oracle and workload inputs.
pub struct Setup {
    workload: Workload,
    /// The pool of load orders ([`load_order`]).
    orders: Vec<Program>,
    /// The run's sequence through `orders` ([`visit_order`]).
    visit: [usize; LOAD_ORDERS],
    oracle: Oracle,
    /// jeddc sources: the five modules, then the combined program last.
    sources: Vec<String>,
    scratch: PathBuf,
    /// Resident frames of the `paged` workload ([`PAGED_FRAMES`]).
    pub frames: usize,
}

/// One measured rep.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Timings in seconds, by metric name.
    pub times: BTreeMap<&'static str, f64>,
    /// Exact counts, by metric name; they must repeat across reps.
    pub counts: BTreeMap<&'static str, u64>,
    /// Self times of the solve step, when traced.
    pub trace: Option<Breakdown>,
    /// The speed reference's time right after this rep (see `calib`).
    pub reference_s: f64,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Generates `preset` with its synth seed replaced by `program_seed`.
pub fn generate(preset: Benchmark, program_seed: u64) -> Program {
    let mut cfg = preset.config();
    cfg.seed = program_seed;
    synth::generate(&cfg)
}

/// Load orders in the pool every run cycles through. Odd, so no run's
/// reps split evenly between two orders of different work.
pub const LOAD_ORDERS: usize = 3;

/// Load order `k` of `base`: order 0 is the generated program as it is;
/// order `k > 0` has every fact list shuffled by a generator seeded with
/// `k`. An order changes the order facts are loaded in, and so node ids,
/// cache collisions and GC points, but not the relations the analyses
/// compute.
pub fn load_order(base: &Program, k: usize) -> Program {
    let mut p = base.clone();
    if k == 0 {
        return p;
    }
    let mut rng = XorShift64Star::new(k as u64);
    rng.shuffle(&mut p.extend);
    rng.shuffle(&mut p.declares);
    rng.shuffle(&mut p.alloc_type);
    rng.shuffle(&mut p.news);
    rng.shuffle(&mut p.assigns);
    rng.shuffle(&mut p.loads);
    rng.shuffle(&mut p.stores);
    rng.shuffle(&mut p.calls);
    rng.shuffle(&mut p.method_this);
    rng.shuffle(&mut p.method_params);
    rng.shuffle(&mut p.method_ret);
    rng.shuffle(&mut p.entry_points);
    rng.shuffle(&mut p.var_type);
    p
}

/// The order in which a run with seed `run_seed` visits the load orders:
/// a permutation of `0..LOAD_ORDERS`, repeated cycle after cycle. Every
/// run of at least `LOAD_ORDERS` reps measures every order, so runs with
/// different seeds measure the same inputs in a different sequence.
pub fn visit_order(run_seed: u64) -> [usize; LOAD_ORDERS] {
    let mut perm: [usize; LOAD_ORDERS] = std::array::from_fn(|k| k);
    XorShift64Star::new(run_seed).shuffle(&mut perm);
    perm
}

/// Kernel counters of one call: the delta of `KernelStats` around it.
fn kernel_counts(counts: &mut BTreeMap<&'static str, u64>, a: &KernelStats, b: &KernelStats) {
    counts.insert("bdd.nodes_created", b.nodes_created - a.nodes_created);
    counts.insert("bdd.cache_lookups", b.cache_lookups - a.cache_lookups);
    counts.insert("bdd.cache_hits", b.cache_hits - a.cache_hits);
    counts.insert("bdd.gc_runs", b.gc_runs - a.gc_runs);
    counts.insert("bdd.gc_reclaimed", b.gc_reclaimed - a.gc_reclaimed);
    counts.insert("bdd.par_ops", b.par_ops - a.par_ops);
    counts.insert("pager.faults", b.page_faults - a.page_faults);
    counts.insert("pager.writes", b.page_writes - a.page_writes);
    counts.insert("pager.evictions", b.page_evictions - a.page_evictions);
    counts.insert("pager.max_resident", b.page_max_resident);
}

/// Measures a solve step on universe `u`: kernel and relational-layer
/// counter deltas, live nodes at the end, and self times when `traced`.
fn solve_on<T>(
    u: &Universe,
    traced: bool,
    rep: &mut Rep,
    f: impl FnOnce(Option<&Sink>) -> Result<T, String>,
) -> Result<T, String> {
    let sink = traced.then(|| Sink::install(u));
    let mgr = u.bdd_manager();
    let (k0, u0) = (mgr.kernel_stats(), u.stats());
    let start = Instant::now();
    let out = f(sink.as_deref())?;
    let solve_s = start.elapsed().as_secs_f64();
    let (k1, u1) = (mgr.kernel_stats(), u.stats());
    u.set_profiler(None);
    rep.times.insert("solve_s", solve_s);
    kernel_counts(&mut rep.counts, &k0, &k1);
    rep.counts
        .insert("bdd.live_nodes_end", mgr.live_nodes() as u64);
    rep.counts
        .insert("core.relational_ops", u1.relational_ops - u0.relational_ops);
    rep.counts
        .insert("core.auto_replaces", u1.auto_replaces - u0.auto_replaces);
    if rep.counts["bdd.par_ops"] != 0 {
        return Err("the parallel engine ran: the benchmark measures threads=1".into());
    }
    rep.trace = sink.map(|s| s.finish(start, solve_s));
    Ok(out)
}

/// Runs `f` as a benchmark-side span: its time adds to `times[name]`, and
/// goes into the trace as an `op` span.
fn phase<T>(
    times: &mut BTreeMap<&'static str, f64>,
    sink: Option<&Sink>,
    op: &'static str,
    name: &'static str,
    f: impl FnOnce() -> Result<T, String>,
) -> Result<T, String> {
    let start = Instant::now();
    let out = f()?;
    let elapsed = start.elapsed();
    if let Some(s) = sink {
        s.span(op, elapsed.as_nanos() as u64);
    }
    *times.entry(name).or_insert(0.0) += elapsed.as_secs_f64();
    Ok(out)
}

fn load(p: &Program, rep: &mut Rep) -> Result<Facts, String> {
    let (facts, setup_s) = timed(|| Facts::load(p));
    let facts = facts.map_err(|e| e.to_string())?;
    rep.times.insert("setup_s", setup_s);
    rep.counts.insert(
        "facts.nodes_created",
        facts.u.bdd_manager().kernel_stats().nodes_created,
    );
    Ok(facts)
}

fn pointsto_tuples(f: &Facts, r: &PointsTo) -> Result<[Tuples; 3], String> {
    Ok([
        rel(&r.pt, &[f.var, f.obj])?,
        rel(&r.field_pt, &[f.baseobj, f.field, f.obj])?,
        rel(&r.cg, &[f.site, f.method])?,
    ])
}

impl Setup {
    /// Generates the program and precomputes the workload's oracle.
    /// `scratch` is a directory the caller owns; the `paged` workload
    /// writes its checkpoints below it.
    ///
    /// # Errors
    ///
    /// Failures of the oracle's own run.
    pub fn new(
        workload: Workload,
        preset: Benchmark,
        program_seed: u64,
        run_seed: u64,
        scratch: &Path,
    ) -> Result<Setup, String> {
        let program = generate(preset, program_seed);
        let p = &program;
        let mut sources = Vec::new();
        let oracle = match workload {
            Workload::Table2 => Oracle::Table2 {
                pt: pairs(&baseline_sets::points_to(p).pt),
            },
            Workload::System => {
                let pts = baseline_sets::points_to(p);
                let se = baseline_sets::side_effects(p, &pts);
                Oracle::System {
                    subtype: pairs(&baseline_sets::hierarchy(p)),
                    pt: pairs(&pts.pt),
                    side_effects: [
                        triples(&se.reads),
                        triples(&se.writes),
                        triples(&se.reads_star),
                        triples(&se.writes_star),
                    ],
                }
            }
            Workload::Jeddc => {
                sources = jedd_src::modules().into_iter().map(|(_, s)| s).collect();
                sources.push(jedd_src::combined());
                let w = driver::run(p).map_err(|e| e.to_string())?;
                let f = &w.facts;
                let se = &w.side_effects;
                let by_method = [f.method, f.baseobj, f.field];
                Oracle::Jeddc {
                    relations: vec![
                        (
                            "subtypeOf",
                            rel(&w.hierarchy.subtype_of, &[f.subtype, f.supertype])?,
                        ),
                        ("pt", rel(&w.points_to.pt, &[f.var, f.obj])?),
                        ("siteTarget", rel(&w.points_to.cg, &[f.site, f.method])?),
                        ("readsStar", rel(&se.reads_star, &by_method)?),
                        ("writesStar", rel(&se.writes_star, &by_method)?),
                    ],
                }
            }
            Workload::Paged => {
                let f = Facts::load(p).map_err(|e| e.to_string())?;
                let r =
                    pointsto::analyze(&f, CallGraphMode::OnTheFly).map_err(|e| e.to_string())?;
                Oracle::Paged {
                    resident: pointsto_tuples(&f, &r)?,
                }
            }
        };
        Ok(Setup {
            workload,
            orders: (0..LOAD_ORDERS).map(|k| load_order(&program, k)).collect(),
            visit: visit_order(run_seed),
            oracle,
            sources,
            scratch: scratch.to_path_buf(),
            frames: PAGED_FRAMES,
        })
    }

    /// The load order rep `rep` of the run uses.
    pub fn order_of(&self, rep: usize) -> usize {
        self.visit[rep % LOAD_ORDERS]
    }

    /// Runs the run's rep number `rep` (on load order [`Setup::order_of`])
    /// and checks it against the oracle. `traced` installs the trace sink
    /// around the solve step (and splits jeddc's compile into its phases).
    ///
    /// # Errors
    ///
    /// Any error of the measured calls, or a disagreement with the oracle.
    pub fn rep(&self, traced: bool, rep: usize) -> Result<Rep, String> {
        let p = &self.orders[self.order_of(rep)];
        match self.workload {
            Workload::Table2 => self.table2(p, traced),
            Workload::System => self.system(p, traced),
            Workload::Jeddc => self.jeddc(p, traced),
            Workload::Paged => self.paged(p, traced),
        }
    }

    fn table2(&self, p: &Program, traced: bool) -> Result<Rep, String> {
        let Oracle::Table2 { pt: want } = &self.oracle else {
            unreachable!("oracle matches workload")
        };
        let mut rep = Rep::default();
        let (raw, handcoded_s) = timed(|| baseline_bdd::analyze(p));
        rep.times.insert("handcoded_s", handcoded_s);
        let hand = sorted(
            raw.pt_pairs()
                .into_iter()
                .map(|(v, o)| vec![v, o])
                .collect(),
        );
        drop(raw);
        check("hand-coded pt", &hand, want)?;
        let facts = load(p, &mut rep)?;
        let r = solve_on(&facts.u, traced, &mut rep, |_| {
            pointsto::analyze_with(&facts, CallGraphMode::OnTheFly, Strategy::Naive)
                .map_err(|e| e.to_string())
        })?;
        check("relational pt", &rel(&r.pt, &[facts.var, facts.obj])?, want)?;
        Ok(rep)
    }

    fn system(&self, p: &Program, traced: bool) -> Result<Rep, String> {
        let Oracle::System {
            subtype,
            pt,
            side_effects,
        } = &self.oracle
        else {
            unreachable!("oracle matches workload")
        };
        let mut rep = Rep::default();
        let f = load(p, &mut rep)?;
        let mut times = BTreeMap::new();
        let (h, r, se) = solve_on(&f.u, traced, &mut rep, |sink| {
            let e = |e: jedd_core::JeddError| e.to_string();
            let t = &mut times;
            let h = phase(t, sink, "analysis", "analyses.hierarchy_s", || {
                hierarchy::compute(&f).map_err(e)
            })?;
            let r = phase(t, sink, "analysis", "analyses.pointsto_s", || {
                pointsto::analyze(&f, CallGraphMode::OnTheFly).map_err(e)
            })?;
            let cg = phase(t, sink, "analysis", "analyses.callgraph_s", || {
                callgraph::build(&f, &r.cg).map_err(e)
            })?;
            let se = phase(t, sink, "analysis", "analyses.sideeffect_s", || {
                sideeffect::compute(&f, &r.pt, &cg.edges).map_err(e)
            })?;
            Ok((h, r, se))
        })?;
        rep.times.extend(times);
        check(
            "subtypeOf",
            &rel(&h.subtype_of, &[f.subtype, f.supertype])?,
            subtype,
        )?;
        check("pt", &rel(&r.pt, &[f.var, f.obj])?, pt)?;
        let by_method = [f.method, f.baseobj, f.field];
        let got = [&se.reads, &se.writes, &se.reads_star, &se.writes_star];
        for (name, (g, want)) in ["reads", "writes", "reads*", "writes*"]
            .iter()
            .zip(got.iter().zip(side_effects))
        {
            check(name, &rel(g, &by_method)?, want)?;
        }
        Ok(rep)
    }

    /// Compiles `src`, splitting parse / check / assign into their own
    /// timings when traced (the untraced path is `jeddc::compile` itself).
    fn compile(&self, src: &str, traced: bool, rep: &mut Rep) -> Result<CompiledProgram, String> {
        let compiled = if traced {
            let e = |e: jeddc::CompileError| e.to_string();
            let ast = phase(&mut rep.times, None, "", "jeddc.parse_s", || {
                jeddc::parse::parse(src).map_err(e)
            })?;
            let typed = phase(&mut rep.times, None, "", "jeddc.check_s", || {
                jeddc::check::check(&ast).map_err(e)
            })?;
            let assignment = phase(&mut rep.times, None, "", "jeddc.assign_s", || {
                jeddc::assignc::assign(&typed, false).map_err(|e| e.to_string())
            })?;
            CompiledProgram { typed, assignment }
        } else {
            jeddc::compile(src).map_err(|e| e.to_string())?
        };
        let stats = &compiled.assignment.stats;
        *rep.times.entry("sat.solve_s").or_insert(0.0) += stats.solve_seconds;
        *rep.counts.entry("sat.vars").or_insert(0) += stats.sat_vars as u64;
        *rep.counts.entry("sat.clauses").or_insert(0) += stats.sat_clauses as u64;
        Ok(compiled)
    }

    fn jeddc(&self, p: &Program, traced: bool) -> Result<Rep, String> {
        let Oracle::Jeddc { relations } = &self.oracle else {
            unreachable!("oracle matches workload")
        };
        // Built outside timing, so `setup_s` times the executor alone.
        let inputs = jedd_inputs_of(p);
        let mut rep = Rep::default();
        let start = Instant::now();
        let mut combined = None;
        for src in &self.sources {
            combined = Some(self.compile(src, traced, &mut rep)?);
        }
        rep.times.insert("compile_s", start.elapsed().as_secs_f64());
        let combined = combined.expect("the combined program is compiled last");

        let x = |e: jeddc::ExecError| e.to_string();
        let (exec, setup_s) = timed(|| -> Result<Executor, String> {
            let mut exec = Executor::new(&combined).map_err(x)?;
            let max_idx = p.method_params.iter().map(|&(_, i, _)| i + 1).max();
            for (domain, size) in [
                ("Type", p.types),
                ("Signature", p.sigs),
                ("Method", p.methods),
                ("Field", p.fields),
                ("Var", p.vars),
                ("Obj", p.allocs),
                ("Site", p.call_sites),
                ("ParamIdx", max_idx.unwrap_or(1) as usize),
            ] {
                exec.bind_domain_size(domain, size.max(1) as u64)
                    .map_err(x)?;
            }
            for (name, tuples) in &inputs {
                exec.set_input(name, tuples).map_err(x)?;
            }
            Ok(exec)
        });
        let mut exec = exec?;
        rep.times.insert("setup_s", setup_s);
        rep.counts.insert(
            "facts.nodes_created",
            exec.universe().bdd_manager().kernel_stats().nodes_created,
        );

        let u = exec.universe().clone();
        let mut times = BTreeMap::new();
        let rules_run = solve_on(&u, traced, &mut rep, |sink| {
            let t = &mut times;
            let mut run = |exec: &mut Executor, rule: &str| {
                phase(t, sink, "exec-rule", "exec.rule_s", || {
                    exec.run(rule).map_err(x)
                })
            };
            let mut rules = 0u64;
            for rule in ["hierarchy", "ptInit"] {
                run(&mut exec, rule)?;
                rules += 1;
            }
            let sizes = |exec: &Executor| -> Result<[u64; 3], String> {
                let size = |n| exec.relation(n).map(Relation::size).map_err(x);
                Ok([size("pt")?, size("edges")?, size("siteTarget")?])
            };
            for round in 1.. {
                let before = sizes(&exec)?;
                for rule in ["ptStep", "mkSiteTypes", "vcr", "cgBuild", "cgParamEdges"] {
                    run(&mut exec, rule)?;
                    rules += 1;
                }
                if sizes(&exec)? == before {
                    break;
                }
                if round > 1000 {
                    return Err("whole-program fixpoint failed to converge".into());
                }
            }
            run(&mut exec, "sideEffects")?;
            Ok(rules + 1)
        })?;
        rep.times.extend(times);
        rep.counts.insert("exec.rules_run", rules_run);
        for (name, want) in relations {
            let got = sorted(exec.tuples(name).map_err(x)?);
            check(name, &got, want)?;
        }
        Ok(rep)
    }

    fn paged(&self, p: &Program, traced: bool) -> Result<Rep, String> {
        let Oracle::Paged { resident } = &self.oracle else {
            unreachable!("oracle matches workload")
        };
        let mut rep = Rep::default();
        let (facts, setup_s) = timed(|| Facts::load_paged(p, self.frames));
        let f = facts.map_err(|e| e.to_string())?;
        rep.times.insert("setup_s", setup_s);
        rep.counts.insert(
            "facts.nodes_created",
            f.u.bdd_manager().kernel_stats().nodes_created,
        );
        let dir = self.scratch.join("checkpoints");
        let _ = std::fs::remove_dir_all(&dir);
        let policy = jedd_store::CheckpointPolicy::every(1);
        let mut cp = jedd_store::Checkpointer::create(&dir, policy).map_err(|e| e.to_string())?;
        let w0 = crate::probe::bytes_written().unwrap_or(0);
        let r = solve_on(&f.u, traced, &mut rep, |_| {
            persist::pointsto_checkpointed(&f, CallGraphMode::OnTheFly, &mut cp)
                .map_err(|e| e.to_string())
        })?;
        // The store's bytes: everything the solve wrote, less the pager's
        // fixed-size block writes.
        let written = crate::probe::bytes_written().unwrap_or(0) - w0;
        let page_bytes = rep.counts["pager.writes"] * jedd_bdd::pager::BLOCK_BYTES as u64;
        rep.counts
            .insert("store.bytes_written", written.saturating_sub(page_bytes));
        let records =
            jedd_store::read_records(&dir.join(jedd_store::LOG_FILE)).map_err(|e| e.to_string())?;
        rep.counts.insert("store.checkpoints", records.len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
        let got = pointsto_tuples(&f, &r)?;
        for (name, (g, want)) in ["pt", "field_pt", "cg"]
            .iter()
            .zip(got.iter().zip(resident))
        {
            check(name, g, want)?;
        }
        if rep.counts["pager.faults"] == 0 {
            return Err("the paged solve took no page faults".into());
        }
        Ok(rep)
    }
}

/// The executor inputs of `driver::run_jedd`, in its order.
fn jedd_inputs_of(p: &Program) -> Vec<(&'static str, Tuples)> {
    let t2 =
        |v: &[(u32, u32)]| -> Tuples { v.iter().map(|&(a, b)| vec![a.into(), b.into()]).collect() };
    let mut args = Vec::new();
    for c in &p.calls {
        for (i, &a) in c.args.iter().enumerate() {
            args.push(vec![c.site.into(), i as u64, a.into()]);
        }
    }
    let listed: BTreeSet<u32> = p.var_type.iter().map(|&(v, _)| v).collect();
    let mut var_type = t2(&p.var_type);
    var_type.extend(
        (0..p.vars as u32)
            .filter(|v| !listed.contains(v))
            .map(|v| vec![v.into(), 0]),
    );
    let calls = |f: fn(&jedd_analyses::ir::Call) -> Option<Vec<u64>>| -> Tuples {
        p.calls.iter().filter_map(f).collect()
    };
    vec![
        ("extend", t2(&p.extend)),
        (
            "declaresMethod",
            p.declares
                .iter()
                .map(|&(t, s, m)| vec![t.into(), s.into(), m.into()])
                .collect(),
        ),
        ("objType", t2(&p.alloc_type)),
        (
            "news",
            p.news
                .iter()
                .map(|&(_, v, a)| vec![v.into(), a.into()])
                .collect(),
        ),
        (
            "assigns",
            p.assigns
                .iter()
                .map(|&(_, d, s)| vec![d.into(), s.into()])
                .collect(),
        ),
        (
            "loads",
            p.loads
                .iter()
                .map(|&(_, d, b, f)| vec![d.into(), b.into(), f.into()])
                .collect(),
        ),
        (
            "stores",
            p.stores
                .iter()
                .map(|&(_, b, f, s)| vec![b.into(), f.into(), s.into()])
                .collect(),
        ),
        (
            "siteCaller",
            calls(|c| Some(vec![c.site.into(), c.caller.into()])),
        ),
        (
            "siteRecv",
            calls(|c| Some(vec![c.site.into(), c.recv.into()])),
        ),
        (
            "siteSig",
            calls(|c| Some(vec![c.site.into(), c.sig.into()])),
        ),
        ("siteArg", args),
        (
            "siteRet",
            calls(|c| c.ret.map(|r| vec![c.site.into(), r.into()])),
        ),
        ("methodThis", t2(&p.method_this)),
        (
            "methodParam",
            p.method_params
                .iter()
                .map(|&(m, i, v)| vec![m.into(), i.into(), v.into()])
                .collect(),
        ),
        ("methodRet", t2(&p.method_ret)),
        (
            "entry",
            p.entry_points.iter().map(|&m| vec![m.into()]).collect(),
        ),
        (
            "loadIn",
            p.loads
                .iter()
                .map(|&(m, _, b, f)| vec![m.into(), b.into(), f.into()])
                .collect(),
        ),
        (
            "storeIn",
            p.stores
                .iter()
                .map(|&(m, b, f, _)| vec![m.into(), b.into(), f.into()])
                .collect(),
        ),
        (
            "typeIdentity",
            (0..p.types as u64).map(|t| vec![t, t]).collect(),
        ),
        ("varType", var_type),
    ]
}
