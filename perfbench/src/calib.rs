//! The speed reference: a small BDD package of the benchmark's own,
//! timed after every rep so that the rep's times can be scaled to a fixed
//! machine speed.
//!
//! On shared hosts the same rep drifts by up to 2x over minutes, and the
//! drift follows memory-system contention rather than the clock: a
//! dependent multiply chain barely moves while BDD code slows down. A
//! reference with the same shape of work — hash-consed nodes, a lossy
//! computed cache, recursion over both — slows down with it. It shares no
//! code with the measured crates, so a change to them does not move it.
//! Work that waits on the kernel's page cache rather than on memory (the
//! `paged` solve) does not drift with it, and there the scaling adds noise.
//!
//! The reference runs in a child process (`perfbench --calibrate`), so its
//! memory never counts in the run's peak RSS.

use std::time::Instant;

/// The reference's time at the speed all scaled times are quoted at.
pub const REFERENCE_S: f64 = 0.2;

/// Board size of the reference: 9-queens has 352 solutions and takes
/// about 0.2 s, with about 230k nodes.
const QUEENS: u32 = 9;
const SOLUTIONS: f64 = 352.0;

const FALSE: u32 = 0;
const TRUE: u32 = 1;
const EMPTY: u32 = u32::MAX;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Op {
    And,
    Or,
    Xor,
}

/// A reduced ordered BDD over `vars` variables: nodes `(var, lo, hi)` in a
/// vector, an open-addressing unique table and a direct-mapped computed
/// cache. Terminals are nodes 0 and 1, at level `vars`.
struct Mini {
    nodes: Vec<[u32; 3]>,
    table: Vec<u32>,
    cache: Vec<(Op, u32, u32, u32)>,
}

fn hash(a: u32, b: u32, c: u32) -> usize {
    let h = u64::from(a).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ u64::from(b).wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
        ^ u64::from(c).wrapping_mul(0x1656_67b1_9e37_79f9);
    (h ^ (h >> 29)) as usize
}

impl Mini {
    fn new(vars: u32) -> Mini {
        Mini {
            nodes: vec![[vars, FALSE, FALSE], [vars, TRUE, TRUE]],
            table: vec![EMPTY; 1 << 12],
            cache: vec![(Op::And, EMPTY, EMPTY, EMPTY); 1 << 12],
        }
    }

    fn level(&self, f: u32) -> u32 {
        self.nodes[f as usize][0]
    }

    fn mk(&mut self, var: u32, lo: u32, hi: u32) -> u32 {
        if lo == hi {
            return lo;
        }
        let mask = self.table.len() - 1;
        let mut i = hash(var, lo, hi) & mask;
        while self.table[i] != EMPTY {
            let id = self.table[i];
            if self.nodes[id as usize] == [var, lo, hi] {
                return id;
            }
            i = (i + 1) & mask;
        }
        let id = u32::try_from(self.nodes.len()).expect("fewer than 2^32 nodes");
        self.nodes.push([var, lo, hi]);
        self.table[i] = id;
        if self.nodes.len() * 2 > self.table.len() {
            self.grow();
        }
        id
    }

    /// Doubles the unique table (and the cache with it) and rehashes.
    fn grow(&mut self) {
        let len = self.table.len() * 2;
        self.table = vec![EMPTY; len];
        for (id, &[var, lo, hi]) in self.nodes.iter().enumerate().skip(2) {
            let mut i = hash(var, lo, hi) & (len - 1);
            while self.table[i] != EMPTY {
                i = (i + 1) & (len - 1);
            }
            self.table[i] = id as u32;
        }
        self.cache = vec![(Op::And, EMPTY, EMPTY, EMPTY); len];
    }

    fn var(&mut self, v: u32) -> u32 {
        self.mk(v, FALSE, TRUE)
    }

    fn not(&mut self, f: u32) -> u32 {
        self.apply(Op::Xor, f, TRUE)
    }

    fn apply(&mut self, op: Op, f: u32, g: u32) -> u32 {
        let terminal = match op {
            Op::And if f == FALSE || g == FALSE => Some(FALSE),
            Op::And if f == TRUE || f == g => Some(g),
            Op::And if g == TRUE => Some(f),
            Op::Or if f == TRUE || g == TRUE => Some(TRUE),
            Op::Or if f == FALSE || f == g => Some(g),
            Op::Or if g == FALSE => Some(f),
            Op::Xor if f == g => Some(FALSE),
            Op::Xor if f == FALSE => Some(g),
            Op::Xor if g == FALSE => Some(f),
            _ => None,
        };
        if let Some(r) = terminal {
            return r;
        }
        let (f, g) = (f.min(g), f.max(g));
        let slot = hash(op as u32, f, g) & (self.cache.len() - 1);
        let (c_op, c_f, c_g, c_r) = self.cache[slot];
        if c_op == op && c_f == f && c_g == g {
            return c_r;
        }
        let var = self.level(f).min(self.level(g));
        let cofactors = |m: &Mini, x: u32| {
            let [v, lo, hi] = m.nodes[x as usize];
            if v == var {
                (lo, hi)
            } else {
                (x, x)
            }
        };
        let (f0, f1) = cofactors(self, f);
        let (g0, g1) = cofactors(self, g);
        let lo = self.apply(op, f0, g0);
        let hi = self.apply(op, f1, g1);
        let r = self.mk(var, lo, hi);
        // The cache may have been replaced by a growth meanwhile.
        let slot = hash(op as u32, f, g) & (self.cache.len() - 1);
        self.cache[slot] = (op, f, g, r);
        r
    }

    /// Satisfying assignments of `f` over all variables.
    fn count(&self, f: u32) -> f64 {
        fn below(m: &Mini, f: u32, memo: &mut std::collections::HashMap<u32, f64>) -> f64 {
            if f <= TRUE {
                return f64::from(f);
            }
            if let Some(&c) = memo.get(&f) {
                return c;
            }
            let [v, lo, hi] = m.nodes[f as usize];
            let side =
                |x: u32, memo: &mut _| below(m, x, memo) * 2f64.powi((m.level(x) - v - 1) as i32);
            let c = side(lo, memo) + side(hi, memo);
            memo.insert(f, c);
            c
        }
        below(self, f, &mut Default::default()) * 2f64.powi(self.level(f) as i32)
    }
}

/// Builds the `n`-queens constraint (a queen in every row, none attacking
/// another) and returns its number of solutions.
fn queens(n: u32) -> f64 {
    let mut m = Mini::new(n * n);
    let cell = |i: u32, j: u32| i * n + j;
    let mut all = TRUE;
    for i in 0..n {
        let mut row = FALSE;
        for j in 0..n {
            let x = m.var(cell(i, j));
            row = m.apply(Op::Or, row, x);
        }
        all = m.apply(Op::And, all, row);
    }
    for i in 0..n {
        for j in 0..n {
            let mut safe = TRUE;
            for k in 0..n {
                for l in 0..n {
                    let attacks =
                        (k, l) != (i, j) && (k == i || l == j || k + j == i + l || k + l == i + j);
                    if attacks {
                        let x = m.var(cell(k, l));
                        let free = m.not(x);
                        safe = m.apply(Op::And, safe, free);
                    }
                }
            }
            let x = m.var(cell(i, j));
            let absent = m.not(x);
            let placed_safely = m.apply(Op::Or, absent, safe);
            all = m.apply(Op::And, all, placed_safely);
        }
    }
    m.count(all)
}

/// Runs the reference once in this process and returns its time.
///
/// # Errors
///
/// A wrong solution count.
pub fn reference_in_process() -> Result<f64, String> {
    let start = Instant::now();
    let solutions = queens(QUEENS);
    let secs = start.elapsed().as_secs_f64();
    if solutions == SOLUTIONS {
        Ok(secs)
    } else {
        Err(format!(
            "{QUEENS}-queens reference found {solutions} solutions, not {SOLUTIONS}"
        ))
    }
}

/// Runs the reference in a child process (`<this binary> --calibrate`),
/// waits for it, and returns the time it reports.
///
/// # Errors
///
/// The child could not run, failed, or printed no time.
pub fn reference() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("calibration: {e}"))?;
    let out = std::process::Command::new(exe)
        .arg("--calibrate")
        .output()
        .map_err(|e| format!("calibration: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(secs) if out.status.success() && secs > 0.0 => Ok(secs),
        _ => Err(format!(
            "calibration failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queens_counts_known_solutions() {
        assert_eq!(queens(1), 1.0);
        assert_eq!(queens(4), 2.0);
        assert_eq!(queens(6), 4.0);
        assert_eq!(queens(8), 92.0);
    }
}
