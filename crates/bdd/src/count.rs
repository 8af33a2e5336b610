//! Model counting over a fixed variable universe.

use crate::arena::NodeStore;
use crate::table::Inner;
use std::collections::HashMap;

impl<S: NodeStore> Inner<S> {
    /// Number of satisfying assignments of `f` over all `num_vars`
    /// variables, as `f64`. Exact for counts below 2^53.
    pub(crate) fn satcount(&self, f: u32) -> f64 {
        if f == 0 {
            return 0.0;
        }
        let n = self.num_vars() as i64;
        if f == 1 {
            return (2f64).powi(n as i32);
        }
        let mut memo: HashMap<u32, f64> = HashMap::new();
        let below = self.satcount_rec(f, &mut memo);
        below * (2f64).powi(self.level(f) as i32)
    }

    /// Counts assignments of the variables strictly below `f`'s level
    /// (inclusive of `f`'s own level).
    fn satcount_rec(&self, f: u32, memo: &mut HashMap<u32, f64>) -> f64 {
        if f == 0 {
            return 0.0;
        }
        if f == 1 {
            return 1.0;
        }
        if let Some(&c) = memo.get(&f) {
            return c;
        }
        // Gaps below the node are measured from the chain bottom: levels
        // inside a chain interval are forced to 0 and contribute factor 1
        // (plain nodes have `bot == level`, the degenerate case).
        let bot = self.bot(f) as i64;
        let (lo, hi) = (self.low(f), self.high(f));
        let level_of = |id: u32| -> i64 {
            if id <= 1 {
                self.num_vars() as i64
            } else {
                self.level(id) as i64
            }
        };
        let cl = self.satcount_rec(lo, memo) * (2f64).powi((level_of(lo) - bot - 1) as i32);
        let ch = self.satcount_rec(hi, memo) * (2f64).powi((level_of(hi) - bot - 1) as i32);
        let c = cl + ch;
        memo.insert(f, c);
        c
    }

    /// Like [`Inner::satcount`] but counting only over the `vars` given
    /// (which must be a superset of the support of `f`); other variables
    /// are treated as absent rather than doubling the count.
    pub(crate) fn satcount_over(&self, f: u32, vars: &[u32]) -> f64 {
        let total = self.satcount(f);
        let unused = self.num_vars() as i32 - vars.len() as i32;
        debug_assert!(unused >= 0);
        total / (2f64).powi(unused)
    }
}
