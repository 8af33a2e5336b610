//! Enumeration of satisfying assignments restricted to a variable list.

use crate::arena::NodeStore;
use crate::table::Inner;

impl<S: NodeStore> Inner<S> {
    /// Calls `cb` once per satisfying assignment of `f` over exactly the
    /// variables in `vars` (sorted ascending). Variables of `vars` not in
    /// the support of `f` are expanded to both values, so the callback sees
    /// every concrete assignment. Returning `false` from the callback stops
    /// the enumeration.
    ///
    /// # Panics
    ///
    /// Panics if the support of `f` is not a subset of `vars` (callers must
    /// project other variables away first), or `vars` is not sorted.
    pub(crate) fn foreach_sat(&self, f: u32, vars: &[u32], cb: &mut dyn FnMut(&[bool]) -> bool) {
        debug_assert!(vars.windows(2).all(|w| w[0] < w[1]), "vars must be sorted");
        let support = self.support(f);
        for v in &support {
            assert!(
                vars.binary_search(v).is_ok(),
                "foreach_sat: support variable {v} not in the enumeration set"
            );
        }
        // The recursion walks levels in ascending order; the caller's
        // positions are by variable. Sort the levels, remembering where
        // each writes its bit.
        let mut by_level: Vec<(u32, usize)> = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (self.level_of_var(v), i))
            .collect();
        by_level.sort_unstable_by_key(|&(l, _)| l);
        let levels: Vec<u32> = by_level.iter().map(|&(l, _)| l).collect();
        let positions: Vec<usize> = by_level.iter().map(|&(_, i)| i).collect();
        let mut level_buf = vec![false; vars.len()];
        let mut var_buf = vec![false; vars.len()];
        let mut shim = |a: &[bool]| -> bool {
            for (k, &pos) in positions.iter().enumerate() {
                var_buf[pos] = a[k];
            }
            cb(&var_buf)
        };
        let top = self.level(f);
        self.sat_rec(f, top, &levels, 0, &mut level_buf, &mut shim);
    }

    /// Returns `true` to continue enumeration. `top` is the effective top
    /// level of `f`: equal to `level(f)` on entry and advanced past already
    /// consumed chain levels while walking the interval of a chain node
    /// (plain nodes never advance it — `bot == level`).
    fn sat_rec(
        &self,
        f: u32,
        top: u32,
        vars: &[u32],
        idx: usize,
        buf: &mut [bool],
        cb: &mut dyn FnMut(&[bool]) -> bool,
    ) -> bool {
        if f == 0 {
            return true;
        }
        if idx == vars.len() {
            debug_assert_eq!(f, 1, "support must be within vars");
            return cb(buf);
        }
        let v = vars[idx];
        if f > 1 && top == v {
            if v < self.bot(f) {
                // Inside a CBDD chain interval the level is forced false;
                // the support includes every chain level, so the next
                // enumerated level is exactly `top + 1`.
                buf[idx] = false;
                return self.sat_rec(f, top + 1, vars, idx + 1, buf, cb);
            }
            let (lo, hi) = (self.low(f), self.high(f));
            buf[idx] = false;
            let lo_top = self.level(lo);
            if !self.sat_rec(lo, lo_top, vars, idx + 1, buf, cb) {
                return false;
            }
            buf[idx] = true;
            let hi_top = self.level(hi);
            self.sat_rec(hi, hi_top, vars, idx + 1, buf, cb)
        } else {
            debug_assert!(f <= 1 || top > v);
            buf[idx] = false;
            if !self.sat_rec(f, top, vars, idx + 1, buf, cb) {
                return false;
            }
            buf[idx] = true;
            self.sat_rec(f, top, vars, idx + 1, buf, cb)
        }
    }
}
