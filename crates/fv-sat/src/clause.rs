//! Clause storage for the CDCL solver.
//!
//! Every clause's literals live in one flat arena ([`ClauseDb`],
//! crate-internal), so adding a clause copies its literals onto the end
//! of one `Vec` instead of allocating one of its own. A stable
//! [`ClauseRef`] indexes a small header holding the clause's span in
//! the arena; learned clauses also carry an activity score used by
//! database reduction.

use crate::Lit;

/// Stable handle to a clause in the solver's clause arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClauseRef(pub(crate) u32);

impl ClauseRef {
    pub(crate) const UNDEF: ClauseRef = ClauseRef(u32::MAX);

    /// Whether this reference points at an actual clause.
    #[inline]
    pub(crate) fn is_defined(self) -> bool {
        self != ClauseRef::UNDEF
    }
}

/// Where one clause's literals sit in the arena, plus its bookkeeping.
#[derive(Debug, Clone, Copy)]
struct Header {
    start: u32,
    len: u32,
    /// Activity for learned-clause reduction; original clauses keep 0.
    activity: f64,
    learnt: bool,
    deleted: bool,
}

/// Arena of clauses addressed by [`ClauseRef`].
///
/// A freed clause's header slot is reused last-freed-first; its
/// literals stay in the arena as garbage until
/// [`ClauseDb::collect_garbage`] compacts it. Compaction moves
/// literals only: every live clause keeps its `ClauseRef` and its
/// literal order.
#[derive(Debug, Default)]
pub(crate) struct ClauseDb {
    /// The literals of every clause, back to back.
    lits: Vec<Lit>,
    /// One header per `ClauseRef`.
    headers: Vec<Header>,
    /// Indices of deleted headers available for reuse.
    free: Vec<u32>,
    /// Live learned clauses, kept by `alloc`/`free` so the search loop
    /// need not walk the headers to count them.
    learnt: usize,
    /// Arena literals that belong to deleted clauses.
    garbage: usize,
}

impl ClauseDb {
    pub fn new() -> ClauseDb {
        ClauseDb::default()
    }

    /// Copies `lits` onto the end of the arena as a new clause.
    pub fn alloc(&mut self, lits: &[Lit], learnt: bool) -> ClauseRef {
        self.learnt += usize::from(learnt);
        let header = Header {
            start: u32::try_from(self.lits.len()).expect("clause arena within u32 offsets"),
            len: lits.len() as u32,
            activity: 0.0,
            learnt,
            deleted: false,
        };
        self.lits.extend_from_slice(lits);
        if let Some(slot) = self.free.pop() {
            self.headers[slot as usize] = header;
            ClauseRef(slot)
        } else {
            self.headers.push(header);
            ClauseRef((self.headers.len() - 1) as u32)
        }
    }

    /// Deletes a clause. Its literals become garbage for the next
    /// [`ClauseDb::collect_garbage`].
    pub fn free(&mut self, cref: ClauseRef) {
        let h = &mut self.headers[cref.0 as usize];
        debug_assert!(!h.deleted);
        h.deleted = true;
        self.garbage += h.len as usize;
        h.len = 0;
        self.learnt -= usize::from(h.learnt);
        self.free.push(cref.0);
    }

    /// Compacts the arena when deleted clauses hold more than half of
    /// it.
    pub fn collect_garbage(&mut self) {
        if 2 * self.garbage > self.lits.len() {
            self.compact();
        }
    }

    /// Slides every live clause down over the garbage, in arena order.
    fn compact(&mut self) {
        let mut live: Vec<u32> = (0..self.headers.len() as u32)
            .filter(|&i| !self.headers[i as usize].deleted)
            .collect();
        live.sort_unstable_by_key(|&i| self.headers[i as usize].start);
        let mut top = 0;
        for i in live {
            let h = &mut self.headers[i as usize];
            let (start, len) = (h.start as usize, h.len as usize);
            self.lits.copy_within(start..start + len, top);
            h.start = top as u32;
            top += len;
        }
        self.lits.truncate(top);
        self.garbage = 0;
    }

    /// The literals of a clause. The first two are the watched ones.
    #[inline]
    pub fn lits(&self, cref: ClauseRef) -> &[Lit] {
        let h = &self.headers[cref.0 as usize];
        let start = h.start as usize;
        &self.lits[start..start + h.len as usize]
    }

    #[inline]
    pub fn lits_mut(&mut self, cref: ClauseRef) -> &mut [Lit] {
        let h = &self.headers[cref.0 as usize];
        let start = h.start as usize;
        &mut self.lits[start..start + h.len as usize]
    }

    /// Number of literals (0 once deleted).
    #[inline]
    pub fn len(&self, cref: ClauseRef) -> usize {
        self.headers[cref.0 as usize].len as usize
    }

    #[inline]
    pub fn is_learnt(&self, cref: ClauseRef) -> bool {
        self.headers[cref.0 as usize].learnt
    }

    #[inline]
    pub fn activity(&self, cref: ClauseRef) -> f64 {
        self.headers[cref.0 as usize].activity
    }

    /// Adds `inc` to a clause's activity and returns the new value.
    #[inline]
    pub fn bump_activity(&mut self, cref: ClauseRef, inc: f64) -> f64 {
        let h = &mut self.headers[cref.0 as usize];
        h.activity += inc;
        h.activity
    }

    /// Multiplies every live learned clause's activity by `factor`.
    pub fn scale_activities(&mut self, factor: f64) {
        for h in self.headers.iter_mut().filter(|h| h.learnt && !h.deleted) {
            h.activity *= factor;
        }
    }

    /// Iterates over the refs of all live learned clauses.
    pub fn learnt_refs(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        self.headers
            .iter()
            .enumerate()
            .filter(|(_, h)| h.learnt && !h.deleted)
            .map(|(i, _)| ClauseRef(i as u32))
    }

    /// Number of live learned clauses: `learnt_refs().count()`, in O(1).
    pub fn learnt_count(&self) -> usize {
        self.learnt
    }

    pub fn live_count(&self) -> usize {
        self.headers.len() - self.free.len()
    }

    /// Literals in the arena, garbage included.
    #[cfg(test)]
    pub fn arena_len(&self) -> usize {
        self.lits.len()
    }

    /// Arena literals of deleted clauses; only a compaction lowers it.
    #[cfg(test)]
    pub fn garbage(&self) -> usize {
        self.garbage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Var;

    fn lit(v: u32) -> Lit {
        Lit::pos(Var(v))
    }

    #[test]
    fn alloc_and_reuse() {
        let mut db = ClauseDb::new();
        let a = lit(0);
        let r0 = db.alloc(&[a], false);
        let r1 = db.alloc(&[a, !a], true);
        assert_eq!(db.live_count(), 2);
        assert_eq!(db.len(r1), 2);
        db.free(r0);
        assert_eq!(db.live_count(), 1);
        let r2 = db.alloc(&[!a], true);
        assert_eq!(r2, r0, "freed slot is reused");
        assert!(db.is_learnt(r2));
        assert_eq!(db.lits(r2), [!a]);
    }

    #[test]
    fn freed_slots_are_reused_last_freed_first() {
        let mut db = ClauseDb::new();
        let refs: Vec<ClauseRef> = (0..5).map(|v| db.alloc(&[lit(v)], false)).collect();
        for &i in &[1, 3, 0] {
            db.free(refs[i]);
        }
        let again: Vec<ClauseRef> = (10..14).map(|v| db.alloc(&[lit(v)], true)).collect();
        assert_eq!(again, [refs[0], refs[3], refs[1], ClauseRef(5)]);
        for (v, &r) in (10..).zip(&again) {
            assert_eq!(db.lits(r), [lit(v)]);
        }
    }

    #[test]
    fn learnt_refs_skips_deleted_and_original() {
        let mut db = ClauseDb::new();
        let a = lit(0);
        let _orig = db.alloc(&[a], false);
        let l1 = db.alloc(&[!a], true);
        let l2 = db.alloc(&[a, !a], true);
        db.free(l1);
        let live: Vec<_> = db.learnt_refs().collect();
        assert_eq!(live, vec![l2]);
    }

    #[test]
    fn learnt_count_tracks_alloc_free_and_reuse() {
        let mut db = ClauseDb::new();
        let a = lit(0);
        let check = |db: &ClauseDb| assert_eq!(db.learnt_count(), db.learnt_refs().count());
        let orig = db.alloc(&[a], false);
        let l1 = db.alloc(&[!a], true);
        let l2 = db.alloc(&[a, !a], true);
        check(&db);
        db.free(l1);
        check(&db);
        // A learned clause reuses the slot an original clause freed, and
        // an original clause the slot a learned one freed.
        db.free(orig);
        let l3 = db.alloc(&[!a], true);
        assert_eq!(l3, orig, "freed slot is reused");
        check(&db);
        db.free(l2);
        let o2 = db.alloc(&[a], false);
        assert_eq!(o2, l2, "freed slot is reused");
        check(&db);
        assert_eq!(db.learnt_count(), 1);
    }

    #[test]
    fn compaction_keeps_every_live_clause_and_its_ref() {
        let mut db = ClauseDb::new();
        // Clauses of varied length; a reused slot puts a late clause
        // in an early header, so arena and header order differ.
        let clauses: Vec<Vec<Lit>> = (0..12u32)
            .map(|i| {
                (0..2 + i % 4)
                    .map(|k| Lit::new(Var(i + k), k % 2 == 1))
                    .collect()
            })
            .collect();
        let mut live: Vec<(ClauseRef, Vec<Lit>)> = clauses
            .iter()
            .map(|c| (db.alloc(c, c.len() > 3), c.clone()))
            .collect();
        db.bump_activity(live[5].0, 2.5);
        for i in [0, 2, 3, 7, 8, 9, 11] {
            db.free(live[i].0);
        }
        let reused = vec![lit(40), lit(41), lit(42)];
        let r = db.alloc(&reused, true);
        assert_eq!(r, live[11].0, "last freed, first reused");
        live = [1, 4, 5, 6, 10]
            .into_iter()
            .map(|i| live[i].clone())
            .chain([(r, reused)])
            .collect();
        let before = db.arena_len();
        db.collect_garbage();
        let after = db.arena_len();
        assert!(
            after < before,
            "garbage passed half the arena: {before} -> {after}"
        );
        assert_eq!(after, live.iter().map(|(_, c)| c.len()).sum::<usize>());
        for (cref, lits) in &live {
            assert_eq!(db.lits(*cref), &lits[..], "{cref:?}");
        }
        assert_eq!(db.activity(live[2].0), 2.5);
        assert_eq!(db.learnt_count(), db.learnt_refs().count());
        // Below half, nothing moves.
        db.free(live[0].0);
        db.collect_garbage();
        assert_eq!(db.arena_len(), after);
    }
}
