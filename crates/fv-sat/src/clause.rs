//! Clause storage for the CDCL solver.
//!
//! Clauses live in a single arena ([`ClauseDb`], crate-internal) and are
//! referenced by stable [`ClauseRef`] handles. Learned clauses carry an
//! activity score used by database reduction.

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

/// A disjunction of literals.
#[derive(Debug, Clone, PartialEq)]
pub struct Clause {
    lits: Vec<Lit>,
    /// Activity for learned-clause reduction; original clauses keep 0.
    pub(crate) activity: f64,
    pub(crate) learnt: bool,
    pub(crate) deleted: bool,
}

impl Clause {
    pub(crate) fn new(lits: Vec<Lit>, learnt: bool) -> Clause {
        Clause {
            lits,
            activity: 0.0,
            learnt,
            deleted: false,
        }
    }

    /// The literals of the clause. The first two are the watched ones.
    #[inline]
    pub fn lits(&self) -> &[Lit] {
        &self.lits
    }

    #[inline]
    pub(crate) fn lits_mut(&mut self) -> &mut Vec<Lit> {
        &mut self.lits
    }

    /// Number of literals.
    #[inline]
    pub fn len(&self) -> usize {
        self.lits.len()
    }

    /// `true` if the clause has no literals (the empty, unsatisfiable clause).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lits.is_empty()
    }

    /// `true` if this clause was learned during conflict analysis.
    #[inline]
    pub fn is_learnt(&self) -> bool {
        self.learnt
    }
}

/// Arena of clauses addressed by [`ClauseRef`].
#[derive(Debug, Default)]
pub(crate) struct ClauseDb {
    clauses: Vec<Clause>,
    /// Indices of deleted slots available for reuse.
    free: Vec<u32>,
    /// Live learned clauses, kept by `alloc`/`free` so the search loop
    /// need not walk the arena to count them.
    learnt: usize,
}

impl ClauseDb {
    pub fn new() -> ClauseDb {
        ClauseDb::default()
    }

    pub fn alloc(&mut self, lits: Vec<Lit>, learnt: bool) -> ClauseRef {
        self.learnt += usize::from(learnt);
        let clause = Clause::new(lits, learnt);
        if let Some(slot) = self.free.pop() {
            self.clauses[slot as usize] = clause;
            ClauseRef(slot)
        } else {
            self.clauses.push(clause);
            ClauseRef((self.clauses.len() - 1) as u32)
        }
    }

    pub fn free(&mut self, cref: ClauseRef) {
        let c = &mut self.clauses[cref.0 as usize];
        debug_assert!(!c.deleted);
        c.deleted = true;
        c.lits_mut().clear();
        self.learnt -= usize::from(c.learnt);
        self.free.push(cref.0);
    }

    #[inline]
    pub fn get(&self, cref: ClauseRef) -> &Clause {
        &self.clauses[cref.0 as usize]
    }

    #[inline]
    pub fn get_mut(&mut self, cref: ClauseRef) -> &mut Clause {
        &mut self.clauses[cref.0 as usize]
    }

    /// Iterates over the refs of all live learned clauses.
    pub fn learnt_refs(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        self.clauses
            .iter()
            .enumerate()
            .filter(|(_, c)| c.learnt && !c.deleted)
            .map(|(i, _)| ClauseRef(i as u32))
    }

    /// Number of live learned clauses: `learnt_refs().count()`, in O(1).
    pub fn learnt_count(&self) -> usize {
        self.learnt
    }

    pub fn live_count(&self) -> usize {
        self.clauses.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Var;

    #[test]
    fn alloc_and_reuse() {
        let mut db = ClauseDb::new();
        let a = Lit::pos(Var(0));
        let r0 = db.alloc(vec![a], false);
        let r1 = db.alloc(vec![a, !a], true);
        assert_eq!(db.live_count(), 2);
        assert_eq!(db.get(r1).len(), 2);
        db.free(r0);
        assert_eq!(db.live_count(), 1);
        let r2 = db.alloc(vec![!a], true);
        assert_eq!(r2, r0, "freed slot is reused");
        assert!(db.get(r2).is_learnt());
    }

    #[test]
    fn learnt_refs_skips_deleted_and_original() {
        let mut db = ClauseDb::new();
        let a = Lit::pos(Var(0));
        let _orig = db.alloc(vec![a], false);
        let l1 = db.alloc(vec![!a], true);
        let l2 = db.alloc(vec![a, !a], true);
        db.free(l1);
        let live: Vec<_> = db.learnt_refs().collect();
        assert_eq!(live, vec![l2]);
    }

    #[test]
    fn learnt_count_tracks_alloc_free_and_reuse() {
        let mut db = ClauseDb::new();
        let a = Lit::pos(Var(0));
        let check = |db: &ClauseDb| assert_eq!(db.learnt_count(), db.learnt_refs().count());
        let orig = db.alloc(vec![a], false);
        let l1 = db.alloc(vec![!a], true);
        let l2 = db.alloc(vec![a, !a], true);
        check(&db);
        db.free(l1);
        check(&db);
        // A learned clause reuses the slot an original clause freed, and
        // an original clause the slot a learned one freed.
        db.free(orig);
        let l3 = db.alloc(vec![!a], true);
        assert_eq!(l3, orig, "freed slot is reused");
        check(&db);
        db.free(l2);
        let o2 = db.alloc(vec![a], false);
        assert_eq!(o2, l2, "freed slot is reused");
        check(&db);
        assert_eq!(db.learnt_count(), 1);
    }
}
