//! Watch lists for two-watched-literal propagation.
//!
//! Every literal's watch list lives in one arena ([`WatchArena`],
//! crate-internal): a list is a `(start, len, cap)` span of a single
//! `Vec<Watcher>`, so a fresh variable costs two empty spans rather
//! than two heap allocations, and dropping a solver frees one buffer.
//!
//! A push fills the list's spare capacity; a full list that ends the
//! arena grows in place, and any other full list moves to the arena's
//! end with twice its capacity, leaving its old span as garbage.
//! [`WatchArena::collect_garbage`] re-packs the arena once garbage
//! passes half of it. Every operation keeps each list's order, so a
//! search over the arena visits watchers exactly as one `Vec` per
//! literal would.

use crate::clause::ClauseRef;
use crate::Lit;

/// One entry of a watch list: a clause watching the list's literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Watcher {
    pub cref: ClauseRef,
    /// The *other* watched literal (blocking literal optimization).
    pub blocker: Lit,
}

/// Fills the spare capacity a move reserves; never read as a watcher.
const PAD: Watcher = Watcher {
    cref: ClauseRef::UNDEF,
    blocker: Lit(0),
};

/// The smallest capacity a list gets when it moves to the arena's end.
const MIN_CAP: u32 = 4;

/// Where one literal's watch list sits in the arena.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: u32,
    len: u32,
    cap: u32,
}

/// The watch lists of every literal, indexed by [`Lit::index`].
#[derive(Debug, Default)]
pub(crate) struct WatchArena {
    /// Every list's watchers and spare capacity, back to back, plus the
    /// abandoned spans of moved lists.
    watchers: Vec<Watcher>,
    /// One span per literal index.
    spans: Vec<Span>,
    /// Arena slots in abandoned spans; only a re-pack lowers it.
    garbage: usize,
}

impl WatchArena {
    pub fn new() -> WatchArena {
        WatchArena::default()
    }

    /// Adds the two empty lists of a fresh variable.
    pub fn add_var(&mut self) {
        self.spans.extend([Span::default(); 2]);
    }

    /// The watch list of literal index `lit`.
    #[cfg(test)]
    pub fn list(&self, lit: usize) -> &[Watcher] {
        let s = self.spans[lit];
        &self.watchers[s.start as usize..(s.start + s.len) as usize]
    }

    /// Where list `lit` starts in the arena and how long it is. The
    /// start stays valid until the next push to this list or re-pack.
    #[inline]
    pub fn span(&self, lit: usize) -> (usize, usize) {
        let s = self.spans[lit];
        (s.start as usize, s.len as usize)
    }

    /// The watcher at arena slot `at`, inside some list's span.
    #[inline]
    pub fn at(&self, at: usize) -> Watcher {
        self.watchers[at]
    }

    /// Overwrites the watcher at arena slot `at`.
    #[inline]
    pub fn set_at(&mut self, at: usize, w: Watcher) {
        self.watchers[at] = w;
    }

    /// Removes entry `i` of list `lit` by moving its last entry into
    /// its place, as [`Vec::swap_remove`] does.
    #[inline]
    pub fn swap_remove(&mut self, lit: usize, i: usize) {
        let s = &mut self.spans[lit];
        debug_assert!(i < s.len as usize);
        s.len -= 1;
        let (start, last) = (s.start as usize, (s.start + s.len) as usize);
        self.watchers[start + i] = self.watchers[last];
    }

    /// Appends `w` to list `lit`.
    #[inline]
    pub fn push(&mut self, lit: usize, w: Watcher) {
        let s = &mut self.spans[lit];
        if s.len < s.cap {
            self.watchers[(s.start + s.len) as usize] = w;
            s.len += 1;
        } else if (s.start + s.cap) as usize == self.watchers.len() {
            self.watchers.push(w);
            s.cap += 1;
            s.len += 1;
        } else {
            let (old, len) = (s.start as usize, s.len as usize);
            let cap = (2 * s.cap).max(MIN_CAP);
            let start = self.watchers.len();
            self.garbage += s.cap as usize;
            *s = Span {
                start: u32::try_from(start).expect("watch arena within u32 offsets"),
                len: s.len + 1,
                cap,
            };
            self.watchers.extend_from_within(old..old + len);
            self.watchers.push(w);
            self.watchers.resize(start + cap as usize, PAD);
        }
    }

    /// Keeps the entries of list `lit` for which `keep` holds, in order.
    pub fn retain(&mut self, lit: usize, mut keep: impl FnMut(&Watcher) -> bool) {
        let s = &mut self.spans[lit];
        let start = s.start as usize;
        let mut kept = 0;
        for i in 0..s.len as usize {
            let w = self.watchers[start + i];
            if keep(&w) {
                self.watchers[start + kept] = w;
                kept += 1;
            }
        }
        s.len = kept as u32;
    }

    /// Re-packs the arena when abandoned spans hold more than half of
    /// it. Call only where no span position is held: a re-pack moves
    /// every list.
    pub fn collect_garbage(&mut self) {
        if 2 * self.garbage > self.watchers.len() {
            self.repack();
        }
    }

    /// Copies every list, in literal order, into a fresh arena with no
    /// spare capacity.
    fn repack(&mut self) {
        let live = self.spans.iter().map(|s| s.len as usize).sum();
        let mut packed = Vec::with_capacity(live);
        for s in &mut self.spans {
            let start = s.start as usize;
            let len = s.len;
            s.start = packed.len() as u32;
            s.cap = len;
            packed.extend_from_slice(&self.watchers[start..start + len as usize]);
        }
        self.watchers = packed;
        self.garbage = 0;
    }

    /// Every list, by literal index.
    #[cfg(test)]
    pub fn lists(&self) -> impl Iterator<Item = &[Watcher]> + '_ {
        (0..self.spans.len()).map(|lit| self.list(lit))
    }

    /// Arena slots, garbage and spare capacity included.
    #[cfg(test)]
    pub fn arena_len(&self) -> usize {
        self.watchers.len()
    }

    #[cfg(test)]
    pub fn garbage(&self) -> usize {
        self.garbage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Var;

    fn watcher(k: u32) -> Watcher {
        Watcher {
            cref: ClauseRef(k),
            blocker: Lit::pos(Var(k)),
        }
    }

    /// An arena next to the `Vec<Vec<Watcher>>` it must stay equal to,
    /// driven by the same operations.
    struct Model {
        arena: WatchArena,
        lists: Vec<Vec<Watcher>>,
    }

    impl Model {
        fn new(vars: usize) -> Model {
            let mut arena = WatchArena::new();
            for _ in 0..vars {
                arena.add_var();
            }
            Model {
                arena,
                lists: vec![Vec::new(); 2 * vars],
            }
        }

        fn push(&mut self, lit: usize, w: Watcher) {
            self.arena.push(lit, w);
            self.lists[lit].push(w);
            self.check();
        }

        fn swap_remove(&mut self, lit: usize, i: usize) {
            self.arena.swap_remove(lit, i);
            self.lists[lit].swap_remove(i);
            self.check();
        }

        fn retain(&mut self, lit: usize, keep: impl Fn(&Watcher) -> bool) {
            self.arena.retain(lit, &keep);
            self.lists[lit].retain(keep);
            self.check();
        }

        fn check(&self) {
            let got: Vec<&[Watcher]> = self.arena.lists().collect();
            let want: Vec<&[Watcher]> = self.lists.iter().map(|l| &l[..]).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn a_list_ending_the_arena_grows_in_place() {
        let mut m = Model::new(2);
        for k in 0..5 {
            m.push(1, watcher(k));
        }
        assert_eq!(m.arena.span(1), (0, 5));
        assert_eq!((m.arena.arena_len(), m.arena.garbage()), (5, 0));
    }

    #[test]
    fn a_full_list_inside_the_arena_moves_to_the_end() {
        let mut m = Model::new(2);
        m.push(0, watcher(0));
        // An empty list not at the end moves there with room to grow.
        m.push(1, watcher(1));
        assert_eq!((m.arena.span(1), m.arena.arena_len()), ((1, 1), 5));
        // List 0 is full and no longer ends the arena.
        m.push(0, watcher(2));
        assert_eq!(m.arena.span(0), (5, 2));
        assert_eq!(m.arena.garbage(), 1, "the one-slot span is abandoned");
        assert_eq!(m.arena.arena_len(), 5 + MIN_CAP as usize);
        // Spare capacity takes the next pushes without a move.
        m.push(1, watcher(3));
        m.push(0, watcher(4));
        m.push(0, watcher(5));
        assert_eq!((m.arena.span(0), m.arena.span(1)), ((5, 4), (1, 2)));
        // Full again, but it ends the arena now.
        m.push(0, watcher(6));
        assert_eq!(m.arena.span(0), (5, 5));
        assert_eq!((m.arena.arena_len(), m.arena.garbage()), (10, 1));
    }

    #[test]
    fn swap_remove_and_retain_keep_the_model_order() {
        let mut m = Model::new(3);
        for k in 0..12 {
            m.push((k % 3) as usize, watcher(k));
        }
        m.swap_remove(0, 1);
        m.swap_remove(0, 2);
        m.swap_remove(2, 0);
        m.retain(1, |w| w.cref.0 % 2 == 0);
        m.retain(2, |_| true);
        // Freed capacity is reused before the list moves again.
        let start = m.arena.span(0).0;
        m.push(0, watcher(20));
        m.push(0, watcher(21));
        assert_eq!(m.arena.span(0).0, start);
    }

    #[test]
    fn repack_keeps_every_list_and_drops_the_garbage() {
        let mut m = Model::new(4);
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % n
        };
        for k in 0..400 {
            let lit = next(8) as usize;
            match next(4) {
                0 if !m.lists[lit].is_empty() => {
                    let i = next(m.lists[lit].len() as u64) as usize;
                    m.swap_remove(lit, i);
                }
                1 => m.retain(lit, |w| w.cref.0 % 3 != 0),
                _ => m.push(lit, watcher(k)),
            }
            let garbage = m.arena.garbage();
            m.arena.collect_garbage();
            m.check();
            if m.arena.garbage() < garbage {
                let live: usize = m.lists.iter().map(Vec::len).sum();
                assert_eq!(m.arena.arena_len(), live, "a re-pack leaves no slack");
            }
        }
        // Below half, a re-pack is a no-op.
        let len = m.arena.arena_len();
        m.arena.collect_garbage();
        assert_eq!(m.arena.arena_len(), len);
        m.arena.repack();
        m.check();
        assert_eq!(m.arena.garbage(), 0);
    }
}
