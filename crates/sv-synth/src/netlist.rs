//! The flat word-level netlist produced by elaboration.

use crate::netexpr::{mask, Nx};
use std::sync::Arc;
use sv_ast::{Interner, Symbol, SymbolMap};

/// Index of an atom in a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AtomId(pub u32);

impl AtomId {
    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What drives an atom.
#[derive(Debug, Clone, PartialEq)]
pub enum AtomKind {
    /// Free primary input.
    Input,
    /// Combinational definition.
    Comb(Nx),
    /// Register with synchronous next-state function and reset value.
    Reg {
        /// Next-state expression.
        next: Nx,
        /// Reset/initial value.
        init: u128,
    },
}

/// One atom: a named, width-annotated value holder.
#[derive(Debug, Clone, PartialEq)]
pub struct AtomDef {
    /// Flat hierarchical name (e.g. `unit_0.data[3]`).
    pub name: String,
    /// Width in bits.
    pub width: u32,
    /// Driver.
    pub kind: AtomKind,
}

/// A contiguous segment of a net, LSB-first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seg {
    /// Atom providing the bits.
    pub atom: AtomId,
    /// Offset into the atom.
    pub lo: u32,
    /// Number of bits taken.
    pub width: u32,
}

/// How a source-level net maps onto atoms.
#[derive(Debug, Clone, PartialEq)]
pub struct NetBinding {
    /// Total width of the net.
    pub width: u32,
    /// Width of one first-dimension element (for `x[i]` selects on
    /// multi-dimensional packed nets); 1 for plain vectors.
    pub elem_width: u32,
    /// LSB-first segments covering the full width.
    pub segs: Vec<Seg>,
}

impl NetBinding {
    /// Reads the whole net as an [`Nx`] expression.
    pub fn read(&self) -> Nx {
        self.read_range(0, self.width)
    }

    /// Reads bits `[lo, lo+width)` of the net.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the net width.
    pub fn read_range(&self, lo: u32, width: u32) -> Nx {
        assert!(lo + width <= self.width, "net range read out of bounds");
        let mut parts: Vec<Nx> = Vec::new();
        let mut seg_base = 0u32;
        for seg in &self.segs {
            let seg_lo = seg_base;
            let seg_hi = seg_base + seg.width;
            let want_lo = lo.max(seg_lo);
            let want_hi = (lo + width).min(seg_hi);
            if want_lo < want_hi {
                let inner = Nx::Atom(seg.atom);
                let off = seg.lo + (want_lo - seg_lo);
                let w = want_hi - want_lo;
                parts.push(Nx::Slice {
                    inner: Box::new(inner),
                    lo: off,
                    width: w,
                });
            }
            seg_base = seg_hi;
        }
        match parts.len() {
            0 => panic!("net has no segments covering the range"),
            1 => parts.pop().expect("one part"),
            _ => Nx::Concat(parts),
        }
    }

    /// The net's concrete value, given every atom's value indexed by
    /// atom (as [`crate::Simulator`] computes them): each segment's
    /// bits, stitched LSB first.
    pub fn value(&self, atom_values: &[u128]) -> u128 {
        let mut acc: u128 = 0;
        let mut off = 0u32;
        for seg in &self.segs {
            acc |= mask(atom_values[seg.atom.index()] >> seg.lo, seg.width) << off;
            off += seg.width;
        }
        acc
    }
}

/// A flat design: atoms plus the name bindings of source-level nets.
///
/// Net and array maps are keyed by interned [`Symbol`]s — map probes
/// are integer hashes, and the name text lives once in the shared
/// [`Interner`] arena (`syms`). String-based lookup stays available
/// through [`Netlist::net`], which resolves the name against the
/// arena without inserting.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    /// All atoms.
    pub atoms: Vec<AtomDef>,
    /// Source-net symbol to binding (array elements appear as
    /// `name[i]`).
    pub nets: SymbolMap<Symbol, NetBinding>,
    /// Unpacked array metadata: symbol to element count.
    pub arrays: SymbolMap<Symbol, u32>,
    /// The frozen per-design string arena every symbol resolves
    /// against.
    pub syms: Arc<Interner>,
    /// Name of the active-low reset input, if detected.
    pub reset_name: Option<String>,
    /// Name of the clock input, if detected.
    pub clock_name: Option<String>,
    /// Warnings accumulated during elaboration (undriven nets, etc.).
    pub warnings: Vec<String>,
    /// Top-module parameter values (assertion-visible constants such as
    /// FSM state encodings), in declaration order.
    pub params: Vec<(String, u128)>,
}

impl Netlist {
    /// Looks up an atom definition.
    pub fn atom(&self, id: AtomId) -> &AtomDef {
        &self.atoms[id.index()]
    }

    /// Width of an atom.
    pub fn atom_width(&self, id: AtomId) -> u32 {
        self.atoms[id.index()].width
    }

    /// All input atoms in creation order.
    pub fn inputs(&self) -> impl Iterator<Item = (AtomId, &AtomDef)> {
        self.atoms
            .iter()
            .enumerate()
            .filter(|(_, a)| matches!(a.kind, AtomKind::Input))
            .map(|(i, a)| (AtomId(i as u32), a))
    }

    /// All register atoms in creation order.
    pub fn regs(&self) -> impl Iterator<Item = (AtomId, &AtomDef)> {
        self.atoms
            .iter()
            .enumerate()
            .filter(|(_, a)| matches!(a.kind, AtomKind::Reg { .. }))
            .map(|(i, a)| (AtomId(i as u32), a))
    }

    /// Resolves a net binding by name.
    pub fn net(&self, name: &str) -> Option<&NetBinding> {
        self.nets.get(&self.syms.lookup(name)?)
    }

    /// The text of an interned name.
    pub fn resolve(&self, sym: Symbol) -> &str {
        self.syms.resolve(sym)
    }

    /// All nets with their resolved names (unordered, like iterating
    /// the map itself).
    pub fn net_names(&self) -> impl Iterator<Item = (&str, &NetBinding)> {
        self.nets.iter().map(|(s, b)| (self.syms.resolve(*s), b))
    }

    /// All unpacked arrays with their resolved names and element
    /// counts.
    pub fn array_names(&self) -> impl Iterator<Item = (&str, u32)> {
        self.arrays.iter().map(|(s, n)| (self.syms.resolve(*s), *n))
    }

    /// Element count of an unpacked array, by name.
    pub fn array(&self, name: &str) -> Option<u32> {
        self.arrays.get(&self.syms.lookup(name)?).copied()
    }

    /// Topological order of combinational atoms (dependencies first).
    ///
    /// # Errors
    ///
    /// Returns the name of an atom on a combinational cycle.
    pub fn comb_topo_order(&self) -> Result<Vec<AtomId>, String> {
        let n = self.atoms.len();
        // 0 = unvisited, 1 = on stack, 2 = done
        let mut state = vec![0u8; n];
        let mut order = Vec::new();
        // Iterative DFS over comb atoms only.
        for start in 0..n {
            if !matches!(self.atoms[start].kind, AtomKind::Comb(_)) || state[start] == 2 {
                continue;
            }
            let mut stack: Vec<(usize, bool)> = vec![(start, false)];
            while let Some((id, expanded)) = stack.pop() {
                if expanded {
                    state[id] = 2;
                    order.push(AtomId(id as u32));
                    continue;
                }
                if state[id] == 2 {
                    continue;
                }
                if state[id] == 1 {
                    return Err(self.atoms[id].name.clone());
                }
                state[id] = 1;
                stack.push((id, true));
                if let AtomKind::Comb(e) = &self.atoms[id].kind {
                    let mut deps = Vec::new();
                    e.visit_atoms(&mut |a| deps.push(a));
                    for d in deps {
                        let di = d.index();
                        if matches!(self.atoms[di].kind, AtomKind::Comb(_)) {
                            if state[di] == 1 {
                                return Err(self.atoms[di].name.clone());
                            }
                            if state[di] == 0 {
                                stack.push((di, false));
                            }
                        }
                    }
                }
            }
        }
        Ok(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netexpr::Nx;

    fn mk_netlist() -> Netlist {
        let mut nl = Netlist::default();
        nl.atoms.push(AtomDef {
            name: "a".into(),
            width: 4,
            kind: AtomKind::Input,
        });
        nl.atoms.push(AtomDef {
            name: "b".into(),
            width: 4,
            kind: AtomKind::Comb(Nx::Atom(AtomId(0))),
        });
        nl.atoms.push(AtomDef {
            name: "c".into(),
            width: 4,
            kind: AtomKind::Comb(Nx::Atom(AtomId(1))),
        });
        nl
    }

    #[test]
    fn topo_order_respects_deps() {
        let nl = mk_netlist();
        let order = nl.comb_topo_order().unwrap();
        assert_eq!(order, vec![AtomId(1), AtomId(2)]);
    }

    #[test]
    fn cycle_detected() {
        let mut nl = mk_netlist();
        // b depends on c, c depends on b.
        nl.atoms[1].kind = AtomKind::Comb(Nx::Atom(AtomId(2)));
        assert!(nl.comb_topo_order().is_err());
    }

    #[test]
    fn binding_read_range_stitches_segments() {
        let b = NetBinding {
            width: 8,
            elem_width: 1,
            segs: vec![
                Seg {
                    atom: AtomId(0),
                    lo: 0,
                    width: 4,
                },
                Seg {
                    atom: AtomId(1),
                    lo: 0,
                    width: 4,
                },
            ],
        };
        // Whole read concatenates both atoms.
        match b.read() {
            Nx::Concat(parts) => assert_eq!(parts.len(), 2),
            other => panic!("expected concat, got {other:?}"),
        }
        // A read inside one segment is a single slice.
        match b.read_range(1, 2) {
            Nx::Slice {
                lo: 1, width: 2, ..
            } => {}
            other => panic!("expected slice, got {other:?}"),
        }
        // A straddling read has two parts.
        match b.read_range(2, 4) {
            Nx::Concat(parts) => assert_eq!(parts.len(), 2),
            other => panic!("expected concat, got {other:?}"),
        }
    }
}
