//! Signal width tables for free-trace (testbench) contexts.

use std::collections::HashMap;
use sv_synth::Netlist;

/// Declared signals of a verification context: name to bit width.
///
/// For NL2SVA-Human this is extracted from the testbench's elaborated
/// netlist; for NL2SVA-Machine it is the generator's symbolic signal
/// table (`sig_A..sig_J` with their drawn widths).
///
/// # Examples
///
/// ```
/// use fv_core::SignalTable;
/// let mut t = SignalTable::new();
/// t.insert("rd_pop", 1);
/// t.insert("fifo_out_data", 8);
/// assert_eq!(t.width("rd_pop"), Some(1));
/// assert_eq!(t.width("ghost"), None);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SignalTable {
    widths: HashMap<String, u32>,
    /// Constant bindings (testbench parameters like FSM state encodings).
    consts: HashMap<String, (u32, u128)>,
}

impl SignalTable {
    /// Creates an empty table.
    pub fn new() -> SignalTable {
        SignalTable::default()
    }

    /// The assertion scope of an elaborated testbench: every net an
    /// assertion can name at its width, and every top-level parameter
    /// as a 32-bit constant. Array elements (`mem[0]`) and nets inside
    /// an instance (`dut.count`) are not nameable in SVA and are left
    /// out.
    pub fn from_netlist(netlist: &Netlist) -> SignalTable {
        let mut table = SignalTable::new();
        for (name, binding) in netlist.net_names() {
            if !name.contains('[') && !name.contains('.') {
                table.insert(name, binding.width);
            }
        }
        for (name, value) in &netlist.params {
            table.insert_const(name.clone(), 32, *value);
        }
        table
    }

    /// Declares a signal.
    pub fn insert(&mut self, name: impl Into<String>, width: u32) {
        self.widths.insert(name.into(), width);
    }

    /// Declares an elaboration-time constant (e.g. a state-encoding
    /// parameter `S0 = 2'b00`), visible to assertions by name.
    pub fn insert_const(&mut self, name: impl Into<String>, width: u32, value: u128) {
        self.consts.insert(name.into(), (width, value));
    }

    /// Width of a declared signal.
    pub fn width(&self, name: &str) -> Option<u32> {
        self.widths.get(name).copied()
    }

    /// Constant binding, if `name` is one.
    pub fn constant(&self, name: &str) -> Option<(u32, u128)> {
        self.consts.get(name).copied()
    }

    /// Iterates over declared signal names.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.widths.keys().map(String::as_str)
    }

    /// Number of declared signals.
    pub fn len(&self) -> usize {
        self.widths.len()
    }

    /// Stable, order-independent content hash: two tables digest
    /// equally iff they declare the same signals, widths, and
    /// constants. Usable as a cache-key component.
    pub fn digest(&self) -> u64 {
        let entry = |parts: &[&[u8]]| -> u64 {
            let mut h: u64 = 0xcbf29ce484222325;
            for part in parts {
                for &b in *part {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x100000001b3);
                }
                h ^= 0x1f;
                h = h.wrapping_mul(0x100000001b3);
            }
            h
        };
        // XOR-fold per-entry hashes so HashMap iteration order is
        // irrelevant.
        let mut acc = 0x9E3779B97F4A7C15u64 ^ (self.widths.len() as u64).rotate_left(32);
        for (name, w) in &self.widths {
            acc ^= entry(&[b"sig", name.as_bytes(), &w.to_le_bytes()]);
        }
        for (name, (w, v)) in &self.consts {
            acc ^= entry(&[
                b"const",
                name.as_bytes(),
                &w.to_le_bytes(),
                &v.to_le_bytes(),
            ]);
        }
        acc
    }

    /// `true` if no signals are declared.
    pub fn is_empty(&self) -> bool {
        self.widths.is_empty()
    }
}

impl<S: Into<String>> FromIterator<(S, u32)> for SignalTable {
    fn from_iter<T: IntoIterator<Item = (S, u32)>>(iter: T) -> SignalTable {
        let mut t = SignalTable::new();
        for (name, w) in iter {
            t.insert(name, w);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_iterator() {
        let t: SignalTable = [("a", 1u32), ("b", 8)].into_iter().collect();
        assert_eq!(t.len(), 2);
        assert_eq!(t.width("b"), Some(8));
    }

    #[test]
    fn netlist_scope_leaves_out_array_elements_and_instance_nets() {
        let compiled = crate::CompiledDesign::new(
            "module cnt (clk, q);\ninput clk; output [3:0] q;\n\
             reg [3:0] count;\nalways @(posedge clk) begin count <= count + 4'd1; end\n\
             assign q = count;\nendmodule\n",
            "module tb (clk, q);\nparameter S1 = 2;\ninput clk; input [3:0] q;\n\
             logic [3:0] mem [1:0];\nassign mem[0] = q;\nassign mem[1] = mem[0];\n\
             endmodule\n",
            "cnt",
            "tb",
        )
        .unwrap();
        let netlist = compiled.netlist();
        assert!(netlist.net("mem[0]").is_some());
        assert!(netlist.net("dut.count").is_some());
        let t = SignalTable::from_netlist(netlist);
        assert_eq!(t.width("q"), Some(4));
        assert_eq!(t.width("clk"), Some(1));
        assert_eq!(t.width("mem[0]"), None);
        assert_eq!(t.width("dut.count"), None);
        assert_eq!(t.constant("S1"), Some((32, 2)));
        assert_eq!(t.width("S1"), None);
    }

    #[test]
    fn constants_are_separate() {
        let mut t = SignalTable::new();
        t.insert_const("S0", 2, 0);
        assert_eq!(t.constant("S0"), Some((2, 0)));
        assert_eq!(t.width("S0"), None);
    }
}
