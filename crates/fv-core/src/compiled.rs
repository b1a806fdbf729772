//! The Design2SVA compile: a design bound into its formal testbench.

use sv_ast::{Expr, Instance, ModuleItem};
use sv_parser::parse_source;
use sv_synth::{elaborate_design, ElaboratedDesign, Netlist};

/// A design compiled for proving: the testbench elaborated with the
/// design bound in, plus the testbench constants visible to
/// assertions. Candidate assertions prove against [`netlist`]; a
/// response carrying helper items binds them through [`bind_extras`]
/// without re-walking the file.
///
/// The binding is the formal testbench contract: `top` is instantiated
/// inside `tb_top` as `dut`, each port tied to the same-named
/// testbench signal. Evaluation, golden validation and mutant gating
/// all compile through [`CompiledDesign::new`], so they prove against
/// the same netlist.
///
/// [`netlist`]: CompiledDesign::netlist
/// [`bind_extras`]: CompiledDesign::bind_extras
///
/// # Examples
///
/// ```
/// use fv_core::{prove, CompiledDesign, ProveConfig};
/// use sv_parser::parse_assertion_str;
///
/// let design = "module ff (clk, d, q);\ninput clk; input d; output q;\n\
///               reg r;\nalways @(posedge clk) begin r <= d; end\n\
///               assign q = r;\nendmodule\n";
/// let tb = "module tb (clk, d, q);\nparameter ONE = 1;\n\
///           input clk; input d; input q;\nendmodule\n";
/// let compiled = CompiledDesign::new(design, tb, "ff", "tb").unwrap();
/// assert_eq!(compiled.consts(), &[("ONE".to_string(), 32, 1)]);
/// let a = parse_assertion_str("assert property (@(posedge clk) d |-> ##1 q);").unwrap();
/// let proven = prove(compiled.netlist(), &a, compiled.consts(), ProveConfig::default());
/// assert!(proven.unwrap().is_proven());
/// ```
#[derive(Debug, Clone)]
pub struct CompiledDesign {
    design: ElaboratedDesign,
    /// Testbench parameters as 32-bit constants (state encodings).
    consts: Vec<(String, u32, u128)>,
}

impl CompiledDesign {
    /// Parses `design_source` and `tb_source` as one file, instantiates
    /// `top` inside `tb_top` as `dut` with every port tied to the
    /// same-named signal, and elaborates the result once.
    ///
    /// # Errors
    ///
    /// Returns the parse or elaboration message if the collateral is
    /// invalid, or if `top` is not a module of the design source.
    pub fn new(
        design_source: &str,
        tb_source: &str,
        top: &str,
        tb_top: &str,
    ) -> Result<CompiledDesign, String> {
        let mut src = String::with_capacity(design_source.len() + tb_source.len() + 1);
        src.push_str(design_source);
        src.push('\n');
        src.push_str(tb_source);
        let file = parse_source(&src).map_err(|e| e.to_string())?;
        let module = file
            .module(top)
            .ok_or_else(|| format!("missing design module {top}"))?;
        let dut = ModuleItem::Instance(Instance {
            module: top.to_string(),
            name: "dut".into(),
            params: vec![],
            conns: module
                .port_order
                .iter()
                .map(|p| (p.clone(), Expr::ident(p.clone())))
                .collect(),
        });
        let design = elaborate_design(&file, tb_top, std::slice::from_ref(&dut))
            .map_err(|e| e.to_string())?;
        let consts = design
            .params()
            .iter()
            .map(|(n, v)| (n.clone(), 32u32, *v))
            .collect();
        Ok(CompiledDesign { design, consts })
    }

    /// The helper-free netlist: the testbench with the design bound in.
    pub fn netlist(&self) -> &Netlist {
        self.design.netlist()
    }

    /// Testbench parameter bindings visible to candidate assertions.
    pub fn consts(&self) -> &[(String, u32, u128)] {
        &self.consts
    }

    /// Splices a response's helper items into the compiled design; only
    /// the helpers are flattened, the design is not re-elaborated.
    ///
    /// # Errors
    ///
    /// Returns the elaboration message if a helper does not elaborate
    /// in the testbench scope (e.g. it names a design-internal signal).
    pub fn bind_extras(&self, helpers: &[ModuleItem]) -> Result<Netlist, String> {
        self.design.bind_extras(helpers).map_err(|e| e.to_string())
    }
}
