//! The built-in scenario families (twelve: seven from the original
//! seed plus the register-file, pipeline, AXI-lite, hierarchy, and
//! token-ring families).
//!
//! Every generator follows the same recipe: build concrete
//! SystemVerilog for a small parameterized design whose interesting
//! invariants are *provable by construction* under the repository
//! prover's default bounds (BMC 12, k-induction 6), derive the formal
//! testbench from the design's port list, and emit candidate
//! assertions in provable/falsifiable pairs with NL descriptions.
//!
//! Two property shapes keep golden verdicts robust (see
//! `docs/TASK_AUTHORING.md` for the full contract):
//!
//! - **combinational invariants** over output nets (mutual exclusion,
//!   definitional consistency) — decided during AIG construction or by
//!   a k=0/1 induction step from *any* state, reachable or not;
//! - **bounded-delay implications** through always-enabled register
//!   chains (`x |-> ##D y` with `D <= 6`) — the same shape as the
//!   shipped pipeline goldens, closed by shallow k-induction.
//!
//! Guarded-counter designs use `>=` saturation comparisons
//! (`full = count >= DEPTH`) so *unreachable* register states still
//! behave consistently — a plain `==` encoding breaks the induction
//! step when the free initial state lies outside the reachable range.
//!
//! The one deliberate exception is the `deepcnt` family, whose wrap
//! comparison is a plain `==` **on purpose**: its headline invariant is
//! true but not k-inductive for *any* k, so it needs a
//! reachability-aware engine to close: IC3/PDR, which `--engine pdr`,
//! `--engine portfolio` and golden validation (which proves through
//! the portfolio) run. It is therefore registered but excluded from
//! default suites — see [`ScenarioGenerator::in_default_suite`].

use crate::{Candidate, GenParams, GoldenVerdict, Scenario, ScenarioGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// All registered families, in stable registry order.
pub fn generators() -> Vec<Box<dyn ScenarioGenerator>> {
    vec![
        Box::new(FifoGen),
        Box::new(ArbiterGen),
        Box::new(HandshakeGen),
        Box::new(GrayGen),
        Box::new(ShiftGen),
        Box::new(CrcGen),
        Box::new(DeepCntGen),
        Box::new(RegfileGen),
        Box::new(PipelineGen),
        Box::new(AxiGen),
        Box::new(HierGen),
        Box::new(RingGen),
    ]
}

/// Looks up one family by registry key.
pub fn generator(family: &str) -> Option<Box<dyn ScenarioGenerator>> {
    generators().into_iter().find(|g| g.family() == family)
}

// ---------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------

/// Bits needed to hold `v` (at least 1).
fn bits_for(v: u32) -> u32 {
    (32 - v.leading_zeros()).max(1)
}

/// Sized decimal literal, `3'd4`.
fn lit(width: u32, value: u128) -> String {
    format!("{width}'d{value}")
}

/// Picks one phrasing variant deterministically.
fn vary<'a>(rng: &mut StdRng, options: &[&'a str]) -> &'a str {
    options[rng.gen_range(0..options.len())]
}

/// A design port as `(name, width, is_output)`; the testbench declares
/// every port — inputs and outputs alike — as a free input, per the
/// Design2SVA collateral contract.
type Port = (&'static str, u32, bool);

fn port_decl((name, width, is_output): &Port, as_input: bool) -> String {
    let dir = if *is_output && !as_input {
        "output"
    } else {
        "input"
    };
    if *width > 1 {
        format!("    {dir} [{}:0] {name}", width - 1)
    } else {
        format!("    {dir} {name}")
    }
}

/// Renders the module header (`module name ( ports );`).
fn header(name: &str, ports: &[Port], as_inputs: bool) -> String {
    let decls: Vec<String> = ports.iter().map(|p| port_decl(p, as_inputs)).collect();
    format!("module {name} (\n{}\n);\n", decls.join(",\n"))
}

/// The formal testbench for a design: every design port re-declared as
/// a free input, plus the derived `tb_reset`.
fn testbench_for(top: &str, ports: &[Port]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "// Generated formal testbench for {top}: all design ports are\n\
         // free inputs; the model checker explores every stimulus.\n"
    ));
    out.push_str(&header(&format!("{top}_tb"), ports, true));
    out.push_str("  wire tb_reset;\n  assign tb_reset = (reset_ == 1'b0);\nendmodule\n");
    out
}

/// Wraps a property body in the benchmark's canonical assertion shell.
fn asrt(body: &str) -> String {
    format!("asrt: assert property (@(posedge clk) disable iff (tb_reset) {body});")
}

fn scenario_id(family: &str, params: &GenParams) -> String {
    format!(
        "gen_{family}_d{}_w{}_{:x}",
        params.depth, params.width, params.seed
    )
}

fn provable(name: &str, sva: String, nl: String) -> Candidate {
    Candidate {
        name: name.into(),
        sva,
        nl,
        verdict: GoldenVerdict::Provable,
        mutation: None,
    }
}

fn falsifiable(name: &str, sva: String, nl: String) -> Candidate {
    Candidate {
        name: name.into(),
        sva,
        nl,
        verdict: GoldenVerdict::Falsifiable,
        mutation: None,
    }
}

// ---------------------------------------------------------------------
// Family 1: parameterized FIFO (occupancy model)
// ---------------------------------------------------------------------

struct FifoGen;

impl ScenarioGenerator for FifoGen {
    fn family(&self) -> &'static str {
        "fifo"
    }

    fn summary(&self) -> &'static str {
        "guarded-occupancy FIFO; depth = capacity (1..=12), width = data width (2..=32)"
    }

    fn generate(&self, params: &GenParams) -> Scenario {
        let depth = params.depth.clamp(1, 12);
        let width = params.width.clamp(2, 32);
        let params = GenParams {
            depth,
            width,
            seed: params.seed,
        };
        let mut rng = StdRng::seed_from_u64(params.seed ^ 0xF1F0);
        let cw = bits_for(depth);
        let ports: Vec<Port> = vec![
            ("clk", 1, false),
            ("reset_", 1, false),
            ("wr_vld", 1, false),
            ("rd_vld", 1, false),
            ("wr_data", width, false),
            ("fifo_full", 1, true),
            ("fifo_empty", 1, true),
            ("fifo_count", cw, true),
        ];
        let full = format!("(count >= {})", lit(cw, depth.into()));
        let mut design = String::from(
            "// Generated scenario: occupancy-model FIFO. Push and pop are\n\
             // guarded internally, so over/underflow cannot corrupt the count.\n",
        );
        design.push_str(&header("gen_fifo", &ports, false));
        design.push_str(&format!(
            "  reg [{msb}:0] count;\n\
             \x20 wire do_push;\n\
             \x20 wire do_pop;\n\
             \x20 assign fifo_full = {full};\n\
             \x20 assign fifo_empty = (count == {zero});\n\
             \x20 assign fifo_count = count;\n\
             \x20 assign do_push = wr_vld && !fifo_full;\n\
             \x20 assign do_pop = rd_vld && !fifo_empty;\n\
             \x20 always_ff @(posedge clk or negedge reset_) begin\n\
             \x20   if (!reset_) begin\n\
             \x20     count <= {zero};\n\
             \x20   end else begin\n\
             \x20     if (do_push && !do_pop) count <= count + {one};\n\
             \x20     if (!do_push && do_pop) count <= count - {one};\n\
             \x20   end\n\
             \x20 end\n\
             endmodule\n",
            msb = cw - 1,
            zero = lit(cw, 0),
            one = lit(cw, 1),
        ));

        let candidates = vec![
            provable(
                "never_full_and_empty",
                asrt("(fifo_full && fifo_empty) !== 1'b1"),
                format!(
                    "that the FIFO {}. Use the signals 'fifo_full' and 'fifo_empty'.",
                    vary(
                        &mut rng,
                        &[
                            "never reports full and empty at the same time",
                            "is never simultaneously full and empty",
                        ]
                    )
                ),
            ),
            provable(
                "push_leaves_nonempty",
                asrt("(wr_vld && !fifo_full) |-> ##1 !fifo_empty"),
                format!(
                    "that {} the FIFO is not empty on the following cycle. \
                     Use the signals 'wr_vld', 'fifo_full', and 'fifo_empty'.",
                    vary(
                        &mut rng,
                        &[
                            "after a push is accepted while the FIFO is not full,",
                            "whenever a write request arrives and the FIFO has room,",
                        ]
                    )
                ),
            ),
            provable(
                "drain_last_empties",
                asrt(&format!(
                    "(rd_vld && !wr_vld && (fifo_count == {})) |-> ##1 fifo_empty",
                    lit(cw, 1)
                )),
                "that popping the last entry with no concurrent push empties the FIFO \
                 on the next cycle. Use the signals 'rd_vld', 'wr_vld', 'fifo_count', \
                 and 'fifo_empty'."
                    .into(),
            ),
            falsifiable(
                "pop_always_empties",
                asrt("rd_vld |-> ##1 fifo_empty"),
                "that any read request leaves the FIFO empty on the next cycle. \
                 Use the signals 'rd_vld' and 'fifo_empty'."
                    .into(),
            ),
            falsifiable(
                "always_empty",
                asrt("fifo_empty"),
                "that the FIFO is empty on every cycle. Use the signal 'fifo_empty'.".into(),
            ),
        ];

        Scenario {
            id: scenario_id("fifo", &params),
            family: "fifo",
            params,
            logic_excerpt: full,
            design_source: design,
            tb_source: testbench_for("gen_fifo", &ports),
            top: "gen_fifo".into(),
            tb_top: "gen_fifo_tb".into(),
            internal_signal: "do_push".into(),
            candidates,
        }
    }
}

// ---------------------------------------------------------------------
// Family 2: round-robin arbiter
// ---------------------------------------------------------------------

struct ArbiterGen;

impl ScenarioGenerator for ArbiterGen {
    fn family(&self) -> &'static str {
        "arbiter"
    }

    fn summary(&self) -> &'static str {
        "round-robin arbiter; depth = number of requesters (2..=4), width unused"
    }

    fn generate(&self, params: &GenParams) -> Scenario {
        let n = params.depth.clamp(2, 4);
        let params = GenParams {
            depth: n,
            width: params.width,
            seed: params.seed,
        };
        let mut rng = StdRng::seed_from_u64(params.seed ^ 0xA2B1);
        let pw = bits_for(n - 1);
        let ports: Vec<Port> = vec![
            ("clk", 1, false),
            ("reset_", 1, false),
            ("req", n, false),
            ("gnt", n, true),
        ];

        // One priority chain per pointer value: scan requesters in
        // round-robin order starting at `start`.
        let chain_from = |start: u32| -> String {
            let mut expr = lit(n, 0);
            for off in (0..n).rev() {
                let i = (start + off) % n;
                expr = format!("(req[{i}] ? {} : {expr})", lit(n, 1 << i));
            }
            expr
        };
        let mut grant_expr = chain_from(n - 1);
        for p in (0..n - 1).rev() {
            grant_expr = format!(
                "(ptr == {}) ? {} : {grant_expr}",
                lit(pw, p.into()),
                chain_from(p)
            );
        }

        let mut design = String::from(
            "// Generated scenario: round-robin arbiter. The pointer rotates\n\
             // past the granted requester; the grant chain is one-hot by\n\
             // construction.\n",
        );
        design.push_str(&header("gen_arbiter", &ports, false));
        design.push_str(&format!(
            "  reg [{pmsb}:0] ptr;\n\
             \x20 wire [{nmsb}:0] grant_w;\n\
             \x20 assign grant_w = {grant_expr};\n\
             \x20 assign gnt = grant_w;\n\
             \x20 always_ff @(posedge clk or negedge reset_) begin\n\
             \x20   if (!reset_) begin\n\
             \x20     ptr <= {pzero};\n\
             \x20   end else begin\n",
            pmsb = pw - 1,
            nmsb = n - 1,
            pzero = lit(pw, 0),
        ));
        for i in 0..n {
            design.push_str(&format!(
                "      if (grant_w[{i}]) ptr <= {};\n",
                lit(pw, u128::from((i + 1) % n))
            ));
        }
        design.push_str("    end\n  end\nendmodule\n");

        let zero = lit(n, 0);
        let candidates = vec![
            provable(
                "at_most_one_grant",
                asrt("$onehot0(gnt)"),
                format!(
                    "that the arbiter {}. Use the signal 'gnt'.",
                    vary(
                        &mut rng,
                        &[
                            "never grants more than one requester at a time",
                            "drives at most one grant line in any cycle",
                        ]
                    )
                ),
            ),
            provable(
                "grant_implies_request",
                asrt(&format!("((gnt & ~req) == {zero})")),
                "that a grant is only ever given to a requester that is actually \
                 requesting. Use the signals 'gnt' and 'req'."
                    .into(),
            ),
            provable(
                "idle_means_no_grant",
                asrt(&format!("(req == {zero}) |-> (gnt == {zero})")),
                "that no grant is issued while no requester is active. \
                 Use the signals 'req' and 'gnt'."
                    .into(),
            ),
            falsifiable(
                "immediate_service",
                asrt("req[0] |-> gnt[0]"),
                "that requester 0 is granted in the same cycle it raises its request. \
                 Use the signals 'req' and 'gnt'."
                    .into(),
            ),
            falsifiable(
                "never_grants",
                asrt(&format!("(gnt == {zero})")),
                "that the arbiter never issues any grant. Use the signal 'gnt'.".into(),
            ),
        ];

        Scenario {
            id: scenario_id("arbiter", &params),
            family: "arbiter",
            params,
            logic_excerpt: grant_expr,
            design_source: design,
            tb_source: testbench_for("gen_arbiter", &ports),
            top: "gen_arbiter".into(),
            tb_top: "gen_arbiter_tb".into(),
            internal_signal: "ptr".into(),
            candidates,
        }
    }
}

// ---------------------------------------------------------------------
// Family 3: valid/ready handshake buffer
// ---------------------------------------------------------------------

struct HandshakeGen;

impl ScenarioGenerator for HandshakeGen {
    fn family(&self) -> &'static str {
        "handshake"
    }

    fn summary(&self) -> &'static str {
        "single-entry valid/ready elastic buffer; width = data width (2..=32), depth unused"
    }

    fn generate(&self, params: &GenParams) -> Scenario {
        let width = params.width.clamp(2, 32);
        let params = GenParams {
            depth: params.depth,
            width,
            seed: params.seed,
        };
        let mut rng = StdRng::seed_from_u64(params.seed ^ 0xCAFE);
        let ports: Vec<Port> = vec![
            ("clk", 1, false),
            ("reset_", 1, false),
            ("in_vld", 1, false),
            ("in_data", width, false),
            ("out_rdy", 1, false),
            ("in_rdy", 1, true),
            ("out_vld", 1, true),
            ("out_data", width, true),
        ];
        let mut design = String::from(
            "// Generated scenario: single-entry valid/ready buffer. Data is\n\
             // held stable while the consumer stalls; the producer is\n\
             // back-pressured exactly while the buffer is full and stalled.\n",
        );
        design.push_str(&header("gen_handshake", &ports, false));
        design.push_str(&format!(
            "  reg vld;\n\
             \x20 reg [{msb}:0] data;\n\
             \x20 assign in_rdy = (!vld) || out_rdy;\n\
             \x20 assign out_vld = vld;\n\
             \x20 assign out_data = data;\n\
             \x20 always_ff @(posedge clk or negedge reset_) begin\n\
             \x20   if (!reset_) begin\n\
             \x20     vld <= 1'b0;\n\
             \x20     data <= {zero};\n\
             \x20   end else begin\n\
             \x20     if (in_vld && in_rdy) begin\n\
             \x20       vld <= 1'b1;\n\
             \x20       data <= in_data;\n\
             \x20     end else if (out_rdy) begin\n\
             \x20       vld <= 1'b0;\n\
             \x20     end\n\
             \x20   end\n\
             \x20 end\n\
             endmodule\n",
            msb = width - 1,
            zero = lit(width, 0),
        ));

        let candidates = vec![
            provable(
                "valid_held_until_ready",
                asrt("(out_vld && !out_rdy) |-> ##1 out_vld"),
                format!(
                    "that {} until the consumer accepts it. \
                     Use the signals 'out_vld' and 'out_rdy'.",
                    vary(
                        &mut rng,
                        &[
                            "an offered output stays valid",
                            "the output valid flag is held asserted",
                        ]
                    )
                ),
            ),
            provable(
                "stall_keeps_data",
                asrt("(out_vld && !out_rdy) |-> ##1 $stable(out_data)"),
                "that the output data is held stable while the consumer stalls a \
                 valid output. Use the signals 'out_vld', 'out_rdy', and 'out_data'."
                    .into(),
            ),
            provable(
                "backpressure_means_full",
                asrt("(!in_rdy) |-> (out_vld && !out_rdy)"),
                "that the producer is only back-pressured while the buffer holds a \
                 valid entry that the consumer is stalling. Use the signals 'in_rdy', \
                 'out_vld', and 'out_rdy'."
                    .into(),
            ),
            falsifiable(
                "input_always_accepted",
                asrt("in_vld |-> in_rdy"),
                "that an input offer is always accepted in the same cycle. \
                 Use the signals 'in_vld' and 'in_rdy'."
                    .into(),
            ),
            falsifiable(
                "output_immediately_consumed",
                asrt("out_vld |-> out_rdy"),
                "that the consumer is always ready whenever the output is valid. \
                 Use the signals 'out_vld' and 'out_rdy'."
                    .into(),
            ),
        ];

        Scenario {
            id: scenario_id("handshake", &params),
            family: "handshake",
            params,
            logic_excerpt: "(!vld) || out_rdy".into(),
            design_source: design,
            tb_source: testbench_for("gen_handshake", &ports),
            top: "gen_handshake".into(),
            tb_top: "gen_handshake_tb".into(),
            internal_signal: "vld".into(),
            candidates,
        }
    }
}

// ---------------------------------------------------------------------
// Family 4: gray-code counter
// ---------------------------------------------------------------------

struct GrayGen;

impl ScenarioGenerator for GrayGen {
    fn family(&self) -> &'static str {
        "gray"
    }

    fn summary(&self) -> &'static str {
        "gray-code counter; depth = counter bits (2..=12), width unused"
    }

    fn generate(&self, params: &GenParams) -> Scenario {
        let b = params.depth.clamp(2, 12);
        let params = GenParams {
            depth: b,
            width: params.width,
            seed: params.seed,
        };
        let mut rng = StdRng::seed_from_u64(params.seed ^ 0x6A41);
        let max = (1u128 << b) - 1;
        let ports: Vec<Port> = vec![
            ("clk", 1, false),
            ("reset_", 1, false),
            ("en", 1, false),
            ("count", b, true),
            ("gray", b, true),
        ];
        let gray_expr = "bin ^ (bin >> 1)".to_string();
        let mut design = String::from(
            "// Generated scenario: gray-code counter. The gray output is\n\
             // combinationally derived from the binary register, so the two\n\
             // encodings can never disagree.\n",
        );
        design.push_str(&header("gen_gray", &ports, false));
        design.push_str(&format!(
            "  reg [{msb}:0] bin;\n\
             \x20 assign count = bin;\n\
             \x20 assign gray = {gray_expr};\n\
             \x20 always_ff @(posedge clk or negedge reset_) begin\n\
             \x20   if (!reset_) begin\n\
             \x20     bin <= {zero};\n\
             \x20   end else begin\n\
             \x20     if (en) bin <= bin + {one};\n\
             \x20   end\n\
             \x20 end\n\
             endmodule\n",
            msb = b - 1,
            zero = lit(b, 0),
            one = lit(b, 1),
        ));

        let candidates = vec![
            provable(
                "gray_tracks_binary",
                asrt("(gray == (count ^ (count >> 1)))"),
                "that the gray output always equals the gray encoding of the binary \
                 count. Use the signals 'gray' and 'count'."
                    .into(),
            ),
            provable(
                "wraps_to_zero",
                asrt(&format!(
                    "(en && (count == {})) |-> ##1 (count == {})",
                    lit(b, max),
                    lit(b, 0)
                )),
                format!(
                    "that the counter {} after reaching its maximum value while \
                     enabled. Use the signals 'en' and 'count'.",
                    vary(&mut rng, &["wraps back to zero", "returns to zero"])
                ),
            ),
            provable(
                "single_bit_steps",
                asrt("en |-> ##1 $onehot(gray ^ $past(gray))"),
                "that the gray output changes by exactly one bit on every enabled \
                 step. Use the signals 'en' and 'gray'."
                    .into(),
            ),
            provable(
                "holds_when_disabled",
                asrt("(!en) |-> ##1 $stable(gray)"),
                "that the gray output holds its value while the counter is disabled. \
                 Use the signals 'en' and 'gray'."
                    .into(),
            ),
            falsifiable(
                "gray_equals_binary",
                asrt("(gray == count)"),
                "that the gray output always equals the binary count. \
                 Use the signals 'gray' and 'count'."
                    .into(),
            ),
            falsifiable(
                "count_never_moves",
                asrt("en |-> ##1 $stable(count)"),
                "that the binary count stays stable even while enabled. \
                 Use the signals 'en' and 'count'."
                    .into(),
            ),
        ];

        Scenario {
            id: scenario_id("gray", &params),
            family: "gray",
            params,
            logic_excerpt: gray_expr,
            design_source: design,
            tb_source: testbench_for("gen_gray", &ports),
            top: "gen_gray".into(),
            tb_top: "gen_gray_tb".into(),
            internal_signal: "bin".into(),
            candidates,
        }
    }
}

// ---------------------------------------------------------------------
// Family 5: shift register
// ---------------------------------------------------------------------

struct ShiftGen;

impl ScenarioGenerator for ShiftGen {
    fn family(&self) -> &'static str {
        "shift"
    }

    fn summary(&self) -> &'static str {
        "word shift register; depth = taps (1..=6), width = data width (1..=32)"
    }

    fn generate(&self, params: &GenParams) -> Scenario {
        let taps = params.depth.clamp(1, 6);
        let width = params.width.clamp(1, 32);
        let params = GenParams {
            depth: taps,
            width,
            seed: params.seed,
        };
        let mut rng = StdRng::seed_from_u64(params.seed ^ 0x5417);
        let zero = lit(width, 0);
        let ports: Vec<Port> = vec![
            ("clk", 1, false),
            ("reset_", 1, false),
            ("in_data", width, false),
            ("out_data", width, true),
            ("out_any", 1, true),
        ];
        let mut design = String::from(
            "// Generated scenario: always-enabled word shift register. The\n\
             // output is the input delayed by exactly one cycle per tap.\n",
        );
        design.push_str(&header("gen_shift", &ports, false));
        for i in 0..taps {
            design.push_str(&format!("  reg [{}:0] stage_{i};\n", width - 1));
        }
        design.push_str(&format!(
            "  assign out_data = stage_{last};\n\
             \x20 assign out_any = (stage_{last} != {zero});\n\
             \x20 always_ff @(posedge clk or negedge reset_) begin\n\
             \x20   if (!reset_) begin\n",
            last = taps - 1,
        ));
        for i in 0..taps {
            design.push_str(&format!("      stage_{i} <= {zero};\n"));
        }
        design.push_str("    end else begin\n      stage_0 <= in_data;\n");
        for i in 1..taps {
            design.push_str(&format!("      stage_{i} <= stage_{};\n", i - 1));
        }
        design.push_str("    end\n  end\nendmodule\n");

        let candidates = vec![
            provable(
                "nonzero_propagates",
                asrt(&format!(
                    "(in_data != {zero}) |-> ##{taps} (out_data != {zero})"
                )),
                format!(
                    "that a non-zero input word {} exactly {taps} cycle(s) later. \
                     Use the signals 'in_data' and 'out_data'.",
                    vary(
                        &mut rng,
                        &["reaches the output", "appears as a non-zero output"]
                    )
                ),
            ),
            provable(
                "zero_propagates",
                asrt(&format!(
                    "(in_data == {zero}) |-> ##{taps} (out_data == {zero})"
                )),
                format!(
                    "that a zero input word yields a zero output exactly {taps} \
                     cycle(s) later. Use the signals 'in_data' and 'out_data'."
                ),
            ),
            provable(
                "flag_mirrors_output",
                asrt(&format!("(out_any == (out_data != {zero}))")),
                "that the non-zero flag always mirrors whether the output word is \
                 non-zero. Use the signals 'out_any' and 'out_data'."
                    .into(),
            ),
            falsifiable(
                "wrong_latency",
                asrt(&format!(
                    "(in_data != {zero}) |-> ##{} (out_data != {zero})",
                    taps + 1
                )),
                format!(
                    "that a non-zero input word reaches the output {} cycle(s) later. \
                     Use the signals 'in_data' and 'out_data'.",
                    taps + 1
                ),
            ),
            falsifiable(
                "silent_output",
                asrt(&format!("(out_data == {zero})")),
                "that the output word is zero on every cycle. Use the signal \
                 'out_data'."
                    .into(),
            ),
        ];

        Scenario {
            id: scenario_id("shift", &params),
            family: "shift",
            params,
            logic_excerpt: format!("stage_0 <= in_data; ...; out_data = stage_{}", taps - 1),
            design_source: design,
            tb_source: testbench_for("gen_shift", &ports),
            top: "gen_shift".into(),
            tb_top: "gen_shift_tb".into(),
            internal_signal: "stage_0".into(),
            candidates,
        }
    }
}

// ---------------------------------------------------------------------
// Family 6: parity/CRC pipeline
// ---------------------------------------------------------------------

struct CrcGen;

impl ScenarioGenerator for CrcGen {
    fn family(&self) -> &'static str {
        "crc"
    }

    fn summary(&self) -> &'static str {
        "XOR-scrambling parity pipeline; depth = stages (1..=5), width = word width (2..=16)"
    }

    fn generate(&self, params: &GenParams) -> Scenario {
        let stages = params.depth.clamp(1, 5);
        let width = params.width.clamp(2, 16);
        let params = GenParams {
            depth: stages,
            width,
            seed: params.seed,
        };
        let mut rng = StdRng::seed_from_u64(params.seed ^ 0xC4C1);
        let zero = lit(width, 0);
        // Per-stage scrambling constants are the seeded part of the
        // structure: the zero-input signature below depends on them.
        let consts: Vec<u128> = (0..stages)
            .map(|_| u128::from(rng.gen_range(1..(1u64 << width.min(63)))))
            .collect();
        let signature: u128 = consts.iter().fold(0, |acc, c| acc ^ c);

        let ports: Vec<Port> = vec![
            ("clk", 1, false),
            ("reset_", 1, false),
            ("in_vld", 1, false),
            ("in_data", width, false),
            ("out_vld", 1, true),
            ("out_data", width, true),
            ("out_parity", 1, true),
        ];
        let mut design = String::from(
            "// Generated scenario: XOR-scrambling parity pipeline. Each stage\n\
             // folds a fixed constant into the word; the parity flag is the\n\
             // XOR reduction of the final word.\n",
        );
        design.push_str(&header("gen_crc", &ports, false));
        for i in 0..stages {
            design.push_str(&format!(
                "  reg vld_{i};\n  reg [{}:0] data_{i};\n",
                width - 1
            ));
        }
        design.push_str(&format!(
            "  assign out_vld = vld_{last};\n\
             \x20 assign out_data = data_{last};\n\
             \x20 assign out_parity = (^data_{last});\n\
             \x20 always_ff @(posedge clk or negedge reset_) begin\n\
             \x20   if (!reset_) begin\n",
            last = stages - 1,
        ));
        for i in 0..stages {
            design.push_str(&format!(
                "      vld_{i} <= 1'b0;\n      data_{i} <= {zero};\n"
            ));
        }
        design.push_str(&format!(
            "    end else begin\n\
             \x20     vld_0 <= in_vld;\n\
             \x20     data_0 <= in_data ^ {};\n",
            lit(width, consts[0])
        ));
        for i in 1..stages {
            design.push_str(&format!(
                "      vld_{i} <= vld_{prev};\n      data_{i} <= data_{prev} ^ {};\n",
                lit(width, consts[i as usize]),
                prev = i - 1,
            ));
        }
        design.push_str("    end\n  end\nendmodule\n");

        let excerpt = consts
            .iter()
            .map(|c| format!("data ^ {}", lit(width, *c)))
            .collect::<Vec<_>>()
            .join(";\n");

        let candidates = vec![
            provable(
                "latency",
                asrt(&format!("in_vld |-> ##{stages} out_vld")),
                format!(
                    "that a valid input {} exactly {stages} cycle(s) later. \
                     Use the signals 'in_vld' and 'out_vld'.",
                    vary(
                        &mut rng,
                        &[
                            "produces a valid output",
                            "is answered by an asserted output valid"
                        ]
                    )
                ),
            ),
            provable(
                "parity_definition",
                asrt("(out_parity == (^out_data))"),
                "that the parity flag always equals the XOR reduction of the output \
                 word. Use the signals 'out_parity' and 'out_data'."
                    .into(),
            ),
            provable(
                "zero_signature",
                asrt(&format!(
                    "(in_data == {zero}) |-> ##{stages} (out_data == {})",
                    lit(width, signature)
                )),
                format!(
                    "that a zero input word emerges {stages} cycle(s) later as the \
                     pipeline's scrambling signature {}. Use the signals 'in_data' \
                     and 'out_data'.",
                    lit(width, signature)
                ),
            ),
            falsifiable(
                "wrong_latency",
                asrt(&format!("in_vld |-> ##{} out_vld", stages + 1)),
                format!(
                    "that a valid input produces a valid output {} cycle(s) later. \
                     Use the signals 'in_vld' and 'out_vld'.",
                    stages + 1
                ),
            ),
            falsifiable(
                "inverted_parity",
                asrt("(out_parity == (!(^out_data)))"),
                "that the parity flag equals the inverted XOR reduction of the \
                 output word. Use the signals 'out_parity' and 'out_data'."
                    .into(),
            ),
        ];

        Scenario {
            id: scenario_id("crc", &params),
            family: "crc",
            params,
            logic_excerpt: excerpt,
            design_source: design,
            tb_source: testbench_for("gen_crc", &ports),
            top: "gen_crc".into(),
            tb_top: "gen_crc_tb".into(),
            internal_signal: "data_0".into(),
            candidates,
        }
    }
}

// ---------------------------------------------------------------------
// Family 7: deep-inductive wrap counter (PDR-only headline invariant)
// ---------------------------------------------------------------------

/// Size of the unreachable top band. Must exceed the bounded
/// schedule's deepest k-induction step (6): a band state
/// `MAX - BAND + 1 + i` needs `BAND - 1 - i` ticks to climb to `MAX`,
/// so the induction step has counterexamples-to-induction at every k
/// up to the band size — and because `tick = 0` self-loops stretch any
/// such path arbitrarily, at every k beyond it too.
const DEEP_BAND: u128 = 8;

struct DeepCntGen;

impl ScenarioGenerator for DeepCntGen {
    fn family(&self) -> &'static str {
        "deepcnt"
    }

    fn summary(&self) -> &'static str {
        "wrap-at-limit counter with an unreachable top band; depth = counter bits (5..=10), \
         width = lap counter bits (2..=8); headline invariant needs the PDR engine"
    }

    fn in_default_suite(&self) -> bool {
        // The headline candidate is undecidable for the bounded
        // schedule, so default (bounded-engine) suites exclude the
        // family; select it explicitly to exercise the portfolio.
        false
    }

    fn generate(&self, params: &GenParams) -> Scenario {
        let w = params.depth.clamp(5, 10);
        let lw = params.width.clamp(2, 8);
        let params = GenParams {
            depth: w,
            width: lw,
            seed: params.seed,
        };
        let mut rng = StdRng::seed_from_u64(params.seed ^ 0xDEE9);
        let max = (1u128 << w) - 1;
        let limit = max - DEEP_BAND; // wrap point; band = limit+1 ..= max
        let lap_max = (1u128 << lw) - 1;
        let lap_sat = lap_max - 1; // lap counter saturates below all-ones
        let ports: Vec<Port> = vec![
            ("clk", 1, false),
            ("reset_", 1, false),
            ("tick", 1, false),
            ("q", w, true),
            ("lap", lw, true),
            ("wrapped", 1, true),
        ];
        // The `==` wrap comparison is the point of this family (see the
        // module docs): from an *unreachable* band state the counter
        // climbs straight to all-ones, so `q != MAX` has
        // counterexamples-to-induction at every k even though every
        // *reachable* state satisfies it. Only a reachability-aware
        // engine (IC3/PDR) closes the proof.
        let wrap = format!("(cnt == {})", lit(w, limit));
        let mut design = String::from(
            "// Generated scenario: wrap-at-limit counter. The wrap compare is\n\
             // an exact equality, leaving an unreachable top band from which\n\
             // the counter would climb to all-ones — the headline invariant\n\
             // is true but not k-inductive for any k.\n",
        );
        design.push_str(&header("gen_deepcnt", &ports, false));
        design.push_str(&format!(
            "  reg [{cmsb}:0] cnt;\n\
             \x20 reg [{lmsb}:0] laps;\n\
             \x20 assign q = cnt;\n\
             \x20 assign lap = laps;\n\
             \x20 assign wrapped = {wrap};\n\
             \x20 always_ff @(posedge clk or negedge reset_) begin\n\
             \x20   if (!reset_) begin\n\
             \x20     cnt <= {czero};\n\
             \x20     laps <= {lzero};\n\
             \x20   end else begin\n\
             \x20     if (tick) begin\n\
             \x20       if ({wrap}) begin\n\
             \x20         cnt <= {czero};\n\
             \x20         if (laps < {lsat}) laps <= laps + {lone};\n\
             \x20       end else begin\n\
             \x20         cnt <= cnt + {cone};\n\
             \x20       end\n\
             \x20     end\n\
             \x20   end\n\
             \x20 end\n\
             endmodule\n",
            cmsb = w - 1,
            lmsb = lw - 1,
            czero = lit(w, 0),
            lzero = lit(lw, 0),
            cone = lit(w, 1),
            lone = lit(lw, 1),
            lsat = lit(lw, lap_sat),
        ));

        let candidates = vec![
            provable(
                "top_band_unreachable",
                asrt(&format!("(q != {})", lit(w, max))),
                format!(
                    "that the counter {} its all-ones value {max}. \
                     Use the signal 'q'.",
                    vary(&mut rng, &["never reaches", "can never attain"])
                ),
            ),
            provable(
                "wrap_flag_definition",
                asrt(&format!("(wrapped == (q == {}))", lit(w, limit))),
                format!(
                    "that the wrap flag is asserted exactly while the count sits at \
                     its wrap limit {limit}. Use the signals 'wrapped' and 'q'."
                ),
            ),
            provable(
                "lap_never_overflows",
                asrt(&format!("(lap != {})", lit(lw, lap_max))),
                format!(
                    "that the saturating lap counter {} its all-ones value {lap_max}. \
                     Use the signal 'lap'.",
                    vary(&mut rng, &["never reaches", "stops short of"])
                ),
            ),
            falsifiable(
                "small_count_unreachable",
                asrt(&format!("(q != {})", lit(w, 3))),
                "that the count never equals 3. Use the signal 'q'.".into(),
            ),
            falsifiable(
                "tick_keeps_count",
                asrt(&format!(
                    "(tick && (q == {z})) |-> ##1 (q == {z})",
                    z = lit(w, 0)
                )),
                "that the count stays at zero across a ticked cycle. \
                 Use the signals 'tick' and 'q'."
                    .into(),
            ),
        ];

        Scenario {
            id: scenario_id("deepcnt", &params),
            family: "deepcnt",
            params,
            logic_excerpt: wrap,
            design_source: design,
            tb_source: testbench_for("gen_deepcnt", &ports),
            top: "gen_deepcnt".into(),
            tb_top: "gen_deepcnt_tb".into(),
            internal_signal: "cnt".into(),
            candidates,
        }
    }
}

// ---------------------------------------------------------------------
// Family 8: register file with write-forwarding
// ---------------------------------------------------------------------

struct RegfileGen;

impl ScenarioGenerator for RegfileGen {
    fn family(&self) -> &'static str {
        "regfile"
    }

    fn summary(&self) -> &'static str {
        "write-forwarding register file; depth = address bits (1..=3), width = data width (2..=32)"
    }

    fn generate(&self, params: &GenParams) -> Scenario {
        let aw = params.depth.clamp(1, 3);
        let width = params.width.clamp(2, 32);
        let params = GenParams {
            depth: aw,
            width,
            seed: params.seed,
        };
        let mut rng = StdRng::seed_from_u64(params.seed ^ 0x12F1);
        // Exactly 2^aw registers: every read address maps to a
        // register, so the read mux is total and `write_persists`
        // stays 1-inductive from any starting state.
        let n = 1u32 << aw;
        let ports: Vec<Port> = vec![
            ("clk", 1, false),
            ("reset_", 1, false),
            ("wr_en", 1, false),
            ("wr_addr", aw, false),
            ("wr_data", width, false),
            ("rd_addr", aw, false),
            ("rd_data", width, true),
            ("fwd", 1, true),
        ];
        let mut read_mux = String::new();
        for i in 0..n - 1 {
            read_mux.push_str(&format!(
                "(rd_addr == {}) ? r{} : ",
                lit(aw, u128::from(i)),
                i
            ));
        }
        read_mux.push_str(&format!("r{}", n - 1));
        let mut design = String::from(
            "// Generated scenario: register file with same-cycle write\n\
             // forwarding. A read of the address being written observes the\n\
             // incoming data, not the stale register contents.\n",
        );
        design.push_str(&header("gen_regfile", &ports, false));
        for i in 0..n {
            design.push_str(&format!("  reg [{}:0] r{};\n", width - 1, i));
        }
        design.push_str(&format!(
            "  wire [{msb}:0] raw;\n\
             \x20 assign raw = {read_mux};\n\
             \x20 assign fwd = wr_en && (wr_addr == rd_addr);\n\
             \x20 assign rd_data = fwd ? wr_data : raw;\n\
             \x20 always_ff @(posedge clk or negedge reset_) begin\n\
             \x20   if (!reset_) begin\n",
            msb = width - 1,
        ));
        for i in 0..n {
            design.push_str(&format!("      r{} <= {};\n", i, lit(width, 0)));
        }
        design.push_str("    end else begin\n");
        for i in 0..n {
            design.push_str(&format!(
                "      if (wr_en && (wr_addr == {})) r{} <= wr_data;\n",
                lit(aw, u128::from(i)),
                i
            ));
        }
        design.push_str("    end\n  end\nendmodule\n");

        let candidates = vec![
            provable(
                "forward_wins",
                asrt("(wr_en && (wr_addr == rd_addr)) |-> (rd_data == wr_data)"),
                format!(
                    "that {} the read port returns the data being written. \
                     Use the signals 'wr_en', 'wr_addr', 'rd_addr', 'rd_data', and 'wr_data'.",
                    vary(
                        &mut rng,
                        &[
                            "when a write hits the address being read,",
                            "whenever the read and write addresses collide on an active write,",
                        ]
                    )
                ),
            ),
            provable(
                "fwd_definition",
                asrt("(fwd == (wr_en && (wr_addr == rd_addr)))"),
                "that the forwarding indicator is asserted exactly on a same-address \
                 active write. Use the signals 'fwd', 'wr_en', 'wr_addr', and 'rd_addr'."
                    .into(),
            ),
            provable(
                "write_persists",
                asrt(
                    "(wr_en ##1 (!wr_en && (rd_addr == $past(wr_addr)))) |-> \
                     (rd_data == $past(wr_data))",
                ),
                "that data written one cycle earlier is read back unchanged when the \
                 written address is read with no new write in flight. Use the signals \
                 'wr_en', 'rd_addr', 'wr_addr', 'rd_data', and 'wr_data'."
                    .into(),
            ),
            falsifiable(
                "always_forwards",
                asrt("(rd_data == wr_data)"),
                "that the read port always returns the write-port data. \
                 Use the signals 'rd_data' and 'wr_data'."
                    .into(),
            ),
            falsifiable(
                "forward_sticks",
                asrt("fwd |-> ##1 fwd"),
                "that once forwarding kicks in it stays active on the next cycle. \
                 Use the signal 'fwd'."
                    .into(),
            ),
        ];

        Scenario {
            id: scenario_id("regfile", &params),
            family: "regfile",
            params,
            logic_excerpt: read_mux,
            design_source: design,
            tb_source: testbench_for("gen_regfile", &ports),
            top: "gen_regfile".into(),
            tb_top: "gen_regfile_tb".into(),
            internal_signal: "raw".into(),
            candidates,
        }
    }
}

// ---------------------------------------------------------------------
// Family 9: pipelined datapath with hazard stalls
// ---------------------------------------------------------------------

struct PipelineGen;

impl ScenarioGenerator for PipelineGen {
    fn family(&self) -> &'static str {
        "pipeline"
    }

    fn summary(&self) -> &'static str {
        "stallable valid/data pipeline; depth = stages (2..=4), width = data width (2..=32)"
    }

    fn generate(&self, params: &GenParams) -> Scenario {
        let stages = params.depth.clamp(2, 4);
        let width = params.width.clamp(2, 32);
        let params = GenParams {
            depth: stages,
            width,
            seed: params.seed,
        };
        let mut rng = StdRng::seed_from_u64(params.seed ^ 0x3147);
        let ports: Vec<Port> = vec![
            ("clk", 1, false),
            ("reset_", 1, false),
            ("in_vld", 1, false),
            ("in_data", width, false),
            ("stall", 1, false),
            ("out_vld", 1, true),
            ("out_data", width, true),
        ];
        let mut design = String::from(
            "// Generated scenario: in-order pipeline with a hazard stall.\n\
             // While the stall input is asserted every stage register holds its\n\
             // value; otherwise valid bits and data advance one stage per\n\
             // cycle.\n",
        );
        design.push_str(&header("gen_pipeline", &ports, false));
        for i in 0..stages {
            design.push_str(&format!("  reg v{i};\n  reg [{}:0] d{i};\n", width - 1));
        }
        design.push_str(&format!(
            "  assign out_vld = v{last};\n\
             \x20 assign out_data = d{last};\n\
             \x20 always_ff @(posedge clk or negedge reset_) begin\n\
             \x20   if (!reset_) begin\n",
            last = stages - 1,
        ));
        for i in 0..stages {
            design.push_str(&format!(
                "      v{i} <= 1'b0;\n      d{i} <= {};\n",
                lit(width, 0)
            ));
        }
        design.push_str(
            "    end else begin\n\
             \x20     if (!stall) begin\n\
             \x20       v0 <= in_vld;\n\
             \x20       d0 <= in_data;\n",
        );
        for i in 1..stages {
            design.push_str(&format!(
                "        v{i} <= v{};\n        d{i} <= d{};\n",
                i - 1,
                i - 1
            ));
        }
        design.push_str("      end\n    end\n  end\nendmodule\n");

        // `(in_vld && !stall) ##1 !stall ##1 ... |-> ##1 out_vld`:
        // the launch plus `stages - 1` stall-free cycles walk the entry
        // to the last stage.
        let free_run = |head: &str| {
            let mut s = String::from(head);
            for _ in 1..stages {
                s.push_str(" ##1 (!stall)");
            }
            s
        };

        let candidates = vec![
            provable(
                "stall_freezes",
                asrt("stall |-> ##1 ($stable(out_vld) && $stable(out_data))"),
                format!(
                    "that {} both output valid and output data hold their values into \
                     the next cycle. Use the signals 'stall', 'out_vld', and 'out_data'.",
                    vary(
                        &mut rng,
                        &[
                            "while the pipeline is stalled,",
                            "whenever the hazard stall is asserted,",
                        ]
                    )
                ),
            ),
            provable(
                "flow_latency",
                asrt(&format!(
                    "({}) |-> ##1 out_vld",
                    free_run("(in_vld && !stall)")
                )),
                format!(
                    "that an entry accepted into a stall-free pipeline emerges valid \
                     after exactly {stages} cycles. Use the signals 'in_vld', 'stall', \
                     and 'out_vld'."
                ),
            ),
            provable(
                "bubble_flushes",
                asrt(&format!(
                    "({}) |-> ##1 (!out_vld)",
                    free_run("(!in_vld && !stall)")
                )),
                format!(
                    "that a bubble inserted into a stall-free pipeline reaches the \
                     output as an invalid cycle after {stages} cycles. Use the signals \
                     'in_vld', 'stall', and 'out_vld'."
                ),
            ),
            falsifiable(
                "no_stall_needed",
                asrt(&format!("in_vld |-> ##{stages} out_vld")),
                format!(
                    "that any accepted input reaches the output valid after {stages} \
                     cycles regardless of stalls. Use the signals 'in_vld' and 'out_vld'."
                ),
            ),
            falsifiable(
                "stall_passes",
                asrt("stall |-> ##1 out_vld"),
                "that the output is valid on the cycle after any stall. \
                 Use the signals 'stall' and 'out_vld'."
                    .into(),
            ),
        ];

        Scenario {
            id: scenario_id("pipeline", &params),
            family: "pipeline",
            params,
            logic_excerpt: format!("v0 <= in_vld; ...; v{} <= v{}", stages - 1, stages - 2),
            design_source: design,
            tb_source: testbench_for("gen_pipeline", &ports),
            top: "gen_pipeline".into(),
            tb_top: "gen_pipeline_tb".into(),
            internal_signal: "v0".into(),
            candidates,
        }
    }
}

// ---------------------------------------------------------------------
// Family 10: AXI-lite-style request/response protocol checker
// ---------------------------------------------------------------------

struct AxiGen;

impl ScenarioGenerator for AxiGen {
    fn family(&self) -> &'static str {
        "axi"
    }

    fn summary(&self) -> &'static str {
        "AXI-lite-style single-outstanding request/response channel; width = data width (2..=32), depth unused"
    }

    fn generate(&self, params: &GenParams) -> Scenario {
        let width = params.width.clamp(2, 32);
        let params = GenParams {
            depth: params.depth,
            width,
            seed: params.seed,
        };
        let mut rng = StdRng::seed_from_u64(params.seed ^ 0x0A71);
        let ports: Vec<Port> = vec![
            ("clk", 1, false),
            ("reset_", 1, false),
            ("req_vld", 1, false),
            ("req_data", width, false),
            ("resp_rdy", 1, false),
            ("req_rdy", 1, true),
            ("resp_vld", 1, true),
            ("resp_data", width, true),
        ];
        let mut design = String::from(
            "// Generated scenario: single-outstanding request/response\n\
             // channel in the AXI-lite style. A request is accepted only\n\
             // while idle; the response stays valid, with stable payload,\n\
             // until the master takes it.\n",
        );
        design.push_str(&header("gen_axi", &ports, false));
        design.push_str(&format!(
            "  reg busy;\n\
             \x20 reg [{msb}:0] held;\n\
             \x20 assign req_rdy = !busy;\n\
             \x20 assign resp_vld = busy;\n\
             \x20 assign resp_data = held;\n\
             \x20 always_ff @(posedge clk or negedge reset_) begin\n\
             \x20   if (!reset_) begin\n\
             \x20     busy <= 1'b0;\n\
             \x20     held <= {zero};\n\
             \x20   end else begin\n\
             \x20     if (req_vld && !busy) begin\n\
             \x20       busy <= 1'b1;\n\
             \x20       held <= req_data;\n\
             \x20     end else if (busy && resp_rdy) begin\n\
             \x20       busy <= 1'b0;\n\
             \x20     end\n\
             \x20   end\n\
             \x20 end\n\
             endmodule\n",
            msb = width - 1,
            zero = lit(width, 0),
        ));

        let candidates = vec![
            provable(
                "resp_excludes_ready",
                asrt("resp_vld |-> (!req_rdy)"),
                format!(
                    "that {} the channel never advertises request readiness. \
                     Use the signals 'resp_vld' and 'req_rdy'.",
                    vary(
                        &mut rng,
                        &[
                            "while a response is pending,",
                            "whenever the response channel is occupied,",
                        ]
                    )
                ),
            ),
            provable(
                "accept_brings_resp",
                asrt("(req_vld && req_rdy) |-> ##1 resp_vld"),
                "that an accepted request produces a valid response on the next \
                 cycle. Use the signals 'req_vld', 'req_rdy', and 'resp_vld'."
                    .into(),
            ),
            provable(
                "resp_held_until_taken",
                asrt("(resp_vld && !resp_rdy) |-> ##1 (resp_vld && $stable(resp_data))"),
                "that a response the master is not yet accepting stays valid with \
                 unchanged payload. Use the signals 'resp_vld', 'resp_rdy', and \
                 'resp_data'."
                    .into(),
            ),
            provable(
                "echo_data",
                asrt("(req_vld && req_rdy) |-> ##1 (resp_data == $past(req_data))"),
                "that the response payload equals the request payload captured at \
                 acceptance. Use the signals 'req_vld', 'req_rdy', 'resp_data', and \
                 'req_data'."
                    .into(),
            ),
            falsifiable(
                "always_ready",
                asrt("req_rdy"),
                "that the channel accepts a new request on every cycle. \
                 Use the signal 'req_rdy'."
                    .into(),
            ),
            falsifiable(
                "instant_resp",
                asrt("req_vld |-> resp_vld"),
                "that a response is valid in the same cycle the request is offered. \
                 Use the signals 'req_vld' and 'resp_vld'."
                    .into(),
            ),
        ];

        Scenario {
            id: scenario_id("axi", &params),
            family: "axi",
            params,
            logic_excerpt: "req_rdy = !busy; resp_vld = busy".into(),
            design_source: design,
            tb_source: testbench_for("gen_axi", &ports),
            top: "gen_axi".into(),
            tb_top: "gen_axi_tb".into(),
            internal_signal: "busy".into(),
            candidates,
        }
    }
}

// ---------------------------------------------------------------------
// Family 11: cross-module property over an instantiated hierarchy
// ---------------------------------------------------------------------

struct HierGen;

impl ScenarioGenerator for HierGen {
    fn family(&self) -> &'static str {
        "hier"
    }

    fn summary(&self) -> &'static str {
        "two instantiated counter cells with cross-module properties; depth = counter bits (2..=10), width unused"
    }

    fn generate(&self, params: &GenParams) -> Scenario {
        let b = params.depth.clamp(2, 10);
        let params = GenParams {
            depth: b,
            width: params.width,
            seed: params.seed,
        };
        let mut rng = StdRng::seed_from_u64(params.seed ^ 0x417E);
        let ports: Vec<Port> = vec![
            ("clk", 1, false),
            ("reset_", 1, false),
            ("en", 1, false),
            ("q0", b, true),
            ("q1", b, true),
            ("total", b, true),
            ("agree", 1, true),
        ];
        let cell_ports: Vec<Port> = vec![
            ("clk", 1, false),
            ("reset_", 1, false),
            ("en", 1, false),
            ("q", b, true),
        ];
        let mut design = String::from(
            "// Generated scenario: instantiated hierarchy. Two copies of\n\
             // the same counter cell run in lockstep off a shared enable;\n\
             // the top level exposes cross-module sums and comparisons, so\n\
             // every property here spans instance boundaries after\n\
             // elaboration inlines the cell0/cell1 instances.\n",
        );
        design.push_str(&header("gen_hier_cell", &cell_ports, false));
        design.push_str(&format!(
            "  reg [{msb}:0] cnt;\n\
             \x20 assign q = cnt;\n\
             \x20 always_ff @(posedge clk or negedge reset_) begin\n\
             \x20   if (!reset_) begin\n\
             \x20     cnt <= {zero};\n\
             \x20   end else begin\n\
             \x20     if (en) cnt <= cnt + {one};\n\
             \x20   end\n\
             \x20 end\n\
             endmodule\n\n",
            msb = b - 1,
            zero = lit(b, 0),
            one = lit(b, 1),
        ));
        design.push_str(&header("gen_hier", &ports, false));
        design.push_str(&format!(
            "  wire [{msb}:0] q0_w;\n\
             \x20 wire [{msb}:0] q1_w;\n\
             \x20 gen_hier_cell cell0 (.clk(clk), .reset_(reset_), .en(en), .q(q0_w));\n\
             \x20 gen_hier_cell cell1 (.clk(clk), .reset_(reset_), .en(en), .q(q1_w));\n\
             \x20 assign q0 = q0_w;\n\
             \x20 assign q1 = q1_w;\n\
             \x20 assign total = q0_w + q1_w;\n\
             \x20 assign agree = (q0_w == q1_w);\n\
             endmodule\n",
            msb = b - 1,
        ));

        let candidates = vec![
            provable(
                "lockstep",
                asrt("(q0 == q1)"),
                format!(
                    "that the two counter instances {}. Use the signals 'q0' and 'q1'.",
                    vary(
                        &mut rng,
                        &[
                            "always hold identical counts",
                            "never diverge from one another",
                        ]
                    )
                ),
            ),
            provable(
                "agree_definition",
                asrt("(agree == (q0 == q1))"),
                "that the agreement flag is asserted exactly while both instance \
                 counts match. Use the signals 'agree', 'q0', and 'q1'."
                    .into(),
            ),
            provable(
                "total_definition",
                asrt("(total == (q0 + q1))"),
                "that the exported total equals the wrapping sum of both instance \
                 counts. Use the signals 'total', 'q0', and 'q1'."
                    .into(),
            ),
            falsifiable(
                "diverged",
                asrt("(q0 != q1)"),
                "that the two instance counts always differ. \
                 Use the signals 'q0' and 'q1'."
                    .into(),
            ),
            falsifiable(
                "frozen",
                asrt("en |-> ##1 $stable(q0)"),
                "that the first instance count never changes across an enabled \
                 cycle. Use the signals 'en' and 'q0'."
                    .into(),
            ),
        ];

        Scenario {
            id: scenario_id("hier", &params),
            family: "hier",
            params,
            logic_excerpt: "total = q0_w + q1_w".into(),
            design_source: design,
            tb_source: testbench_for("gen_hier", &ports),
            top: "gen_hier".into(),
            tb_top: "gen_hier_tb".into(),
            internal_signal: "q0_w".into(),
            candidates,
        }
    }
}

// ---------------------------------------------------------------------
// Family 12: one-hot token ring
// ---------------------------------------------------------------------

struct RingGen;

impl ScenarioGenerator for RingGen {
    fn family(&self) -> &'static str {
        "ring"
    }

    fn summary(&self) -> &'static str {
        "one-hot rotating token ring; depth = ring positions (2..=8), width unused"
    }

    fn generate(&self, params: &GenParams) -> Scenario {
        let n = params.depth.clamp(2, 8);
        let params = GenParams {
            depth: n,
            width: params.width,
            seed: params.seed,
        };
        let mut rng = StdRng::seed_from_u64(params.seed ^ 0x1216);
        let ports: Vec<Port> = vec![
            ("clk", 1, false),
            ("reset_", 1, false),
            ("adv", 1, false),
            ("pos", n, true),
        ];
        let rotate = format!("{{tok[{}:0], tok[{}]}}", n - 2, n - 1);
        let mut design = String::from(
            "// Generated scenario: one-hot token ring. Exactly one position\n\
             // holds the token; an advance rotates it one slot left, with\n\
             // wrap-around from the top slot back to slot 0.\n",
        );
        design.push_str(&header("gen_ring", &ports, false));
        design.push_str(&format!(
            "  reg [{msb}:0] tok;\n\
             \x20 assign pos = tok;\n\
             \x20 always_ff @(posedge clk or negedge reset_) begin\n\
             \x20   if (!reset_) begin\n\
             \x20     tok <= {one};\n\
             \x20   end else begin\n\
             \x20     if (adv) tok <= {rotate};\n\
             \x20   end\n\
             \x20 end\n\
             endmodule\n",
            msb = n - 1,
            one = lit(n, 1),
        ));

        let candidates = vec![
            provable(
                "one_hot_token",
                asrt("$onehot(pos)"),
                format!(
                    "that {} exactly one ring position holds the token. \
                     Use the signal 'pos'.",
                    vary(&mut rng, &["on every cycle", "at all times"])
                ),
            ),
            provable(
                "hold_when_idle",
                asrt("(!adv) |-> ##1 $stable(pos)"),
                "that the token does not move across a cycle without an advance \
                 request. Use the signals 'adv' and 'pos'."
                    .into(),
            ),
            provable(
                "token_advances",
                asrt("(adv && pos[0]) |-> ##1 pos[1]"),
                "that advancing the token out of slot 0 lands it in slot 1 on the \
                 next cycle. Use the signals 'adv' and 'pos'."
                    .into(),
            ),
            falsifiable(
                "head_stays",
                asrt("pos[0] |-> ##1 pos[0]"),
                "that the token, once in slot 0, remains there on the next cycle. \
                 Use the signal 'pos'."
                    .into(),
            ),
            falsifiable(
                "all_idle",
                asrt(&format!("(pos == {})", lit(n, 1))),
                "that the token never leaves its reset slot. Use the signal 'pos'.".into(),
            ),
        ];

        Scenario {
            id: scenario_id("ring", &params),
            family: "ring",
            params,
            logic_excerpt: rotate,
            design_source: design,
            tb_source: testbench_for("gen_ring", &ports),
            top: "gen_ring".into(),
            tb_top: "gen_ring_tb".into(),
            internal_signal: "tok".into(),
            candidates,
        }
    }
}
