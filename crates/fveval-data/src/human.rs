//! NL2SVA-Human: expert-written testbenches and their 79 assertion
//! specifications (Table 6 of the paper: 4×1R1W FIFO, 1×multi-port
//! FIFO, 4×arbiter, 2×FSM, 1×counter, 1×RAM).

use fv_core::SignalTable;
use sv_parser::parse_source;
use sv_synth::elaborate;

/// One testbench variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Testbench {
    /// Short name (also the case-id prefix).
    pub name: &'static str,
    /// Design class for Table 6 grouping.
    pub class: &'static str,
    /// Top module name inside `source`.
    pub top: &'static str,
    /// Full SystemVerilog source.
    pub source: &'static str,
}

/// One NL-specification-to-assertion test case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HumanCase {
    /// Unique id, e.g. `fifo_1r1w_3`.
    pub id: String,
    /// Name of the owning testbench scope (a shipped [`Testbench`]
    /// name, or a generated scenario id for `fveval-gen` task sets).
    pub testbench: String,
    /// The natural-language specification shown to the model.
    pub question: String,
    /// The expert-written reference assertion (concrete SVA).
    pub reference: String,
    /// The OP-Tree mutation operator tag (`opswap`, `offbyone`, ...)
    /// when the case's reference was derived by the `fveval-gen`
    /// mutation layer; `None` for shipped and family-authored cases.
    pub mutation: Option<String>,
}

/// All 13 testbench variants.
pub fn testbenches() -> Vec<Testbench> {
    vec![
        Testbench {
            name: "fifo_1r1w",
            class: "1R1W FIFO",
            top: "fifo_1r1w_tb",
            source: include_str!("../testbenches/fifo_1r1w.sv"),
        },
        Testbench {
            name: "fifo_1r1w_bypass",
            class: "1R1W FIFO",
            top: "fifo_1r1w_bypass_tb",
            source: include_str!("../testbenches/fifo_1r1w_bypass.sv"),
        },
        Testbench {
            name: "fifo_1r1w_depth8",
            class: "1R1W FIFO",
            top: "fifo_1r1w_depth8_tb",
            source: include_str!("../testbenches/fifo_1r1w_depth8.sv"),
        },
        Testbench {
            name: "fifo_1r1w_wide",
            class: "1R1W FIFO",
            top: "fifo_1r1w_wide_tb",
            source: include_str!("../testbenches/fifo_1r1w_wide.sv"),
        },
        Testbench {
            name: "fifo_multiport",
            class: "Multi-Port FIFO",
            top: "fifo_multiport_tb",
            source: include_str!("../testbenches/fifo_multiport.sv"),
        },
        Testbench {
            name: "arbiter_rr",
            class: "Arbiter",
            top: "arbiter_rr_tb",
            source: include_str!("../testbenches/arbiter_rr.sv"),
        },
        Testbench {
            name: "arbiter_fixed",
            class: "Arbiter",
            top: "arbiter_fixed_tb",
            source: include_str!("../testbenches/arbiter_fixed.sv"),
        },
        Testbench {
            name: "arbiter_reverse_priority",
            class: "Arbiter",
            top: "arbiter_reverse_priority_tb",
            source: include_str!("../testbenches/arbiter_reverse_priority.sv"),
        },
        Testbench {
            name: "arbiter_weighted",
            class: "Arbiter",
            top: "arbiter_weighted_tb",
            source: include_str!("../testbenches/arbiter_weighted.sv"),
        },
        Testbench {
            name: "fsm_handshake",
            class: "FSM",
            top: "fsm_handshake_tb",
            source: include_str!("../testbenches/fsm_handshake.sv"),
        },
        Testbench {
            name: "fsm_sequence",
            class: "FSM",
            top: "fsm_sequence_tb",
            source: include_str!("../testbenches/fsm_sequence.sv"),
        },
        Testbench {
            name: "counter",
            class: "Counter",
            top: "counter_tb",
            source: include_str!("../testbenches/counter.sv"),
        },
        Testbench {
            name: "ram_1r1w",
            class: "RAM",
            top: "ram_1r1w_tb",
            source: include_str!("../testbenches/ram_1r1w.sv"),
        },
    ]
}

/// Finds a testbench by name.
pub fn testbench(name: &str) -> Option<Testbench> {
    testbenches().into_iter().find(|t| t.name == name)
}

/// Builds the assertion-visible signal table of a testbench by
/// elaborating it with the repository's own front-end (see
/// [`SignalTable::from_netlist`] for which nets are in scope).
///
/// # Errors
///
/// Returns the elaboration error message if the testbench source does
/// not elaborate (covered by tests — all shipped testbenches do).
pub fn signal_table_for(tb: &Testbench) -> Result<SignalTable, String> {
    let file = parse_source(tb.source).map_err(|e| e.to_string())?;
    let netlist = elaborate(&file, tb.top).map_err(|e| e.to_string())?;
    Ok(SignalTable::from_netlist(&netlist))
}

fn case(id: &str, testbench: &str, question: &str, reference: &str) -> HumanCase {
    HumanCase {
        id: id.to_string(),
        testbench: testbench.to_string(),
        question: format!("Create a SVA assertion that checks: {question}"),
        reference: reference.to_string(),
        mutation: None,
    }
}

/// The full 79-case NL2SVA-Human dataset.
#[allow(clippy::vec_init_then_push)] // one push per dataset case, in paper order
pub fn human_cases() -> Vec<HumanCase> {
    let mut v = Vec::with_capacity(79);
    // ---- fifo_1r1w (5) — the paper's appendix set, verbatim. ----
    v.push(case(
        "fifo_1r1w_0",
        "fifo_1r1w",
        "that the FIFO does not underflow, assuming no bypass. Use the signals 'rd_pop' and 'fifo_empty'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (fifo_empty && rd_pop) !== 1'b1);",
    ));
    v.push(case(
        "fifo_1r1w_1",
        "fifo_1r1w",
        "that the FIFO does not overflow, assuming no bypass. Use the signals 'wr_push' and 'fifo_full'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (fifo_full && wr_push) !== 1'b1);",
    ));
    v.push(case(
        "fifo_1r1w_2",
        "fifo_1r1w",
        "that the fifo output and read data are consistent, assuming no bypass. Use the signals 'rd_pop', 'rd_data', and 'fifo_out_data'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (rd_pop && (fifo_out_data != rd_data)) !== 1'b1);",
    ));
    v.push(case(
        "fifo_1r1w_3",
        "fifo_1r1w",
        "that when response is pending, data is eventually popped from the FIFO. Use the signals 'rd_pop' and 'fifo_empty'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) !fifo_empty |-> strong(##[0:$] rd_pop));",
    ));
    v.push(case(
        "fifo_1r1w_4",
        "fifo_1r1w",
        "that when there is a write push to the FIFO, data is eventually popped. Use the signals 'rd_pop' and 'wr_push'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) wr_push |-> strong(##[0:$] rd_pop));",
    ));
    // ---- fifo_1r1w_bypass (5) ----
    v.push(case(
        "fifo_1r1w_bypass_0",
        "fifo_1r1w_bypass",
        "that the FIFO does not underflow except on a bypass. Use the signals 'rd_pop', 'fifo_empty', and 'bypass'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (fifo_empty && rd_pop && !bypass) !== 1'b1);",
    ));
    v.push(case(
        "fifo_1r1w_bypass_1",
        "fifo_1r1w_bypass",
        "that the FIFO does not overflow. Use the signals 'wr_push' and 'fifo_full'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (fifo_full && wr_push) !== 1'b1);",
    ));
    v.push(case(
        "fifo_1r1w_bypass_2",
        "fifo_1r1w_bypass",
        "that on a bypass the read data equals the write data. Use the signals 'bypass', 'rd_data', and 'wr_data'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (bypass && (rd_data != wr_data)) !== 1'b1);",
    ));
    v.push(case(
        "fifo_1r1w_bypass_3",
        "fifo_1r1w_bypass",
        "that a bypass only happens while the FIFO is empty. Use the signals 'bypass' and 'fifo_empty'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (bypass && !fifo_empty) !== 1'b1);",
    ));
    v.push(case(
        "fifo_1r1w_bypass_4",
        "fifo_1r1w_bypass",
        "that when there is a write push to the FIFO, data is eventually popped. Use the signals 'rd_pop' and 'wr_push'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) wr_push |-> strong(##[0:$] rd_pop));",
    ));
    // ---- fifo_1r1w_depth8 (5) ----
    v.push(case(
        "fifo_1r1w_depth8_0",
        "fifo_1r1w_depth8",
        "that the FIFO does not underflow. Use the signals 'rd_pop' and 'fifo_empty'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (fifo_empty && rd_pop) !== 1'b1);",
    ));
    v.push(case(
        "fifo_1r1w_depth8_1",
        "fifo_1r1w_depth8",
        "that the FIFO does not overflow. Use the signals 'wr_push' and 'fifo_full'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (fifo_full && wr_push) !== 1'b1);",
    ));
    v.push(case(
        "fifo_1r1w_depth8_2",
        "fifo_1r1w_depth8",
        "that the FIFO is never simultaneously full and empty. Use the signals 'fifo_full' and 'fifo_empty'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (fifo_full && fifo_empty) !== 1'b1);",
    ));
    v.push(case(
        "fifo_1r1w_depth8_3",
        "fifo_1r1w_depth8",
        "that a push into an empty FIFO without a simultaneous pop deasserts empty on the next cycle. Use the signals 'wr_push', 'rd_pop', and 'fifo_empty'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (wr_push && fifo_empty && !rd_pop) |=> !fifo_empty);",
    ));
    v.push(case(
        "fifo_1r1w_depth8_4",
        "fifo_1r1w_depth8",
        "that the occupancy count holds its value when there is no push and no pop. Use the signals 'wr_push', 'rd_pop', and 'fifo_count'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (!wr_push && !rd_pop) |=> $stable(fifo_count));",
    ));
    // ---- fifo_1r1w_wide (5) ----
    v.push(case(
        "fifo_1r1w_wide_0",
        "fifo_1r1w_wide",
        "that the fifo output and read data are consistent. Use the signals 'rd_pop', 'rd_data', and 'fifo_out_data'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (rd_pop && (fifo_out_data != rd_data)) !== 1'b1);",
    ));
    v.push(case(
        "fifo_1r1w_wide_1",
        "fifo_1r1w_wide",
        "that the FIFO does not underflow. Use the signals 'rd_pop' and 'fifo_empty'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (fifo_empty && rd_pop) !== 1'b1);",
    ));
    v.push(case(
        "fifo_1r1w_wide_2",
        "fifo_1r1w_wide",
        "that the FIFO does not overflow. Use the signals 'wr_push' and 'fifo_full'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (fifo_full && wr_push) !== 1'b1);",
    ));
    v.push(case(
        "fifo_1r1w_wide_3",
        "fifo_1r1w_wide",
        "that the FIFO is never simultaneously full and empty. Use the signals 'fifo_full' and 'fifo_empty'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (fifo_full && fifo_empty) !== 1'b1);",
    ));
    v.push(case(
        "fifo_1r1w_wide_4",
        "fifo_1r1w_wide",
        "that the read pointer holds its value when there is no push and no pop. Use the signals 'wr_push', 'rd_pop', and 'fifo_rd_ptr'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (!wr_push && !rd_pop) |=> $stable(fifo_rd_ptr));",
    ));
    // ---- fifo_multiport (6) ----
    v.push(case(
        "fifo_multiport_0",
        "fifo_multiport",
        "that the FIFO does not underflow. Use the signals 'rd_pop' and 'fifo_empty'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (fifo_empty && rd_pop) !== 1'b1);",
    ));
    v.push(case(
        "fifo_multiport_1",
        "fifo_multiport",
        "that no write port pushes while the FIFO is full. Use the signals 'wr_push0', 'wr_push1', and 'fifo_full'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (fifo_full && (wr_push0 || wr_push1)) !== 1'b1);",
    ));
    v.push(case(
        "fifo_multiport_2",
        "fifo_multiport",
        "that both write ports never push together when the FIFO is almost full. Use the signals 'wr_push0', 'wr_push1', and 'fifo_almost_full'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (fifo_almost_full && wr_push0 && wr_push1) !== 1'b1);",
    ));
    v.push(case(
        "fifo_multiport_3",
        "fifo_multiport",
        "that the occupancy count holds when there are no pushes and no pop. Use the signals 'push_count', 'rd_pop', and 'fifo_count'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) ((push_count == 'd0) && !rd_pop) |=> $stable(fifo_count));",
    ));
    v.push(case(
        "fifo_multiport_4",
        "fifo_multiport",
        "that when the FIFO is not empty, data is eventually popped. Use the signals 'rd_pop' and 'fifo_empty'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) !fifo_empty |-> strong(##[0:$] rd_pop));",
    ));
    v.push(case(
        "fifo_multiport_5",
        "fifo_multiport",
        "that a push on either write port is eventually followed by a pop. Use the signals 'wr_push0', 'wr_push1', and 'rd_pop'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (wr_push0 || wr_push1) |-> strong(##[0:$] rd_pop));",
    ));
    // ---- arbiter_rr (9) ----
    v.push(case(
        "arbiter_rr_0",
        "arbiter_rr",
        "whether starvation occurs, i.e. check that each request from client is eventually granted. Use the signals 'busy', 'tb_req', and 'tb_gnt'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (!busy && |tb_req && (tb_gnt == 'd0)) !== 1'b1);",
    ));
    v.push(case(
        "arbiter_rr_1",
        "arbiter_rr",
        "that at most one grant is active at a time. Use the signal 'tb_gnt'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) $onehot0(tb_gnt));",
    ));
    v.push(case(
        "arbiter_rr_2",
        "arbiter_rr",
        "that any grant goes to a requesting client. Use the signals 'tb_gnt' and 'tb_req'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) |tb_gnt |-> ((tb_gnt & tb_req) != 'd0));",
    ));
    v.push(case(
        "arbiter_rr_3",
        "arbiter_rr",
        "that no grant is issued while the arbiter is busy. Use the signals 'busy' and 'tb_gnt'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (busy && (tb_gnt != 'd0)) !== 1'b1);",
    ));
    v.push(case(
        "arbiter_rr_4",
        "arbiter_rr",
        "that a request from client 0 is eventually granted. Use the signals 'tb_req' and 'tb_gnt'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) tb_req[0] |-> strong(##[0:$] tb_gnt[0]));",
    ));
    v.push(case(
        "arbiter_rr_5",
        "arbiter_rr",
        "that the grant vector stays stable on the cycle after hold is asserted with an active grant. Use the signals 'hold' and 'tb_gnt'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (hold && |tb_gnt) |=> $stable(tb_gnt));",
    ));
    v.push(case(
        "arbiter_rr_6",
        "arbiter_rr",
        "that with no requests pending there is no grant on the next cycle. Use the signals 'tb_req' and 'tb_gnt'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (tb_req == 'd0) |=> (tb_gnt == 'd0));",
    ));
    v.push(case(
        "arbiter_rr_7",
        "arbiter_rr",
        "that the grant vector does not change during a continued grant. Use the signals 'cont_gnt' and 'tb_gnt'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) cont_gnt |-> $stable(tb_gnt));",
    ));
    v.push(case(
        "arbiter_rr_8",
        "arbiter_rr",
        "that the arbiter is never on hold or busy or on continued grant at the same time. Use the signals 'busy', 'hold', and 'cont_gnt'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) !$onehot0({hold,busy,cont_gnt}) !== 1'b1);",
    ));
    // ---- arbiter_fixed (9) ----
    v.push(case(
        "arbiter_fixed_0",
        "arbiter_fixed",
        "that the highest-priority request (index 0) is granted when the arbiter is not busy. Use the signals 'tb_req', 'busy', and 'tb_gnt'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (tb_req[0] && !busy) |-> tb_gnt[0]);",
    ));
    v.push(case(
        "arbiter_fixed_1",
        "arbiter_fixed",
        "that client 1 is never granted while client 0 requests. Use the signals 'tb_gnt' and 'tb_req'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (tb_gnt[1] && tb_req[0]) !== 1'b1);",
    ));
    v.push(case(
        "arbiter_fixed_2",
        "arbiter_fixed",
        "that client 2 is never granted while a higher-priority client requests. Use the signals 'tb_gnt' and 'tb_req'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (tb_gnt[2] && (tb_req[0] || tb_req[1])) !== 1'b1);",
    ));
    v.push(case(
        "arbiter_fixed_3",
        "arbiter_fixed",
        "that client 3 is never granted while any higher-priority client requests. Use the signals 'tb_gnt' and 'tb_req'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (tb_gnt[3] && (tb_req[0] || tb_req[1] || tb_req[2])) !== 1'b1);",
    ));
    v.push(case(
        "arbiter_fixed_4",
        "arbiter_fixed",
        "that at most one grant is active at a time. Use the signal 'tb_gnt'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) $onehot0(tb_gnt));",
    ));
    v.push(case(
        "arbiter_fixed_5",
        "arbiter_fixed",
        "that grants are only given to requesting clients. Use the signals 'tb_gnt' and 'tb_req'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) ((tb_gnt & ~tb_req) != 'd0) !== 1'b1);",
    ));
    v.push(case(
        "arbiter_fixed_6",
        "arbiter_fixed",
        "that when the arbiter is not busy the grant matches the fixed-priority model. Use the signals 'busy', 'tb_gnt', and 'expected_gnt'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) !busy |-> (tb_gnt == expected_gnt));",
    ));
    v.push(case(
        "arbiter_fixed_7",
        "arbiter_fixed",
        "that there is no grant when nothing is requested. Use the signals 'tb_req' and 'tb_gnt'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (!(|tb_req) && (tb_gnt != 'd0)) !== 1'b1);",
    ));
    v.push(case(
        "arbiter_fixed_8",
        "arbiter_fixed",
        "that a pending request with the arbiter idle leads to some grant eventually. Use the signals 'any_req', 'busy', and 'tb_gnt'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (any_req && !busy) |-> strong(##[0:$] |tb_gnt));",
    ));
    // ---- arbiter_reverse_priority (10) ----
    v.push(case(
        "arbiter_reverse_priority_0",
        "arbiter_reverse_priority",
        "that the highest-index request is granted when the arbiter is not busy. Use the signals 'tb_req', 'busy', and 'tb_gnt'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (tb_req[3] && !busy) |-> tb_gnt[3]);",
    ));
    v.push(case(
        "arbiter_reverse_priority_1",
        "arbiter_reverse_priority",
        "that client 2 is never granted while client 3 requests. Use the signals 'tb_gnt' and 'tb_req'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (tb_gnt[2] && tb_req[3]) !== 1'b1);",
    ));
    v.push(case(
        "arbiter_reverse_priority_2",
        "arbiter_reverse_priority",
        "that client 1 is never granted while a higher-index client requests. Use the signals 'tb_gnt' and 'tb_req'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (tb_gnt[1] && (tb_req[2] || tb_req[3])) !== 1'b1);",
    ));
    v.push(case(
        "arbiter_reverse_priority_3",
        "arbiter_reverse_priority",
        "that client 0 is never granted while any higher-index client requests. Use the signals 'tb_gnt' and 'tb_req'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (tb_gnt[0] && (tb_req[1] || tb_req[2] || tb_req[3])) !== 1'b1);",
    ));
    v.push(case(
        "arbiter_reverse_priority_4",
        "arbiter_reverse_priority",
        "that at most one grant is active at a time. Use the signal 'tb_gnt'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) $onehot0(tb_gnt));",
    ));
    v.push(case(
        "arbiter_reverse_priority_5",
        "arbiter_reverse_priority",
        "that grants are only given to requesting clients. Use the signals 'tb_gnt' and 'tb_req'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) ((tb_gnt & ~tb_req) != 'd0) !== 1'b1);",
    ));
    v.push(case(
        "arbiter_reverse_priority_6",
        "arbiter_reverse_priority",
        "that when the arbiter is not busy the grant matches the reverse-priority model. Use the signals 'busy', 'tb_gnt', and 'expected_gnt'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) !busy |-> (tb_gnt == expected_gnt));",
    ));
    v.push(case(
        "arbiter_reverse_priority_7",
        "arbiter_reverse_priority",
        "that the grant vector stays stable on the cycle after hold is asserted with an active grant. Use the signals 'hold' and 'tb_gnt'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (hold && |tb_gnt) |=> $stable(tb_gnt));",
    ));
    v.push(case(
        "arbiter_reverse_priority_8",
        "arbiter_reverse_priority",
        "that no grant is active while the arbiter is busy. Use the signals 'busy' and 'tb_gnt'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (busy && |tb_gnt) !== 1'b1);",
    ));
    v.push(case(
        "arbiter_reverse_priority_9",
        "arbiter_reverse_priority",
        "that the arbiter is never on hold or busy or on continued grant at the same time. Use the signals 'busy', 'hold', and 'cont_gnt'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) !$onehot0({hold,busy,cont_gnt}) !== 1'b1);",
    ));
    // ---- arbiter_weighted (9) ----
    v.push(case(
        "arbiter_weighted_0",
        "arbiter_weighted",
        "that client 0 is never granted while it has no credit. Use the signals 'tb_gnt' and 'starved0'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (tb_gnt[0] && starved0) !== 1'b1);",
    ));
    v.push(case(
        "arbiter_weighted_1",
        "arbiter_weighted",
        "that client 1 is never granted while it has no credit. Use the signals 'tb_gnt' and 'starved1'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (tb_gnt[1] && starved1) !== 1'b1);",
    ));
    v.push(case(
        "arbiter_weighted_2",
        "arbiter_weighted",
        "that at most one grant is active at a time. Use the signal 'tb_gnt'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) $onehot0(tb_gnt));",
    ));
    v.push(case(
        "arbiter_weighted_3",
        "arbiter_weighted",
        "that client 0 is only granted while requesting. Use the signals 'tb_gnt' and 'tb_req'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (tb_gnt[0] && !tb_req[0]) !== 1'b1);",
    ));
    v.push(case(
        "arbiter_weighted_4",
        "arbiter_weighted",
        "that client 1 is only granted while requesting. Use the signals 'tb_gnt' and 'tb_req'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (tb_gnt[1] && !tb_req[1]) !== 1'b1);",
    ));
    v.push(case(
        "arbiter_weighted_5",
        "arbiter_weighted",
        "that a grant to client 0 with remaining credit decrements its credit counter. Use the signals 'tb_gnt' and 'credit0'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (tb_gnt[0] && (credit0 != 'd0)) |=> (credit0 == $past(credit0) - 2'd1));",
    ));
    v.push(case(
        "arbiter_weighted_6",
        "arbiter_weighted",
        "that an idle client 0 below the credit cap refills one credit. Use the signals 'tb_gnt' and 'credit0'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (!tb_gnt[0] && (credit0 != 2'd3)) |=> (credit0 == $past(credit0) + 2'd1));",
    ));
    v.push(case(
        "arbiter_weighted_7",
        "arbiter_weighted",
        "that a starved client 0 eventually regains credit. Use the signal 'starved0'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) starved0 |-> strong(##[0:$] !starved0));",
    ));
    v.push(case(
        "arbiter_weighted_8",
        "arbiter_weighted",
        "that no grant is issued while the arbiter is busy. Use the signals 'busy' and 'tb_gnt'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (busy && (tb_gnt != 'd0)) !== 1'b1);",
    ));
    // ---- fsm_handshake (2) ----
    v.push(case(
        "fsm_handshake_0",
        "fsm_handshake",
        "that a request in the IDLE state moves the FSM to BUSY on the next cycle. Use the signals 'state' and 'req_in'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (state == IDLE && req_in) |=> (state == BUSY));",
    ));
    v.push(case(
        "fsm_handshake_1",
        "fsm_handshake",
        "that the DONE state always returns to IDLE after one cycle. Use the signal 'state'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (state == DONE) |-> ##1 (state == IDLE));",
    ));
    // ---- fsm_sequence (2) ----
    v.push(case(
        "fsm_sequence_0",
        "fsm_sequence",
        "that a second consecutive high input bit is detected on the next cycle. Use the signals 'state', 'bit_in', and 'detected'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (state == S_ONE && bit_in) |=> detected);",
    ));
    v.push(case(
        "fsm_sequence_1",
        "fsm_sequence",
        "that a low input bit prevents the detect state on the next cycle. Use the signals 'bit_in' and 'state'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (!bit_in) |=> (state != S_TWO));",
    ));
    // ---- counter (5) ----
    v.push(case(
        "counter_0",
        "counter",
        "that an enabled up-count without load increments the counter by one. Use the signals 'en', 'up_down', 'load', and 'cnt'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (en && up_down && !load) |=> (cnt == $past(cnt) + 'd1));",
    ));
    v.push(case(
        "counter_1",
        "counter",
        "that an enabled down-count without load decrements the counter by one. Use the signals 'en', 'up_down', 'load', and 'cnt'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (en && !up_down && !load) |=> (cnt == $past(cnt) - 'd1));",
    ));
    v.push(case(
        "counter_2",
        "counter",
        "that the counter holds its value when disabled and not loading. Use the signals 'en', 'load', and 'cnt'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (!en && !load) |=> $stable(cnt));",
    ));
    v.push(case(
        "counter_3",
        "counter",
        "that a load sets the counter to the load value. Use the signals 'load', 'load_val', and 'cnt'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) load |=> (cnt == $past(load_val)));",
    ));
    v.push(case(
        "counter_4",
        "counter",
        "that the counter is never at its maximum and minimum at the same time. Use the signals 'at_max' and 'at_min'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (at_max && at_min) !== 1'b1);",
    ));
    // ---- ram_1r1w (7) ----
    v.push(case(
        "ram_1r1w_0",
        "ram_1r1w",
        "that a write to address 0 updates entry 0 with the written data on the next cycle. Use the signals 'wr_en', 'wr_addr', 'wr_data', and 'mem0'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (wr_en && (wr_addr == 'd0)) |=> (mem0 == $past(wr_data)));",
    ));
    v.push(case(
        "ram_1r1w_1",
        "ram_1r1w",
        "that entry 1 is stable unless written. Use the signals 'wr_en', 'wr_addr', and 'mem1'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (!wr_en || (wr_addr != 'd1)) |=> $stable(mem1));",
    ));
    v.push(case(
        "ram_1r1w_2",
        "ram_1r1w",
        "that read data matches the memory model on a read. Use the signals 'rd_en', 'rd_data', and 'mem_rd_value'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (rd_en && (rd_data != mem_rd_value)) !== 1'b1);",
    ));
    v.push(case(
        "ram_1r1w_3",
        "ram_1r1w",
        "that the collision flag is exactly a same-address write and read in one cycle. Use the signals 'collision', 'wr_en', 'rd_en', 'wr_addr', and 'rd_addr'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) collision == (wr_en && rd_en && (wr_addr == rd_addr)));",
    ));
    v.push(case(
        "ram_1r1w_4",
        "ram_1r1w",
        "that the collision flag never fires without a write. Use the signals 'collision' and 'wr_en'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (collision && !wr_en) !== 1'b1);",
    ));
    v.push(case(
        "ram_1r1w_5",
        "ram_1r1w",
        "that a write to address 3 updates entry 3 with the written data on the next cycle. Use the signals 'wr_en', 'wr_addr', 'wr_data', and 'mem3'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (wr_en && (wr_addr == 'd3)) |=> (mem3 == $past(wr_data)));",
    ));
    v.push(case(
        "ram_1r1w_6",
        "ram_1r1w",
        "that all memory entries retain their data without a write. Use the signals 'wr_en', 'mem0', 'mem1', 'mem2', and 'mem3'.",
        "asrt: assert property (@(posedge clk) disable iff (tb_reset) (!wr_en) |=> ($stable(mem0) && $stable(mem1) && $stable(mem2) && $stable(mem3)));",
    ));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use fv_core::{check_equivalence, EquivConfig, Equivalence};
    use sv_parser::parse_assertion_str;

    #[test]
    fn dataset_counts_match_table6() {
        let cases = human_cases();
        assert_eq!(cases.len(), 79, "Table 6 total");
        let count = |class: &str| {
            let names: Vec<&str> = testbenches()
                .into_iter()
                .filter(|t| t.class == class)
                .map(|t| t.name)
                .collect();
            cases
                .iter()
                .filter(|c| names.contains(&c.testbench.as_str()))
                .count()
        };
        assert_eq!(count("1R1W FIFO"), 20);
        assert_eq!(count("Multi-Port FIFO"), 6);
        assert_eq!(count("Arbiter"), 37);
        assert_eq!(count("FSM"), 4);
        assert_eq!(count("Counter"), 5);
        assert_eq!(count("RAM"), 7);
        assert_eq!(testbenches().len(), 13, "Table 6 variations");
    }

    #[test]
    fn all_testbenches_elaborate() {
        for tb in testbenches() {
            let table = signal_table_for(&tb)
                .unwrap_or_else(|e| panic!("{} failed to elaborate: {e}", tb.name));
            assert!(!table.is_empty(), "{} has signals", tb.name);
        }
    }

    #[test]
    fn all_references_parse() {
        for c in human_cases() {
            parse_assertion_str(&c.reference).unwrap_or_else(|e| panic!("{}: {e}", c.id));
        }
    }

    #[test]
    fn all_references_are_self_equivalent() {
        // Compiling each reference against its testbench scope and
        // proving it equivalent to itself exercises the whole
        // equivalence pipeline over the real collateral.
        let tables: std::collections::HashMap<&str, _> = testbenches()
            .into_iter()
            .map(|t| (t.name, signal_table_for(&t).unwrap()))
            .collect();
        for c in human_cases() {
            let a = parse_assertion_str(&c.reference).unwrap();
            let out = check_equivalence(
                &a,
                &a,
                &tables[c.testbench.as_str()],
                EquivConfig::default(),
            )
            .unwrap_or_else(|e| panic!("{}: {e}", c.id));
            assert_eq!(out.verdict, Equivalence::Equivalent, "{}", c.id);
        }
    }

    #[test]
    fn ids_are_unique() {
        let mut ids: Vec<String> = human_cases().into_iter().map(|c| c.id).collect();
        let n = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }
}
