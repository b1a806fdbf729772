//! The `elaboration` group: the cold front-end wall, at current scale
//! and at 10× scale.
//!
//! Elaboration is paid once per design per suite generation and per
//! shard warm-up, so its cold cost bounds how fast a fresh server or a
//! regenerated suite can come up. The workload is the worst case the
//! generator families produce: a *wide* hierarchy (many instantiated
//! cells, each inlined with hierarchical names) where every cell
//! unrolls a *deep* generate pipeline over unpacked array elements.
//!
//! - `cold_elaborate/{1x,10x}` — full `elaborate_design` walk: module
//!   inlining, generate unrolling, parameter resolution, netlist
//!   passes.
//! - `bind_extras/{1x,10x}` — the score-many half: splicing a
//!   response's helper items into the already-elaborated design.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;
use sv_parser::{parse_snippet, parse_source};
use sv_synth::elaborate_design;

/// A wide-hierarchy design: `cells` instantiated copies of a pipeline
/// cell, each unrolling `depth` generate stages over array elements.
pub fn wide_hier_source(cells: u32, depth: u32) -> String {
    let mut src = String::new();
    src.push_str(&format!(
        "module cell (clk, reset_, din, dout);\n\
         input clk; input reset_; input [7:0] din; output [7:0] dout;\n\
         parameter DEPTH = {depth};\n\
         logic [7:0] st [DEPTH:0];\n\
         assign st[0] = din;\n\
         for (genvar i = 0; i < DEPTH; i = i + 1) begin : g\n\
         always @(posedge clk) begin\n\
         if (!reset_) st[i+1] <= 'd0; else st[i+1] <= st[i] + 8'd1;\n\
         end\nend\n\
         assign dout = st[DEPTH];\nendmodule\n"
    ));
    src.push_str("module top (clk, reset_, in, out);\n");
    src.push_str("input clk; input reset_; input [7:0] in; output [7:0] out;\n");
    for i in 0..cells {
        src.push_str(&format!("logic [7:0] o{i};\n"));
        src.push_str(&format!(
            "cell c{i} (.clk(clk), .reset_(reset_), .din(in), .dout(o{i}));\n"
        ));
    }
    src.push_str("assign out = ");
    for i in 0..cells {
        if i > 0 {
            src.push_str(" ^ ");
        }
        src.push_str(&format!("o{i}"));
    }
    src.push_str(";\nendmodule\n");
    src
}

/// `(label, cells, depth)` — 10× is ten times the total stage count.
const SIZES: [(&str, u32, u32); 2] = [("1x", 8, 8), ("10x", 40, 16)];

fn bench_elaboration(c: &mut Criterion) {
    let mut g = c.benchmark_group("elaboration");
    g.sample_size(20).measurement_time(Duration::from_secs(10));

    for (label, cells, depth) in SIZES {
        let file = parse_source(&wide_hier_source(cells, depth)).unwrap();
        g.bench_function(format!("cold_elaborate/{label}"), |b| {
            b.iter(|| black_box(elaborate_design(black_box(&file), "top", &[]).unwrap()));
        });

        let design = elaborate_design(&file, "top", &[]).unwrap();
        let helpers = parse_snippet(
            "logic [7:0] mirror;\nassign mirror = out;\n\
             logic seen;\nalways @(posedge clk) begin seen <= mirror[0]; end\n",
        )
        .unwrap();
        g.bench_function(format!("bind_extras/{label}"), |b| {
            b.iter(|| black_box(design.bind_extras(black_box(&helpers)).unwrap()));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_elaboration);
criterion_main!(benches);
