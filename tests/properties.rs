//! Property-based tests over the whole stack (proptest).

use fveval_repro::prelude::*;
use proptest::prelude::*;
use sv_ast::{print_assertion, print_expr, BinaryOp, Expr, UnaryOp};

/// Strategy producing well-formed expressions over a fixed signal set.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        prop_oneof![Just("a"), Just("b"), Just("x"), Just("y")].prop_map(Expr::ident),
        (0u128..16).prop_map(Expr::num),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), arb_binop())
                .prop_map(|(l, r, op)| { Expr::bin(op, l, r) }),
            (inner.clone(), arb_unop()).prop_map(|(e, op)| Expr::Unary(op, Box::new(e))),
            (inner.clone(), inner.clone(), inner)
                .prop_map(|(c, t, e)| { Expr::Ternary(Box::new(c), Box::new(t), Box::new(e)) }),
        ]
    })
}

fn arb_binop() -> impl Strategy<Value = BinaryOp> {
    prop_oneof![
        Just(BinaryOp::LogAnd),
        Just(BinaryOp::LogOr),
        Just(BinaryOp::BitAnd),
        Just(BinaryOp::BitOr),
        Just(BinaryOp::BitXor),
        Just(BinaryOp::Eq),
        Just(BinaryOp::Neq),
        Just(BinaryOp::Lt),
        Just(BinaryOp::Le),
        Just(BinaryOp::Add),
        Just(BinaryOp::Sub),
        Just(BinaryOp::Shl),
    ]
}

fn arb_unop() -> impl Strategy<Value = UnaryOp> {
    prop_oneof![
        Just(UnaryOp::LogNot),
        Just(UnaryOp::BitNot),
        Just(UnaryOp::RedOr),
        Just(UnaryOp::RedAnd),
        Just(UnaryOp::RedXor),
    ]
}

fn table() -> SignalTable {
    [("a", 1u32), ("b", 1), ("x", 4), ("y", 4)]
        .into_iter()
        .collect()
}

/// The fveval-gen family registry, indexed by the proptest sweeps.
const GEN_FAMILIES: [&str; 6] = ["fifo", "arbiter", "handshake", "gray", "shift", "crc"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// print -> parse -> print is a fixpoint for random expressions.
    #[test]
    fn expr_print_parse_roundtrip(e in arb_expr()) {
        let printed = print_expr(&e);
        let parsed = sv_parser::parse_expr_str(&printed)
            .unwrap_or_else(|err| panic!("{printed}: {err}"));
        prop_assert_eq!(print_expr(&parsed), printed);
    }

    /// Every random expression is formally equivalent to itself when
    /// wrapped as an assertion body.
    #[test]
    fn equivalence_is_reflexive(e in arb_expr()) {
        let src = format!("assert property (@(posedge clk) ({}) !== 1'b1);", print_expr(&e));
        let a = parse_assertion_str(&src).unwrap();
        let out = check_equivalence(&a, &a, &table(), EquivConfig::default()).unwrap();
        prop_assert_eq!(out.verdict, Equivalence::Equivalent);
    }

    /// Negating a boolean body never stays equivalent (and symmetry of
    /// implication directions holds when swapping the operands).
    #[test]
    fn negation_breaks_equivalence(e in arb_expr()) {
        let body = print_expr(&e);
        let pos = parse_assertion_str(
            &format!("assert property (@(posedge clk) ({body}) != 'd0);")).unwrap();
        let neg = parse_assertion_str(
            &format!("assert property (@(posedge clk) ({body}) == 'd0);")).unwrap();
        let ab = check_equivalence(&pos, &neg, &table(), EquivConfig::default()).unwrap();
        prop_assert_ne!(ab.verdict, Equivalence::Equivalent);
        let ba = check_equivalence(&neg, &pos, &table(), EquivConfig::default()).unwrap();
        let mirrored = match ab.verdict {
            Equivalence::RefImpliesCand => Equivalence::CandImpliesRef,
            Equivalence::CandImpliesRef => Equivalence::RefImpliesCand,
            v => v,
        };
        prop_assert_eq!(ba.verdict, mirrored);
    }

    /// The simulator agrees with the assertion-expression compiler: a
    /// random expression evaluated concretely matches the AIG encoding
    /// evaluated on the same values.
    #[test]
    fn expr_compiler_matches_direct_eval(
        e in arb_expr(),
        a in 0u128..2, b in 0u128..2, x in 0u128..16, y in 0u128..16,
    ) {
        use fv_aig::{Aig, AigEvaluator, BitVec};

        // Build the expression over constants by textual substitution:
        // compile with a free env, then evaluate the AIG with the
        // chosen input values.
        let t = table();
        let src = print_expr(&e);
        let parsed = sv_parser::parse_expr_str(&src).unwrap();
        let mut g = Aig::new();
        let mut env = fv_core::FreeTraceEnv::new(&t);
        let bv = match fv_core::compile_expr(&mut g, &parsed, 0, &mut env) {
            Ok(bv) => bv,
            Err(_) => return Ok(()), // e.g. width overflow; out of scope
        };
        // Assign input values in allocation order.
        let mut input_values = Vec::new();
        for (name, _cycle, slot) in env.log() {
            let v = match name.as_str() { "a" => a, "b" => b, "x" => x, _ => y };
            for i in 0..slot.width() {
                input_values.push((v >> i) & 1 == 1);
            }
        }
        let ev = AigEvaluator::combinational(&g, &input_values);
        let got: u128 = bv
            .bits()
            .iter()
            .enumerate()
            .take(127)
            .map(|(i, &bit)| (ev.lit(bit) as u128) << i)
            .sum();
        // Direct evaluation oracle over the same AST.
        let want = eval_oracle(&parsed, a, b, x, y, bv.width() as u32);
        if let Some(want) = want {
            prop_assert_eq!(got, want, "{}", src);
        }
        let _ = BitVec::constant(1, 0);
    }

    /// Random machine-generated assertions always re-parse and
    /// self-equate (the generator's correctness invariant).
    #[test]
    fn machine_generator_roundtrip(seed in 0u64..500) {
        let cases = generate_machine_cases(MachineGenConfig {
            count: 1,
            seed,
            corruption_rate: 0.3,
        });
        let case = &cases[0];
        let parsed = parse_assertion_str(&case.reference_text).unwrap();
        prop_assert_eq!(print_assertion(&parsed), case.reference_text.clone());
        let out = check_equivalence(
            &parsed,
            &case.reference,
            &machine_signal_table(),
            EquivConfig::default(),
        )
        .unwrap();
        prop_assert_eq!(out.verdict, Equivalence::Equivalent);
    }

    /// BLEU bounds and identity.
    #[test]
    fn bleu_properties(e in arb_expr(), f in arb_expr()) {
        let s1 = print_expr(&e);
        let s2 = print_expr(&f);
        let self_score = bleu(&s1, &s1);
        prop_assert!((self_score - 1.0).abs() < 1e-9);
        let cross = bleu(&s1, &s2);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&cross));
    }

    /// pass@k is within [0, 1] and monotone in both c and k.
    #[test]
    fn passk_properties(n in 1u32..12, c_raw in 0u32..12, k_raw in 1u32..12) {
        let c = c_raw.min(n);
        let k = k_raw.min(n);
        let p = pass_at_k(n, c, k);
        prop_assert!((0.0..=1.0).contains(&p));
        if c < n {
            prop_assert!(pass_at_k(n, c + 1, k) >= p - 1e-12);
        }
        if k < n {
            prop_assert!(pass_at_k(n, c, k + 1) >= p - 1e-12);
        }
    }
}

// ---------------------------------------------------------------------
// Strashing vs. naive evaluation, and counterexample replay.
// ---------------------------------------------------------------------

/// A random boolean operation tree over four named inputs — the "naive
/// builder" reference semantics for the strashed AIG constructor.
#[derive(Debug, Clone)]
enum Bx {
    In(usize),
    Not(Box<Bx>),
    And(Box<Bx>, Box<Bx>),
    Or(Box<Bx>, Box<Bx>),
    Xor(Box<Bx>, Box<Bx>),
    Mux(Box<Bx>, Box<Bx>, Box<Bx>),
}

impl Bx {
    /// Builds the tree through the strashing [`fv_aig::Aig`] builder.
    fn build(&self, g: &mut fv_aig::Aig, inputs: &[fv_aig::AigLit]) -> fv_aig::AigLit {
        match self {
            Bx::In(i) => inputs[*i],
            Bx::Not(a) => !a.build(g, inputs),
            Bx::And(a, b) => {
                let (x, y) = (a.build(g, inputs), b.build(g, inputs));
                g.and(x, y)
            }
            Bx::Or(a, b) => {
                let (x, y) = (a.build(g, inputs), b.build(g, inputs));
                g.or(x, y)
            }
            Bx::Xor(a, b) => {
                let (x, y) = (a.build(g, inputs), b.build(g, inputs));
                g.xor(x, y)
            }
            Bx::Mux(s, t, e) => {
                let (sv, tv, ev) = (s.build(g, inputs), t.build(g, inputs), e.build(g, inputs));
                g.mux(sv, tv, ev)
            }
        }
    }

    /// Naive recursive evaluation — no hashing, no folding.
    fn eval(&self, vals: &[bool]) -> bool {
        match self {
            Bx::In(i) => vals[*i],
            Bx::Not(a) => !a.eval(vals),
            Bx::And(a, b) => a.eval(vals) && b.eval(vals),
            Bx::Or(a, b) => a.eval(vals) || b.eval(vals),
            Bx::Xor(a, b) => a.eval(vals) ^ b.eval(vals),
            Bx::Mux(s, t, e) => {
                if s.eval(vals) {
                    t.eval(vals)
                } else {
                    e.eval(vals)
                }
            }
        }
    }
}

fn arb_bx() -> impl Strategy<Value = Bx> {
    let leaf = (0usize..4).prop_map(Bx::In);
    leaf.prop_recursive(4, 48, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|a| Bx::Not(Box::new(a))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Bx::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Bx::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Bx::Xor(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone(), inner).prop_map(|(s, t, e)| Bx::Mux(
                Box::new(s),
                Box::new(t),
                Box::new(e)
            )),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Structural hashing and constant folding never change semantics:
    /// for every input assignment, the strashed graph agrees with naive
    /// recursive evaluation — through the scalar evaluator, the 64-way
    /// bit-parallel simulator, and (where it is definite) the ternary
    /// propagator.
    #[test]
    fn strashing_preserves_aig_semantics(t in arb_bx()) {
        use fv_aig::{Aig, AigEvaluator, BitSim, Ternary, TernarySim};

        let mut g = Aig::new();
        let inputs: Vec<fv_aig::AigLit> = (0..4).map(|_| g.input()).collect();
        let root = t.build(&mut g, &inputs);

        // One bit-parallel pass evaluates the whole 4-input truth
        // table: input i's word is the canonical truth-table mask.
        let masks: [u64; 4] = [0xAAAA, 0xCCCC, 0xF0F0, 0xFF00];
        let mut sim = BitSim::new();
        sim.extend(&g, &mut |k| masks[k as usize]);
        let mut tern = TernarySim::new();
        tern.extend(&g, &mut |_| Ternary::Unknown);

        for assignment in 0..16u32 {
            let vals: Vec<bool> = (0..4).map(|i| (assignment >> i) & 1 == 1).collect();
            let want = t.eval(&vals);
            let ev = AigEvaluator::combinational(&g, &vals);
            prop_assert_eq!(ev.lit(root), want, "scalar eval, assignment {}", assignment);
            prop_assert_eq!(
                sim.lit_bit(root, assignment),
                want,
                "bit-parallel sim, assignment {}", assignment
            );
            // Ternary with every input unknown may only answer when the
            // answer is assignment-independent.
            match tern.lit(root) {
                Ternary::Unknown => {}
                known => prop_assert_eq!(known, Ternary::known(want)),
            }
        }
    }

    /// Every BMC counterexample replays to a real violation in the
    /// cycle-accurate `sv-synth` simulator: for random generated FSMs,
    /// drop one successor from a transition assertion, prove it false,
    /// and re-run the returned trace end to end.
    #[test]
    fn bmc_counterexamples_replay_in_simulator(seed in 0u64..24) {
        let case = generate_fsm(&FsmParams {
            n_states: 4,
            n_edges: 5,
            width: 8,
            guard_depth: 1,
            seed,
        });
        let compiled = compile_design(&case).unwrap();
        let (netlist, consts) = (compiled.netlist(), compiled.consts());
        let transitions = match &case.kind {
            fveval_data::DesignKind::Fsm { transitions, .. } => transitions.clone(),
            _ => unreachable!(),
        };
        for (s, succs) in transitions.iter().enumerate() {
            if succs.len() < 2 {
                continue;
            }
            let disj = succs[..succs.len() - 1]
                .iter()
                .map(|t| format!("(fsm_out == S{t})"))
                .collect::<Vec<_>>()
                .join(" || ");
            let src = format!(
                "assert property (@(posedge clk) disable iff (tb_reset) \
                 (fsm_out == S{s}) |-> ##1 ({disj}));"
            );
            let assertion = parse_assertion_str(&src).unwrap();
            let result =
                fv_core::prove(netlist, &assertion, consts, ProveConfig::default()).unwrap();
            let ProveResult::Falsified { cex } = result else {
                panic!("dropping a successor must falsify: {src}");
            };
            prop_assert_eq!(
                fv_core::replay_design_cex(netlist, &assertion, consts, &cex),
                Ok(true),
                "counterexample must replay: {}\n{}", src, cex
            );
        }
    }

    /// The `sv_ast::printer` round-trips every module of a generated
    /// fveval-gen suite: parse → print → re-parse yields a structurally
    /// equal module. This guards the split-elaboration path, whose
    /// collateral (designs, testbenches, helper snippets) flows through
    /// the printer when suites are written to disk and re-read.
    #[test]
    fn printer_roundtrips_generated_suite_modules(
        family_idx in 0usize..6,
        seed in 0u64..32,
    ) {
        let family = GEN_FAMILIES[family_idx];
        let suite = generate_suite(&SuiteConfig {
            families: vec![family.to_string()],
            per_family: 1,
            seed,
            ..Default::default()
        });
        for scenario in &suite.scenarios {
            let src = format!("{}\n{}", scenario.design_source, scenario.tb_source);
            let file = parse_source(&src).unwrap();
            for module in &file.modules {
                let printed = sv_ast::print_module(module);
                let reparsed = parse_source(&printed)
                    .unwrap_or_else(|e| panic!("{}: printed module must re-parse: {e}\n{printed}",
                                               module.name));
                let module2 = reparsed
                    .module(&module.name)
                    .unwrap_or_else(|| panic!("printed module keeps its name: {printed}"));
                prop_assert_eq!(
                    module, module2,
                    "parse → print → re-parse must be structurally equal for {} ({} seed {})",
                    &module.name, family, seed
                );
            }
        }
    }

    /// Session determinism: a design evaluated through one long-lived
    /// `ProofSession` produces verdicts identical to fresh per-sample
    /// `prove_with_stats` calls, swept over (seed, family, depth) of
    /// generated scenarios. Proof depth and earliest violating anchor
    /// are semantic, so they must match too. Each candidate is checked
    /// twice: the repeat is answered from the session's memo with the
    /// same result.
    #[test]
    fn proof_session_verdicts_match_fresh_prover(
        family_idx in 0usize..6,
        seed in 0u64..16,
        depth in 2u32..5,
    ) {
        let family = GEN_FAMILIES[family_idx];
        let suite = generate_suite(&SuiteConfig {
            families: vec![family.to_string()],
            per_family: 1,
            seed,
            depth: Some(depth),
            ..Default::default()
        });
        for scenario in &suite.scenarios {
            let compiled = scenario.compile().unwrap();
            let mut session =
                ProofSession::open(compiled.netlist(), compiled.consts(), ProveConfig::default())
                    .unwrap();
            for candidate in &scenario.candidates {
                let assertion = parse_assertion_str(&candidate.sva).unwrap();
                let (fresh, _) = prove_with_stats(
                    compiled.netlist(),
                    &assertion,
                    compiled.consts(),
                    ProveConfig::default(),
                )
                .unwrap();
                let (via_session, _) = session.check(&assertion).unwrap();
                match (&fresh, &via_session) {
                    (ProveResult::Proven { k: k1 }, ProveResult::Proven { k: k2 }) => {
                        prop_assert_eq!(k1, k2, "{}", &candidate.sva);
                    }
                    (
                        ProveResult::Falsified { cex: c1 },
                        ProveResult::Falsified { cex: c2 },
                    ) => {
                        prop_assert_eq!(c1.anchor, c2.anchor, "{}", &candidate.sva);
                    }
                    (ProveResult::Undetermined, ProveResult::Undetermined) => {}
                    (fresh, via) => prop_assert!(
                        false,
                        "{} ({} seed {} depth {}): fresh {:?} != session {:?}",
                        &candidate.sva, family, seed, depth, fresh, via
                    ),
                }
                let (repeat, delta) = session.check(&assertion).unwrap();
                prop_assert_eq!(&repeat, &via_session, "{}", &candidate.sva);
                prop_assert_eq!(delta, ProverStats::repeat(), "{}", &candidate.sva);
            }
            let stats = session.stats();
            let n = scenario.candidates.len() as u64;
            prop_assert_eq!(stats.sessions_opened, 1);
            prop_assert_eq!((stats.session_checks, stats.check_repeats), (n, n));
        }
    }
}

/// Direct 2-state evaluation of an expression AST, mirroring the
/// compiler's width rules. Returns `None` for cases whose width rules
/// are context-dependent in ways this oracle does not model.
fn eval_oracle(e: &Expr, a: u128, b: u128, x: u128, y: u128, out_width: u32) -> Option<u128> {
    fn width_of(e: &Expr) -> u32 {
        match e {
            Expr::Ident(n) => match n.as_str() {
                "a" | "b" => 1,
                _ => 4,
            },
            Expr::Literal(sv_ast::Literal::Int { width, value, .. }) => {
                width.unwrap_or_else(|| (128 - value.leading_zeros()).clamp(32, 128))
            }
            Expr::Literal(_) => 32,
            Expr::Unary(op, i) => match op {
                UnaryOp::LogNot
                | UnaryOp::RedOr
                | UnaryOp::RedAnd
                | UnaryOp::RedXor
                | UnaryOp::RedNand
                | UnaryOp::RedNor
                | UnaryOp::RedXnor => 1,
                _ => width_of(i),
            },
            Expr::Binary(op, l, r) => {
                if op.is_comparison() {
                    1
                } else if matches!(
                    op,
                    BinaryOp::Shl | BinaryOp::Shr | BinaryOp::AShl | BinaryOp::AShr
                ) {
                    width_of(l)
                } else {
                    width_of(l).max(width_of(r))
                }
            }
            Expr::Ternary(_, t, f) => width_of(t).max(width_of(f)),
            _ => 32,
        }
    }
    fn mask(v: u128, w: u32) -> u128 {
        if w >= 128 {
            v
        } else {
            v & ((1u128 << w) - 1)
        }
    }
    fn go(e: &Expr, a: u128, b: u128, x: u128, y: u128) -> Option<u128> {
        Some(match e {
            Expr::Ident(n) => match n.as_str() {
                "a" => a,
                "b" => b,
                "x" => x,
                _ => y,
            },
            Expr::Literal(sv_ast::Literal::Int { value, .. }) => *value,
            Expr::Literal(_) => return None,
            Expr::Unary(op, i) => {
                let w = width_of(i);
                let v = go(i, a, b, x, y)?;
                match op {
                    UnaryOp::LogNot => u128::from(v == 0),
                    UnaryOp::BitNot => mask(!v, w),
                    UnaryOp::RedOr => u128::from(v != 0),
                    UnaryOp::RedAnd => u128::from(v == mask(u128::MAX, w)),
                    UnaryOp::RedXor => u128::from(v.count_ones() % 2 == 1),
                    _ => return None,
                }
            }
            Expr::Binary(op, l, r) => {
                let w = width_of(l).max(width_of(r));
                let lv = go(l, a, b, x, y)?;
                let rv = go(r, a, b, x, y)?;
                match op {
                    BinaryOp::LogAnd => u128::from(lv != 0 && rv != 0),
                    BinaryOp::LogOr => u128::from(lv != 0 || rv != 0),
                    BinaryOp::BitAnd => lv & rv,
                    BinaryOp::BitOr => lv | rv,
                    BinaryOp::BitXor => lv ^ rv,
                    BinaryOp::Eq => u128::from(lv == rv),
                    BinaryOp::Neq => u128::from(lv != rv),
                    BinaryOp::Lt => u128::from(lv < rv),
                    BinaryOp::Le => u128::from(lv <= rv),
                    BinaryOp::Add => mask(lv.wrapping_add(rv), w),
                    BinaryOp::Sub => mask(lv.wrapping_sub(rv), w),
                    BinaryOp::Shl => {
                        let lw = width_of(l);
                        if rv >= 128 {
                            0
                        } else {
                            mask(lv << rv, lw)
                        }
                    }
                    _ => return None,
                }
            }
            Expr::Ternary(c, t, f) => {
                if go(c, a, b, x, y)? != 0 {
                    go(t, a, b, x, y)?
                } else {
                    go(f, a, b, x, y)?
                }
            }
            _ => return None,
        })
    }
    let v = go(e, a, b, x, y)?;
    Some(mask(v, out_width.min(127)))
}
