//! Parser for module definitions, declarations, processes, instances,
//! and generate constructs.

use crate::lexer::{Kw, Punct, Tok};
use crate::parser::{parse_expr, Cursor};
use crate::prop::parse_assertion;
use crate::ParseError;
use sv_ast::{
    Assign, BinaryOp, EdgeKind, EventExpr, Expr, Instance, LValue, Module, ModuleItem, NetDecl,
    NetKind, ParamDecl, PortDecl, PortDir, Range, SourceFile, Stmt,
};

/// Parses a whole source file of modules.
pub fn parse_source_file(cur: &mut Cursor) -> Result<SourceFile, ParseError> {
    let mut modules = Vec::new();
    while !cur.at_eof() {
        modules.push(parse_module(cur)?);
    }
    Ok(SourceFile { modules })
}

fn parse_module(cur: &mut Cursor) -> Result<Module, ParseError> {
    cur.expect_kw(Kw::Module, "'module'")?;
    let name = cur.expect_ident("module name")?;
    let mut params = Vec::new();
    let mut ports: Vec<PortDecl> = Vec::new();
    let mut port_order = Vec::new();

    // Optional `#(parameter X = e, ...)` header.
    if cur.eat_punct(Punct::Hash) {
        cur.expect_punct(Punct::LParen, "'(' of parameter header")?;
        loop {
            cur.eat_kw(Kw::Parameter);
            let pname = cur.expect_ident("parameter name")?;
            cur.expect_punct(Punct::Assign, "'=' in parameter")?;
            let value = parse_expr(cur)?;
            params.push(ParamDecl {
                local: false,
                name: pname,
                value,
            });
            if !cur.eat_punct(Punct::Comma) {
                break;
            }
        }
        cur.expect_punct(Punct::RParen, "')' of parameter header")?;
    }

    // Port header: names only, or full ANSI declarations.
    if cur.eat_punct(Punct::LParen) {
        if !cur.at_punct(Punct::RParen) {
            loop {
                if cur.at_kw(Kw::Input) || cur.at_kw(Kw::Output) || cur.at_kw(Kw::Inout) {
                    // ANSI style.
                    let dir = parse_dir(cur)?;
                    let is_reg =
                        cur.eat_kw(Kw::Reg) || cur.eat_kw(Kw::Logic) || cur.eat_kw(Kw::Wire);
                    let range = parse_opt_range(cur)?;
                    let pname = cur.expect_ident("port name")?;
                    port_order.push(pname.clone());
                    ports.push(PortDecl {
                        dir,
                        range,
                        is_reg,
                        name: pname,
                    });
                } else {
                    let pname = cur.expect_ident("port name")?;
                    port_order.push(pname);
                }
                if !cur.eat_punct(Punct::Comma) {
                    break;
                }
            }
        }
        cur.expect_punct(Punct::RParen, "')' of port list")?;
    }
    cur.expect_punct(Punct::Semi, "';' after module header")?;

    let mut items = Vec::new();
    while !cur.at_kw(Kw::Endmodule) {
        if cur.at_eof() {
            return Err(cur.err("unexpected end of file inside module"));
        }
        for item in parse_module_item_multi(cur)? {
            match item {
                ModuleItem::Port(p) => {
                    if !port_order.contains(&p.name) {
                        port_order.push(p.name.clone());
                    }
                    ports.push(p);
                }
                ModuleItem::Param(p) => params.push(p),
                other => items.push(other),
            }
        }
    }
    cur.expect_kw(Kw::Endmodule, "'endmodule'")?;
    Ok(Module {
        name,
        params,
        port_order,
        ports,
        items,
    })
}

fn parse_dir(cur: &mut Cursor) -> Result<PortDir, ParseError> {
    if cur.eat_kw(Kw::Input) {
        Ok(PortDir::Input)
    } else if cur.eat_kw(Kw::Output) {
        Ok(PortDir::Output)
    } else if cur.eat_kw(Kw::Inout) {
        Ok(PortDir::Inout)
    } else {
        Err(cur.err("expected port direction"))
    }
}

fn parse_opt_range(cur: &mut Cursor) -> Result<Option<Range>, ParseError> {
    if cur.at_punct(Punct::LBracket) {
        cur.bump();
        let msb = parse_expr(cur)?;
        cur.expect_punct(Punct::Colon, "':' of range")?;
        let lsb = parse_expr(cur)?;
        cur.expect_punct(Punct::RBracket, "']' of range")?;
        Ok(Some(Range { msb, lsb }))
    } else {
        Ok(None)
    }
}

/// Parses one syntactic module item, expanding declaration lists.
pub fn parse_module_item_multi(cur: &mut Cursor) -> Result<Vec<ModuleItem>, ParseError> {
    // Parameters.
    if cur.at_kw(Kw::Parameter) || cur.at_kw(Kw::Localparam) {
        let local = cur.at_kw(Kw::Localparam);
        cur.bump();
        let mut out = Vec::new();
        loop {
            let name = cur.expect_ident("parameter name")?;
            cur.expect_punct(Punct::Assign, "'=' in parameter")?;
            let value = parse_expr(cur)?;
            out.push(ModuleItem::Param(ParamDecl { local, name, value }));
            if !cur.eat_punct(Punct::Comma) {
                break;
            }
        }
        cur.expect_punct(Punct::Semi, "';' after parameter")?;
        return Ok(out);
    }
    // Port declarations in the body.
    if cur.at_kw(Kw::Input) || cur.at_kw(Kw::Output) || cur.at_kw(Kw::Inout) {
        let dir = parse_dir(cur)?;
        let is_reg = cur.eat_kw(Kw::Reg) || cur.eat_kw(Kw::Logic) || cur.eat_kw(Kw::Wire);
        let range = parse_opt_range(cur)?;
        let mut out = Vec::new();
        loop {
            let name = cur.expect_ident("port name")?;
            out.push(ModuleItem::Port(PortDecl {
                dir,
                range: range.clone(),
                is_reg,
                name,
            }));
            if !cur.eat_punct(Punct::Comma) {
                break;
            }
        }
        cur.expect_punct(Punct::Semi, "';' after port declaration")?;
        return Ok(out);
    }
    // Net declarations.
    if cur.at_kw(Kw::Wire) || cur.at_kw(Kw::Reg) || cur.at_kw(Kw::Logic) || cur.at_kw(Kw::Genvar) {
        let kind = match cur.bump() {
            Tok::Keyword(Kw::Wire) => NetKind::Wire,
            Tok::Keyword(Kw::Reg) => NetKind::Reg,
            Tok::Keyword(Kw::Logic) => NetKind::Logic,
            _ => NetKind::Genvar,
        };
        let mut packed = Vec::new();
        while let Some(r) = parse_opt_range(cur)? {
            packed.push(r);
        }
        let mut out = Vec::new();
        loop {
            let name = cur.expect_ident("net name")?;
            let mut unpacked = Vec::new();
            while let Some(r) = parse_opt_range(cur)? {
                unpacked.push(r);
            }
            let init = if cur.eat_punct(Punct::Assign) {
                Some(parse_expr(cur)?)
            } else {
                None
            };
            out.push(ModuleItem::Net(NetDecl {
                kind,
                packed: packed.clone(),
                name,
                unpacked,
                init,
            }));
            if !cur.eat_punct(Punct::Comma) {
                break;
            }
        }
        cur.expect_punct(Punct::Semi, "';' after net declaration")?;
        return Ok(out);
    }
    // Continuous assign.
    if cur.eat_kw(Kw::Assign) {
        let lhs = parse_lvalue(cur)?;
        cur.expect_punct(Punct::Assign, "'=' of assign")?;
        let rhs = parse_expr(cur)?;
        cur.expect_punct(Punct::Semi, "';' after assign")?;
        return Ok(vec![ModuleItem::ContAssign(Assign { lhs, rhs })]);
    }
    // Processes.
    if cur.at_kw(Kw::AlwaysFf) || cur.at_kw(Kw::Always) {
        let is_ff_kw = cur.at_kw(Kw::AlwaysFf);
        cur.bump();
        cur.expect_punct(Punct::At, "'@' of always")?;
        // `@*` or `@(*)` combinational form.
        if cur.eat_punct(Punct::Star) {
            let body = parse_stmt(cur)?;
            return Ok(vec![ModuleItem::AlwaysComb(body)]);
        }
        cur.expect_punct(Punct::LParen, "'(' of sensitivity list")?;
        if cur.eat_punct(Punct::Star) {
            cur.expect_punct(Punct::RParen, "')' of sensitivity list")?;
            let body = parse_stmt(cur)?;
            return Ok(vec![ModuleItem::AlwaysComb(body)]);
        }
        let mut events = Vec::new();
        loop {
            let edge = if cur.eat_kw(Kw::Posedge) {
                EdgeKind::Pos
            } else if cur.eat_kw(Kw::Negedge) {
                EdgeKind::Neg
            } else {
                return Err(cur.err("expected posedge/negedge in sensitivity list"));
            };
            let signal = cur.expect_ident("sensitivity signal")?;
            events.push(EventExpr { edge, signal });
            if !(cur.eat_kw(Kw::Or) || cur.eat_punct(Punct::Comma)) {
                break;
            }
        }
        cur.expect_punct(Punct::RParen, "')' of sensitivity list")?;
        let body = parse_stmt(cur)?;
        return Ok(vec![if is_ff_kw {
            ModuleItem::AlwaysFf { events, body }
        } else {
            ModuleItem::AlwaysAt { events, body }
        }]);
    }
    if cur.eat_kw(Kw::AlwaysComb) {
        let body = parse_stmt(cur)?;
        return Ok(vec![ModuleItem::AlwaysComb(body)]);
    }
    // Generate region.
    if cur.eat_kw(Kw::Generate) {
        let mut inner = Vec::new();
        while !cur.at_kw(Kw::Endgenerate) {
            if cur.at_eof() {
                return Err(cur.err("unexpected end of file inside generate"));
            }
            inner.extend(cur.nested(parse_module_item_multi)?);
        }
        cur.expect_kw(Kw::Endgenerate, "'endgenerate'")?;
        return Ok(inner);
    }
    // Generate-for loop (bare or inside generate).
    if cur.at_kw(Kw::For) {
        return Ok(vec![parse_generate_for(cur)?]);
    }
    if cur.at_kw(Kw::Initial) {
        return Err(cur.err(
            "initial blocks are not allowed in formal testbenches (this is a formal \
             verification context, not RTL simulation)",
        ));
    }
    // Assertion: `label: assert ...` or bare `assert ...`.
    let is_assert_here = cur.at_kw(Kw::Assert) || cur.at_kw(Kw::Assume) || cur.at_kw(Kw::Cover);
    let is_labeled_assert = matches!(cur.peek(), Tok::Ident(_))
        && cur.peek_n(1) == &Tok::Punct(Punct::Colon)
        && matches!(
            cur.peek_n(2),
            Tok::Keyword(Kw::Assert) | Tok::Keyword(Kw::Assume) | Tok::Keyword(Kw::Cover)
        );
    if is_assert_here || is_labeled_assert {
        let a = parse_assertion(cur)?;
        return Ok(vec![ModuleItem::Assertion(a)]);
    }
    // Instance: `mod [#(...)] inst ( .p(e), ... );`
    if matches!(cur.peek(), Tok::Ident(_)) {
        return Ok(vec![parse_instance(cur)?]);
    }
    Err(cur.err(format!("expected module item, found {:?}", cur.peek())))
}

fn parse_generate_for(cur: &mut Cursor) -> Result<ModuleItem, ParseError> {
    cur.expect_kw(Kw::For, "'for'")?;
    cur.expect_punct(Punct::LParen, "'(' of for")?;
    let _ = cur.eat_kw(Kw::Genvar) || cur.eat_kw(Kw::Int);
    let var = cur.expect_ident("loop variable")?;
    cur.expect_punct(Punct::Assign, "'=' of loop init")?;
    let init = parse_expr(cur)?;
    cur.expect_punct(Punct::Semi, "';' after loop init")?;
    let cond = parse_expr(cur)?;
    cur.expect_punct(Punct::Semi, "';' after loop condition")?;
    // Step: `i++`, `i--`, or `i = expr`.
    let step_var = cur.expect_ident("loop variable in step")?;
    if step_var != var {
        return Err(cur.err("loop step must update the loop variable"));
    }
    let step = if cur.eat_punct(Punct::PlusPlus) {
        Expr::bin(BinaryOp::Add, Expr::ident(var.clone()), Expr::num(1))
    } else if cur.eat_punct(Punct::MinusMinus) {
        Expr::bin(BinaryOp::Sub, Expr::ident(var.clone()), Expr::num(1))
    } else {
        cur.expect_punct(Punct::Assign, "'=' of loop step")?;
        parse_expr(cur)?
    };
    cur.expect_punct(Punct::RParen, "')' of for")?;
    cur.expect_kw(Kw::Begin, "'begin' of generate-for body")?;
    let label = if cur.eat_punct(Punct::Colon) {
        Some(cur.expect_ident("generate block label")?)
    } else {
        None
    };
    let mut body = Vec::new();
    while !cur.at_kw(Kw::End) {
        if cur.at_eof() {
            return Err(cur.err("unexpected end of file inside generate-for"));
        }
        body.extend(cur.nested(parse_module_item_multi)?);
    }
    cur.expect_kw(Kw::End, "'end' of generate-for")?;
    Ok(ModuleItem::GenerateFor {
        var,
        init,
        cond,
        step,
        label,
        body,
    })
}

fn parse_instance(cur: &mut Cursor) -> Result<ModuleItem, ParseError> {
    let module = cur.expect_ident("module name")?;
    let mut params = Vec::new();
    if cur.eat_punct(Punct::Hash) {
        cur.expect_punct(Punct::LParen, "'(' of parameter overrides")?;
        loop {
            cur.expect_punct(Punct::Dot, "'.' of parameter override")?;
            let name = cur.expect_ident("parameter name")?;
            cur.expect_punct(Punct::LParen, "'(' of parameter value")?;
            let value = parse_expr(cur)?;
            cur.expect_punct(Punct::RParen, "')' of parameter value")?;
            params.push((name, value));
            if !cur.eat_punct(Punct::Comma) {
                break;
            }
        }
        cur.expect_punct(Punct::RParen, "')' of parameter overrides")?;
    }
    let name = cur.expect_ident("instance name")?;
    cur.expect_punct(Punct::LParen, "'(' of port connections")?;
    let mut conns = Vec::new();
    if !cur.at_punct(Punct::RParen) {
        loop {
            cur.expect_punct(Punct::Dot, "'.' of port connection")?;
            let pname = cur.expect_ident("port name")?;
            cur.expect_punct(Punct::LParen, "'(' of port connection")?;
            let e = parse_expr(cur)?;
            cur.expect_punct(Punct::RParen, "')' of port connection")?;
            conns.push((pname, e));
            if !cur.eat_punct(Punct::Comma) {
                break;
            }
        }
    }
    cur.expect_punct(Punct::RParen, "')' of port connections")?;
    cur.expect_punct(Punct::Semi, "';' after instance")?;
    Ok(ModuleItem::Instance(Instance {
        module,
        name,
        params,
        conns,
    }))
}

fn parse_lvalue(cur: &mut Cursor) -> Result<LValue, ParseError> {
    if cur.eat_punct(Punct::LBrace) {
        let mut parts = Vec::new();
        loop {
            parts.push(parse_lvalue(cur)?);
            if !cur.eat_punct(Punct::Comma) {
                break;
            }
        }
        cur.expect_punct(Punct::RBrace, "'}' of concatenation target")?;
        return Ok(LValue::Concat(parts));
    }
    let name = cur.expect_ident("assignment target")?;
    if cur.eat_punct(Punct::LBracket) {
        let first = parse_expr(cur)?;
        if cur.eat_punct(Punct::Colon) {
            let lo = parse_expr(cur)?;
            cur.expect_punct(Punct::RBracket, "']' of part-select target")?;
            return Ok(LValue::Slice(name, first, lo));
        }
        cur.expect_punct(Punct::RBracket, "']' of bit-select target")?;
        return Ok(LValue::Index(name, first));
    }
    Ok(LValue::Ident(name))
}

/// Parses a procedural statement.
pub fn parse_stmt(cur: &mut Cursor) -> Result<Stmt, ParseError> {
    if cur.eat_kw(Kw::Begin) {
        if cur.eat_punct(Punct::Colon) {
            let _label = cur.expect_ident("block label")?;
        }
        let mut stmts = Vec::new();
        while !cur.at_kw(Kw::End) {
            if cur.at_eof() {
                return Err(cur.err("unexpected end of file inside begin/end"));
            }
            stmts.push(cur.nested(parse_stmt)?);
        }
        cur.expect_kw(Kw::End, "'end'")?;
        return Ok(Stmt::Block(stmts));
    }
    if cur.eat_kw(Kw::If) {
        cur.expect_punct(Punct::LParen, "'(' of if")?;
        let cond = parse_expr(cur)?;
        cur.expect_punct(Punct::RParen, "')' of if")?;
        let then = cur.nested(parse_stmt)?;
        let alt = if cur.eat_kw(Kw::Else) {
            Some(Box::new(cur.nested(parse_stmt)?))
        } else {
            None
        };
        return Ok(Stmt::If {
            cond,
            then: Box::new(then),
            alt,
        });
    }
    if cur.eat_kw(Kw::Case) {
        cur.expect_punct(Punct::LParen, "'(' of case")?;
        let subject = parse_expr(cur)?;
        cur.expect_punct(Punct::RParen, "')' of case")?;
        let mut arms = Vec::new();
        let mut default = None;
        while !cur.at_kw(Kw::Endcase) {
            if cur.at_eof() {
                return Err(cur.err("unexpected end of file inside case"));
            }
            if cur.eat_kw(Kw::Default) {
                cur.expect_punct(Punct::Colon, "':' after default")?;
                default = Some(Box::new(cur.nested(parse_stmt)?));
                continue;
            }
            let mut labels = vec![parse_expr(cur)?];
            while cur.eat_punct(Punct::Comma) {
                labels.push(parse_expr(cur)?);
            }
            cur.expect_punct(Punct::Colon, "':' after case label")?;
            let body = cur.nested(parse_stmt)?;
            arms.push((labels, body));
        }
        cur.expect_kw(Kw::Endcase, "'endcase'")?;
        return Ok(Stmt::Case {
            subject,
            arms,
            default,
        });
    }
    if cur.eat_punct(Punct::Semi) {
        return Ok(Stmt::Empty);
    }
    // Assignment.
    let lhs = parse_lvalue(cur)?;
    if cur.eat_punct(Punct::Le) {
        let rhs = parse_expr(cur)?;
        cur.expect_punct(Punct::Semi, "';' after non-blocking assignment")?;
        return Ok(Stmt::NonBlocking(lhs, rhs));
    }
    if cur.eat_punct(Punct::Assign) {
        let rhs = parse_expr(cur)?;
        cur.expect_punct(Punct::Semi, "';' after blocking assignment")?;
        return Ok(Stmt::Blocking(lhs, rhs));
    }
    Err(cur.err("expected '<=' or '=' in assignment"))
}

#[cfg(test)]
mod tests {
    use crate::{parse_snippet, parse_source};
    use sv_ast::{ModuleItem, PortDir, Stmt};

    #[test]
    fn minimal_module() {
        let src =
            "module m (a, b);\ninput a;\noutput [3:0] b;\nwire w;\nassign w = a;\nendmodule\n";
        let f = parse_source(src).unwrap();
        let m = f.module("m").unwrap();
        assert_eq!(m.ports.len(), 2);
        assert_eq!(m.port("b").unwrap().dir, PortDir::Output);
        assert_eq!(m.items.len(), 2);
    }

    #[test]
    fn ansi_header() {
        let src = "module m (input clk, input [7:0] d, output reg [7:0] q);\nendmodule\n";
        let f = parse_source(src).unwrap();
        let m = f.module("m").unwrap();
        assert_eq!(m.ports.len(), 3);
        assert!(m.port("q").unwrap().is_reg);
    }

    #[test]
    fn comma_decls_expand() {
        let src = "module m ();\nreg [1:0] state, next_state;\ninput clk, reset_;\nendmodule\n";
        let f = parse_source(src).unwrap();
        let m = f.module("m").unwrap();
        let nets: Vec<_> = m
            .items
            .iter()
            .filter(|i| matches!(i, ModuleItem::Net(_)))
            .collect();
        assert_eq!(nets.len(), 2);
        assert_eq!(m.ports.len(), 2);
    }

    #[test]
    fn always_ff_with_async_reset() {
        let src = "module m (clk, reset_);\ninput clk; input reset_;\nreg q;\n\
                   always_ff @(posedge clk or negedge reset_) begin\n\
                   if (!reset_) q <= 1'b0; else q <= !q;\nend\nendmodule\n";
        let f = parse_source(src).unwrap();
        let m = f.module("m").unwrap();
        match &m.items[1] {
            ModuleItem::AlwaysFf { events, body } => {
                assert_eq!(events.len(), 2);
                assert!(matches!(body, Stmt::Block(_)));
            }
            other => panic!("expected always_ff, got {other:?}"),
        }
    }

    #[test]
    fn case_statement() {
        let src = "module m ();\nreg [1:0] s, n;\nalways_comb begin\ncase (s)\n\
                   2'b00: n = 2'b10;\n2'b01, 2'b10: n = 2'b11;\ndefault: n = 2'b00;\n\
                   endcase\nend\nendmodule\n";
        let f = parse_source(src).unwrap();
        let m = f.module("m").unwrap();
        match &m.items[2] {
            ModuleItem::AlwaysComb(Stmt::Block(stmts)) => match &stmts[0] {
                Stmt::Case { arms, default, .. } => {
                    assert_eq!(arms.len(), 2);
                    assert_eq!(arms[1].0.len(), 2);
                    assert!(default.is_some());
                }
                other => panic!("expected case, got {other:?}"),
            },
            other => panic!("expected always_comb, got {other:?}"),
        }
    }

    #[test]
    fn generate_for_with_label() {
        let src = "module m ();\nwire [3:0] d;\n\
                   for (genvar i = 1; i < 4; i++) begin : loop_id\n\
                   assign d[i] = d[i-1];\nend\nendmodule\n";
        let f = parse_source(src).unwrap();
        let m = f.module("m").unwrap();
        match &m.items[1] {
            ModuleItem::GenerateFor {
                var, label, body, ..
            } => {
                assert_eq!(var, "i");
                assert_eq!(label.as_deref(), Some("loop_id"));
                assert_eq!(body.len(), 1);
            }
            other => panic!("expected generate-for, got {other:?}"),
        }
    }

    #[test]
    fn generate_endgenerate_region() {
        let src = "module m ();\nwire w;\ngenerate\nfor (genvar i=0; i<2; i=i+1) begin : gen\n\
                   wire x;\nend\nendgenerate\nendmodule\n";
        let f = parse_source(src).unwrap();
        assert!(f
            .module("m")
            .unwrap()
            .items
            .iter()
            .any(|i| matches!(i, ModuleItem::GenerateFor { .. })));
    }

    #[test]
    fn instance_with_params() {
        let src = "module top ();\nwire clk, a, b;\n\
                   exec_unit_0 #(.WIDTH(8)) unit_0 (\n.clk(clk),\n.in_data(a),\n.out_data(b)\n);\n\
                   endmodule\n";
        let f = parse_source(src).unwrap();
        match &f.module("top").unwrap().items[3] {
            ModuleItem::Instance(inst) => {
                assert_eq!(inst.module, "exec_unit_0");
                assert_eq!(inst.params.len(), 1);
                assert_eq!(inst.conns.len(), 3);
            }
            other => panic!("expected instance, got {other:?}"),
        }
    }

    #[test]
    fn module_with_assertion() {
        let src = "module tb (clk);\ninput clk;\nwire a;\n\
                   asrt: assert property (@(posedge clk) a);\nendmodule\n";
        let f = parse_source(src).unwrap();
        let m = f.module("tb").unwrap();
        assert_eq!(m.assertions().count(), 1);
    }

    #[test]
    fn snippet_parsing_design2sva_response_shape() {
        // The exact shape of the paper's Figure 9 / Appendix C responses.
        let src = "logic [1:0] fsm_state, fsm_next_state;\n\
                   assign fsm_state = fsm_out;\n\
                   assert property (@(posedge clk) disable iff (tb_reset)\n\
                   (fsm_state == S2) |-> (fsm_next_state == S0 || fsm_next_state == S1)\n\
                   );\n";
        let items = parse_snippet(src).unwrap();
        assert_eq!(items.len(), 4);
        assert!(matches!(items[3], ModuleItem::Assertion(_)));
    }

    #[test]
    fn initial_block_rejected() {
        let src = "initial begin a = 1; end\n";
        let err = parse_snippet(src).unwrap_err();
        assert!(err.message.contains("initial"));
    }

    #[test]
    fn localparam_with_clog2() {
        let src = "module m ();\nparameter FIFO_DEPTH = 4;\n\
                   localparam FIFO_DEPTH_log2 = $clog2(FIFO_DEPTH);\nendmodule\n";
        let f = parse_source(src).unwrap();
        assert_eq!(f.module("m").unwrap().params.len(), 2);
    }
}
