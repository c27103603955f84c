//! Recursive-descent parser for the Verilog subset.

use crate::ast::*;
use crate::error::VerilogError;
use crate::lexer::{lex, SpannedTok, Tok};

/// Deepest nesting the parser accepts, counted across expressions
/// (parentheses, concatenations, selects, unary operators, `?:` arms) and
/// statements (`begin`, `if`, `case` bodies) together. The parser recurses
/// once per level, so without a cap a few hundred kilobytes of `(` overflow
/// a thread's stack; past it, parsing fails with a [`VerilogError`].
pub const MAX_NESTING_DEPTH: usize = 128;

/// Parses a source file into a [`Design`].
///
/// # Errors
///
/// Returns a [`VerilogError`] with a line number on any lexical or
/// syntactic problem, including nesting deeper than
/// [`MAX_NESTING_DEPTH`].
pub fn parse(source: &str) -> Result<Design, VerilogError> {
    let mut span = hc_obs::span("parse").with("source_bytes", source.len());
    let toks = lex(source)?;
    span.attach("tokens", toks.len());
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    let mut modules = Vec::new();
    while !p.at_eof() {
        modules.push(p.module()?);
    }
    span.attach("modules", modules.len());
    Ok(Design { modules })
}

struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
    /// Current expression + statement nesting (see [`MAX_NESTING_DEPTH`]).
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].line
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), Tok::Eof)
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> VerilogError {
        VerilogError::at(self.line(), msg.into())
    }

    /// Runs one recursive production a level deeper, failing instead of
    /// recursing past [`MAX_NESTING_DEPTH`].
    fn nested<T>(
        &mut self,
        production: impl FnOnce(&mut Self) -> Result<T, VerilogError>,
    ) -> Result<T, VerilogError> {
        if self.depth >= MAX_NESTING_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING_DEPTH} levels")));
        }
        self.depth += 1;
        let result = production(self);
        self.depth -= 1;
        result
    }

    fn at_punct(&self, p: &str) -> bool {
        matches!(self.peek(), Tok::Punct(q) if *q == p)
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if self.at_punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), VerilogError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.err(format!("expected {p:?}, found {:?}", self.peek())))
        }
    }

    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), VerilogError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected keyword {kw:?}, found {:?}", self.peek())))
        }
    }

    fn ident(&mut self) -> Result<String, VerilogError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn module(&mut self) -> Result<VModule, VerilogError> {
        let line = self.line();
        self.expect_kw("module")?;
        let name = self.ident()?;
        let mut params = Vec::new();
        if self.eat_punct("#") {
            self.expect_punct("(")?;
            loop {
                self.expect_kw("parameter")?;
                let pname = self.ident()?;
                self.expect_punct("=")?;
                params.push((pname, self.expr()?));
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(")")?;
        }
        let mut ports = Vec::new();
        if self.eat_punct("(") && !self.eat_punct(")") {
            let mut dir = Dir::Input;
            let mut is_reg = false;
            let mut range: Option<(Expr, Expr)> = None;
            loop {
                // Direction/reg/range are sticky across commas.
                if self.eat_kw("input") {
                    dir = Dir::Input;
                    is_reg = false;
                    range = None;
                    self.port_mods(&mut is_reg, &mut range)?;
                } else if self.eat_kw("output") {
                    dir = Dir::Output;
                    is_reg = false;
                    range = None;
                    self.port_mods(&mut is_reg, &mut range)?;
                }
                let pname = self.ident()?;
                ports.push(PortDecl {
                    dir,
                    is_reg,
                    name: pname,
                    range: range.clone(),
                });
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(")")?;
        }
        self.expect_punct(";")?;

        let mut items = Vec::new();
        while !self.eat_kw("endmodule") {
            if self.at_eof() {
                return Err(self.err("missing endmodule"));
            }
            self.item(&mut items, &mut params)?;
        }
        Ok(VModule {
            name,
            params,
            ports,
            items,
            line,
        })
    }

    fn port_mods(
        &mut self,
        is_reg: &mut bool,
        range: &mut Option<(Expr, Expr)>,
    ) -> Result<(), VerilogError> {
        if self.eat_kw("reg") {
            *is_reg = true;
        }
        self.eat_kw("signed"); // subset: everything is signed
        if self.at_punct("[") {
            *range = Some(self.range()?);
        }
        Ok(())
    }

    fn range(&mut self) -> Result<(Expr, Expr), VerilogError> {
        self.expect_punct("[")?;
        let msb = self.expr()?;
        self.expect_punct(":")?;
        let lsb = self.expr()?;
        self.expect_punct("]")?;
        Ok((msb, lsb))
    }

    fn item(
        &mut self,
        items: &mut Vec<Item>,
        params: &mut Vec<(String, Expr)>,
    ) -> Result<(), VerilogError> {
        let line = self.line();
        if self.eat_kw("parameter") || self.eat_kw("localparam") {
            loop {
                let name = self.ident()?;
                self.expect_punct("=")?;
                params.push((name, self.expr()?));
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(";")?;
            return Ok(());
        }
        if self.at_kw("wire") || self.at_kw("reg") {
            let is_reg = self.eat_kw("reg");
            if !is_reg {
                self.expect_kw("wire")?;
            }
            self.eat_kw("signed");
            let range = if self.at_punct("[") {
                Some(self.range()?)
            } else {
                None
            };
            loop {
                let name = self.ident()?;
                items.push(Item::Net {
                    is_reg,
                    name,
                    range: range.clone(),
                    line,
                });
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(";")?;
            return Ok(());
        }
        if self.eat_kw("assign") {
            let lhs = self.ident()?;
            self.expect_punct("=")?;
            let rhs = self.expr()?;
            self.expect_punct(";")?;
            items.push(Item::Assign { lhs, rhs, line });
            return Ok(());
        }
        if self.eat_kw("always") {
            if self.eat_punct("@*") {
                let body = self.stmt()?;
                items.push(Item::Always {
                    clocked: false,
                    body,
                    line,
                });
                return Ok(());
            }
            self.expect_punct("@")?;
            let clocked = if self.eat_punct("*") {
                false
            } else {
                self.expect_punct("(")?;
                let clocked = if self.eat_punct("*") {
                    false
                } else {
                    self.expect_kw("posedge")?;
                    let clk = self.ident()?;
                    if clk != "clk" {
                        return Err(self.err("subset: the clock must be named 'clk'"));
                    }
                    true
                };
                self.expect_punct(")")?;
                clocked
            };
            let body = self.stmt()?;
            items.push(Item::Always {
                clocked,
                body,
                line,
            });
            return Ok(());
        }
        // Otherwise: an instantiation `Type #(...) name (.p(e), ...);`
        let module = self.ident()?;
        let mut overrides = Vec::new();
        if self.eat_punct("#") {
            self.expect_punct("(")?;
            loop {
                self.expect_punct(".")?;
                let pname = self.ident()?;
                self.expect_punct("(")?;
                overrides.push((pname, self.expr()?));
                self.expect_punct(")")?;
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(")")?;
        }
        let name = self.ident()?;
        self.expect_punct("(")?;
        let mut connections = Vec::new();
        if !self.eat_punct(")") {
            loop {
                self.expect_punct(".")?;
                let pname = self.ident()?;
                self.expect_punct("(")?;
                connections.push((pname, self.expr()?));
                self.expect_punct(")")?;
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(")")?;
        }
        self.expect_punct(";")?;
        items.push(Item::Instance {
            module,
            name,
            params: overrides,
            connections,
            line,
        });
        Ok(())
    }

    fn stmt(&mut self) -> Result<Stmt, VerilogError> {
        self.nested(Self::stmt_body)
    }

    fn stmt_body(&mut self) -> Result<Stmt, VerilogError> {
        let line = self.line();
        if self.eat_kw("begin") {
            let mut stmts = Vec::new();
            while !self.eat_kw("end") {
                if self.at_eof() {
                    return Err(self.err("missing end"));
                }
                stmts.push(self.stmt()?);
            }
            return Ok(Stmt::Block(stmts));
        }
        if self.eat_kw("if") {
            self.expect_punct("(")?;
            let cond = self.expr()?;
            self.expect_punct(")")?;
            let then = Box::new(self.stmt()?);
            let else_ = if self.eat_kw("else") {
                Some(Box::new(self.stmt()?))
            } else {
                None
            };
            return Ok(Stmt::If { cond, then, else_ });
        }
        if self.eat_kw("case") {
            self.expect_punct("(")?;
            let subject = self.expr()?;
            self.expect_punct(")")?;
            let mut arms = Vec::new();
            let mut default = None;
            while !self.eat_kw("endcase") {
                if self.at_eof() {
                    return Err(self.err("missing endcase"));
                }
                if self.eat_kw("default") {
                    self.expect_punct(":")?;
                    default = Some(Box::new(self.stmt()?));
                    continue;
                }
                let mut labels = vec![self.expr()?];
                while self.eat_punct(",") {
                    labels.push(self.expr()?);
                }
                self.expect_punct(":")?;
                arms.push((labels, self.stmt()?));
            }
            return Ok(Stmt::Case {
                subject,
                arms,
                default,
            });
        }
        // Assignment.
        let lhs = self.ident()?;
        let blocking = if self.eat_punct("<=") {
            false
        } else {
            self.expect_punct("=")?;
            true
        };
        let rhs = self.expr()?;
        self.expect_punct(";")?;
        Ok(Stmt::Assign {
            lhs,
            rhs,
            blocking,
            line,
        })
    }

    // ------------------------------------------------------------------
    // Expressions (precedence climbing)
    // ------------------------------------------------------------------

    pub(crate) fn expr(&mut self) -> Result<Expr, VerilogError> {
        self.nested(Self::ternary)
    }

    fn ternary(&mut self) -> Result<Expr, VerilogError> {
        let cond = self.binary(0)?;
        if self.eat_punct("?") {
            let t = self.expr()?;
            self.expect_punct(":")?;
            let f = self.expr()?;
            Ok(Expr::Ternary(Box::new(cond), Box::new(t), Box::new(f)))
        } else {
            Ok(cond)
        }
    }

    /// The binary operator at the cursor, with its precedence level
    /// (0 binds loosest).
    fn binop(&self) -> Option<(usize, BinOp)> {
        let table: &[&[(&str, BinOp)]] = &[
            &[("||", BinOp::LogicOr)],
            &[("&&", BinOp::LogicAnd)],
            &[("|", BinOp::Or)],
            &[("^", BinOp::Xor)],
            &[("&", BinOp::And)],
            &[("==", BinOp::Eq), ("!=", BinOp::Ne)],
            &[
                ("<=", BinOp::Le),
                (">=", BinOp::Ge),
                ("<", BinOp::Lt),
                (">", BinOp::Gt),
            ],
            &[
                (">>>", BinOp::AShr),
                ("<<<", BinOp::Shl), // arithmetic and logical left shifts agree
                ("<<", BinOp::Shl),
                (">>", BinOp::Shr),
            ],
            &[("+", BinOp::Add), ("-", BinOp::Sub)],
            &[("*", BinOp::Mul)],
        ];
        table.iter().enumerate().find_map(|(level, ops)| {
            ops.iter()
                .find(|(p, _)| self.at_punct(p))
                .map(|&(_, op)| (level, op))
        })
    }

    /// Precedence climbing: a left-associative chain of operators binding
    /// at least as tightly as `min_level`. One stack frame per operand,
    /// not one per precedence level, keeps each nesting level cheap.
    fn binary(&mut self, min_level: usize) -> Result<Expr, VerilogError> {
        let mut lhs = self.unary()?;
        while let Some((level, op)) = self.binop().filter(|&(l, _)| l >= min_level) {
            self.bump();
            let rhs = self.binary(level + 1)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, VerilogError> {
        for (p, op) in [
            ("-", UnOp::Neg),
            ("~", UnOp::Not),
            ("!", UnOp::LogicNot),
            ("|", UnOp::RedOr),
            ("&", UnOp::RedAnd),
            ("^", UnOp::RedXor),
        ] {
            if self.at_punct(p) {
                self.bump();
                let operand = self.nested(Self::unary)?;
                return Ok(Expr::Unary(op, Box::new(operand)));
            }
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, VerilogError> {
        match self.bump() {
            Tok::Number { value, width } => Ok(Expr::Literal { value, width }),
            Tok::Ident(name) => {
                if self.eat_punct("[") {
                    let first = self.expr()?;
                    if self.eat_punct(":") {
                        let lsb = self.expr()?;
                        self.expect_punct("]")?;
                        Ok(Expr::Part(name, Box::new(first), Box::new(lsb)))
                    } else {
                        self.expect_punct("]")?;
                        Ok(Expr::Bit(name, Box::new(first)))
                    }
                } else {
                    Ok(Expr::Ident(name))
                }
            }
            Tok::Punct("(") => {
                let e = self.expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            Tok::Punct("{") => {
                let first = self.expr()?;
                if self.eat_punct("{") {
                    // Replication: {count{value}}.
                    let value = self.expr()?;
                    self.expect_punct("}")?;
                    self.expect_punct("}")?;
                    return Ok(Expr::Repl(Box::new(first), Box::new(value)));
                }
                let mut parts = vec![first];
                while self.eat_punct(",") {
                    parts.push(self.expr()?);
                }
                self.expect_punct("}")?;
                Ok(Expr::Concat(parts))
            }
            other => Err(self.err(format!("expected expression, found {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_small_module() {
        let d = parse(
            "module m #(parameter W = 8) (input [W-1:0] a, b, output [W-1:0] y);
               assign y = a + b;
             endmodule",
        )
        .unwrap();
        let m = d.module("m").unwrap();
        assert_eq!(m.ports.len(), 3);
        assert_eq!(m.ports[1].name, "b");
        assert_eq!(m.ports[1].dir, Dir::Input);
        assert_eq!(m.ports[2].dir, Dir::Output);
        assert_eq!(m.params.len(), 1);
        assert_eq!(m.items.len(), 1);
    }

    #[test]
    fn parses_always_blocks() {
        let d = parse(
            "module m (input clk, input d, output reg q);
               always @(posedge clk) begin
                 if (d) q <= 1'b1; else q <= 1'b0;
               end
             endmodule",
        )
        .unwrap();
        let m = d.module("m").unwrap();
        assert!(matches!(m.items[0], Item::Always { clocked: true, .. }));
    }

    #[test]
    fn parses_case_and_concat() {
        let d = parse(
            "module m (input [1:0] s, input [3:0] a, output reg [7:0] y);
               always @* begin
                 case (s)
                   2'd0: y = {a, a};
                   2'd1, 2'd2: y = {4'd0, a};
                   default: y = 8'd0;
                 endcase
               end
             endmodule",
        )
        .unwrap();
        match &d.module("m").unwrap().items[0] {
            Item::Always {
                body: Stmt::Block(stmts),
                ..
            } => match &stmts[0] {
                Stmt::Case { arms, default, .. } => {
                    assert_eq!(arms.len(), 2);
                    assert_eq!(arms[1].0.len(), 2);
                    assert!(default.is_some());
                }
                other => panic!("expected case, got {other:?}"),
            },
            other => panic!("expected always, got {other:?}"),
        }
    }

    #[test]
    fn parses_instances_with_overrides() {
        let d = parse(
            "module top (input [7:0] a, output [7:0] y);
               wire [7:0] t;
               adder #(.W(8)) u0 (.a(a), .b(8'd1), .y(t));
               adder u1 (.a(t), .b(a), .y(y));
             endmodule",
        )
        .unwrap();
        let m = d.module("top").unwrap();
        let inst_count = m
            .items
            .iter()
            .filter(|i| matches!(i, Item::Instance { .. }))
            .count();
        assert_eq!(inst_count, 2);
    }

    #[test]
    fn precedence_shift_binds_tighter_than_compare() {
        let d =
            parse("module m (input [7:0] a, output y); assign y = a >> 2 < a; endmodule").unwrap();
        match &d.module("m").unwrap().items[0] {
            Item::Assign {
                rhs: Expr::Binary(BinOp::Lt, ..),
                ..
            } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn nesting_is_capped_at_max_nesting_depth() {
        // `expr` itself is one level, so an assign's right-hand side can
        // hold MAX_NESTING_DEPTH - 1 parentheses.
        let parens = |n: usize| {
            format!(
                "module m (input a, output y); assign y = {}a{}; endmodule",
                "(".repeat(n),
                ")".repeat(n)
            )
        };
        assert!(parse(&parens(MAX_NESTING_DEPTH - 1)).is_ok());
        let err = parse(&parens(MAX_NESTING_DEPTH)).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
        let unary = format!(
            "module m (input a, output y); assign y = {}a; endmodule",
            "~".repeat(MAX_NESTING_DEPTH)
        );
        assert!(parse(&unary).is_err());
        let blocks = format!(
            "module m (input clk, input a, output reg y); always @(posedge clk) {}y <= a;{} endmodule",
            "begin ".repeat(MAX_NESTING_DEPTH + 1),
            " end".repeat(MAX_NESTING_DEPTH + 1)
        );
        assert!(parse(&blocks).is_err());
    }

    /// 200k nested `(` is about 400 KB, well under hc-serve's body cap;
    /// parsing it on a 2 MiB connection-thread stack must fail cleanly.
    #[test]
    fn two_hundred_thousand_parens_return_err_on_a_2mib_stack() {
        let source = format!(
            "module m (input a, output y); assign y = {}a{}; endmodule",
            "(".repeat(200_000),
            ")".repeat(200_000)
        );
        let failed = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || parse(&source).is_err())
            .expect("spawn parser thread")
            .join()
            .expect("parser thread did not overflow or panic");
        assert!(failed);
    }

    /// The deepest source the parser accepts also elaborates on a 2 MiB
    /// stack, so the cap protects the whole frontend, not just the parser.
    #[test]
    fn deepest_accepted_nesting_elaborates_on_a_2mib_stack() {
        let depth = MAX_NESTING_DEPTH - 1;
        let source = format!(
            "module m (input [7:0] a, output [7:0] y); assign y = {}a{}; endmodule",
            "(~".repeat(depth / 2),
            ")".repeat(depth / 2)
        );
        let ok = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let design = parse(&source).expect("within the cap");
                crate::elaborate(&design, "m").is_ok()
            })
            .expect("spawn parser thread")
            .join()
            .expect("frontend thread did not overflow or panic");
        assert!(ok);
    }

    #[test]
    fn error_has_line_number() {
        let err = parse("module m (input a);\n  assign = 1;\nendmodule").unwrap_err();
        assert_eq!(err.line(), Some(2));
    }
}
