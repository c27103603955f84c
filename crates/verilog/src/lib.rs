//! A synthesizable Verilog-2005 subset frontend: lexer, parser and
//! elaborator targeting the shared `hc-rtl` netlist IR.
//!
//! This crate plays the role of the paper's baseline flow: the IDCT
//! designs under `designs/*.v` are genuine Verilog text (the LOC metric is
//! counted on them), and [`elaborate`] turns a parsed source tree into a
//! flat [`hc_rtl::Module`] that the whole workspace can simulate and
//! synthesize.
//!
//! # Subset
//!
//! * module / endmodule, parameters (with instance overrides), `localparam`
//! * `input`/`output`/`wire`/`reg` with constant ranges; `signed` is
//!   accepted and — by subset definition — **all** arithmetic is signed
//!   (the IDCT needs signed semantics throughout; mixing would need
//!   Verilog's full self-determination rules)
//! * `assign`, `always @*` (blocking `=`), `always @(posedge clk)`
//!   (non-blocking `<=`), `if`/`else`, `case`/`default`, `begin`/`end`
//! * operators: `+ - * & | ^ ~ << >> >>> == != < <= > >= && || ! ?:`,
//!   concatenation `{a, b}`, constant part select `x[11:4]`, dynamic bit
//!   select `x[i]`, sized literals `12'sd511` / `8'hff` / `4'b1010`
//! * module instantiation with named port connections and `#(...)`
//!   parameter overrides; hierarchy is flattened during elaboration
//! * unassigned paths in `always @*` read as zero (no latch inference —
//!   a deliberate subset rule, asserted by the elaborator's users)
//!
//! # Examples
//!
//! ```
//! use hc_verilog::{parse, elaborate};
//!
//! let src = "
//!     module add1 (input [7:0] a, output [7:0] y);
//!       assign y = a + 8'd1;
//!     endmodule";
//! let design = parse(src)?;
//! let module = elaborate(&design, "add1")?;
//! assert_eq!(module.inputs().len(), 1);
//! # Ok::<(), hc_verilog::VerilogError>(())
//! ```

mod ast;
pub mod designs;
mod elab;
pub mod emit;
mod error;
mod lexer;
pub mod matrix;
mod parser;

pub use ast::{Design, VModule};
pub use elab::elaborate;
pub use error::VerilogError;
pub use parser::{parse, MAX_NESTING_DEPTH};

/// Counts lines of code the way the paper does: excluding blank lines and
/// comment-only lines (`//` and `/* */`).
pub fn count_loc(source: &str) -> usize {
    // Blank out comments (preserving newlines), then count non-blank lines.
    let mut stripped = String::with_capacity(source.len());
    let mut chars = source.chars().peekable();
    let mut in_line = false;
    let mut in_block = false;
    while let Some(c) = chars.next() {
        if c == '\n' {
            in_line = false;
            stripped.push('\n');
            continue;
        }
        if in_line {
            continue;
        }
        if in_block {
            if c == '*' && chars.peek() == Some(&'/') {
                chars.next();
                in_block = false;
            }
            continue;
        }
        if c == '/' {
            match chars.peek() {
                Some('/') => {
                    chars.next();
                    in_line = true;
                    continue;
                }
                Some('*') => {
                    chars.next();
                    in_block = true;
                    continue;
                }
                _ => {}
            }
        }
        stripped.push(c);
    }
    stripped.lines().filter(|l| !l.trim().is_empty()).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loc_ignores_comments_and_blanks() {
        let src = "// header\n\nmodule m; // tail comment\n/* block\n   spans */\nendmodule\n";
        assert_eq!(count_loc(src), 2);
    }

    #[test]
    fn loc_counts_code_after_block_comment_close() {
        assert_eq!(count_loc("/* a */ wire x;\n/* b\n*/ wire y;"), 2);
    }
}
