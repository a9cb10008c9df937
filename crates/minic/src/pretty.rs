//! C-like pretty printer for MiniC programs.
//!
//! Renders a program as the C translation unit a developer would review —
//! useful for inspecting what the automatic code generator produced and for
//! the examples that reproduce the paper's listings.

use std::fmt::Write as _;

use crate::ast::{Binop, Cmp, Expr, Function, Global, GlobalDef, Program, Stmt, Ty, Unop};

fn ty_name(ty: Ty) -> &'static str {
    match ty {
        Ty::I32 => "int",
        Ty::F64 => "double",
        Ty::Bool => "bool",
    }
}

fn cmp_op(c: Cmp) -> &'static str {
    match c {
        Cmp::Eq => "==",
        Cmp::Ne => "!=",
        Cmp::Lt => "<",
        Cmp::Le => "<=",
        Cmp::Gt => ">",
        Cmp::Ge => ">=",
    }
}

fn binop_str(op: Binop) -> &'static str {
    match op {
        Binop::AddI | Binop::AddF => "+",
        Binop::SubI | Binop::SubF => "-",
        Binop::MulI | Binop::MulF => "*",
        Binop::DivI | Binop::DivF => "/",
        Binop::CmpI(c) | Binop::CmpF(c) => cmp_op(c),
        Binop::AndB => "&&",
        Binop::OrB => "||",
        Binop::XorB => "^",
    }
}

fn expr(e: &Expr, out: &mut String) {
    match e {
        Expr::IntLit(v) => {
            let _ = write!(out, "{v}");
        }
        Expr::FloatLit(v) => {
            // an integral double must not print as a bare digit string,
            // which the lexer reads back as an int literal: small ones get
            // a `.0`, large ones the shortest round-trip exponent form
            let _ = if v.fract() != 0.0 || !v.is_finite() {
                write!(out, "{v}")
            } else if v.abs() < 1e15 {
                write!(out, "{v:.1}")
            } else {
                write!(out, "{v:e}")
            };
        }
        Expr::BoolLit(v) => {
            let _ = write!(out, "{v}");
        }
        Expr::Var(n) => out.push_str(n),
        Expr::Index(n, i) => {
            let _ = write!(out, "{n}[");
            expr(i, out);
            out.push(']');
        }
        Expr::Unop(op, a) => {
            match op {
                Unop::NegI | Unop::NegF => out.push('-'),
                Unop::NotB => out.push('!'),
                Unop::AbsF => out.push_str("__builtin_fabs"),
                Unop::I2F => out.push_str("(double)"),
                Unop::F2I => out.push_str("(int)"),
            }
            out.push('(');
            expr(a, out);
            out.push(')');
        }
        Expr::Binop(op, a, b) => {
            out.push('(');
            expr(a, out);
            let _ = write!(out, " {} ", binop_str(*op));
            expr(b, out);
            out.push(')');
        }
        Expr::Call(n, args) => {
            let _ = write!(out, "{n}(");
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                expr(a, out);
            }
            out.push(')');
        }
        Expr::IoRead(port) => {
            let _ = write!(out, "__io_read({port})");
        }
    }
}

fn stmt(s: &Stmt, indent: usize, out: &mut String) {
    let pad = "    ".repeat(indent);
    match s {
        Stmt::Assign(n, e) => {
            let _ = write!(out, "{pad}{n} = ");
            expr(e, out);
            out.push_str(";\n");
        }
        Stmt::StoreIndex(n, i, e) => {
            let _ = write!(out, "{pad}{n}[");
            expr(i, out);
            out.push_str("] = ");
            expr(e, out);
            out.push_str(";\n");
        }
        Stmt::If(c, then, els) => {
            let _ = write!(out, "{pad}if (");
            expr(c, out);
            out.push_str(") {\n");
            for s in then {
                stmt(s, indent + 1, out);
            }
            if els.is_empty() {
                let _ = writeln!(out, "{pad}}}");
            } else {
                let _ = writeln!(out, "{pad}}} else {{");
                for s in els {
                    stmt(s, indent + 1, out);
                }
                let _ = writeln!(out, "{pad}}}");
            }
        }
        Stmt::While(c, body) => {
            let _ = write!(out, "{pad}while (");
            expr(c, out);
            out.push_str(") {\n");
            for s in body {
                stmt(s, indent + 1, out);
            }
            let _ = writeln!(out, "{pad}}}");
        }
        Stmt::Return(None) => {
            let _ = writeln!(out, "{pad}return;");
        }
        Stmt::Return(Some(e)) => {
            let _ = write!(out, "{pad}return ");
            expr(e, out);
            out.push_str(";\n");
        }
        Stmt::Annot(f, args) => {
            let _ = write!(out, "{pad}__builtin_annotation(");
            string_lit(f, out);
            for a in args {
                out.push_str(", ");
                expr(a, out);
            }
            out.push_str(");\n");
        }
        Stmt::IoWrite(port, e) => {
            let _ = write!(out, "{pad}__io_write({port}, ");
            expr(e, out);
            out.push_str(");\n");
        }
        Stmt::CallStmt(n, args) => {
            let _ = write!(out, "{pad}{n}(");
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                expr(a, out);
            }
            out.push_str(");\n");
        }
    }
}

/// A string literal escaping exactly `"`, `\` and newline — the three
/// escapes the lexer reads — so every string prints as text that parses
/// back to it.
fn string_lit(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A global `double` initializer as text. Integral values of magnitude
/// ≥ 2^63 would print as a digit string the lexer rejects as an
/// out-of-range int, so they take the exponent form `Expr::FloatLit`
/// uses; every other value prints as `{v}`, unchanged.
fn init_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() >= 9_223_372_036_854_775_808.0 {
        format!("{v:e}")
    } else {
        v.to_string()
    }
}

fn global(g: &Global, out: &mut String) {
    match &g.def {
        GlobalDef::ScalarI32(init) => {
            let _ = match init {
                Some(v) => writeln!(out, "int {} = {v};", g.name),
                None => writeln!(out, "int {};", g.name),
            };
        }
        GlobalDef::ScalarF64(init) => {
            let _ = match init {
                Some(v) => writeln!(out, "double {} = {};", g.name, init_f64(*v)),
                None => writeln!(out, "double {};", g.name),
            };
        }
        GlobalDef::ScalarBool(init) => {
            let _ = match init {
                Some(v) => writeln!(out, "bool {} = {v};", g.name),
                None => writeln!(out, "bool {};", g.name),
            };
        }
        GlobalDef::ArrayI32(vals) => {
            let items: Vec<String> = vals.iter().map(|v| v.to_string()).collect();
            let _ = writeln!(
                out,
                "int {}[{}] = {{{}}};",
                g.name,
                vals.len(),
                items.join(", ")
            );
        }
        GlobalDef::ArrayF64(vals) => {
            let items: Vec<String> = vals.iter().map(|&v| init_f64(v)).collect();
            let _ = writeln!(
                out,
                "double {}[{}] = {{{}}};",
                g.name,
                vals.len(),
                items.join(", ")
            );
        }
    }
}

/// Renders one function as C.
pub fn function_to_c(f: &Function) -> String {
    let mut out = String::new();
    let ret = f.ret.map_or("void", ty_name);
    let params: Vec<String> = f
        .params
        .iter()
        .map(|(n, t)| format!("{} {n}", ty_name(*t)))
        .collect();
    let _ = writeln!(out, "{ret} {}({}) {{", f.name, params.join(", "));
    for (n, t) in &f.locals {
        let _ = writeln!(out, "    {} {n};", ty_name(*t));
    }
    for s in &f.body {
        stmt(s, 1, &mut out);
    }
    out.push_str("}\n");
    out
}

/// Renders a whole program as a C translation unit.
pub fn program_to_c(p: &Program) -> String {
    let mut out = String::new();
    for g in &p.globals {
        global(g, &mut out);
    }
    if !p.globals.is_empty() {
        out.push('\n');
    }
    for (i, f) in p.functions.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&function_to_c(f));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::*;

    #[test]
    fn renders_readable_c() {
        let p = Program {
            globals: vec![
                Global {
                    name: "k".into(),
                    def: GlobalDef::ScalarF64(Some(2.5)),
                },
                Global {
                    name: "tab".into(),
                    def: GlobalDef::ArrayI32(vec![1, 2, 3]),
                },
            ],
            functions: vec![Function {
                name: "step".into(),
                params: vec![("x".into(), Ty::F64)],
                ret: Some(Ty::F64),
                locals: vec![("y".into(), Ty::F64)],
                body: vec![
                    Stmt::Annot("0 <= %1".into(), vec![Expr::var("x")]),
                    Stmt::Assign(
                        "y".into(),
                        Expr::binop(Binop::MulF, Expr::var("k"), Expr::var("x")),
                    ),
                    Stmt::If(
                        Expr::binop(Binop::CmpF(Cmp::Lt), Expr::var("y"), Expr::FloatLit(0.0)),
                        vec![Stmt::Assign("y".into(), Expr::FloatLit(0.0))],
                        vec![],
                    ),
                    Stmt::Return(Some(Expr::var("y"))),
                ],
            }],
        };
        let c = program_to_c(&p);
        assert!(c.contains("double k = 2.5;"), "{c}");
        assert!(c.contains("int tab[3] = {1, 2, 3};"), "{c}");
        assert!(c.contains("double step(double x) {"), "{c}");
        assert!(c.contains("__builtin_annotation(\"0 <= %1\", x);"), "{c}");
        assert!(c.contains("y = (k * x);"), "{c}");
        assert!(c.contains("if ((y < 0.0)) {"), "{c}");
        assert!(c.contains("return y;"), "{c}");
    }

    #[test]
    fn renders_control_flow_and_io() {
        let f = Function {
            name: "n".into(),
            params: vec![],
            ret: None,
            locals: vec![],
            body: vec![
                Stmt::While(Expr::BoolLit(true), vec![Stmt::Return(None)]),
                Stmt::IoWrite(2, Expr::IoRead(1)),
                Stmt::CallStmt("helper".into(), vec![Expr::IntLit(3)]),
            ],
        };
        let c = function_to_c(&f);
        assert!(c.contains("while (true) {"), "{c}");
        assert!(c.contains("__io_write(2, __io_read(1));"), "{c}");
        assert!(c.contains("helper(3);"), "{c}");
    }
}
