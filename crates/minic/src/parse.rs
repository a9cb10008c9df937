//! Parser for the C-like concrete syntax produced by [`crate::pretty`].
//!
//! The grammar is the subset the pretty printer emits — enough to read
//! hand-written node sources and to round-trip generated code
//! (`parse(pretty(p)) == p`, a tested property):
//!
//! ```text
//! program   := { global | function }
//! global    := type ident [ "=" literal ] ";"
//!            | type ident "[" int "]" "=" "{" literal { "," literal } "}" ";"
//! function  := ("void" | type) ident "(" params ")" "{" { decl } { stmt } "}"
//! stmt      := ident "=" expr ";" | ident "[" expr "]" "=" expr ";"
//!            | "if" "(" expr ")" block [ "else" block ]
//!            | "while" "(" expr ")" block
//!            | "return" [ expr ] ";"
//!            | "__builtin_annotation" "(" string { "," expr } ")" ";"
//!            | "__io_write" "(" int "," expr ")" ";"
//!            | ident "(" args ")" ";"
//! ```
//!
//! Expressions use C precedence for the operator subset
//! (`||` < `&&` < comparisons < `+ -` < `* /` < unary).

use std::fmt;

use crate::ast::{Binop, Cmp, Expr, Function, Global, GlobalDef, Program, Stmt, Ty, Unop};

/// A parse failure with 1-based line/column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    Punct(&'static str),
}

struct Lexer<'s> {
    src: &'s [u8],
    pos: usize,
    line: usize,
    col: usize,
}

type Spanned = (Tok, usize, usize);

impl<'s> Lexer<'s> {
    fn new(src: &'s str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            col: self.col,
            message: message.into(),
        }
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.src.get(self.pos).copied()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn tokens(mut self) -> Result<Vec<Spanned>, ParseError> {
        let mut out = Vec::new();
        loop {
            // skip whitespace and // comments
            loop {
                match self.peek() {
                    Some(c) if c.is_ascii_whitespace() => {
                        self.bump();
                    }
                    Some(b'/') if self.peek2() == Some(b'/') => {
                        while let Some(c) = self.bump() {
                            if c == b'\n' {
                                break;
                            }
                        }
                    }
                    _ => break,
                }
            }
            let (line, col) = (self.line, self.col);
            let Some(c) = self.peek() else { break };
            let tok = match c {
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                    let mut s = String::new();
                    while let Some(c) = self.peek() {
                        if c.is_ascii_alphanumeric() || c == b'_' {
                            s.push(c as char);
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    Tok::Ident(s)
                }
                b'0'..=b'9' => self.number(false)?,
                b'"' => {
                    self.bump();
                    let mut s = String::new();
                    loop {
                        match self.bump() {
                            Some(b'"') => break,
                            Some(b'\\') => match self.bump() {
                                Some(b'"') => s.push('"'),
                                Some(b'\\') => s.push('\\'),
                                Some(b'n') => s.push('\n'),
                                _ => return Err(self.error("bad escape")),
                            },
                            Some(c) => s.push(c as char),
                            None => return Err(self.error("unterminated string")),
                        }
                    }
                    Tok::Str(s)
                }
                _ => {
                    let two: &[(&[u8], &str)] = &[
                        (b"&&", "&&"),
                        (b"||", "||"),
                        (b"==", "=="),
                        (b"!=", "!="),
                        (b"<=", "<="),
                        (b">=", ">="),
                    ];
                    let rest = &self.src[self.pos..];
                    if let Some((_, p)) = two.iter().find(|(pat, _)| rest.starts_with(pat)) {
                        self.bump();
                        self.bump();
                        Tok::Punct(p)
                    } else {
                        let one: &[(u8, &str)] = &[
                            (b'(', "("),
                            (b')', ")"),
                            (b'{', "{"),
                            (b'}', "}"),
                            (b'[', "["),
                            (b']', "]"),
                            (b';', ";"),
                            (b',', ","),
                            (b'=', "="),
                            (b'<', "<"),
                            (b'>', ">"),
                            (b'+', "+"),
                            (b'-', "-"),
                            (b'*', "*"),
                            (b'/', "/"),
                            (b'!', "!"),
                            (b'^', "^"),
                        ];
                        match one.iter().find(|(ch, _)| *ch == c) {
                            Some((_, p)) => {
                                self.bump();
                                Tok::Punct(p)
                            }
                            None => {
                                return Err(self.error(format!("bad character `{}`", c as char)))
                            }
                        }
                    }
                }
            };
            out.push((tok, line, col));
        }
        Ok(out)
    }

    fn number(&mut self, neg: bool) -> Result<Tok, ParseError> {
        let mut s = String::new();
        if neg {
            s.push('-');
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => s.push(c as char),
                b'.' => {
                    is_float = true;
                    s.push('.');
                }
                b'e' | b'E' => {
                    is_float = true;
                    s.push(c as char);
                    self.bump();
                    if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                        s.push(self.peek().expect("peeked") as char);
                    } else {
                        continue;
                    }
                }
                _ => break,
            }
            self.bump();
        }
        if is_float {
            s.parse::<f64>()
                .map(Tok::Float)
                .map_err(|_| self.error("bad float literal"))
        } else {
            s.parse::<i64>()
                .map(Tok::Int)
                .map_err(|_| self.error("bad int literal"))
        }
    }
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn error_at(&self, message: impl Into<String>) -> ParseError {
        let (line, col) = self
            .toks
            .get(self.pos)
            .map(|&(_, l, c)| (l, c))
            .or_else(|| self.toks.last().map(|&(_, l, c)| (l, c)))
            .unwrap_or((1, 1));
        ParseError {
            line,
            col,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _, _)| t)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(t, _, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_punct(&mut self, p: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(Tok::Punct(q)) if q == p => Ok(()),
            other => Err(self.prev_error(format!("expected `{p}`, found {other:?}"))),
        }
    }

    fn prev_error(&self, message: String) -> ParseError {
        let i = self.pos.saturating_sub(1);
        let (line, col) = self.toks.get(i).map(|&(_, l, c)| (l, c)).unwrap_or((1, 1));
        ParseError { line, col, message }
    }

    fn try_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Punct(q)) if *q == p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(self.prev_error(format!("expected identifier, found {other:?}"))),
        }
    }

    fn ty(&mut self, word: &str) -> Option<Ty> {
        match word {
            "int" => Some(Ty::I32),
            "double" => Some(Ty::F64),
            "bool" => Some(Ty::Bool),
            _ => None,
        }
    }

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut globals = Vec::new();
        let mut functions = Vec::new();
        while let Some(tok) = self.peek().cloned() {
            let Tok::Ident(word) = tok else {
                return Err(self.error_at("expected a declaration"));
            };
            if word == "void" {
                self.pos += 1;
                functions.push(self.function(None)?);
                continue;
            }
            let Some(ty) = self.ty(&word) else {
                return Err(self.error_at(format!("expected a type, found `{word}`")));
            };
            self.pos += 1;
            let name = self.ident()?;
            if matches!(self.peek(), Some(Tok::Punct("("))) {
                functions.push(self.function_named(Some(ty), name)?);
            } else {
                globals.push(self.global_rest(ty, name)?);
            }
        }
        // AST vectors get exact capacity: a sweep holds the parsed AST of
        // every unit it compiles, and growth slack measurably raised the
        // peak memory of large cold sweeps
        globals.shrink_to_fit();
        functions.shrink_to_fit();
        Ok(Program { globals, functions })
    }

    fn literal_i32(&mut self) -> Result<i32, ParseError> {
        let neg = self.try_punct("-");
        match self.next() {
            Some(Tok::Int(v)) => {
                let v = if neg { -v } else { v };
                i32::try_from(v).map_err(|_| self.prev_error("int literal out of range".into()))
            }
            other => Err(self.prev_error(format!("expected int literal, found {other:?}"))),
        }
    }

    fn literal_f64(&mut self) -> Result<f64, ParseError> {
        let neg = self.try_punct("-");
        let v = match self.next() {
            Some(Tok::Float(v)) => v,
            Some(Tok::Int(v)) => v as f64,
            other => {
                return Err(self.prev_error(format!("expected float literal, found {other:?}")));
            }
        };
        Ok(if neg { -v } else { v })
    }

    fn global_rest(&mut self, ty: Ty, name: String) -> Result<Global, ParseError> {
        // array?
        if self.try_punct("[") {
            let _declared_len = self.literal_i32()?;
            self.eat_punct("]")?;
            self.eat_punct("=")?;
            self.eat_punct("{")?;
            let def = match ty {
                Ty::I32 => {
                    let mut v = vec![self.literal_i32()?];
                    while self.try_punct(",") {
                        v.push(self.literal_i32()?);
                    }
                    v.shrink_to_fit();
                    GlobalDef::ArrayI32(v)
                }
                Ty::F64 => {
                    let mut v = vec![self.literal_f64()?];
                    while self.try_punct(",") {
                        v.push(self.literal_f64()?);
                    }
                    v.shrink_to_fit();
                    GlobalDef::ArrayF64(v)
                }
                Ty::Bool => return Err(self.error_at("bool arrays are not supported")),
            };
            self.eat_punct("}")?;
            self.eat_punct(";")?;
            return Ok(Global { name, def });
        }
        let def = if self.try_punct("=") {
            match ty {
                Ty::I32 => GlobalDef::ScalarI32(Some(self.literal_i32()?)),
                Ty::F64 => GlobalDef::ScalarF64(Some(self.literal_f64()?)),
                Ty::Bool => {
                    let w = self.ident()?;
                    match w.as_str() {
                        "true" => GlobalDef::ScalarBool(Some(true)),
                        "false" => GlobalDef::ScalarBool(Some(false)),
                        _ => return Err(self.error_at("expected `true` or `false`")),
                    }
                }
            }
        } else {
            match ty {
                Ty::I32 => GlobalDef::ScalarI32(None),
                Ty::F64 => GlobalDef::ScalarF64(None),
                Ty::Bool => GlobalDef::ScalarBool(None),
            }
        };
        self.eat_punct(";")?;
        Ok(Global { name, def })
    }

    fn function(&mut self, ret: Option<Ty>) -> Result<Function, ParseError> {
        let name = self.ident()?;
        self.function_named(ret, name)
    }

    fn function_named(&mut self, ret: Option<Ty>, name: String) -> Result<Function, ParseError> {
        self.eat_punct("(")?;
        let mut params = Vec::new();
        if !self.try_punct(")") {
            loop {
                let tw = self.ident()?;
                let ty = self
                    .ty(&tw)
                    .ok_or_else(|| self.error_at(format!("expected a type, found `{tw}`")))?;
                let pname = self.ident()?;
                params.push((pname, ty));
                if !self.try_punct(",") {
                    break;
                }
            }
            self.eat_punct(")")?;
        }
        self.eat_punct("{")?;
        // local declarations: `type ident ;`
        let mut locals = Vec::new();
        loop {
            let save = self.pos;
            if let Some(Tok::Ident(w)) = self.peek().cloned() {
                if let Some(ty) = self.ty(&w) {
                    self.pos += 1;
                    if let (Ok(n), true) =
                        (self.ident(), matches!(self.peek(), Some(Tok::Punct(";"))))
                    {
                        self.pos += 1;
                        locals.push((n, ty));
                        continue;
                    }
                }
            }
            self.pos = save;
            break;
        }
        let body = self.block_body()?;
        Ok(Function {
            name,
            params,
            ret,
            locals,
            body,
        })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.eat_punct("{")?;
        self.block_body()
    }

    /// Statements until the matching `}` (already inside the block).
    fn block_body(&mut self) -> Result<Vec<Stmt>, ParseError> {
        let mut out = Vec::new();
        while !self.try_punct("}") {
            out.push(self.stmt()?);
        }
        out.shrink_to_fit();
        Ok(out)
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        let word = match self.peek() {
            Some(Tok::Ident(w)) => w.clone(),
            other => return Err(self.error_at(format!("expected a statement, found {other:?}"))),
        };
        match word.as_str() {
            "if" => {
                self.pos += 1;
                self.eat_punct("(")?;
                let c = self.expr()?;
                self.eat_punct(")")?;
                let then = self.block()?;
                let els = if matches!(self.peek(), Some(Tok::Ident(w)) if w == "else") {
                    self.pos += 1;
                    self.block()?
                } else {
                    Vec::new()
                };
                Ok(Stmt::If(c, then, els))
            }
            "while" => {
                self.pos += 1;
                self.eat_punct("(")?;
                let c = self.expr()?;
                self.eat_punct(")")?;
                let body = self.block()?;
                Ok(Stmt::While(c, body))
            }
            "return" => {
                self.pos += 1;
                if self.try_punct(";") {
                    Ok(Stmt::Return(None))
                } else {
                    let e = self.expr()?;
                    self.eat_punct(";")?;
                    Ok(Stmt::Return(Some(e)))
                }
            }
            "__builtin_annotation" => {
                self.pos += 1;
                self.eat_punct("(")?;
                let fmt = match self.next() {
                    Some(Tok::Str(s)) => s,
                    other => {
                        return Err(self.prev_error(format!("expected string, found {other:?}")));
                    }
                };
                let mut args = Vec::new();
                while self.try_punct(",") {
                    args.push(self.expr()?);
                }
                self.eat_punct(")")?;
                self.eat_punct(";")?;
                args.shrink_to_fit();
                Ok(Stmt::Annot(fmt, args))
            }
            "__io_write" => {
                self.pos += 1;
                self.eat_punct("(")?;
                let port = self.literal_i32()? as u32;
                self.eat_punct(",")?;
                let e = self.expr()?;
                self.eat_punct(")")?;
                self.eat_punct(";")?;
                Ok(Stmt::IoWrite(port, e))
            }
            _ => {
                // assignment, array store or call statement
                let name = self.ident()?;
                if self.try_punct("[") {
                    let idx = self.expr()?;
                    self.eat_punct("]")?;
                    self.eat_punct("=")?;
                    let e = self.expr()?;
                    self.eat_punct(";")?;
                    Ok(Stmt::StoreIndex(name, idx, e))
                } else if self.try_punct("=") {
                    let e = self.expr()?;
                    self.eat_punct(";")?;
                    Ok(Stmt::Assign(name, e))
                } else if self.try_punct("(") {
                    let mut args = Vec::new();
                    if !self.try_punct(")") {
                        loop {
                            args.push(self.expr()?);
                            if !self.try_punct(",") {
                                break;
                            }
                        }
                        self.eat_punct(")")?;
                    }
                    self.eat_punct(";")?;
                    args.shrink_to_fit();
                    Ok(Stmt::CallStmt(name, args))
                } else {
                    Err(self.error_at("expected `=`, `[` or `(` after identifier"))
                }
            }
        }
    }

    // ---- expressions, by precedence ----

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.and_expr()?;
        while self.try_punct("||") {
            let rhs = self.and_expr()?;
            lhs = Expr::binop(Binop::OrB, lhs, rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.cmp_expr()?;
        while self.try_punct("&&") {
            let rhs = self.cmp_expr()?;
            lhs = Expr::binop(Binop::AndB, lhs, rhs);
        }
        Ok(lhs)
    }

    /// Comparison operators need the operand type to pick `CmpI` vs `CmpF`;
    /// the parser infers it syntactically (float literal or float-producing
    /// construct anywhere in either operand ⇒ float compare) and leaves the
    /// final say to the typechecker.
    fn cmp_expr(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.add_expr()?;
        let cmp = match self.peek() {
            Some(Tok::Punct(p)) => match *p {
                "==" => Some(Cmp::Eq),
                "!=" => Some(Cmp::Ne),
                "<" => Some(Cmp::Lt),
                "<=" => Some(Cmp::Le),
                ">" => Some(Cmp::Gt),
                ">=" => Some(Cmp::Ge),
                _ => None,
            },
            _ => None,
        };
        let Some(cmp) = cmp else { return Ok(lhs) };
        self.pos += 1;
        let rhs = self.add_expr()?;
        let op = if looks_float(&lhs) || looks_float(&rhs) {
            Binop::CmpF(cmp)
        } else {
            Binop::CmpI(cmp)
        };
        Ok(Expr::binop(op, lhs, rhs))
    }

    fn add_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = if self.try_punct("+") {
                true
            } else if self.try_punct("-") {
                false
            } else if self.try_punct("^") {
                let rhs = self.mul_expr()?;
                lhs = Expr::binop(Binop::XorB, lhs, rhs);
                continue;
            } else {
                break;
            };
            let rhs = self.mul_expr()?;
            let float = looks_float(&lhs) || looks_float(&rhs);
            let b = match (op, float) {
                (true, true) => Binop::AddF,
                (true, false) => Binop::AddI,
                (false, true) => Binop::SubF,
                (false, false) => Binop::SubI,
            };
            lhs = Expr::binop(b, lhs, rhs);
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        loop {
            let op = if self.try_punct("*") {
                true
            } else if self.try_punct("/") {
                false
            } else {
                break;
            };
            let rhs = self.unary()?;
            let float = looks_float(&lhs) || looks_float(&rhs);
            let b = match (op, float) {
                (true, true) => Binop::MulF,
                (true, false) => Binop::MulI,
                (false, true) => Binop::DivF,
                (false, false) => Binop::DivI,
            };
            lhs = Expr::binop(b, lhs, rhs);
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        if self.try_punct("!") {
            let e = self.unary()?;
            return Ok(Expr::unop(Unop::NotB, e));
        }
        if self.try_punct("-") {
            // fold negated literals so `-30.0` round-trips as a literal
            match self.peek() {
                Some(Tok::Int(v)) => {
                    let v = -*v;
                    self.pos += 1;
                    return Ok(Expr::IntLit(i32::try_from(v).map_err(|_| {
                        self.prev_error("int literal out of range".into())
                    })?));
                }
                Some(Tok::Float(v)) => {
                    let v = -*v;
                    self.pos += 1;
                    return Ok(Expr::FloatLit(v));
                }
                _ => {}
            }
            let e = self.unary()?;
            let op = if looks_float(&e) {
                Unop::NegF
            } else {
                Unop::NegI
            };
            return Ok(Expr::unop(op, e));
        }
        // casts: "(double)(e)" / "(int)(e)"
        if matches!(self.peek(), Some(Tok::Punct("("))) {
            if let Some((Tok::Ident(w), _, _)) = self.toks.get(self.pos + 1) {
                if (w == "double" || w == "int")
                    && matches!(self.toks.get(self.pos + 2), Some((Tok::Punct(")"), _, _)))
                {
                    let to_float = w == "double";
                    self.pos += 3;
                    let e = self.unary()?;
                    return Ok(Expr::unop(if to_float { Unop::I2F } else { Unop::F2I }, e));
                }
            }
            self.pos += 1;
            let e = self.expr()?;
            self.eat_punct(")")?;
            return Ok(e);
        }
        match self.next() {
            Some(Tok::Int(v)) => {
                Ok(Expr::IntLit(i32::try_from(v).map_err(|_| {
                    self.prev_error("int literal out of range".into())
                })?))
            }
            Some(Tok::Float(v)) => Ok(Expr::FloatLit(v)),
            Some(Tok::Ident(w)) => match w.as_str() {
                "true" => Ok(Expr::BoolLit(true)),
                "false" => Ok(Expr::BoolLit(false)),
                "__io_read" => {
                    self.eat_punct("(")?;
                    let port = self.literal_i32()? as u32;
                    self.eat_punct(")")?;
                    Ok(Expr::IoRead(port))
                }
                "__builtin_fabs" => {
                    self.eat_punct("(")?;
                    let e = self.expr()?;
                    self.eat_punct(")")?;
                    Ok(Expr::unop(Unop::AbsF, e))
                }
                _ => {
                    if self.try_punct("[") {
                        let idx = self.expr()?;
                        self.eat_punct("]")?;
                        Ok(Expr::Index(w, Box::new(idx)))
                    } else if self.try_punct("(") {
                        let mut args = Vec::new();
                        if !self.try_punct(")") {
                            loop {
                                args.push(self.expr()?);
                                if !self.try_punct(",") {
                                    break;
                                }
                            }
                            self.eat_punct(")")?;
                        }
                        args.shrink_to_fit();
                        Ok(Expr::Call(w, args))
                    } else {
                        Ok(Expr::Var(w))
                    }
                }
            },
            other => Err(self.prev_error(format!("expected an expression, found {other:?}"))),
        }
    }
}

/// Syntactic guess whether an expression is floating — used to choose the
/// typed operator variants during parsing; the typechecker verifies.
fn looks_float(e: &Expr) -> bool {
    match e {
        Expr::FloatLit(_) | Expr::IoRead(_) => true,
        Expr::Unop(Unop::NegF | Unop::AbsF | Unop::I2F, _) => true,
        Expr::Unop(Unop::F2I | Unop::NegI | Unop::NotB, _) => false,
        Expr::Binop(op, ..) => matches!(op, Binop::AddF | Binop::SubF | Binop::MulF | Binop::DivF),
        Expr::Index(..) => true, // generated arrays are f64 tables
        _ => false,
    }
}

/// Parses a MiniC translation unit from its C-like concrete syntax.
///
/// The parser resolves comparison and arithmetic operator typing
/// syntactically (literal shapes, casts, known builtins) and **re-types
/// operators against the declarations** in a post-pass, so `a + b` on two
/// `double` variables becomes `AddF` even though neither operand is
/// syntactically floating.
///
/// # Errors
///
/// [`ParseError`] with the position of the first offending token.
pub fn parse(src: &str) -> Result<Program, ParseError> {
    let toks = Lexer::new(src).tokens()?;
    let mut p = Parser { toks, pos: 0 };
    let mut prog = p.program()?;
    retype(&mut prog);
    Ok(prog)
}

/// Post-pass: fix operator variants using declared types (the parser's
/// syntactic guess only sees literal shapes).
fn retype(prog: &mut Program) {
    let prog_snapshot = prog.clone();
    for f in &mut prog.functions {
        let is_float = |name: &str| -> Option<bool> {
            for (n, t) in f.params.iter().chain(&f.locals) {
                if n == name {
                    return Some(*t == Ty::F64);
                }
            }
            prog_snapshot
                .global(name)
                .map(|g| g.def.elem_ty() == Ty::F64)
        };
        let body = std::mem::take(&mut f.body);
        f.body = body
            .into_iter()
            .map(|s| retype_stmt(s, &is_float))
            .collect();
    }
}

fn retype_stmt(s: Stmt, is_float: &dyn Fn(&str) -> Option<bool>) -> Stmt {
    match s {
        Stmt::Assign(n, e) => Stmt::Assign(n, retype_expr(e, is_float)),
        Stmt::StoreIndex(n, i, e) => {
            Stmt::StoreIndex(n, retype_expr(i, is_float), retype_expr(e, is_float))
        }
        Stmt::If(c, a, b) => Stmt::If(
            retype_expr(c, is_float),
            a.into_iter().map(|s| retype_stmt(s, is_float)).collect(),
            b.into_iter().map(|s| retype_stmt(s, is_float)).collect(),
        ),
        Stmt::While(c, b) => Stmt::While(
            retype_expr(c, is_float),
            b.into_iter().map(|s| retype_stmt(s, is_float)).collect(),
        ),
        Stmt::Return(e) => Stmt::Return(e.map(|e| retype_expr(e, is_float))),
        Stmt::Annot(f, args) => Stmt::Annot(
            f,
            args.into_iter().map(|e| retype_expr(e, is_float)).collect(),
        ),
        Stmt::IoWrite(p, e) => Stmt::IoWrite(p, retype_expr(e, is_float)),
        Stmt::CallStmt(n, args) => Stmt::CallStmt(
            n,
            args.into_iter().map(|e| retype_expr(e, is_float)).collect(),
        ),
    }
}

fn expr_is_float(e: &Expr, is_float: &dyn Fn(&str) -> Option<bool>) -> bool {
    match e {
        Expr::Var(n) => is_float(n).unwrap_or(false),
        Expr::FloatLit(_) | Expr::IoRead(_) => true,
        Expr::Unop(Unop::NegF | Unop::AbsF | Unop::I2F, _) => true,
        Expr::Binop(Binop::AddF | Binop::SubF | Binop::MulF | Binop::DivF, ..) => true,
        Expr::Index(..) => true,
        _ => false,
    }
}

fn retype_expr(e: Expr, is_float: &dyn Fn(&str) -> Option<bool>) -> Expr {
    match e {
        Expr::Unop(op, a) => {
            let a = retype_expr(*a, is_float);
            let op = match op {
                Unop::NegI if expr_is_float(&a, is_float) => Unop::NegF,
                Unop::NegF if !expr_is_float(&a, is_float) => Unop::NegI,
                other => other,
            };
            Expr::unop(op, a)
        }
        Expr::Binop(op, a, b) => {
            let a = retype_expr(*a, is_float);
            let b = retype_expr(*b, is_float);
            let float = expr_is_float(&a, is_float) || expr_is_float(&b, is_float);
            let op = match (op, float) {
                (Binop::AddI, true) => Binop::AddF,
                (Binop::SubI, true) => Binop::SubF,
                (Binop::MulI, true) => Binop::MulF,
                (Binop::DivI, true) => Binop::DivF,
                (Binop::AddF, false) => Binop::AddI,
                (Binop::SubF, false) => Binop::SubI,
                (Binop::MulF, false) => Binop::MulI,
                (Binop::DivF, false) => Binop::DivI,
                (Binop::CmpI(c), true) => Binop::CmpF(c),
                (Binop::CmpF(c), false) => Binop::CmpI(c),
                (other, _) => other,
            };
            Expr::binop(op, a, b)
        }
        Expr::Index(n, i) => Expr::Index(n, Box::new(retype_expr(*i, is_float))),
        Expr::Call(n, args) => Expr::Call(
            n,
            args.into_iter().map(|e| retype_expr(e, is_float)).collect(),
        ),
        leaf => leaf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pretty::program_to_c;

    #[test]
    fn parses_simple_function() {
        let src = r#"
            double k = 2.5;
            double gain(double x) {
                return (k * x);
            }
        "#;
        let p = parse(src).unwrap();
        crate::typeck::check(&p).unwrap();
        assert_eq!(p.globals.len(), 1);
        assert_eq!(p.functions[0].name, "gain");
        assert_eq!(p.functions[0].ret, Some(Ty::F64));
    }

    #[test]
    fn parses_control_flow_and_builtins() {
        let src = r#"
            double out;
            int n = 3;
            void step() {
                double x;
                int i;
                x = __io_read(2);
                __builtin_annotation("0 <= %1 <= 3", n);
                while (i < n) {
                    x = (x * 0.5);
                    i = (i + 1);
                }
                if (x > 10.0) {
                    x = 10.0;
                } else {
                    x = __builtin_fabs(x);
                }
                out = x;
                __io_write(4, x);
            }
        "#;
        let p = parse(src).unwrap();
        crate::typeck::check(&p).unwrap();
        let step = p.function("step").unwrap();
        assert_eq!(step.locals.len(), 2);
        assert!(matches!(step.body[1], Stmt::Annot(..)));
        assert!(matches!(step.body[2], Stmt::While(..)));
    }

    #[test]
    fn retyping_uses_declarations() {
        // both operands are plain variables; only declarations reveal f64
        let src = r#"
            double a;
            double b;
            double c;
            void f() {
                c = (a + b);
                if (a < b) {
                    c = a;
                }
            }
        "#;
        let p = parse(src).unwrap();
        crate::typeck::check(&p).unwrap();
        match &p.functions[0].body[0] {
            Stmt::Assign(_, Expr::Binop(op, ..)) => assert_eq!(*op, Binop::AddF),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_arrays_and_casts() {
        let src = r#"
            double tab[3] = {1.5, 2.5, 3.5};
            int idx;
            double y;
            void f() {
                y = tab[(idx + 1)];
                tab[0] = ((double)(idx) * 2.0);
                idx = (int)(y);
            }
        "#;
        let p = parse(src).unwrap();
        crate::typeck::check(&p).unwrap();
    }

    #[test]
    fn reports_positions() {
        let err = parse("void f() { x = ; }").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.col > 10, "{err}");
        assert!(parse("int x = 99999999999;").is_err());
        assert!(parse("double t[1] = {};").is_err());
    }

    #[test]
    fn roundtrip_through_pretty_printer() {
        let src = r#"
            double state;
            bool armed = true;
            double tab[2] = {0.5, 1.5};
            void step(double cmd) {
                double x;
                bool hot;
                x = (cmd - state);
                hot = ((x > 1.0) && armed);
                if (hot) {
                    state = (state + (0.25 * x));
                }
                __builtin_annotation("trace %1", x);
                __io_write(1, state);
            }
        "#;
        let p1 = parse(src).unwrap();
        crate::typeck::check(&p1).unwrap();
        let printed = program_to_c(&p1);
        let p2 = parse(&printed).unwrap_or_else(|e| panic!("{e}\n{printed}"));
        assert_eq!(p1, p2, "pretty → parse must be the identity\n{printed}");
    }
}
