//! Parser for BFJ surface syntax, with automatic lowering to A-normal form.
//!
//! Surface programs may use arbitrarily nested expressions (`a[i].f =
//! b.g + 1`); the parser extracts every heap read, allocation, and call
//! into a fresh temporary so that the resulting [`Program`] satisfies the
//! paper's A-normal-form requirements (§3.1). Pure arithmetic over locals
//! is left nested, since analysis paths and conditions may mention it.

use crate::ast::*;
use crate::lexer::{tokenize, Spanned, Token};
use crate::Sym;
use bigfoot_vc::AccessKind;
use std::fmt;

/// An error produced while parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub msg: String,
    /// 1-based source line.
    pub line: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error on line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// The deepest nesting the parser accepts, counted over parenthesized and
/// other sub-expressions, unary operators, operators chained at one level
/// (`a + b + c` nests as `(a + b) + c`) and blocks. The parser and every
/// later pass recurse over the tree, so the budget bounds their stack
/// depth: a deeper input is a [`ParseError`], not a stack overflow. The
/// suite, the fuzz corpus and the random generators nest at most 9
/// levels deep.
pub const MAX_NESTING: u32 = 100;

/// Parses a complete BFJ program and assigns statement ids.
///
/// # Errors
///
/// Returns [`ParseError`] on lexical or syntactic errors, including
/// programs without a `main` block.
///
/// # Examples
///
/// ```
/// let src = r#"
///     class Point {
///         field x; field y;
///         meth move(dx, dy) {
///             this.x = this.x + dx;
///             this.y = this.y + dy;
///             return 0;
///         }
///     }
///     main {
///         p = new Point;
///         r = p.move(1, 2);
///     }
/// "#;
/// let program = bigfoot_bfj::parse_program(src)?;
/// assert_eq!(program.classes.len(), 1);
/// # Ok::<(), bigfoot_bfj::ParseError>(())
/// ```
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let mut program = parse_unnumbered(src, false)?;
    program.renumber();
    Ok(program)
}

/// [`parse_program`] plus the 1-based source line of every statement,
/// indexed by [`StmtId`]: the line of the surface statement the parser
/// lowered it from (a loop's or branch's lowered condition reads carry
/// the line of the loop or branch).
///
/// # Errors
///
/// Returns [`ParseError`] on a lexical or syntax error.
pub fn parse_program_with_lines(src: &str) -> Result<(Program, Vec<u32>), ParseError> {
    // Until `renumber`, each statement's id holds its source line.
    let mut program = parse_unnumbered(src, true)?;
    let mut lines = Vec::new();
    fn collect(b: &Block, lines: &mut Vec<u32>) {
        for s in &b.stmts {
            lines.push(s.id.0);
            match &s.kind {
                StmtKind::If { then_b, else_b, .. } => {
                    collect(then_b, lines);
                    collect(else_b, lines);
                }
                StmtKind::Loop { head, tail, .. } => {
                    collect(head, lines);
                    collect(tail, lines);
                }
                _ => {}
            }
        }
    }
    for (_, m) in program.methods() {
        collect(&m.body, &mut lines);
    }
    collect(&program.main, &mut lines);
    program.renumber();
    Ok((program, lines))
}

/// Parses a program without numbering its statements; with `lines`, each
/// statement's placeholder id holds its source line instead.
fn parse_unnumbered(src: &str, lines: bool) -> Result<Program, ParseError> {
    let tokens = tokenize(src).map_err(|e| ParseError {
        msg: e.to_string(),
        line: e.line,
    })?;
    Parser {
        tokens,
        pos: 0,
        tmp_counter: 0,
        depth: 0,
        lines,
    }
    .program()
}

/// Parses a standalone *pure* expression (no heap reads, calls, or
/// allocations).
///
/// Used to reconstruct expressions from the entailment engine's opaque
/// atoms, whose canonical form is their rendering.
///
/// # Errors
///
/// Returns [`ParseError`] if the text is not a pure expression.
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    let tokens = tokenize(src).map_err(|e| ParseError {
        msg: e.to_string(),
        line: e.line,
    })?;
    let mut p = Parser {
        tokens,
        pos: 0,
        tmp_counter: 0,
        depth: 0,
        lines: false,
    };
    let e = p.expr()?;
    if p.peek() != &Token::Eof {
        return Err(p.err("trailing input after expression"));
    }
    let mut side = Vec::new();
    let pure = p.lower(e, &mut side)?;
    if side.is_empty() {
        Ok(pure)
    } else {
        Err(ParseError {
            msg: "expression must be pure (no heap reads or calls)".to_owned(),
            line: 1,
        })
    }
}

/// Surface expressions, before A-normal-form lowering.
#[derive(Debug, Clone)]
enum SExpr {
    Int(i64),
    Bool(bool),
    Null,
    Var(Sym),
    Unop(Unop, Box<SExpr>),
    Binop(Binop, Box<SExpr>, Box<SExpr>),
    FieldRead(Box<SExpr>, Sym),
    Len(Box<SExpr>),
    Index(Box<SExpr>, Box<SExpr>),
    Call(Box<SExpr>, Sym, Vec<SExpr>),
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    tmp_counter: u32,
    /// Current nesting, bounded by [`MAX_NESTING`]. Not unwound on error:
    /// a parse error ends the parse.
    depth: u32,
    /// Record each statement's source line in its placeholder id.
    lines: bool,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos].token
    }

    fn peek2(&self) -> &Token {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].token
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos].line
    }

    /// Gives the statements in `stmts` that have no line yet the line
    /// `line`, when lines are recorded. Nested blocks are not entered:
    /// their statements got their own lines as they were parsed.
    fn stamp(&self, stmts: &mut [Stmt], line: u32) {
        if self.lines {
            for s in stmts.iter_mut().filter(|s| s.id == StmtId(u32::MAX)) {
                s.id = StmtId(line);
            }
        }
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].token.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, want: &Token) -> Result<(), ParseError> {
        if self.peek() == want {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {want}, found {}", self.peek())))
        }
    }

    fn eat_if(&mut self, want: &Token) -> bool {
        if self.peek() == want {
            self.bump();
            true
        } else {
            false
        }
    }

    /// Enters one more level of nesting.
    fn descend(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        Ok(())
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            msg: msg.into(),
            line: self.line(),
        }
    }

    fn ident(&mut self) -> Result<Sym, ParseError> {
        match self.peek().clone() {
            Token::Ident(s) => {
                self.bump();
                Ok(Sym::intern(&s))
            }
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    fn fresh_tmp(&mut self) -> Sym {
        let s = Sym::intern(&format!("t${}", self.tmp_counter));
        self.tmp_counter += 1;
        s
    }

    // ---------------- program structure ----------------

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut classes = Vec::new();
        let mut main = None;
        loop {
            match self.peek() {
                Token::Class => classes.push(self.class_def()?),
                Token::Main => {
                    self.bump();
                    let block = self.block()?;
                    if main.replace(block).is_some() {
                        return Err(self.err("duplicate `main` block"));
                    }
                }
                Token::Eof => break,
                other => return Err(self.err(format!("expected `class` or `main`, found {other}"))),
            }
        }
        let main = main.ok_or_else(|| self.err("program has no `main` block"))?;
        Ok(Program { classes, main })
    }

    fn class_def(&mut self) -> Result<ClassDef, ParseError> {
        self.eat(&Token::Class)?;
        let name = self.ident()?;
        self.eat(&Token::LBrace)?;
        let mut fields = Vec::new();
        let mut volatiles = Vec::new();
        let mut methods = Vec::new();
        loop {
            match self.peek() {
                Token::Field => {
                    self.bump();
                    fields.push(self.ident()?);
                    while self.eat_if(&Token::Comma) {
                        fields.push(self.ident()?);
                    }
                    self.eat(&Token::Semi)?;
                }
                Token::Volatile => {
                    self.bump();
                    // `volatile f;` declares the field and marks it.
                    let f = self.ident()?;
                    fields.push(f);
                    volatiles.push(f);
                    while self.eat_if(&Token::Comma) {
                        let f = self.ident()?;
                        fields.push(f);
                        volatiles.push(f);
                    }
                    self.eat(&Token::Semi)?;
                }
                Token::Meth => methods.push(self.method_def()?),
                Token::RBrace => {
                    self.bump();
                    break;
                }
                other => {
                    return Err(self.err(format!(
                        "expected `field`, `meth`, or `}}` in class body, found {other}"
                    )))
                }
            }
        }
        Ok(ClassDef {
            name,
            fields,
            volatiles,
            methods,
        })
    }

    fn method_def(&mut self) -> Result<MethodDef, ParseError> {
        self.eat(&Token::Meth)?;
        let name = self.ident()?;
        self.eat(&Token::LParen)?;
        let mut params = Vec::new();
        if self.peek() != &Token::RParen {
            params.push(self.ident()?);
            while self.eat_if(&Token::Comma) {
                params.push(self.ident()?);
            }
        }
        self.eat(&Token::RParen)?;
        self.eat(&Token::LBrace)?;
        let mut stmts = Vec::new();
        let mut ret = Expr::Int(0);
        loop {
            match self.peek() {
                Token::RBrace => {
                    self.bump();
                    break;
                }
                Token::Return => {
                    let line = self.line();
                    let start = stmts.len();
                    self.bump();
                    let e = self.expr()?;
                    self.eat(&Token::Semi)?;
                    let pure = self.lower(e, &mut stmts)?;
                    ret = if pure.is_atomic() {
                        pure
                    } else {
                        let t = self.fresh_tmp();
                        stmts.push(Stmt::new(StmtKind::Assign { x: t, e: pure }));
                        Expr::Var(t)
                    };
                    self.stamp(&mut stmts[start..], line);
                    self.eat(&Token::RBrace)?;
                    break;
                }
                _ => self.stmt_into(&mut stmts)?,
            }
        }
        Ok(MethodDef {
            name,
            params,
            body: Block { stmts },
            ret,
        })
    }

    fn block(&mut self) -> Result<Block, ParseError> {
        self.eat(&Token::LBrace)?;
        self.descend()?;
        let mut stmts = Vec::new();
        while self.peek() != &Token::RBrace {
            if self.peek() == &Token::Eof {
                return Err(self.err("unterminated block"));
            }
            self.stmt_into(&mut stmts)?;
        }
        self.bump();
        self.depth -= 1;
        Ok(Block { stmts })
    }

    // ---------------- statements ----------------

    fn stmt_into(&mut self, out: &mut Vec<Stmt>) -> Result<(), ParseError> {
        let line = self.line();
        let start = out.len();
        self.stmt_kind_into(out, line)?;
        self.stamp(&mut out[start..], line);
        Ok(())
    }

    /// Parses one statement into `out`. `line` is its first line; the
    /// statements it builds inside nested blocks (a rotated loop and its
    /// lowered condition reads) get it here, the ones in `out` from
    /// [`Parser::stmt_into`].
    fn stmt_kind_into(&mut self, out: &mut Vec<Stmt>, line: u32) -> Result<(), ParseError> {
        match self.peek().clone() {
            Token::Skip => {
                self.bump();
                self.eat(&Token::Semi)?;
                out.push(Stmt::new(StmtKind::Skip));
            }
            Token::If => {
                self.bump();
                self.eat(&Token::LParen)?;
                let cond = self.expr()?;
                self.eat(&Token::RParen)?;
                // Heap reads in the condition are lowered *before* the if.
                let cond = self.lower(cond, out)?;
                let then_b = self.block()?;
                let else_b = if self.eat_if(&Token::Else) {
                    self.block()?
                } else {
                    Block::new()
                };
                out.push(Stmt::new(StmtKind::If {
                    cond,
                    then_b,
                    else_b,
                }));
            }
            Token::While => {
                self.bump();
                self.eat(&Token::LParen)?;
                let cond = self.expr()?;
                self.eat(&Token::RParen)?;
                let body = self.block()?;
                // Loop rotation (as StaticBF's pre-pass, §5):
                //   while (c) b  ≡  <reads of c>;
                //                   if (c) { loop { b; <reads of c> } exit (!c) {} }
                // The do-while shape puts the body before the exit test, so
                // the analysis can anticipate the body's accesses at the
                // loop head.
                let guard = self.lower(cond.clone(), out)?;
                let mut head = body;
                let body_len = head.stmts.len();
                let cond = self.lower(cond, &mut head.stmts)?;
                self.stamp(&mut head.stmts[body_len..], line);
                let mut loop_stmt = Stmt::new(StmtKind::Loop {
                    head,
                    exit: Expr::Unop(Unop::Not, Box::new(cond)),
                    tail: Block::new(),
                });
                self.stamp(std::slice::from_mut(&mut loop_stmt), line);
                out.push(Stmt::new(StmtKind::If {
                    cond: guard,
                    then_b: Block {
                        stmts: vec![loop_stmt],
                    },
                    else_b: Block::new(),
                }));
            }
            Token::For => {
                self.bump();
                self.eat(&Token::LParen)?;
                // for (x = init; cond; x = step) body — rotated like while.
                let var = self.ident()?;
                self.eat(&Token::Assign)?;
                let init = self.expr()?;
                self.eat(&Token::Semi)?;
                let cond = self.expr()?;
                self.eat(&Token::Semi)?;
                let upd_var = self.ident()?;
                self.eat(&Token::Assign)?;
                let upd = self.expr()?;
                self.eat(&Token::RParen)?;
                let body = self.block()?;
                let init = self.lower(init, out)?;
                out.push(Stmt::new(StmtKind::Assign { x: var, e: init }));
                let guard = self.lower(cond.clone(), out)?;
                let mut head = body;
                let body_len = head.stmts.len();
                let upd = self.lower(upd, &mut head.stmts)?;
                head.stmts
                    .push(Stmt::new(StmtKind::Assign { x: upd_var, e: upd }));
                let cond = self.lower(cond, &mut head.stmts)?;
                self.stamp(&mut head.stmts[body_len..], line);
                let mut loop_stmt = Stmt::new(StmtKind::Loop {
                    head,
                    exit: Expr::Unop(Unop::Not, Box::new(cond)),
                    tail: Block::new(),
                });
                self.stamp(std::slice::from_mut(&mut loop_stmt), line);
                out.push(Stmt::new(StmtKind::If {
                    cond: guard,
                    then_b: Block {
                        stmts: vec![loop_stmt],
                    },
                    else_b: Block::new(),
                }));
            }
            Token::Loop => {
                // Canonical mid-test loop: `loop { head } exit (e) { tail }`
                self.bump();
                let head = self.block()?;
                self.eat(&Token::Exit)?;
                self.eat(&Token::LParen)?;
                let exit = self.pure_expr()?;
                self.eat(&Token::RParen)?;
                let tail = self.block()?;
                out.push(Stmt::new(StmtKind::Loop { head, exit, tail }));
            }
            Token::Acq | Token::Rel | Token::Join | Token::Wait | Token::Notify => {
                let tok = self.bump();
                self.eat(&Token::LParen)?;
                let e = self.expr()?;
                self.eat(&Token::RParen)?;
                self.eat(&Token::Semi)?;
                let v = self.lower_to_var(e, out)?;
                out.push(Stmt::new(match tok {
                    Token::Acq => StmtKind::Acquire { lock: v },
                    Token::Rel => StmtKind::Release { lock: v },
                    Token::Wait => StmtKind::Wait { lock: v },
                    Token::Notify => StmtKind::Notify { lock: v },
                    _ => StmtKind::Join { t: v },
                }));
            }
            Token::Fork => {
                self.bump();
                let x = self.ident()?;
                self.eat(&Token::Assign)?;
                let recv = self.expr()?;
                // recv parses as a call: strip the outermost Call node.
                match recv {
                    SExpr::Call(obj, meth, args) => {
                        let recv = self.lower_to_var(*obj, out)?;
                        let mut arg_vars = Vec::new();
                        for a in args {
                            arg_vars.push(self.lower_to_var(a, out)?);
                        }
                        self.eat(&Token::Semi)?;
                        out.push(Stmt::new(StmtKind::Fork {
                            x,
                            recv,
                            meth,
                            args: arg_vars,
                        }));
                    }
                    _ => return Err(self.err("`fork` requires a method call `x = fork y.m(...)`")),
                }
            }
            Token::Check => {
                self.bump();
                self.eat(&Token::LParen)?;
                let mut paths = Vec::new();
                loop {
                    paths.push(self.check_path()?);
                    if !self.eat_if(&Token::Comma) {
                        break;
                    }
                }
                self.eat(&Token::RParen)?;
                self.eat(&Token::Semi)?;
                out.push(Stmt::new(StmtKind::Check { paths }));
            }
            Token::Return => {
                return Err(self.err("`return` is only allowed at the end of a method body"));
            }
            _ => self.assignment_or_call(out)?,
        }
        Ok(())
    }

    /// Parses `check(...)` path syntax: `r: p.f`, `w: a[lo..hi:2]`,
    /// `w: p.x/y/z`.
    fn check_path(&mut self) -> Result<CheckPath, ParseError> {
        let kind_sym = self.ident()?;
        let kind = match kind_sym.as_str() {
            "r" => AccessKind::Read,
            "w" => AccessKind::Write,
            other => {
                return Err(self.err(format!(
                    "expected `r` or `w` in check path, found `{other}`"
                )))
            }
        };
        self.eat(&Token::Colon)?;
        let base = self.ident()?;
        match self.peek() {
            Token::Dot => {
                self.bump();
                let mut fields = vec![self.ident()?];
                while self.eat_if(&Token::Slash) {
                    fields.push(self.ident()?);
                }
                Ok(CheckPath {
                    kind,
                    path: Path::Fields { base, fields },
                })
            }
            Token::LBracket => {
                self.bump();
                let lo = self.pure_expr()?;
                let range = if self.eat_if(&Token::DotDot) {
                    let hi = self.pure_expr()?;
                    let step = if self.eat_if(&Token::Colon) {
                        match self.bump() {
                            Token::Int(n) if n > 0 => n,
                            other => {
                                return Err(
                                    self.err(format!("expected positive stride, found {other}"))
                                )
                            }
                        }
                    } else {
                        1
                    };
                    Range { lo, hi, step }
                } else {
                    Range::singleton(lo)
                };
                self.eat(&Token::RBracket)?;
                Ok(CheckPath {
                    kind,
                    path: Path::Arr { base, range },
                })
            }
            other => Err(self.err(format!("expected `.` or `[` in check path, found {other}"))),
        }
    }

    /// A pure expression: parsed then verified heap-free.
    fn pure_expr(&mut self) -> Result<Expr, ParseError> {
        let e = self.expr()?;
        let mut dummy = Vec::new();
        let pure = self.lower(e, &mut dummy)?;
        if dummy.is_empty() {
            Ok(pure)
        } else {
            Err(self.err("expression must be heap-free here"))
        }
    }

    fn assignment_or_call(&mut self, out: &mut Vec<Stmt>) -> Result<(), ParseError> {
        // Renaming statement `x <- y;`
        if matches!(self.peek(), Token::Ident(_)) && self.peek2() == &Token::Arrow {
            let fresh = self.ident()?;
            self.bump(); // arrow
            let old = self.ident()?;
            self.eat(&Token::Semi)?;
            out.push(Stmt::new(StmtKind::Rename { fresh, old }));
            return Ok(());
        }
        let lhs = self.postfix()?;
        if self.eat_if(&Token::Assign) {
            match lhs {
                SExpr::Var(x) => self.rhs_into(x, out)?,
                SExpr::FieldRead(obj, field) => {
                    let obj = self.lower_to_var(*obj, out)?;
                    let src = self.rhs_value(out)?;
                    out.push(Stmt::new(StmtKind::WriteField { obj, field, src }));
                }
                SExpr::Index(arr, idx) => {
                    let arr = self.lower_to_var(*arr, out)?;
                    let idx = self.lower(*idx, out)?;
                    let src = self.rhs_value(out)?;
                    out.push(Stmt::new(StmtKind::WriteArr { arr, idx, src }));
                }
                _ => return Err(self.err("invalid assignment target")),
            }
            self.eat(&Token::Semi)?;
        } else {
            // Expression statement: must be a call (result discarded).
            match lhs {
                SExpr::Call(..) => {
                    let t = self.fresh_tmp();
                    let e = self.lower(lhs, out)?;
                    if !matches!(e, Expr::Var(_)) {
                        out.push(Stmt::new(StmtKind::Assign { x: t, e }));
                    }
                    self.eat(&Token::Semi)?;
                }
                _ => return Err(self.err("expected `=` or `(` after expression")),
            }
        }
        Ok(())
    }

    /// Parses a right-hand-side value (general expression or allocation)
    /// and lowers it into a variable.
    fn rhs_value(&mut self, out: &mut Vec<Stmt>) -> Result<Sym, ParseError> {
        match self.peek().clone() {
            Token::New => {
                self.bump();
                let class = self.ident()?;
                let t = self.fresh_tmp();
                out.push(Stmt::new(StmtKind::New { x: t, class }));
                Ok(t)
            }
            Token::NewArray => {
                self.bump();
                self.eat(&Token::LParen)?;
                let len = self.expr()?;
                self.eat(&Token::RParen)?;
                let len = self.lower(len, out)?;
                let t = self.fresh_tmp();
                out.push(Stmt::new(StmtKind::NewArray { x: t, len }));
                Ok(t)
            }
            _ => {
                let rhs = self.expr()?;
                self.lower_to_var(rhs, out)
            }
        }
    }

    /// Parses and lowers the right-hand side of `x = …;`, assigning the
    /// result directly into `x` when possible.
    fn rhs_into(&mut self, x: Sym, out: &mut Vec<Stmt>) -> Result<(), ParseError> {
        match self.peek().clone() {
            Token::New => {
                self.bump();
                let class = self.ident()?;
                out.push(Stmt::new(StmtKind::New { x, class }));
            }
            Token::NewArray => {
                self.bump();
                self.eat(&Token::LParen)?;
                let len = self.expr()?;
                self.eat(&Token::RParen)?;
                let len = self.lower(len, out)?;
                out.push(Stmt::new(StmtKind::NewArray { x, len }));
            }
            _ => {
                let e = self.expr()?;
                // Assign the outermost operation directly into x to avoid a
                // junk temporary.
                match e {
                    SExpr::FieldRead(obj, field) => {
                        let obj = self.lower_to_var(*obj, out)?;
                        out.push(Stmt::new(StmtKind::ReadField { x, obj, field }));
                    }
                    SExpr::Index(arr, idx) => {
                        let arr = self.lower_to_var(*arr, out)?;
                        let idx = self.lower(*idx, out)?;
                        out.push(Stmt::new(StmtKind::ReadArr { x, arr, idx }));
                    }
                    SExpr::Call(obj, meth, args) => {
                        let recv = self.lower_to_var(*obj, out)?;
                        let mut arg_vars = Vec::new();
                        for a in args {
                            arg_vars.push(self.lower_to_var(a, out)?);
                        }
                        out.push(Stmt::new(StmtKind::Call {
                            x,
                            recv,
                            meth,
                            args: arg_vars,
                        }));
                    }
                    other => {
                        let pure = self.lower(other, out)?;
                        out.push(Stmt::new(StmtKind::Assign { x, e: pure }));
                    }
                }
            }
        }
        Ok(())
    }

    // ---------------- expressions ----------------

    fn expr(&mut self) -> Result<SExpr, ParseError> {
        self.descend()?;
        let e = self.or_expr()?;
        self.depth -= 1;
        Ok(e)
    }

    fn or_expr(&mut self) -> Result<SExpr, ParseError> {
        let mut e = self.and_expr()?;
        let mut chain = 0;
        while self.eat_if(&Token::OrOr) {
            self.descend()?;
            chain += 1;
            let rhs = self.and_expr()?;
            e = SExpr::Binop(Binop::Or, Box::new(e), Box::new(rhs));
        }
        self.depth -= chain;
        Ok(e)
    }

    fn and_expr(&mut self) -> Result<SExpr, ParseError> {
        let mut e = self.cmp_expr()?;
        let mut chain = 0;
        while self.eat_if(&Token::AndAnd) {
            self.descend()?;
            chain += 1;
            let rhs = self.cmp_expr()?;
            e = SExpr::Binop(Binop::And, Box::new(e), Box::new(rhs));
        }
        self.depth -= chain;
        Ok(e)
    }

    fn cmp_expr(&mut self) -> Result<SExpr, ParseError> {
        let e = self.add_expr()?;
        let op = match self.peek() {
            Token::EqEq => Binop::Eq,
            Token::NotEq => Binop::Ne,
            Token::Lt => Binop::Lt,
            Token::Le => Binop::Le,
            Token::Gt => Binop::Gt,
            Token::Ge => Binop::Ge,
            _ => return Ok(e),
        };
        self.bump();
        let rhs = self.add_expr()?;
        Ok(SExpr::Binop(op, Box::new(e), Box::new(rhs)))
    }

    fn add_expr(&mut self) -> Result<SExpr, ParseError> {
        let mut e = self.mul_expr()?;
        let mut chain = 0;
        loop {
            let op = match self.peek() {
                Token::Plus => Binop::Add,
                Token::Minus => Binop::Sub,
                _ => break,
            };
            self.bump();
            self.descend()?;
            chain += 1;
            let rhs = self.mul_expr()?;
            e = SExpr::Binop(op, Box::new(e), Box::new(rhs));
        }
        self.depth -= chain;
        Ok(e)
    }

    fn mul_expr(&mut self) -> Result<SExpr, ParseError> {
        let mut e = self.unary_expr()?;
        let mut chain = 0;
        loop {
            let op = match self.peek() {
                Token::Star => Binop::Mul,
                Token::Slash => Binop::Div,
                Token::Percent => Binop::Mod,
                _ => break,
            };
            self.bump();
            self.descend()?;
            chain += 1;
            let rhs = self.unary_expr()?;
            e = SExpr::Binop(op, Box::new(e), Box::new(rhs));
        }
        self.depth -= chain;
        Ok(e)
    }

    fn unary_expr(&mut self) -> Result<SExpr, ParseError> {
        let op = match self.peek() {
            Token::Minus => Unop::Neg,
            Token::Bang => Unop::Not,
            _ => return self.postfix(),
        };
        self.bump();
        self.descend()?;
        let e = self.unary_expr()?;
        self.depth -= 1;
        Ok(SExpr::Unop(op, Box::new(e)))
    }

    fn postfix(&mut self) -> Result<SExpr, ParseError> {
        let mut e = self.primary()?;
        let mut chain = 0;
        loop {
            if matches!(self.peek(), Token::Dot | Token::LBracket) {
                self.descend()?;
                chain += 1;
            }
            match self.peek() {
                Token::Dot => {
                    self.bump();
                    let name = self.ident()?;
                    if name.as_str() == "length" {
                        e = SExpr::Len(Box::new(e));
                    } else if self.peek() == &Token::LParen {
                        self.bump();
                        let mut args = Vec::new();
                        if self.peek() != &Token::RParen {
                            args.push(self.expr()?);
                            while self.eat_if(&Token::Comma) {
                                args.push(self.expr()?);
                            }
                        }
                        self.eat(&Token::RParen)?;
                        e = SExpr::Call(Box::new(e), name, args);
                    } else {
                        e = SExpr::FieldRead(Box::new(e), name);
                    }
                }
                Token::LBracket => {
                    self.bump();
                    let idx = self.expr()?;
                    self.eat(&Token::RBracket)?;
                    e = SExpr::Index(Box::new(e), Box::new(idx));
                }
                _ => break,
            }
        }
        self.depth -= chain;
        Ok(e)
    }

    fn primary(&mut self) -> Result<SExpr, ParseError> {
        match self.bump() {
            Token::Int(n) => Ok(SExpr::Int(n)),
            Token::True => Ok(SExpr::Bool(true)),
            Token::False => Ok(SExpr::Bool(false)),
            Token::Null => Ok(SExpr::Null),
            Token::Ident(s) => Ok(SExpr::Var(Sym::intern(&s))),
            Token::LParen => {
                let e = self.expr()?;
                self.eat(&Token::RParen)?;
                Ok(e)
            }
            other => Err(self.err(format!("expected expression, found {other}"))),
        }
    }

    // ---------------- A-normal-form lowering ----------------

    /// Lowers a surface expression: emits statements for impure parts and
    /// returns the residual pure expression.
    fn lower(&mut self, e: SExpr, out: &mut Vec<Stmt>) -> Result<Expr, ParseError> {
        Ok(match e {
            SExpr::Int(n) => Expr::Int(n),
            SExpr::Bool(b) => Expr::Bool(b),
            SExpr::Null => Expr::Null,
            SExpr::Var(x) => Expr::Var(x),
            SExpr::Unop(op, a) => {
                let a = self.lower(*a, out)?;
                // Fold negative literals so `-1` round-trips as `Int(-1)`.
                if let (Unop::Neg, Expr::Int(n)) = (op, &a) {
                    Expr::Int(-n)
                } else {
                    Expr::Unop(op, Box::new(a))
                }
            }
            SExpr::Binop(op, a, b) => {
                let a = self.lower(*a, out)?;
                let b = self.lower(*b, out)?;
                Expr::Binop(op, Box::new(a), Box::new(b))
            }
            SExpr::Len(a) => {
                let v = self.lower_to_var(*a, out)?;
                Expr::Len(v)
            }
            SExpr::FieldRead(obj, field) => {
                let obj = self.lower_to_var(*obj, out)?;
                let t = self.fresh_tmp();
                out.push(Stmt::new(StmtKind::ReadField { x: t, obj, field }));
                Expr::Var(t)
            }
            SExpr::Index(arr, idx) => {
                let arr = self.lower_to_var(*arr, out)?;
                let idx = self.lower(*idx, out)?;
                let t = self.fresh_tmp();
                out.push(Stmt::new(StmtKind::ReadArr { x: t, arr, idx }));
                Expr::Var(t)
            }
            SExpr::Call(obj, meth, args) => {
                let recv = self.lower_to_var(*obj, out)?;
                let mut arg_vars = Vec::new();
                for a in args {
                    arg_vars.push(self.lower_to_var(a, out)?);
                }
                let t = self.fresh_tmp();
                out.push(Stmt::new(StmtKind::Call {
                    x: t,
                    recv,
                    meth,
                    args: arg_vars,
                }));
                Expr::Var(t)
            }
        })
    }

    /// Like [`Parser::lower`], but forces the result into a variable.
    fn lower_to_var(&mut self, e: SExpr, out: &mut Vec<Stmt>) -> Result<Sym, ParseError> {
        match self.lower(e, out)? {
            Expr::Var(x) => Ok(x),
            pure => {
                let t = self.fresh_tmp();
                out.push(Stmt::new(StmtKind::Assign { x: t, e: pure }));
                Ok(t)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Program {
        parse_program(src).expect("parse failed")
    }

    #[test]
    fn statement_lines_follow_the_source() {
        let src = "class C {
    field f;
    meth m(x) {
        y = new C;
        return y;
    }
}
main {
    c = new C;
    while (c.f < 3) {
        c.f = c.f + 1;
    }
}";
        let (p, lines) = parse_program_with_lines(src).unwrap();
        assert_eq!(p, parse(src));
        assert_eq!(lines.len(), p.stmt_count());
        assert!(lines.iter().all(|&l| (1..=13).contains(&l)), "{lines:?}");
        let line_of = |pred: &dyn Fn(&StmtKind) -> bool| {
            let mut found = Vec::new();
            fn walk(
                b: &Block,
                lines: &[u32],
                pred: &dyn Fn(&StmtKind) -> bool,
                out: &mut Vec<u32>,
            ) {
                for s in &b.stmts {
                    if pred(&s.kind) {
                        out.push(lines[s.id.0 as usize]);
                    }
                    match &s.kind {
                        StmtKind::If { then_b, else_b, .. } => {
                            walk(then_b, lines, pred, out);
                            walk(else_b, lines, pred, out);
                        }
                        StmtKind::Loop { head, tail, .. } => {
                            walk(head, lines, pred, out);
                            walk(tail, lines, pred, out);
                        }
                        _ => {}
                    }
                }
            }
            for (_, m) in p.methods() {
                walk(&m.body, &lines, pred, &mut found);
            }
            walk(&p.main, &lines, pred, &mut found);
            found
        };
        assert_eq!(line_of(&|k| matches!(k, StmtKind::New { .. })), [4, 9]);
        // Loop rotation reads the condition before the loop and again at
        // the end of the body; both reads belong to the `while` line.
        assert_eq!(
            line_of(&|k| matches!(k, StmtKind::ReadField { .. })),
            [10, 11, 10]
        );
        assert_eq!(line_of(&|k| matches!(k, StmtKind::WriteField { .. })), [11]);
    }

    #[test]
    fn rotated_for_loops_carry_the_for_line() {
        let src = "class C { field f; }
main {
    c = new C;
    for (i = 0; i < c.f; i = i + 1) {
        skip;
    }
}";
        let (p, lines) = parse_program_with_lines(src).unwrap();
        assert_eq!(p, parse(src));
        // new, init, guard read, if | loop | skip, update, condition read.
        let StmtKind::If { then_b, .. } = &p.main.stmts[3].kind else {
            panic!("rotated loop expected");
        };
        let StmtKind::Loop { head, .. } = &then_b.stmts[0].kind else {
            panic!("loop expected");
        };
        let line = |s: &Stmt| lines[s.id.0 as usize];
        assert_eq!(
            p.main.stmts.iter().map(line).collect::<Vec<_>>(),
            [3, 4, 4, 4]
        );
        assert_eq!(line(&then_b.stmts[0]), 4);
        assert_eq!(head.stmts.iter().map(line).collect::<Vec<_>>(), [5, 4, 4]);
    }

    #[test]
    fn parse_minimal_main() {
        let p = parse("main { skip; }");
        assert_eq!(p.main.stmts.len(), 1);
        assert_eq!(p.main.stmts[0].kind, StmtKind::Skip);
    }

    #[test]
    fn missing_main_is_error() {
        assert!(parse_program("class C { }").is_err());
    }

    #[test]
    fn nesting_over_the_budget_is_an_error() {
        let n = MAX_NESTING as usize;
        let parens = |k: usize| format!("{}x{}", "(".repeat(k), ")".repeat(k));
        // `parse_expr` spends one level on the whole expression.
        assert!(parse_expr(&parens(n - 1)).is_ok());
        let err = parse_expr(&parens(n)).unwrap_err();
        assert!(err.msg.contains("nesting deeper than"), "{err}");
        let fields = format!("main {{ y = x{}; }}", ".f".repeat(20_000));
        let err = parse_program(&fields).unwrap_err();
        assert!(err.msg.contains("nesting deeper than"), "{err}");
        // Levels are released on the way out: siblings do not add up.
        let wide = format!("main {{ {} }}", "if (x) { y = (((1))); } ".repeat(2 * n));
        assert!(parse_program(&wide).is_ok());
    }

    #[test]
    fn non_positive_strides_are_rejected_with_a_diagnostic() {
        // A clamped `:0` stride would denote a different index set, so the
        // parser must refuse it outright (see SymRange::from_ast).
        for bad in ["0", "-1", "-3"] {
            let src = format!("main {{ a = new_array(8); check(r: a[0..8:{bad}]); }}");
            let err = parse_program(&src).expect_err("stride must be rejected");
            assert!(
                err.to_string().contains("positive stride"),
                "diagnostic should name the stride rule, got: {err}"
            );
        }
        // Positive strides still parse.
        assert!(parse_program("main { a = new_array(8); check(r: a[0..8:2]); }").is_ok());
    }

    #[test]
    fn rmw_lowering_produces_read_then_write() {
        let p = parse("class C { field f; } main { c = new C; c.f = c.f + 1; }");
        let kinds: Vec<_> = p.main.stmts.iter().map(|s| &s.kind).collect();
        assert!(matches!(kinds[0], StmtKind::New { .. }));
        assert!(matches!(kinds[1], StmtKind::ReadField { .. }));
        // rhs value lowered into a temp, then written
        assert!(matches!(kinds.last().unwrap(), StmtKind::WriteField { .. }));
    }

    /// Finds the (rotated) loop inside the `if` guard a `while`/`for`
    /// desugars into.
    fn guarded_loop(s: &Stmt) -> &Stmt {
        match &s.kind {
            StmtKind::If { then_b, .. } => then_b
                .stmts
                .iter()
                .find(|s| matches!(s.kind, StmtKind::Loop { .. }))
                .expect("loop inside rotation guard"),
            _ => panic!("expected rotation guard, got {:?}", s.kind),
        }
    }

    #[test]
    fn while_rotates_to_guarded_do_while() {
        let p = parse("main { i = 0; while (i < 10) { i = i + 1; } }");
        // i = 0; if (i < 10) { loop { i = i + 1 } exit (!(i < 10)) {} }
        match &guarded_loop(&p.main.stmts[1]).kind {
            StmtKind::Loop { head, exit, tail } => {
                assert_eq!(head.stmts.len(), 1);
                assert!(matches!(exit, Expr::Unop(Unop::Not, _)));
                assert!(tail.stmts.is_empty());
            }
            other => panic!("expected loop, got {other:?}"),
        }
    }

    #[test]
    fn while_with_heap_condition_reads_twice() {
        let p = parse("class C { field f; } main { c = new C; while (c.f > 0) { c.f = 0; } }");
        // The guard read happens before the if; the loop re-reads at the
        // end of its head.
        assert!(matches!(p.main.stmts[1].kind, StmtKind::ReadField { .. }));
        match &guarded_loop(&p.main.stmts[2]).kind {
            StmtKind::Loop { head, .. } => {
                assert!(matches!(
                    head.stmts.last().unwrap().kind,
                    StmtKind::ReadField { .. }
                ));
            }
            other => panic!("expected loop, got {other:?}"),
        }
    }

    #[test]
    fn for_loop_desugars() {
        let p = parse("main { a = new_array(10); for (i = 0; i < 10; i = i + 1) { a[i] = i; } }");
        assert!(matches!(p.main.stmts[1].kind, StmtKind::Assign { .. }));
        match &guarded_loop(&p.main.stmts[2]).kind {
            StmtKind::Loop { head, tail, .. } => {
                // body write + increment, all in the rotated head
                assert!(matches!(head.stmts[0].kind, StmtKind::WriteArr { .. }));
                assert!(matches!(
                    head.stmts.last().unwrap().kind,
                    StmtKind::Assign { .. }
                ));
                assert!(tail.stmts.is_empty());
            }
            other => panic!("expected loop, got {other:?}"),
        }
    }

    #[test]
    fn fork_and_join() {
        let p = parse(
            "class W { meth run() { return 0; } } main { w = new W; fork t = w.run(); join(t); }",
        );
        assert!(matches!(p.main.stmts[1].kind, StmtKind::Fork { .. }));
        assert!(matches!(p.main.stmts[2].kind, StmtKind::Join { .. }));
    }

    #[test]
    fn nested_call_args_are_lowered() {
        let p = parse(
            "class C { field f; meth m(a, b) { return a; } }
             main { c = new C; r = c.m(c.f, 1 + 2); }",
        );
        let kinds: Vec<_> = p.main.stmts.iter().map(|s| &s.kind).collect();
        assert!(matches!(kinds[1], StmtKind::ReadField { .. }));
        assert!(matches!(kinds[2], StmtKind::Assign { .. }));
        assert!(matches!(kinds[3], StmtKind::Call { .. }));
    }

    #[test]
    fn check_statement_syntax() {
        let p = parse("main { p = null; a = null; check(w: p.x/y/z, r: a[0..10:2], r: a[5]); }");
        match &p.main.stmts[2].kind {
            StmtKind::Check { paths } => {
                assert_eq!(paths.len(), 3);
                assert_eq!(paths[0].kind, AccessKind::Write);
                match &paths[0].path {
                    Path::Fields { fields, .. } => assert_eq!(fields.len(), 3),
                    _ => panic!("expected field path"),
                }
                match &paths[1].path {
                    Path::Arr { range, .. } => assert_eq!(range.step, 2),
                    _ => panic!("expected array path"),
                }
            }
            other => panic!("expected check, got {other:?}"),
        }
    }

    #[test]
    fn rename_statement() {
        let p = parse("main { i = 0; i' <- i; }");
        assert!(matches!(p.main.stmts[1].kind, StmtKind::Rename { .. }));
    }

    #[test]
    fn array_of_objects_chain() {
        let p = parse("class P { field x; } main { a = new_array(3); v = a[0].x; }");
        let kinds: Vec<_> = p.main.stmts.iter().map(|s| &s.kind).collect();
        assert!(matches!(kinds[1], StmtKind::ReadArr { .. }));
        assert!(matches!(kinds[2], StmtKind::ReadField { .. }));
    }

    #[test]
    fn length_is_pure() {
        let p = parse("main { a = new_array(5); n = a.length; }");
        match &p.main.stmts[1].kind {
            StmtKind::Assign { e, .. } => assert!(matches!(e, Expr::Len(_))),
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn return_not_in_main() {
        assert!(parse_program("main { return 0; }").is_err());
    }

    #[test]
    fn method_without_return_defaults_to_zero() {
        let p = parse("class C { meth m() { skip; } } main { skip; }");
        assert_eq!(p.classes[0].methods[0].ret, Expr::Int(0));
    }

    #[test]
    fn statement_level_call() {
        let p = parse("class C { meth m() { return 1; } } main { c = new C; c.m(); }");
        assert!(matches!(p.main.stmts[1].kind, StmtKind::Call { .. }));
    }
}
