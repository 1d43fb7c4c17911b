//! Recursive-descent parser for mini-C.

use crate::ast::*;
use crate::lexer::{Tok, Token};
use crate::CError;

/// Parses a token stream into a [`Unit`].
///
/// # Errors
///
/// Returns a [`CError`] on syntax errors.
pub fn parse(tokens: Vec<Token>) -> Result<Unit, CError> {
    let mut p = Parser { tokens, pos: 0, depth: 0 };
    p.parse_unit()
}

/// The deepest nesting the parser accepts. Statements, unary operands
/// (which include parenthesised expressions), the right-hand sides of
/// assignment and conditional chains, and each operator of a binary chain
/// add one level; pointer stars and array dimensions are capped at the
/// same count per type. Past it, parsing fails with a [`CError`] instead
/// of the recursive descent (or codegen's walk of the tree it built)
/// overflowing the stack.
pub const MAX_NESTING: usize = 128;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Current nesting level, bounded by [`MAX_NESTING`].
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &Tok {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn line(&self) -> usize {
        self.tokens[self.pos].line
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: Tok) -> Result<(), CError> {
        if self.peek() == &t {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {t:?}, found {:?}", self.peek())))
        }
    }

    fn expect_ident(&mut self) -> Result<String, CError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn err(&self, message: impl Into<String>) -> CError {
        CError::new(self.line(), message.into())
    }

    /// Enters one nesting level. Callers leave with `self.depth -= 1`; an
    /// error ends the parse, so error paths need not restore the count.
    fn enter(&mut self) -> Result<(), CError> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(self.too_deep());
        }
        Ok(())
    }

    fn too_deep(&self) -> CError {
        self.err(format!("nesting deeper than {MAX_NESTING}"))
    }

    /// Runs `f` one nesting level deeper.
    fn nested<T>(&mut self, f: fn(&mut Self) -> Result<T, CError>) -> Result<T, CError> {
        self.enter()?;
        let r = f(self)?;
        self.depth -= 1;
        Ok(r)
    }

    fn is_type_start(&self) -> bool {
        Self::starts_type(self.peek())
    }

    fn starts_type(tok: &Tok) -> bool {
        matches!(
            tok,
            Tok::KwVoid
                | Tok::KwChar
                | Tok::KwShort
                | Tok::KwInt
                | Tok::KwLong
                | Tok::KwDouble
                | Tok::KwStruct
        )
    }

    /// Parses a base type plus pointer stars.
    fn parse_type(&mut self) -> Result<CType, CError> {
        let base = match self.bump() {
            Tok::KwVoid => CType::Void,
            Tok::KwChar => CType::Char,
            Tok::KwShort => CType::Short,
            Tok::KwInt => CType::Int,
            Tok::KwLong => CType::Long,
            Tok::KwDouble => CType::Double,
            Tok::KwStruct => CType::Struct(self.expect_ident()?),
            other => return Err(self.err(format!("expected type, found {other:?}"))),
        };
        let mut ty = base;
        for _ in 0..=MAX_NESTING {
            if !self.eat(&Tok::Star) {
                return Ok(ty);
            }
            ty = ty.ptr_to();
        }
        Err(self.too_deep())
    }

    fn parse_unit(&mut self) -> Result<Unit, CError> {
        let mut unit = Unit::default();
        while self.peek() != &Tok::Eof {
            // struct definition?
            if self.peek() == &Tok::KwStruct && matches!(self.peek2(), Tok::Ident(_)) {
                // Lookahead for '{' after the name: struct def vs. use.
                let save = self.pos;
                self.bump();
                let name = self.expect_ident()?;
                if self.peek() == &Tok::LBrace {
                    let line = self.line();
                    self.bump();
                    let mut fields = Vec::new();
                    while self.peek() != &Tok::RBrace {
                        let ty = self.parse_type()?;
                        let fname = self.expect_ident()?;
                        let ty = self.parse_array_suffix(ty, false)?;
                        self.expect(Tok::Semi)?;
                        fields.push((fname, ty));
                    }
                    self.expect(Tok::RBrace)?;
                    self.expect(Tok::Semi)?;
                    unit.structs.push(CStruct { name, fields, line });
                    continue;
                }
                self.pos = save;
            }

            // Qualifiers.
            let mut is_extern = false;
            let mut uninstrumented = false;
            let mut hidden_size = false;
            let mut lib_global = false;
            loop {
                match self.peek() {
                    Tok::KwExtern => {
                        is_extern = true;
                        self.bump();
                    }
                    Tok::KwUninstrumented => {
                        uninstrumented = true;
                        self.bump();
                    }
                    Tok::KwHiddenSize => {
                        hidden_size = true;
                        self.bump();
                    }
                    Tok::KwLibGlobal => {
                        lib_global = true;
                        self.bump();
                    }
                    _ => break,
                }
            }

            let line = self.line();
            let ty = self.parse_type()?;
            let name = self.expect_ident()?;
            if self.peek() == &Tok::LParen {
                // Function.
                self.bump();
                let mut params = Vec::new();
                if self.peek() == &Tok::KwVoid && self.peek2() == &Tok::RParen {
                    self.bump();
                }
                if !self.eat(&Tok::RParen) {
                    loop {
                        let pty = self.parse_type()?;
                        let pname = self.expect_ident()?;
                        // Array params decay to pointers.
                        let pty = if self.eat(&Tok::LBracket) {
                            if let Tok::IntLit(_) = self.peek() {
                                self.bump();
                            }
                            self.expect(Tok::RBracket)?;
                            pty.ptr_to()
                        } else {
                            pty
                        };
                        params.push(CParam { name: pname, ty: pty });
                        if self.eat(&Tok::RParen) {
                            break;
                        }
                        self.expect(Tok::Comma)?;
                    }
                }
                let body = if self.eat(&Tok::Semi) {
                    None
                } else {
                    self.expect(Tok::LBrace)?;
                    let mut stmts = Vec::new();
                    while !self.eat(&Tok::RBrace) {
                        stmts.push(self.parse_stmt()?);
                    }
                    Some(stmts)
                };
                unit.functions.push(CFunction {
                    name,
                    params,
                    ret: ty,
                    body,
                    uninstrumented,
                    line,
                });
            } else {
                // Global variable.
                let ty = self.parse_array_suffix(ty, is_extern)?;
                let init = if self.eat(&Tok::Assign) { Some(self.parse_expr()?) } else { None };
                self.expect(Tok::Semi)?;
                unit.globals.push(CGlobal {
                    name,
                    ty,
                    init,
                    is_extern,
                    hidden_size,
                    lib_global,
                    line,
                });
            }
        }
        Ok(unit)
    }

    /// Parses `[N]` suffixes; `[]` (size omitted) only when `allow_empty`
    /// (extern declarations; yields a zero-length array).
    fn parse_array_suffix(&mut self, base: CType, allow_empty: bool) -> Result<CType, CError> {
        let mut dims = Vec::new();
        while self.eat(&Tok::LBracket) {
            if dims.len() == MAX_NESTING {
                return Err(self.too_deep());
            }
            if self.eat(&Tok::RBracket) {
                if !allow_empty {
                    return Err(self.err("array size required"));
                }
                dims.push(0u64);
            } else {
                let n = match self.bump() {
                    Tok::IntLit(n) if n >= 0 => n as u64,
                    other => return Err(self.err(format!("expected array size, found {other:?}"))),
                };
                self.expect(Tok::RBracket)?;
                dims.push(n);
            }
        }
        let mut ty = base;
        for &n in dims.iter().rev() {
            ty = CType::Array(Box::new(ty), n);
        }
        Ok(ty)
    }

    fn parse_stmt(&mut self) -> Result<Stmt, CError> {
        self.nested(Self::parse_stmt_here)
    }

    fn parse_stmt_here(&mut self) -> Result<Stmt, CError> {
        let line = self.line();
        match self.peek() {
            Tok::LBrace => {
                self.bump();
                let mut stmts = Vec::new();
                while !self.eat(&Tok::RBrace) {
                    stmts.push(self.parse_stmt()?);
                }
                Ok(Stmt::Block(stmts))
            }
            Tok::KwIf => {
                self.bump();
                self.expect(Tok::LParen)?;
                let cond = self.parse_expr()?;
                self.expect(Tok::RParen)?;
                let then_branch = Box::new(self.parse_stmt()?);
                let else_branch =
                    if self.eat(&Tok::KwElse) { Some(Box::new(self.parse_stmt()?)) } else { None };
                Ok(Stmt::If { cond, then_branch, else_branch })
            }
            Tok::KwWhile => {
                self.bump();
                self.expect(Tok::LParen)?;
                let cond = self.parse_expr()?;
                self.expect(Tok::RParen)?;
                let body = Box::new(self.parse_stmt()?);
                Ok(Stmt::While { cond, body })
            }
            Tok::KwFor => {
                self.bump();
                self.expect(Tok::LParen)?;
                let init = if self.eat(&Tok::Semi) {
                    None
                } else if self.is_type_start() {
                    Some(Box::new(self.parse_decl_stmt()?))
                } else {
                    let e = self.parse_expr()?;
                    self.expect(Tok::Semi)?;
                    Some(Box::new(Stmt::Expr(e)))
                };
                let cond = if self.peek() == &Tok::Semi { None } else { Some(self.parse_expr()?) };
                self.expect(Tok::Semi)?;
                let step =
                    if self.peek() == &Tok::RParen { None } else { Some(self.parse_expr()?) };
                self.expect(Tok::RParen)?;
                let body = Box::new(self.parse_stmt()?);
                Ok(Stmt::For { init, cond, step, body })
            }
            Tok::KwReturn => {
                self.bump();
                let value = if self.peek() == &Tok::Semi { None } else { Some(self.parse_expr()?) };
                self.expect(Tok::Semi)?;
                Ok(Stmt::Return { value, line })
            }
            Tok::KwBreak => {
                self.bump();
                self.expect(Tok::Semi)?;
                Ok(Stmt::Break { line })
            }
            Tok::KwContinue => {
                self.bump();
                self.expect(Tok::Semi)?;
                Ok(Stmt::Continue { line })
            }
            _ if self.is_type_start() => self.parse_decl_stmt(),
            _ => {
                let e = self.parse_expr()?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::Expr(e))
            }
        }
    }

    fn parse_decl_stmt(&mut self) -> Result<Stmt, CError> {
        let line = self.line();
        let ty = self.parse_type()?;
        let name = self.expect_ident()?;
        let ty = self.parse_array_suffix(ty, false)?;
        let init = if self.eat(&Tok::Assign) { Some(self.parse_expr()?) } else { None };
        self.expect(Tok::Semi)?;
        Ok(Stmt::Decl { name, ty, init, line })
    }

    // --- expressions, precedence climbing ---

    fn parse_expr(&mut self) -> Result<Expr, CError> {
        self.parse_assign()
    }

    fn parse_assign(&mut self) -> Result<Expr, CError> {
        let line = self.line();
        let lhs = self.parse_conditional()?;
        let op = match self.peek() {
            Tok::Assign => None,
            Tok::PlusAssign => Some(BinaryOp::Add),
            Tok::MinusAssign => Some(BinaryOp::Sub),
            Tok::StarAssign => Some(BinaryOp::Mul),
            Tok::SlashAssign => Some(BinaryOp::Div),
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.nested(Self::parse_assign)?;
        Ok(Expr {
            line,
            kind: match op {
                None => ExprKind::Assign(Box::new(lhs), Box::new(rhs)),
                Some(op) => ExprKind::CompoundAssign(op, Box::new(lhs), Box::new(rhs)),
            },
        })
    }

    fn parse_conditional(&mut self) -> Result<Expr, CError> {
        let line = self.line();
        let cond = self.parse_binary(0)?;
        if self.eat(&Tok::Question) {
            let a = self.parse_expr()?;
            self.expect(Tok::Colon)?;
            let b = self.nested(Self::parse_conditional)?;
            Ok(Expr { line, kind: ExprKind::Conditional(Box::new(cond), Box::new(a), Box::new(b)) })
        } else {
            Ok(cond)
        }
    }

    fn binop_for(tok: &Tok) -> Option<(u8, BinOrLogic)> {
        use BinaryOp::*;
        Some(match tok {
            Tok::PipePipe => (1, BinOrLogic::Or),
            Tok::AmpAmp => (2, BinOrLogic::And),
            Tok::Pipe => (3, BinOrLogic::Bin(BitOr)),
            Tok::Caret => (4, BinOrLogic::Bin(BitXor)),
            Tok::Amp => (5, BinOrLogic::Bin(BitAnd)),
            Tok::EqEq => (6, BinOrLogic::Bin(Eq)),
            Tok::NotEq => (6, BinOrLogic::Bin(Ne)),
            Tok::Lt => (7, BinOrLogic::Bin(Lt)),
            Tok::Le => (7, BinOrLogic::Bin(Le)),
            Tok::Gt => (7, BinOrLogic::Bin(Gt)),
            Tok::Ge => (7, BinOrLogic::Bin(Ge)),
            Tok::Shl => (8, BinOrLogic::Bin(Shl)),
            Tok::Shr => (8, BinOrLogic::Bin(Shr)),
            Tok::Plus => (9, BinOrLogic::Bin(Add)),
            Tok::Minus => (9, BinOrLogic::Bin(Sub)),
            Tok::Star => (10, BinOrLogic::Bin(Mul)),
            Tok::Slash => (10, BinOrLogic::Bin(Div)),
            Tok::Percent => (10, BinOrLogic::Bin(Rem)),
            _ => return None,
        })
    }

    fn parse_binary(&mut self, min_prec: u8) -> Result<Expr, CError> {
        let mut lhs = self.parse_unary()?;
        // Each fold deepens the left-leaning tree by one level.
        let base = self.depth;
        while let Some((prec, op)) = Self::binop_for(self.peek()) {
            if prec < min_prec {
                break;
            }
            self.enter()?;
            let line = self.line();
            self.bump();
            let rhs = self.parse_binary(prec + 1)?;
            lhs = Expr {
                line,
                kind: match op {
                    BinOrLogic::Bin(b) => ExprKind::Binary(b, Box::new(lhs), Box::new(rhs)),
                    BinOrLogic::And => ExprKind::LogicalAnd(Box::new(lhs), Box::new(rhs)),
                    BinOrLogic::Or => ExprKind::LogicalOr(Box::new(lhs), Box::new(rhs)),
                },
            };
        }
        self.depth = base;
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, CError> {
        self.nested(Self::parse_unary_here)
    }

    fn parse_unary_here(&mut self) -> Result<Expr, CError> {
        let line = self.line();
        let wrap: fn(Box<Expr>) -> ExprKind = match self.peek() {
            Tok::Minus => |e| ExprKind::Unary(UnaryOp::Neg, e),
            Tok::Bang => |e| ExprKind::Unary(UnaryOp::Not, e),
            Tok::Tilde => |e| ExprKind::Unary(UnaryOp::BitNot, e),
            Tok::Star => ExprKind::Deref,
            Tok::Amp => ExprKind::AddrOf,
            Tok::KwSizeof => {
                self.bump();
                self.expect(Tok::LParen)?;
                let ty = self.parse_type()?;
                let ty = self.parse_array_suffix(ty, false)?;
                self.expect(Tok::RParen)?;
                return Ok(Expr { line, kind: ExprKind::SizeofType(ty) });
            }
            Tok::LParen if Self::starts_type(self.peek2()) => {
                self.bump();
                let ty = self.parse_type()?;
                self.expect(Tok::RParen)?;
                let e = self.parse_unary()?;
                return Ok(Expr { line, kind: ExprKind::Cast(ty, Box::new(e)) });
            }
            // A parenthesized expression is a primary.
            _ => return self.parse_postfix(),
        };
        self.bump();
        let e = self.parse_unary()?;
        Ok(Expr { line, kind: wrap(Box::new(e)) })
    }

    fn parse_postfix(&mut self) -> Result<Expr, CError> {
        let mut e = self.parse_primary()?;
        loop {
            let line = self.line();
            match self.peek() {
                Tok::LBracket => {
                    self.bump();
                    let idx = self.parse_expr()?;
                    self.expect(Tok::RBracket)?;
                    e = Expr { line, kind: ExprKind::Index(Box::new(e), Box::new(idx)) };
                }
                Tok::Dot => {
                    self.bump();
                    let f = self.expect_ident()?;
                    e = Expr { line, kind: ExprKind::Member(Box::new(e), f) };
                }
                Tok::Arrow => {
                    self.bump();
                    let f = self.expect_ident()?;
                    e = Expr { line, kind: ExprKind::Arrow(Box::new(e), f) };
                }
                Tok::LParen => {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.eat(&Tok::RParen) {
                        loop {
                            args.push(self.parse_expr()?);
                            if self.eat(&Tok::RParen) {
                                break;
                            }
                            self.expect(Tok::Comma)?;
                        }
                    }
                    e = Expr { line, kind: ExprKind::Call(Box::new(e), args) };
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn parse_primary(&mut self) -> Result<Expr, CError> {
        let line = self.line();
        match self.bump() {
            Tok::IntLit(v) => Ok(Expr { line, kind: ExprKind::IntLit(v) }),
            Tok::CharLit(v) => Ok(Expr { line, kind: ExprKind::IntLit(v) }),
            Tok::FloatLit(v) => Ok(Expr { line, kind: ExprKind::FloatLit(v) }),
            Tok::Ident(name) => Ok(Expr { line, kind: ExprKind::Ident(name) }),
            Tok::LParen => {
                let e = self.parse_expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            other => Err(CError::new(line, format!("expected expression, found {other:?}"))),
        }
    }
}

enum BinOrLogic {
    Bin(BinaryOp),
    And,
    Or,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Unit {
        parse(lex(src).unwrap()).unwrap()
    }

    #[test]
    fn parses_function_with_control_flow() {
        let u = parse_src(
            r#"
            long fib(long n) {
                if (n < 2) return n;
                return fib(n - 1) + fib(n - 2);
            }
        "#,
        );
        assert_eq!(u.functions.len(), 1);
        assert_eq!(u.functions[0].name, "fib");
        assert_eq!(u.functions[0].params.len(), 1);
    }

    #[test]
    fn parses_struct_and_globals() {
        let u = parse_src(
            r#"
            struct node { long value; struct node *next; };
            struct node pool[100];
            extern int table[];
            __hidden_size int hidden[64];
        "#,
        );
        assert_eq!(u.structs.len(), 1);
        assert_eq!(u.structs[0].fields.len(), 2);
        assert_eq!(u.globals.len(), 3);
        assert!(matches!(u.globals[1].ty, CType::Array(_, 0)));
        assert!(u.globals[1].is_extern);
        assert!(u.globals[2].hidden_size);
    }

    #[test]
    fn precedence_mul_over_add() {
        let u = parse_src("long f(void) { return 1 + 2 * 3; }");
        let Stmt::Return { value: Some(e), .. } = &u.functions[0].body.as_ref().unwrap()[0] else {
            panic!()
        };
        let ExprKind::Binary(BinaryOp::Add, _, rhs) = &e.kind else { panic!("{e:?}") };
        assert!(matches!(rhs.kind, ExprKind::Binary(BinaryOp::Mul, _, _)));
    }

    #[test]
    fn cast_vs_parenthesized() {
        let u = parse_src("long f(long x) { return (long)x + (x); }");
        let Stmt::Return { value: Some(e), .. } = &u.functions[0].body.as_ref().unwrap()[0] else {
            panic!()
        };
        let ExprKind::Binary(BinaryOp::Add, lhs, _) = &e.kind else { panic!() };
        assert!(matches!(lhs.kind, ExprKind::Cast(CType::Long, _)));
    }

    #[test]
    fn for_loop_with_decl() {
        let u = parse_src("void f(void) { for (int i = 0; i < 10; i += 1) { continue; } }");
        let Stmt::For { init, cond, step, .. } = &u.functions[0].body.as_ref().unwrap()[0] else {
            panic!()
        };
        assert!(init.is_some());
        assert!(cond.is_some());
        assert!(step.is_some());
    }

    #[test]
    fn postfix_chains() {
        let u = parse_src("long f(struct s *p) { return p->next->vals[3]; }");
        let Stmt::Return { value: Some(e), .. } = &u.functions[0].body.as_ref().unwrap()[0] else {
            panic!()
        };
        assert!(matches!(e.kind, ExprKind::Index(_, _)));
    }

    #[test]
    fn uninstrumented_qualifier() {
        let u = parse_src("uninstrumented long libfn(long x) { return x; }");
        assert!(u.functions[0].uninstrumented);
    }

    #[test]
    fn sizeof_and_conditional() {
        let u = parse_src("long f(long x) { return x ? sizeof(long) : sizeof(int[4]); }");
        let Stmt::Return { value: Some(e), .. } = &u.functions[0].body.as_ref().unwrap()[0] else {
            panic!()
        };
        assert!(matches!(e.kind, ExprKind::Conditional(_, _, _)));
    }

    #[test]
    fn error_messages_have_lines() {
        let e = parse(lex("long f(void) {\n  return +;\n}").unwrap()).unwrap_err();
        assert_eq!(e.line, 2);
    }

    /// Every nesting path compiles at exactly [`MAX_NESTING`] levels and is
    /// a [`CError`] one level deeper; `return 1;` alone takes two (the
    /// statement and its operand). Unoptimized builds have the largest
    /// frames, so this passing on a default test thread is the evidence
    /// that the bound fits a 2 MiB stack.
    #[test]
    fn nesting_is_bounded_at_max_nesting() {
        let cases = [
            ("(", ")", false),
            ("-", "", false),
            ("(long)", "", false),
            ("w[", "]", false),
            ("1 + ", "", false),
            ("1 ? 1 : ", "", false),
            ("v = ", "", false),
            ("{", "}", true),
            ("if (1) ", "", true),
        ];
        let too_deep = format!("nesting deeper than {MAX_NESTING}");
        for (open, close, stmt) in cases {
            let program = |n: usize| {
                let (open, close) = (open.repeat(n), close.repeat(n));
                let body = if stmt {
                    format!("{open}return 1;{close}")
                } else {
                    format!("return {open}1{close};")
                };
                format!("long v; long w[1]; long main(void) {{ {body} }}")
            };
            let n = MAX_NESTING - 2;
            crate::compile(&program(n)).unwrap_or_else(|e| panic!("{open} x{n}: {e}"));
            let e = crate::compile(&program(n + 1)).unwrap_err();
            assert_eq!(e.message, too_deep, "{open}");
        }
        let n = MAX_NESTING + 1;
        for decl in [format!("long {}p", "*".repeat(n)), format!("long a{}", "[1]".repeat(n))] {
            let e =
                crate::compile(&format!("long main(void) {{ {decl}; return 0; }}")).unwrap_err();
            assert_eq!(e.message, too_deep);
        }
    }

    #[test]
    fn multidim_arrays() {
        let u = parse_src("int grid[4][8];");
        let CType::Array(inner, 4) = &u.globals[0].ty else { panic!() };
        assert!(matches!(**inner, CType::Array(_, 8)));
    }
}
