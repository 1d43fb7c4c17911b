//! Parser for the textual IR format produced by [`crate::printer`].
//!
//! The format is value-numbered (`%name`), block-labelled (`bbN:`), and
//! type-annotated enough that a single forward pass plus one name-resolution
//! pass suffices. Round-trip guarantee: `print(parse(print(m)))` is
//! idempotent (checked by tests and a property test).

use std::collections::BTreeMap;
use std::fmt;

use crate::function::{FnAttrs, Function, Param};
use crate::ids::{BlockId, GlobalId, ValueId};
use crate::instr::{BinOp, CastOp, FcmpPred, IcmpPred, InstrKind, Operand, Terminator};
use crate::module::{Effect, Global, GlobalAttrs, HostDecl, Init, Module};
use crate::types::Type;

/// How many `[`/`{` levels a type may nest. The type parser recurses once
/// per level; past the bound, parsing fails with a [`ParseError`] instead
/// of overflowing the stack.
pub const MAX_NESTING: usize = 128;

/// A parse failure with line information.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// 1-based source line.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a module from its textual form.
///
/// # Errors
///
/// Returns a [`ParseError`] pointing at the offending line.
pub fn parse_module(src: &str) -> Result<Module, ParseError> {
    Parser::new(src).parse_module()
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Clone, PartialEq, Debug)]
enum Tok {
    Ident(String),
    /// `%name`
    Local(String),
    /// `@name`
    At(String),
    /// `@fn:name`
    FuncRef(String),
    Int(i64),
    /// `"..."` (source file names).
    Str(String),
    /// `!` (source-location suffix).
    Bang,
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Comma,
    Colon,
    Eq,
    Eof,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Lexer<'a> {
        Lexer { src: src.as_bytes(), pos: 0, line: 1 }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError { line: self.line, message: message.into() }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.src.len() {
            let c = self.src[self.pos];
            if c == b';' {
                while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
                    self.pos += 1;
                }
            } else if c == b'\n' {
                self.line += 1;
                self.pos += 1;
            } else if c.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn ident(&mut self) -> String {
        let start = self.pos;
        while self.pos < self.src.len() {
            let c = self.src[self.pos];
            if c.is_ascii_alphanumeric() || c == b'_' || c == b'.' {
                self.pos += 1;
            } else {
                break;
            }
        }
        String::from_utf8_lossy(&self.src[start..self.pos]).into_owned()
    }

    fn next(&mut self) -> Result<Tok, ParseError> {
        self.skip_ws();
        if self.pos >= self.src.len() {
            return Ok(Tok::Eof);
        }
        let c = self.src[self.pos];
        match c {
            b'(' => {
                self.pos += 1;
                Ok(Tok::LParen)
            }
            b')' => {
                self.pos += 1;
                Ok(Tok::RParen)
            }
            b'[' => {
                self.pos += 1;
                Ok(Tok::LBracket)
            }
            b']' => {
                self.pos += 1;
                Ok(Tok::RBracket)
            }
            b'{' => {
                self.pos += 1;
                Ok(Tok::LBrace)
            }
            b'}' => {
                self.pos += 1;
                Ok(Tok::RBrace)
            }
            b',' => {
                self.pos += 1;
                Ok(Tok::Comma)
            }
            b':' => {
                self.pos += 1;
                Ok(Tok::Colon)
            }
            b'=' => {
                self.pos += 1;
                Ok(Tok::Eq)
            }
            b'!' => {
                self.pos += 1;
                Ok(Tok::Bang)
            }
            b'"' => {
                self.pos += 1;
                let mut s = String::new();
                loop {
                    if self.pos >= self.src.len() {
                        return Err(self.error("unterminated string literal"));
                    }
                    match self.src[self.pos] {
                        b'"' => {
                            self.pos += 1;
                            break;
                        }
                        b'\\' if self.pos + 1 < self.src.len() => {
                            s.push(self.src[self.pos + 1] as char);
                            self.pos += 2;
                        }
                        b'\n' => return Err(self.error("unterminated string literal")),
                        c => {
                            s.push(c as char);
                            self.pos += 1;
                        }
                    }
                }
                Ok(Tok::Str(s))
            }
            b'%' => {
                self.pos += 1;
                let name = self.ident();
                if name.is_empty() {
                    return Err(self.error("expected name after '%'"));
                }
                Ok(Tok::Local(name))
            }
            b'@' => {
                self.pos += 1;
                let name = self.ident();
                if name.is_empty() {
                    return Err(self.error("expected name after '@'"));
                }
                if name == "fn" && self.pos < self.src.len() && self.src[self.pos] == b':' {
                    self.pos += 1;
                    let target = self.ident();
                    if target.is_empty() {
                        return Err(self.error("expected function name after '@fn:'"));
                    }
                    return Ok(Tok::FuncRef(target));
                }
                Ok(Tok::At(name))
            }
            b'-' | b'0'..=b'9' => {
                let neg = c == b'-';
                if neg {
                    self.pos += 1;
                }
                // Hex?
                if self.pos + 1 < self.src.len()
                    && self.src[self.pos] == b'0'
                    && (self.src[self.pos + 1] == b'x' || self.src[self.pos + 1] == b'X')
                {
                    self.pos += 2;
                    let start = self.pos;
                    while self.pos < self.src.len() && self.src[self.pos].is_ascii_hexdigit() {
                        self.pos += 1;
                    }
                    let digits = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
                    let v = u64::from_str_radix(digits, 16)
                        .map_err(|e| self.error(format!("bad hex literal: {e}")))?;
                    let v = v as i64;
                    return Ok(Tok::Int(if neg { -v } else { v }));
                }
                let start = self.pos;
                while self.pos < self.src.len() && self.src[self.pos].is_ascii_digit() {
                    self.pos += 1;
                }
                let digits = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
                let v: i64 = digits
                    .parse::<u64>()
                    .map(|u| u as i64)
                    .map_err(|e| self.error(format!("bad integer literal: {e}")))?;
                Ok(Tok::Int(if neg { v.wrapping_neg() } else { v }))
            }
            _ if c.is_ascii_alphabetic() || c == b'_' => Ok(Tok::Ident(self.ident())),
            other => Err(self.error(format!("unexpected character '{}'", other as char))),
        }
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Operand before name resolution.
#[derive(Clone, Debug)]
enum POp {
    Local(String),
    ConstInt(Type, i64),
    ConstFloat(f64),
    Null,
    Global(String),
    Func(String),
    Undef(Type),
}

#[derive(Clone, Debug)]
enum PKindOp {
    Kind(InstrKindP),
    Term(TermP),
}

/// Parsed instruction with unresolved operands.
#[derive(Clone, Debug)]
enum InstrKindP {
    Alloca(Type, POp),
    Load(Type, POp),
    Store(Type, POp, POp),
    Gep(Type, POp, Vec<POp>),
    Phi(Type, Vec<(String, POp)>),
    Select(Type, POp, POp, POp),
    Bin(BinOp, Type, POp, POp),
    Icmp(IcmpPred, Type, POp, POp),
    Fcmp(FcmpPred, POp, POp),
    Cast(CastOp, POp, Type, Type),
    Call(String, Vec<POp>, Type),
    CallIndirect(POp, Vec<POp>, Type),
    MemCpy(POp, POp, POp),
    MemSet(POp, POp, POp),
}

#[derive(Clone, Debug)]
enum TermP {
    Ret(Option<POp>),
    Br(String),
    CondBr(POp, String, String),
    Unreachable,
}

impl InstrKindP {
    fn result_type(&self) -> Option<Type> {
        match self {
            InstrKindP::Alloca(..) | InstrKindP::Gep(..) => Some(Type::Ptr),
            InstrKindP::Load(ty, _) => Some(ty.clone()),
            InstrKindP::Store(..) => None,
            InstrKindP::Phi(ty, _) | InstrKindP::Select(ty, ..) => Some(ty.clone()),
            InstrKindP::Bin(_, ty, ..) => Some(ty.clone()),
            InstrKindP::Icmp(..) | InstrKindP::Fcmp(..) => Some(Type::I1),
            InstrKindP::Cast(_, _, _, to) => Some(to.clone()),
            InstrKindP::Call(_, _, ret) | InstrKindP::CallIndirect(_, _, ret) => {
                if *ret == Type::Void {
                    None
                } else {
                    Some(ret.clone())
                }
            }
            InstrKindP::MemCpy(..) | InstrKindP::MemSet(..) => None,
        }
    }
}

/// A parsed block before resolution: label, instructions (result name,
/// kind, source line), terminator.
type PBlock = (String, Vec<(Option<String>, InstrKindP, Option<u32>)>, TermP);

struct Parser<'a> {
    lex: Lexer<'a>,
    peeked: Option<Tok>,
    /// Current type nesting level, bounded by [`MAX_NESTING`].
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Parser<'a> {
        Parser { lex: Lexer::new(src), peeked: None, depth: 0 }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        self.lex.error(message)
    }

    fn next(&mut self) -> Result<Tok, ParseError> {
        match self.peeked.take() {
            Some(t) => Ok(t),
            None => self.lex.next(),
        }
    }

    fn peek(&mut self) -> Result<&Tok, ParseError> {
        if self.peeked.is_none() {
            self.peeked = Some(self.lex.next()?);
        }
        Ok(self.peeked.as_ref().unwrap())
    }

    fn expect(&mut self, tok: Tok) -> Result<(), ParseError> {
        let t = self.next()?;
        if t == tok {
            Ok(())
        } else {
            Err(self.error(format!("expected {tok:?}, found {t:?}")))
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.next()? {
            Tok::Ident(s) => Ok(s),
            t => Err(self.error(format!("expected identifier, found {t:?}"))),
        }
    }

    fn expect_int(&mut self) -> Result<i64, ParseError> {
        match self.next()? {
            Tok::Int(v) => Ok(v),
            t => Err(self.error(format!("expected integer, found {t:?}"))),
        }
    }

    fn eat(&mut self, tok: &Tok) -> Result<bool, ParseError> {
        if self.peek()? == tok {
            self.next()?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Enters one aggregate level of a type. A parse error ends the parse,
    /// so error paths need not restore the count.
    fn enter(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(self.error(format!("type nesting deeper than {MAX_NESTING}")));
        }
        Ok(())
    }

    fn parse_type(&mut self) -> Result<Type, ParseError> {
        match self.next()? {
            Tok::Ident(s) => match s.as_str() {
                "void" => Ok(Type::Void),
                "i1" => Ok(Type::I1),
                "i8" => Ok(Type::I8),
                "i16" => Ok(Type::I16),
                "i32" => Ok(Type::I32),
                "i64" => Ok(Type::I64),
                "f64" => Ok(Type::F64),
                "ptr" => Ok(Type::Ptr),
                other => Err(self.error(format!("unknown type '{other}'"))),
            },
            Tok::LBracket => {
                self.enter()?;
                let n = self.expect_int()?;
                if n < 0 {
                    return Err(self.error("negative array length"));
                }
                let x = self.expect_ident()?;
                if x != "x" {
                    return Err(self.error("expected 'x' in array type"));
                }
                let elem = self.parse_type()?;
                self.expect(Tok::RBracket)?;
                self.depth -= 1;
                Ok(Type::array(elem, n as u64))
            }
            Tok::LBrace => {
                self.enter()?;
                let mut fields = vec![];
                if !self.eat(&Tok::RBrace)? {
                    loop {
                        fields.push(self.parse_type()?);
                        if self.eat(&Tok::RBrace)? {
                            break;
                        }
                        self.expect(Tok::Comma)?;
                    }
                }
                self.depth -= 1;
                Ok(Type::structure(fields))
            }
            t => Err(self.error(format!("expected type, found {t:?}"))),
        }
    }

    fn parse_operand(&mut self) -> Result<POp, ParseError> {
        match self.peek()?.clone() {
            Tok::Local(name) => {
                self.next()?;
                Ok(POp::Local(name))
            }
            Tok::At(name) => {
                self.next()?;
                Ok(POp::Global(name))
            }
            Tok::FuncRef(name) => {
                self.next()?;
                Ok(POp::Func(name))
            }
            Tok::Ident(s) if s == "null" => {
                self.next()?;
                Ok(POp::Null)
            }
            Tok::Ident(s) if s == "undef" => {
                self.next()?;
                let ty = self.parse_type()?;
                Ok(POp::Undef(ty))
            }
            Tok::Ident(s) if s == "f64" => {
                self.next()?;
                let bits = self.expect_int()?;
                Ok(POp::ConstFloat(f64::from_bits(bits as u64)))
            }
            Tok::Ident(_) | Tok::LBracket | Tok::LBrace => {
                let ty = self.parse_type()?;
                let v = self.expect_int()?;
                Ok(POp::ConstInt(ty, v))
            }
            t => Err(self.error(format!("expected operand, found {t:?}"))),
        }
    }

    fn parse_module(mut self) -> Result<Module, ParseError> {
        let mut module = Module::new("parsed");
        loop {
            match self.next()? {
                Tok::Eof => break,
                Tok::Ident(kw) => match kw.as_str() {
                    "module" => match self.next()? {
                        Tok::At(name) => module.name = name,
                        t => return Err(self.error(format!("expected module name, found {t:?}"))),
                    },
                    "source" => match self.next()? {
                        Tok::Str(file) => module.src_file = Some(file),
                        t => {
                            return Err(
                                self.error(format!("expected source file name, found {t:?}"))
                            )
                        }
                    },
                    "checksite" => self.parse_checksite(&mut module)?,
                    "hostdecl" => self.parse_hostdecl(&mut module)?,
                    "global" => self.parse_global(&mut module)?,
                    "define" => self.parse_function(&mut module, false)?,
                    "declare" => self.parse_function(&mut module, true)?,
                    other => {
                        return Err(self.error(format!("unexpected top-level keyword '{other}'")))
                    }
                },
                t => return Err(self.error(format!("unexpected top-level token {t:?}"))),
            }
        }
        Ok(module)
    }

    fn parse_checksite(&mut self, module: &mut Module) -> Result<(), ParseError> {
        use crate::srcloc::{AllocKind, AllocSite, CheckSite, SiteKind};
        let func = match self.next()? {
            Tok::At(n) => n,
            t => return Err(self.error(format!("expected function name, found {t:?}"))),
        };
        let kind = match self.expect_ident()?.as_str() {
            "deref" => SiteKind::Deref,
            "wrapper" => SiteKind::Wrapper,
            "invariant" => SiteKind::Invariant,
            other => return Err(self.error(format!("unknown check-site kind '{other}'"))),
        };
        let is_store = match self.expect_ident()?.as_str() {
            "write" => true,
            "read" => false,
            other => return Err(self.error(format!("expected read/write, found '{other}'"))),
        };
        let mut site = CheckSite { func, kind, is_store, width: None, line: None, alloc: None };
        loop {
            match self.peek()? {
                Tok::Ident(s) if s == "width" => {
                    self.next()?;
                    site.width = Some(self.expect_int()? as u64);
                }
                Tok::Ident(s) if s == "line" => {
                    self.next()?;
                    site.line = Some(self.expect_int()? as u32);
                }
                Tok::Ident(s) if s == "obj" => {
                    self.next()?;
                    let kind = match self.expect_ident()?.as_str() {
                        "heap" => AllocKind::Heap,
                        "stack" => AllocKind::Stack,
                        "global" => AllocKind::Global,
                        other => return Err(self.error(format!("unknown object kind '{other}'"))),
                    };
                    let mut alloc = AllocSite { kind, line: None, name: None, size: None };
                    loop {
                        match self.peek()? {
                            Tok::At(_) => {
                                let Tok::At(name) = self.next()? else { unreachable!() };
                                alloc.name = Some(name);
                            }
                            Tok::Ident(s) if s == "size" => {
                                self.next()?;
                                alloc.size = Some(self.expect_int()? as u64);
                            }
                            Tok::Ident(s) if s == "line" => {
                                self.next()?;
                                alloc.line = Some(self.expect_int()? as u32);
                            }
                            _ => break,
                        }
                    }
                    site.alloc = Some(alloc);
                }
                _ => break,
            }
        }
        module.check_sites.push(site);
        Ok(())
    }

    /// Parses an optional ` !N` source-location suffix after an instruction.
    fn parse_loc_suffix(&mut self) -> Result<Option<u32>, ParseError> {
        if self.eat(&Tok::Bang)? {
            Ok(Some(self.expect_int()? as u32))
        } else {
            Ok(None)
        }
    }

    fn parse_hostdecl(&mut self, module: &mut Module) -> Result<(), ParseError> {
        let ret = self.parse_type()?;
        let name = match self.next()? {
            Tok::At(n) => n,
            t => return Err(self.error(format!("expected host name, found {t:?}"))),
        };
        self.expect(Tok::LParen)?;
        let mut params = vec![];
        if !self.eat(&Tok::RParen)? {
            loop {
                params.push(self.parse_type()?);
                if self.eat(&Tok::RParen)? {
                    break;
                }
                self.expect(Tok::Comma)?;
            }
        }
        let effect = match self.peek()? {
            Tok::Ident(s) if s == "pure" => {
                self.next()?;
                Effect::Pure
            }
            Tok::Ident(s) if s == "readonly" => {
                self.next()?;
                Effect::ReadOnly
            }
            _ => Effect::Effectful,
        };
        module.declare_host(name, HostDecl { params, ret, effect });
        Ok(())
    }

    fn parse_global(&mut self, module: &mut Module) -> Result<(), ParseError> {
        let name = match self.next()? {
            Tok::At(n) => n,
            t => return Err(self.error(format!("expected global name, found {t:?}"))),
        };
        self.expect(Tok::Colon)?;
        let ty = self.parse_type()?;
        self.expect(Tok::Eq)?;
        let init = match self.next()? {
            Tok::Ident(s) if s == "zero" => Init::Zero,
            Tok::Ident(s) if s == "bytes" => {
                self.expect(Tok::LBracket)?;
                let mut bytes = vec![];
                while !self.eat(&Tok::RBracket)? {
                    let v = self.expect_int()?;
                    if !(0..=255).contains(&v) {
                        return Err(self.error("byte out of range"));
                    }
                    bytes.push(v as u8);
                }
                Init::Bytes(bytes)
            }
            t => return Err(self.error(format!("expected initializer, found {t:?}"))),
        };
        let mut attrs = GlobalAttrs::default();
        loop {
            match self.peek()? {
                Tok::Ident(s) if s == "external" => {
                    self.next()?;
                    attrs.external = true;
                }
                Tok::Ident(s) if s == "size_unknown" => {
                    self.next()?;
                    attrs.size_unknown = true;
                }
                Tok::Ident(s) if s == "uninstrumented_lib" => {
                    self.next()?;
                    attrs.uninstrumented_lib = true;
                }
                Tok::Ident(s) if s == "lowfat" => {
                    self.next()?;
                    attrs.lowfat = true;
                }
                _ => break,
            }
        }
        module.add_global(Global { name, ty, init, attrs });
        Ok(())
    }

    fn parse_function(
        &mut self,
        module: &mut Module,
        is_declaration: bool,
    ) -> Result<(), ParseError> {
        let ret_ty = self.parse_type()?;
        let name = match self.next()? {
            Tok::At(n) => n,
            t => return Err(self.error(format!("expected function name, found {t:?}"))),
        };
        self.expect(Tok::LParen)?;
        let mut params = vec![];
        let mut param_names = vec![];
        if !self.eat(&Tok::RParen)? {
            loop {
                let ty = self.parse_type()?;
                let pname = match self.next()? {
                    Tok::Local(n) => n,
                    t => return Err(self.error(format!("expected parameter name, found {t:?}"))),
                };
                params.push(Param { name: pname.clone(), ty });
                param_names.push(pname);
                if self.eat(&Tok::RParen)? {
                    break;
                }
                self.expect(Tok::Comma)?;
            }
        }
        let mut attrs = FnAttrs::default();
        loop {
            match self.peek()? {
                Tok::Ident(s) if s == "uninstrumented" => {
                    self.next()?;
                    attrs.uninstrumented = true;
                }
                Tok::Ident(s) if s == "no_instrument" => {
                    self.next()?;
                    attrs.no_instrument = true;
                }
                _ => break,
            }
        }

        if is_declaration {
            let mut f = Function::declaration(name, params, ret_ty);
            f.attrs = attrs;
            module.add_function(f);
            return Ok(());
        }

        self.expect(Tok::LBrace)?;
        // Parse blocks into intermediate form.
        let mut blocks: Vec<PBlock> = vec![];
        let mut cur_label: Option<String> = None;
        let mut cur_instrs: Vec<(Option<String>, InstrKindP, Option<u32>)> = vec![];
        loop {
            match self.next()? {
                Tok::RBrace => {
                    if cur_label.is_some() {
                        return Err(self.error("block without terminator"));
                    }
                    break;
                }
                Tok::Ident(word) => {
                    // Either a label "name:" or an instruction keyword.
                    if self.peek()? == &Tok::Colon {
                        self.next()?;
                        if cur_label.is_some() {
                            return Err(self.error("previous block missing terminator"));
                        }
                        cur_label = Some(word);
                        cur_instrs = vec![];
                    } else {
                        // No-result instruction or terminator.
                        match self.parse_stmt(&word)? {
                            PKindOp::Kind(k) => {
                                if cur_label.is_none() {
                                    return Err(self.error("instruction outside block"));
                                }
                                let loc = self.parse_loc_suffix()?;
                                cur_instrs.push((None, k, loc));
                            }
                            PKindOp::Term(t) => {
                                let label = cur_label
                                    .take()
                                    .ok_or_else(|| self.error("terminator outside block"))?;
                                blocks.push((label, std::mem::take(&mut cur_instrs), t));
                            }
                        }
                    }
                }
                Tok::Local(result) => {
                    self.expect(Tok::Eq)?;
                    let word = self.expect_ident()?;
                    match self.parse_stmt(&word)? {
                        PKindOp::Kind(k) => {
                            if cur_label.is_none() {
                                return Err(self.error("instruction outside block"));
                            }
                            if k.result_type().is_none() {
                                return Err(self.error("instruction cannot produce a result"));
                            }
                            let loc = self.parse_loc_suffix()?;
                            cur_instrs.push((Some(result), k, loc));
                        }
                        PKindOp::Term(_) => {
                            return Err(self.error("terminator cannot have a result"))
                        }
                    }
                }
                t => return Err(self.error(format!("unexpected token in function body: {t:?}"))),
            }
        }

        // Resolve.
        let mut f = Function::new(name, params, ret_ty);
        f.attrs = attrs;
        f.blocks.clear();
        let mut block_ids: BTreeMap<String, BlockId> = BTreeMap::new();
        for (label, _, _) in &blocks {
            if block_ids.contains_key(label) {
                return Err(self.error(format!("duplicate block label {label}")));
            }
            let id = f.add_block(label.clone());
            block_ids.insert(label.clone(), id);
        }
        if f.blocks.is_empty() {
            return Err(self.error("function definition with no blocks"));
        }

        // Pre-allocate value ids in creation order (params already exist).
        let mut value_ids: BTreeMap<String, ValueId> = BTreeMap::new();
        for (i, pname) in param_names.iter().enumerate() {
            value_ids.insert(pname.clone(), ValueId::new(i));
        }
        let mut next_value = param_names.len();
        for (_, instrs, _) in &blocks {
            for (result, kind, _) in instrs {
                if let Some(rname) = result {
                    if kind.result_type().is_some() {
                        if value_ids.contains_key(rname) {
                            return Err(self.error(format!("duplicate value definition %{rname}")));
                        }
                        value_ids.insert(rname.clone(), ValueId::new(next_value));
                        next_value += 1;
                    }
                }
            }
        }

        let resolve_op = |p: &Parser<'_>, op: &POp| -> Result<Operand, ParseError> {
            Ok(match op {
                POp::Local(n) => Operand::Val(
                    *value_ids.get(n).ok_or_else(|| p.error(format!("unknown value %{n}")))?,
                ),
                POp::ConstInt(ty, v) => Operand::ConstInt { ty: ty.clone(), value: *v },
                POp::ConstFloat(v) => Operand::ConstFloat(*v),
                POp::Null => Operand::Null,
                POp::Global(n) => {
                    if let Some((gid, _)) = module.global_by_name(n) {
                        Operand::GlobalAddr(gid)
                    } else if let Some(idx) =
                        n.strip_prefix('g').and_then(|s| s.parse::<usize>().ok())
                    {
                        if idx >= module.globals.len() {
                            return Err(p.error(format!("global index @{n} out of range")));
                        }
                        Operand::GlobalAddr(GlobalId::new(idx))
                    } else {
                        return Err(p.error(format!("unknown global @{n}")));
                    }
                }
                POp::Func(n) => Operand::FuncAddr(n.clone()),
                POp::Undef(ty) => Operand::Undef(ty.clone()),
            })
        };
        let resolve_block = |p: &Parser<'_>, label: &str| -> Result<BlockId, ParseError> {
            block_ids
                .get(label)
                .copied()
                .ok_or_else(|| p.error(format!("unknown block label {label}")))
        };

        for (bi, (_, instrs, term)) in blocks.iter().enumerate() {
            let bid = BlockId::new(bi);
            for (result, kind, loc) in instrs {
                let real = match kind {
                    InstrKindP::Alloca(ty, count) => {
                        InstrKind::Alloca { ty: ty.clone(), count: resolve_op(self, count)? }
                    }
                    InstrKindP::Load(ty, ptr) => {
                        InstrKind::Load { ty: ty.clone(), ptr: resolve_op(self, ptr)? }
                    }
                    InstrKindP::Store(ty, value, ptr) => InstrKind::Store {
                        ty: ty.clone(),
                        value: resolve_op(self, value)?,
                        ptr: resolve_op(self, ptr)?,
                    },
                    InstrKindP::Gep(ty, base, idxs) => InstrKind::Gep {
                        elem_ty: ty.clone(),
                        base: resolve_op(self, base)?,
                        indices: idxs
                            .iter()
                            .map(|i| resolve_op(self, i))
                            .collect::<Result<_, _>>()?,
                    },
                    InstrKindP::Phi(ty, inc) => InstrKind::Phi {
                        ty: ty.clone(),
                        incoming: inc
                            .iter()
                            .map(|(b, op)| Ok((resolve_block(self, b)?, resolve_op(self, op)?)))
                            .collect::<Result<_, ParseError>>()?,
                    },
                    InstrKindP::Select(ty, c, a, b) => InstrKind::Select {
                        ty: ty.clone(),
                        cond: resolve_op(self, c)?,
                        then_value: resolve_op(self, a)?,
                        else_value: resolve_op(self, b)?,
                    },
                    InstrKindP::Bin(op, ty, a, b) => InstrKind::Bin {
                        op: *op,
                        ty: ty.clone(),
                        lhs: resolve_op(self, a)?,
                        rhs: resolve_op(self, b)?,
                    },
                    InstrKindP::Icmp(pred, ty, a, b) => InstrKind::Icmp {
                        pred: *pred,
                        ty: ty.clone(),
                        lhs: resolve_op(self, a)?,
                        rhs: resolve_op(self, b)?,
                    },
                    InstrKindP::Fcmp(pred, a, b) => InstrKind::Fcmp {
                        pred: *pred,
                        lhs: resolve_op(self, a)?,
                        rhs: resolve_op(self, b)?,
                    },
                    InstrKindP::Cast(op, v, from, to) => InstrKind::Cast {
                        op: *op,
                        value: resolve_op(self, v)?,
                        from: from.clone(),
                        to: to.clone(),
                    },
                    InstrKindP::Call(callee, args, ret) => InstrKind::Call {
                        callee: callee.clone(),
                        args: args.iter().map(|a| resolve_op(self, a)).collect::<Result<_, _>>()?,
                        ret: ret.clone(),
                    },
                    InstrKindP::CallIndirect(callee, args, ret) => InstrKind::CallIndirect {
                        callee: resolve_op(self, callee)?,
                        args: args.iter().map(|a| resolve_op(self, a)).collect::<Result<_, _>>()?,
                        ret: ret.clone(),
                    },
                    InstrKindP::MemCpy(d, s, l) => InstrKind::MemCpy {
                        dst: resolve_op(self, d)?,
                        src: resolve_op(self, s)?,
                        len: resolve_op(self, l)?,
                    },
                    InstrKindP::MemSet(d, b, l) => InstrKind::MemSet {
                        dst: resolve_op(self, d)?,
                        byte: resolve_op(self, b)?,
                        len: resolve_op(self, l)?,
                    },
                };
                let iid = f.push_instr(bid, real);
                f.set_instr_loc(iid, loc.map(crate::srcloc::SrcLoc::line));
                if let (Some(rname), Some(rv)) = (result, f.instr_result(iid)) {
                    debug_assert_eq!(value_ids.get(rname), Some(&rv), "value numbering drift");
                }
            }
            f.blocks[bi].term = match term {
                TermP::Ret(None) => Terminator::Ret(None),
                TermP::Ret(Some(op)) => Terminator::Ret(Some(resolve_op(self, op)?)),
                TermP::Br(label) => Terminator::Br(resolve_block(self, label)?),
                TermP::CondBr(c, a, b) => Terminator::CondBr {
                    cond: resolve_op(self, c)?,
                    then_bb: resolve_block(self, a)?,
                    else_bb: resolve_block(self, b)?,
                },
                TermP::Unreachable => Terminator::Unreachable,
            };
        }
        module.add_function(f);
        Ok(())
    }

    fn parse_stmt(&mut self, word: &str) -> Result<PKindOp, ParseError> {
        let binop = |s: &str| -> Option<BinOp> {
            Some(match s {
                "add" => BinOp::Add,
                "sub" => BinOp::Sub,
                "mul" => BinOp::Mul,
                "sdiv" => BinOp::SDiv,
                "udiv" => BinOp::UDiv,
                "srem" => BinOp::SRem,
                "urem" => BinOp::URem,
                "and" => BinOp::And,
                "or" => BinOp::Or,
                "xor" => BinOp::Xor,
                "shl" => BinOp::Shl,
                "lshr" => BinOp::LShr,
                "ashr" => BinOp::AShr,
                "fadd" => BinOp::FAdd,
                "fsub" => BinOp::FSub,
                "fmul" => BinOp::FMul,
                "fdiv" => BinOp::FDiv,
                _ => return None,
            })
        };
        let castop = |s: &str| -> Option<CastOp> {
            Some(match s {
                "zext" => CastOp::Zext,
                "sext" => CastOp::Sext,
                "trunc" => CastOp::Trunc,
                "ptrtoint" => CastOp::PtrToInt,
                "inttoptr" => CastOp::IntToPtr,
                "bitcast" => CastOp::Bitcast,
                "sitofp" => CastOp::SiToFp,
                "fptosi" => CastOp::FpToSi,
                _ => return None,
            })
        };

        if let Some(op) = binop(word) {
            let ty = self.parse_type()?;
            self.expect(Tok::Comma)?;
            let a = self.parse_operand()?;
            self.expect(Tok::Comma)?;
            let b = self.parse_operand()?;
            return Ok(PKindOp::Kind(InstrKindP::Bin(op, ty, a, b)));
        }
        if let Some(op) = castop(word) {
            let v = self.parse_operand()?;
            self.expect(Tok::Comma)?;
            let from = self.parse_type()?;
            let to_kw = self.expect_ident()?;
            if to_kw != "to" {
                return Err(self.error("expected 'to' in cast"));
            }
            let to = self.parse_type()?;
            return Ok(PKindOp::Kind(InstrKindP::Cast(op, v, from, to)));
        }

        match word {
            "alloca" => {
                let ty = self.parse_type()?;
                self.expect(Tok::Comma)?;
                let count = self.parse_operand()?;
                Ok(PKindOp::Kind(InstrKindP::Alloca(ty, count)))
            }
            "load" => {
                let ty = self.parse_type()?;
                self.expect(Tok::Comma)?;
                let ptr = self.parse_operand()?;
                Ok(PKindOp::Kind(InstrKindP::Load(ty, ptr)))
            }
            "store" => {
                let ty = self.parse_type()?;
                self.expect(Tok::Comma)?;
                let value = self.parse_operand()?;
                self.expect(Tok::Comma)?;
                let ptr = self.parse_operand()?;
                Ok(PKindOp::Kind(InstrKindP::Store(ty, value, ptr)))
            }
            "gep" => {
                let ty = self.parse_type()?;
                self.expect(Tok::Comma)?;
                let base = self.parse_operand()?;
                self.expect(Tok::Comma)?;
                self.expect(Tok::LBracket)?;
                let mut idxs = vec![];
                if !self.eat(&Tok::RBracket)? {
                    loop {
                        idxs.push(self.parse_operand()?);
                        if self.eat(&Tok::RBracket)? {
                            break;
                        }
                        self.expect(Tok::Comma)?;
                    }
                }
                Ok(PKindOp::Kind(InstrKindP::Gep(ty, base, idxs)))
            }
            "phi" => {
                let ty = self.parse_type()?;
                self.expect(Tok::Comma)?;
                let mut incoming = vec![];
                loop {
                    self.expect(Tok::LBracket)?;
                    let label = self.expect_ident()?;
                    self.expect(Tok::Colon)?;
                    let op = self.parse_operand()?;
                    self.expect(Tok::RBracket)?;
                    incoming.push((label, op));
                    if !self.eat(&Tok::Comma)? {
                        break;
                    }
                }
                Ok(PKindOp::Kind(InstrKindP::Phi(ty, incoming)))
            }
            "select" => {
                let ty = self.parse_type()?;
                self.expect(Tok::Comma)?;
                let c = self.parse_operand()?;
                self.expect(Tok::Comma)?;
                let a = self.parse_operand()?;
                self.expect(Tok::Comma)?;
                let b = self.parse_operand()?;
                Ok(PKindOp::Kind(InstrKindP::Select(ty, c, a, b)))
            }
            "icmp" => {
                let pred = match self.expect_ident()?.as_str() {
                    "eq" => IcmpPred::Eq,
                    "ne" => IcmpPred::Ne,
                    "slt" => IcmpPred::Slt,
                    "sle" => IcmpPred::Sle,
                    "sgt" => IcmpPred::Sgt,
                    "sge" => IcmpPred::Sge,
                    "ult" => IcmpPred::Ult,
                    "ule" => IcmpPred::Ule,
                    "ugt" => IcmpPred::Ugt,
                    "uge" => IcmpPred::Uge,
                    p => return Err(self.error(format!("unknown icmp predicate '{p}'"))),
                };
                let ty = self.parse_type()?;
                self.expect(Tok::Comma)?;
                let a = self.parse_operand()?;
                self.expect(Tok::Comma)?;
                let b = self.parse_operand()?;
                Ok(PKindOp::Kind(InstrKindP::Icmp(pred, ty, a, b)))
            }
            "fcmp" => {
                let pred = match self.expect_ident()?.as_str() {
                    "oeq" => FcmpPred::Oeq,
                    "one" => FcmpPred::One,
                    "olt" => FcmpPred::Olt,
                    "ole" => FcmpPred::Ole,
                    "ogt" => FcmpPred::Ogt,
                    "oge" => FcmpPred::Oge,
                    p => return Err(self.error(format!("unknown fcmp predicate '{p}'"))),
                };
                let a = self.parse_operand()?;
                self.expect(Tok::Comma)?;
                let b = self.parse_operand()?;
                Ok(PKindOp::Kind(InstrKindP::Fcmp(pred, a, b)))
            }
            "call" => {
                let ret = self.parse_type()?;
                let callee = match self.next()? {
                    Tok::At(n) => n,
                    t => return Err(self.error(format!("expected callee, found {t:?}"))),
                };
                self.expect(Tok::LParen)?;
                let mut args = vec![];
                if !self.eat(&Tok::RParen)? {
                    loop {
                        args.push(self.parse_operand()?);
                        if self.eat(&Tok::RParen)? {
                            break;
                        }
                        self.expect(Tok::Comma)?;
                    }
                }
                Ok(PKindOp::Kind(InstrKindP::Call(callee, args, ret)))
            }
            "call_indirect" => {
                let ret = self.parse_type()?;
                let callee = self.parse_operand()?;
                self.expect(Tok::LParen)?;
                let mut args = vec![];
                if !self.eat(&Tok::RParen)? {
                    loop {
                        args.push(self.parse_operand()?);
                        if self.eat(&Tok::RParen)? {
                            break;
                        }
                        self.expect(Tok::Comma)?;
                    }
                }
                Ok(PKindOp::Kind(InstrKindP::CallIndirect(callee, args, ret)))
            }
            "memcpy" => {
                let d = self.parse_operand()?;
                self.expect(Tok::Comma)?;
                let s = self.parse_operand()?;
                self.expect(Tok::Comma)?;
                let l = self.parse_operand()?;
                Ok(PKindOp::Kind(InstrKindP::MemCpy(d, s, l)))
            }
            "memset" => {
                let d = self.parse_operand()?;
                self.expect(Tok::Comma)?;
                let b = self.parse_operand()?;
                self.expect(Tok::Comma)?;
                let l = self.parse_operand()?;
                Ok(PKindOp::Kind(InstrKindP::MemSet(d, b, l)))
            }
            "ret" => {
                // A value follows unless the next token starts a new statement.
                let has_value = matches!(
                    self.peek()?,
                    Tok::Local(_) | Tok::At(_) | Tok::FuncRef(_) | Tok::LBracket | Tok::LBrace
                ) || matches!(self.peek()?, Tok::Ident(s) if is_operand_start(s));
                if has_value {
                    let op = self.parse_operand()?;
                    Ok(PKindOp::Term(TermP::Ret(Some(op))))
                } else {
                    Ok(PKindOp::Term(TermP::Ret(None)))
                }
            }
            "br" => {
                let label = self.expect_ident()?;
                Ok(PKindOp::Term(TermP::Br(label)))
            }
            "condbr" => {
                let c = self.parse_operand()?;
                self.expect(Tok::Comma)?;
                let a = self.expect_ident()?;
                self.expect(Tok::Comma)?;
                let b = self.expect_ident()?;
                Ok(PKindOp::Term(TermP::CondBr(c, a, b)))
            }
            "unreachable" => Ok(PKindOp::Term(TermP::Unreachable)),
            other => Err(self.error(format!("unknown instruction '{other}'"))),
        }
    }
}

fn is_operand_start(ident: &str) -> bool {
    matches!(ident, "null" | "undef" | "i1" | "i8" | "i16" | "i32" | "i64" | "f64")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::print_module;
    use crate::verifier::verify_module;

    /// A global whose type nests `depth` levels of `[1 x ...]` (or of
    /// `{...}` when `structs`) around `i8`.
    fn nested_global(depth: usize, structs: bool) -> String {
        let (open, close) = if structs { ("{", "}") } else { ("[1 x ", "]") };
        format!("global @g : {}i8{} = zero\n", open.repeat(depth), close.repeat(depth))
    }

    #[test]
    fn type_nesting_is_bounded() {
        for structs in [false, true] {
            let m = parse_module(&nested_global(MAX_NESTING, structs)).unwrap();
            assert_eq!(m.globals[0].ty.size_of(), 1);
            for depth in [MAX_NESTING + 1, 100_000] {
                let e = parse_module(&nested_global(depth, structs)).unwrap_err();
                assert_eq!(e.line, 1);
                assert_eq!(e.message, format!("type nesting deeper than {MAX_NESTING}"));
            }
        }
    }

    #[test]
    fn parses_minimal_function() {
        let src = r#"
            define i64 @main() {
            entry:
              ret i64 42
            }
        "#;
        let m = parse_module(src).unwrap();
        assert!(verify_module(&m).is_ok());
        let (_, f) = m.function_by_name("main").unwrap();
        assert_eq!(f.blocks.len(), 1);
    }

    #[test]
    fn parses_arithmetic_and_memory() {
        let src = r#"
            define i64 @f(i64 %x) {
            entry:
              %p = alloca i64, i64 1
              store i64, %x, %p
              %y = load i64, %p
              %z = add i64, %y, i64 5
              ret %z
            }
        "#;
        let m = parse_module(src).unwrap();
        assert!(verify_module(&m).is_ok());
    }

    #[test]
    fn parses_control_flow_with_phi() {
        let src = r#"
            define i64 @f(i1 %c) {
            entry:
              condbr %c, then, else
            then:
              br join
            else:
              br join
            join:
              %v = phi i64, [then: i64 1], [else: i64 2]
              ret %v
            }
        "#;
        let m = parse_module(src).unwrap();
        assert!(verify_module(&m).is_ok());
    }

    #[test]
    fn parses_back_edge_phi_forward_ref() {
        let src = r#"
            define i64 @count(i64 %n) {
            entry:
              br header
            header:
              %i = phi i64, [entry: i64 0], [body: %next]
              %c = icmp slt i64, %i, %n
              condbr %c, body, exit
            body:
              %next = add i64, %i, i64 1
              br header
            exit:
              ret %i
            }
        "#;
        let m = parse_module(src).unwrap();
        assert!(verify_module(&m).is_ok());
    }

    #[test]
    fn parses_globals_and_hostdecls() {
        let src = r#"
            hostdecl void @print_i64(i64)
            hostdecl i64 @pure_thing(i64) pure
            global @buf : [16 x i8] = zero
            global @ext_arr : [0 x i32] = zero external size_unknown
            define void @main() {
            entry:
              %p = gep i8, @buf, [i64 3]
              store i8, i8 7, %p
              call void @print_i64(i64 1)
              ret
            }
        "#;
        let m = parse_module(src).unwrap();
        assert!(verify_module(&m).is_ok());
        assert_eq!(m.host_decls["pure_thing"].effect, Effect::Pure);
        let (_, g) = m.global_by_name("ext_arr").unwrap();
        assert!(g.attrs.size_unknown);
    }

    #[test]
    fn roundtrip_is_idempotent() {
        let src = r#"
            hostdecl void @sink(ptr) readonly
            global @data : [8 x i64] = zero
            define i64 @f(i64 %n, ptr %p) {
            entry:
              %a = alloca [4 x i32], i64 1
              %q = gep i32, %a, [i64 2]
              store i32, i32 9, %q
              %i = ptrtoint %p, ptr to i64
              %r = inttoptr %i, i64 to ptr
              call void @sink(%r)
              %c = icmp sgt i64, %n, i64 0
              condbr %c, pos, neg
            pos:
              ret i64 1
            neg:
              %f1 = sitofp %n, i64 to f64
              %f2 = fmul f64, %f1, %f1
              %b = fcmp olt %f2, f64 100
              %s = select i64, %b, i64 5, i64 6
              ret %s
            }
        "#;
        let m1 = parse_module(src).unwrap();
        verify_module(&m1).unwrap();
        let t1 = print_module(&m1);
        let m2 = parse_module(&t1).unwrap();
        verify_module(&m2).unwrap();
        let t2 = print_module(&m2);
        assert_eq!(t1, t2);
    }

    #[test]
    fn roundtrips_provenance() {
        let src = r#"
            module @prov
            source "dir/prog.c"
            checksite @main deref write width 8 line 12 obj heap size 40 line 7
            checksite @main wrapper read line 3 obj global @buf size 16
            checksite @f invariant write
            global @buf : [16 x i8] = zero
            define i64 @main() {
            entry:
              %p = alloca i64, i64 1 !7
              store i64, i64 5, %p !12
              %x = load i64, %p
              ret %x
            }
        "#;
        let m1 = parse_module(src).unwrap();
        assert_eq!(m1.src_file.as_deref(), Some("dir/prog.c"));
        assert_eq!(m1.check_sites.len(), 3);
        assert_eq!(m1.check_sites[0].width, Some(8));
        assert_eq!(m1.check_sites[0].alloc.as_ref().unwrap().size, Some(40));
        assert_eq!(m1.check_sites[1].alloc.as_ref().unwrap().name.as_deref(), Some("buf"));
        let (_, f) = m1.function_by_name("main").unwrap();
        assert_eq!(f.instrs[0].loc, Some(crate::srcloc::SrcLoc::line(7)));
        assert_eq!(f.instrs[1].loc, Some(crate::srcloc::SrcLoc::line(12)));
        assert_eq!(f.instrs[2].loc, None);
        let t1 = print_module(&m1);
        let m2 = parse_module(&t1).unwrap();
        let t2 = print_module(&m2);
        assert_eq!(t1, t2);
    }

    #[test]
    fn error_reports_line() {
        let src = "define i64 @f() {\nentry:\n  %x = bogus i64\n  ret i64 0\n}\n";
        let err = parse_module(src).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("bogus"));
    }

    #[test]
    fn rejects_unknown_value() {
        let src = "define i64 @f() {\nentry:\n  ret %nope\n}\n";
        let err = parse_module(src).unwrap_err();
        assert!(err.message.contains("unknown value"));
    }

    #[test]
    fn parses_float_literals_bit_exact() {
        let pi = std::f64::consts::PI;
        let src = format!(
            "define f64 @f() {{\nentry:\n  %x = fadd f64, f64 0x{:016x}, f64 0x{:016x}\n  ret %x\n}}\n",
            pi.to_bits(),
            1.0f64.to_bits()
        );
        let m = parse_module(&src).unwrap();
        let (_, f) = m.function_by_name("f").unwrap();
        let InstrKind::Bin { lhs, .. } = &f.instrs[0].kind else { panic!() };
        assert_eq!(lhs, &Operand::ConstFloat(pi));
    }

    #[test]
    fn parses_declarations() {
        let src = "declare ptr @ext_alloc(i64 %sz) uninstrumented\n";
        let m = parse_module(src).unwrap();
        let (_, f) = m.function_by_name("ext_alloc").unwrap();
        assert!(f.is_declaration);
        assert!(f.attrs.uninstrumented);
    }
}
