//! Recursive-descent parser for the Cuneiform-style DSL.
//!
//! Grammar (keywords are contextual identifiers):
//!
//! ```text
//! program  := item*
//! item     := deftask | defun | let | target
//! deftask  := "deftask" IDENT "(" outdecl ("," outdecl)* ":" IDENT* ")" attr* ";"
//! outdecl  := "out" "(" STRING "," expr ")"
//! attr     := "cpu" expr | "threads" NUM | "mem" NUM | "scratch" expr
//!           | "yield" expr
//! defun    := "defun" IDENT "(" IDENT ("," IDENT)* ")" "=" expr ";"
//! let      := "let" IDENT "=" expr ";"
//! target   := "target" expr ";"
//! expr     := "if" expr "then" expr "else" expr
//!           | "let" IDENT "=" expr ";" expr
//!           | postfix
//! postfix  := primary ( "(" (expr ("," expr)*)? ")" )?
//! primary  := STRING | NUM | IDENT | "[" (expr ("," expr)*)? "]" | "(" expr ")"
//! ```

use crate::ir::LangError;

use super::ast::{Expr, FunDef, Item, OutputDecl, Param, Program, TaskDef};
use super::lexer::{tokenize, Token, TokenKind};

/// Deepest expression nesting the parser accepts. The descent recurses
/// once per level, so an unbounded depth would overflow the stack.
const MAX_NESTING: usize = 128;

/// Parses a complete program.
pub fn parse_program(src: &str) -> Result<Program, LangError> {
    let tokens = tokenize(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let mut items = Vec::new();
    while !p.at_eof() {
        items.push(p.item()?);
    }
    Ok(Program { items })
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Nesting depth of the `expr` currently being parsed.
    depth: usize,
}

impl Parser {
    fn err(&self, msg: impl Into<String>) -> LangError {
        let line = self.tokens[self.pos.min(self.tokens.len() - 1)].line;
        LangError::new("cuneiform", format!("line {line}: {}", msg.into()))
    }

    /// Error attributed to the token just consumed (for post-`bump` paths).
    fn err_prev(&self, msg: impl Into<String>) -> LangError {
        let line = self.tokens[self.pos.saturating_sub(1)].line;
        LangError::new("cuneiform", format!("line {line}: {}", msg.into()))
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), TokenKind::Eof)
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if !matches!(t, TokenKind::Eof) {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<(), LangError> {
        if self.peek() == kind {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, LangError> {
        match self.bump() {
            TokenKind::Ident(s) => Ok(s),
            other => Err(self.err_prev(format!("expected {what}, found {other:?}"))),
        }
    }

    /// Peeks whether the next token is the contextual keyword `kw`.
    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Ident(s) if s == kw)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn item(&mut self) -> Result<Item, LangError> {
        if self.eat_keyword("deftask") {
            return self.deftask();
        }
        if self.eat_keyword("defun") {
            return self.defun();
        }
        if self.eat_keyword("let") {
            let name = self.ident("binding name")?;
            self.expect(&TokenKind::Equals, "'='")?;
            let value = self.expr()?;
            self.expect(&TokenKind::Semi, "';'")?;
            return Ok(Item::Let { name, value });
        }
        if self.eat_keyword("target") {
            let e = self.expr()?;
            self.expect(&TokenKind::Semi, "';'")?;
            return Ok(Item::Target(e));
        }
        Err(self.err(format!(
            "expected 'deftask', 'defun', 'let', or 'target', found {:?}",
            self.peek()
        )))
    }

    fn deftask(&mut self) -> Result<Item, LangError> {
        let name = self.ident("task name")?;
        self.expect(&TokenKind::LParen, "'('")?;
        let mut outputs = Vec::new();
        loop {
            if !self.eat_keyword("out") {
                return Err(self.err("expected 'out(...)' output declaration"));
            }
            self.expect(&TokenKind::LParen, "'('")?;
            let template = match self.bump() {
                TokenKind::Str(s) => s,
                other => {
                    return Err(
                        self.err(format!("expected output template string, found {other:?}"))
                    )
                }
            };
            self.expect(&TokenKind::Comma, "','")?;
            let size = self.expr()?;
            self.expect(&TokenKind::RParen, "')'")?;
            outputs.push(OutputDecl { template, size });
            if !matches!(self.peek(), TokenKind::Comma) {
                break;
            }
            self.bump();
        }
        self.expect(&TokenKind::Colon, "':' between outputs and parameters")?;
        let mut params = Vec::new();
        loop {
            match self.peek() {
                TokenKind::Ident(_) => params.push(Param {
                    name: self.ident("parameter")?,
                    aggregate: false,
                }),
                TokenKind::LBracket => {
                    self.bump();
                    let name = self.ident("aggregate parameter")?;
                    self.expect(&TokenKind::RBracket, "']'")?;
                    params.push(Param {
                        name,
                        aggregate: true,
                    });
                }
                _ => break,
            }
        }
        self.expect(&TokenKind::RParen, "')'")?;

        let mut cpu = Expr::Num(1.0);
        let mut threads = 1u32;
        let mut memory_mb = 512u64;
        let mut scratch = None;
        let mut yields = None;
        loop {
            if self.eat_keyword("cpu") {
                cpu = self.expr()?;
            } else if self.eat_keyword("threads") {
                threads = self.number()? as u32;
            } else if self.eat_keyword("mem") {
                memory_mb = self.number()? as u64;
            } else if self.eat_keyword("scratch") {
                scratch = Some(self.expr()?);
            } else if self.eat_keyword("yield") {
                yields = Some(self.expr()?);
            } else {
                break;
            }
        }
        self.expect(&TokenKind::Semi, "';'")?;
        Ok(Item::Deftask(TaskDef {
            name,
            outputs,
            params,
            cpu,
            threads,
            memory_mb,
            scratch,
            yields,
        }))
    }

    fn number(&mut self) -> Result<f64, LangError> {
        match self.bump() {
            TokenKind::Num(n) => Ok(n),
            other => Err(self.err_prev(format!("expected a number, found {other:?}"))),
        }
    }

    fn defun(&mut self) -> Result<Item, LangError> {
        let name = self.ident("function name")?;
        self.expect(&TokenKind::LParen, "'('")?;
        let mut params = Vec::new();
        if !matches!(self.peek(), TokenKind::RParen) {
            loop {
                params.push(self.ident("parameter")?);
                if matches!(self.peek(), TokenKind::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen, "')'")?;
        self.expect(&TokenKind::Equals, "'='")?;
        let body = self.expr()?;
        self.expect(&TokenKind::Semi, "';'")?;
        Ok(Item::Defun(FunDef { name, params, body }))
    }

    fn expr(&mut self) -> Result<Expr, LangError> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format!(
                "expression nested more than {MAX_NESTING} levels deep"
            )));
        }
        self.depth += 1;
        let e = self.expr_inner();
        self.depth -= 1;
        e
    }

    fn expr_inner(&mut self) -> Result<Expr, LangError> {
        if self.eat_keyword("if") {
            let cond = self.expr()?;
            if !self.eat_keyword("then") {
                return Err(self.err("expected 'then'"));
            }
            let then = self.expr()?;
            if !self.eat_keyword("else") {
                return Err(self.err("expected 'else'"));
            }
            let otherwise = self.expr()?;
            return Ok(Expr::If {
                cond: Box::new(cond),
                then: Box::new(then),
                otherwise: Box::new(otherwise),
            });
        }
        if self.at_keyword("let") {
            // let-in: "let x = e; body"
            self.bump();
            let name = self.ident("binding name")?;
            self.expect(&TokenKind::Equals, "'='")?;
            let value = self.expr()?;
            self.expect(&TokenKind::Semi, "';'")?;
            let body = self.expr()?;
            return Ok(Expr::LetIn {
                name,
                value: Box::new(value),
                body: Box::new(body),
            });
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr, LangError> {
        let primary = self.primary()?;
        if matches!(self.peek(), TokenKind::LParen) {
            let name = match primary {
                Expr::Var(name) => name,
                other => return Err(self.err(format!("cannot call {other:?}"))),
            };
            self.bump();
            let mut args = Vec::new();
            if !matches!(self.peek(), TokenKind::RParen) {
                loop {
                    args.push(self.expr()?);
                    if matches!(self.peek(), TokenKind::Comma) {
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
            self.expect(&TokenKind::RParen, "')'")?;
            return Ok(Expr::Call { name, args });
        }
        Ok(primary)
    }

    fn primary(&mut self) -> Result<Expr, LangError> {
        match self.bump() {
            TokenKind::Num(n) => Ok(Expr::Num(n)),
            TokenKind::Str(s) => Ok(Expr::Str(s)),
            TokenKind::Ident(name) => Ok(Expr::Var(name)),
            TokenKind::LBracket => {
                let mut items = Vec::new();
                if !matches!(self.peek(), TokenKind::RBracket) {
                    loop {
                        items.push(self.expr()?);
                        if matches!(self.peek(), TokenKind::Comma) {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
                self.expect(&TokenKind::RBracket, "']'")?;
                Ok(Expr::List(items))
            }
            TokenKind::LParen => {
                let e = self.expr()?;
                self.expect(&TokenKind::RParen, "')'")?;
                Ok(e)
            }
            other => Err(self.err_prev(format!("unexpected token {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_deftask() {
        let p = parse_program(
            r#"deftask align( out("a_{1}.sam", mul(insize(r), 2)) : r ref )
                 cpu 100 threads 8 mem 4000 yield 1;"#,
        )
        .unwrap();
        assert_eq!(p.items.len(), 1);
        match &p.items[0] {
            Item::Deftask(t) => {
                assert_eq!(t.name, "align");
                let names: Vec<&str> = t.params.iter().map(|p| p.name.as_str()).collect();
                assert_eq!(names, vec!["r", "ref"]);
                assert!(t.params.iter().all(|p| !p.aggregate));
                assert_eq!(t.threads, 8);
                assert_eq!(t.memory_mb, 4000);
                assert!(t.yields.is_some());
                assert_eq!(t.outputs.len(), 1);
                assert_eq!(t.outputs[0].template, "a_{1}.sam");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_let_list_and_call() {
        let p = parse_program(r#"let xs = [f("a"), f("b")]; target g(xs, 3);"#).unwrap();
        assert_eq!(p.items.len(), 2);
        assert!(
            matches!(&p.items[1], Item::Target(Expr::Call { name, args })
            if name == "g" && args.len() == 2)
        );
    }

    #[test]
    fn parse_if_and_letin() {
        let p = parse_program(
            r#"defun iter(x, i) = let y = step(x, i); if lt(val(y), 10) then iter(y, val(y)) else y;"#,
        )
        .unwrap();
        match &p.items[0] {
            Item::Defun(f) => {
                assert_eq!(f.params, vec!["x", "i"]);
                assert!(matches!(&f.body, Expr::LetIn { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn target_defaults_to_last_let() {
        let p = parse_program("let a = 1; let b = 2;").unwrap();
        assert_eq!(p.target(), Some(Expr::Var("b".into())));
        let p2 = parse_program("let a = 1; target a;").unwrap();
        assert_eq!(p2.target(), Some(Expr::Var("a".into())));
        let p3 = parse_program("deftask t(out(\"x\",1):);").unwrap();
        assert_eq!(p3.target(), None);
    }

    #[test]
    fn parse_errors_have_line_numbers() {
        let err = parse_program("let x = ;\n").unwrap_err();
        assert!(err.message.contains("line 1"), "{}", err.message);
        let err = parse_program("let a = 1;\nbogus b;").unwrap_err();
        assert!(err.message.contains("line 2"), "{}", err.message);
    }

    #[test]
    fn deftask_without_params_or_attrs() {
        let p = parse_program(r#"deftask gen( out("seed.dat", 100) : );"#).unwrap();
        match &p.items[0] {
            Item::Deftask(t) => {
                assert!(t.params.is_empty());
                assert_eq!(t.threads, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nested_parens() {
        let p = parse_program("target add((1), mul(2, 3));").unwrap();
        assert!(matches!(&p.items[0], Item::Target(Expr::Call { .. })));
    }

    #[test]
    fn nesting_limit_is_exact() {
        let nested = |n: usize| format!("target {}1{};", "[".repeat(n), "]".repeat(n));
        // The target expression is one level, each bracket one more.
        assert!(parse_program(&nested(MAX_NESTING - 1)).is_ok());
        let err = parse_program(&nested(MAX_NESTING)).unwrap_err();
        assert!(err.message.contains("more than 128"), "{}", err.message);
    }
}
