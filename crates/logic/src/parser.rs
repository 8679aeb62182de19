//! A recursive-descent parser for temporal formulas.
//!
//! Grammar (loosest binding first):
//!
//! ```text
//! formula ::= iff
//! iff     ::= implies ('<->' implies)*
//! implies ::= or ('->' implies)?            // right associative
//! or      ::= and ('|' and)*
//! and     ::= binary ('&' binary)*
//! binary  ::= unary (('U'|'W'|'S'|'B') unary)*   // left associative
//! unary   ::= ('!'|'X'|'F'|'G'|'Y'|'Z'|'O'|'H')* primary
//! primary ::= 'true' | 'false' | 'first' | ident | '(' formula ')'
//! ```
//!
//! Identifiers name propositions (valuation alphabets) or letters (plain
//! alphabets). The single-letter operator names `U W S B X F G Y Z O H` are
//! reserved; `first` denotes the paper's initial-position formula `¬⊖T`.
//!
//! Nesting is capped at [`MAX_DEPTH`] levels, so hostile input gets a
//! [`ParseError`] instead of overflowing the stack of the parser or of
//! any later pass over the formula tree.

use crate::ast::Formula;
use hierarchy_automata::alphabet::Alphabet;
use std::fmt;

/// The deepest nesting [`parse`] accepts. A parenthesis, a unary
/// operator, and each further operand of a binary chain (which builds a
/// left-deep tree) count one level each. Every later pass over a formula
/// (negation normal form, canonicalization, the tester) recurses over its
/// tree, so the cap bounds their stack use too.
pub const MAX_DEPTH: usize = 256;

/// A formula syntax error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Token index where the problem occurred.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "formula error at token {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Not,
    And,
    Or,
    Implies,
    Iff,
    LParen,
    RParen,
}

fn tokenize(input: &str) -> Result<Vec<Token>, ParseError> {
    let mut out = Vec::new();
    let chars: Vec<char> = input.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '!' | '¬' => {
                out.push(Token::Not);
                i += 1;
            }
            '&' | '∧' => {
                out.push(Token::And);
                i += 1;
                if chars.get(i) == Some(&'&') {
                    i += 1;
                }
            }
            '|' | '∨' => {
                out.push(Token::Or);
                i += 1;
                if chars.get(i) == Some(&'|') {
                    i += 1;
                }
            }
            '-' | '=' => {
                if chars.get(i + 1) == Some(&'>') {
                    out.push(Token::Implies);
                    i += 2;
                } else {
                    return Err(ParseError {
                        position: out.len(),
                        message: format!("unexpected character {c:?}"),
                    });
                }
            }
            '<' => {
                if chars.get(i + 1) == Some(&'-') && chars.get(i + 2) == Some(&'>') {
                    out.push(Token::Iff);
                    i += 3;
                } else {
                    return Err(ParseError {
                        position: out.len(),
                        message: "expected '<->'".to_string(),
                    });
                }
            }
            '(' => {
                out.push(Token::LParen);
                i += 1;
            }
            ')' => {
                out.push(Token::RParen);
                i += 1;
            }
            c if c.is_alphanumeric() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                out.push(Token::Ident(chars[start..i].iter().collect()));
            }
            other => {
                return Err(ParseError {
                    position: out.len(),
                    message: format!("unexpected character {other:?}"),
                })
            }
        }
    }
    Ok(out)
}

/// Parses a formula over the given alphabet.
///
/// # Errors
///
/// Returns a [`ParseError`] on bad syntax or atoms not in the alphabet.
pub fn parse(alphabet: &Alphabet, input: &str) -> Result<Formula, ParseError> {
    let tokens = tokenize(input)?;
    let mut p = P {
        alphabet,
        tokens: &tokens,
        pos: 0,
        depth: 0,
    };
    let f = p.iff()?;
    if p.pos != tokens.len() {
        return Err(ParseError {
            position: p.pos,
            message: format!("unexpected trailing input: {:?}", tokens[p.pos]),
        });
    }
    Ok(f)
}

struct P<'a> {
    alphabet: &'a Alphabet,
    tokens: &'a [Token],
    pos: usize,
    /// Nesting levels entered so far (see [`MAX_DEPTH`]).
    depth: usize,
}

const UNARY_OPS: [&str; 8] = ["X", "F", "G", "Y", "Z", "O", "H", "N"];
const BINARY_OPS: [&str; 4] = ["U", "W", "S", "B"];

impl P<'_> {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            position: self.pos,
            message: message.into(),
        }
    }

    /// Enters one nesting level, failing past [`MAX_DEPTH`]. Callers
    /// restore `self.depth` when they return.
    fn descend(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(format!("formula nested deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    fn iff(&mut self) -> Result<Formula, ParseError> {
        let depth = self.depth;
        let mut left = self.implies()?;
        while self.peek() == Some(&Token::Iff) {
            self.pos += 1;
            self.descend()?;
            let right = self.implies()?;
            left = left.clone().implies(right.clone()).and(right.implies(left));
        }
        self.depth = depth;
        Ok(left)
    }

    fn implies(&mut self) -> Result<Formula, ParseError> {
        let left = self.or()?;
        if self.peek() == Some(&Token::Implies) {
            self.pos += 1;
            self.descend()?;
            let right = self.implies()?;
            self.depth -= 1;
            return Ok(left.implies(right));
        }
        Ok(left)
    }

    fn or(&mut self) -> Result<Formula, ParseError> {
        let depth = self.depth;
        let mut left = self.and()?;
        while self.peek() == Some(&Token::Or) {
            self.pos += 1;
            self.descend()?;
            left = left.or(self.and()?);
        }
        self.depth = depth;
        Ok(left)
    }

    fn and(&mut self) -> Result<Formula, ParseError> {
        let depth = self.depth;
        let mut left = self.binary()?;
        while self.peek() == Some(&Token::And) {
            self.pos += 1;
            self.descend()?;
            left = left.and(self.binary()?);
        }
        self.depth = depth;
        Ok(left)
    }

    fn binary(&mut self) -> Result<Formula, ParseError> {
        let depth = self.depth;
        let mut left = self.unary()?;
        while let Some(Token::Ident(name)) = self.peek() {
            if !BINARY_OPS.contains(&name.as_str()) {
                break;
            }
            let op = name.clone();
            self.pos += 1;
            self.descend()?;
            let right = self.unary()?;
            left = match op.as_str() {
                "U" => left.until(right),
                "W" => left.unless(right),
                "S" => left.since(right),
                "B" => left.wsince(right),
                _ => unreachable!(),
            };
        }
        self.depth = depth;
        Ok(left)
    }

    fn unary(&mut self) -> Result<Formula, ParseError> {
        match self.peek() {
            Some(Token::Not) => {
                self.pos += 1;
                self.descend()?;
                let inner = self.unary()?;
                self.depth -= 1;
                Ok(inner.not())
            }
            Some(Token::Ident(name)) if UNARY_OPS.contains(&name.as_str()) => {
                let op = name.clone();
                self.pos += 1;
                self.descend()?;
                let inner = self.unary()?;
                self.depth -= 1;
                Ok(match op.as_str() {
                    "X" | "N" => inner.next(),
                    "F" => inner.eventually(),
                    "G" => inner.always(),
                    "Y" => inner.prev(),
                    "Z" => inner.wprev(),
                    "O" => inner.once(),
                    "H" => inner.historically(),
                    _ => unreachable!(),
                })
            }
            _ => self.primary(),
        }
    }

    fn primary(&mut self) -> Result<Formula, ParseError> {
        match self.peek().cloned() {
            Some(Token::LParen) => {
                self.pos += 1;
                self.descend()?;
                let inner = self.iff()?;
                self.depth -= 1;
                if self.peek() != Some(&Token::RParen) {
                    return Err(self.err("expected ')'"));
                }
                self.pos += 1;
                Ok(inner)
            }
            Some(Token::Ident(name)) => {
                self.pos += 1;
                match name.as_str() {
                    "true" | "T" => Ok(Formula::True),
                    "false" => Ok(Formula::False),
                    "first" => Ok(Formula::first()),
                    _ => Formula::atom(self.alphabet, &name).ok_or_else(|| ParseError {
                        position: self.pos - 1,
                        message: format!(
                            "{name:?} is neither a proposition nor a letter of the alphabet"
                        ),
                    }),
                }
            }
            Some(tok) => Err(self.err(format!("unexpected token {tok:?}"))),
            None => Err(self.err("unexpected end of input")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ap() -> Alphabet {
        Alphabet::of_propositions(["p", "q"]).unwrap()
    }

    #[test]
    fn parses_basic_ops() {
        let sigma = ap();
        let f = parse(&sigma, "G (p -> F q)").unwrap();
        assert_eq!(f.to_string(), "G (!p | F q)");
        let g = parse(&sigma, "p U q | q S p").unwrap();
        assert_eq!(g.to_string(), "p U q | q S p");
    }

    #[test]
    fn precedence() {
        let sigma = ap();
        // & binds tighter than |, temporal binaries tighter than &.
        let f = parse(&sigma, "p & q | p").unwrap();
        assert_eq!(f.to_string(), "p & q | p");
        let g = parse(&sigma, "p U q & q").unwrap();
        assert_eq!(g.to_string(), "p U q & q");
        assert_eq!(
            parse(&sigma, "(p U q) & q").unwrap(),
            parse(&sigma, "p U q & q").unwrap()
        );
    }

    #[test]
    fn implication_right_assoc() {
        let sigma = ap();
        let f = parse(&sigma, "p -> q -> p").unwrap();
        assert_eq!(f, parse(&sigma, "p -> (q -> p)").unwrap());
    }

    #[test]
    fn unicode_connectives() {
        let sigma = ap();
        assert_eq!(
            parse(&sigma, "¬p ∧ q").unwrap(),
            parse(&sigma, "!p & q").unwrap()
        );
        assert_eq!(
            parse(&sigma, "p && q || p").unwrap(),
            parse(&sigma, "p & q | p").unwrap()
        );
    }

    #[test]
    fn constants_and_first() {
        let sigma = ap();
        assert_eq!(parse(&sigma, "true").unwrap(), Formula::True);
        assert_eq!(parse(&sigma, "false").unwrap(), Formula::False);
        assert_eq!(parse(&sigma, "first").unwrap(), Formula::first());
    }

    #[test]
    fn letter_alphabets() {
        let sigma = Alphabet::new(["a", "b"]).unwrap();
        let f = parse(&sigma, "G F b").unwrap();
        assert_eq!(f.to_string(), "G F b");
    }

    #[test]
    fn errors() {
        let sigma = ap();
        assert!(parse(&sigma, "").is_err());
        assert!(parse(&sigma, "p U").is_err());
        assert!(parse(&sigma, "(p").is_err());
        assert!(parse(&sigma, "zzz").is_err());
        assert!(parse(&sigma, "p q").is_err());
        assert!(parse(&sigma, "p # q").is_err());
        let e = parse(&sigma, "p %").unwrap_err();
        assert!(e.to_string().contains("formula error"));
    }

    #[test]
    fn iff_expands() {
        let sigma = ap();
        let f = parse(&sigma, "p <-> q").unwrap();
        // (p→q) ∧ (q→p)
        assert!(matches!(f, Formula::And(..)));
    }

    #[test]
    fn nesting_is_capped() {
        let sigma = ap();
        let at_cap = format!("{}p{}", "(".repeat(MAX_DEPTH), ")".repeat(MAX_DEPTH));
        assert!(parse(&sigma, &at_cap).is_ok());
        for hostile in [
            format!("{}p{}", "(".repeat(20_000), ")".repeat(20_000)),
            format!("{}p", "!".repeat(50_000)),
            format!("{}p", "X ".repeat(50_000)),
            vec!["p"; 50_000].join(" & "),
            vec!["p"; 50_000].join(" -> "),
            vec!["p"; 50_000].join(" U "),
        ] {
            let err = parse(&sigma, &hostile).unwrap_err();
            assert!(
                err.message.contains("nested deeper than"),
                "{}",
                err.message
            );
        }
        // A long chain under the cap parses to its left-deep tree.
        let chain = vec!["p"; MAX_DEPTH].join(" | ");
        assert!(parse(&sigma, &chain).is_ok());
    }
}
