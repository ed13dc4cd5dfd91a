//! A small regular-expression engine for w3newer configuration patterns.
//!
//! Table 1 of the paper shows a w3newer configuration file whose left-hand
//! column is a perl pattern ("perl syntax requires that `.` be escaped"),
//! matched against URLs with first-match-wins semantics. This module
//! implements the subset those configurations use — literals, `.`,
//! `*`/`+`/`?` repetition, character classes, grouping, alternation and
//! anchors — as a Thompson-NFA "Pike VM", so matching is linear in the
//! input and immune to the pathological backtracking a naive engine hits
//! on patterns like `(a+)+`.
//!
//! [`Rules`] is the file format built on those patterns: an ordered
//! `<pattern> <value>` list with a `Default` fallback, first match wins.
//! The threshold file (Table 1), the §7 priority file and the
//! scheduler's cold-start priors are all `Rules` over their own value
//! type, so they share one syntax and one parser.

use std::fmt;
use std::str::FromStr;

/// A compiled pattern.
///
/// # Examples
///
/// ```
/// use aide_util::pattern::Pattern;
///
/// let p = Pattern::new(r"http://www\.yahoo\.com/.*").unwrap();
/// assert!(p.matches("http://www.yahoo.com/finance"));
/// assert!(!p.matches("http://www2yahoo.com/"));
/// ```
#[derive(Debug, Clone)]
pub struct Pattern {
    source: String,
    prog: Vec<Inst>,
    anchored_start: bool,
}

/// Error from [`Pattern::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset in the pattern source where the error was detected.
    pub offset: usize,
}

impl fmt::Display for PatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pattern error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for PatternError {}

#[derive(Debug, Clone, PartialEq)]
enum Ast {
    Empty,
    Char(char),
    AnyChar,
    Class {
        negated: bool,
        ranges: Vec<(char, char)>,
    },
    Concat(Vec<Ast>),
    Alternate(Vec<Ast>),
    Star(Box<Ast>),
    Plus(Box<Ast>),
    Quest(Box<Ast>),
    EndAnchor,
}

#[derive(Debug, Clone)]
enum Inst {
    Char(char),
    Any,
    Class {
        negated: bool,
        ranges: Vec<(char, char)>,
    },
    Split(usize, usize),
    Jmp(usize),
    End,
    Match,
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
}

impl Parser {
    fn new(src: &str) -> Parser {
        Parser {
            chars: src.chars().collect(),
            pos: 0,
        }
    }

    fn err(&self, message: &str) -> PatternError {
        let offset = self.chars[..self.pos.min(self.chars.len())]
            .iter()
            .map(|c| c.len_utf8())
            .sum();
        PatternError {
            message: message.to_string(),
            offset,
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn parse_alternate(&mut self) -> Result<Ast, PatternError> {
        let mut branches = vec![self.parse_concat()?];
        while self.peek() == Some('|') {
            self.bump();
            branches.push(self.parse_concat()?);
        }
        match branches.pop() {
            Some(only) if branches.is_empty() => Ok(only),
            Some(last) => {
                branches.push(last);
                Ok(Ast::Alternate(branches))
            }
            None => Ok(Ast::Empty),
        }
    }

    fn parse_concat(&mut self) -> Result<Ast, PatternError> {
        let mut items = Vec::new();
        while let Some(c) = self.peek() {
            if c == '|' || c == ')' {
                break;
            }
            items.push(self.parse_repeat()?);
        }
        match items.pop() {
            None => Ok(Ast::Empty),
            Some(only) if items.is_empty() => Ok(only),
            Some(last) => {
                items.push(last);
                Ok(Ast::Concat(items))
            }
        }
    }

    fn parse_repeat(&mut self) -> Result<Ast, PatternError> {
        let atom = self.parse_atom()?;
        match self.peek() {
            Some('*') => {
                self.bump();
                Ok(Ast::Star(Box::new(atom)))
            }
            Some('+') => {
                self.bump();
                Ok(Ast::Plus(Box::new(atom)))
            }
            Some('?') => {
                self.bump();
                Ok(Ast::Quest(Box::new(atom)))
            }
            _ => Ok(atom),
        }
    }

    fn parse_atom(&mut self) -> Result<Ast, PatternError> {
        match self.bump() {
            None => Err(self.err("unexpected end of pattern")),
            Some('(') => {
                let inner = self.parse_alternate()?;
                if self.bump() != Some(')') {
                    return Err(self.err("unclosed group"));
                }
                Ok(inner)
            }
            Some('[') => self.parse_class(),
            Some('.') => Ok(Ast::AnyChar),
            Some('$') => Ok(Ast::EndAnchor),
            Some('*') | Some('+') | Some('?') => Err(self.err("repetition with nothing to repeat")),
            Some('\\') => match self.bump() {
                None => Err(self.err("trailing backslash")),
                Some('d') => Ok(Ast::Class {
                    negated: false,
                    ranges: vec![('0', '9')],
                }),
                Some('w') => Ok(Ast::Class {
                    negated: false,
                    ranges: vec![('a', 'z'), ('A', 'Z'), ('0', '9'), ('_', '_')],
                }),
                Some('s') => Ok(Ast::Class {
                    negated: false,
                    ranges: vec![(' ', ' '), ('\t', '\t'), ('\n', '\n'), ('\r', '\r')],
                }),
                Some(c) => Ok(Ast::Char(c)),
            },
            Some(c) => Ok(Ast::Char(c)),
        }
    }

    fn parse_class(&mut self) -> Result<Ast, PatternError> {
        let negated = if self.peek() == Some('^') {
            self.bump();
            true
        } else {
            false
        };
        let mut ranges = Vec::new();
        let mut first = true;
        loop {
            match self.bump() {
                None => return Err(self.err("unclosed character class")),
                Some(']') if !first => break,
                Some(c) => {
                    let lo = if c == '\\' {
                        self.bump()
                            .ok_or_else(|| self.err("trailing backslash in class"))?
                    } else {
                        c
                    };
                    if self.peek() == Some('-')
                        && self
                            .chars
                            .get(self.pos + 1)
                            .copied()
                            .is_some_and(|n| n != ']')
                    {
                        self.bump(); // the '-'
                        let hi = match self.bump() {
                            Some('\\') => self
                                .bump()
                                .ok_or_else(|| self.err("trailing backslash in class"))?,
                            Some(h) => h,
                            None => return Err(self.err("unclosed character class")),
                        };
                        if hi < lo {
                            return Err(self.err("inverted range in character class"));
                        }
                        ranges.push((lo, hi));
                    } else {
                        ranges.push((lo, lo));
                    }
                }
            }
            first = false;
        }
        Ok(Ast::Class { negated, ranges })
    }
}

fn compile(ast: &Ast, prog: &mut Vec<Inst>) {
    match ast {
        Ast::Empty => {}
        Ast::Char(c) => prog.push(Inst::Char(*c)),
        Ast::AnyChar => prog.push(Inst::Any),
        Ast::Class { negated, ranges } => prog.push(Inst::Class {
            negated: *negated,
            ranges: ranges.clone(),
        }),
        Ast::EndAnchor => prog.push(Inst::End),
        Ast::Concat(items) => {
            for item in items {
                compile(item, prog);
            }
        }
        Ast::Alternate(branches) => {
            // Chain of splits; each branch jumps to the common exit.
            let mut jmp_slots = Vec::new();
            for (i, b) in branches.iter().enumerate() {
                if i + 1 < branches.len() {
                    let split_at = prog.len();
                    prog.push(Inst::Split(0, 0));
                    compile(b, prog);
                    jmp_slots.push(prog.len());
                    prog.push(Inst::Jmp(0));
                    let next = prog.len();
                    prog[split_at] = Inst::Split(split_at + 1, next);
                } else {
                    compile(b, prog);
                }
            }
            let end = prog.len();
            for slot in jmp_slots {
                prog[slot] = Inst::Jmp(end);
            }
        }
        Ast::Star(inner) => {
            let split_at = prog.len();
            prog.push(Inst::Split(0, 0));
            compile(inner, prog);
            prog.push(Inst::Jmp(split_at));
            let after = prog.len();
            prog[split_at] = Inst::Split(split_at + 1, after);
        }
        Ast::Plus(inner) => {
            let body = prog.len();
            compile(inner, prog);
            let split_at = prog.len();
            prog.push(Inst::Split(body, split_at + 1));
        }
        Ast::Quest(inner) => {
            let split_at = prog.len();
            prog.push(Inst::Split(0, 0));
            compile(inner, prog);
            let after = prog.len();
            prog[split_at] = Inst::Split(split_at + 1, after);
        }
    }
}

impl Pattern {
    /// Compiles `source` into a pattern.
    ///
    /// A leading `^` anchors the match at the start of the input;
    /// otherwise the pattern may match anywhere (perl search semantics).
    pub fn new(source: &str) -> Result<Pattern, PatternError> {
        let (anchored_start, body) = match source.strip_prefix('^') {
            Some(rest) => (true, rest),
            None => (false, source),
        };
        let mut parser = Parser::new(body);
        let ast = parser.parse_alternate()?;
        if parser.pos != parser.chars.len() {
            return Err(parser.err("unexpected character"));
        }
        let mut prog = Vec::new();
        compile(&ast, &mut prog);
        prog.push(Inst::Match);
        Ok(Pattern {
            source: source.to_string(),
            prog,
            anchored_start,
        })
    }

    /// Returns the original pattern source.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Returns true if the pattern matches anywhere in `input`
    /// (or at the start, for `^`-anchored patterns).
    pub fn matches(&self, input: &str) -> bool {
        let chars: Vec<char> = input.chars().collect();
        if self.anchored_start {
            self.run(&chars, 0, false)
        } else {
            (0..=chars.len()).any(|start| self.run(&chars, start, false))
        }
    }

    /// Returns true if the pattern matches the whole of `input`, as if it
    /// were written `^pattern$`.
    pub fn matches_fully(&self, input: &str) -> bool {
        let chars: Vec<char> = input.chars().collect();
        self.run(&chars, 0, true)
    }

    fn add_thread(&self, list: &mut Vec<usize>, on_list: &mut [bool], pc: usize, at_end: bool) {
        if on_list[pc] {
            return;
        }
        on_list[pc] = true;
        match &self.prog[pc] {
            Inst::Jmp(t) => self.add_thread(list, on_list, *t, at_end),
            Inst::Split(a, b) => {
                self.add_thread(list, on_list, *a, at_end);
                self.add_thread(list, on_list, *b, at_end);
            }
            Inst::End => {
                if at_end {
                    self.add_thread(list, on_list, pc + 1, at_end);
                }
            }
            _ => list.push(pc),
        }
    }

    /// Pike-VM simulation from `start`. With `full` the match must
    /// consume the rest of the input; otherwise the first match wins
    /// (unanchored at the end).
    fn run(&self, chars: &[char], start: usize, full: bool) -> bool {
        let n = self.prog.len();
        let is_match = |list: &[usize]| list.iter().any(|&pc| matches!(self.prog[pc], Inst::Match));
        let mut clist = Vec::new();
        let mut on = vec![false; n];
        self.add_thread(&mut clist, &mut on, 0, start == chars.len());
        for (pos, &c) in chars.iter().enumerate().skip(start) {
            if !full && is_match(&clist) {
                return true;
            }
            let at_end = pos + 1 == chars.len();
            let mut nlist = Vec::new();
            let mut non = vec![false; n];
            for &pc in &clist {
                let step = match &self.prog[pc] {
                    Inst::Char(pc_c) => *pc_c == c,
                    Inst::Any => true,
                    Inst::Class { negated, ranges } => {
                        let inside = ranges.iter().any(|&(lo, hi)| c >= lo && c <= hi);
                        inside != *negated
                    }
                    _ => false,
                };
                if step {
                    self.add_thread(&mut nlist, &mut non, pc + 1, at_end);
                }
            }
            clist = nlist;
            if clist.is_empty() {
                return false;
            }
        }
        is_match(&clist)
    }
}

/// An ordered pattern→value rule list with a fallback: the first rule
/// whose pattern matches decides, and unmatched inputs get the fallback.
///
/// # Examples
///
/// ```
/// use aide_util::pattern::Rules;
///
/// let rules: Rules<u32> = Rules::parse(
///     "# comment\nhttp://a\\.com/.* 1\nhttp://.* 2\nDefault 3\n",
/// ).unwrap();
/// assert_eq!(rules.lookup("http://a.com/x"), 1);
/// assert_eq!(rules.lookup("http://b.com/"), 2);
/// assert_eq!(rules.lookup("file:/x"), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Rules<T> {
    rules: Vec<(Pattern, T)>,
    fallback: T,
}

impl<T: Copy + Default> Default for Rules<T> {
    fn default() -> Self {
        Rules::new(T::default())
    }
}

impl<T: Copy> Rules<T> {
    /// Rules with the given fallback and no patterns.
    pub fn new(fallback: T) -> Rules<T> {
        Rules {
            rules: Vec::new(),
            fallback,
        }
    }

    /// Appends a rule (builder style). Rules match in insertion order.
    pub fn rule(mut self, pattern: &str, value: T) -> Result<Self, PatternError> {
        self.rules.push((Pattern::new(pattern)?, value));
        Ok(self)
    }

    /// The value for `input`: first matching rule, else the fallback.
    pub fn lookup(&self, input: &str) -> T {
        self.rules
            .iter()
            .find(|(pattern, _)| pattern.matches(input))
            .map_or(self.fallback, |&(_, value)| value)
    }

    /// The fallback value.
    pub fn fallback(&self) -> T {
        self.fallback
    }

    /// True if only the fallback applies.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Parses the rule-file format: one `<pattern> <value>` pair per
    /// line, `#` to end of line is a comment, blank lines are skipped,
    /// and the pattern `Default` (on any line) sets the fallback, which
    /// is otherwise `T::default()`. Values are read with `T::from_str`;
    /// columns past the second are ignored.
    pub fn parse(text: &str) -> Result<Rules<T>, RuleError>
    where
        T: Default + FromStr<Err: fmt::Display>,
    {
        let mut out = Rules::default();
        for (idx, raw) in text.lines().enumerate() {
            let err = |kind| RuleError {
                line: idx + 1,
                kind,
            };
            let line = raw.split_once('#').map_or(raw, |(code, _)| code);
            let mut parts = line.split_whitespace();
            let Some(pattern) = parts.next() else {
                continue;
            };
            let value_src = parts
                .next()
                .ok_or_else(|| err(RuleErrorKind::MissingValue))?;
            let value = value_src
                .parse()
                .map_err(|e: T::Err| err(RuleErrorKind::BadValue(e.to_string())))?;
            if pattern == "Default" {
                out.fallback = value;
            } else {
                let pattern =
                    Pattern::new(pattern).map_err(|e| err(RuleErrorKind::BadPattern(e)))?;
                out.rules.push((pattern, value));
            }
        }
        Ok(out)
    }
}

/// Error from [`Rules::parse`]: what went wrong, on which line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleError {
    /// 1-based line number.
    pub line: usize,
    /// What was wrong with the line.
    pub kind: RuleErrorKind,
}

/// What [`Rules::parse`] rejected a line for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleErrorKind {
    /// The pattern column failed to compile.
    BadPattern(PatternError),
    /// The value column failed to parse; carries the value's error text.
    BadValue(String),
    /// The line had a pattern but no value column.
    MissingValue,
}

impl fmt::Display for RuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let line = self.line;
        match &self.kind {
            RuleErrorKind::BadPattern(e) => write!(f, "line {line}: {e}"),
            RuleErrorKind::BadValue(message) => write!(f, "line {line}: {message}"),
            RuleErrorKind::MissingValue => write!(f, "line {line}: missing value"),
        }
    }
}

impl std::error::Error for RuleError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Pattern {
        Pattern::new(s).unwrap_or_else(|e| panic!("pattern {s:?}: {e}"))
    }

    #[test]
    fn literal_search_is_unanchored() {
        assert!(p("att").matches("http://www.att.com/"));
        assert!(!p("att").matches("http://www.mit.edu/"));
    }

    #[test]
    fn escaped_dot_is_literal() {
        assert!(p(r"www\.yahoo\.com").matches("http://www.yahoo.com/"));
        assert!(!p(r"www\.yahoo\.com").matches("http://wwwXyahooXcom/"));
        assert!(
            p("www.yahoo.com").matches("http://wwwXyahooXcom/"),
            "unescaped dot is wildcard"
        );
    }

    #[test]
    fn table1_patterns() {
        // The actual patterns from Table 1 of the paper.
        let yahoo = p(r"http://www\.yahoo\.com/.*");
        assert!(yahoo.matches("http://www.yahoo.com/headlines/"));
        let att = p(r"http://.*\.att\.com/.*");
        assert!(att.matches("http://www.research.att.com/people/"));
        assert!(!att.matches("http://www.ibm.com/"));
        let file = p("file:.*");
        assert!(file.matches("file:/home/user/notes.html"));
        let dilbert = p(r"http://www\.unitedmedia\.com/comics/dilbert/");
        assert!(dilbert.matches("http://www.unitedmedia.com/comics/dilbert/"));
    }

    #[test]
    fn star_plus_quest() {
        assert!(p("ab*c").matches_fully("ac"));
        assert!(p("ab*c").matches_fully("abbbc"));
        assert!(!p("ab+c").matches_fully("ac"));
        assert!(p("ab+c").matches_fully("abc"));
        assert!(p("ab?c").matches_fully("ac"));
        assert!(p("ab?c").matches_fully("abc"));
        assert!(!p("ab?c").matches_fully("abbc"));
    }

    #[test]
    fn alternation_and_groups() {
        let x = p("^http://(www|ftp)\\.example\\.(com|org)/");
        assert!(x.matches("http://www.example.com/x"));
        assert!(x.matches("http://ftp.example.org/"));
        assert!(!x.matches("http://mail.example.com/"));
        assert!(p("(ab)+").matches_fully("ababab"));
        assert!(!p("(ab)+").matches_fully("aba"));
    }

    #[test]
    fn character_classes() {
        assert!(p("[a-z]+").matches_fully("hello"));
        assert!(!p("[a-z]+").matches_fully("Hello"));
        assert!(p("[^0-9]+").matches_fully("no-digits!"));
        assert!(!p("[^0-9]+").matches_fully("a1b"));
        assert!(p(r"[\]]").matches("]"));
        assert!(p("[-a]").matches("-"), "leading - after ranges is literal");
    }

    #[test]
    fn escape_shorthands() {
        assert!(p(r"\d+").matches_fully("12345"));
        assert!(p(r"\w+").matches_fully("foo_bar9"));
        assert!(p(r"a\sb").matches_fully("a b"));
    }

    #[test]
    fn anchors() {
        assert!(p("^http").matches("http://x/"));
        assert!(!p("^http").matches("see http://x/"));
        assert!(p("html$").matches("index.html"));
        assert!(!p("html$").matches("index.html.bak"));
        assert!(p("^$").matches(""));
        assert!(!p("^$").matches("x"));
    }

    #[test]
    fn pathological_pattern_is_fast() {
        // A backtracking engine would take exponential time here.
        let pat = p("(a+)+b");
        let input = "a".repeat(200);
        assert!(!pat.matches(&input));
        assert!(pat.matches(&format!("{input}b")));
    }

    #[test]
    fn parse_errors() {
        assert!(Pattern::new("(").is_err());
        assert!(Pattern::new("a)").is_err());
        assert!(Pattern::new("[abc").is_err());
        assert!(Pattern::new("*a").is_err());
        assert!(Pattern::new("a\\").is_err());
        assert!(Pattern::new("[z-a]").is_err());
    }

    #[test]
    fn empty_pattern_matches_everything() {
        assert!(p("").matches(""));
        assert!(p("").matches("anything"));
        assert!(p(".*").matches("anything"));
    }

    #[test]
    fn unicode_input() {
        assert!(p("café").matches("visit café now"));
        assert!(p(".").matches("é"));
    }

    fn rules(text: &str) -> Rules<u32> {
        Rules::parse(text).unwrap_or_else(|e| panic!("rules {text:?}: {e}"))
    }

    #[test]
    fn rules_skip_comments_and_blank_lines() {
        let r = rules("\n# full comment\n   \nhttp://x/ 1 # trailing\n\n");
        assert_eq!(r.lookup("http://x/"), 1);
        assert_eq!(r.lookup("http://y/"), 0, "fallback is T::default()");
        assert!(rules("# only comments\n\n").is_empty());
    }

    #[test]
    fn rules_default_line_anywhere() {
        for text in ["Default 3\nhttp://x/.* 1\n", "http://x/.* 1\nDefault 3\n"] {
            let r = rules(text);
            assert_eq!(r.fallback(), 3, "{text:?}");
            assert_eq!(r.lookup("http://y/"), 3, "{text:?}");
            assert_eq!(r.lookup("http://x/a"), 1, "{text:?}");
        }
    }

    #[test]
    fn rules_first_match_wins() {
        let r = rules("http://a\\.com/.* 1\nhttp://a\\.com/special\\.html 2\n");
        assert_eq!(r.lookup("http://a.com/special.html"), 1);
        assert_eq!(r.lookup("http://b.com/"), 0);
    }

    #[test]
    fn rules_errors_carry_line_numbers() {
        let missing = Rules::<u32>::parse("http://x/\n").unwrap_err();
        assert_eq!(missing.line, 1);
        assert_eq!(missing.kind, RuleErrorKind::MissingValue);
        assert_eq!(missing.to_string(), "line 1: missing value");

        let bad_value = Rules::<u32>::parse("# ok\nhttp://x/ 2q\n").unwrap_err();
        assert_eq!(bad_value.line, 2);
        assert!(matches!(bad_value.kind, RuleErrorKind::BadValue(_)));
        assert_eq!(
            bad_value.to_string(),
            "line 2: invalid digit found in string"
        );

        let bad_pattern = Rules::<u32>::parse("\n\n(unclosed 1\n").unwrap_err();
        assert_eq!(bad_pattern.line, 3);
        assert!(matches!(bad_pattern.kind, RuleErrorKind::BadPattern(_)));
        assert!(bad_pattern.to_string().starts_with("line 3: pattern error"));
    }
}
