//! A comment- and string-aware lexer for Rust sources.
//!
//! guardlint's checks are token-level, so they do not need a full
//! parser — but they *do* need to know whether `unwrap()` appears in code,
//! in a string literal, or in a comment, and whether a line sits inside a
//! `#[cfg(test)]` module. This module produces a [`Scrubbed`] view of a
//! source file that answers exactly those questions:
//!
//! * per-line **masked code** (string/char contents blanked, comments
//!   removed) for token scans,
//! * per-line **comment text** for inline `// lint: <id> — <why>`
//!   justifications,
//! * a **flat stream** of the whole file with each string literal replaced
//!   by an indexed placeholder, for cross-line call-argument extraction,
//! * the **string literals** themselves (unescaped) with line numbers,
//! * a per-line **test flag** covering `#[cfg(test)]`/`#[test]` items.
//!
//! The lexer understands line and (nested) block comments, plain and raw
//! strings (`r"…"`, `r#"…"#`, any hash depth), byte strings, char and
//! byte-char literals, and distinguishes lifetimes (`'a`) from char
//! literals (`'a'`).

/// One string literal found in the file.
#[derive(Debug, Clone)]
pub struct StrLit {
    /// 1-based line the literal starts on.
    pub line: usize,
    /// Unescaped content (common escapes resolved; exotic ones kept raw).
    pub content: String,
}

/// One scrubbed source line.
#[derive(Debug, Clone)]
pub struct ScrubbedLine {
    /// Code with comments removed and string/char contents blanked to
    /// spaces (delimiters kept), safe for token searches.
    pub code: String,
    /// Comment text on this line (markers stripped), for justifications.
    pub comment: String,
    /// True when the line is inside a `#[cfg(test)]`/`#[test]` item.
    pub in_test: bool,
}

/// Placeholder marker opening a string reference in [`Scrubbed::flat`].
pub const STR_OPEN: char = '\u{1}';
/// Placeholder marker closing a string reference in [`Scrubbed::flat`].
pub const STR_CLOSE: char = '\u{2}';

/// The scrubbed view of one source file.
#[derive(Debug)]
pub struct Scrubbed {
    /// Per-line views (index 0 = line 1).
    pub lines: Vec<ScrubbedLine>,
    /// Whole-file masked code with newlines kept and each string literal
    /// replaced by `STR_OPEN index STR_CLOSE`.
    pub flat: String,
    /// All string literals, in source order.
    pub strings: Vec<StrLit>,
}

impl Scrubbed {
    /// 1-based line number of a byte offset into [`Scrubbed::flat`].
    pub fn line_of(&self, offset: usize) -> usize {
        self.flat[..offset].bytes().filter(|&b| b == b'\n').count() + 1
    }

    /// Whether 1-based `line` lies in test code (out-of-range → false).
    pub fn is_test_line(&self, line: usize) -> bool {
        line.checked_sub(1)
            .and_then(|i| self.lines.get(i))
            .is_some_and(|l| l.in_test)
    }
}

#[derive(PartialEq)]
enum State {
    Normal,
    LineComment,
    BlockComment(u32),
    Str { raw_hashes: Option<u32> },
    CharLit,
}

/// Lexes `src` into its scrubbed view.
pub fn scrub(src: &str) -> Scrubbed {
    let chars: Vec<char> = src.chars().collect();
    let mut lines: Vec<ScrubbedLine> = Vec::new();
    let mut strings: Vec<StrLit> = Vec::new();
    let mut flat = String::new();

    let mut code = String::new();
    let mut comment = String::new();
    let mut line_no = 1usize;
    let mut state = State::Normal;
    let mut lit = String::new(); // content of the in-flight string/char
    let mut lit_line = 1usize;
    let mut prev_code_char = '\n';

    let mut i = 0usize;
    let n = chars.len();
    let mut end_line = |code: &mut String, comment: &mut String, flat: &mut String| {
        lines.push(ScrubbedLine {
            code: std::mem::take(code),
            comment: std::mem::take(comment),
            in_test: false,
        });
        flat.push('\n');
    };

    while i < n {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match state {
            State::Normal => match c {
                '\n' => {
                    end_line(&mut code, &mut comment, &mut flat);
                    line_no += 1;
                    i += 1;
                }
                '/' if next == Some('/') => {
                    state = State::LineComment;
                    i += 2;
                }
                '/' if next == Some('*') => {
                    state = State::BlockComment(1);
                    i += 2;
                }
                '"' => {
                    state = State::Str { raw_hashes: None };
                    lit.clear();
                    lit_line = line_no;
                    code.push('"');
                    prev_code_char = '"';
                    i += 1;
                }
                'r' | 'b' if !is_ident(prev_code_char) => {
                    // Possible raw/byte string or byte-char prefix.
                    let (consumed, started) = try_string_prefix(&chars, i);
                    if let Some(hashes) = started {
                        state = State::Str { raw_hashes: hashes };
                        lit.clear();
                        lit_line = line_no;
                        code.push('"');
                        prev_code_char = '"';
                        i += consumed;
                    } else if consumed > 0 {
                        // b'..' byte-char literal.
                        state = State::CharLit;
                        code.push('\'');
                        prev_code_char = '\'';
                        i += consumed;
                    } else {
                        code.push(c);
                        flat.push(c);
                        prev_code_char = c;
                        i += 1;
                    }
                }
                '\'' => {
                    if is_char_literal(&chars, i) {
                        state = State::CharLit;
                        code.push('\'');
                        prev_code_char = '\'';
                        i += 1;
                    } else {
                        // A lifetime: keep the tick and the label as code.
                        code.push('\'');
                        flat.push('\'');
                        prev_code_char = '\'';
                        i += 1;
                    }
                }
                _ => {
                    code.push(c);
                    flat.push(c);
                    prev_code_char = c;
                    i += 1;
                }
            },
            State::LineComment => {
                if c == '\n' {
                    state = State::Normal;
                    end_line(&mut code, &mut comment, &mut flat);
                    line_no += 1;
                } else {
                    comment.push(c);
                }
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '\n' {
                    end_line(&mut code, &mut comment, &mut flat);
                    line_no += 1;
                    i += 1;
                } else if c == '*' && next == Some('/') {
                    if depth == 1 {
                        state = State::Normal;
                    } else {
                        state = State::BlockComment(depth - 1);
                    }
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    i += 2;
                } else {
                    comment.push(c);
                    i += 1;
                }
            }
            State::Str { raw_hashes } => match raw_hashes {
                None => match c {
                    '\\' => {
                        if let Some(nc) = next {
                            lit.push(unescape(nc));
                            code.push(' ');
                            code.push(' ');
                        }
                        i += 2;
                    }
                    '"' => {
                        strings.push(StrLit { line: lit_line, content: std::mem::take(&mut lit) });
                        push_str_ref(&mut flat, strings.len() - 1);
                        code.push('"');
                        state = State::Normal;
                        i += 1;
                    }
                    '\n' => {
                        lit.push('\n');
                        end_line(&mut code, &mut comment, &mut flat);
                        line_no += 1;
                        i += 1;
                    }
                    _ => {
                        lit.push(c);
                        code.push(' ');
                        i += 1;
                    }
                },
                Some(hashes) => {
                    if c == '"' && closes_raw(&chars, i, hashes) {
                        strings.push(StrLit { line: lit_line, content: std::mem::take(&mut lit) });
                        push_str_ref(&mut flat, strings.len() - 1);
                        code.push('"');
                        state = State::Normal;
                        i += 1 + hashes as usize;
                    } else if c == '\n' {
                        lit.push('\n');
                        end_line(&mut code, &mut comment, &mut flat);
                        line_no += 1;
                        i += 1;
                    } else {
                        lit.push(c);
                        code.push(' ');
                        i += 1;
                    }
                }
            },
            State::CharLit => match c {
                '\\' => {
                    code.push(' ');
                    code.push(' ');
                    i += 2;
                }
                '\'' => {
                    code.push('\'');
                    state = State::Normal;
                    i += 1;
                }
                _ => {
                    code.push(' ');
                    i += 1;
                }
            },
        }
    }
    // Final (possibly unterminated) line.
    if !code.is_empty() || !comment.is_empty() || lines.is_empty() {
        lines.push(ScrubbedLine { code, comment, in_test: false });
    }

    let mut scrubbed = Scrubbed { lines, flat, strings };
    mark_test_regions(&mut scrubbed);
    scrubbed
}

fn push_str_ref(flat: &mut String, idx: usize) {
    flat.push(STR_OPEN);
    flat.push_str(&idx.to_string());
    flat.push(STR_CLOSE);
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

fn unescape(c: char) -> char {
    match c {
        'n' => '\n',
        't' => '\t',
        'r' => '\r',
        '0' => '\0',
        other => other, // \", \\, \' and exotic escapes keep the marker char
    }
}

/// At `chars[i]` sitting on `r` or `b`: if a raw/byte string opens here,
/// returns (chars consumed through the opening quote, Some(raw hash count;
/// `None` inside means a *non-raw* byte string)). For `b'` returns
/// (2, None-as-char-lit) signalled by `(2, None)` with consumed > 0 and
/// `started == None` — see call site. Returns `(0, None)` when this is
/// just an identifier character.
fn try_string_prefix(chars: &[char], i: usize) -> (usize, Option<Option<u32>>) {
    let c = chars[i];
    let rest = &chars[i..];
    let peek = |k: usize| rest.get(k).copied();
    if c == 'r' || (c == 'b' && peek(1) == Some('r')) {
        let base = if c == 'r' { 1 } else { 2 };
        let mut hashes = 0u32;
        let mut k = base;
        while peek(k) == Some('#') {
            hashes += 1;
            k += 1;
        }
        if peek(k) == Some('"') {
            return (k + 1, Some(Some(hashes)));
        }
        return (0, None);
    }
    if c == 'b' {
        if peek(1) == Some('"') {
            return (2, Some(None));
        }
        if peek(1) == Some('\'') {
            return (2, None); // byte-char literal: consumed=2, no string
        }
    }
    (0, None)
}

/// Whether the `"` at `chars[i]` is followed by `hashes` `#`s.
fn closes_raw(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

/// `'x'`-style char literal vs `'a` lifetime, decided by lookahead.
fn is_char_literal(chars: &[char], i: usize) -> bool {
    match chars.get(i + 1) {
        Some('\\') => true,
        Some(_) => chars.get(i + 2) == Some(&'\''),
        None => false,
    }
}

/// Marks lines inside `#[cfg(test)]` / `#[test]` items by brace matching
/// on the flat (string-free) stream.
fn mark_test_regions(s: &mut Scrubbed) {
    let flat: Vec<char> = s.flat.chars().collect();
    let text: String = s.flat.clone();
    let mut search_from = 0usize;
    loop {
        let hit = ["#[cfg(test)]", "#[test]"]
            .iter()
            .filter_map(|pat| text[search_from..].find(pat).map(|p| (search_from + p, pat.len())))
            .min();
        let Some((at, pat_len)) = hit else { break };
        // Find the item's opening brace (or a terminating `;` first).
        let mut j = char_index_of_byte(&text, at + pat_len);
        let mut open = None;
        while j < flat.len() {
            match flat[j] {
                '{' => {
                    open = Some(j);
                    break;
                }
                ';' => break,
                _ => j += 1,
            }
        }
        let start_line = byte_line(&text, at);
        let Some(open_idx) = open else {
            // `#[cfg(test)] mod x;` or malformed: mark just the item line.
            set_test(s, start_line, start_line);
            search_from = at + pat_len;
            continue;
        };
        let mut depth = 0i32;
        let mut k = open_idx;
        while k < flat.len() {
            match flat[k] {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        let end_byte = byte_of_char_index(&text, k.min(flat.len().saturating_sub(1)));
        let end_line = byte_line(&text, end_byte);
        set_test(s, start_line, end_line);
        search_from = end_byte.max(at + pat_len);
    }
}

fn set_test(s: &mut Scrubbed, from_line: usize, to_line: usize) {
    for line in from_line..=to_line {
        if let Some(l) = s.lines.get_mut(line - 1) {
            l.in_test = true;
        }
    }
}

fn byte_line(text: &str, byte: usize) -> usize {
    text[..byte].bytes().filter(|&b| b == b'\n').count() + 1
}

fn char_index_of_byte(text: &str, byte: usize) -> usize {
    text[..byte].chars().count()
}

fn byte_of_char_index(text: &str, idx: usize) -> usize {
    text.char_indices().nth(idx).map_or(text.len(), |(b, _)| b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_masked() {
        let s = scrub("let x = \"unwrap() // not code\"; // c1 unwrap()\nlet y = 1;");
        assert!(!s.lines[0].code.contains("unwrap"));
        assert!(s.lines[0].comment.contains("c1 unwrap()"));
        assert_eq!(s.strings.len(), 1);
        assert_eq!(s.strings[0].content, "unwrap() // not code");
        assert!(s.lines[1].code.contains("let y = 1;"));
    }

    #[test]
    fn raw_strings_and_escapes() {
        let s = scrub("let a = r#\"he \"quoted\" panic!()\"#; let b = \"\\\"name\\\":\\\"x\\\"\";");
        assert_eq!(s.strings[0].content, "he \"quoted\" panic!()");
        assert_eq!(s.strings[1].content, "\"name\":\"x\"");
        assert!(!s.lines[0].code.contains("panic"));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let s = scrub("fn f<'a>(x: &'a str) -> char { let c = '\\''; let d = 'z'; 'q' }");
        let code = &s.lines[0].code;
        assert!(code.contains("<'a>"));
        assert!(code.contains("&'a str"));
        assert!(!code.contains('z'));
    }

    #[test]
    fn block_comments_nest() {
        let s = scrub("a /* one /* two */ still */ b\nc");
        assert!(s.lines[0].code.contains('a'));
        assert!(s.lines[0].code.contains('b'));
        assert!(!s.lines[0].code.contains("one"));
        assert!(!s.lines[0].code.contains("still"));
    }

    #[test]
    fn cfg_test_regions_marked() {
        let src = "fn live() { x[0]; }\n#[cfg(test)]\nmod tests {\n    fn t() { v.unwrap(); }\n}\nfn after() {}\n";
        let s = scrub(src);
        assert!(!s.is_test_line(1));
        assert!(s.is_test_line(2));
        assert!(s.is_test_line(4));
        assert!(s.is_test_line(5));
        assert!(!s.is_test_line(6));
    }

    #[test]
    fn test_attr_fn_marked() {
        let src = "fn a() {}\n#[test]\nfn prop() {\n    body();\n}\nfn b() {}\n";
        let s = scrub(src);
        assert!(!s.is_test_line(1));
        assert!(s.is_test_line(3));
        assert!(s.is_test_line(4));
        assert!(!s.is_test_line(6));
    }

    #[test]
    fn braces_in_strings_do_not_break_test_regions() {
        let src = "#[cfg(test)]\nmod t {\n    const S: &str = \"}\";\n    fn x() {}\n}\nfn live() {}\n";
        let s = scrub(src);
        assert!(s.is_test_line(4));
        assert!(!s.is_test_line(6));
    }
}
