//! Word and sentence tokenization.
//!
//! The tokenizer is deliberately simple and deterministic: it recognizes
//! word tokens (alphanumeric runs, allowing internal apostrophes and
//! hyphens, e.g. `O'Brien`, `vice-president`), numbers, and punctuation.
//! Sentence splitting is rule-based on terminal punctuation followed by
//! whitespace and an uppercase letter or end of text.

/// The lexical class of a [`Token`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Alphabetic word (possibly with internal `'` or `-`).
    Word,
    /// A run of ASCII digits, possibly with internal `.`/`,` (e.g. `1,000`).
    Number,
    /// Anything else that is not whitespace: punctuation, symbols.
    Punct,
}

/// A token with its byte span in the source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'a> {
    /// The token text, borrowed from the input.
    pub text: &'a str,
    /// Byte offset of the first byte of the token in the input.
    pub start: usize,
    /// Byte offset one past the last byte of the token.
    pub end: usize,
    /// Lexical class.
    pub kind: TokenKind,
}

impl<'a> Token<'a> {
    /// True if the token starts with an uppercase letter.
    pub fn is_capitalized(&self) -> bool {
        self.text.chars().next().is_some_and(|c| c.is_uppercase())
    }
}

fn is_word_joiner(c: char) -> bool {
    c == '\'' || c == '-'
}

fn is_number_joiner(c: char) -> bool {
    c == '.' || c == ','
}

/// Tokenize `text` into [`Token`]s. Whitespace is skipped; every other
/// character belongs to exactly one token. The concatenation of all token
/// texts plus the skipped whitespace reconstructs the input (a property we
/// verify with proptest).
pub fn tokens(text: &str) -> Vec<Token<'_>> {
    // News text averages more than four bytes per token and gap.
    let mut out = Vec::with_capacity(text.len() / 4);
    out.extend(Tokens::new(text));
    out
}

/// The [`tokens`] of a text as an iterator, for callers that read each
/// token once and need no `Vec`.
///
/// ```
/// use facet_textkit::{tokens, Tokens};
/// let text = "O'Brien paid 1,000 dollars.";
/// assert!(Tokens::new(text).eq(tokens(text)));
/// ```
#[derive(Debug, Clone)]
pub struct Tokens<'a> {
    text: &'a str,
    /// Byte offset of the next unread char.
    pos: usize,
}

impl<'a> Tokens<'a> {
    /// Tokens of `text`, from its start.
    pub fn new(text: &'a str) -> Self {
        Self { text, pos: 0 }
    }

    /// The char at byte `pos`, decoded without a UTF-8 walk when ASCII.
    #[inline]
    fn char_at(&self, pos: usize) -> Option<char> {
        let b = *self.text.as_bytes().get(pos)?;
        if b.is_ascii() {
            Some(char::from(b))
        } else {
            self.text[pos..].chars().next()
        }
    }

    /// Advance over chars that satisfy `member`, and over a single
    /// (ASCII) `joiner` char when a member char follows it.
    #[inline]
    fn run(&mut self, member: impl Fn(char) -> bool, joiner: impl Fn(char) -> bool) {
        while let Some(c) = self.char_at(self.pos) {
            if member(c) {
                self.pos += c.len_utf8();
            } else if joiner(c) {
                match self.char_at(self.pos + 1) {
                    Some(next) if member(next) => self.pos += 1 + next.len_utf8(),
                    _ => break,
                }
            } else {
                break;
            }
        }
    }
}

impl<'a> Iterator for Tokens<'a> {
    type Item = Token<'a>;

    fn next(&mut self) -> Option<Token<'a>> {
        loop {
            let c = self.char_at(self.pos)?;
            let start = self.pos;
            self.pos += c.len_utf8();
            let kind = if c.is_whitespace() {
                continue;
            } else if c.is_alphabetic() {
                // Word: letters, with single joiners between letters.
                self.run(char::is_alphabetic, is_word_joiner);
                TokenKind::Word
            } else if c.is_ascii_digit() {
                self.run(|c| c.is_ascii_digit(), is_number_joiner);
                TokenKind::Number
            } else {
                TokenKind::Punct
            };
            return Some(Token {
                text: &self.text[start..self.pos],
                start,
                end: self.pos,
                kind,
            });
        }
    }
}

/// Split `text` into sentences. A sentence ends at `.`, `!` or `?` that is
/// followed by whitespace and (an uppercase letter, a quote, or end of
/// input). Returns byte-range slices of the original text, trimmed.
pub fn sentences(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut sent_start = 0usize;
    let chars = text.char_indices().peekable();
    for (i, c) in chars {
        if c == '.' || c == '!' || c == '?' {
            // Look ahead: whitespace then uppercase/quote/end.
            let rest = &text[i + c.len_utf8()..];
            let mut rc = rest.chars();
            match rc.next() {
                None => {
                    // end of text — close below
                }
                Some(w) if w.is_whitespace() => {
                    let next_non_ws = rest.chars().find(|ch| !ch.is_whitespace());
                    match next_non_ws {
                        None => {}
                        Some(n) if n.is_uppercase() || n == '"' || n == '\u{201C}' => {}
                        Some(_) => continue,
                    }
                }
                Some(_) => continue,
            }
            let end = i + c.len_utf8();
            let s = text[sent_start..end].trim();
            if !s.is_empty() {
                out.push(s);
            }
            sent_start = end;
        }
    }
    let tail = text[sent_start..].trim();
    if !tail.is_empty() {
        out.push(tail);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_and_numbers() {
        let toks = tokens("The G8 summit cost 1,000 dollars.");
        let texts: Vec<_> = toks.iter().map(|t| t.text).collect();
        assert_eq!(
            texts,
            vec!["The", "G", "8", "summit", "cost", "1,000", "dollars", "."]
        );
        assert_eq!(toks[5].kind, TokenKind::Number);
        assert_eq!(toks[7].kind, TokenKind::Punct);
    }

    #[test]
    fn hyphen_and_apostrophe_words() {
        let toks = tokens("O'Brien met the vice-president.");
        let texts: Vec<_> = toks.iter().map(|t| t.text).collect();
        assert_eq!(texts, vec!["O'Brien", "met", "the", "vice-president", "."]);
    }

    #[test]
    fn trailing_joiner_not_attached() {
        let toks = tokens("well- said");
        let texts: Vec<_> = toks.iter().map(|t| t.text).collect();
        assert_eq!(texts, vec!["well", "-", "said"]);
    }

    #[test]
    fn capitalization_flag() {
        let toks = tokens("Paris is big");
        assert!(toks[0].is_capitalized());
        assert!(!toks[1].is_capitalized());
    }

    #[test]
    fn spans_are_correct() {
        let text = "Jacques Chirac, 2005.";
        for t in tokens(text) {
            assert_eq!(&text[t.start..t.end], t.text);
        }
    }

    #[test]
    fn sentence_split_basic() {
        let s = sentences("The summit ended. Leaders left early! Did they meet?");
        assert_eq!(
            s,
            vec!["The summit ended.", "Leaders left early!", "Did they meet?"]
        );
    }

    #[test]
    fn sentence_abbreviation_not_split() {
        // Lowercase after period -> not a sentence boundary.
        let s = sentences("The u.s. economy grew. It boomed.");
        assert_eq!(s, vec!["The u.s. economy grew.", "It boomed."]);
    }

    #[test]
    fn sentence_no_terminal() {
        let s = sentences("no terminal punctuation here");
        assert_eq!(s, vec!["no terminal punctuation here"]);
    }

    #[test]
    fn empty_input() {
        assert!(tokens("").is_empty());
        assert!(sentences("").is_empty());
        assert!(sentences("   ").is_empty());
    }

    #[test]
    fn unicode_words() {
        let toks = tokens("Café français");
        let texts: Vec<_> = toks.iter().map(|t| t.text).collect();
        assert_eq!(texts, vec!["Café", "français"]);
    }
}
