// Package textutil provides the text-processing substrate for the semantic
// annotation service: tokenization, string-similarity metrics, and an
// Aho-Corasick multi-pattern matcher used for dictionary-based mention
// detection over large corpora.
package textutil

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Token is a single token with its byte offsets in the original text.
type Token struct {
	Text  string
	Start int // byte offset of first byte
	End   int // byte offset one past last byte
}

// Tokenize splits text into lowercase, diacritic-folded word tokens,
// recording byte offsets. A token is a maximal run of letters, digits,
// apostrophes, or hyphens. Offsets refer to the original text so
// annotations can be mapped back onto documents. Folding (café → cafe,
// Beyoncé → beyonce) makes alias matching accent-insensitive, the
// lightweight multilingual requirement of §3.2.
//
// ASCII is classified and lowercased through a table, and a token that
// is ASCII and already lowercase is a substring of text (no allocation;
// a caller that keeps such a token beyond the text's life should
// strings.Clone it). Any token holding a non-ASCII rune goes through
// strings.ToLower and FoldString. Bytes that are not valid UTF-8 separate
// tokens.
func Tokenize(text string) []Token {
	var tokens []Token
	start := -1
	ascii, lower := true, true // what the token being scanned has been so far
	emit := func(s, e int) {
		if tokens == nil {
			tokens = make([]Token, 0, (len(text)-s)/5+1)
		}
		tok := text[s:e]
		switch {
		case !ascii:
			tok = FoldString(strings.ToLower(tok))
		case !lower:
			buf := make([]byte, len(tok))
			for i := range buf {
				buf[i] = asciiWord[tok[i]]
			}
			tok = string(buf)
		}
		tokens = append(tokens, Token{Text: tok, Start: s, End: e})
		ascii, lower = true, true
	}
	for i := 0; i < len(text); {
		c, width, word := text[i], 1, false
		if c < utf8.RuneSelf {
			lc := asciiWord[c]
			word = lc != 0
			if word && lc != c {
				lower = false
			}
		} else {
			var r rune
			r, width = utf8.DecodeRuneInString(text[i:])
			if word = isWordRune(r); word {
				ascii = false
			}
		}
		if word {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			emit(start, i)
			start = -1
		}
		i += width
	}
	if start >= 0 {
		emit(start, len(text))
	}
	return tokens
}

// asciiWord maps an ASCII word byte to its lowercase form and every other
// ASCII byte to 0.
var asciiWord = func() (t [utf8.RuneSelf]byte) {
	for c := range t {
		if r := rune(c); isWordRune(r) {
			t[c] = byte(unicode.ToLower(r))
		}
	}
	return t
}()

func isWordRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '\'' || r == '-'
}

// NormalizePhrase lowercases a phrase and collapses it to single-space
// separated word tokens, so that "Joe  ROOT " and "joe root" compare equal.
func NormalizePhrase(s string) string {
	toks := Tokenize(s)
	parts := make([]string, len(toks))
	for i, t := range toks {
		parts[i] = t.Text
	}
	return strings.Join(parts, " ")
}

// Sentences splits text into sentence-sized spans on '.', '!', '?' and
// newline boundaries. It returns byte-offset spans. This is intentionally a
// lightweight splitter: annotation windows only need approximate locality.
type Span struct {
	Start, End int
}

// SplitSentences returns approximate sentence spans of text.
func SplitSentences(text string) []Span {
	var spans []Span
	start := 0
	for i, r := range text {
		if r == '.' || r == '!' || r == '?' || r == '\n' {
			if i > start {
				spans = append(spans, Span{Start: start, End: i + 1})
			}
			start = i + 1
		}
	}
	if start < len(text) {
		spans = append(spans, Span{Start: start, End: len(text)})
	}
	return spans
}
