package textutil

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenizeOffsets(t *testing.T) {
	text := "Root hits hundred, as England turn!"
	toks := Tokenize(text)
	want := []string{"root", "hits", "hundred", "as", "england", "turn"}
	if len(toks) != len(want) {
		t.Fatalf("tokens = %v", toks)
	}
	for i, w := range want {
		if toks[i].Text != w {
			t.Errorf("token %d = %q, want %q", i, toks[i].Text, w)
		}
		if got := strings.ToLower(text[toks[i].Start:toks[i].End]); got != w {
			t.Errorf("offsets of token %d recover %q, want %q", i, got, w)
		}
	}
}

func TestTokenizeEdgeCases(t *testing.T) {
	if got := Tokenize(""); len(got) != 0 {
		t.Fatalf("Tokenize(\"\") = %v", got)
	}
	if got := Tokenize("   ...   "); len(got) != 0 {
		t.Fatalf("Tokenize(punct) = %v", got)
	}
	got := Tokenize("O'Brien's co-worker")
	if len(got) != 2 || got[0].Text != "o'brien's" || got[1].Text != "co-worker" {
		t.Fatalf("apostrophe/hyphen tokens = %v", got)
	}
	uni := Tokenize("café au lait")
	if len(uni) != 3 || uni[0].Text != "cafe" {
		t.Fatalf("unicode tokens (folded) = %v", uni)
	}
	// Trailing token without terminator.
	tail := Tokenize("end token")
	if len(tail) != 2 || tail[1].End != len("end token") {
		t.Fatalf("trailing token = %v", tail)
	}
}

func TestNormalizePhrase(t *testing.T) {
	if got := NormalizePhrase("  Joe   ROOT "); got != "joe root" {
		t.Fatalf("NormalizePhrase = %q", got)
	}
	if got := NormalizePhrase("Smith, Tim"); got != "smith tim" {
		t.Fatalf("NormalizePhrase = %q", got)
	}
}

func TestSplitSentences(t *testing.T) {
	spans := SplitSentences("One. Two! Three?\nFour")
	if len(spans) != 4 {
		t.Fatalf("spans = %v", spans)
	}
	text := "One. Two! Three?\nFour"
	if got := text[spans[0].Start:spans[0].End]; got != "One." {
		t.Fatalf("first sentence = %q", got)
	}
	if got := text[spans[3].Start:spans[3].End]; got != "Four" {
		t.Fatalf("last sentence = %q", got)
	}
}

func TestJaroWinkler(t *testing.T) {
	if got := JaroWinkler("martha", "marhta"); math.Abs(got-0.9611) > 0.001 {
		t.Fatalf("JW(martha,marhta) = %v, want ~0.9611", got)
	}
	if got := JaroWinkler("dixon", "dicksonx"); math.Abs(got-0.8133) > 0.005 {
		t.Fatalf("JW(dixon,dicksonx) = %v, want ~0.813", got)
	}
	if got := JaroWinkler("", ""); got != 1 {
		t.Fatalf("JW empty = %v", got)
	}
	if got := JaroWinkler("a", ""); got != 0 {
		t.Fatalf("JW one-empty = %v", got)
	}
	if JaroWinkler("michelle", "michelle") != 1 {
		t.Fatal("JW identical != 1")
	}
}

func TestDigitsOnly(t *testing.T) {
	if got := DigitsOnly("+1 (123) 555-1234"); got != "11235551234" {
		t.Fatalf("DigitsOnly = %q", got)
	}
	if got := DigitsOnly("no digits"); got != "" {
		t.Fatalf("DigitsOnly = %q", got)
	}
}

func TestMatcherBasic(t *testing.T) {
	b := NewMatcherBuilder()
	jordan := b.AddPhrase("Michael Jordan")
	michael := b.AddPhrase("Michael")
	bulls := b.AddPhrase("Chicago Bulls")
	m := b.Build()

	toks := tokensOf("Michael Jordan played for the Chicago Bulls.")
	matches := m.Match(toks)
	found := map[int][2]int{}
	for _, mt := range matches {
		found[mt.Pattern] = [2]int{mt.Start, mt.End}
	}
	if got, ok := found[jordan]; !ok || got != [2]int{0, 2} {
		t.Fatalf("Michael Jordan match = %v, %v", got, ok)
	}
	if got, ok := found[michael]; !ok || got != [2]int{0, 1} {
		t.Fatalf("overlapping prefix match = %v, %v", got, ok)
	}
	if got, ok := found[bulls]; !ok || got != [2]int{5, 7} {
		t.Fatalf("Chicago Bulls match = %v, %v", got, ok)
	}
}

func TestMatcherSuffixViaFailureLinks(t *testing.T) {
	b := NewMatcherBuilder()
	ab := b.Add([]string{"a", "b"})
	bc := b.Add([]string{"b", "c"})
	c := b.Add([]string{"c"})
	m := b.Build()
	matches := m.Match([]string{"a", "b", "c"})
	seen := map[int]bool{}
	for _, mt := range matches {
		seen[mt.Pattern] = true
	}
	for name, id := range map[string]int{"ab": ab, "bc": bc, "c": c} {
		if !seen[id] {
			t.Errorf("pattern %s not matched; matches = %v", name, matches)
		}
	}
}

func TestMatcherNoFalsePositives(t *testing.T) {
	b := NewMatcherBuilder()
	b.AddPhrase("new york city")
	m := b.Build()
	if got := m.Match(tokensOf("new york state of mind")); len(got) != 0 {
		t.Fatalf("false positive: %v", got)
	}
	if got := m.Match(nil); len(got) != 0 {
		t.Fatalf("match on empty input: %v", got)
	}
}

func TestMatcherDuplicatePatterns(t *testing.T) {
	b := NewMatcherBuilder()
	p1 := b.AddPhrase("michael jordan")
	p2 := b.AddPhrase("michael jordan") // same alias, second entity
	m := b.Build()
	if p1 == p2 {
		t.Fatal("duplicate patterns must get distinct IDs")
	}
	matches := m.Match(tokensOf("michael jordan"))
	if len(matches) != 2 {
		t.Fatalf("want both duplicate patterns reported, got %v", matches)
	}
}

func TestMatcherEmptyPattern(t *testing.T) {
	b := NewMatcherBuilder()
	if id := b.Add(nil); id != -1 {
		t.Fatalf("empty pattern id = %d, want -1", id)
	}
	if id := b.AddPhrase("  !!  "); id != -1 {
		t.Fatalf("punctuation-only phrase id = %d, want -1", id)
	}
	m := b.Build()
	if n := len(m.patternLens); n != 0 {
		t.Fatalf("%d patterns registered, want none", n)
	}
}

// Property: every match reported by the automaton is a real occurrence,
// and a naive scan finds exactly the same match set.
func TestMatcherAgainstNaive(t *testing.T) {
	vocab := []string{"a", "b", "c", "d"}
	f := func(patRaw []uint8, textRaw []uint8) bool {
		if len(patRaw) == 0 {
			return true
		}
		// Derive up to 6 patterns of lengths 1..3 from fuzz bytes.
		b := NewMatcherBuilder()
		var patterns [][]string
		for i := 0; i+2 < len(patRaw) && len(patterns) < 6; i += 3 {
			plen := int(patRaw[i])%3 + 1
			var pat []string
			for j := 0; j < plen; j++ {
				pat = append(pat, vocab[int(patRaw[(i+j+1)%len(patRaw)])%len(vocab)])
			}
			b.Add(pat)
			patterns = append(patterns, pat)
		}
		text := make([]string, 0, len(textRaw))
		for _, x := range textRaw {
			text = append(text, vocab[int(x)%len(vocab)])
		}
		m := b.Build()
		got := map[TokenMatch]bool{}
		for _, mt := range m.Match(text) {
			got[mt] = true
		}
		want := map[TokenMatch]bool{}
		for pid, pat := range patterns {
			for i := 0; i+len(pat) <= len(text); i++ {
				ok := true
				for j := range pat {
					if text[i+j] != pat[j] {
						ok = false
						break
					}
				}
				if ok {
					want[TokenMatch{Pattern: pid, Start: i, End: i + len(pat)}] = true
				}
			}
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func tokensOf(s string) []string {
	toks := Tokenize(s)
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.Text
	}
	return out
}

func TestFoldString(t *testing.T) {
	cases := []struct{ in, want string }{
		{"beyoncé", "beyonce"},
		{"josé", "jose"},
		{"straße", "strasse"},
		{"œuvre", "oeuvre"},
		{"ærø", "aero"},
		{"plain ascii", "plain ascii"},
		{"日本語", "日本語"}, // non-Latin passes through
	}
	for _, c := range cases {
		if got := FoldString(c.in); got != c.want {
			t.Errorf("FoldString(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestTokenizeAccentInsensitiveMatching(t *testing.T) {
	// An accented alias and an unaccented mention produce identical token
	// text (and vice versa), so the Aho-Corasick dictionary matches both.
	a := Tokenize("Beyoncé Knowles")
	b := Tokenize("Beyonce Knowles")
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("tokens = %v / %v", a, b)
	}
	for i := range a {
		if a[i].Text != b[i].Text {
			t.Fatalf("token %d differs: %q vs %q", i, a[i].Text, b[i].Text)
		}
	}
	// Offsets still index the original accented bytes.
	if a[0].End-a[0].Start != len("Beyoncé") {
		t.Fatalf("offsets broken for accented token: %v", a[0])
	}
}
