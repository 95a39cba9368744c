package textutil

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

// refFoldTable, refFoldString and refTokenize are the tokenizer this
// package shipped until PR 18, kept as the differential reference: every
// token goes through strings.ToLower, a []rune and one map probe per rune.
var refFoldTable = func() map[rune]rune {
	m := make(map[rune]rune)
	for r, f := range foldTable {
		if f != 0 {
			m[rune(r)] = f
		}
	}
	return m
}()

func refFoldString(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch r {
		case 'æ':
			out = append(out, 'a', 'e')
		case 'œ':
			out = append(out, 'o', 'e')
		case 'ß':
			out = append(out, 's', 's')
		default:
			if f, ok := refFoldTable[r]; ok {
				r = f
			}
			out = append(out, r)
		}
	}
	return string(out)
}

func refTokenize(text string) []Token {
	var tokens []Token
	start := -1
	emit := func(s, e int) {
		tokens = append(tokens, Token{Text: refFoldString(strings.ToLower(text[s:e])), Start: s, End: e})
	}
	for i, r := range text {
		if isWordRune(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			emit(start, i)
			start = -1
		}
	}
	if start >= 0 {
		emit(start, len(text))
	}
	return tokens
}

// refJaro is Jaro before it learned to keep short inputs on its stack.
func refJaro(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 && len(rb) == 0 {
		return 1
	}
	if len(ra) == 0 || len(rb) == 0 {
		return 0
	}
	window := max2(len(ra), len(rb))/2 - 1
	if window < 0 {
		window = 0
	}
	matchA, matchB := make([]bool, len(ra)), make([]bool, len(rb))
	var matches int
	for i := range ra {
		lo, hi := i-window, i+window+1
		if lo < 0 {
			lo = 0
		}
		if hi > len(rb) {
			hi = len(rb)
		}
		for j := lo; j < hi; j++ {
			if matchB[j] || ra[i] != rb[j] {
				continue
			}
			matchA[i], matchB[j] = true, true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	var transpositions int
	j := 0
	for i := range ra {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(len(ra)) + m/float64(len(rb)) + (m-t)/m) / 3
}

func refJaroWinkler(a, b string) float64 {
	j := refJaro(a, b)
	prefix := 0
	ra, rb := []rune(a), []rune(b)
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

var tokenizeSeeds = []string{
	"", " ", "a", "A", "Hello, World!", "joe  ROOT ", "it's a well-known fact — O'Neil said",
	"Beyoncé and JOSÉ ÑANDÚ at the CAFÉ", "Große STRASSE, Æsir œuvre, þorn ÞORN ðeth",
	"日本語 テキスト mixed with ASCII words", "İstanbul ıllı DŽ ǅ ǆ ſ K (kelvin) Å",
	"x\xffy \xc3 z\xe2\x82w \xf0\x9f\x98 tail\xc3", "\xed\xa0\x80 surrogate \xc0\x80 overlong",
	"tabs\tand\nnewlines\r\n123-456 '' -- a-b-c 3.14 50% #7", "٣ arabic digit ① circled Ⅷ roman ½",
}

func checkTokenize(t testing.TB, text string) {
	t.Helper()
	got, want := Tokenize(text), refTokenize(text)
	if len(got) == 0 && len(want) == 0 {
		if got != nil {
			t.Fatalf("Tokenize(%q) = %#v, want nil", text, got)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize(%q)\n got %q\nwant %q", text, got, want)
	}
}

func TestTokenizeMatchesReference(t *testing.T) {
	for _, s := range tokenizeSeeds {
		checkTokenize(t, s)
	}
	// Random strings over an alphabet dense in the interesting cases.
	alphabet := []string{"a", "B", "z", "Z", "0", "9", "'", "-", " ", ".", ",", "\n", "é", "É", "ß", "Æ", "œ", "ł", "Ł",
		"日", "—", "\xff", "\xc3", "\xe2\x82", "İ", "ǅ", "K", "٣"}
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 20000; i++ {
		var sb strings.Builder
		for n := rng.Intn(24); n > 0; n-- {
			sb.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		checkTokenize(t, sb.String())
	}
}

func FuzzTokenize(f *testing.F) {
	for _, s := range tokenizeSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		checkTokenize(t, text)
		for _, tok := range Tokenize(text) {
			if tok.Start < 0 || tok.End > len(text) || tok.Start >= tok.End {
				t.Fatalf("Tokenize(%q): token %+v out of range", text, tok)
			}
			if !utf8.ValidString(text[tok.Start:tok.End]) {
				t.Fatalf("Tokenize(%q): token %+v spans invalid UTF-8", text, tok)
			}
		}
	})
}

// A lowercase ASCII text tokenizes in one allocation: the token slice.
func TestTokenizeASCIIAllocations(t *testing.T) {
	text := "the quick brown fox jumps over the lazy dog and keeps on running through the well-known field"
	if n := testing.AllocsPerRun(100, func() { Tokenize(text) }); n > 1 {
		t.Fatalf("Tokenize of lowercase ASCII allocates %v times, want 1", n)
	}
}

func TestFoldRuneMatchesReference(t *testing.T) {
	for r := rune(-1); r < 0x3000; r++ {
		want := r
		if f, ok := refFoldTable[r]; ok {
			want = f
		}
		if got := FoldRune(r); got != want {
			t.Fatalf("FoldRune(%U) = %U, want %U", r, got, want)
		}
	}
}

func TestJaroWinklerMatchesReference(t *testing.T) {
	alphabet := []rune("abcde éß日")
	rng := rand.New(rand.NewSource(18))
	random := func(maxLen int) string {
		rs := make([]rune, rng.Intn(maxLen+1))
		for i := range rs {
			rs[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(rs)
	}
	for i := 0; i < 5000; i++ {
		maxLen := []int{6, 30, 3 * jaroStack}[i%3] // the last straddles the stack buffers
		a, b := random(maxLen), random(maxLen)
		if got, want := JaroWinkler(a, b), refJaroWinkler(a, b); got != want {
			t.Fatalf("JaroWinkler(%q, %q) = %v, want %v", a, b, got, want)
		}
		if got, want := jaro([]rune(a), []rune(b)), refJaro(a, b); got != want {
			t.Fatalf("jaro(%q, %q) = %v, want %v", a, b, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { JaroWinkler("joe root", "joseph edward root") }); n != 0 {
		t.Fatalf("JaroWinkler of two names allocates %v times", n)
	}
}
