package textutil

import "strings"

// jaroStack is how many runes of each string JaroWinkler handles in
// buffers on its own stack; names and surface forms are shorter, so
// comparing them allocates nothing.
const jaroStack = 64

// runesOf appends the runes of s to buf.
func runesOf(buf []rune, s string) []rune {
	for _, r := range s {
		buf = append(buf, r)
	}
	return buf
}

// jaro computes the Jaro similarity of two rune strings in [0,1].
func jaro(ra, rb []rune) float64 {
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
	var bufA, bufB [jaroStack]bool
	matchA, matchB := bufA[:], bufB[:]
	if len(ra) > jaroStack {
		matchA = make([]bool, len(ra))
	}
	if len(rb) > jaroStack {
		matchB = make([]bool, len(rb))
	}
	var matches int
	for i := range ra {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > len(rb) {
			hi = len(rb)
		}
		for j := lo; j < hi; j++ {
			if matchB[j] || ra[i] != rb[j] {
				continue
			}
			matchA[i] = true
			matchB[j] = true
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

// JaroWinkler boosts Jaro similarity for strings sharing a common prefix
// (up to 4 runes), with the standard scaling factor 0.1.
func JaroWinkler(a, b string) float64 {
	var bufA, bufB [jaroStack]rune
	ra, rb := runesOf(bufA[:0], a), runesOf(bufB[:0], b)
	j := jaro(ra, rb)
	prefix := 0
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

// DigitsOnly strips every non-digit rune; used to canonicalize phone
// numbers before matching ("+1 (123) 555 1234" == "123-555-1234" modulo
// country code handling done by the caller).
func DigitsOnly(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r >= '0' && r <= '9' {
			b.WriteRune(r)
		}
	}
	return b.String()
}

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}
