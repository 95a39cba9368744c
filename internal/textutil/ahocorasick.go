package textutil

// Matcher is an Aho-Corasick automaton over word tokens (not characters):
// patterns are token sequences, and matching runs in time linear in the
// number of document tokens plus the number of matches. Token-level
// matching keeps the automaton small for entity-alias dictionaries with
// millions of multi-word names and guarantees matches align to word
// boundaries, which character-level matching would not.
//
// Build the automaton once with NewMatcher, then call Match concurrently:
// a built Matcher is immutable and safe for concurrent use.
type Matcher struct {
	nodes []acNode
	// patterns[i] is the token length of pattern i (for offset recovery).
	patternLens []int
}

type acNode struct {
	next map[string]int32
	fail int32
	// output lists pattern IDs ending at this node.
	output []int32
}

// MatcherBuilder accumulates patterns before building the automaton.
type MatcherBuilder struct {
	nodes       []acNode
	patternLens []int
}

// NewMatcherBuilder returns an empty builder.
func NewMatcherBuilder() *MatcherBuilder {
	return &MatcherBuilder{nodes: []acNode{{next: make(map[string]int32)}}}
}

// Add inserts a pattern given as its normalized token sequence and returns
// the pattern ID. Empty patterns are ignored and return -1. Duplicate
// pattern token sequences get distinct IDs (both are reported on match),
// which lets callers register the same alias for multiple entities.
func (b *MatcherBuilder) Add(tokens []string) int {
	if len(tokens) == 0 {
		return -1
	}
	cur := int32(0)
	for _, tok := range tokens {
		next, ok := b.nodes[cur].next[tok]
		if !ok {
			next = int32(len(b.nodes))
			b.nodes = append(b.nodes, acNode{next: make(map[string]int32)})
			b.nodes[cur].next[tok] = next
		}
		cur = next
	}
	id := int32(len(b.patternLens))
	b.patternLens = append(b.patternLens, len(tokens))
	b.nodes[cur].output = append(b.nodes[cur].output, id)
	return int(id)
}

// AddPhrase tokenizes and adds a surface-form phrase.
func (b *MatcherBuilder) AddPhrase(phrase string) int {
	toks := Tokenize(phrase)
	if len(toks) == 0 {
		return -1
	}
	words := make([]string, len(toks))
	for i, t := range toks {
		words[i] = t.Text
	}
	return b.Add(words)
}

// Build computes failure links breadth-first and returns the immutable
// matcher. The builder must not be used afterwards.
func (b *MatcherBuilder) Build() *Matcher {
	m := &Matcher{nodes: b.nodes, patternLens: b.patternLens}
	queue := make([]int32, 0, len(m.nodes))
	for _, child := range m.nodes[0].next {
		m.nodes[child].fail = 0
		queue = append(queue, child)
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for tok, child := range m.nodes[cur].next {
			queue = append(queue, child)
			// Follow failure links of cur to find the longest proper
			// suffix state that has a tok transition.
			f := m.nodes[cur].fail
			for {
				if nxt, ok := m.nodes[f].next[tok]; ok && nxt != child {
					m.nodes[child].fail = nxt
					break
				}
				if f == 0 {
					m.nodes[child].fail = 0
					break
				}
				f = m.nodes[f].fail
			}
			// Merge output of the failure target so matches ending at
			// suffix states are reported too.
			ft := m.nodes[child].fail
			if len(m.nodes[ft].output) > 0 {
				m.nodes[child].output = append(m.nodes[child].output, m.nodes[ft].output...)
			}
		}
	}
	return m
}

// TokenMatch reports one pattern occurrence over a token sequence.
type TokenMatch struct {
	Pattern int // pattern ID as returned by Add
	// Start and End are token indexes: tokens[Start:End] is the match.
	Start, End int
}

// Match runs the automaton over the token texts and returns all pattern
// occurrences, including overlapping ones.
func (m *Matcher) Match(tokens []string) []TokenMatch {
	var out []TokenMatch
	cur := int32(0)
	for i, tok := range tokens {
		for {
			if next, ok := m.nodes[cur].next[tok]; ok {
				cur = next
				break
			}
			if cur == 0 {
				break
			}
			cur = m.nodes[cur].fail
		}
		for _, pid := range m.nodes[cur].output {
			plen := m.patternLens[pid]
			out = append(out, TokenMatch{Pattern: int(pid), Start: i - plen + 1, End: i + 1})
		}
	}
	return out
}
