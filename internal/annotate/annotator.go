// Package annotate implements the extensible Semantic Annotation service
// of §3: dictionary-based mention detection over entity aliases
// (Aho-Corasick), candidate generation, and entity linking with three
// interchangeable ranking modes — lexical, popularity, and contextual
// reranking — reflecting the paper's "modular, allowing custom deployments
// for different use-cases" design. The contextual mode follows §3's
// recipe: precomputed embeddings of the textual features of KG entities
// (name, description, popularity) compared against an embedding of the
// mention's surrounding context.
package annotate

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"saga/internal/kg"
	"saga/internal/textutil"
	"saga/internal/vecindex"
)

// Mode selects the candidate-ranking component, per the paper's modular
// deployments trading quality for cost.
type Mode string

const (
	// ModeLexical ranks candidates by surface-form similarity only: the
	// cheapest deployment, no KG signals.
	ModeLexical Mode = "lexical"
	// ModePopularity adds the entity popularity prior.
	ModePopularity Mode = "popularity"
	// ModeContextual adds contextual reranking with cached text-feature
	// embeddings: the highest-quality deployment.
	ModeContextual Mode = "contextual"
)

// embedDim is the dimensionality of the hashed text-feature embeddings.
const embedDim = 64

// Config configures an Annotator.
type Config struct {
	// Mode selects the ranking component; default ModeContextual.
	Mode Mode
	// ContextWindow is the number of bytes of document text on each side
	// of a mention embedded as linking context; default 200.
	ContextWindow int
	// MinScore suppresses annotations whose best candidate scores below
	// it; default 0 (emit everything).
	MinScore float64
	// Seed drives embedding hashing.
	Seed int64
}

func (c *Config) setDefaults() {
	if c.Mode == "" {
		c.Mode = ModeContextual
	}
	if c.ContextWindow <= 0 {
		c.ContextWindow = 200
	}
}

// Candidate is one entity hypothesis for a mention.
type Candidate struct {
	Entity kg.EntityID
	Score  float64
}

// Annotation is one linked mention in a document.
type Annotation struct {
	// Start/End are byte offsets into the annotated text.
	Start, End int
	Surface    string
	// Entity is the chosen link target.
	Entity kg.EntityID
	// Score of the winning candidate.
	Score float64
	// Candidates holds the full ranked candidate list (best first).
	Candidates []Candidate
}

// Annotator links text to KG entities. Build once with New; Annotate is
// safe for concurrent use.
type Annotator struct {
	g   *kg.Graph
	cfg Config

	matcher *textutil.Matcher
	// patEnts maps automaton pattern ID -> candidate entities sharing that
	// alias; patNorm holds the pattern itself, the normalized alias, which
	// is also the normalized surface of anything the pattern matches.
	patEnts [][]kg.EntityID
	patNorm []string

	// ents holds what ranking needs of every entity, derived once at New.
	ents map[kg.EntityID]entityInfo

	// Token feature vectors. vocab holds every token of the entity names
	// and descriptions seen at New and is immutable afterwards, so it is
	// read without a lock; featCache memoizes tokens that only requests
	// have brought (document words, window-edge fragments) and is dropped
	// wholesale at featCacheMax entries.
	vocab     map[string]vecindex.Vector
	featMu    sync.RWMutex
	featCache map[string]vecindex.Vector
}

// entityInfo is the per-entity state ranking reads instead of re-deriving
// it per candidate.
type entityInfo struct {
	name     string // Entity.Name at New; normName is stale once they differ
	normName string // NormalizePhrase(name)
	// vec is the cached text-feature embedding of the entity — the
	// precomputed entity embeddings of §3.2 — and norm its L2 norm
	// (contextual mode only).
	vec  vecindex.Vector
	norm float32
}

// featCacheMax bounds the request-time feature cache (about 5 MB of
// 64-dimensional vectors). /annotate is a public endpoint: without a
// bound every distinct token ever posted would stay resident.
const featCacheMax = 1 << 14

// New builds an annotator over the graph's entity alias dictionary.
func New(g *kg.Graph, cfg Config) (*Annotator, error) {
	cfg.setDefaults()
	a := &Annotator{
		g:         g,
		cfg:       cfg,
		ents:      make(map[kg.EntityID]entityInfo),
		featCache: make(map[string]vecindex.Vector),
	}
	builder := textutil.NewMatcherBuilder()
	// alias -> pattern id dedup: multiple entities share one pattern.
	patByAlias := make(map[string]int)
	g.Entities(func(e *kg.Entity) bool {
		aliases := e.Aliases
		if len(aliases) == 0 {
			aliases = []string{e.Name}
		}
		for _, al := range aliases {
			norm := textutil.NormalizePhrase(al)
			if norm == "" {
				continue
			}
			pid, ok := patByAlias[norm]
			if !ok {
				pid = builder.AddPhrase(norm)
				if pid < 0 {
					continue
				}
				patByAlias[norm] = pid
				a.patEnts = append(a.patEnts, nil)
				a.patNorm = append(a.patNorm, norm)
			}
			a.patEnts[pid] = append(a.patEnts[pid], e.ID)
		}
		info := entityInfo{name: e.Name, normName: textutil.NormalizePhrase(e.Name)}
		if cfg.Mode == ModeContextual {
			info.vec = make(vecindex.Vector, embedDim)
			a.addText(info.vec, e.Name+" "+e.Description)
			vecindex.Normalize(info.vec)
			info.norm = vecindex.Norm(info.vec)
		}
		a.ents[e.ID] = info
		return true
	})
	if len(a.ents) == 0 {
		return nil, fmt.Errorf("annotate: graph has no entities")
	}
	a.matcher = builder.Build()
	// Everything cached so far is the build-time vocabulary.
	a.vocab, a.featCache = a.featCache, make(map[string]vecindex.Vector)
	return a, nil
}

// Annotate links all detected mentions in text. The text is tokenized
// once: mention detection, surface normalization and every mention's
// context vector all work from that one token list.
func (a *Annotator) Annotate(text string) []Annotation {
	tokens := textutil.Tokenize(text)
	if len(tokens) == 0 {
		return nil
	}
	words := make([]string, len(tokens))
	for i, t := range tokens {
		words[i] = t.Text
	}
	spans := resolveOverlaps(a.matcher.Match(words), len(tokens))
	var feats []vecindex.Vector // token features, looked up on first use
	if a.cfg.Mode == ModeContextual && len(spans) > 0 {
		feats = make([]vecindex.Vector, len(tokens))
	}

	out := make([]Annotation, 0, len(spans))
	for _, m := range spans {
		var ctxVec vecindex.Vector
		if a.cfg.Mode == ModeContextual {
			ctxVec = a.contextVector(text, tokens, feats, m)
		}
		cands := a.rankCandidates(a.patNorm[m.Pattern], a.patEnts[m.Pattern], ctxVec)
		if len(cands) == 0 {
			continue
		}
		best := cands[0]
		if best.Score < a.cfg.MinScore {
			continue
		}
		startByte, endByte := tokens[m.Start].Start, tokens[m.End-1].End
		out = append(out, Annotation{
			Start:      startByte,
			End:        endByte,
			Surface:    text[startByte:endByte],
			Entity:     best.Entity,
			Score:      best.Score,
			Candidates: cands,
		})
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// resolveOverlaps keeps a non-overlapping subset of matches over a text
// of nTokens tokens, preferring longer spans, then earlier ones (standard
// longest-match annotation policy: "New York City" beats "New York" beats
// "York").
func resolveOverlaps(matches []textutil.TokenMatch, nTokens int) []textutil.TokenMatch {
	sorted := append([]textutil.TokenMatch(nil), matches...)
	sort.Slice(sorted, func(i, j int) bool {
		li := sorted[i].End - sorted[i].Start
		lj := sorted[j].End - sorted[j].Start
		if li != lj {
			return li > lj
		}
		if sorted[i].Start != sorted[j].Start {
			return sorted[i].Start < sorted[j].Start
		}
		return sorted[i].Pattern < sorted[j].Pattern
	})
	var kept []textutil.TokenMatch
	used := make([]bool, nTokens)
	for _, m := range sorted {
		free := true
		for t := m.Start; t < m.End; t++ {
			if used[t] {
				free = false
				break
			}
		}
		if !free {
			continue
		}
		for t := m.Start; t < m.End; t++ {
			used[t] = true
		}
		kept = append(kept, m)
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].Start < kept[j].Start })
	return kept
}

// contextVector embeds the text within ContextWindow bytes on each side
// of mention m, the mention itself excluded so ambiguous candidates are
// not all boosted equally by their shared surface form. It is the
// embedding of text[lo:start] + " " + text[end:hi] without building or
// re-tokenizing that string: a document token wholly inside the window
// contributes its feature as it stands, and the at most two tokens the
// window's edges cut (possibly mid-rune) are tokenized as the fragments
// they are. Token features are vectors of ±1, so the sums are small
// integers, exact in float32 in any order.
func (a *Annotator) contextVector(text string, tokens []textutil.Token, feats []vecindex.Vector, m textutil.TokenMatch) vecindex.Vector {
	lo := tokens[m.Start].Start - a.cfg.ContextWindow
	if lo < 0 {
		lo = 0
	}
	hi := tokens[m.End-1].End + a.cfg.ContextWindow
	if hi > len(text) {
		hi = len(text)
	}
	vec := make(vecindex.Vector, embedDim)
	addToken := func(i int) {
		if feats[i] == nil {
			feats[i] = a.tokenFeature(tokens[i].Text)
		}
		for d, x := range feats[i] {
			vec[d] += x
		}
	}
	i := m.Start - 1
	for ; i >= 0 && tokens[i].Start >= lo; i-- {
		addToken(i)
	}
	if i >= 0 && tokens[i].End > lo {
		a.addText(vec, text[lo:tokens[i].End])
	}
	i = m.End
	for ; i < len(tokens) && tokens[i].End <= hi; i++ {
		addToken(i)
	}
	if i < len(tokens) && tokens[i].Start < hi {
		a.addText(vec, text[tokens[i].Start:hi])
	}
	return vecindex.Normalize(vec)
}

// rankCandidates scores each candidate entity for a mention whose
// normalized surface is normSurface, according to the configured mode.
func (a *Annotator) rankCandidates(normSurface string, ents []kg.EntityID, ctxVec vecindex.Vector) []Candidate {
	if len(ents) == 0 {
		return nil
	}
	ctxNorm := vecindex.Norm(ctxVec)
	out := make([]Candidate, 0, len(ents))
	for _, id := range ents {
		e := a.g.Entity(id)
		if e == nil {
			continue
		}
		info := a.ents[id]
		if e.Name != info.name { // renamed since New
			info.normName = textutil.NormalizePhrase(e.Name)
		}
		score := textutil.JaroWinkler(normSurface, info.normName)
		switch a.cfg.Mode {
		case ModeLexical:
			// surface similarity only
		case ModePopularity:
			score = 0.5*score + 0.5*e.Popularity
		case ModeContextual:
			var ctx float32 // cosine of context and entity embeddings; 0 if either is a zero vector
			if ctxNorm != 0 && info.norm != 0 {
				ctx = vecindex.Dot(ctxVec, info.vec) / (ctxNorm * info.norm)
			}
			score = 0.25*score + 0.15*e.Popularity + 0.6*float64(ctx)
		}
		out = append(out, Candidate{Entity: id, Score: score})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Entity < out[j].Entity
	})
	return out
}

// addText adds to vec the feature vector of every token of text. A text's
// hashed bag-of-words embedding — the sum of deterministic pseudo-random
// token vectors, L2-normalized — plays the role of the paper's
// textual-feature embeddings; it is training-free and cheap enough to
// precompute for every entity.
func (a *Annotator) addText(vec vecindex.Vector, text string) {
	for _, tok := range textutil.Tokenize(text) {
		for d, x := range a.tokenFeature(tok.Text) {
			vec[d] += x
		}
	}
}

func (a *Annotator) tokenFeature(token string) vecindex.Vector {
	if v, ok := a.vocab[token]; ok {
		return v
	}
	a.featMu.RLock()
	v, ok := a.featCache[token]
	a.featMu.RUnlock()
	if ok {
		return v
	}
	h := fnv.New64a()
	h.Write([]byte(token))
	rng := rand.New(rand.NewSource(int64(h.Sum64()) ^ a.cfg.Seed))
	v = make(vecindex.Vector, embedDim)
	for i := range v {
		if rng.Intn(2) == 0 {
			v[i] = 1
		} else {
			v[i] = -1
		}
	}
	a.featMu.Lock()
	if len(a.featCache) >= featCacheMax {
		a.featCache = make(map[string]vecindex.Vector)
	}
	// The token may be a substring of a request body; the key must not
	// pin it.
	a.featCache[strings.Clone(token)] = v
	a.featMu.Unlock()
	return v
}
