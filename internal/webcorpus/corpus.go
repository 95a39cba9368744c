// Package webcorpus generates the synthetic Web document corpus that
// substitutes for the paper's billion-scale crawl (Fig 4). Documents are
// generated from knowledge-graph entities with gold mention annotations
// (including planted ambiguous mentions whose resolution requires
// context), page-quality priors, optional schema.org-style infobox
// key-value payloads for the ODKE rule-based extractor, and a change
// model for incremental re-annotation experiments.
package webcorpus

import (
	"fmt"
	"math/rand"
	"strings"

	"saga/internal/kg"
	"saga/internal/workload"
)

// GoldMention is a ground-truth entity mention in a document.
type GoldMention struct {
	// Start/End are byte offsets into Document.Text.
	Start, End int
	// Entity is the correct KG entity for this mention.
	Entity kg.EntityID
	// Surface is the mention text.
	Surface string
	// Ambiguous marks mentions whose surface form names multiple KG
	// entities (the hard disambiguation cases of Fig 2 / §3).
	Ambiguous bool
}

// Document is a synthetic web page.
type Document struct {
	ID    string
	URL   string
	Title string
	Text  string
	// Quality in [0,1] is the page-quality prior (a fusion feature, §4).
	Quality float64
	// Version increments on every mutation; the annotation pipeline uses
	// it to detect changed pages.
	Version int
	// Gold lists the true mentions, for evaluation only.
	Gold []GoldMention
	// Infobox holds schema.org-style key/value pairs when the page embeds
	// structured data ("simple rule-based models can be used to extract
	// key-value pairs from webpages embedded with structured data", §4).
	Infobox map[string]string
	// InfoboxSubject is the entity the infobox describes (NoEntity when
	// absent).
	InfoboxSubject kg.EntityID
	// Cluster is the world cluster the document is about (-1 for noise
	// pages); used only by generators and tests.
	Cluster int
}

// Config sizes the corpus generator.
type Config struct {
	// NumDocs defaults to 300.
	NumDocs int
	// NoiseFraction of documents mention no KG entity. The zero value
	// selects the default 0.2; pass a tiny positive value (e.g. 1e-9) to
	// effectively disable noise pages.
	NoiseFraction float64
	// InfoboxFraction of entity documents carry structured data. The zero
	// value selects the default 0.3.
	InfoboxFraction float64
	// WrongInfoboxFraction of infoboxes contain one corrupted value (the
	// §4 veracity challenge). Defaults to 0: corruption is opt-in.
	WrongInfoboxFraction float64
	// Seed drives all randomness.
	Seed int64
}

func (c *Config) setDefaults() {
	if c.NumDocs <= 0 {
		c.NumDocs = 300
	}
	if c.NoiseFraction <= 0 || c.NoiseFraction >= 1 {
		c.NoiseFraction = 0.2
	}
	if c.InfoboxFraction <= 0 || c.InfoboxFraction > 1 {
		c.InfoboxFraction = 0.3
	}
	if c.WrongInfoboxFraction < 0 || c.WrongInfoboxFraction > 1 {
		c.WrongInfoboxFraction = 0
	}
}

var noiseSentences = []string{
	"The weather today is expected to remain mild with scattered clouds.",
	"Local markets saw a modest uptick in produce prices this week.",
	"A new recipe for sourdough bread has been trending among home bakers.",
	"Traffic on the ring road was slower than usual this morning.",
	"The library extended its opening hours for the exam season.",
	"Gardeners recommend planting bulbs before the first frost arrives.",
}

// Generate builds a corpus over the world's entities.
func Generate(w *workload.World, cfg Config) []*Document {
	cfg.setDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	docs := make([]*Document, 0, cfg.NumDocs)
	for i := 0; i < cfg.NumDocs; i++ {
		if rng.Float64() < cfg.NoiseFraction {
			docs = append(docs, noiseDoc(i, rng))
			continue
		}
		docs = append(docs, entityDoc(w, i, rng, cfg))
	}
	return docs
}

func noiseDoc(i int, rng *rand.Rand) *Document {
	n := 2 + rng.Intn(3)
	var b strings.Builder
	for s := 0; s < n; s++ {
		b.WriteString(noiseSentences[rng.Intn(len(noiseSentences))])
		b.WriteString(" ")
	}
	return &Document{
		ID:      fmt.Sprintf("doc%05d", i),
		URL:     fmt.Sprintf("https://example.org/news/%05d", i),
		Title:   "Community notes",
		Text:    strings.TrimSpace(b.String()),
		Quality: 0.3 + rng.Float64()*0.4,
		Version: 1,
		Cluster: -1,
	}
}

// entityDoc writes a page about 2-3 people from one cluster, weaving in
// the cluster's team/city/award names as disambiguating context, and
// records gold mention offsets as it writes.
func entityDoc(w *workload.World, i int, rng *rand.Rand, cfg Config) *Document {
	cluster := rng.Intn(len(w.ClusterMembers))
	members := w.ClusterMembers[cluster]
	if len(members) == 0 {
		return noiseDoc(i, rng)
	}
	g := w.Graph
	team := g.Entity(w.Teams[cluster]).Name
	city := g.Entity(w.Cities[cluster%len(w.Cities)]).Name
	award := g.Entity(w.Awards[cluster]).Name
	occ := g.Entity(w.ThemeOccs[cluster]).Name

	nPeople := 2
	if len(members) > 2 && rng.Intn(2) == 0 {
		nPeople = 3
	}
	chosen := make([]kg.EntityID, 0, nPeople)
	seen := make(map[kg.EntityID]bool)
	for len(chosen) < nPeople && len(chosen) < len(members) {
		p := members[rng.Intn(len(members))]
		if !seen[p] {
			seen[p] = true
			chosen = append(chosen, p)
		}
	}

	doc := &Document{
		ID:      fmt.Sprintf("doc%05d", i),
		URL:     fmt.Sprintf("https://example.org/sports/%05d", i),
		Title:   fmt.Sprintf("%s update from %s", team, city),
		Quality: 0.5 + rng.Float64()*0.5,
		Version: 1,
		Cluster: cluster,
	}

	var b strings.Builder
	writeMention := func(p kg.EntityID) {
		name := g.Entity(p).Name
		start := b.Len()
		b.WriteString(name)
		doc.Gold = append(doc.Gold, GoldMention{
			Start:     start,
			End:       start + len(name),
			Entity:    p,
			Surface:   name,
			Ambiguous: len(w.AmbiguousNames[name]) > 1,
		})
	}

	// Sentence templates referencing cluster context.
	writeMention(chosen[0])
	b.WriteString(fmt.Sprintf(" impressed again for the %s in %s. ", team, city))
	if len(chosen) > 1 {
		b.WriteString("Teammate ")
		writeMention(chosen[1])
		b.WriteString(fmt.Sprintf(" also featured, confirming the strength of %s this season. ", team))
	}
	if len(chosen) > 2 {
		writeMention(chosen[2])
		b.WriteString(fmt.Sprintf(" received the %s after the match. ", award))
	}
	b.WriteString(fmt.Sprintf("Every %s in %s dreams of such a run. ", occ, city))
	if rng.Intn(2) == 0 {
		b.WriteString(noiseSentences[rng.Intn(len(noiseSentences))])
	}
	doc.Text = strings.TrimSpace(b.String())

	// Optional infobox about the first person.
	if rng.Float64() < cfg.InfoboxFraction {
		subject := chosen[0]
		doc.InfoboxSubject = subject
		doc.Infobox = buildInfobox(w, subject, rng, cfg.WrongInfoboxFraction)
	}
	return doc
}

// buildInfobox renders KG facts about subject as string key/values,
// optionally corrupting one value to exercise the veracity machinery.
func buildInfobox(w *workload.World, subject kg.EntityID, rng *rand.Rand, wrongFrac float64) map[string]string {
	g := w.Graph
	box := make(map[string]string)
	// Each field wants only the first asserted fact; pull it with an
	// early-stopped posting iteration instead of copying the whole slice.
	first := func(pred kg.PredicateID) (obj kg.Value, ok bool) {
		g.FactsFunc(subject, pred, func(t kg.Triple) bool {
			obj, ok = t.Object, true
			return false
		})
		return obj, ok
	}
	if obj, ok := first(w.Preds["dateOfBirth"]); ok {
		box["dateOfBirth"] = obj.TS.Format("2006-01-02")
	}
	if obj, ok := first(w.Preds["memberOf"]); ok {
		box["memberOf"] = g.Entity(obj.Entity).Name
	}
	if obj, ok := first(w.Preds["bornIn"]); ok {
		box["bornIn"] = g.Entity(obj.Entity).Name
	}
	if obj, ok := first(w.Preds["occupation"]); ok {
		box["occupation"] = g.Entity(obj.Entity).Name
	}
	if rng.Float64() < wrongFrac && len(box) > 0 {
		// Corrupt the date of birth if present, else a name field.
		if _, ok := box["dateOfBirth"]; ok {
			box["dateOfBirth"] = fmt.Sprintf("19%02d-%02d-%02d", 50+rng.Intn(50), 1+rng.Intn(12), 1+rng.Intn(28))
		} else {
			box["bornIn"] = "Atlantis"
		}
	}
	return box
}

// Mutate applies the corpus change model: each document independently
// changes with probability rate. A changed document gets one extra noise
// sentence appended and its Version bumped. Returns the changed IDs.
// Gold mention offsets are unaffected because text is only appended.
func Mutate(docs []*Document, rate float64, rng *rand.Rand) []string {
	var changed []string
	for _, d := range docs {
		if rng.Float64() >= rate {
			continue
		}
		d.Text = d.Text + " " + noiseSentences[rng.Intn(len(noiseSentences))]
		d.Version++
		changed = append(changed, d.ID)
	}
	return changed
}
