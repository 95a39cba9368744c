package odke

import (
	"time"

	"saga/internal/annotate"
	"saga/internal/kg"
	"saga/internal/textutil"
	"saga/internal/webcorpus"
)

// CandidateFact is one extracted fact hypothesis with the evidence
// features the corroboration model consumes (Fig 6 ④: "candidate facts
// extracted from the documents").
type CandidateFact struct {
	Subject   kg.EntityID
	Predicate kg.PredicateID
	Value     kg.Value
	// Extractor names the producing extractor ("infobox" or "text").
	Extractor string
	// Confidence is the extractor's self-reported confidence.
	Confidence float64
	// DocID and DocQuality identify and rate the evidence page.
	DocID      string
	DocQuality float64
	// ObservedAt is the extraction time.
	ObservedAt time.Time
}

// Extractor pulls candidate facts for a gap out of one document. The
// paper's design point is heterogeneity: "different extractors to handle
// different types of data sources with different types of models" (§4).
type Extractor interface {
	Name() string
	Extract(doc *webcorpus.Document, anns []annotate.Annotation, gap Gap) []CandidateFact
}

// EntityResolver resolves a surface name to a KG entity of a given type.
// Extractors need it to turn extracted strings ("Toronto Raptors") into
// entity references.
type EntityResolver struct {
	g      *kg.Graph
	byName map[string][]kg.EntityID
}

// NewEntityResolver indexes the graph's entity names and aliases.
func NewEntityResolver(g *kg.Graph) *EntityResolver {
	r := &EntityResolver{g: g, byName: make(map[string][]kg.EntityID)}
	g.Entities(func(e *kg.Entity) bool {
		names := append([]string{e.Name}, e.Aliases...)
		seen := make(map[string]bool)
		for _, n := range names {
			norm := textutil.NormalizePhrase(n)
			if norm == "" || seen[norm] {
				continue
			}
			seen[norm] = true
			r.byName[norm] = append(r.byName[norm], e.ID)
		}
		return true
	})
	return r
}

// Resolve returns the unique entity of (or inheriting) wantType bearing
// the name, or false when absent or ambiguous within the type.
func (r *EntityResolver) Resolve(name string, wantType kg.TypeID) (kg.EntityID, bool) {
	cands := r.byName[textutil.NormalizePhrase(name)]
	var match kg.EntityID
	var n int
	for _, id := range cands {
		e := r.g.Entity(id)
		if e == nil {
			continue
		}
		if wantType != kg.NoType {
			ok := false
			for _, t := range e.Types {
				if r.g.Ontology().IsA(t, wantType) {
					ok = true
					break
				}
			}
			if !ok {
				continue
			}
		}
		match = id
		n++
	}
	if n != 1 {
		return kg.NoEntity, false
	}
	return match, true
}

// InfoboxExtractor is the rule-based extractor over schema.org-style
// structured payloads: high precision when the page's infobox subject
// matches the gap subject, but blind to free text.
type InfoboxExtractor struct {
	resolver *EntityResolver
	// typeFor maps predicate name -> required object entity type name.
	g *kg.Graph
}

// NewInfoboxExtractor builds the rule-based extractor.
func NewInfoboxExtractor(g *kg.Graph, resolver *EntityResolver) *InfoboxExtractor {
	return &InfoboxExtractor{resolver: resolver, g: g}
}

// Name implements Extractor.
func (x *InfoboxExtractor) Name() string { return "infobox" }

// Extract implements Extractor.
func (x *InfoboxExtractor) Extract(doc *webcorpus.Document, _ []annotate.Annotation, gap Gap) []CandidateFact {
	if doc.Infobox == nil || doc.InfoboxSubject != gap.Subject {
		return nil
	}
	pred := x.g.Predicate(gap.Predicate)
	if pred == nil {
		return nil
	}
	raw, ok := doc.Infobox[pred.Name]
	if !ok {
		return nil
	}
	val, ok := x.parseValue(pred, raw)
	if !ok {
		return nil
	}
	return []CandidateFact{{
		Subject:    gap.Subject,
		Predicate:  gap.Predicate,
		Value:      val,
		Extractor:  x.Name(),
		Confidence: 0.9,
		DocID:      doc.ID,
		DocQuality: doc.Quality,
		ObservedAt: time.Now(),
	}}
}

// parseValue converts an infobox string into a typed Value per the
// predicate's declared kind. A date the graph cannot hold (see
// kg.TimeInRange) is refused like an unparseable one.
func (x *InfoboxExtractor) parseValue(pred *kg.Predicate, raw string) (kg.Value, bool) {
	switch pred.ValueKind {
	case kg.KindTime:
		ts, err := time.Parse("2006-01-02", raw)
		if err != nil || !kg.TimeInRange(ts) {
			return kg.Value{}, false
		}
		return kg.TimeValue(ts), true
	case kg.KindEntity:
		wantType := objectTypeFor(x.g, pred.Name)
		id, ok := x.resolver.Resolve(raw, wantType)
		if !ok {
			return kg.Value{}, false
		}
		return kg.EntityValue(id), true
	case kg.KindString:
		return kg.StringValue(raw), true
	default:
		return kg.StringValue(raw), true
	}
}

// TextExtractor is the pattern-based extractor over annotated free text:
// it uses semantic annotations as weak labels ("leveraging annotations
// produced by web-scale semantic annotation service as weak labels", §4).
// When the gap's subject is annotated in a sentence, co-annotated entities
// of the right target type become candidates. Broader recall than the
// infobox extractor, lower precision — a document can mention several
// teams.
type TextExtractor struct {
	g *kg.Graph
}

// NewTextExtractor builds the annotation-driven text extractor.
func NewTextExtractor(g *kg.Graph) *TextExtractor {
	return &TextExtractor{g: g}
}

// Name implements Extractor.
func (x *TextExtractor) Name() string { return "text" }

// Extract implements Extractor.
func (x *TextExtractor) Extract(doc *webcorpus.Document, anns []annotate.Annotation, gap Gap) []CandidateFact {
	pred := x.g.Predicate(gap.Predicate)
	if pred == nil || pred.ValueKind != kg.KindEntity {
		return nil // the text extractor only proposes entity-valued facts
	}
	wantType := objectTypeFor(x.g, pred.Name)
	if wantType == kg.NoType {
		return nil
	}
	// Locate subject mentions.
	var subjSpans []annotate.Annotation
	for _, a := range anns {
		if a.Entity == gap.Subject {
			subjSpans = append(subjSpans, a)
		}
	}
	if len(subjSpans) == 0 {
		return nil
	}
	sentences := textutil.SplitSentences(doc.Text)
	sentenceOf := func(pos int) int {
		for i, s := range sentences {
			if pos >= s.Start && pos < s.End {
				return i
			}
		}
		return -1
	}
	subjSentences := make(map[int]bool)
	for _, s := range subjSpans {
		subjSentences[sentenceOf(s.Start)] = true
	}
	var out []CandidateFact
	seen := make(map[kg.ValueKey]bool)
	for _, a := range anns {
		if a.Entity == gap.Subject {
			continue
		}
		if !subjSentences[sentenceOf(a.Start)] {
			continue
		}
		e := x.g.Entity(a.Entity)
		if e == nil {
			continue
		}
		typeOK := false
		for _, t := range e.Types {
			if x.g.Ontology().IsA(t, wantType) {
				typeOK = true
				break
			}
		}
		if !typeOK {
			continue
		}
		val := kg.EntityValue(a.Entity)
		if seen[val.MapKey()] {
			continue
		}
		seen[val.MapKey()] = true
		out = append(out, CandidateFact{
			Subject:    gap.Subject,
			Predicate:  gap.Predicate,
			Value:      val,
			Extractor:  x.Name(),
			Confidence: 0.55 * a.Score,
			DocID:      doc.ID,
			DocQuality: doc.Quality,
			ObservedAt: time.Now(),
		})
	}
	return out
}

// objectTypeFor maps a predicate name to the ontology type its objects
// must carry. Returns NoType for unmapped predicates.
func objectTypeFor(g *kg.Graph, predName string) kg.TypeID {
	var typeName string
	switch predName {
	case "memberOf":
		typeName = "Team"
	case "bornIn":
		typeName = "City"
	case "occupation":
		typeName = "Occupation"
	case "award":
		typeName = "Award"
	case "spouse":
		typeName = "Person"
	default:
		return kg.NoType
	}
	id, ok := g.Ontology().TypeID(typeName)
	if !ok {
		return kg.NoType
	}
	return id
}
