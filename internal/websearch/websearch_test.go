package websearch

import (
	"fmt"
	"testing"

	"saga/internal/webcorpus"
	"saga/internal/workload"
)

func mkDoc(id, title, text string) *webcorpus.Document {
	return &webcorpus.Document{ID: id, Title: title, Text: text, Version: 1}
}

func TestSearchBasicRelevance(t *testing.T) {
	ix := NewIndex([]*webcorpus.Document{
		mkDoc("d1", "Basketball news", "The basketball team won again. Basketball is popular."),
		mkDoc("d2", "Cooking", "A recipe for bread and soup."),
		mkDoc("d3", "Mixed", "The team cooked bread after basketball."),
	})
	hits := ix.Search("basketball", 10)
	if len(hits) != 2 {
		t.Fatalf("hits = %d, want 2", len(hits))
	}
	if hits[0].Doc.ID != "d1" {
		t.Fatalf("top hit = %s, want d1 (highest tf)", hits[0].Doc.ID)
	}
	if hits[0].Score <= hits[1].Score {
		t.Fatal("scores not descending")
	}
}

func TestSearchMultiTerm(t *testing.T) {
	ix := NewIndex([]*webcorpus.Document{
		mkDoc("d1", "", "alpha beta gamma"),
		mkDoc("d2", "", "alpha alpha alpha"),
		mkDoc("d3", "", "beta gamma delta"),
	})
	hits := ix.Search("alpha beta", 10)
	if len(hits) != 3 {
		t.Fatalf("hits = %d", len(hits))
	}
	// d1 matches both terms and should beat single-term docs.
	if hits[0].Doc.ID != "d1" {
		t.Fatalf("top = %s, want d1", hits[0].Doc.ID)
	}
}

func TestSearchEdgeCases(t *testing.T) {
	ix := NewIndex(nil)
	if got := ix.Search("anything", 5); got != nil {
		t.Fatalf("empty index search = %v", got)
	}
	ix2 := NewIndex([]*webcorpus.Document{mkDoc("d1", "t", "text")})
	if got := ix2.Search("", 5); got != nil {
		t.Fatalf("empty query = %v", got)
	}
	if got := ix2.Search("text", 0); got != nil {
		t.Fatalf("k=0 = %v", got)
	}
	if got := ix2.Search("zzz-unknown-term", 5); len(got) != 0 {
		t.Fatalf("unknown term = %v", got)
	}
}

func TestSearchTopKTruncation(t *testing.T) {
	var docs []*webcorpus.Document
	for i := 0; i < 30; i++ {
		docs = append(docs, mkDoc(fmt.Sprintf("d%02d", i), "", "common term here"))
	}
	ix := NewIndex(docs)
	hits := ix.Search("common", 7)
	if len(hits) != 7 {
		t.Fatalf("hits = %d, want 7", len(hits))
	}
}

func TestIDFRareTermWins(t *testing.T) {
	var docs []*webcorpus.Document
	for i := 0; i < 20; i++ {
		docs = append(docs, mkDoc(fmt.Sprintf("c%02d", i), "", "common filler content"))
	}
	docs = append(docs, mkDoc("rare", "", "common filler content plus uniqueword"))
	ix := NewIndex(docs)
	hits := ix.Search("uniqueword common", 3)
	if hits[0].Doc.ID != "rare" {
		t.Fatalf("top = %s, want rare-term doc", hits[0].Doc.ID)
	}
}

func TestSearchOverGeneratedCorpus(t *testing.T) {
	w, err := workload.GenerateKG(workload.KGConfig{NumPeople: 40, NumClusters: 4, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	docs := webcorpus.Generate(w, webcorpus.Config{NumDocs: 150, Seed: 31})
	ix := NewIndex(docs)
	// Search for a person by name: docs mentioning that person should
	// surface.
	var person string
	for _, d := range docs {
		if len(d.Gold) > 0 {
			person = d.Gold[0].Surface
			break
		}
	}
	if person == "" {
		t.Skip("no entity docs generated")
	}
	hits := ix.Search(person, 10)
	if len(hits) == 0 {
		t.Fatalf("no hits for known person %q", person)
	}
	// At least one of the top hits must actually mention the person.
	found := false
	for _, h := range hits[:minInt(3, len(hits))] {
		for _, gm := range h.Doc.Gold {
			if gm.Surface == person {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("top hits for %q do not mention them", person)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
