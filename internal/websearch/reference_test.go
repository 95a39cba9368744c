package websearch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"saga/internal/textutil"
	"saga/internal/webcorpus"
	"saga/internal/workload"
)

// refIndex is the index this package shipped until PR 18, kept as the
// differential reference: string-keyed nested maps, a fresh score map per
// query, every matching document sorted to return k.
type refIndex struct {
	docs     map[string]*webcorpus.Document
	postings map[string]map[string]int
	docTerms map[string]map[string]int
	docLen   map[string]int
	totalLen int
}

func newRefIndex(docs []*webcorpus.Document) *refIndex {
	ix := &refIndex{
		docs:     make(map[string]*webcorpus.Document),
		postings: make(map[string]map[string]int),
		docTerms: make(map[string]map[string]int),
		docLen:   make(map[string]int),
	}
	for _, d := range docs {
		ix.add(d)
	}
	return ix
}

func (ix *refIndex) add(d *webcorpus.Document) {
	toks := textutil.Tokenize(d.Title + " " + d.Text)
	ix.docs[d.ID] = d
	ix.docLen[d.ID] = len(toks)
	ix.totalLen += len(toks)
	terms := make(map[string]int, len(toks))
	for _, t := range toks {
		m := ix.postings[t.Text]
		if m == nil {
			m = make(map[string]int)
			ix.postings[t.Text] = m
		}
		m[d.ID]++
		terms[t.Text]++
	}
	ix.docTerms[d.ID] = terms
}

func (ix *refIndex) update(d *webcorpus.Document) {
	if oldTerms, ok := ix.docTerms[d.ID]; ok {
		for term, n := range oldTerms {
			if m := ix.postings[term]; m != nil {
				m[d.ID] -= n
				if m[d.ID] <= 0 {
					delete(m, d.ID)
				}
				if len(m) == 0 {
					delete(ix.postings, term)
				}
			}
		}
		ix.totalLen -= ix.docLen[d.ID]
	}
	ix.add(d)
}

func (ix *refIndex) search(query string, k int) []Hit {
	if k <= 0 || len(ix.docs) == 0 {
		return nil
	}
	qToks := textutil.Tokenize(query)
	if len(qToks) == 0 {
		return nil
	}
	n := float64(len(ix.docs))
	avgLen := float64(ix.totalLen) / n
	scores := make(map[string]float64)
	for _, qt := range qToks {
		post := ix.postings[qt.Text]
		if len(post) == 0 {
			continue
		}
		idf := math.Log(1 + (n-float64(len(post))+0.5)/(float64(len(post))+0.5))
		for docID, tf := range post {
			dl := float64(ix.docLen[docID])
			denom := float64(tf) + k1*(1-b+b*dl/avgLen)
			scores[docID] += idf * float64(tf) * (k1 + 1) / denom
		}
	}
	hits := make([]Hit, 0, len(scores))
	for docID, s := range scores {
		hits = append(hits, Hit{Doc: ix.docs[docID], Score: s})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].Doc.ID < hits[j].Doc.ID
	})
	if k < len(hits) {
		hits = hits[:k]
	}
	return hits
}

// sameHits demands the same documents in the same order with the same
// scores, to the bit: both sides add the same terms in the same order.
func sameHits(got, want []Hit) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d hits, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Doc != want[i].Doc || got[i].Score != want[i].Score {
			return fmt.Sprintf("hit %d: %s %v, want %s %v", i, got[i].Doc.ID, got[i].Score, want[i].Doc.ID, want[i].Score)
		}
	}
	return ""
}

func corpusAndQueries(t testing.TB, numDocs int) ([]*webcorpus.Document, []string) {
	t.Helper()
	w, err := workload.GenerateKG(workload.KGConfig{NumPeople: 200, NumClusters: 10, Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	docs := webcorpus.Generate(w, webcorpus.Config{NumDocs: numDocs, Seed: 18})
	seen := map[string]bool{}
	var words []string
	for _, d := range docs[:min(len(docs), 200)] {
		for _, f := range strings.Fields(d.Title + " " + d.Text) {
			if !seen[f] {
				seen[f] = true
				words = append(words, f)
			}
		}
	}
	sort.Strings(words)
	rng := rand.New(rand.NewSource(18))
	queries := []string{"", "the", "the the the", "zzz-unknown", "Update FROM the", "award after the match"}
	for i := 0; i < 300; i++ {
		n := 1 + rng.Intn(4)
		q := make([]string, n)
		for j := range q {
			q[j] = words[rng.Intn(len(words))]
		}
		queries = append(queries, strings.Join(q, " "))
	}
	return docs, queries
}

func compareAll(t *testing.T, ix *Index, ref *refIndex, queries []string, when string) {
	t.Helper()
	for _, q := range queries {
		for _, k := range []int{1, 10, 37, 100000} {
			if d := sameHits(ix.Search(q, k), ref.search(q, k)); d != "" {
				t.Fatalf("%s: query %q k %d: %s", when, q, k, d)
			}
		}
	}
}

func TestSearchMatchesReference(t *testing.T) {
	docs, queries := corpusAndQueries(t, 2000)
	ix, ref := NewIndex(docs), newRefIndex(docs)
	compareAll(t, ix, ref, queries, "fresh index")

	// Interleaved updates: changed text, shrunk text, emptied text, a
	// document edited in place before Update, brand-new documents.
	rng := rand.New(rand.NewSource(19))
	for round := 0; round < 60; round++ {
		changed := docs[rng.Intn(len(docs))]
		other := docs[rng.Intn(len(docs))]
		switch round % 5 {
		case 0:
			changed.Text += " breaking update about the championship award " + other.Title
		case 1:
			changed.Text = changed.Text[:len(changed.Text)/3]
		case 2:
			changed.Text = ""
		case 3:
			changed.Title, changed.Text = other.Title, other.Text
		case 4:
			changed = &webcorpus.Document{ID: fmt.Sprintf("new%03d", round), Title: "Late " + other.Title, Text: other.Text, Version: 1}
			docs = append(docs, changed)
		}
		ix.Update(changed)
		ref.update(changed)
		if ix.NumDocs() != len(ref.docs) {
			t.Fatalf("round %d: NumDocs %d, reference %d", round, ix.NumDocs(), len(ref.docs))
		}
		if got, ok := ix.Doc(changed.ID); !ok || got != changed {
			t.Fatalf("round %d: Doc(%s) = %v, %v", round, changed.ID, got, ok)
		}
		if round%6 == 0 {
			compareAll(t, ix, ref, queries[:80], fmt.Sprintf("after update %d", round))
		}
	}
	compareAll(t, ix, ref, queries, "after all updates")
}

// TestSearchLeavesScratchClean: the pooled accumulator must be all zero
// between searches, whatever path the search left by.
func TestSearchLeavesScratchClean(t *testing.T) {
	docs, queries := corpusAndQueries(t, 300)
	ix := NewIndex(docs)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, q := range queries[:40] {
		ix.Search(q, 5)
		if _, err := ix.SearchContext(ctx, q, 5); err != nil && !errors.Is(err, context.Canceled) {
			t.Fatal(err)
		}
		sc := ix.scratch.Get().(*searchScratch)
		for d, s := range sc.acc {
			if s != 0 {
				t.Fatalf("after %q: accumulator entry %d left at %v", q, d, s)
			}
		}
		ix.scratch.Put(sc)
	}
}

func TestSearchCancelled(t *testing.T) {
	docs, _ := corpusAndQueries(t, 300)
	ix := NewIndex(docs)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	hits, err := ix.SearchContext(ctx, "the award", 10)
	if !errors.Is(err, context.Canceled) || hits != nil {
		t.Fatalf("cancelled search returned %v, %v", hits, err)
	}
	if hits, err := ix.SearchContext(context.Background(), "the award", 10); err != nil || len(hits) == 0 {
		t.Fatalf("live search after a cancelled one returned %v, %v", hits, err)
	}
}
