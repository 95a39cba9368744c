// Package websearch implements a BM25 inverted-index search engine over
// the synthetic web corpus. It substitutes for the production Web search
// engine the ODKE pipeline calls ("leverage Web search to find relevant
// documents", Fig 5): the query synthesizer issues queries here and gets
// relevance-ranked documents back.
//
// Layout. Documents and terms are numbered densely in order of first
// appearance (a document keeps its number for life; none is ever
// removed), and everything per document or per term is a slice indexed by
// that number: a term's postings are {document, term frequency} pairs
// sorted by document number, a document's length and its distinct terms
// sit beside its pointer. A search accumulates scores into a pooled
// float64 slice indexed by document number and selects the top k with a
// bounded heap, so its cost is the postings of the query's terms plus
// O(log k) per document that beats the running k-th score — no map of
// scores, no sort of every hit.
//
// Update re-indexes one document under its existing number (or adds it
// if its ID is new): the postings of the terms it held at its last
// indexing — remembered by the index, so the caller may have edited the
// document in place — are removed, and the current text is indexed. A
// term whose last posting goes keeps its number and an empty list. The
// BM25 length normalization depends on the corpus-wide average length,
// which every Update moves, so it is computed per posting at query time
// from the stored document length rather than cached per document.
package websearch

import (
	"context"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"saga/internal/textutil"
	"saga/internal/topk"
	"saga/internal/webcorpus"
)

// BM25 parameters (standard defaults).
const (
	k1 = 1.2
	b  = 0.75
)

// posting is one document's entry in a term's list.
type posting struct {
	doc int32
	tf  int32
}

// Index is an inverted index with BM25 scoring. Build with NewIndex;
// Search is safe for concurrent use. Documents can be re-indexed after
// mutation with Update.
type Index struct {
	mu sync.RWMutex

	docNum   map[string]int32      // Doc.ID -> document number
	docs     []*webcorpus.Document // by document number
	docLen   []int32               // tokens at last indexing, by document number
	docTerms [][]int32             // distinct term numbers at last indexing, by document number
	totalLen int

	termNum  map[string]int32 // term -> term number
	postings [][]posting      // by term number, sorted by document number

	scratch sync.Pool // *searchScratch
}

// searchScratch is one search's accumulator: acc is indexed by document
// number and all zero between searches; touched lists the entries a
// search made nonzero.
type searchScratch struct {
	acc     []float64
	touched []int32
}

// NewIndex builds an index over the documents (title + text).
func NewIndex(docs []*webcorpus.Document) *Index {
	ix := &Index{
		docNum:  make(map[string]int32, len(docs)),
		termNum: make(map[string]int32),
	}
	ix.scratch.New = func() any { return new(searchScratch) }
	for _, d := range docs {
		ix.indexLocked(d)
	}
	return ix
}

// indexLocked (re-)indexes d under its document number, assigning the
// next one if d.ID is new. A known document's old postings must already
// be gone.
func (ix *Index) indexLocked(d *webcorpus.Document) {
	num, known := ix.docNum[d.ID]
	if !known {
		num = int32(len(ix.docs))
		ix.docNum[d.ID] = num
		ix.docs = append(ix.docs, nil)
		ix.docLen = append(ix.docLen, 0)
		ix.docTerms = append(ix.docTerms, nil)
	}
	toks := textutil.Tokenize(d.Title + " " + d.Text)
	ix.docs[num] = d
	ix.docLen[num] = int32(len(toks))
	ix.totalLen += len(toks)

	terms := make([]int32, len(toks))
	for i, t := range toks {
		tn, ok := ix.termNum[t.Text]
		if !ok {
			tn = int32(len(ix.postings))
			// The token may be a substring of the document; the map key
			// must not pin the whole text.
			ix.termNum[strings.Clone(t.Text)] = tn
			ix.postings = append(ix.postings, nil)
		}
		terms[i] = tn
	}
	slices.Sort(terms)
	distinct := terms[:0]
	for i := 0; i < len(terms); {
		j := i
		for j < len(terms) && terms[j] == terms[i] {
			j++
		}
		ix.insertPosting(terms[i], posting{doc: num, tf: int32(j - i)})
		distinct = append(distinct, terms[i])
		i = j
	}
	ix.docTerms[num] = distinct
}

// insertPosting places p in term tn's list, which stays sorted by
// document number; a new document's number is the largest, so building an
// index only ever appends.
func (ix *Index) insertPosting(tn int32, p posting) {
	post := ix.postings[tn]
	i := len(post)
	if i > 0 && post[i-1].doc > p.doc {
		i = sort.Search(len(post), func(i int) bool { return post[i].doc >= p.doc })
	}
	ix.postings[tn] = slices.Insert(post, i, p)
}

// Update re-indexes a changed document (removing its old postings).
func (ix *Index) Update(d *webcorpus.Document) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if num, ok := ix.docNum[d.ID]; ok {
		for _, tn := range ix.docTerms[num] {
			post := ix.postings[tn]
			i := sort.Search(len(post), func(i int) bool { return post[i].doc >= num })
			ix.postings[tn] = slices.Delete(post, i, i+1)
		}
		ix.totalLen -= int(ix.docLen[num])
	}
	ix.indexLocked(d)
}

// NumDocs returns the indexed document count.
func (ix *Index) NumDocs() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.docs)
}

// Doc returns an indexed document by ID.
func (ix *Index) Doc(id string) (*webcorpus.Document, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	num, ok := ix.docNum[id]
	if !ok {
		return nil, false
	}
	return ix.docs[num], true
}

// Hit is one search result.
type Hit struct {
	Doc   *webcorpus.Document
	Score float64
}

// Search runs a BM25 query and returns the top-k hits, highest score
// first. Ties break by document ID for determinism.
func (ix *Index) Search(query string, k int) []Hit {
	hits, _ := ix.SearchContext(context.Background(), query, k)
	return hits
}

// SearchContext is Search with cancellation: the posting accumulation
// loop polls ctx every few thousand entries, so a disconnected serving
// client stops a broad query's scoring pass instead of burning CPU to
// completion. A cancelled search returns ctx's error and no hits.
func (ix *Index) SearchContext(ctx context.Context, query string, k int) ([]Hit, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if k <= 0 || len(ix.docs) == 0 {
		return nil, nil
	}
	qToks := textutil.Tokenize(query)
	if len(qToks) == 0 {
		return nil, nil
	}
	sc := ix.scratch.Get().(*searchScratch)
	if len(sc.acc) < len(ix.docs) {
		sc.acc = make([]float64, len(ix.docs))
	}
	acc, touched := sc.acc, sc.touched[:0]
	defer func() {
		for _, d := range touched {
			acc[d] = 0
		}
		sc.touched = touched
		ix.scratch.Put(sc)
	}()

	n := float64(len(ix.docs))
	avgLen := float64(ix.totalLen) / n
	visited := 0
	for _, qt := range qToks {
		tn, ok := ix.termNum[qt.Text]
		if !ok {
			continue
		}
		post := ix.postings[tn]
		if len(post) == 0 {
			continue
		}
		idf := math.Log(1 + (n-float64(len(post))+0.5)/(float64(len(post))+0.5))
		for _, p := range post {
			if visited++; visited&4095 == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			tf, dl := float64(p.tf), float64(ix.docLen[p.doc])
			denom := tf + k1*(1-b+b*dl/avgLen)
			// Every contribution is positive (idf > 0, tf ≥ 1), so a zero
			// entry is one no term has reached yet.
			if acc[p.doc] == 0 {
				touched = append(touched, p.doc)
			}
			acc[p.doc] += idf * tf * (k1 + 1) / denom
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Bounded selection: a document enters the heap only by beating the
	// worst hit held.
	sel := topk.New(k, len(touched), worseHit)
	for _, d := range touched {
		if sel.Full() && acc[d] < sel.Worst().Score {
			continue
		}
		if h := (Hit{Doc: ix.docs[d], Score: acc[d]}); sel.Admits(h) {
			sel.Push(h)
		}
	}
	return sel.Sorted(), nil
}

// worseHit reports whether a ranks after b: lower score, then higher ID.
func worseHit(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Doc.ID > b.Doc.ID
}
