package annotate

import (
	"fmt"
	"sync"

	"saga/internal/kg"
	"saga/internal/webcorpus"
)

// Pipeline runs the annotator over a document corpus at scale (Fig 4
// "linking the Web"): documents fan out across workers, results are
// cached by (docID, version), and re-runs skip unchanged documents — the
// paper's incremental processing requirement ("able to efficiently
// process only the changed webpages at a given frequency", §3.2).
type Pipeline struct {
	annotator *Annotator
	workers   int

	mu sync.Mutex
	// results caches annotations by document ID.
	results map[string]*DocAnnotations
}

// DocAnnotations holds one document's annotation output.
type DocAnnotations struct {
	DocID   string
	Version int
	Items   []Annotation
}

// RunStats reports one corpus pass.
type RunStats struct {
	// Processed documents were (re-)annotated this pass.
	Processed int
	// Skipped documents were served from cache (version unchanged).
	Skipped int
	// Mentions is the total annotation count across processed docs.
	Mentions int
}

// NewPipeline wraps an annotator with corpus-level orchestration.
func NewPipeline(a *Annotator, workers int) *Pipeline {
	if workers <= 0 {
		workers = 4
	}
	return &Pipeline{annotator: a, workers: workers, results: make(map[string]*DocAnnotations)}
}

// Run annotates the corpus, skipping documents whose version is already
// cached. It is the incremental entry point: call it again after corpus
// mutation and only changed documents are processed.
func (p *Pipeline) Run(docs []*webcorpus.Document) RunStats {
	var stats RunStats
	type job struct {
		doc *webcorpus.Document
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	var statMu sync.Mutex

	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				items := p.annotator.Annotate(j.doc.Text)
				res := &DocAnnotations{DocID: j.doc.ID, Version: j.doc.Version, Items: items}
				p.mu.Lock()
				p.results[j.doc.ID] = res
				p.mu.Unlock()
				statMu.Lock()
				stats.Processed++
				stats.Mentions += len(items)
				statMu.Unlock()
			}
		}()
	}
	for _, d := range docs {
		p.mu.Lock()
		cached, ok := p.results[d.ID]
		p.mu.Unlock()
		if ok && cached.Version == d.Version {
			stats.Skipped++
			continue
		}
		jobs <- job{doc: d}
	}
	close(jobs)
	wg.Wait()
	return stats
}

// Result returns the cached annotations for a document.
func (p *Pipeline) Result(docID string) (*DocAnnotations, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	r, ok := p.results[docID]
	return r, ok
}

// LinkToGraph materializes annotations as KG edges, extending the graph
// with links from entities to Web documents (Fig 4: "extending our KG
// with edges linking KG entities to unstructured Web documents"). Each
// document becomes a WebDocument entity; each annotation becomes a
// (person)-[mentionedIn]->(doc) fact. Returns the number of edges added.
func (p *Pipeline) LinkToGraph(g *kg.Graph) (int, error) {
	docType, err := g.Ontology().AddType("WebDocument", kg.NoType)
	if err != nil {
		// Type may exist under a parent already; resolve by name.
		if id, ok := g.Ontology().TypeID("WebDocument"); ok {
			docType = id
		} else {
			return 0, err
		}
	}
	pred, err := g.AddPredicate(kg.Predicate{Name: "mentionedIn", ValueKind: kg.KindEntity})
	if err != nil {
		return 0, err
	}
	p.mu.Lock()
	results := make([]*DocAnnotations, 0, len(p.results))
	for _, r := range p.results {
		results = append(results, r)
	}
	p.mu.Unlock()

	// Register all document entities first, then assert every mention
	// edge in one batch: the graph's batch path takes its write lock
	// once a subject and grows index slices per (subject, predicate)
	// run, instead of a lock round-trip per annotation. AssertBatch also reports the
	// number of newly added facts, which is exactly this function's
	// return value (duplicate mention edges from re-linked documents are
	// skipped, as before).
	batch := make([]kg.Triple, 0, len(results))
	for _, r := range results {
		docEnt, err := g.AddEntity(kg.Entity{
			Key:   "webdoc:" + r.DocID,
			Name:  r.DocID,
			Types: []kg.TypeID{docType},
		})
		if err != nil {
			return 0, fmt.Errorf("annotate: add doc entity %s: %w", r.DocID, err)
		}
		for _, ann := range r.Items {
			batch = append(batch, kg.Triple{
				Subject:   ann.Entity,
				Predicate: pred,
				Object:    kg.EntityValue(docEnt),
				Prov:      kg.Provenance{Source: "semantic-annotation", Confidence: ann.Score},
			})
		}
	}
	return g.AssertBatch(batch)
}
