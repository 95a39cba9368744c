// Package workload generates the synthetic datasets that substitute for
// the paper's production resources: an open-domain knowledge graph with
// a typed ontology, Zipfian popularity, planted community structure,
// multi-valued facts with hidden gold importance order, ambiguous entity
// names, literal/noise facts, and a query log. Every generator is
// deterministic under its seed so experiments are reproducible.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"saga/internal/kg"
)

// KGConfig sizes the synthetic knowledge graph.
type KGConfig struct {
	// NumPeople is the number of person entities; default 200.
	NumPeople int
	// NumClusters is the number of communities (teams/domains) people are
	// grouped into; related-entity ground truth is cluster co-membership.
	// Default 10.
	NumClusters int
	// OccupationsPerPerson in [1,4]; default 3. The first occupation (the
	// cluster's theme) is the gold most-important one.
	OccupationsPerPerson int
	// AmbiguousNamePairs is the number of name collisions to plant (two
	// entities in different clusters sharing a name); default 5.
	AmbiguousNamePairs int
	// LiteralNoiseFacts adds this many literal facts per person (heights,
	// follower counts, library IDs) that embedding views should filter;
	// default 2.
	LiteralNoiseFacts int
	// Seed drives all randomness.
	Seed int64
}

func (c *KGConfig) setDefaults() {
	if c.NumPeople <= 0 {
		c.NumPeople = 200
	}
	if c.NumClusters <= 0 {
		c.NumClusters = 10
	}
	if c.NumClusters > c.NumPeople {
		c.NumClusters = c.NumPeople
	}
	if c.OccupationsPerPerson <= 0 {
		c.OccupationsPerPerson = 3
	}
	if c.OccupationsPerPerson > 4 {
		c.OccupationsPerPerson = 4
	}
	if c.AmbiguousNamePairs < 0 {
		c.AmbiguousNamePairs = 0
	}
	if c.LiteralNoiseFacts < 0 {
		c.LiteralNoiseFacts = 0
	}
}

// World is a generated knowledge graph plus the hidden gold structure the
// experiments evaluate against.
type World struct {
	Graph *kg.Graph

	// Types by name: Thing, Person, Athlete, Occupation, Team, City,
	// Award, CreativeWork.
	Types map[string]kg.TypeID
	// Preds by name: occupation, memberOf, bornIn, award, spouse,
	// collaborator, dateOfBirth, height, followers, libraryID.
	Preds map[string]kg.PredicateID

	People      []kg.EntityID
	Occupations []kg.EntityID
	Teams       []kg.EntityID
	Cities      []kg.EntityID
	Awards      []kg.EntityID

	// Cluster maps each person to its community; people sharing a cluster
	// are ground-truth "related".
	Cluster map[kg.EntityID]int
	// ClusterMembers lists people per cluster.
	ClusterMembers [][]kg.EntityID
	// ThemeOccs maps each cluster to its theme occupation — the
	// ground-truth most-important occupation of every member. Themes are
	// deliberately drawn from the UNPOPULAR end of the occupation list
	// while secondary occupations skew popular, so a popularity-only
	// fact-ranking baseline systematically errs (experiment E1).
	ThemeOccs []kg.EntityID
	// OccupationGold maps each person to its occupations in true
	// importance order (index 0 = most important).
	OccupationGold map[kg.EntityID][]kg.EntityID
	// AmbiguousNames maps a shared surface name to the entities bearing
	// it (always in different clusters).
	AmbiguousNames map[string][]kg.EntityID
}

// firstNames / lastNames give readable synthetic names.
var firstNames = []string{
	"James", "Mary", "Michael", "Linda", "David", "Sarah", "Carlos", "Aisha",
	"Wei", "Yuki", "Omar", "Elena", "Noah", "Priya", "Lucas", "Amara",
}

var lastNames = []string{
	"Smith", "Johnson", "Garcia", "Chen", "Patel", "Okafor", "Mueller",
	"Rossi", "Tanaka", "Jordan", "Williams", "Brown", "Silva", "Kim",
}

var occupationNames = []string{
	"Basketball Player", "Television Actor", "Screenwriter", "Musician",
	"University Professor", "Chef", "Architect", "Journalist",
	"Cricket Player", "Film Director", "Novelist", "Photographer",
}

var cityNames = []string{
	"Akron", "Toronto", "Seattle", "Mumbai", "Lagos", "Berlin", "Kyoto",
	"Lima", "Cairo", "Sydney", "Oslo", "Nairobi",
}

// GenerateKG builds a synthetic world.
func GenerateKG(cfg KGConfig) (*World, error) {
	cfg.setDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := kg.NewGraph()
	w := &World{
		Graph:          g,
		Types:          make(map[string]kg.TypeID),
		Preds:          make(map[string]kg.PredicateID),
		Cluster:        make(map[kg.EntityID]int),
		OccupationGold: make(map[kg.EntityID][]kg.EntityID),
		AmbiguousNames: make(map[string][]kg.EntityID),
		ClusterMembers: make([][]kg.EntityID, cfg.NumClusters),
	}

	o := g.Ontology()
	addType := func(name string, parent string) kg.TypeID {
		var pid kg.TypeID
		if parent != "" {
			pid = w.Types[parent]
		}
		id, err := o.AddType(name, pid)
		if err != nil {
			panic(err) // static names, cannot conflict
		}
		w.Types[name] = id
		return id
	}
	addType("Thing", "")
	addType("Person", "Thing")
	addType("Athlete", "Person")
	addType("Occupation", "Thing")
	addType("Organization", "Thing")
	addType("Team", "Organization")
	addType("Place", "Thing")
	addType("City", "Place")
	addType("Award", "Thing")
	addType("CreativeWork", "Thing")

	addPred := func(name string, vk kg.ValueKind, functional bool) kg.PredicateID {
		id, err := g.AddPredicate(kg.Predicate{Name: name, ValueKind: vk, Functional: functional})
		if err != nil {
			panic(err)
		}
		w.Preds[name] = id
		return id
	}
	pOcc := addPred("occupation", kg.KindEntity, false)
	pMember := addPred("memberOf", kg.KindEntity, false)
	pBorn := addPred("bornIn", kg.KindEntity, true)
	pAward := addPred("award", kg.KindEntity, false)
	pSpouse := addPred("spouse", kg.KindEntity, false)
	pCollab := addPred("collaborator", kg.KindEntity, false)
	pDOB := addPred("dateOfBirth", kg.KindTime, true)
	pHeight := addPred("height", kg.KindInt, true)
	pFollowers := addPred("followers", kg.KindInt, true)
	pLibID := addPred("libraryID", kg.KindString, true)

	prov := kg.Provenance{Source: "curated", Confidence: 0.95, SourceQuality: 0.9, ObservedAt: time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)}
	// Facts are accumulated and flushed through the graph's batch
	// ingestion fast path (one lock acquisition per subject, indexes grown
	// once) instead of locking per triple. Validation happens at flush;
	// every referenced entity/predicate is registered before then.
	var batch []kg.Triple
	assert := func(s kg.EntityID, p kg.PredicateID, obj kg.Value) {
		batch = append(batch, kg.Triple{Subject: s, Predicate: p, Object: obj, Prov: prov})
	}

	// Occupation entities. The first one is made globally "popular" so the
	// popularity baseline for fact ranking has something plausible (and
	// sometimes wrong) to say.
	for i, name := range occupationNames {
		id, err := g.AddEntity(kg.Entity{
			Key: fmt.Sprintf("occ%d", i), Name: name,
			Aliases:     []string{name},
			Description: "occupation " + name,
			Types:       []kg.TypeID{w.Types["Occupation"]},
			Popularity:  zipf(i, len(occupationNames)),
		})
		if err != nil {
			return nil, err
		}
		w.Occupations = append(w.Occupations, id)
	}
	// Cluster theme occupations: take them from the tail (least popular)
	// end of the occupation list.
	for c := 0; c < cfg.NumClusters; c++ {
		w.ThemeOccs = append(w.ThemeOccs, w.Occupations[(len(w.Occupations)-1-c%len(w.Occupations))%len(w.Occupations)])
	}
	// Cities.
	for i, name := range cityNames {
		id, err := g.AddEntity(kg.Entity{
			Key: fmt.Sprintf("city%d", i), Name: name,
			Aliases:     []string{name},
			Description: "city of " + name,
			Types:       []kg.TypeID{w.Types["City"]},
			Popularity:  zipf(i, len(cityNames)),
		})
		if err != nil {
			return nil, err
		}
		w.Cities = append(w.Cities, id)
	}
	// One team and one award per cluster.
	for c := 0; c < cfg.NumClusters; c++ {
		team, err := g.AddEntity(kg.Entity{
			Key: fmt.Sprintf("team%d", c), Name: fmt.Sprintf("%s %ss", cityNames[c%len(cityNames)], occWord(c)),
			Aliases:     []string{fmt.Sprintf("%s %ss", cityNames[c%len(cityNames)], occWord(c))},
			Description: "team in cluster " + fmt.Sprint(c),
			Types:       []kg.TypeID{w.Types["Team"]},
			Popularity:  zipf(c, cfg.NumClusters),
		})
		if err != nil {
			return nil, err
		}
		w.Teams = append(w.Teams, team)
		award, err := g.AddEntity(kg.Entity{
			Key: fmt.Sprintf("award%d", c), Name: fmt.Sprintf("%s Award", occupationNames[c%len(occupationNames)]),
			Aliases:     []string{fmt.Sprintf("%s Award", occupationNames[c%len(occupationNames)])},
			Description: "award for cluster " + fmt.Sprint(c),
			Types:       []kg.TypeID{w.Types["Award"]},
			Popularity:  zipf(c, cfg.NumClusters),
		})
		if err != nil {
			return nil, err
		}
		w.Awards = append(w.Awards, award)
	}

	// People, clustered.
	usedNames := make(map[string]int)
	for i := 0; i < cfg.NumPeople; i++ {
		cluster := i % cfg.NumClusters
		name := fmt.Sprintf("%s %s", firstNames[rng.Intn(len(firstNames))], lastNames[rng.Intn(len(lastNames))])
		usedNames[name]++
		if usedNames[name] > 1 {
			// Keep organic collisions distinct unless we plant them below.
			name = fmt.Sprintf("%s %s", name, romanNumeral(usedNames[name]))
		}
		themeOcc := w.ThemeOccs[cluster]
		city := w.Cities[cluster%len(w.Cities)]
		desc := fmt.Sprintf("%s, a %s from %s, member of %s",
			name,
			g.Entity(themeOcc).Name,
			g.Entity(city).Name,
			g.Entity(w.Teams[cluster]).Name)
		// Alias list: full name + last name alone (creates natural
		// ambiguity among same-surname people).
		id, err := g.AddEntity(kg.Entity{
			Key: fmt.Sprintf("person%d", i), Name: name,
			Aliases:     []string{name, lastNameOf(name)},
			Description: desc,
			Types:       []kg.TypeID{w.Types["Athlete"]},
			Popularity:  zipf(i, cfg.NumPeople),
		})
		if err != nil {
			return nil, err
		}
		w.People = append(w.People, id)
		w.Cluster[id] = cluster
		w.ClusterMembers[cluster] = append(w.ClusterMembers[cluster], id)
	}

	// Facts per person.
	for _, p := range w.People {
		cluster := w.Cluster[p]
		themeOcc := w.ThemeOccs[cluster]
		// Occupations: theme first (gold most important), then secondary
		// occupations sampled with popularity bias (popular generic
		// occupations show up as side gigs). The theme is structurally
		// supported — every cluster member shares it — while popularity
		// alone points the wrong way.
		gold := []kg.EntityID{themeOcc}
		for len(gold) < cfg.OccupationsPerPerson {
			cand := w.Occupations[popularityBiasedIndex(rng, len(w.Occupations))]
			dup := false
			for _, gpo := range gold {
				if gpo == cand {
					dup = true
					break
				}
			}
			if !dup {
				gold = append(gold, cand)
			}
		}
		w.OccupationGold[p] = gold
		for _, occ := range gold {
			assert(p, pOcc, kg.EntityValue(occ))
		}
		// Cluster-structural facts.
		assert(p, pMember, kg.EntityValue(w.Teams[cluster]))
		assert(p, pBorn, kg.EntityValue(w.Cities[cluster%len(w.Cities)]))
		if rng.Float64() < 0.7 {
			assert(p, pAward, kg.EntityValue(w.Awards[cluster]))
		}
		// Intra-cluster collaborators (2 random co-members).
		members := w.ClusterMembers[cluster]
		for k := 0; k < 2 && len(members) > 1; k++ {
			other := members[rng.Intn(len(members))]
			if other != p {
				assert(p, pCollab, kg.EntityValue(other))
			}
		}
		// Sparse inter-cluster noise edge.
		if rng.Float64() < 0.1 {
			other := w.People[rng.Intn(len(w.People))]
			if other != p {
				assert(p, pCollab, kg.EntityValue(other))
			}
		}
		// Occasional spouse inside cluster.
		if rng.Float64() < 0.2 && len(members) > 1 {
			other := members[rng.Intn(len(members))]
			if other != p {
				assert(p, pSpouse, kg.EntityValue(other))
			}
		}
		// Literal facts (the §2 "non-relevant" noise for embeddings).
		dob := time.Date(1950+rng.Intn(55), time.Month(1+rng.Intn(12)), 1+rng.Intn(28), 0, 0, 0, 0, time.UTC)
		assert(p, pDOB, kg.TimeValue(dob))
		for k := 0; k < cfg.LiteralNoiseFacts; k++ {
			switch k % 3 {
			case 0:
				assert(p, pHeight, kg.IntValue(int64(150+rng.Intn(70))))
			case 1:
				assert(p, pFollowers, kg.IntValue(int64(rng.Intn(5_000_000))))
			default:
				assert(p, pLibID, kg.StringValue(fmt.Sprintf("LIB-%06d", rng.Intn(999999))))
			}
		}
	}
	if _, err := g.AssertBatch(batch); err != nil {
		return nil, err
	}

	// Plant ambiguous name pairs across clusters (the "Michael Jordan"
	// scenario of Fig 2): rename person A in cluster i and person B in
	// cluster j != i to the same name.
	renamed := make(map[kg.EntityID]bool)
	for k := 0; k < cfg.AmbiguousNamePairs && cfg.NumClusters >= 2; k++ {
		c1 := k % cfg.NumClusters
		c2 := (k + 1 + cfg.NumClusters/2) % cfg.NumClusters
		if c1 == c2 {
			continue
		}
		a, okA := firstUnrenamed(w.ClusterMembers[c1], renamed)
		b, okB := firstUnrenamed(w.ClusterMembers[c2], renamed)
		if !okA || !okB {
			continue
		}
		renamed[a] = true
		renamed[b] = true
		shared := fmt.Sprintf("%s %s", firstNames[k%len(firstNames)], lastNames[(k*3+9)%len(lastNames)])
		for _, id := range []kg.EntityID{a, b} {
			// Rebuild name, aliases, and description to reflect the new
			// name. UpdateEntity replaces the stored record copy-on-write;
			// mutating the pointer Entity() returns is forbidden.
			cl := w.Cluster[id]
			desc := fmt.Sprintf("%s, a %s from %s, member of %s",
				shared,
				g.Entity(w.ThemeOccs[cl]).Name,
				g.Entity(w.Cities[cl%len(w.Cities)]).Name,
				g.Entity(w.Teams[cl]).Name)
			g.UpdateEntity(id, func(e *kg.Entity) {
				e.Name = shared
				e.Aliases = []string{shared, lastNameOf(shared)}
				e.Description = desc
			})
		}
		w.AmbiguousNames[shared] = []kg.EntityID{a, b}
	}

	return w, nil
}

// popularityBiasedIndex samples an index in [0,n) with probability
// proportional to popularity squared, heavily favouring the head.
func popularityBiasedIndex(rng *rand.Rand, n int) int {
	var total float64
	for i := 0; i < n; i++ {
		p := zipf(i, n)
		total += p * p
	}
	r := rng.Float64() * total
	var acc float64
	for i := 0; i < n; i++ {
		p := zipf(i, n)
		acc += p * p
		if acc >= r {
			return i
		}
	}
	return n - 1
}

// zipf maps rank i of n to a Zipfian popularity in (0,1].
func zipf(i, n int) float64 {
	return 1 / math.Sqrt(float64(i+1))
}

// firstUnrenamed returns the first cluster member not yet used by an
// ambiguous-name pair.
func firstUnrenamed(members []kg.EntityID, renamed map[kg.EntityID]bool) (kg.EntityID, bool) {
	for _, m := range members {
		if !renamed[m] {
			return m, true
		}
	}
	return kg.NoEntity, false
}

func occWord(c int) string {
	words := []string{"Raptor", "Eagle", "Shark", "Wolve", "Tiger", "Falcon", "Bear", "Lion", "Hawk", "Panther"}
	return words[c%len(words)]
}

func lastNameOf(full string) string {
	for i := len(full) - 1; i >= 0; i-- {
		if full[i] == ' ' {
			return full[i+1:]
		}
	}
	return full
}

func romanNumeral(n int) string {
	switch n {
	case 2:
		return "II"
	case 3:
		return "III"
	case 4:
		return "IV"
	default:
		return fmt.Sprintf("#%d", n)
	}
}
