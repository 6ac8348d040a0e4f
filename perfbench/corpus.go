package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/provenance"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/warehouse"
	"repro/zoom"
	"repro/zoom/client"
)

// namedView is the name of the one view each workload spec registers.
const namedView = "named"

// request is one query of a workload's stream, with everything the
// checker and the property report need to know about it.
type request struct {
	q    client.QueryRequest
	body []byte // the JSON body the client sends (the router cache key)
	// viewKey names the view the request is answered under: the named
	// view, the sorted relevant set, or UAdmin of the run's spec.
	viewKey string
	// want is the expected answer digest, valid once prepared is set.
	want     digest
	prepared bool
}

// corpus is a workload's generated input: the specifications, their
// registered views, the runs, and the request stream the clients replay.
type corpus struct {
	specs  []*spec.Spec
	views  map[string]*core.UserView // spec name -> the registered namedView
	runs   []*run.Run
	specOf map[string]*spec.Spec // run id -> spec
	// stream is the request sequence; equal bodies share one request.
	stream []*request
	// repeat[i] is set when an earlier position has the same body;
	// firstOfRun[i] when no earlier position addresses the same run.
	repeat, firstOfRun []bool
	// cycle lets the clients wrap around the stream. Off for cold-churn,
	// whose requests must never repeat: a run that exhausts its stream
	// ends its measured phase early and says so.
	cycle bool
}

func newCorpus() *corpus {
	return &corpus{views: map[string]*core.UserView{}, specOf: map[string]*spec.Spec{}}
}

// addSpec registers sp with its named view: the spec's scientific
// modules (the paper's UBio view) when pct is 0, else a random pct% of
// its modules. A spec whose scientific set yields no view gets a random
// 30% set instead. Random sets come from g, so the choice is reproducible.
func (c *corpus) addSpec(g *gen.Generator, sp *spec.Spec, pct int) error {
	var rel []string
	if pct == 0 {
		rel = gen.UBioRelevant(sp)
	} else {
		rel = g.RandomRelevant(sp, pct)
	}
	v, err := core.BuildRelevant(sp, rel)
	for try := 0; err != nil || len(rel) == 0; try++ {
		if try == 20 {
			return fmt.Errorf("spec %s: no named view could be built", sp.Name())
		}
		rel = g.RandomRelevant(sp, 30)
		v, err = core.BuildRelevant(sp, rel)
	}
	c.specs = append(c.specs, sp)
	c.views[sp.Name()] = v
	return nil
}

func (c *corpus) addRun(sp *spec.Spec, r *run.Run) {
	c.runs = append(c.runs, r)
	c.specOf[r.ID()] = sp
}

func (c *corpus) totalData() int {
	n := 0
	for _, r := range c.runs {
		n += len(r.AllData())
	}
	return n
}

// system builds a fresh in-memory system holding the whole corpus — the
// input the snapshot writer splits.
func (c *corpus) system() (*zoom.System, error) {
	sys := zoom.NewSystem()
	for _, sp := range c.specs {
		if err := sys.RegisterSpec(sp); err != nil {
			return nil, err
		}
		if err := sys.RegisterView(namedView, c.views[sp.Name()]); err != nil {
			return nil, err
		}
	}
	for _, r := range c.runs {
		if err := sys.LoadRun(r); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// writeSnapshots writes the corpus as v3 snapshots under dir: one file
// for a single worker, or one per shard split by ring placement exactly
// as `zoom snapshot shard` splits (Partition, Subset, SaveV3). It returns
// the paths in shard order.
func (c *corpus) writeSnapshots(dir string, shards int) ([]string, error) {
	sys, err := c.system()
	if err != nil {
		return nil, err
	}
	if shards <= 1 {
		p := filepath.Join(dir, "corpus.v3")
		return []string{p}, saveV3(sys, p)
	}
	ring, err := zoom.NewRing(shards, 0)
	if err != nil {
		return nil, err
	}
	var paths []string
	for k, ids := range ring.Partition(sys.RunIDs()) {
		keep := make(map[string]bool, len(ids))
		for _, id := range ids {
			keep[id] = true
		}
		sub, err := sys.Subset(func(id string) bool { return keep[id] })
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", k, err)
		}
		p := filepath.Join(dir, fmt.Sprintf("corpus.v3.shard%d", k))
		if err := saveV3(sub, p); err != nil {
			return nil, err
		}
		paths = append(paths, p)
	}
	return paths, nil
}

func saveV3(sys *zoom.System, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sys.SaveV3(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// finish encodes every request body, lets equal bodies share one
// request, and marks repeats and first touches in stream order.
func (c *corpus) finish() error {
	byBody := map[string]*request{}
	seenRun := map[string]bool{}
	c.repeat = make([]bool, len(c.stream))
	c.firstOfRun = make([]bool, len(c.stream))
	for i, rq := range c.stream {
		b, err := json.Marshal(rq.q)
		if err != nil {
			return err
		}
		c.firstOfRun[i] = !seenRun[rq.q.Run]
		seenRun[rq.q.Run] = true
		if prev := byBody[string(b)]; prev != nil {
			c.stream[i] = prev
			c.repeat[i] = true
			continue
		}
		byBody[string(b)] = rq
		rq.body = b
		switch {
		case rq.q.View != "":
			rq.viewKey = c.specOf[rq.q.Run].Name() + "/" + rq.q.View
		case len(rq.q.Relevant) > 0:
			rel := append([]string(nil), rq.q.Relevant...)
			sort.Strings(rel)
			rq.viewKey = c.specOf[rq.q.Run].Name() + "/{" + strings.Join(rel, ",") + "}"
		default:
			rq.viewKey = c.specOf[rq.q.Run].Name() + "/uadmin"
		}
	}
	return nil
}

// slot asks for one run of a workflow class and run kind whose size, in
// data objects, lies within [lo, hi].
type slot struct {
	class  gen.WorkflowClass
	kind   gen.RunClass
	lo, hi int
}

// addSlots fills each slot with a new spec (with its named view, see
// addSpec) and one run of it, redrawing both until the run's size falls
// in the slot's band, so that every seed's corpus has about the same
// shape.
func (c *corpus) addSlots(g *gen.Generator, prefix string, slots []slot, viewPct int) error {
	for _, s := range slots {
		for try := 0; ; try++ {
			if try == 500 {
				return fmt.Errorf("%s: no %s %s run of %d-%d data objects in 500 draws", prefix, s.class.Name, s.kind.Name, s.lo, s.hi)
			}
			n := len(c.runs)
			sp := g.Workflow(s.class, fmt.Sprintf("%s-wf%03d", prefix, n))
			r, err := genRun(g, sp, s.kind, fmt.Sprintf("%s-run%03d", prefix, n))
			if err != nil {
				return err
			}
			if d := len(r.AllData()); d < s.lo || d > s.hi {
				continue
			}
			if err := c.addSpec(g, sp, viewPct); err != nil {
				return err
			}
			c.addRun(sp, r)
			break
		}
	}
	return nil
}

// genRun draws one run of sp, retrying a failed execution with the next
// draw of the same generator.
func genRun(g *gen.Generator, sp *spec.Spec, rc gen.RunClass, id string) (*run.Run, error) {
	var err error
	for try := 0; try < 5; try++ {
		var r *run.Run
		if r, _, err = g.Run(sp, rc, id); err == nil {
			return r, nil
		}
	}
	return nil, fmt.Errorf("run %s: %w", id, err)
}

// buildRoutedSmall: 72 small and medium runs of Class1-3 specs, each spec
// with its named view (about 6k data objects), and a Zipf-skewed stream
// (s = 1.1, v = 50) over every (run, data) pair: 80% deep, 10% immediate,
// 10% derived, half under UAdmin and half under the named view.
func buildRoutedSmall(seed int64) (*corpus, error) {
	g := gen.NewGenerator(seed)
	c := newCorpus()
	c1, c2, c3 := gen.Class1(), gen.Class2(), gen.Class3()
	small, medium := gen.Small(), gen.Medium()
	block := []slot{
		{c1, small, 20, 60}, {c1, medium, 40, 150},
		{c2, small, 30, 80}, {c2, medium, 60, 200},
		{c3, small, 30, 80}, {c3, medium, 60, 200},
	}
	for b := 0; b < 12; b++ {
		if err := c.addSlots(g, "rs", block, 0); err != nil {
			return nil, err
		}
	}
	type pair struct{ run, data string }
	var pairs []pair
	for _, r := range c.runs {
		for _, d := range r.AllData() {
			pairs = append(pairs, pair{r.ID(), d})
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	zipf := rand.NewZipf(rng, 1.1, 50, uint64(len(pairs)-1))
	const streamLen = 120000
	c.stream = make([]*request, streamLen)
	for i := range c.stream {
		p := pairs[zipf.Uint64()]
		q := client.QueryRequest{Run: p.run, Data: p.data}
		switch k := rng.Intn(10); {
		case k == 8:
			q.Kind = "immediate"
		case k == 9:
			q.Kind = "derived"
		}
		if rng.Intn(2) == 1 {
			q.View = namedView
		}
		c.stream[i] = &request{q: q}
	}
	c.cycle = true
	return c, c.finish()
}

// buildDirectLargeWarm: Class4 specs, each with a random 60% named view,
// and large runs of 4k-8k data objects. Large runs are drawn until each
// view has eight deep queries whose JSON answer lies within 15% of 300
// KiB (at least 1,000 tuples). The working set is, per view, the eight
// nearest 300 KiB: 16 queries replayed in a seeded order. Only the large
// runs the working set asks about are served; Class4 medium runs that are
// never queried fill the corpus up to 40k data objects.
func buildDirectLargeWarm(seed int64) (*corpus, error) {
	const (
		corpusData = 40000
		perView    = 8
		targetSize = 300 << 10
		maxRuns    = 40
	)
	g := gen.NewGenerator(seed)
	rng := rand.New(rand.NewSource(seed ^ 0xd1ec7))
	type cand struct {
		q    client.QueryRequest
		size int
	}
	dist := func(cd cand) int {
		if cd.size > targetSize {
			return cd.size - targetSize
		}
		return targetSize - cd.size
	}
	cands := make([][]cand, 2) // UAdmin, named view
	near := make([]int, 2)
	pool := newCorpus()
	w := warehouse.New(0)
	e := provenance.NewEngine(w)
	for len(pool.runs) < maxRuns && (near[0] < perView || near[1] < perView) {
		if err := pool.addSlots(g, "dl", []slot{{gen.Class4(), gen.Large(), 4000, 8000}}, 60); err != nil {
			return nil, err
		}
		r := pool.runs[len(pool.runs)-1]
		sp := pool.specOf[r.ID()]
		if err := w.RegisterSpec(sp); err != nil {
			return nil, err
		}
		if err := w.LoadRun(r); err != nil {
			return nil, err
		}
		all := r.AllData()
		for k := 0; k < 40; k++ {
			d := all[rng.Intn(len(all))]
			for i, v := range []*core.UserView{core.UAdmin(sp), pool.views[sp.Name()]} {
				res, err := e.DeepProvenance(r.ID(), v, d)
				if err != nil {
					return nil, err
				}
				if res.Tuples() < 1000 {
					continue
				}
				cd := cand{client.QueryRequest{Run: r.ID(), Data: d}, answerSize(res)}
				if i == 1 {
					cd.q.View = namedView
				}
				cands[i] = append(cands[i], cd)
				if dist(cd) <= targetSize*15/100 {
					near[i]++
				}
			}
		}
	}
	var set []client.QueryRequest
	used := map[string]bool{}
	for _, cs := range cands {
		sort.SliceStable(cs, func(i, j int) bool { return dist(cs[i]) < dist(cs[j]) })
		seen := map[string]bool{}
		for _, cd := range cs {
			if key := cd.q.Run + "/" + cd.q.Data; len(seen) < perView && !seen[key] {
				seen[key] = true
				set = append(set, cd.q)
				used[cd.q.Run] = true
			}
		}
	}
	if len(set) < 2*perView {
		return nil, fmt.Errorf("direct-large-warm: seed %d yields too few large answers in %d runs", seed, maxRuns)
	}
	c := newCorpus()
	for _, r := range pool.runs {
		if used[r.ID()] {
			sp := pool.specOf[r.ID()]
			c.specs = append(c.specs, sp)
			c.views[sp.Name()] = pool.views[sp.Name()]
			c.addRun(sp, r)
		}
	}
	for c.totalData() < corpusData {
		if err := c.addSlots(g, "dlf", []slot{{gen.Class4(), gen.Medium(), 300, 1500}}, 60); err != nil {
			return nil, err
		}
	}
	c.stream = make([]*request, 4096)
	for i := range c.stream {
		c.stream[i] = &request{q: set[rng.Intn(len(set))]}
	}
	c.cycle = true
	return c, c.finish()
}

// answerSize is about the size of the server's JSON answer to a deep
// query: the same shape, encoded with the same indentation.
func answerSize(res *provenance.Result) int {
	r := &client.Result{Root: res.Root, External: res.External, Metadata: res.Metadata, Data: res.Data}
	for _, x := range res.Executions {
		r.Executions = append(r.Executions, client.Execution{ID: x.ID, Composite: x.Composite, Steps: x.Steps, Inputs: x.Inputs, Outputs: x.Outputs})
	}
	for _, ed := range res.Edges {
		r.Edges = append(r.Edges, client.Edge{From: ed.From, To: ed.To, Data: ed.Data})
	}
	b, _ := json.MarshalIndent(client.QueryResponse{TraceID: "0123456789abcdef", Run: res.RunID, Data: res.Root, Kind: "deep", Outcome: "hit", Timing: &client.Timing{}, Result: r}, "", "  ")
	return len(b)
}

// coldChurnStream is the number of distinct requests in cold-churn's
// stream. Every run serves all of them: the measured phase ends early when
// they run out, and what it left is sent after it, unmeasured. The engine's
// mapping memo grows with every request served, so heap_mb then reads the
// same amount of work however fast the host was. It is about what 25
// seconds served on the 2-core host the benchmark was defined on.
const coldChurnStream = 18000

// buildColdChurn: 84 medium and large runs of Class2-4 specs (about 46k
// data objects; Class4 runs are medium, a large one takes seconds to draw
// into a size band), and a stream of distinct (run, data) deep queries, every
// pair equally likely, each with a freshly drawn relevant set of 10-50% of
// the spec's modules (the paper's UV views).
func buildColdChurn(seed int64) (*corpus, error) {
	g := gen.NewGenerator(seed)
	c := newCorpus()
	c2, c3, c4 := gen.Class2(), gen.Class3(), gen.Class4()
	medium, large := gen.Medium(), gen.Large()
	block := []slot{
		{c2, medium, 60, 300}, {c2, large, 300, 1500},
		{c3, medium, 60, 200}, {c3, large, 100, 300},
		{c4, medium, 300, 1500}, {c4, medium, 300, 1500},
	}
	for b := 0; b < 14; b++ {
		if err := c.addSlots(g, "cc", block, 0); err != nil {
			return nil, err
		}
	}
	if c.totalData() < coldChurnStream {
		return nil, fmt.Errorf("cold-churn: seed %d yields %d data objects, fewer than %d requests", seed, c.totalData(), coldChurnStream)
	}
	rng := rand.New(rand.NewSource(seed ^ 0xc01d))
	unused := make([][]string, len(c.runs))
	for i, r := range c.runs {
		unused[i] = append([]string(nil), r.AllData()...)
		rng.Shuffle(len(unused[i]), func(a, b int) { unused[i][a], unused[i][b] = unused[i][b], unused[i][a] })
	}
	// Each request's run is drawn in proportion to its data objects, so
	// every (run, data) pair is equally likely.
	cum := make([]int, len(c.runs))
	for i, r := range c.runs {
		cum[i] = len(r.AllData())
		if i > 0 {
			cum[i] += cum[i-1]
		}
	}
	for len(c.stream) < coldChurnStream {
		i := sort.SearchInts(cum, rng.Intn(cum[len(cum)-1])+1)
		if len(unused[i]) == 0 {
			continue
		}
		d := unused[i][len(unused[i])-1]
		unused[i] = unused[i][:len(unused[i])-1]
		sp := c.specOf[c.runs[i].ID()]
		var rel []string
		for {
			rel = g.RandomRelevant(sp, 10+rng.Intn(41))
			if _, err := core.BuildRelevant(sp, rel); err == nil && len(rel) > 0 {
				break
			}
		}
		c.stream = append(c.stream, &request{q: client.QueryRequest{Run: c.runs[i].ID(), Data: d, Relevant: rel}})
	}
	return c, c.finish()
}
