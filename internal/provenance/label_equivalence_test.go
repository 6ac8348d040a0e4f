package provenance

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/warehouse"
)

// The label differential suite: the reachability-label closure path
// (StrategyLabels over a warehouse with SetLabelIndex(true)) and the bitset
// BFS path (StrategyBFS) must produce element-for-element identical Results
// — same executions in the same order, same data, same edges — for every
// query kind (deep provenance, immediate provenance, deep derivation),
// every user view, on the paper's phylogenomics example and on generated
// runs from every workflow class and every Table II run class. Equality is
// checked at the Result level, which pins the serialized answers
// byte-for-byte (JSON encoding is a pure function of the Result).

// labelTwinEngines returns two engines over the same spec and run: one
// whose warehouse carries reachability labels, one confined to the BFS.
// Both warehouses are compact-indexed, so any divergence is the label
// path's fault, not the index's.
func labelTwinEngines(t *testing.T, s *spec.Spec, r *run.Run) (labeled, bfs *Engine) {
	t.Helper()
	wl := warehouse.New(0)
	wl.SetLabelIndex(true)
	if err := wl.RegisterSpec(s); err != nil {
		t.Fatal(err)
	}
	if err := wl.LoadRun(r); err != nil {
		t.Fatal(err)
	}
	wb := warehouse.New(0)
	if err := wb.RegisterSpec(s); err != nil {
		t.Fatal(err)
	}
	if err := wb.LoadRun(r); err != nil {
		t.Fatal(err)
	}
	if wb.RunLabels(r.ID()) != nil {
		t.Fatal("BFS warehouse built labels")
	}
	return NewEngine(wl), NewEngine(wb)
}

// deepStrategy is DeepProvenance under an explicit closure strategy.
func deepStrategy(e *Engine, runID string, v *core.UserView, d string, strat warehouse.ClosureStrategy) (*Result, error) {
	res, _, err := e.DeepProvenanceTracedStrategyCtx(context.Background(), runID, v, d, strat)
	return res, err
}

// checkLabelEquivalence compares the two strategies for deep provenance,
// immediate provenance and deep derivation of the given data objects under
// the given views. The label engine is queried with StrategyLabels (so a
// missing label index counts a fallback rather than silently passing the
// test against itself) and the BFS engine with StrategyBFS.
func checkLabelEquivalence(t *testing.T, el, eb *Engine, r *run.Run, views map[string]*core.UserView, data []string) {
	t.Helper()
	for vname, v := range views {
		for _, d := range data {
			a, err := deepStrategy(el, r.ID(), v, d, warehouse.StrategyLabels)
			if err != nil {
				t.Fatalf("label prov(%s,%s): %v", vname, d, err)
			}
			b, err := deepStrategy(eb, r.ID(), v, d, warehouse.StrategyBFS)
			if err != nil {
				t.Fatalf("bfs prov(%s,%s): %v", vname, d, err)
			}
			sameResult(t, fmt.Sprintf("label-prov %s/%s/%s", r.ID(), vname, d), a, b)
			a, err = el.DeepDerivationStrategy(r.ID(), v, d, warehouse.StrategyLabels)
			if err != nil {
				t.Fatalf("label deriv(%s,%s): %v", vname, d, err)
			}
			b, err = eb.DeepDerivationStrategy(r.ID(), v, d, warehouse.StrategyBFS)
			if err != nil {
				t.Fatalf("bfs deriv(%s,%s): %v", vname, d, err)
			}
			sameResult(t, fmt.Sprintf("label-deriv %s/%s/%s", r.ID(), vname, d), a, b)
			exA, err := el.ImmediateProvenance(r.ID(), v, d)
			if err != nil {
				t.Fatalf("label immediate(%s,%s): %v", vname, d, err)
			}
			exB, err := eb.ImmediateProvenance(r.ID(), v, d)
			if err != nil {
				t.Fatalf("bfs immediate(%s,%s): %v", vname, d, err)
			}
			if !reflect.DeepEqual(exA, exB) {
				t.Fatalf("immediate %s/%s/%s differs: %+v vs %+v", r.ID(), vname, d, exA, exB)
			}
		}
	}
}

// TestLabelEquivalencePhylogenomics: every data object of the Figure 2 run,
// under UAdmin, Joe's view, Mary's view, and UBlackBox. The run must
// actually have labels — the suite is vacuous otherwise.
func TestLabelEquivalencePhylogenomics(t *testing.T) {
	s := spec.Phylogenomics()
	r := run.Figure2()
	el, eb := labelTwinEngines(t, s, r)
	if el.Warehouse().RunLabels(r.ID()) == nil {
		t.Fatal("label warehouse built no labels for Figure 2")
	}
	joe, err := core.BuildRelevant(s, spec.PhyloRelevantJoe())
	if err != nil {
		t.Fatal(err)
	}
	mary, err := core.BuildRelevant(s, spec.PhyloRelevantMary())
	if err != nil {
		t.Fatal(err)
	}
	bb, err := core.UBlackBox(s)
	if err != nil {
		t.Fatal(err)
	}
	views := map[string]*core.UserView{
		"admin": core.UAdmin(s), "joe": joe, "mary": mary, "blackbox": bb,
	}
	checkLabelEquivalence(t, el, eb, r, views, r.AllData())
	lc := el.Warehouse().LabelCounters()
	if lc.Hits == 0 {
		t.Fatal("label path never taken — suite compared BFS against BFS")
	}
	if lc.Fallbacks != 0 {
		t.Fatalf("unexpected label fallbacks: %d", lc.Fallbacks)
	}
}

// TestLabelEquivalenceGeneratedRuns: generated runs covering every workflow
// class and every Table II run class (mostly small for runtime, with
// periodic medium and large instances), compared under UAdmin, the UBio
// view, and a random builder view. 200 trials; -short trims to 24.
func TestLabelEquivalenceGeneratedRuns(t *testing.T) {
	trials := 200
	if testing.Short() {
		trials = 24
	}
	g := gen.NewGenerator(20424)
	rng := rand.New(rand.NewSource(20425))
	classes := gen.Classes()
	sawRunClass := map[string]bool{}
	labeledRuns := 0
	for i := 0; i < trials; i++ {
		wc := classes[i%len(classes)]
		rc := gen.Small()
		switch {
		case i%50 == 20:
			rc = gen.Large()
		case i%10 == 5:
			rc = gen.Medium()
		}
		sawRunClass[rc.Name] = true
		s := g.Workflow(wc, fmt.Sprintf("leq-%d", i))
		r, _, err := g.Run(s, rc, fmt.Sprintf("leq-%d-r", i))
		if err != nil {
			t.Fatal(err)
		}
		el, eb := labelTwinEngines(t, s, r)
		if el.Warehouse().RunLabels(r.ID()) != nil {
			labeledRuns++
		}
		views := map[string]*core.UserView{"admin": core.UAdmin(s)}
		if ubio, err := core.BuildRelevant(s, gen.UBioRelevant(s)); err == nil {
			views["ubio"] = ubio
		}
		rel := randomModules(rng, s.ModuleNames())
		if v, err := core.BuildRelevant(s, rel); err == nil {
			views["random"] = v
		}
		data := sampleData(rng, r.AllData(), 8)
		finals := r.FinalOutputs()
		if len(finals) > 0 {
			data = append(data, finals[len(finals)-1])
		}
		checkLabelEquivalence(t, el, eb, r, views, data)
	}
	if labeledRuns == 0 {
		t.Fatal("no generated run ever got labels — suite compared BFS against BFS")
	}
	if !testing.Short() {
		for _, want := range []string{"small", "medium", "large"} {
			if !sawRunClass[want] {
				t.Fatalf("run class %s never exercised", want)
			}
		}
	}
}

// TestConcurrentLabelServe runs a query burst through ServeConcurrently
// against a label-indexed warehouse — concurrent first queries race to
// lead the singleflight, so label closure materialization, the shared
// frozen bitsets, and the label counters all run under -race — and
// cross-checks every answer against the BFS engine.
func TestConcurrentLabelServe(t *testing.T) {
	g := gen.NewGenerator(20426)
	s := g.Workflow(gen.Class3(), "conc-lbl")
	r, _, err := g.Run(s, gen.Medium(), "conc-lbl-r")
	if err != nil {
		t.Fatal(err)
	}
	el, eb := labelTwinEngines(t, s, r)
	if el.Warehouse().RunLabels(r.ID()) == nil {
		t.Fatal("label warehouse built no labels for the medium run")
	}
	admin := core.UAdmin(s)
	ubio, err := core.BuildRelevant(s, gen.UBioRelevant(s))
	if err != nil {
		t.Fatal(err)
	}
	data := sampleData(rand.New(rand.NewSource(17)), r.AllData(), 40)
	var queries []Query
	for rep := 0; rep < 4; rep++ { // repeats force cache-hit sharing
		for _, d := range data {
			queries = append(queries, Query{RunID: r.ID(), View: admin, Data: d})
			queries = append(queries, Query{RunID: r.ID(), View: ubio, Data: d})
		}
	}
	answered := el.ServeConcurrently(context.Background(), queries, 8)
	for _, qr := range answered {
		if qr.Err != nil {
			t.Fatalf("query %d (%s): %v", qr.Index, qr.Query.Data, qr.Err)
		}
		want, err := deepStrategy(eb, qr.Query.RunID, qr.Query.View, qr.Query.Data, warehouse.StrategyBFS)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("concurrent-label %s", qr.Query.Data), qr.Result, want)
	}
	lc := el.Warehouse().LabelCounters()
	if lc.Hits == 0 {
		t.Fatal("label path never taken under the burst")
	}
	if lc.Fallbacks != 0 {
		t.Fatalf("unexpected label fallbacks under the burst: %d", lc.Fallbacks)
	}
}
