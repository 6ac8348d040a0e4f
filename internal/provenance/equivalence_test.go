package provenance

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/composite"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/warehouse"
)

// The equivalence property: the engine's bitset/CSR path must produce
// element-for-element identical Results to the plain string reference in
// oracle_test.go — same executions in the same order, same data, same
// edges — for every query kind. These tests pin it on the paper's
// phylogenomics example and on generated runs from every workflow class
// and every Table II run class.

// newTestEngine returns an engine over a fresh warehouse holding one run.
func newTestEngine(t *testing.T, s *spec.Spec, r *run.Run) *Engine {
	t.Helper()
	w := warehouse.New(0)
	if err := w.RegisterSpec(s); err != nil {
		t.Fatal(err)
	}
	if err := w.LoadRun(r); err != nil {
		t.Fatal(err)
	}
	return NewEngine(w)
}

func sameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.RunID != b.RunID || a.Root != b.Root || a.External != b.External {
		t.Fatalf("%s: headers differ: %+v vs %+v", label, a, b)
	}
	if !reflect.DeepEqual(a.Metadata, b.Metadata) {
		t.Fatalf("%s: metadata differ: %v vs %v", label, a.Metadata, b.Metadata)
	}
	if len(a.Executions) != len(b.Executions) {
		t.Fatalf("%s: %d vs %d executions", label, len(a.Executions), len(b.Executions))
	}
	for i := range a.Executions {
		if !reflect.DeepEqual(a.Executions[i], b.Executions[i]) {
			t.Fatalf("%s: execution %d differs: %+v vs %+v", label, i, a.Executions[i], b.Executions[i])
		}
	}
	if !reflect.DeepEqual(a.Data, b.Data) {
		t.Fatalf("%s: data differ:\ngot  %v\nwant %v", label, a.Data, b.Data)
	}
	if !reflect.DeepEqual(a.Edges, b.Edges) {
		t.Fatalf("%s: edges differ:\ngot  %v\nwant %v", label, a.Edges, b.Edges)
	}
}

// checkEquivalence compares the engine with the oracle for provenance,
// derivation, immediate provenance, and the execution provenance of each
// data object's producing execution, under the given views.
func checkEquivalence(t *testing.T, e *Engine, r *run.Run, views map[string]*core.UserView, data []string) {
	t.Helper()
	for vname, v := range views {
		m := oracleMapping(t, r, v)
		for _, d := range data {
			label := fmt.Sprintf("%s/%s/%s", r.ID(), vname, d)
			a, err := e.DeepProvenance(r.ID(), v, d)
			if err != nil {
				t.Fatalf("prov %s: %v", label, err)
			}
			sameResult(t, "prov "+label, a, oracleDeep(m, d))
			a, err = e.DeepDerivation(r.ID(), v, d)
			if err != nil {
				t.Fatalf("deriv %s: %v", label, err)
			}
			sameResult(t, "deriv "+label, a, oracleDeepDerivation(m, d))
			ex, err := e.ImmediateProvenance(r.ID(), v, d)
			if err != nil {
				t.Fatalf("immediate %s: %v", label, err)
			}
			if want := oracleImmediate(m, d); !reflect.DeepEqual(ex, want) {
				t.Fatalf("immediate %s: got %+v, want %+v", label, ex, want)
			}
			if ex == nil {
				continue // external input: no producing execution
			}
			a, err = e.ExecutionProvenance(r.ID(), v, ex.ID)
			if err != nil {
				t.Fatalf("exec-prov %s (%s): %v", label, ex.ID, err)
			}
			sameResult(t, "exec-prov "+label, a, oracleExecution(t, m, ex.ID))
		}
	}
}

// TestEquivalencePhylogenomics: every data object of the Figure 2 run,
// under UAdmin, Joe's view, Mary's view, and UBlackBox.
func TestEquivalencePhylogenomics(t *testing.T) {
	s := spec.Phylogenomics()
	r := run.Figure2()
	e := newTestEngine(t, s, r)
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
	checkEquivalence(t, e, r, views, r.AllData())
}

// TestEquivalenceGeneratedRuns: 200 generated runs covering every workflow
// class and every Table II run class (mostly small for runtime, with
// periodic medium and large instances), compared under UAdmin, the UBio
// view, and a random builder view.
func TestEquivalenceGeneratedRuns(t *testing.T) {
	trials := 200
	if testing.Short() {
		trials = 24
	}
	g := gen.NewGenerator(777)
	rng := rand.New(rand.NewSource(778))
	classes := gen.Classes()
	sawRunClass := map[string]bool{}
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
		s := g.Workflow(wc, fmt.Sprintf("eq-%d", i))
		r, _, err := g.Run(s, rc, fmt.Sprintf("eq-%d-r", i))
		if err != nil {
			t.Fatal(err)
		}
		e := newTestEngine(t, s, r)
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
		checkEquivalence(t, e, r, views, data)
	}
	if !testing.Short() {
		for _, want := range []string{"small", "medium", "large"} {
			if !sawRunClass[want] {
				t.Fatalf("run class %s never exercised", want)
			}
		}
	}
}

// TestConcurrentIndexedServe runs a query burst through ServeConcurrently
// — the projector sync.Once, the shared frozen closure bitsets, and the
// pooled edge builders all under -race — and cross-checks every answer
// against the oracle.
func TestConcurrentIndexedServe(t *testing.T) {
	g := gen.NewGenerator(911)
	s := g.Workflow(gen.Class4(), "conc-ix")
	r, _, err := g.Run(s, gen.Medium(), "conc-ix-r")
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, s, r)
	admin := core.UAdmin(s)
	ubio, err := core.BuildRelevant(s, gen.UBioRelevant(s))
	if err != nil {
		t.Fatal(err)
	}
	data := sampleData(rand.New(rand.NewSource(13)), r.AllData(), 40)
	var queries []Query
	for rep := 0; rep < 4; rep++ { // repeats force cache-hit sharing
		for _, d := range data {
			queries = append(queries, Query{RunID: r.ID(), View: admin, Data: d})
			queries = append(queries, Query{RunID: r.ID(), View: ubio, Data: d})
		}
	}
	answered := e.ServeConcurrently(context.Background(), queries, 8)
	maps := map[*core.UserView]*composite.Mapping{admin: oracleMapping(t, r, admin), ubio: oracleMapping(t, r, ubio)}
	for _, qr := range answered {
		if qr.Err != nil {
			t.Fatalf("query %d (%s): %v", qr.Index, qr.Query.Data, qr.Err)
		}
		want := oracleDeep(maps[qr.Query.View], qr.Query.Data)
		sameResult(t, fmt.Sprintf("concurrent %s", qr.Query.Data), qr.Result, want)
	}
}
