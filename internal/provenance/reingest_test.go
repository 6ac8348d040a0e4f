package provenance

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/composite"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/warehouse"
)

// The re-ingest lifecycle: a run is dropped and loaded again under the same
// id with different content while one engine — and one view pointer —
// lives on. The engine memoizes mappings per (run id, view), so these tests
// pin that every answer after the swap is the new run's, exactly as a
// fresh engine gives it.

// reingestRuns generates two different runs of one Class 4 workflow that
// share the run id "r".
func reingestRuns(t *testing.T, seed int64, a, b gen.RunClass) (*spec.Spec, *run.Run, *run.Run) {
	t.Helper()
	g := gen.NewGenerator(seed)
	s := g.Workflow(gen.Class4(), "reingest")
	ra, _, err := g.Run(s, a, "r")
	if err != nil {
		t.Fatal(err)
	}
	rb, _, err := g.Run(s, b, "r")
	if err != nil {
		t.Fatal(err)
	}
	return s, ra, rb
}

// answers are one engine's answers for a set of data ids under one view.
type answers struct {
	deep, deriv, exec map[string]*Result // exec is keyed by execution id
	immediate         map[string]string  // data id -> execution id ("" external)
}

func collect(t *testing.T, e *Engine, runID string, v *core.UserView, data []string) answers {
	t.Helper()
	a := answers{deep: map[string]*Result{}, deriv: map[string]*Result{}, exec: map[string]*Result{}, immediate: map[string]string{}}
	for _, d := range data {
		var err error
		if a.deep[d], err = e.DeepProvenance(runID, v, d); err != nil {
			t.Fatalf("deep %s: %v", d, err)
		}
		if a.deriv[d], err = e.DeepDerivation(runID, v, d); err != nil {
			t.Fatalf("deriv %s: %v", d, err)
		}
		ex, err := e.ImmediateProvenance(runID, v, d)
		if err != nil {
			t.Fatalf("immediate %s: %v", d, err)
		}
		if ex == nil {
			continue
		}
		a.immediate[d] = ex.ID
		if a.exec[ex.ID], err = e.ExecutionProvenance(runID, v, ex.ID); err != nil {
			t.Fatalf("exec-prov %s: %v", ex.ID, err)
		}
	}
	return a
}

// TestReingestSameID: after DropRun + LoadRun under the same id, deep,
// immediate, derivation and execution provenance on the long-lived engine
// equal a fresh engine's answers over the new run.
func TestReingestSameID(t *testing.T) {
	s, old, neu := reingestRuns(t, 5, gen.Small(), gen.Medium())
	e := newTestEngine(t, s, old)
	w := e.Warehouse()
	ubio, err := core.BuildRelevant(s, gen.UBioRelevant(s))
	if err != nil {
		t.Fatal(err)
	}
	views := map[string]*core.UserView{"admin": core.UAdmin(s), "ubio": ubio}
	rng := rand.New(rand.NewSource(6))
	for _, v := range views { // warm every memo on the old run
		collect(t, e, "r", v, sampleData(rng, old.AllData(), 10))
	}
	if err := w.DropRun("r"); err != nil {
		t.Fatal(err)
	}
	if err := w.LoadRun(neu); err != nil {
		t.Fatal(err)
	}
	// One query under one view must release the old run from every view's
	// memo entry.
	if _, err := e.DeepProvenance("r", views["admin"], neu.FinalOutputs()[0]); err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	for k, ent := range e.mappings {
		if ent.r == old {
			t.Errorf("memo entry for view %p still pins the dropped run", k.view)
		}
	}
	e.mu.Unlock()
	fresh := newTestEngine(t, s, neu)
	data := append(sampleData(rng, neu.AllData(), 12), neu.FinalOutputs()...)
	for vname, v := range views {
		got := collect(t, e, "r", v, data)
		want := collect(t, fresh, "r", v, data)
		for _, d := range data {
			sameResult(t, fmt.Sprintf("deep %s/%s", vname, d), got.deep[d], want.deep[d])
			sameResult(t, fmt.Sprintf("deriv %s/%s", vname, d), got.deriv[d], want.deriv[d])
		}
		if !reflect.DeepEqual(got.immediate, want.immediate) {
			t.Fatalf("immediate %s: got %v, want %v", vname, got.immediate, want.immediate)
		}
		for id, res := range want.exec {
			sameResult(t, fmt.Sprintf("exec-prov %s/%s", vname, id), got.exec[id], res)
		}
	}
}

// TestConcurrentReingest interleaves DropRun/LoadRun of two runs sharing an
// id with concurrent queries of every kind (run under -race). Every answer
// must be the old run's or the new run's fresh answer, or a clean error;
// no query may panic.
func TestConcurrentReingest(t *testing.T) {
	s, ra, rb := reingestRuns(t, 8, gen.Small(), gen.Small())
	v, err := core.BuildRelevant(s, gen.UBioRelevant(s))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	data := append(sampleData(rng, ra.AllData(), 6), sampleData(rng, rb.AllData(), 6)...)
	// Each id's fresh answers over each run (absent where the run lacks it).
	// Execution ids are reused across runs with different content, so
	// each run's answer is recorded for every execution id either names.
	var fresh [2]answers
	var engines [2]*Engine
	for i, r := range []*run.Run{ra, rb} {
		var mine []string
		for _, d := range data {
			if r.HasData(d) {
				mine = append(mine, d)
			}
		}
		engines[i] = newTestEngine(t, s, r)
		fresh[i] = collect(t, engines[i], "r", v, mine)
	}
	for i := range fresh {
		for _, f := range fresh {
			for _, id := range f.immediate {
				if res, err := engines[i].ExecutionProvenance("r", v, id); err == nil {
					fresh[i].exec[id] = res
				}
			}
		}
	}
	matches := func(pick func(answers) interface{}) func(interface{}) bool {
		return func(got interface{}) bool {
			for _, f := range fresh {
				if want := pick(f); !reflect.ValueOf(want).IsNil() && reflect.DeepEqual(got, want) {
					return true
				}
			}
			return false
		}
	}
	clean := func(err error) bool {
		return errors.Is(err, warehouse.ErrUnknownRun) || errors.Is(err, warehouse.ErrUnknownData) ||
			errors.Is(err, ErrRunChanged) || strings.Contains(err.Error(), "unknown execution")
	}

	e := newTestEngine(t, s, ra)
	w := e.Warehouse()
	var answered atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				d := data[i%len(data)]
				var got interface{}
				var ok func(interface{}) bool
				var err error
				switch i % 4 {
				case 0:
					got, err = e.DeepProvenance("r", v, d)
					ok = matches(func(a answers) interface{} { return a.deep[d] })
				case 1:
					got, err = e.DeepDerivation("r", v, d)
					ok = matches(func(a answers) interface{} { return a.deriv[d] })
				case 2:
					var ex *composite.Execution
					ex, err = e.ImmediateProvenance("r", v, d)
					if err == nil && ex != nil {
						got = ex.ID
					}
					ok = func(got interface{}) bool {
						id, _ := got.(string)
						_, inA := fresh[0].deep[d]
						_, inB := fresh[1].deep[d]
						return (inA && fresh[0].immediate[d] == id) || (inB && fresh[1].immediate[d] == id)
					}
				default:
					id := fresh[g%2].immediate[d]
					if id == "" {
						continue
					}
					got, err = e.ExecutionProvenance("r", v, id)
					ok = matches(func(a answers) interface{} { return a.exec[id] })
				}
				if err != nil {
					if !clean(err) {
						t.Errorf("query %d (%s): unclean error %v", i, d, err)
						return
					}
					continue
				}
				if !ok(got) {
					t.Errorf("query %d (%s): answer matches neither run's fresh answer", i, d)
					return
				}
				answered.Add(1)
			}
		}(g)
	}
	for deadline := time.Now().Add(5 * time.Second); answered.Load() < 8 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	runs := []*run.Run{ra, rb}
	for i := 1; i <= 40; i++ {
		if err := w.DropRun("r"); err != nil {
			t.Fatal(err)
		}
		if err := w.LoadRun(runs[i%2]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if answered.Load() == 0 {
		t.Fatal("no query answered during the churn")
	}
}
