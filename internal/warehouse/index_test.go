package warehouse

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/run"
)

// closureNames turns a closure's bitsets into step and data name sets.
func closureNames(c *Closure) (steps, data map[string]bool) {
	ix, sb, db := c.Bits()
	steps, data = map[string]bool{}, map[string]bool{}
	sb.Each(func(s int32) { steps[ix.StepName(s)] = true })
	db.Each(func(d int32) { data[ix.DataName(d)] = true })
	return steps, data
}

// dataNamesOf returns a closure's data members by name.
func dataNamesOf(c *Closure) map[string]bool {
	_, data := closureNames(c)
	return data
}

// refClosure is the plain string reference closure the indexed and label
// paths are held to: a ConnectBy over the run's string relations, backward
// (deep provenance) or forward (deep derivation). Keys are bipartite: "d:"
// prefixes data, "s:" steps.
func refClosure(r *run.Run, d string, backward bool) (steps, data map[string]bool) {
	steps, data = map[string]bool{}, map[string]bool{d: true}
	ConnectBy([]string{"d:" + d}, func(key string) []string {
		id := key[2:]
		var next []string
		if key[0] == 'd' {
			if backward {
				if p, _ := r.Producer(id); p != "" {
					next = []string{p}
				}
			} else {
				next = r.Consumers(id)
			}
			out := make([]string, 0, len(next))
			for _, s := range next {
				steps[s] = true
				out = append(out, "s:"+s)
			}
			return out
		}
		if backward {
			next = r.InputsOf(id)
		} else {
			next = r.OutputsOf(id)
		}
		out := make([]string, 0, len(next))
		for _, x := range next {
			data[x] = true
			out = append(out, "d:"+x)
		}
		return out
	})
	return steps, data
}

// sameClosure fails unless c has exactly the given members and was
// computed over r.
func sameClosure(t *testing.T, label string, c *Closure, r *run.Run, steps, data map[string]bool) {
	t.Helper()
	if ix, _, _ := c.Bits(); ix.Run() != r {
		t.Fatalf("%s: closure computed over another run", label)
	}
	gotS, gotD := closureNames(c)
	if !reflect.DeepEqual(gotS, steps) {
		t.Fatalf("%s: steps differ\ngot  %v\nwant %v", label, gotS, steps)
	}
	if !reflect.DeepEqual(gotD, data) {
		t.Fatalf("%s: data differ\ngot  %v\nwant %v", label, gotD, data)
	}
}

// TestIndexedClosureMatchesOracle compares the bitset closure against the
// string reference for every data object of Figure 2, in both directions.
func TestIndexedClosureMatchesOracle(t *testing.T) {
	w := loadedWarehouse(t)
	r, _ := w.Run("fig2")
	for _, d := range r.AllData() {
		c, err := w.DeepProvenance("fig2", d)
		if err != nil {
			t.Fatalf("provenance(%s): %v", d, err)
		}
		steps, data := refClosure(r, d, true)
		sameClosure(t, "provenance "+d, c, r, steps, data)
		if c, err = w.DeepDerivation("fig2", d); err != nil {
			t.Fatalf("derivation(%s): %v", d, err)
		}
		steps, data = refClosure(r, d, false)
		sameClosure(t, "derivation "+d, c, r, steps, data)
	}
}

// TestClosureFacade pins the facade invariants: Has* agrees with the
// members, counts agree, and nothing outside the run is a member.
func TestClosureFacade(t *testing.T) {
	w := loadedWarehouse(t)
	c, err := w.DeepProvenance("fig2", "d447")
	if err != nil {
		t.Fatal(err)
	}
	steps, data := closureNames(c)
	if len(steps) != c.NumSteps() || len(data) != c.NumData() {
		t.Fatalf("members disagree with counts: %d/%d vs %d/%d",
			len(steps), len(data), c.NumSteps(), c.NumData())
	}
	for s := range steps {
		if !c.HasStep(s) {
			t.Fatalf("HasStep(%s) false but a member", s)
		}
	}
	for d := range data {
		if !c.HasData(d) {
			t.Fatalf("HasData(%s) false but a member", d)
		}
	}
	if c.HasStep("ghost") || c.HasData("ghost") {
		t.Fatal("facade invented members")
	}
	if c.Size() != c.NumSteps()+c.NumData() {
		t.Fatalf("Size = %d", c.Size())
	}
}

// figure2As rebuilds the Figure 2 run under a different id via its log.
func figure2As(t *testing.T, id string) *run.Run {
	t.Helper()
	events, err := run.Figure2().ToLog()
	if err != nil {
		t.Fatal(err)
	}
	r, err := run.FromLog(id, "phylogenomics", events)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestIndexDroppedWithRun: DropRun discards the index along with the run.
func TestIndexDroppedWithRun(t *testing.T) {
	w := loadedWarehouse(t)
	if w.RunIndex("fig2") == nil {
		t.Fatal("no index after load")
	}
	if err := w.DropRun("fig2"); err != nil {
		t.Fatal(err)
	}
	if w.RunIndex("fig2") != nil {
		t.Fatal("index survived DropRun")
	}
	if st := w.Stats(); st.Index.IndexedRuns != 0 || st.Index.CSRBytes != 0 {
		t.Fatalf("stats still count dropped index: %+v", st.Index)
	}
}

// TestIndexStatsSurface: Stats carries the aggregate index footprint and
// renders it.
func TestIndexStatsSurface(t *testing.T) {
	w := loadedWarehouse(t)
	st := w.Stats()
	if st.Index.IndexedRuns != 1 {
		t.Fatalf("IndexedRuns = %d", st.Index.IndexedRuns)
	}
	if st.Index.InternedSteps != st.Steps || st.Index.InternedData != st.DataObjects {
		t.Fatalf("interned counts diverge from catalog counts: %+v vs steps=%d data=%d",
			st.Index, st.Steps, st.DataObjects)
	}
	if st.Index.CSRBytes <= 0 || st.Index.ClosureWords <= 0 {
		t.Fatalf("footprint missing: %+v", st.Index)
	}
	for _, want := range []string{"index[runs=1", "csr=", "closure="} {
		if !contains(st.String(), want) {
			t.Fatalf("Stats.String() = %q missing %q", st.String(), want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestConcurrentIndexedClosures hammers the indexed BFS and reads of the
// shared frozen bitsets from many goroutines (run under -race).
func TestConcurrentIndexedClosures(t *testing.T) {
	w := loadedWarehouse(t)
	r, _ := w.Run("fig2")
	data := r.AllData()
	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < len(data); j++ {
				d := data[(j+g*len(data)/goroutines)%len(data)]
				c, err := w.DeepProvenance("fig2", d)
				if err != nil {
					t.Errorf("query %s: %v", d, err)
					return
				}
				if !c.HasData(d) {
					t.Errorf("closure of %s lost its root", d)
					return
				}
				// Alternate access styles so bitset reads race against
				// each other across clones.
				if g%2 == 0 {
					closureNames(c)
				} else {
					_ = c.NumSteps() + c.NumData()
				}
			}
		}(g)
	}
	wg.Wait()
}
