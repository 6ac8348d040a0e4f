package provenance

import (
	"sort"
	"testing"

	"repro/internal/composite"
	"repro/internal/core"
	"repro/internal/run"
	"repro/internal/spec"
)

// The reference the engine is held to: a plain string implementation of
// the compute-UAdmin-then-project strategy, written for obviousness rather
// than speed. Closures are breadth-first searches over the run's string
// relations; projections walk the mapping's string API with ordinary maps
// and sort at the end. Nothing here shares code with the engine's indexed
// path beyond composite.Build and the natural sort, so an agreement between
// the two is evidence rather than tautology. Each helper takes the oracle's
// own mapping (oracleMapping) of the run under the view.

// oracleProvenance is the backward closure: data → producing step → that
// step's inputs, to fixpoint.
func oracleProvenance(r *run.Run, d string) (steps, data map[string]bool) {
	steps, data = map[string]bool{}, map[string]bool{d: true}
	for queue := []string{d}; len(queue) > 0; queue = queue[1:] {
		p, _ := r.Producer(queue[0])
		if p == "" || steps[p] {
			continue
		}
		steps[p] = true
		for _, in := range r.InputsOf(p) {
			if !data[in] {
				data[in] = true
				queue = append(queue, in)
			}
		}
	}
	return steps, data
}

// oracleDerivation is the forward closure: data → consuming steps → their
// outputs, to fixpoint.
func oracleDerivation(r *run.Run, d string) (steps, data map[string]bool) {
	steps, data = map[string]bool{}, map[string]bool{d: true}
	for queue := []string{d}; len(queue) > 0; queue = queue[1:] {
		for _, s := range r.Consumers(queue[0]) {
			if steps[s] {
				continue
			}
			steps[s] = true
			for _, out := range r.OutputsOf(s) {
				if !data[out] {
					data[out] = true
					queue = append(queue, out)
				}
			}
		}
	}
	return steps, data
}

// oracleVisible starts a projection: the result header and the executions
// holding at least one closure step, in the mapping's topological order.
func oracleVisible(m *composite.Mapping, root string, steps map[string]bool) (*Result, map[string]bool) {
	r := m.Run()
	res := &Result{RunID: r.ID(), Root: root, External: r.IsExternal(root)}
	if res.External {
		res.Metadata = r.InputMeta(root)
	}
	visible := map[string]bool{}
	for _, ex := range m.Executions() {
		for _, s := range ex.Steps {
			if steps[s] {
				visible[ex.ID] = true
				res.Executions = append(res.Executions, ex)
				break
			}
		}
	}
	return res, visible
}

// oracleData seeds the visible data with the root (when it is a data
// object of the run) and returns it naturally sorted.
func oracleData(r *run.Run, root string, set map[string]bool) []string {
	if r.HasData(root) {
		set[root] = true
	}
	out := make([]string, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sortNatural(out)
	return out
}

// oracleProject restricts a backward closure to a view: visible
// executions, the closure inputs they read, and the edges between them.
func oracleProject(m *composite.Mapping, root string, steps, data map[string]bool) *Result {
	res, visible := oracleVisible(m, root, steps)
	seen := map[string]bool{}
	edges := map[[2]string][]string{}
	for _, ex := range res.Executions {
		for _, d := range ex.Inputs {
			if !data[d] {
				continue
			}
			seen[d] = true
			src, ok := m.ProducerExecution(d)
			if !ok {
				src = spec.Input
			}
			if src == spec.Input || visible[src] {
				k := [2]string{src, ex.ID}
				edges[k] = append(edges[k], d)
			}
		}
	}
	res.Data = oracleData(m.Run(), root, seen)
	keys := make([][2]string, 0, len(edges))
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		sortNatural(edges[k])
		res.Edges = append(res.Edges, Edge{From: k[0], To: k[1], Data: edges[k]})
	}
	return res
}

// oracleProjectForward restricts a forward closure to a view: visible
// executions and the closure outputs leaving them toward another visible
// execution or the final output.
func oracleProjectForward(m *composite.Mapping, root string, steps, data map[string]bool) *Result {
	r := m.Run()
	res, visible := oracleVisible(m, root, steps)
	finals := map[string]bool{}
	for _, d := range r.FinalOutputs() {
		finals[d] = true
	}
	seen := map[string]bool{}
	for _, ex := range res.Executions {
		for _, d := range ex.Outputs {
			if !data[d] {
				continue
			}
			leaves := finals[d]
			for _, c := range r.Consumers(d) {
				if id, ok := m.ExecutionOf(c); ok && id != ex.ID && visible[id] {
					leaves = true
				}
			}
			if leaves {
				seen[d] = true
			}
		}
	}
	res.Data = oracleData(r, root, seen)
	return res
}

func oracleMapping(t *testing.T, r *run.Run, v *core.UserView) *composite.Mapping {
	t.Helper()
	m, err := composite.Build(r, v)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// oracleDeep is the reference deep provenance of d.
func oracleDeep(m *composite.Mapping, d string) *Result {
	steps, data := oracleProvenance(m.Run(), d)
	return oracleProject(m, d, steps, data)
}

// oracleDeepDerivation is the reference deep derivation of d.
func oracleDeepDerivation(m *composite.Mapping, d string) *Result {
	steps, data := oracleDerivation(m.Run(), d)
	return oracleProjectForward(m, d, steps, data)
}

// oracleExecution is the reference ExecutionProvenance: the union of the
// execution's input closures plus its own steps, projected, with the
// execution id as the root.
func oracleExecution(t *testing.T, m *composite.Mapping, execID string) *Result {
	t.Helper()
	ex, ok := m.Execution(execID)
	if !ok {
		t.Fatalf("oracle: no execution %q", execID)
	}
	steps, data := map[string]bool{}, map[string]bool{}
	for _, in := range ex.Inputs {
		s, d := oracleProvenance(m.Run(), in)
		for k := range s {
			steps[k] = true
		}
		for k := range d {
			data[k] = true
		}
	}
	for _, s := range ex.Steps {
		steps[s] = true
	}
	res := oracleProject(m, execID, steps, data)
	res.External, res.Metadata = false, nil
	out := res.Data[:0]
	for _, d := range res.Data {
		if d != execID {
			out = append(out, d)
		}
	}
	res.Data = out
	return res
}

// oracleImmediate is the reference immediate provenance: the execution
// containing d's producing step, or nil for external data.
func oracleImmediate(m *composite.Mapping, d string) *composite.Execution {
	p, _ := m.Run().Producer(d)
	if p == "" {
		return nil
	}
	id, _ := m.ExecutionOf(p)
	ex, _ := m.Execution(id)
	return ex
}
