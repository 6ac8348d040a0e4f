package provenance

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/spec"
	"repro/internal/warehouse"
)

// This file implements the alternative evaluation strategy the paper tried
// and rejected ("We tested various strategies to implement the computation
// of deep provenance through user views"): recursing directly over the
// composite-execution graph of the requested view instead of computing the
// UAdmin closure first. It is kept as an ablation target — benchmarks
// compare it against the projected strategy — and as a semantic contrast:
// because a multi-step composite execution is traversed as a unit, the
// direct strategy pulls in *every* input of a visited execution, so on
// views with large composites it may over-approximate the precise
// derivation that UAdmin-then-project reports. (On UAdmin itself the two
// strategies coincide; the property tests pin this down.)

// DeepProvenanceDirect answers the deep-provenance query by recursive
// traversal at the granularity of the view's composite executions, without
// consulting or populating the UAdmin closure cache.
func (e *Engine) DeepProvenanceDirect(runID string, v *core.UserView, d string) (*Result, error) {
	r, err := e.resolve(runID, v)
	if err != nil {
		return nil, err
	}
	if !r.HasData(d) {
		return nil, fmt.Errorf("%w: %q in run %q", warehouse.ErrUnknownData, d, runID)
	}
	m, err := e.mapping(r, v)
	if err != nil {
		return nil, err
	}
	res := &Result{RunID: runID, Root: d, External: r.IsExternal(d)}
	if res.External {
		res.Metadata = r.InputMeta(d)
	}
	dataSet := map[string]bool{d: true}
	visible := make(map[string]bool)
	start, ok := m.ProducerExecution(d)
	if ok {
		// Recursive CONNECT BY over execution ids.
		order := warehouse.ConnectBy([]string{start}, func(id string) []string {
			ex, _ := m.Execution(id)
			var parents []string
			for _, in := range ex.Inputs {
				dataSet[in] = true
				if p, ok := m.ProducerExecution(in); ok {
					parents = append(parents, p)
				}
			}
			return parents
		})
		for _, id := range order {
			visible[id] = true
		}
	}
	for _, ex := range m.Executions() { // topological order
		if visible[ex.ID] {
			res.Executions = append(res.Executions, ex)
		}
	}
	edgeAcc := make(map[[2]string][]string)
	for _, ex := range res.Executions {
		for _, in := range ex.Inputs {
			src, ok := m.ProducerExecution(in)
			if !ok {
				src = spec.Input
			}
			key := [2]string{src, ex.ID}
			edgeAcc[key] = append(edgeAcc[key], in)
		}
	}
	for key, ds := range edgeAcc {
		sortNatural(ds)
		res.Edges = append(res.Edges, Edge{From: key[0], To: key[1], Data: ds})
	}
	sortEdges(res.Edges)
	res.Data = make([]string, 0, len(dataSet))
	for x := range dataSet {
		res.Data = append(res.Data, x)
	}
	sortNatural(res.Data)
	return res, nil
}

func sortEdges(edges []Edge) {
	for i := 1; i < len(edges); i++ {
		for j := i; j > 0 && edgeLess(edges[j], edges[j-1]); j-- {
			edges[j], edges[j-1] = edges[j-1], edges[j]
		}
	}
}

func edgeLess(a, b Edge) bool {
	if a.From != b.From {
		return a.From < b.From
	}
	return a.To < b.To
}
