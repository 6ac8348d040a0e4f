package provenance

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/composite"
	"repro/internal/core"
	"repro/internal/warehouse"
)

// Canned queries. The prototype section of the paper describes, besides the
// flagship deep-provenance query, an interactive repertoire: clicking an
// edge between two steps shows the data passed between them, and "forms to
// express various (canned) provenance queries such as: Return the data
// objects which have a given data object in their data provenance". This
// file implements that repertoire at the user-view level.

// DataBetween returns the data objects passed from one composite execution
// to another under the given view — the prototype's click-on-an-edge
// interaction. The result is nil (not an error) when no data flows between
// them.
func (e *Engine) DataBetween(runID string, v *core.UserView, fromExec, toExec string) ([]string, error) {
	m, err := e.mappingFor(runID, v)
	if err != nil {
		return nil, err
	}
	if _, ok := m.Execution(fromExec); !ok {
		return nil, fmt.Errorf("provenance: unknown execution %q in run %q", fromExec, runID)
	}
	if _, ok := m.Execution(toExec); !ok {
		return nil, fmt.Errorf("provenance: unknown execution %q in run %q", toExec, runID)
	}
	for _, edge := range m.Edges() {
		if edge.From == fromExec && edge.To == toExec {
			return edge.Data, nil
		}
	}
	return nil, nil
}

// InProvenance reports whether candidate is in the deep provenance of
// target (at the UAdmin level — visibility does not change the underlying
// derivation facts, only what is displayed).
func (e *Engine) InProvenance(runID, candidate, target string) (bool, error) {
	closure, err := e.w.DeepProvenance(runID, target)
	if err != nil {
		return false, err
	}
	r, err := e.w.Run(runID)
	if err != nil {
		return false, err
	}
	if !r.HasData(candidate) {
		return false, fmt.Errorf("%w: %q in run %q", warehouse.ErrUnknownData, candidate, runID)
	}
	return candidate != target && closure.HasData(candidate), nil
}

// CommonProvenance returns the data objects lying in the deep provenance
// of both d1 and d2 that are visible under the view — the shared upstream
// the two results depend on.
func (e *Engine) CommonProvenance(runID string, v *core.UserView, d1, d2 string) ([]string, error) {
	r1, err := e.DeepProvenance(runID, v, d1)
	if err != nil {
		return nil, err
	}
	r2, err := e.DeepProvenance(runID, v, d2)
	if err != nil {
		return nil, err
	}
	in2 := make(map[string]bool, len(r2.Data))
	for _, d := range r2.Data {
		in2[d] = true
	}
	var out []string
	for _, d := range r1.Data {
		if in2[d] && d != d1 && d != d2 {
			out = append(out, d)
		}
	}
	return out, nil
}

// ExecutionProvenance returns the deep provenance of a composite
// execution: everything transitively used to assemble its inputs, plus the
// execution itself. This answers "how did this box in my provenance graph
// come to be?" without the user having to pick one of its output data ids.
func (e *Engine) ExecutionProvenance(runID string, v *core.UserView, execID string) (*Result, error) {
	m, err := e.mappingFor(runID, v)
	if err != nil {
		return nil, err
	}
	ex, ok := m.Execution(execID)
	if !ok {
		return nil, fmt.Errorf("provenance: unknown execution %q in run %q", execID, runID)
	}
	// Union the closures of the execution's inputs; the per-(run, data)
	// cache makes the repeats cheap. Every closure must come from the run
	// the mapping was built over.
	px := m.Projector()
	ix := px.Index()
	steps, data := bitset.New(ix.NumSteps()), bitset.New(ix.NumData())
	for _, in := range ex.Inputs {
		c, err := e.w.DeepProvenance(runID, in)
		if err != nil {
			return nil, err
		}
		cix, cs, cd := c.Bits()
		if cix != ix {
			return nil, fmt.Errorf("%w: run %q", ErrRunChanged, runID)
		}
		steps.Or(cs)
		data.Or(cd)
	}
	for _, s := range ex.Steps {
		id, _ := ix.StepID(s)
		steps.Add(id)
	}
	res := projectBits(m, px, execID, steps, data)
	res.Root = execID
	res.External = false
	res.Metadata = nil
	// project seeds the data set with the closure root, which here is an
	// execution id, not a data id; drop it.
	filtered := res.Data[:0]
	for _, d := range res.Data {
		if d != execID {
			filtered = append(filtered, d)
		}
	}
	res.Data = filtered
	return res, nil
}

// Executions lists the composite executions of a run under a view in
// topological order — the run display the prototype draws.
func (e *Engine) Executions(runID string, v *core.UserView) ([]*composite.Execution, error) {
	m, err := e.mappingFor(runID, v)
	if err != nil {
		return nil, err
	}
	return m.Executions(), nil
}

// mappingFor resolves the run and validates the view before handing out
// the cached composite-execution mapping.
func (e *Engine) mappingFor(runID string, v *core.UserView) (*composite.Mapping, error) {
	r, err := e.resolve(runID, v)
	if err != nil {
		return nil, err
	}
	return e.mapping(r, v)
}
