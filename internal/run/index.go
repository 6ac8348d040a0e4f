package run

import (
	"fmt"
	"sort"

	"repro/internal/bitset"
	"repro/internal/spec"
)

// Index is the compact, immutable representation of a run the warehouse
// queries against: every step and data id is interned to a dense int32 and
// the four adjacency relations the provenance traversals walk — data →
// producing step, step → input data, data → consuming steps, step → output
// data — are stored as CSR-style flat slices. A deep-provenance closure
// over this representation is an integer BFS plus two bit sets; the string
// world is only re-entered when a query result is materialized.
//
// Interned ids double as natural-order ranks: steps and data are interned
// in natural order (d2 before d10), so sorting a set of interned ids
// ascending *is* the paper's natural sort, with no digit re-parsing per
// comparison.
//
// An Index is a snapshot: it must only be built once the run is fully
// constructed (the warehouse builds it at load time, after validation).
// Mutating the run via AddStep/AddFlow discards any previously built index
// so a stale snapshot is never returned by Run.Index.
type Index struct {
	r *Run

	stepName []string // interned step id -> step name, natural order
	dataName []string // interned data id -> data name, natural order
	stepID   map[string]int32
	dataID   map[string]int32

	producer []int32 // data -> producing step, -1 when external

	inOff, inData   []int32 // step -> input data (CSR)
	outOff, outData []int32 // step -> output data (CSR)
	conOff, conStep []int32 // data -> consuming steps (CSR)

	finals bitset.Set // data flowing into OUTPUT
}

// Index returns the run's compact index, building it on first use. The
// index is cached; AddStep/AddFlow invalidate the cache, so the returned
// snapshot always matches the run's current contents. Safe for concurrent
// use once the run is no longer being mutated (the warehouse's contract).
func (r *Run) Index() *Index {
	r.indexMu.Lock()
	defer r.indexMu.Unlock()
	if r.index == nil {
		r.index = buildIndex(r)
	}
	return r.index
}

func buildIndex(r *Run) *Index {
	ix := &Index{
		r:        r,
		stepName: r.StepIDs(), // natural order
		dataName: r.AllData(), // natural order
	}
	ix.stepID = make(map[string]int32, len(ix.stepName))
	for i, s := range ix.stepName {
		ix.stepID[s] = int32(i)
	}
	ix.dataID = make(map[string]int32, len(ix.dataName))
	for i, d := range ix.dataName {
		ix.dataID[d] = int32(i)
	}

	ix.producer = make([]int32, len(ix.dataName))
	for i, d := range ix.dataName {
		p, _ := r.Producer(d)
		if p == "" {
			ix.producer[i] = -1
		} else {
			ix.producer[i] = ix.stepID[p]
		}
	}

	// Step-side CSR: inputs and outputs per interned step, both in natural
	// (= interned ascending) order because InputsOf/OutputsOf sort naturally.
	ix.inOff = make([]int32, len(ix.stepName)+1)
	ix.outOff = make([]int32, len(ix.stepName)+1)
	for i, s := range ix.stepName {
		for _, d := range r.InputsOf(s) {
			ix.inData = append(ix.inData, ix.dataID[d])
		}
		ix.inOff[i+1] = int32(len(ix.inData))
		for _, d := range r.OutputsOf(s) {
			ix.outData = append(ix.outData, ix.dataID[d])
		}
		ix.outOff[i+1] = int32(len(ix.outData))
	}

	// Data-side CSR: consuming steps per interned data id, ascending (the
	// Consumers accessor sorts lexicographically, so re-sort by id).
	ix.conOff = make([]int32, len(ix.dataName)+1)
	for i, d := range ix.dataName {
		for _, s := range r.Consumers(d) {
			ix.conStep = append(ix.conStep, ix.stepID[s])
		}
		row := ix.conStep[ix.conOff[i]:]
		sort.Slice(row, func(a, b int) bool { return row[a] < row[b] })
		ix.conOff[i+1] = int32(len(ix.conStep))
	}

	ix.finals = bitset.New(len(ix.dataName))
	for _, d := range r.InputsOf(spec.Output) {
		ix.finals.Add(ix.dataID[d])
	}
	return ix
}

// validateStructure checks Validate's invariants on the interned
// representation: the step relation implied by the flows is acyclic and
// every step is forward-reachable from INPUT and backward-reachable from
// OUTPUT. This walk is equivalent to the execution-graph walk because every
// flow's data objects are produced by the flow's source, so "t consumes
// data produced by s" holds exactly when the graph has edge s -> t, and
// INPUT/OUTPUT — a pure source and a pure sink — can never be on a cycle.
func (ix *Index) validateStructure() error {
	n := len(ix.stepName)
	r := ix.r

	// Acyclicity: Kahn's algorithm over the step relation. The (s, t) pairs
	// are enumerated identically in both passes (possibly repeated when s
	// feeds t several data objects), so the counts balance.
	indeg := make([]int32, n)
	for s := 0; s < n; s++ {
		for _, d := range ix.OutputsOf(int32(s)) {
			for _, t := range ix.ConsumersOf(d) {
				indeg[t]++
			}
		}
	}
	queue := make([]int32, 0, n)
	for s := 0; s < n; s++ {
		if indeg[s] == 0 {
			queue = append(queue, int32(s))
		}
	}
	done := 0
	for len(queue) > 0 {
		s := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		done++
		for _, d := range ix.OutputsOf(s) {
			for _, t := range ix.ConsumersOf(d) {
				if indeg[t]--; indeg[t] == 0 {
					queue = append(queue, t)
				}
			}
		}
	}
	if done != n {
		return fmt.Errorf("run %q: %w", r.id, ErrCyclicRun)
	}

	// Forward reach from INPUT: seed with the consumers of external data,
	// expand along the same step relation.
	fwd := make([]bool, n)
	queue = queue[:0]
	mark := func(t int32) {
		if !fwd[t] {
			fwd[t] = true
			queue = append(queue, t)
		}
	}
	for d, p := range ix.producer {
		if p < 0 {
			for _, t := range ix.ConsumersOf(int32(d)) {
				mark(t)
			}
		}
	}
	for len(queue) > 0 {
		s := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, d := range ix.OutputsOf(s) {
			for _, t := range ix.ConsumersOf(d) {
				mark(t)
			}
		}
	}

	// Backward reach from OUTPUT: seed with the producers of final data,
	// expand along producers of each step's inputs.
	bwd := make([]bool, n)
	queue = queue[:0]
	markB := func(s int32) {
		if !bwd[s] {
			bwd[s] = true
			queue = append(queue, s)
		}
	}
	for d, p := range ix.producer {
		if p >= 0 && ix.finals.Has(int32(d)) {
			markB(p)
		}
	}
	for len(queue) > 0 {
		t := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, d := range ix.InputsOf(t) {
			if p := ix.producer[d]; p >= 0 {
				markB(p)
			}
		}
	}

	for s := 0; s < n; s++ {
		if !fwd[s] {
			return fmt.Errorf("run %q: step %q unreachable from INPUT: %w", r.id, ix.stepName[s], ErrDisconnected)
		}
		if !bwd[s] {
			return fmt.Errorf("run %q: step %q cannot reach OUTPUT: %w", r.id, ix.stepName[s], ErrDisconnected)
		}
	}
	return nil
}

// Run returns the run this index was built from.
func (ix *Index) Run() *Run { return ix.r }

// NumSteps returns the number of interned steps.
func (ix *Index) NumSteps() int { return len(ix.stepName) }

// NumData returns the number of interned data objects.
func (ix *Index) NumData() int { return len(ix.dataName) }

// StepID returns the interned id of a step name.
func (ix *Index) StepID(name string) (int32, bool) {
	id, ok := ix.stepID[name]
	return id, ok
}

// DataID returns the interned id of a data name.
func (ix *Index) DataID(name string) (int32, bool) {
	id, ok := ix.dataID[name]
	return id, ok
}

// StepName returns the step name of an interned id.
func (ix *Index) StepName(id int32) string { return ix.stepName[id] }

// DataName returns the data name of an interned id.
func (ix *Index) DataName(id int32) string { return ix.dataName[id] }

// Producer returns the interned producing step of a data id, or -1 when the
// data is external (user or workflow input).
func (ix *Index) Producer(d int32) int32 { return ix.producer[d] }

// InputsOf returns the interned input data of a step, ascending (= natural
// order). The slice aliases the index; callers must not mutate it.
func (ix *Index) InputsOf(s int32) []int32 { return ix.inData[ix.inOff[s]:ix.inOff[s+1]] }

// OutputsOf returns the interned output data of a step, ascending. The
// slice aliases the index; callers must not mutate it.
func (ix *Index) OutputsOf(s int32) []int32 { return ix.outData[ix.outOff[s]:ix.outOff[s+1]] }

// ConsumersOf returns the interned steps reading a data id. The slice
// aliases the index; callers must not mutate it.
func (ix *Index) ConsumersOf(d int32) []int32 { return ix.conStep[ix.conOff[d]:ix.conOff[d+1]] }

// IsFinal reports whether a data id flows into OUTPUT.
func (ix *Index) IsFinal(d int32) bool { return ix.finals.Has(d) }

// IndexStats describes an index's footprint — what the compact layout
// costs, and what each closure bitset pair over it costs.
type IndexStats struct {
	// Steps and Data are the interned id counts.
	Steps, Data int
	// CSRBytes is the total size of the flat adjacency arrays (offsets,
	// targets, and the producer column), at 4 bytes per int32.
	CSRBytes int
	// ClosureWords is the number of 64-bit words one step+data closure
	// bitset pair over this run occupies.
	ClosureWords int
}

// Stats returns the index's footprint.
func (ix *Index) Stats() IndexStats {
	ints := len(ix.producer) +
		len(ix.inOff) + len(ix.inData) +
		len(ix.outOff) + len(ix.outData) +
		len(ix.conOff) + len(ix.conStep)
	return IndexStats{
		Steps:        len(ix.stepName),
		Data:         len(ix.dataName),
		CSRBytes:     4 * ints,
		ClosureWords: (len(ix.stepName)+63)/64 + (len(ix.dataName)+63)/64,
	}
}

// String renders the footprint on one line.
func (s IndexStats) String() string {
	return fmt.Sprintf("steps=%d data=%d csr=%dB closure=%dw", s.Steps, s.Data, s.CSRBytes, s.ClosureWords)
}
