// Package provenance answers provenance queries through user views — the
// purpose of the whole system. The engine implements the strategy the
// paper's evaluation found best (Section V.B, "Query response time"):
// first compute the UAdmin deep provenance (a recursive closure over the
// step-level immediate-provenance relation, cached per run and data object
// by the warehouse), then remove the information hidden inside the
// composite steps of the requested user view. Because the expensive first
// phase is cached, switching the user view on the same run re-projects the
// cached closure and costs milliseconds — the paper's interactive-
// capability result.
package provenance

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
	"repro/internal/composite"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/warehouse"
)

// ErrForeignView reports a missing view, or one built over a different
// specification than the queried run's.
var ErrForeignView = errors.New("provenance: view does not match run's specification")

// ErrRunChanged reports a query whose run was dropped and re-ingested under
// the same id while it ran, so the closures it gathered describe two
// different runs. Retrying answers against the current run.
var ErrRunChanged = errors.New("provenance: run re-ingested during query")

// Engine evaluates provenance queries against a warehouse.
//
// Thread-safety contract: every exported method is safe for concurrent
// use by multiple goroutines. The engine itself holds only the memoized
// view→composite-execution mappings, each built at most once per
// (run, view) key via a sync.Once so concurrent first queries on the same
// view never duplicate the Build; returned Mappings and Results are
// treated as immutable after construction and may be shared freely. The
// expensive UAdmin closures live in the warehouse's sharded singleflight
// cache, so concurrent queries over the same run contend only briefly on
// a shard lock, never on the traversal itself.
type Engine struct {
	w *warehouse.Warehouse

	mu       sync.Mutex
	mappings map[mappingKey]*mappingEntry

	// obs holds the engine's metrics instruments (nil when detached — the
	// common case, in which queries never read the clock). Published
	// atomically so AttachMetrics is safe against in-flight queries.
	obs atomic.Pointer[engineMetrics]
}

type mappingKey struct {
	runID string
	view  *core.UserView
}

// mappingEntry memoizes one Build outcome for the run r. The Once ensures
// the mapping is computed exactly once even when many goroutines miss
// concurrently — the engine-level analogue of the warehouse's singleflight.
type mappingEntry struct {
	r    *run.Run
	once sync.Once
	m    *composite.Mapping
	err  error
}

// NewEngine returns an engine over the given warehouse.
func NewEngine(w *warehouse.Warehouse) *Engine {
	return &Engine{w: w, mappings: make(map[mappingKey]*mappingEntry)}
}

// Warehouse returns the underlying warehouse.
func (e *Engine) Warehouse() *warehouse.Warehouse { return e.w }

// resolve looks up a run and checks that the view applies to it. Every
// query entry point starts here.
func (e *Engine) resolve(runID string, v *core.UserView) (*run.Run, error) {
	if v == nil {
		return nil, fmt.Errorf("%w: nil view for run %q", ErrForeignView, runID)
	}
	r, err := e.w.Run(runID)
	if err != nil {
		return nil, err
	}
	if err := checkSpec(r, v); err != nil {
		return nil, err
	}
	return r, nil
}

func checkSpec(r *run.Run, v *core.UserView) error {
	if r.SpecName() != v.Spec().Name() {
		return fmt.Errorf("%w: run %q executes %q, view is over %q",
			ErrForeignView, r.ID(), r.SpecName(), v.Spec().Name())
	}
	return nil
}

// mapping returns the (cached) composite-execution mapping of a run under a
// view. Mappings depend only on (run, view), not on the queried data, so
// they are shared across queries and built exactly once per key. Finding
// an entry built for another run under the same id — one dropped and
// re-ingested since — drops every view's entry for that id, so none of
// them keeps the old run alive.
func (e *Engine) mapping(r *run.Run, v *core.UserView) (*composite.Mapping, error) {
	key := mappingKey{runID: r.ID(), view: v}
	e.mu.Lock()
	ent := e.mappings[key]
	if ent != nil && ent.r != r {
		for k, old := range e.mappings {
			if k.runID == key.runID && old.r != r {
				delete(e.mappings, k)
			}
		}
		ent = nil
	}
	if ent == nil {
		ent = &mappingEntry{r: r}
		e.mappings[key] = ent
	}
	e.mu.Unlock()
	ent.once.Do(func() { ent.m, ent.err = composite.Build(r, v) })
	return ent.m, ent.err
}

// closureMapping returns the mapping to project closure c through: the one
// of the run c was computed over. r is the run the caller resolved; if a
// drop and re-ingest under the same id slipped in between, c describes the
// new run, which must pass the view check in its turn. Taking the mapping
// from the closure's own run is what keeps a projector and a closure from
// ever disagreeing about interned ids.
func (e *Engine) closureMapping(c *warehouse.Closure, r *run.Run, v *core.UserView) (*composite.Mapping, error) {
	ix, _, _ := c.Bits()
	if rc := ix.Run(); rc != r {
		if err := checkSpec(rc, v); err != nil {
			return nil, err
		}
		r = rc
	}
	return e.mapping(r, v)
}

// Edge is a dataflow edge of a provenance result graph.
type Edge struct {
	// From is a composite execution id or INPUT.
	From string
	// To is a composite execution id.
	To string
	// Data are the data objects passed, naturally ordered.
	Data []string
}

// Result is the answer to a provenance query under a user view.
type Result struct {
	RunID string
	Root  string
	// External is true when Root was provided by the user or the workflow
	// input; its provenance is then only the recorded metadata.
	External bool
	// Metadata carries the recorded input metadata (who/when) for an
	// external Root — the paper's provenance of user-provided data.
	Metadata map[string]string
	// Executions are the visible composite executions, topologically
	// ordered, with their full input/output sets.
	Executions []*composite.Execution
	// Data are the visible data objects (the paper's result-size metric).
	Data []string
	// Edges form the displayed provenance graph.
	Edges []Edge
}

// NumData returns the number of visible data objects — the metric Figures
// 10 and 11 plot.
func (r *Result) NumData() int { return len(r.Data) }

// NumSteps returns the number of visible composite executions.
func (r *Result) NumSteps() int { return len(r.Executions) }

// Tuples returns the total number of result rows (execution rows plus data
// rows), the warehouse-level answer size.
func (r *Result) Tuples() int { return len(r.Executions) + len(r.Data) }

// DeepProvenance answers the paper's flagship query — "what are all the
// data objects / sequence of steps which have been used to produce this
// data object?" — with respect to a user view.
func (e *Engine) DeepProvenance(runID string, v *core.UserView, d string) (*Result, error) {
	return e.deepProvenance(context.Background(), runID, v, d, nil, warehouse.StrategyAuto)
}

// deepProvenance is the shared query path behind DeepProvenance,
// DeepProvenanceTracedStrategyCtx and the batch pool. When a context
// carries a trace span (obs.StartSpan / Trace.Context) it records
// "query.lookup" and "query.project" child spans, with the closure cache
// adding "closure.compute" or "closure.shared-wait" beneath the lookup.
// When a metrics registry is attached, a trace is requested, or the
// context carries a span, it times each stage
// (closure-cache lookup including compute or wait, then view projection
// including the memoized mapping's first build); otherwise it never reads
// the clock, which is what keeps the detached overhead to a few nil checks
// (BenchmarkObsOverhead pins this).
func (e *Engine) deepProvenance(ctx context.Context, runID string, v *core.UserView, d string, tr *QueryTrace, strat warehouse.ClosureStrategy) (*Result, error) {
	m := e.obs.Load()
	sp := obs.SpanFromContext(ctx)
	timed := m != nil || tr != nil || sp != nil
	var start time.Time
	if timed {
		start = time.Now()
	}
	r, err := e.resolve(runID, v)
	if err != nil {
		m.queryError()
		return nil, err
	}
	lctx, lsp := obs.StartSpan(ctx, "query.lookup")
	closure, o, err := e.w.DeepProvenanceStrategyCtx(lctx, runID, d, timed, strat)
	lsp.End()
	if err != nil {
		m.queryError()
		return nil, err
	}
	var lookupNs int64
	var projectStart time.Time
	if timed {
		// The lookup stage is measured from the query start: the run/view
		// validation above it costs tens of nanoseconds, not worth a third
		// clock read on the warm path.
		projectStart = time.Now()
		lookupNs = projectStart.Sub(start).Nanoseconds()
	}
	psp := sp.StartChild("query.project")
	mp, err := e.closureMapping(closure, r, v)
	var res *Result
	if err == nil {
		res, err = project(mp, closure)
	}
	psp.End()
	if err != nil {
		m.queryError()
		return nil, err
	}
	if timed {
		end := time.Now()
		projectNs := end.Sub(projectStart).Nanoseconds()
		totalNs := end.Sub(start).Nanoseconds()
		if m != nil {
			m.queries.Inc()
			m.totalNs[o.Outcome].Observe(totalNs)
			m.lookupNs.Observe(lookupNs)
			if o.Outcome == warehouse.OutcomeMiss {
				m.computeNs.Observe(o.ComputeNs)
			}
			m.projectNs.Observe(projectNs)
		}
		if tr != nil {
			tr.Outcome = o.Outcome.String()
			tr.Strategy = o.Strategy
			tr.LookupNs = lookupNs
			tr.ComputeNs = o.ComputeNs
			tr.ProjectNs = projectNs
			tr.TotalNs = totalNs
			tr.Steps = res.NumSteps()
			tr.Data_ = res.NumData()
			tr.Edges = len(res.Edges)
		}
	}
	return res, nil
}

// project restricts a UAdmin closure to what a view shows: the composite
// executions that intersect the closure, the data crossing their
// boundaries, and the edges between them. Closure membership is a bit
// test, the visible-execution set is a bitset over topological ordinals,
// and data comes out naturally sorted for free because interned ids are
// natural ranks; strings are materialized only for the final Result.
func project(m *composite.Mapping, c *warehouse.Closure) (*Result, error) {
	ix, stepBits, dataBits := c.Bits()
	px, err := projectorFor(m, ix)
	if err != nil {
		return nil, err
	}
	return projectBits(m, px, c.Root, stepBits, dataBits), nil
}

// projectorFor returns the mapping's projector, refusing closures over the
// index ix of another run than the mapping's: their interned ids would
// index the wrong arrays.
func projectorFor(m *composite.Mapping, ix *run.Index) (*composite.Projector, error) {
	px := m.Projector()
	if px.Index() != ix {
		return nil, fmt.Errorf("%w: run %q", ErrRunChanged, m.Run().ID())
	}
	return px, nil
}

// projectBits is project over a closure given as bitsets.
func projectBits(m *composite.Mapping, px *composite.Projector, root string, stepBits, dataBits bitset.Set) *Result {
	ix := px.Index()
	res, visible, outData := newProjection(m, px, root, stepBits)
	eb := borrowEdgeBuilder()
	// Ascending ordinals are topological order, matching m.Executions().
	visible.Each(func(ord int32) {
		ex := px.Execution(ord)
		res.Executions = append(res.Executions, ex)
		for _, d := range px.InputsOf(ord) {
			if !dataBits.Has(d) {
				continue // input irrelevant to this derivation
			}
			outData.Add(d)
			if src := px.ProducerExec(d); src < 0 {
				eb.add(spec.Input, ex.ID, ix.DataName(d), d)
			} else if visible.Has(src) {
				eb.add(px.Execution(src).ID, ex.ID, ix.DataName(d), d)
			}
		}
	})
	res.Data = dataNames(ix, outData)
	res.Edges = eb.build()
	eb.release()
	return res
}

// newProjection starts a projection of a closure rooted at root: the Result
// header, the visible executions (those holding a closure step) and the
// visible data, seeded with the root.
func newProjection(m *composite.Mapping, px *composite.Projector, root string, stepBits bitset.Set) (res *Result, visible, data bitset.Set) {
	res = &Result{RunID: m.Run().ID(), Root: root, External: m.Run().IsExternal(root)}
	if res.External {
		res.Metadata = m.Run().InputMeta(root)
	}
	visible = bitset.New(px.NumExecutions())
	stepBits.Each(func(s int32) { visible.Add(px.ExecOfStep(s)) })
	ix := px.Index()
	data = bitset.New(ix.NumData())
	if rootID, ok := ix.DataID(root); ok {
		data.Add(rootID)
	}
	return res, visible, data
}

// dataNames materializes a data bitset as names, naturally ordered.
func dataNames(ix *run.Index, data bitset.Set) []string {
	out := make([]string, 0, data.Count())
	data.Each(func(d int32) { out = append(out, ix.DataName(d)) })
	return out
}

// edgeBuilder accumulates provenance-graph edges as a flat triple slice
// instead of the nested map-of-maps a per-query accumulator would allocate:
// one append per (from, to, data) fact, one sort, one grouping pass.
// Builders are pooled across queries, so a steady query load reuses the
// same backing arrays. rank is the data id's interned natural rank, letting
// the sort compare ints instead of re-parsing digit suffixes.
type edgeBuilder struct {
	triples []edgeTriple
}

type edgeTriple struct {
	from, to, d string
	rank        int32
}

var edgeBuilderPool = sync.Pool{New: func() interface{} { return &edgeBuilder{} }}

func borrowEdgeBuilder() *edgeBuilder {
	eb := edgeBuilderPool.Get().(*edgeBuilder)
	eb.triples = eb.triples[:0]
	return eb
}

func (eb *edgeBuilder) release() { edgeBuilderPool.Put(eb) }

func (eb *edgeBuilder) add(from, to, d string, rank int32) {
	eb.triples = append(eb.triples, edgeTriple{from: from, to: to, d: d, rank: rank})
}

// build sorts the triples by (From, To, natural data order) and groups them
// into Edges. Callers never add the same triple twice, so no deduplication
// is needed.
func (eb *edgeBuilder) build() []Edge {
	ts := eb.triples
	if len(ts) == 0 {
		return nil
	}
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].from != ts[j].from {
			return ts[i].from < ts[j].from
		}
		if ts[i].to != ts[j].to {
			return ts[i].to < ts[j].to
		}
		return ts[i].rank < ts[j].rank
	})
	var edges []Edge
	for i := 0; i < len(ts); {
		j := i
		for j < len(ts) && ts[j].from == ts[i].from && ts[j].to == ts[i].to {
			j++
		}
		ds := make([]string, 0, j-i)
		for k := i; k < j; k++ {
			ds = append(ds, ts[k].d)
		}
		edges = append(edges, Edge{From: ts[i].from, To: ts[i].to, Data: ds})
		i = j
	}
	return edges
}

// ImmediateProvenance returns the composite execution that produced d under
// the view, with its full input set: "the immediate provenance of d413
// seen by Joe would be S13 and its input, {d308,...,d408} ... whereas that
// seen by Mary would be S12 and its input, {d411}".
func (e *Engine) ImmediateProvenance(runID string, v *core.UserView, d string) (*composite.Execution, error) {
	return e.ImmediateProvenanceCtx(context.Background(), runID, v, d)
}

// ImmediateProvenanceCtx is ImmediateProvenance with a context; a traced
// context records the whole stage as one "query.immediate" span (the query
// is a pair of map lookups — there are no interior stages worth splitting).
func (e *Engine) ImmediateProvenanceCtx(ctx context.Context, runID string, v *core.UserView, d string) (*composite.Execution, error) {
	_, sp := obs.StartSpan(ctx, "query.immediate")
	defer sp.End()
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
	id, ok := m.ProducerExecution(d)
	if !ok {
		return nil, nil // external input: provenance is metadata only
	}
	ex, _ := m.Execution(id)
	return ex, nil
}

// DeepDerivation is the canned inverse query ("return the data objects
// which have a given data object in their data provenance") projected
// through a view. Unlike DeepProvenance its closure is uncached, so the
// attached histogram (query.derivation_ns) records the full traversal each
// time.
func (e *Engine) DeepDerivation(runID string, v *core.UserView, d string) (*Result, error) {
	return e.DeepDerivationStrategy(runID, v, d, warehouse.StrategyAuto)
}

// DeepDerivationStrategy is DeepDerivation with an explicit closure strategy
// for the UAdmin traversal (label suffix scans versus forward BFS).
func (e *Engine) DeepDerivationStrategy(runID string, v *core.UserView, d string, strat warehouse.ClosureStrategy) (*Result, error) {
	m := e.obs.Load()
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	res, err := e.deepDerivation(runID, v, d, strat)
	if err != nil {
		m.queryError()
		return nil, err
	}
	if m != nil {
		m.forwardNs.Observe(time.Since(start).Nanoseconds())
	}
	return res, nil
}

func (e *Engine) deepDerivation(runID string, v *core.UserView, d string, strat warehouse.ClosureStrategy) (*Result, error) {
	r, err := e.resolve(runID, v)
	if err != nil {
		return nil, err
	}
	closure, err := e.w.DeepDerivationStrategy(runID, d, strat)
	if err != nil {
		return nil, err
	}
	mp, err := e.closureMapping(closure, r, v)
	if err != nil {
		return nil, err
	}
	return projectForward(mp, closure)
}

// projectForward mirrors project for the derivation direction: visible
// executions intersecting the closure, and the closure data leaving each
// execution toward other visible executions (or toward the final output).
func projectForward(m *composite.Mapping, c *warehouse.Closure) (*Result, error) {
	ix, stepBits, dataBits := c.Bits()
	px, err := projectorFor(m, ix)
	if err != nil {
		return nil, err
	}
	res, visible, outData := newProjection(m, px, c.Root, stepBits)
	visible.Each(func(ord int32) {
		res.Executions = append(res.Executions, px.Execution(ord))
		for _, d := range px.OutputsOf(ord) {
			if !dataBits.Has(d) {
				continue
			}
			if ix.IsFinal(d) || consumedOutside(ix, px, visible, ord, d) {
				outData.Add(d)
			}
		}
	})
	res.Data = dataNames(ix, outData)
	return res, nil
}

func consumedOutside(ix *run.Index, px *composite.Projector, visible bitset.Set, ord, d int32) bool {
	for _, s := range ix.ConsumersOf(d) {
		if e := px.ExecOfStep(s); e != ord && visible.Has(e) {
			return true
		}
	}
	return false
}

func sortNatural(xs []string) {
	sort.Slice(xs, func(i, j int) bool { return lessNatural(xs[i], xs[j]) })
}

func lessNatural(a, b string) bool {
	pa, na := splitNat(a)
	pb, nb := splitNat(b)
	if pa != pb {
		return pa < pb
	}
	if na != nb {
		return na < nb
	}
	return a < b
}

func splitNat(s string) (string, int) {
	i := len(s)
	for i > 0 && s[i-1] >= '0' && s[i-1] <= '9' {
		i--
	}
	// No digit suffix, or one too long to fit an int without overflow
	// (> 18 digits): fall back to plain string comparison.
	if i == len(s) || len(s)-i > 18 {
		return s, -1
	}
	n := 0
	for _, c := range s[i:] {
		n = n*10 + int(c-'0')
	}
	return s[:i], n
}
