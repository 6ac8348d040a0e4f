package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"sort"
	"sync"

	"repro/internal/composite"
	"repro/internal/core"
	"repro/internal/provenance"
	"repro/internal/warehouse"
	"repro/zoom/client"
)

// digest fingerprints an answer: the echoed run, data and kind, then the
// result (root, external, metadata, executions with id, composite, steps,
// inputs and outputs, data, edges) or the single execution of an
// immediate query. The volatile fields — trace_id, timing, outcome,
// strategy and trace — are not part of it. Digests are compared only
// within one process, so the hash seed is drawn per process. Hashing
// allocates nothing but the sorted metadata keys: it runs in the client
// loop, and its CPU time is taken out of cpu_ms_per_query and qps.
type digest uint64

var digestSeed = maphash.MakeSeed()

type digester struct{ h maphash.Hash }

func (d *digester) init(run, data, kind string) {
	d.h.SetSeed(digestSeed)
	d.str(run)
	d.str(data)
	d.str(kind)
}

func (d *digester) num(n int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(n))
	d.h.Write(b[:])
}

func (d *digester) str(s string) {
	d.num(len(s))
	d.h.WriteString(s)
}

func (d *digester) strs(ss []string) {
	d.num(len(ss))
	for _, s := range ss {
		d.str(s)
	}
}

func (d *digester) flag(b bool) {
	if b {
		d.num(1)
	} else {
		d.num(0)
	}
}

func (d *digester) exec(id, comp string, steps, in, out []string) {
	d.str(id)
	d.str(comp)
	d.strs(steps)
	d.strs(in)
	d.strs(out)
}

func (d *digester) meta(m map[string]string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	d.num(len(keys))
	for _, k := range keys {
		d.str(k)
		d.str(m[k])
	}
}

func (d *digester) sum() digest { return digest(d.h.Sum64()) }

// digestResponse fingerprints a decoded /v1/query answer.
func digestResponse(resp *client.QueryResponse) digest {
	var d digester
	d.init(resp.Run, resp.Data, resp.Kind)
	switch {
	case resp.Result != nil:
		r := resp.Result
		d.str("result")
		d.str(r.Root)
		d.flag(r.External)
		d.meta(r.Metadata)
		d.num(len(r.Executions))
		for _, x := range r.Executions {
			d.exec(x.ID, x.Composite, x.Steps, x.Inputs, x.Outputs)
		}
		d.strs(r.Data)
		d.num(len(r.Edges))
		for _, e := range r.Edges {
			d.str(e.From)
			d.str(e.To)
			d.strs(e.Data)
		}
	case resp.Execution != nil:
		x := resp.Execution
		d.str("execution")
		d.exec(x.ID, x.Composite, x.Steps, x.Inputs, x.Outputs)
	default:
		d.str("none")
	}
	return d.sum()
}

// digestResult fingerprints an engine answer the way digestResponse
// fingerprints its JSON form.
func digestResult(run, data, kind string, res *provenance.Result, x *composite.Execution) digest {
	var d digester
	d.init(run, data, kind)
	switch {
	case res != nil:
		d.str("result")
		d.str(res.Root)
		d.flag(res.External)
		d.meta(res.Metadata)
		d.num(len(res.Executions))
		for _, x := range res.Executions {
			d.exec(x.ID, x.Composite, x.Steps, x.Inputs, x.Outputs)
		}
		d.strs(res.Data)
		d.num(len(res.Edges))
		for _, e := range res.Edges {
			d.str(e.From)
			d.str(e.To)
			d.strs(e.Data)
		}
	case x != nil:
		d.str("execution")
		d.exec(x.ID, x.Composite, x.Steps, x.Inputs, x.Outputs)
	default:
		d.str("none")
	}
	return d.sum()
}

// tuplesOf is the answer size the property report uses: execution rows
// plus data rows, or one row for an immediate answer.
func tuplesOf(resp *client.QueryResponse) int {
	switch {
	case resp.Result != nil:
		return len(resp.Result.Executions) + len(resp.Result.Data)
	case resp.Execution != nil:
		return 1
	}
	return 0
}

// oracle answers requests with a fresh engine over an independent
// warehouse loaded from the generated runs — never from the snapshot the
// tiers serve.
type oracle struct {
	c *corpus
	e *provenance.Engine

	mu       sync.Mutex
	relViews map[string]*core.UserView
	uadmin   map[string]*core.UserView
}

func newOracle(c *corpus) (*oracle, error) {
	w := warehouse.New(0)
	for _, sp := range c.specs {
		if err := w.RegisterSpec(sp); err != nil {
			return nil, err
		}
		if err := w.RegisterView(namedView, c.views[sp.Name()]); err != nil {
			return nil, err
		}
	}
	for _, r := range c.runs {
		if err := w.LoadRun(r); err != nil {
			return nil, err
		}
	}
	o := &oracle{c: c, e: provenance.NewEngine(w), relViews: map[string]*core.UserView{}, uadmin: map[string]*core.UserView{}}
	for _, sp := range c.specs {
		o.uadmin[sp.Name()] = core.UAdmin(sp)
	}
	return o, nil
}

// view resolves a request's view the way the server does: the named view,
// a relevant set built once per distinct set, or UAdmin.
func (o *oracle) view(rq *request) (*core.UserView, error) {
	sp := o.c.specOf[rq.q.Run]
	switch {
	case rq.q.View != "":
		return o.c.views[sp.Name()], nil
	case len(rq.q.Relevant) > 0:
		o.mu.Lock()
		v := o.relViews[rq.viewKey]
		o.mu.Unlock()
		if v != nil {
			return v, nil
		}
		v, err := core.BuildRelevant(sp, rq.q.Relevant)
		if err != nil {
			return nil, err
		}
		o.mu.Lock()
		o.relViews[rq.viewKey] = v
		o.mu.Unlock()
		return v, nil
	}
	return o.uadmin[sp.Name()], nil
}

// answer computes a request's expected digest.
func (o *oracle) answer(rq *request) (digest, error) {
	v, err := o.view(rq)
	if err != nil {
		return 0, err
	}
	q := rq.q
	switch q.Kind {
	case "", "deep":
		res, err := o.e.DeepProvenance(q.Run, v, q.Data)
		return digestResult(q.Run, q.Data, "deep", res, nil), err
	case "immediate":
		x, err := o.e.ImmediateProvenance(q.Run, v, q.Data)
		return digestResult(q.Run, q.Data, "immediate", nil, x), err
	case "derived":
		res, err := o.e.DeepDerivation(q.Run, v, q.Data)
		return digestResult(q.Run, q.Data, "derived", res, nil), err
	}
	return 0, fmt.Errorf("unknown kind %q", q.Kind)
}

// oracleChunk bounds how many distinct requests one oracle answers. The
// engine memoises a mapping per view, and cold-churn's views are all
// fresh, so a fresh oracle per chunk keeps that memo from growing with
// the stream.
const oracleChunk = 1000

// expect prepares the expected digest of every request in the first n
// stream positions not prepared yet, on two goroutines, with fresh
// oracles that are dropped on return.
func expect(c *corpus, n int) error {
	seen := map[*request]bool{}
	var todo []*request
	for _, rq := range c.stream[:min(n, len(c.stream))] {
		if !rq.prepared && !seen[rq] {
			seen[rq] = true
			todo = append(todo, rq)
		}
	}
	for len(todo) > 0 {
		chunk := todo[:min(oracleChunk, len(todo))]
		todo = todo[len(chunk):]
		o, err := newOracle(c)
		if err != nil {
			return err
		}
		var wg sync.WaitGroup
		errs := make([]error, clients)
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(chunk); i += clients {
					d, err := o.answer(chunk[i])
					if err != nil {
						errs[w] = fmt.Errorf("oracle %s: %w", chunk[i].body, err)
						return
					}
					chunk[i].want, chunk[i].prepared = d, true
				}
			}(w)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return err
		}
	}
	return nil
}
