package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/composite"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/server"
	"repro/internal/warehouse"
	"repro/zoom/client"
)

// span is one timed call of the traced run. Every replay span's parent is
// the sampled request's client span, named "client.query".
type span struct {
	Req    int    `json:"req"` // sampled request number; shared by its spans
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the traced run began
	End    int64  `json:"end_ns"`
}

// sampleInfo says which path a sampled request took and in what state.
type sampleInfo struct {
	Req    int  `json:"req"`
	Routed bool `json:"routed"`
	Hit    bool `json:"hit"`  // answered from the router cache in the loop
	Cold   bool `json:"cold"` // replayed against fresh snapshot copies
	// FirstTouch is set when the request was the first to its run, so
	// the live worker materialized the run while answering it.
	FirstTouch bool   `json:"first_touch"`
	Deep       bool   `json:"deep"`
	Allocs     allocs `json:"allocs"`
	RespBytes  int    `json:"resp_bytes"`
}

type allocs struct{ Routed, Direct, Handler, Engine uint64 }

// ledgerLayers are the self times that, with the residual, add up to the
// client time of a sampled request.
var ledgerLayers = []string{
	"loop.wait", "client.encode", "client.decode", "http.transport", "cluster.self", "server.self",
	"core.view_build", "warehouse.first_touch", "composite.build", "warehouse.closure", "provenance.project",
}

// ledger splits one sampled request's client time into layer self times.
// dur is the median duration per span name, in microseconds. It returns
// the self times and the residual the layers leave unexplained.
func ledger(info sampleInfo, dur map[string]float64) (map[string]float64, float64) {
	self := map[string]float64{
		"client.encode": dur["client.encode"],
		"client.decode": dur["client.decode"],
	}
	// A request replayed alone through the same client path shows how
	// much of its loaded client time was spent waiting for a core. A cold
	// request is replayed directly to a cold copy; the router's own time
	// is added back.
	if solo, ok := dur["client.replay"]; ok {
		self["loop.wait"] = dur["client.query"] - solo
	}
	if info.Hit {
		self["cluster.self"] = dur["router.handler"]
		self["http.transport"] = dur["router.roundtrip"] - dur["router.handler"]
	} else {
		self["http.transport"] = dur["worker.roundtrip"] - dur["server.handler"]
		if info.Routed {
			live, ok := dur["worker.roundtrip.live"]
			if !ok {
				live = dur["worker.roundtrip"]
			}
			self["cluster.self"] = dur["router.roundtrip"] - live
		}
		if solo, ok := dur["client.replay.direct"]; ok {
			self["loop.wait"] = dur["client.query"] - solo - self["cluster.self"]
		}
		ft := 0.0
		if info.FirstTouch {
			ft = dur["warehouse.first_touch"]
		}
		self["warehouse.first_touch"] = ft
		self["core.view_build"] = dur["core.view_build"]
		self["server.self"] = dur["server.handler"] - dur["provenance.query"] - dur["core.view_build"] - ft
		self["composite.build"] = dur["composite.build"]
		self["warehouse.closure"] = dur["warehouse.closure"]
		self["provenance.project"] = dur["provenance.query"] - dur["composite.build"] - dur["warehouse.closure"]
	}
	sum := 0.0
	for _, l := range ledgerLayers {
		sum += self[l]
	}
	return self, dur["client.query"] - sum
}

// spanDurations takes the median duration per name of one request's
// spans, in microseconds.
func spanDurations(spans []span) map[string]float64 {
	by := map[string][]float64{}
	for _, s := range spans {
		by[s.Name] = append(by[s.Name], float64(s.End-s.Start)/1e3)
	}
	out := make(map[string]float64, len(by))
	for n, ds := range by {
		out[n] = median(ds)
	}
	return out
}

// twin is a second copy of one shard, opened from the same snapshot file
// with internal constructors so the traced run can call each layer's
// public functions directly.
type twin struct {
	w       *warehouse.Warehouse
	e       *provenance.Engine
	h       http.Handler
	uadmin  map[string]*core.UserView
	relView map[string]*core.UserView
}

func openTwin(path string, lazy bool) (*twin, error) {
	reg := obs.NewRegistry()
	opts := warehouse.LoadOptions{Metrics: reg}
	var w *warehouse.Warehouse
	var err error
	if lazy {
		w, err = warehouse.OpenV3(path, 0, opts)
	} else {
		var f *os.File
		if f, err = os.Open(path); err != nil {
			return nil, err
		}
		w, err = warehouse.LoadWith(f, 0, opts)
		f.Close()
	}
	if err != nil {
		return nil, err
	}
	e := provenance.NewEngine(w)
	e.AttachMetrics(reg)
	srv, err := server.New(reg, serverConfig)
	if err != nil {
		w.Close()
		return nil, err
	}
	srv.SetEngine(e)
	return &twin{w: w, e: e, h: srv.Handler(), uadmin: map[string]*core.UserView{}, relView: map[string]*core.UserView{}}, nil
}

// view resolves a request's view as the server does, keeping one pointer
// per view so the engine's mapping memo is met as the server meets it.
func (tw *twin) view(c *corpus, rq *request) (*core.UserView, error) {
	sp := c.specOf[rq.q.Run]
	switch {
	case rq.q.View != "":
		return tw.w.View(sp.Name(), rq.q.View)
	case len(rq.q.Relevant) > 0:
		if v := tw.relView[rq.viewKey]; v != nil {
			return v, nil
		}
		v, err := core.BuildRelevant(sp, rq.q.Relevant)
		tw.relView[rq.viewKey] = v
		return v, err
	}
	if tw.uadmin[sp.Name()] == nil {
		tw.uadmin[sp.Name()] = core.UAdmin(sp)
	}
	return tw.uadmin[sp.Name()], nil
}

// query makes the engine call the server makes for the request's kind,
// under a request trace as the server's is.
func (tw *twin) query(rq *request, v *core.UserView) error {
	ctx := obs.NewTrace("POST /v1/query").Context(context.Background())
	var err error
	switch rq.q.Kind {
	case "", "deep":
		_, _, err = tw.e.DeepProvenanceTracedStrategyCtx(ctx, rq.q.Run, v, rq.q.Data, warehouse.StrategyAuto)
	case "immediate":
		_, err = tw.e.ImmediateProvenanceCtx(ctx, rq.q.Run, v, rq.q.Data)
	case "derived":
		_, sp := obs.StartSpan(ctx, "query.derived")
		_, err = tw.e.DeepDerivationStrategy(rq.q.Run, v, rq.q.Data, warehouse.StrategyAuto)
		sp.End()
	}
	return err
}

func (tw *twin) closure(rq *request) error {
	_, _, err := tw.w.DeepProvenanceStrategyCtx(context.Background(), rq.q.Run, rq.q.Data, true, warehouse.StrategyAuto)
	return err
}

// serveHTTP runs a handler in-process into a recorder.
func serveHTTP(h http.Handler, body []byte) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// traceWork holds what the traced run replays against.
type traceWork struct {
	wl    *workload
	c     *corpus
	t     *tiers
	paths []string
	out   string // span file
	// reached logs the samples that reached a worker in the loop.
	reached *idLog

	raw   *http.Client // raw round trips, its own keep-alive pool
	rawTr *http.Transport
	// solo and soloBypass replay whole client calls, the latter past the
	// router cache.
	solo, soloBypass *client.Client
	routerH          http.Handler
	workerH          []http.Handler
	twins            []*twin // warm copies of each shard (warm workloads)
	begin            time.Time
	spans            []span
	infos            []sampleInfo
	firstTch         []float64 // cold first-touch costs, µs
}

func newTraceWork(wl *workload, c *corpus, t *tiers, paths []string, root string, seed int64, reached *idLog) (*traceWork, error) {
	tr := &http.Transport{MaxIdleConnsPerHost: 2, IdleConnTimeout: 90 * time.Second}
	tw := &traceWork{
		wl: wl, c: c, t: t, paths: paths, reached: reached,
		out:   filepath.Join(root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", wl.name, seed)),
		raw:   &http.Client{Transport: tr},
		rawTr: tr,
		begin: time.Now(),
	}
	tw.solo = client.New(t.front, client.Options{Transport: tr})
	tw.soloBypass = client.New(t.front, client.Options{Transport: bypass{tr}})
	if t.router != nil {
		tw.routerH = t.router.Handler()
	}
	for _, s := range t.servers {
		tw.workerH = append(tw.workerH, s.Handler())
	}
	if !wl.warm {
		return tw, nil
	}
	// Warm copies meet each request in the state the live worker does:
	// the same warm-up pass, then a priming call per sample.
	set := warmSet(wl.name, c)
	for _, p := range paths {
		x, err := openTwin(p, wl.lazy)
		if err != nil {
			tw.close()
			return nil, err
		}
		tw.twins = append(tw.twins, x)
		if wl.lazy {
			for _, r := range c.runs {
				t0 := time.Now()
				if _, err := x.w.Run(r.ID()); err == nil {
					tw.firstTch = append(tw.firstTch, float64(time.Since(t0))/1e3)
				}
			}
		}
	}
	for _, q := range set {
		b, _ := json.Marshal(q)
		if code, body := serveHTTP(tw.twins[t.owner(q.Run)].h, b); code != http.StatusOK {
			tw.close()
			return nil, fmt.Errorf("twin warm-up %s: %d %s", b, code, body)
		}
	}
	return tw, nil
}

func (tw *traceWork) close() {
	for _, x := range tw.twins {
		x.w.Close()
	}
	tw.rawTr.CloseIdleConnections()
}

// bypass adds a query string to every request, which makes the router
// forward it instead of answering from its cache.
type bypass struct{ rt http.RoundTripper }

func (b bypass) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	r.URL.RawQuery = "replay=1"
	return b.rt.RoundTrip(r)
}

// timeSpan runs f, records it as a span of request req, and returns its
// duration.
func (tw *traceWork) timeSpan(req int, name string, f func() error) error {
	t0 := time.Now()
	err := f()
	t1 := time.Now()
	tw.spans = append(tw.spans, span{Req: req, Name: name, Parent: "client.query",
		Start: t0.Sub(tw.begin).Nanoseconds(), End: t1.Sub(tw.begin).Nanoseconds()})
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// repeat times f reps times as separate spans.
func (tw *traceWork) repeat(req, reps int, name string, f func() error) error {
	for i := 0; i < reps; i++ {
		if err := tw.timeSpan(req, name, f); err != nil {
			return err
		}
	}
	return nil
}

// mallocs counts the heap allocations of one call of f.
func mallocs(f func() error) (uint64, error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err := f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, err
}

func (tw *traceWork) post(url string, body []byte) func() error {
	return func() error {
		resp, err := tw.raw.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}
}

func handlerCall(h http.Handler, body []byte, n *int) func() error {
	return func() error {
		code, b := serveHTTP(h, body)
		*n = len(b)
		if code != http.StatusOK {
			return fmt.Errorf("status %d: %s", code, b)
		}
		return nil
	}
}

// warmReps is how many times a warm replay repeats each call; the ledger
// takes the median.
const warmReps = 3

// replay times one sampled request down the chain.
func (tw *traceWork) replay(req int, o outcome) error {
	rq := tw.c.stream[o.idx%len(tw.c.stream)]
	k := tw.t.owner(rq.q.Run)
	routed := tw.t.router != nil
	info := sampleInfo{Req: req, Routed: routed, Hit: routed && !tw.reached.has(o.traceID), Cold: !tw.wl.warm,
		FirstTouch: !tw.wl.warm && o.idx < len(tw.c.stream) && tw.c.firstOfRun[o.idx], Deep: rq.q.Kind == "" || rq.q.Kind == "deep"}
	tw.spans = append(tw.spans, span{Req: req, Name: "client.query", Start: o.start.Sub(tw.begin).Nanoseconds(), End: o.start.Add(o.lat).Sub(tw.begin).Nanoseconds()})

	if err := tw.repeat(req, 5, "client.encode", func() error { _, err := json.Marshal(rq.q); return err }); err != nil {
		return err
	}
	if err := tw.repeat(req, warmReps, "client.decode", func() error {
		var out client.QueryResponse
		return json.Unmarshal(o.body, &out)
	}); err != nil {
		return err
	}

	front := tw.t.front + "/v1/query"
	worker := tw.t.workers[k] + "/v1/query"
	var err error
	if info.Routed {
		if info.Hit {
			// The entry may have been evicted since; one send puts it
			// back, and every timed call must then hit.
			if err := tw.post(front, rq.body)(); err != nil {
				return err
			}
			hits := func() int64 { return tw.t.router.Registry().Snapshot().Counters["router.cache_hits"] }
			before := hits()
			n := 0
			if err := tw.soloReplay(req, tw.solo, rq); err != nil {
				return err
			}
			if err := tw.repeat(req, warmReps, "router.roundtrip", tw.post(front, rq.body)); err != nil {
				return err
			}
			if err := tw.repeat(req, warmReps, "router.handler", handlerCall(tw.routerH, rq.body, &n)); err != nil {
				return err
			}
			if got := hits() - before; got != 3*warmReps {
				return fmt.Errorf("replay of a router-cache hit: %d of %d calls hit", got, 3*warmReps)
			}
			tw.infos = append(tw.infos, info)
			return nil
		}
		// A miss is replayed past the cache: any query string bypasses it.
		bypass := front + "?replay=1"
		if info.Allocs.Routed, err = mallocs(tw.post(bypass, rq.body)); err != nil {
			return err
		}
		if err := tw.repeat(req, warmReps, "router.roundtrip", tw.post(bypass, rq.body)); err != nil {
			return err
		}
		live := "worker.roundtrip"
		if info.Cold {
			live = "worker.roundtrip.live"
		}
		if info.Allocs.Direct, err = mallocs(tw.post(worker, rq.body)); err != nil {
			return err
		}
		if err := tw.repeat(req, warmReps, live, tw.post(worker, rq.body)); err != nil {
			return err
		}
	}
	if info.Cold {
		err = tw.replayCold(req, rq, k, &info)
	} else {
		cl := tw.solo
		if info.Routed {
			cl = tw.soloBypass
		}
		if err = tw.soloReplay(req, cl, rq); err == nil {
			err = tw.replayWarm(req, rq, k, &info)
		}
	}
	if err != nil {
		return err
	}
	tw.infos = append(tw.infos, info)
	return nil
}

// soloReplay times the whole client call of a warm request with nothing
// else running.
func (tw *traceWork) soloReplay(req int, cl *client.Client, rq *request) error {
	return tw.repeat(req, warmReps, "client.replay", func() error {
		_, err := cl.Query(context.Background(), rq.q)
		return err
	})
}

// replayWarm times the worker-side layers of a request that met warm
// caches: the live worker's round trip and handler, then the engine and
// closure calls on the warm copy.
func (tw *traceWork) replayWarm(req int, rq *request, k int, info *sampleInfo) error {
	worker := tw.t.workers[k] + "/v1/query"
	if !info.Routed {
		if err := tw.repeat(req, warmReps, "worker.roundtrip", tw.post(worker, rq.body)); err != nil {
			return err
		}
	}
	var err error
	if info.Allocs.Handler, err = mallocs(handlerCall(tw.workerH[k], rq.body, &info.RespBytes)); err != nil {
		return err
	}
	if err := tw.repeat(req, warmReps, "server.handler", handlerCall(tw.workerH[k], rq.body, &info.RespBytes)); err != nil {
		return err
	}
	x := tw.twins[k]
	v, err := x.view(tw.c, rq)
	if err != nil {
		return err
	}
	engine := func() error { return x.query(rq, v) }
	if err := engine(); err != nil { // primes the copy's memos for this view
		return err
	}
	if info.Allocs.Engine, err = mallocs(engine); err != nil {
		return err
	}
	if err := tw.repeat(req, warmReps, "provenance.query", engine); err != nil {
		return err
	}
	if info.Deep {
		return tw.repeat(req, warmReps, "warehouse.closure", func() error { return x.closure(rq) })
	}
	return nil
}

// replayCold times the worker-side layers against freshly opened copies
// of the owning shard's snapshot, so first touch, view build, mapping
// build and closure compute all run cold. Each copy serves one timing.
func (tw *traceWork) replayCold(req int, rq *request, k int, info *sampleInfo) error {
	path := tw.paths[k]
	sp := tw.c.specOf[rq.q.Run]
	fresh := func(touch bool) (*twin, error) {
		x, err := openTwin(path, true)
		if err != nil || !touch {
			return x, err
		}
		if _, err := x.w.Run(rq.q.Run); err != nil {
			x.w.Close()
			return nil, err
		}
		return x, nil
	}
	// Engine: first touch, view build, then the engine call.
	x, err := fresh(false)
	if err != nil {
		return err
	}
	t0 := time.Now()
	err = tw.timeSpan(req, "warehouse.first_touch", func() error { _, err := x.w.Run(rq.q.Run); return err })
	tw.firstTch = append(tw.firstTch, float64(time.Since(t0))/1e3)
	var v *core.UserView
	if err == nil {
		err = tw.timeSpan(req, "core.view_build", func() error { var e error; v, e = core.BuildRelevant(sp, rq.q.Relevant); return e })
	}
	if err == nil {
		info.Allocs.Engine, err = mallocs(func() error { return tw.timeSpan(req, "provenance.query", func() error { return x.query(rq, v) }) })
	}
	x.w.Close()
	if err != nil {
		return err
	}
	// Mapping build and closure compute, each on its own cold state.
	if x, err = fresh(true); err != nil {
		return err
	}
	r, err := x.w.Run(rq.q.Run)
	if err == nil {
		v, err = core.BuildRelevant(sp, rq.q.Relevant)
	}
	// The engine computes the closure first, then the mapping.
	if err == nil {
		err = tw.timeSpan(req, "warehouse.closure", func() error { return x.closure(rq) })
	}
	if err == nil {
		err = tw.timeSpan(req, "composite.build", func() error { _, e := composite.Build(r, v); return e })
	}
	x.w.Close()
	if err != nil {
		return err
	}
	// In-process handler; the run is pre-touched unless the live request
	// was the one that touched it.
	if x, err = fresh(!info.FirstTouch); err != nil {
		return err
	}
	info.Allocs.Handler, err = mallocs(func() error {
		return tw.timeSpan(req, "server.handler", handlerCall(x.h, rq.body, &info.RespBytes))
	})
	x.w.Close()
	if err != nil {
		return err
	}
	// Direct round trip, raw and then through zoom/client, each to a
	// cold copy served on its own listener.
	if err := tw.serveCold(fresh, !info.FirstTouch, func(url string) error {
		return tw.timeSpan(req, "worker.roundtrip", tw.post(url+"/v1/query", rq.body))
	}); err != nil {
		return err
	}
	return tw.serveCold(fresh, !info.FirstTouch, func(url string) error {
		cl := client.New(url, client.Options{Transport: tw.rawTr})
		return tw.timeSpan(req, "client.replay.direct", func() error {
			_, err := cl.Query(context.Background(), rq.q)
			return err
		})
	})
}

// serveCold serves a fresh copy on a loopback listener, opens a keep-alive
// connection to it, and runs f against its base URL.
func (tw *traceWork) serveCold(fresh func(bool) (*twin, error), touch bool, f func(url string) error) error {
	x, err := fresh(touch)
	if err != nil {
		return err
	}
	defer x.w.Close()
	ln, url, err := listen()
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: x.h}
	done := make(chan struct{})
	go func() { defer close(done); _ = hs.Serve(ln) }()
	defer func() { hs.Close(); <-done }()
	resp, err := tw.raw.Get(url + "/healthz")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return f(url)
}

// report replays the sampled requests and sets every per-layer metric.
func (tw *traceWork) report(res *result, lr *loopResult, props workloadProps, openMs float64) error {
	samples := lr.samples
	sort.Slice(samples, func(i, j int) bool { return samples[i].idx < samples[j].idx })
	if len(samples) == 0 {
		return fmt.Errorf("traced run sampled no request")
	}
	for i, o := range samples {
		// A collection due in the middle of a single cold timing would
		// land on it; start every cold sample's chain on a fresh heap.
		if !tw.wl.warm {
			runtime.GC()
		}
		if err := tw.replay(i, o); err != nil {
			return fmt.Errorf("replay of sample %d: %w", i, err)
		}
	}
	byReq := map[int][]span{}
	for _, s := range tw.spans {
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	sums := map[string]float64{}
	var client, resid float64
	var hitSelf, missSelf, closHit, closMiss, query, clusterAllocs, serverAllocs, respBytes []float64
	for _, info := range tw.infos {
		dur := spanDurations(byReq[info.Req])
		self, r := ledger(info, dur)
		for _, l := range ledgerLayers {
			sums[l] += self[l]
		}
		client += dur["client.query"]
		resid += r
		if info.Routed && info.Hit {
			hitSelf = append(hitSelf, self["cluster.self"])
			continue
		}
		if info.Routed {
			missSelf = append(missSelf, self["cluster.self"])
			clusterAllocs = append(clusterAllocs, float64(info.Allocs.Routed)-float64(info.Allocs.Direct))
		}
		if info.Deep {
			if info.Cold {
				closMiss = append(closMiss, dur["warehouse.closure"])
			} else {
				closHit = append(closHit, dur["warehouse.closure"])
			}
		}
		query = append(query, dur["provenance.query"])
		serverAllocs = append(serverAllocs, float64(info.Allocs.Handler)-float64(info.Allocs.Engine))
		respBytes = append(respBytes, float64(info.RespBytes))
	}
	n := float64(len(tw.infos))
	res.set("client.time_us", client/n, "us")
	for _, l := range ledgerLayers {
		res.set(l+"_us", sums[l]/n, "us")
	}
	res.set("residual_pct", 100*resid/client, "%")
	res.set("cluster.self_us_hit", mean(hitSelf), "us")
	res.set("cluster.self_us_miss", mean(missSelf), "us")
	res.set("cluster.allocs", mean(clusterAllocs), "count")
	res.set("cluster.cache_hit_ratio", props.routerHits, "ratio")
	res.set("cluster.retries", props.retries, "count")
	res.set("server.allocs", mean(serverAllocs), "count")
	res.set("server.resp_bytes", mean(respBytes), "bytes")
	res.set("provenance.query_us", mean(query), "us")
	res.set("warehouse.closure_hit_us", mean(closHit), "us")
	res.set("warehouse.closure_miss_us", mean(closMiss), "us")
	res.set("warehouse.cache_hit_ratio", props.closureHits, "ratio")
	res.set("warehouse.first_touch_cold_us", mean(tw.firstTch), "us")
	res.set("warehouse.open_ms", openMs, "ms")
	var on, off []float64
	for _, t := range lr.lats {
		if t.lat == failedLat {
			continue
		}
		if tracedWindow(t.end - t.lat) {
			on = append(on, float64(t.lat))
		} else {
			off = append(off, float64(t.lat))
		}
	}
	over := 0.0
	if len(on) > 0 && len(off) > 0 {
		over = 100 * (median(on) - median(off)) / median(off)
	}
	res.set("trace.overhead_pct", over, "%")
	res.note("traced run: %d sampled requests replayed (%d router-cache hits); spans in %s", len(tw.infos), len(hitSelf), tw.out)
	return tw.writeSpans()
}

func (tw *traceWork) writeSpans() error {
	if err := os.MkdirAll(filepath.Dir(tw.out), 0o755); err != nil {
		return err
	}
	f, err := os.Create(tw.out)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	sort.SliceStable(tw.spans, func(i, j int) bool { return tw.spans[i].Req < tw.spans[j].Req })
	for _, s := range tw.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	for _, in := range tw.infos {
		if err := enc.Encode(map[string]any{"sample": in}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
