package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/zoom/client"
)

// clients is the closed loop's concurrency: one client per core of the
// 2-core host the benchmark was defined on, each waiting for its answer
// before sending the next request.
const clients = 2

// countingTransport is one client's own keep-alive transport. It counts
// the bytes of each response body and, when asked, keeps them for the
// traced run's decode replay. A transport belongs to one goroutine.
type countingTransport struct {
	base    *http.Transport
	n       int64
	capture bool
	buf     []byte
}

func newCountingTransport() *countingTransport {
	return &countingTransport{base: &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: 90 * time.Second}}
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	t.n = 0
	t.buf = t.buf[:0]
	resp.Body = &countingBody{ReadCloser: resp.Body, t: t}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	t *countingTransport
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.t.n += int64(n)
	if b.t.capture {
		b.t.buf = append(b.t.buf, p[:n]...)
	}
	return n, err
}

// outcome is one sampled request of the traced run, as the client saw it.
type outcome struct {
	idx     int // position in the stream
	traceID string
	start   time.Time
	lat     time.Duration
	body    []byte // the raw answer, for the decode replay
}

// timed is one request's latency and when, from the start of the
// measured phase, it completed.
type timed struct{ end, lat time.Duration }

// failedLat is the latency a failed request counts with: it misses every
// latency limit.
const failedLat = time.Duration(1<<63 - 1)

// answer is one 2xx answer of the measured phase.
type answer struct {
	idx int
	got digest
	timed
	bytes  int64
	tuples int32
	sample *outcome
}

// tally is one client goroutine's share of the measured phase.
type tally struct {
	// lats holds every attempted request; the failed ones with failedLat.
	lats              []timed
	ok, failed, wrong int
	bytes             int64
	tuples            []int32
	samples           []outcome
	// pending are answers whose expected digest was not prepared; they
	// are checked after the measured phase.
	pending []answer
}

// count folds one answer into the tally, checked against want.
func (tl *tally) count(a answer, want digest) {
	ok := a.got == want
	if !ok {
		tl.wrong++
		a.lat = failedLat
	}
	tl.lats = append(tl.lats, a.timed)
	if !ok {
		return
	}
	tl.ok++
	tl.bytes += a.bytes
	tl.tuples = append(tl.tuples, a.tuples)
	if a.sample != nil {
		tl.samples = append(tl.samples, *a.sample)
	}
}

// footprint is the heap the tally's own buffers hold: harness memory that
// heap_mb leaves out.
func (tl *tally) footprint() int64 {
	n := int64(cap(tl.lats))*int64(unsafe.Sizeof(timed{})) +
		int64(cap(tl.tuples))*int64(unsafe.Sizeof(int32(0))) +
		int64(cap(tl.samples))*int64(unsafe.Sizeof(outcome{})) +
		int64(cap(tl.pending))*int64(unsafe.Sizeof(answer{}))
	for _, o := range tl.samples {
		n += int64(cap(o.body))
	}
	return n
}

// loopResult is the measured phase as a whole.
type loopResult struct {
	tally
	attempted int // stream positions 0..attempted-1 were sent
	wall      time.Duration
	// ticks mark the end of each second of the measured phase, and of
	// the phase itself.
	ticks     []tick
	exhausted bool
}

// tick is a point of the measured phase with the process CPU time used by
// then and, of that, the CPU time the clients spent checking answers. At
// every probeEvery the clients pause while a host probe burst runs; paused
// and pausedCPU sum the wall and process CPU time of the pauses before the
// tick, and probe holds the unit times of the bursts in the second the
// tick ends.
type tick struct {
	at, cpu, check    time.Duration
	paused, pausedCPU time.Duration
	probe             []time.Duration
}

func cpuTime(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// checkAnswer digests a decoded answer and counts its tuples, and returns
// the CPU time that took on the calling thread.
func checkAnswer(resp *client.QueryResponse) (digest, int32, time.Duration) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := cpuTime(syscall.RUSAGE_THREAD)
	d, n := digestResponse(resp), int32(tuplesOf(resp))
	return d, n, cpuTime(syscall.RUSAGE_THREAD) - t0
}

// tracedWindow reports whether a request starting at offset at of the
// measured phase falls in a traced second. The traced run alternates
// untraced and traced seconds, starting untraced; the medians of the two
// give the tracing overhead.
func tracedWindow(at time.Duration) bool { return int64(at/time.Second)%2 == 1 }

// sampleIDPrefix starts the trace id of every sampled request, so the
// worker-side log can tell them from the router's own ids cheaply.
const sampleIDPrefix = "5a3b1e"

// sampling chooses the traced run's sampled requests: in traced seconds,
// at most one per gap, up to max. Each sampled request carries its own
// trace id in the X-Zoom-Trace-Id header, which leaves the body, and so
// the router cache key, unchanged.
type sampling struct {
	gap   time.Duration
	max   int
	next  atomic.Int64 // earliest offset of the next sample, in ns
	taken atomic.Int64
	// reached logs the sampled trace ids that reached a worker. A routed
	// sample missing from it was answered from the router cache.
	reached *idLog
}

func newSampling(dur time.Duration, max int) *sampling {
	return &sampling{gap: dur / 2 / time.Duration(max), max: max, reached: &idLog{ids: map[string]bool{}}}
}

// take decides whether the request starting at offset at is sampled and
// returns its trace id.
func (s *sampling) take(at time.Duration) (string, bool) {
	if !tracedWindow(at) {
		return "", false
	}
	n := s.next.Load()
	if int64(at) < n || !s.next.CompareAndSwap(n, int64(at+s.gap)) {
		return "", false
	}
	k := s.taken.Add(1)
	if k > int64(s.max) {
		return "", false
	}
	return fmt.Sprintf("%s%010x", sampleIDPrefix, k), true
}

// idLog is the set of sampled trace ids that reached a worker.
type idLog struct {
	mu  sync.Mutex
	ids map[string]bool
}

// wrap notes the sampled trace ids of the requests h serves.
func (l *idLog) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if id := r.Header.Get(client.TraceIDHeader); strings.HasPrefix(id, sampleIDPrefix) {
			l.mu.Lock()
			l.ids[id] = true
			l.mu.Unlock()
		}
		h.ServeHTTP(w, r)
	})
}

func (l *idLog) has(id string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ids[id]
}

// runLoop drives the closed loop against base for dur, from stream
// position from on. With smp set (the traced run), requests in traced
// seconds may be sampled: a sampled request keeps its answer bytes for the
// replay.
func runLoop(c *corpus, base string, from int, dur time.Duration, smp *sampling) *loopResult {
	var next atomic.Int64
	next.Store(int64(from))
	var exhausted atomic.Bool
	var checkCPU atomic.Int64
	per := make([]tally, clients)
	var wg sync.WaitGroup
	start := time.Now()
	cpu0 := cpuTime(syscall.RUSAGE_SELF)
	deadline := start.Add(dur)
	var ticks []tick
	var paused, pausedCPU time.Duration
	var probed []time.Duration // probe unit times of the current second
	pr := newProbe()
	now := func() tick {
		return tick{at: time.Since(start), cpu: cpuTime(syscall.RUSAGE_SELF) - cpu0, check: time.Duration(checkCPU.Load()),
			paused: paused, pausedCPU: pausedCPU}
	}
	// gate pauses the clients between requests while a probe burst runs.
	var gate sync.RWMutex
	burst := func() {
		at, cpu := time.Since(start), cpuTime(syscall.RUSAGE_SELF)
		probed = append(probed, pr.run(1)...)
		paused += time.Since(start) - at
		pausedCPU += cpuTime(syscall.RUSAGE_SELF) - cpu
	}
	stop := make(chan struct{})
	ticked := make(chan struct{})
	go func() {
		defer close(ticked)
		tk := time.NewTicker(probeEvery)
		defer tk.Stop()
		for n := 1; ; n++ {
			select {
			case <-stop:
				return
			case <-tk.C:
				gate.Lock()
				if n%int(time.Second/probeEvery) == 0 {
					t := now()
					t.probe, probed = probed, nil
					ticks = append(ticks, t)
				}
				burst()
				gate.Unlock()
			}
		}
	}()
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(tl *tally) {
			defer wg.Done()
			tr := newCountingTransport()
			defer tr.base.CloseIdleConnections()
			cl := client.New(base, client.Options{Transport: tr})
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(c.stream) && !c.cycle {
					exhausted.Store(true)
					return
				}
				rq := c.stream[i%len(c.stream)]
				q := rq.q
				sampled := false
				if smp != nil {
					q.TraceID, sampled = smp.take(time.Since(start))
				}
				tr.capture = sampled
				gate.RLock()
				t0 := time.Now()
				resp, err := cl.Query(context.Background(), q)
				lat := time.Since(t0)
				end := time.Since(start)
				gate.RUnlock()
				if err != nil {
					tl.failed++
					tl.lats = append(tl.lats, timed{end, failedLat})
					continue
				}
				got, tuples, used := checkAnswer(resp)
				checkCPU.Add(int64(used))
				a := answer{idx: i, got: got, timed: timed{end, lat}, bytes: tr.n, tuples: tuples}
				if sampled {
					a.sample = &outcome{idx: i, traceID: q.TraceID, start: t0, lat: lat, body: append([]byte(nil), tr.buf...)}
				}
				if rq.prepared {
					tl.count(a, rq.want)
				} else {
					tl.pending = append(tl.pending, a)
				}
			}
		}(&per[g])
	}
	wg.Wait()
	close(stop)
	<-ticked
	if len(probed) == 0 {
		burst()
	}
	last := now()
	last.probe = probed
	res := &loopResult{wall: last.at, exhausted: exhausted.Load()}
	res.ticks = append(ticks, last)
	res.attempted = int(next.Load())
	if res.exhausted {
		res.attempted = len(c.stream)
	}
	for _, p := range per {
		res.lats = append(res.lats, p.lats...)
		res.ok += p.ok
		res.failed += p.failed
		res.wrong += p.wrong
		res.bytes += p.bytes
		res.tuples = append(res.tuples, p.tuples...)
		res.samples = append(res.samples, p.samples...)
		res.pending = append(res.pending, p.pending...)
	}
	return res
}

// settle checks the pending answers against expected digests computed
// now, after the measured phase, and folds them into the tally.
func (lr *loopResult) settle(c *corpus) error {
	if len(lr.pending) == 0 {
		return nil
	}
	if err := expect(c, lr.attempted); err != nil {
		return err
	}
	for _, a := range lr.pending {
		lr.count(a, c.stream[a.idx].want)
	}
	lr.pending = nil
	return nil
}

// warmUp sends each request once, directly to the worker that owns it,
// on two goroutines. The router cache is left cold on purpose.
func warmUp(t *tiers, reqs []client.QueryRequest) error {
	cls := make([]*client.Client, len(t.workers))
	for k, w := range t.workers {
		cls[k] = client.New(w, client.Options{})
	}
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(reqs); i += clients {
				if _, err := cls[t.owner(reqs[i].Run)].Query(context.Background(), reqs[i]); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// warmSet is the working set the warm workloads touch during set-up:
// every distinct request of direct-large-warm; for routed-small one deep
// UAdmin query per (run, data), which computes every closure, and one
// query per (run, named view), which builds every mapping.
func warmSet(name string, c *corpus) []client.QueryRequest {
	var out []client.QueryRequest
	switch name {
	case "routed-small":
		for _, r := range c.runs {
			for _, d := range r.AllData() {
				out = append(out, client.QueryRequest{Run: r.ID(), Data: d})
			}
			out = append(out, client.QueryRequest{Run: r.ID(), Data: r.AllData()[0], View: namedView})
		}
	case "direct-large-warm":
		seen := map[string]bool{}
		for _, rq := range c.stream {
			if !seen[string(rq.body)] {
				seen[string(rq.body)] = true
				out = append(out, rq.q)
			}
		}
	}
	return out
}
