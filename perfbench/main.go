// Command perfbench is the repository's end-to-end benchmark. It boots the
// shipped system in-process through the public constructors `zoom serve`
// and `zoom router` use, serves every tier on a loopback listener, drives
// it with zoom/client from a closed loop of two clients, checks every
// answer against an independent oracle, and prints each metric by name
// with its unit. The last line of standard output is one JSON object:
// end-to-end metrics with -trace 0, per-layer metrics with -trace 1.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload routed-small --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// workload is one traffic mix over one topology.
type workload struct {
	name   string
	build  func(seed int64) (*corpus, error)
	shards int  // snapshot files; more than one puts the router in front
	lazy   bool // serve from the memory map (`zoom serve -mmap`)
	warm   bool // set-up ends with a warm-up pass over the working set
	// boots is how many times set-up runs; setup_s is their median.
	boots int
	// prepare bounds how many stream positions get their expected digest
	// before the measured phase (0 = all); the rest are checked after it.
	prepare int
	// samples caps how many requests the traced run samples and replays.
	samples int
}

var workloads = []*workload{
	{name: "routed-small", build: buildRoutedSmall, shards: 2, lazy: true, warm: true, boots: 7, samples: 300},
	{name: "direct-large-warm", build: buildDirectLargeWarm, shards: 1, lazy: false, warm: true, boots: 7, samples: 200},
	{name: "cold-churn", build: buildColdChurn, shards: 2, lazy: true, warm: false, boots: 15, prepare: 2000, samples: 40},
}

func main() {
	name := flag.String("workload", "", "routed-small, direct-large-warm or cold-churn")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same corpus and requests")
	seconds := flag.Int("seconds", 25, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	flag.Parse()
	var wl *workload
	for _, w := range workloads {
		if w.name == *name {
			wl = w
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload routed-small|direct-large-warm|cold-churn, -seconds >= 1, -trace 0|1")
		os.Exit(2)
	}
	res, err := runWorkload(wl, ".", *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// info lines are printed before the JSON line, not inside it.
	info  []string
	order []string
}

func (r *result) set(name string, v float64, unit string) {
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

func (r *result) print(f *os.File) {
	for _, l := range r.info {
		fmt.Fprintln(f, "#", l)
	}
	for _, n := range r.order {
		fmt.Fprintf(f, "%-28s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	b, _ := json.Marshal(r)
	fmt.Fprintln(f, string(b))
}

// runWorkload prepares the corpus, sets the tiers up, measures, and tears down.
func runWorkload(wl *workload, root string, seed int64, dur time.Duration, traced bool) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	began := time.Now()
	res.note("workload %s seed %d seconds %.0f trace %v clients %d (closed loop)", wl.name, seed, dur.Seconds(), traced, clients)

	// Preparation, not measured: corpus, snapshots, oracle digests.
	c, err := wl.build(seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(root, ".bench_build"), 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	paths, err := c.writeSnapshots(work, wl.shards)
	if err != nil {
		return nil, err
	}
	var snapBytes int64
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		snapBytes += st.Size()
	}
	prep := len(c.stream)
	if wl.prepare > 0 {
		prep = wl.prepare
	}
	if err := expect(c, prep); err != nil {
		return nil, err
	}
	res.note("corpus: %d specs, %d runs, %d data objects, %d requests in stream, %d snapshot file(s) of %d bytes; prepared in %.1fs",
		len(c.specs), len(c.runs), c.totalData(), len(c.stream), len(paths), snapBytes, time.Since(began).Seconds())

	// Set-up, measured: open, boot, /readyz everywhere, warm-up pass. The
	// live heap before the first boot is the harness's own; heap_mb is
	// what the serving side adds to it.
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	harnessHeap := mem.HeapAlloc
	// setups holds each boot's set-up time, hosts the probe's reading of
	// the host just before it.
	var setups, hosts, opens []float64
	pr := newProbe()
	var t *tiers
	var smp *sampling
	var reached *idLog // the traced run's log of samples that reached a worker
	if traced {
		smp = newSampling(dur, wl.samples)
		reached = smp.reached
	}
	for b := 0; b < wl.boots; b++ {
		if t != nil {
			if err := t.stop(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		hosts = append(hosts, hostOf(pr.run(5)))
		t0 := time.Now()
		if t, err = boot(paths, wl.lazy, wl.shards > 1, reached); err != nil {
			return nil, err
		}
		if wl.warm {
			if err := warmUp(t, warmSet(wl.name, c)); err != nil {
				t.stop()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		opens = append(opens, t.openDur.Seconds()*1e3)
	}
	stopTiers := sync.OnceValue(t.stop)
	defer stopTiers()
	res.note("set-up: %d boots, %s s raw; host %s (median of the scaled times reported)", wl.boots, fmtList(setups), fmtList(hosts))

	var tw *traceWork
	if traced {
		if tw, err = newTraceWork(wl, c, t, paths, root, seed, reached); err != nil {
			return nil, err
		}
		defer tw.close()
	}

	before := readCounters(t)
	runtime.GC()
	lr := runLoop(c, t.front, 0, dur, smp)
	after := readCounters(t)
	// A stream that does not cycle is served whole before heap_mb is read.
	rest := &loopResult{attempted: lr.attempted}
	if !c.cycle && !traced && lr.attempted < len(c.stream) {
		rest = runLoop(c, t.front, lr.attempted, time.Hour, nil)
		res.note("after the measured phase, %d more requests served the rest of the stream, unmeasured", rest.attempted-lr.attempted)
	}
	runtime.GC()
	runtime.ReadMemStats(&mem)
	// The loops' own tallies are the harness's too.
	heap := float64(mem.HeapAlloc) - float64(harnessHeap) - float64(lr.footprint()+rest.footprint())
	if !traced {
		// The tiers are done; release what they hold before the late
		// answers are checked.
		if err := stopTiers(); err != nil {
			return nil, err
		}
		runtime.GC()
	}
	if err := lr.settle(c); err != nil {
		return nil, err
	}
	if err := rest.settle(c); err != nil {
		return nil, err
	}

	if lr.attempted == 0 {
		return nil, fmt.Errorf("no request completed in %v", dur)
	}
	failed, wrong := lr.failed+rest.failed, lr.wrong+rest.wrong
	res.Attempted, res.Failed = rest.attempted, failed+wrong
	res.Correct = wrong == 0
	if lr.exhausted {
		res.note("stream of %d requests served whole: the measured phase ended at %.2fs", len(c.stream), lr.wall.Seconds())
	}
	lats := lr.lats
	res.note("requests: %d attempted, %d answered and checked, %d transport/non-2xx errors, %d wrong answers; measured phase %d attempted, latency samples %d",
		rest.attempted, lr.ok+rest.ok, failed, wrong, lr.attempted, len(lats))
	errRate := float64(failed+wrong) / float64(rest.attempted)
	res.note("error_rate %.6f (reported in the JSON as answered_ok_pct = 100 x (1 - error_rate))", errRate)
	props := measureProps(c, lr)
	props.routerHits = ratio(after.routerHits-before.routerHits, after.routerMisses-before.routerMisses)
	props.closureHits = ratio(after.closureHits-before.closureHits, after.closureMisses-before.closureMisses)
	props.retries = float64(after.retries - before.retries)
	res.note("workload properties: tuples/answer p50 %.0f max %.0f; repeated bodies %.1f%%; distinct views %.0f; router-cache hits %.1f%%; closure-cache hits %.1f%%",
		props.tuplesP50, props.tuplesMax, 100*props.repeatShare, props.distinctViews, 100*props.routerHits, 100*props.closureHits)

	if !traced {
		secs := perSecond(lats, lr.ticks)
		var raw, host []float64
		for _, sc := range secs {
			raw, host = append(raw, sc.p50), append(host, sc.host)
		}
		res.note("per-second windows: %d; p50, qps and cpu_ms_per_query are medians over them, p99 is pooled over all %d requests", len(secs), len(lats))
		res.note("host: probe unit %.4f x reference per second (median; min %.4f max %.4f); unscaled p50 %.4f ms", median(host), slices.Min(host), slices.Max(host), median(raw))
		last := lr.ticks[len(lr.ticks)-1]
		res.note("answer checking: %.1f%% of the process CPU, %.1f%% of the clients' time (taken out of qps and cpu_ms_per_query)",
			100*float64(last.check)/float64(max(last.cpu, 1)), 100*float64(last.check)/float64(clients*last.at))
		scaledSetups := make([]float64, len(setups))
		for b := range setups {
			scaledSetups[b] = setups[b] / hosts[b]
		}
		p50, qps, cpu, p99 := scaled(secs)
		res.set("setup_s", median(scaledSetups), "s")
		res.set("p50_ms", p50, "ms")
		res.set("p99_ms", p99, "ms")
		res.set("qps", qps, "1/s")
		res.set("answered_ok_pct", 100*(1-errRate), "%")
		res.set("cpu_ms_per_query", cpu, "ms")
		res.set("resp_kb", float64(lr.bytes)/1024/float64(max(lr.ok, 1)), "KiB")
		res.set("heap_mb", heap/(1<<20), "MiB")
		res.set("snapshot_mb", float64(snapBytes)/(1<<20), "MiB")
		return res, nil
	}
	if err := tw.report(res, lr, props, median(opens)); err != nil {
		return nil, err
	}
	return res, nil
}

// measureProps reads the answer sizes, repeats and views of the stream
// positions the measured phase sent.
func measureProps(c *corpus, lr *loopResult) workloadProps {
	tuples := append([]int32(nil), lr.tuples...)
	sort.Slice(tuples, func(i, j int) bool { return tuples[i] < tuples[j] })
	repeats := 0
	views := map[string]bool{}
	for i := 0; i < lr.attempted; i++ {
		if i >= len(c.stream) || c.repeat[i] {
			repeats++
		}
		views[c.stream[i%len(c.stream)].viewKey] = true
	}
	p := workloadProps{repeatShare: float64(repeats) / float64(lr.attempted), distinctViews: float64(len(views))}
	if n := len(tuples); n > 0 {
		p.tuplesP50 = float64(tuples[(n-1)/2])
		p.tuplesMax = float64(tuples[n-1])
	}
	return p
}

// refUnit is the probe unit time of the reference host. Every time the
// benchmark reports is scaled to that host: a time measured while the probe
// unit took h reads as time x refUnit / h, and a rate as rate x h /
// refUnit. The raw figures are printed on # lines.
const refUnit = time.Millisecond

// hostOf reads a probe's unit times as the host's slowness: their mean
// over refUnit.
func hostOf(units []time.Duration) float64 {
	var sum time.Duration
	for _, u := range units {
		sum += u
	}
	return float64(sum) / float64(len(units)) / float64(refUnit)
}

// second is one second of the measured phase.
type second struct {
	p50, qps, cpu float64 // raw median ms, completed requests/s, process CPU ms per request
	host          float64 // mean probe unit time over refUnit
	lats          []time.Duration
}

// perSecond splits the measured phase into its seconds. A slow spell of
// the host then moves medians over seconds less than it moves totals, and
// each second is scaled by the probe bursts run in it. The stub after the
// last whole second is left out when it is under half a second, unless it
// is all there is. The probe pauses are taken out of each second's length
// and CPU time, and so is the clients' answer checking: its CPU time from
// the process's, and its share of the clients' time from the length.
func perSecond(lats []timed, ticks []tick) []second {
	var wins []tick // window ends
	prev := tick{}
	for i, t := range ticks {
		if t.at-prev.at >= time.Second/2 || (i == len(ticks)-1 && len(wins) == 0) {
			wins = append(wins, t)
		}
		prev = t
	}
	lat := make([][]time.Duration, len(wins))
	for _, t := range lats {
		if w := sort.Search(len(wins), func(i int) bool { return wins[i].at >= t.end }); w < len(wins) {
			lat[w] = append(lat[w], t.lat)
		}
	}
	var out []second
	prev = tick{}
	for w, end := range wins {
		check := end.check - prev.check
		span := end.at - prev.at - (end.paused - prev.paused) - check/clients
		used := end.cpu - prev.cpu - (end.pausedCPU - prev.pausedCPU) - check
		prev = end
		ls := lat[w]
		if len(ls) == 0 || len(end.probe) == 0 {
			continue
		}
		sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
		done := 0
		for _, l := range ls {
			if l != failedLat {
				done++
			}
		}
		out = append(out, second{
			p50:  ms(percentileDur(ls, 0.50)),
			qps:  float64(done) / span.Seconds(),
			cpu:  ms(used) / float64(max(done, 1)),
			host: hostOf(end.probe),
			lats: ls,
		})
	}
	return out
}

// scaled returns the medians over the seconds of p50, qps and CPU per
// request, each second scaled to the reference host, and the 99th
// percentile over all requests, each latency scaled by its second.
func scaled(secs []second) (p50, qps, cpu, p99 float64) {
	var p50s, qpss, cpus []float64
	var all []time.Duration
	for _, s := range secs {
		p50s = append(p50s, s.p50/s.host)
		qpss = append(qpss, s.qps*s.host)
		cpus = append(cpus, s.cpu/s.host)
		for _, l := range s.lats {
			if l != failedLat {
				l = time.Duration(float64(l) / s.host)
			}
			all = append(all, l)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return median(p50s), median(qpss), median(cpus), ms(percentileDur(all, 0.99))
}

// workloadProps is the property report every run records.
type workloadProps struct {
	tuplesP50, tuplesMax, repeatShare, distinctViews float64
	routerHits, closureHits, retries                 float64
}

// counters are the tiers' own cache and retry counters.
type counters struct {
	routerHits, routerMisses, retries int64
	closureHits, closureMisses        int64
}

func readCounters(t *tiers) counters {
	var c counters
	if t.router != nil {
		snap := t.router.Registry().Snapshot()
		c.routerHits = snap.Counters["router.cache_hits"]
		c.routerMisses = snap.Counters["router.cache_misses"]
		c.retries = snap.Counters["router.failovers"] + snap.Counters["router.hedges"]
	}
	for _, s := range t.systems {
		cc := s.CacheCounters()
		c.closureHits += cc.Hits
		c.closureMisses += cc.Misses
	}
	return c
}

func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentileDur reads the q-quantile of sorted durations (nearest rank).
func percentileDur(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func fmtList(xs []float64) string {
	var b strings.Builder
	for i, x := range xs {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%.4f", x)
	}
	return b.String()
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
