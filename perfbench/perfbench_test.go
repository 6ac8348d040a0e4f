package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/zoom/client"
)

// alterAnswers is a proxy in front of the tiers that changes every answer
// a little: it drops the first data object of a result, or renames the
// execution of an immediate answer.
func alterAnswers(t *testing.T, front string) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp, err := http.Post(front+r.URL.Path, "application/json", r.Body)
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		var qr client.QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Error(err)
			return
		}
		switch {
		case qr.Result != nil && len(qr.Result.Data) > 0:
			qr.Result.Data = qr.Result.Data[1:]
		case qr.Execution != nil:
			qr.Execution.ID += "x"
		default:
			qr.Kind += "x"
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(resp.StatusCode)
		json.NewEncoder(w).Encode(qr)
	}))
}

func TestCheckerFlagsAlteredAnswer(t *testing.T) {
	c, err := buildRoutedSmall(3)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := c.writeSnapshots(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	c.stream = c.stream[:400]
	c.repeat, c.firstOfRun = c.repeat[:400], c.firstOfRun[:400]
	c.cycle = false
	if err := expect(c, 200); err != nil {
		t.Fatal(err)
	}
	tr, err := boot(paths, true, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.stop()

	// The unaltered answers all pass, prepared or checked afterwards.
	lr := runLoop(c, tr.front, 0, time.Minute, nil)
	if err := lr.settle(c); err != nil {
		t.Fatal(err)
	}
	if lr.attempted != 400 || lr.ok != 400 || lr.wrong != 0 || lr.failed != 0 {
		t.Fatalf("unaltered: attempted %d ok %d wrong %d failed %d", lr.attempted, lr.ok, lr.wrong, lr.failed)
	}

	// The rest of a stream is served, and checked, from where a phase
	// stopped.
	rest := runLoop(c, tr.front, 300, time.Minute, nil)
	if err := rest.settle(c); err != nil {
		t.Fatal(err)
	}
	if rest.attempted != 400 || rest.ok != 100 || rest.wrong != 0 || rest.failed != 0 {
		t.Fatalf("rest: attempted %d ok %d wrong %d failed %d", rest.attempted, rest.ok, rest.wrong, rest.failed)
	}

	// Volatile fields are outside the digest.
	rq := c.stream[0]
	resp, err := client.New(tr.front, client.Options{}).Query(context.Background(), rq.q)
	if err != nil {
		t.Fatal(err)
	}
	resp.TraceID, resp.Outcome, resp.Strategy, resp.Timing = "ffffffffffffffff", "miss", "bfs", &client.Timing{TotalNs: 1}
	if digestResponse(resp) != rq.want {
		t.Fatal("changing trace_id, outcome, strategy or timing changed the digest")
	}

	// Every altered answer is flagged.
	proxy := alterAnswers(t, tr.front)
	defer proxy.Close()
	lr = runLoop(c, proxy.URL, 0, time.Minute, nil)
	if err := lr.settle(c); err != nil {
		t.Fatal(err)
	}
	if lr.wrong != lr.attempted || lr.ok != 0 {
		t.Fatalf("altered: attempted %d ok %d wrong %d", lr.attempted, lr.ok, lr.wrong)
	}
}

// TestLedger runs each workload's traced run briefly and checks it from
// the span file and the reported metrics: every layer on the workload's
// path was timed; router-cache hits were sampled where bodies repeat and
// never where they do not; no layer's mean self time is negative (the
// core wait aside, which can be); and the layers explain the client time
// up to a small residual.
func TestLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("boots every workload")
	}
	// The spans each workload's replays must record: the layers on its
	// path.
	onPath := map[string][]string{
		"routed-small":      {"router.roundtrip", "router.handler", "worker.roundtrip", "server.handler", "provenance.query", "client.replay"},
		"direct-large-warm": {"worker.roundtrip", "server.handler", "provenance.query", "warehouse.closure", "client.replay"},
		"cold-churn": {"router.roundtrip", "worker.roundtrip.live", "worker.roundtrip", "server.handler", "provenance.query",
			"warehouse.first_touch", "core.view_build", "composite.build", "warehouse.closure", "client.replay.direct"},
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			root := t.TempDir()
			// One untraced second, then one traced second.
			res, err := runWorkload(wl, root, 7, 2*time.Second, true)
			if err != nil {
				t.Fatal(err)
			}
			spans, infos := readSpans(t, root+"/.bench_build/spans/"+wl.name+"-seed7.jsonl")
			if len(infos) == 0 {
				t.Fatal("no sampled request")
			}
			hits := 0
			for _, info := range infos {
				if info.Hit {
					hits++
				}
			}
			switch wl.name {
			case "routed-small":
				if hits == 0 || hits == len(infos) {
					t.Errorf("%d of %d samples met the router cache; want some hits and some misses", hits, len(infos))
				}
			default:
				if hits != 0 {
					t.Errorf("%d samples counted as router-cache hits on a workload whose bodies never repeat or that has no router", hits)
				}
			}
			m := res.Metrics
			for _, l := range ledgerLayers {
				if v := m[l+"_us"].Value; l != "loop.wait" && v < 0 {
					t.Errorf("%s_us = %.3f, negative", l, v)
				}
			}
			if r := m["residual_pct"].Value; math.Abs(r) > 25 {
				t.Errorf("residual_pct = %.1f: the layers leave over a quarter of the client time unexplained", r)
			}
			seen := map[string]bool{}
			for _, ss := range spans {
				for _, sp := range ss {
					seen[sp.Name] = true
				}
			}
			for _, name := range onPath[wl.name] {
				if !seen[name] {
					t.Errorf("no %s span on %s's path", name, wl.name)
				}
			}
			if wl.name == "direct-large-warm" && (seen["router.roundtrip"] || m["cluster.self_us"].Value != 0) {
				t.Errorf("router layer timed without a router")
			}
			names := benchmarkNames(t, "per_layer")
			for _, want := range names {
				if _, ok := m[want]; !ok {
					t.Errorf("missing per-layer metric %s", want)
				}
			}
			if len(m) != len(names) {
				t.Errorf("traced run reports %d metrics, BENCHMARK.json lists %d", len(m), len(names))
			}
		})
	}
}

// benchmarkNames reads the metric names BENCHMARK.json promises, by
// section ("end_to_end" or "per_layer").
func benchmarkNames(t *testing.T, section string) []string {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var metrics []struct{ Name string }
	if err := json.Unmarshal(spec[section], &metrics); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range metrics {
		names = append(names, m.Name)
	}
	return names
}

// TestEndToEndMetrics checks that an untraced run reports exactly the
// end-to-end metrics BENCHMARK.json lists, none of them zero.
func TestEndToEndMetrics(t *testing.T) {
	res, err := runWorkload(workloads[0], t.TempDir(), 7, time.Second, false)
	if err != nil {
		t.Fatal(err)
	}
	names := benchmarkNames(t, "end_to_end")
	if len(res.Metrics) != len(names) {
		t.Errorf("untraced run reports %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(names))
	}
	for _, n := range names {
		if m, ok := res.Metrics[n]; !ok || m.Value == 0 {
			t.Errorf("end-to-end metric %s = %v (reported %v)", n, m.Value, ok)
		}
	}
}

func readSpans(t *testing.T, path string) (map[int][]span, []sampleInfo) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans := map[int][]span{}
	var infos []sampleInfo
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var line struct {
			Sample *sampleInfo `json:"sample"`
			span
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if line.Sample != nil {
			infos = append(infos, *line.Sample)
			continue
		}
		spans[line.Req] = append(spans[line.Req], line.span)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return spans, infos
}

// TestPerSecond pins the one-second windows: the stub after the last
// whole second is dropped, a phase shorter than a second is one window
// rather than none, the clients' checking time and the probe pauses are
// taken out of the second's length and CPU time, and each second is scaled
// by the host's slowness as the probe read it.
func TestPerSecond(t *testing.T) {
	ms := time.Millisecond
	ref := []time.Duration{refUnit}
	lats := []timed{{300 * ms, 5 * ms}, {900 * ms, 5 * ms}, {1001 * ms, 5 * ms}}
	for _, tc := range []struct {
		name          string
		ticks         []tick
		p50, qps, cpu float64
	}{
		{"stub dropped", []tick{{at: time.Second, cpu: 10 * ms, probe: ref}, {at: 1002 * ms, cpu: 11 * ms, probe: ref}}, 5, 2, 5},
		{"short phase", []tick{{at: 950 * ms, cpu: 10 * ms, probe: ref}}, 5, 2 / 0.95, 5},
		{"checking out", []tick{{at: time.Second, cpu: 10 * ms, check: 4 * ms, probe: ref}}, 5, 2 / 0.998, 3},
		{"pauses out", []tick{{at: time.Second, cpu: 10 * ms, paused: 200 * ms, pausedCPU: 4 * ms, probe: ref}}, 5, 2 / 0.8, 3},
		{"slow host", []tick{{at: time.Second, cpu: 10 * ms, probe: []time.Duration{2 * refUnit, 3 * refUnit}}}, 2, 5, 2},
	} {
		secs := perSecond(lats[:2+len(tc.ticks)-1], tc.ticks)
		p50, qps, cpu, p99 := scaled(secs)
		if len(secs) != 1 || math.Abs(p50-tc.p50) > 1e-9 || math.Abs(p99-tc.p50) > 1e-9 ||
			math.Abs(qps-tc.qps) > 1e-9 || math.Abs(cpu-tc.cpu) > 1e-9 {
			t.Errorf("%s: %d seconds, p50 %v p99 %v qps %v cpu %v; want p50 = p99 = %v, qps %v, cpu %v",
				tc.name, len(secs), p50, p99, qps, cpu, tc.p50, tc.qps, tc.cpu)
		}
	}
}
