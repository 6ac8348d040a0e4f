package warehouse

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/run"
	"repro/internal/spec"
)

// snapshotWarehouse builds a warehouse with the phylogenomics example (plus
// a registered view and annotated input) and a spread of generated runs
// across the Table II classes — the fixture the snapshot tests serialize.
func snapshotWarehouse(t testing.TB, runsPerClass int) *Warehouse {
	t.Helper()
	w := New(0)
	ph := spec.Phylogenomics()
	mustT(t, w.RegisterSpec(ph))
	mustT(t, w.LoadRun(run.Figure2()))
	joe, err := core.BuildRelevant(ph, spec.PhyloRelevantJoe())
	mustT(t, err)
	mustT(t, w.RegisterView("joe", joe))
	r, _ := w.Run("fig2")
	mustT(t, r.AnnotateInput("d1", map[string]string{"who": "joe", "when": "2008-04-07"}))

	g := gen.NewGenerator(42)
	classes := gen.RunClasses()
	classes[2].MaxNodes = 600 // keep "large" test-sized
	for ci, rc := range classes {
		s := g.Workflow(gen.Class4(), fmt.Sprintf("snap-%s", rc.Name))
		mustT(t, w.RegisterSpec(s))
		for i := 0; i < runsPerClass; i++ {
			gr, _, err := g.Run(s, rc, fmt.Sprintf("snap-%s-r%d", rc.Name, i))
			mustT(t, err)
			mustT(t, w.LoadRun(gr))
		}
		_ = ci
	}
	return w
}

// deepAnswers queries the UAdmin deep provenance of every run's last final
// output, returning a comparable map.
func deepAnswers(t testing.TB, w *Warehouse) map[string][]string {
	t.Helper()
	out := make(map[string][]string)
	for _, id := range w.RunIDs() {
		r, err := w.Run(id)
		mustT(t, err)
		finals := r.FinalOutputs()
		if len(finals) == 0 {
			continue
		}
		cl, err := w.DeepProvenance(id, finals[len(finals)-1])
		mustT(t, err)
		var ds []string
		for d := range dataNamesOf(cl) {
			ds = append(ds, d)
		}
		sort.Strings(ds)
		out[id] = ds
	}
	return out
}

// catalog compares the non-cache portion of Stats.
func catalog(s Stats) Stats {
	s.Cache = CacheCounters{}
	s.CacheHits, s.CacheMisses = 0, 0
	return s
}

// TestSaveBinaryRoundTrip: SaveBinary → Load restores an equivalent
// warehouse, and a second SaveBinary is byte-identical (the v2 format is
// canonical: content-derived interning and sorted frames).
func TestSaveBinaryRoundTrip(t *testing.T) {
	w := snapshotWarehouse(t, 2)
	var buf1 bytes.Buffer
	mustT(t, w.SaveBinary(&buf1))

	back, err := Load(bytes.NewReader(buf1.Bytes()), 0)
	mustT(t, err)

	if !reflect.DeepEqual(back.SpecNames(), w.SpecNames()) {
		t.Fatal("specs differ after binary round trip")
	}
	if !reflect.DeepEqual(back.RunIDs(), w.RunIDs()) {
		t.Fatal("runs differ after binary round trip")
	}
	if got, want := catalog(back.Stats()), catalog(w.Stats()); !reflect.DeepEqual(got, want) {
		t.Fatalf("stats differ after binary round trip:\n got %+v\nwant %+v", got, want)
	}
	v, err := back.View("phylogenomics", "joe")
	mustT(t, err)
	orig, err := w.View("phylogenomics", "joe")
	mustT(t, err)
	if !v.Equal(orig) {
		t.Fatal("view differs after binary round trip")
	}
	r, err := back.Run("fig2")
	mustT(t, err)
	if got := r.InputMeta("d1"); got["who"] != "joe" || got["when"] != "2008-04-07" {
		t.Fatalf("metadata lost: %v", got)
	}
	if !reflect.DeepEqual(deepAnswers(t, back), deepAnswers(t, w)) {
		t.Fatal("provenance answers differ after binary round trip")
	}

	var buf2 bytes.Buffer
	mustT(t, back.SaveBinary(&buf2))
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatalf("v2 snapshot not byte-stable: %d vs %d bytes", buf1.Len(), buf2.Len())
	}
}

// normalizeSnapshot sorts the order-insensitive parts of a decoded v1
// snapshot (flow rows follow graph insertion order, which reconstruction
// does not preserve).
func normalizeSnapshot(s *snapshot) {
	for i := range s.Runs {
		fl := s.Runs[i].Flows
		sort.Slice(fl, func(a, b int) bool {
			if fl[a].From != fl[b].From {
				return fl[a].From < fl[b].From
			}
			return fl[a].To < fl[b].To
		})
	}
}

// TestSaveV1RoundTripElementIdentical: Save → Load → Save yields an
// element-identical v1 document (same specs, views, runs, flows and meta,
// flow order normalized).
func TestSaveV1RoundTripElementIdentical(t *testing.T) {
	w := snapshotWarehouse(t, 2)
	var buf1 bytes.Buffer
	mustT(t, w.Save(&buf1))
	back, err := Load(bytes.NewReader(buf1.Bytes()), 0)
	mustT(t, err)
	var buf2 bytes.Buffer
	mustT(t, back.Save(&buf2))

	var s1, s2 snapshot
	mustT(t, json.Unmarshal(buf1.Bytes(), &s1))
	mustT(t, json.Unmarshal(buf2.Bytes(), &s2))
	normalizeSnapshot(&s1)
	normalizeSnapshot(&s2)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("v1 snapshot not element-identical after round trip")
	}
}

// TestLoadAutoDetect: the same warehouse saved in both formats loads to the
// same contents through the one Load entry point.
func TestLoadAutoDetect(t *testing.T) {
	w := snapshotWarehouse(t, 1)
	var v1, v2 bytes.Buffer
	mustT(t, w.Save(&v1))
	mustT(t, w.SaveBinary(&v2))
	if v1.Bytes()[0] == snapMagic[0] {
		t.Fatal("v1 snapshot collides with the v2 magic byte")
	}

	from1, err := Load(bytes.NewReader(v1.Bytes()), 0)
	mustT(t, err)
	from2, err := Load(bytes.NewReader(v2.Bytes()), 0)
	mustT(t, err)
	if !reflect.DeepEqual(from1.RunIDs(), from2.RunIDs()) {
		t.Fatal("formats disagree on runs")
	}
	if got, want := catalog(from1.Stats()), catalog(from2.Stats()); !reflect.DeepEqual(got, want) {
		t.Fatalf("formats disagree on stats:\n v1 %+v\n v2 %+v", got, want)
	}
	if !reflect.DeepEqual(deepAnswers(t, from1), deepAnswers(t, from2)) {
		t.Fatal("formats disagree on provenance answers")
	}
}

// TestLoadBinaryRejectsCorrupt covers the v2 error paths: bad magic, bad
// version, truncations, and a frame with out-of-range ids.
func TestLoadBinaryRejectsCorrupt(t *testing.T) {
	w := snapshotWarehouse(t, 1)
	var buf bytes.Buffer
	mustT(t, w.SaveBinary(&buf))
	good := buf.Bytes()

	if _, err := Load(bytes.NewReader([]byte("ZXXX")), 0); err == nil {
		t.Fatal("bad magic accepted")
	}
	bad := append([]byte(nil), good...)
	bad[4] = 9
	if _, err := Load(bytes.NewReader(bad), 0); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("bad version accepted: %v", err)
	}
	for _, cut := range []int{1, 4, 5, 6, len(good) / 2, len(good) - 1} {
		if _, err := Load(bytes.NewReader(good[:cut]), 0); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Flip bytes in the tail (the run frames); Load must error or produce a
	// valid warehouse, never panic. A sparse stride keeps the test quick —
	// FuzzSnapshotLoad explores mutations exhaustively.
	stride := 53
	if testing.Short() {
		stride = 211
	}
	for i := len(good) / 2; i < len(good); i += stride {
		mut := append([]byte(nil), good...)
		mut[i] ^= 0xff
		if back, err := Load(bytes.NewReader(mut), 0); err == nil {
			for _, id := range back.RunIDs() {
				r, err := back.Run(id)
				mustT(t, err)
				mustT(t, r.Validate())
			}
		}
	}
}

// TestLoadParallelDeterministicError: when several runs are corrupt, every
// worker count reports the error of the lowest-indexed bad run.
func TestLoadParallelDeterministicError(t *testing.T) {
	w := snapshotWarehouse(t, 4)
	var buf bytes.Buffer
	mustT(t, w.Save(&buf))
	var snap snapshot
	mustT(t, json.Unmarshal(buf.Bytes(), &snap))
	if len(snap.Runs) < 4 {
		t.Fatalf("fixture too small: %d runs", len(snap.Runs))
	}
	// Corrupt runs 1 and 3 differently: run 1 gets a self flow, run 3 an
	// unknown step.
	snap.Runs[1].Flows = append(snap.Runs[1].Flows, flowSnap{From: snap.Runs[1].Steps[0].ID, To: snap.Runs[1].Steps[0].ID, Data: []string{"zz1"}})
	snap.Runs[3].Flows = append(snap.Runs[3].Flows, flowSnap{From: "ghost-step", To: snap.Runs[3].Steps[0].ID, Data: []string{"zz2"}})
	blob, err := json.Marshal(&snap)
	mustT(t, err)

	_, wantErr := LoadWith(bytes.NewReader(blob), 0, LoadOptions{Workers: 1})
	if wantErr == nil {
		t.Fatal("corrupt snapshot accepted")
	}
	if !strings.Contains(wantErr.Error(), snap.Runs[1].ID) {
		t.Fatalf("serial load did not fail on the first bad run: %v", wantErr)
	}
	for trial := 0; trial < 8; trial++ {
		_, err := LoadWith(bytes.NewReader(blob), 0, LoadOptions{Workers: 8})
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("trial %d: parallel error %v, want %v", trial, err, wantErr)
		}
	}
}

// FuzzSnapshotLoad feeds Load arbitrary bytes, seeded with valid v1, v2
// and v3 snapshots and corruptions of all three. Load must never panic;
// when it succeeds, the resulting warehouse must re-save in both writable
// formats and contain only valid runs (the generic reader path eagerly
// materializes v3 runs, so this invariant covers v3 too).
func FuzzSnapshotLoad(f *testing.F) {
	w := New(0)
	if err := w.RegisterSpec(spec.Phylogenomics()); err != nil {
		f.Fatal(err)
	}
	if err := w.LoadRun(run.Figure2()); err != nil {
		f.Fatal(err)
	}
	var v1, v2, v3 bytes.Buffer
	if err := w.Save(&v1); err != nil {
		f.Fatal(err)
	}
	if err := w.SaveBinary(&v2); err != nil {
		f.Fatal(err)
	}
	if err := w.SaveV3(&v3); err != nil {
		f.Fatal(err)
	}
	f.Add(v1.Bytes())
	f.Add(v2.Bytes())
	f.Add(v3.Bytes())
	f.Add(v1.Bytes()[:v1.Len()/2])
	f.Add(v2.Bytes()[:v2.Len()/2])
	f.Add(v3.Bytes()[:v3.Len()/2])
	f.Add([]byte("ZOOM\x02"))
	f.Add([]byte("ZOOM\x03"))
	f.Add([]byte("Z"))
	f.Add([]byte("{}"))
	f.Add([]byte{})
	corrupt := append([]byte(nil), v2.Bytes()...)
	for i := 6; i < len(corrupt); i += 11 {
		corrupt[i] ^= 0x55
	}
	f.Add(corrupt)
	corrupt3 := append([]byte(nil), v3.Bytes()...)
	for i := 6; i < len(corrupt3); i += 131 {
		corrupt3[i] ^= 0x55
	}
	f.Add(corrupt3)
	f.Fuzz(func(t *testing.T, data []byte) {
		back, err := LoadWith(bytes.NewReader(data), 0, LoadOptions{Workers: 2})
		if err != nil {
			return
		}
		for _, id := range back.RunIDs() {
			r, err := back.Run(id)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Validate(); err != nil {
				t.Fatalf("loaded invalid run %q: %v", id, err)
			}
		}
		var b1, b2 bytes.Buffer
		if err := back.Save(&b1); err != nil {
			t.Fatalf("re-save v1: %v", err)
		}
		if err := back.SaveBinary(&b2); err != nil {
			t.Fatalf("re-save v2: %v", err)
		}
	})
}

// TestConcurrentParallelLoadEquivalence: loading the same snapshot with
// Workers=1 and Workers=8 yields identical warehouses — same catalog stats
// and identical deep-provenance answers — in both formats. Runs under
// -race in CI (name matches the Concurrent pattern).
func TestConcurrentParallelLoadEquivalence(t *testing.T) {
	w := snapshotWarehouse(t, 3)
	var v1, v2 bytes.Buffer
	mustT(t, w.Save(&v1))
	mustT(t, w.SaveBinary(&v2))

	for _, tc := range []struct {
		name string
		data []byte
	}{{"v1", v1.Bytes()}, {"v2", v2.Bytes()}} {
		t.Run(tc.name, func(t *testing.T) {
			serial, err := LoadWith(bytes.NewReader(tc.data), 0, LoadOptions{Workers: 1})
			mustT(t, err)
			parallel, err := LoadWith(bytes.NewReader(tc.data), 0, LoadOptions{Workers: 8})
			mustT(t, err)
			if !reflect.DeepEqual(serial.RunIDs(), parallel.RunIDs()) {
				t.Fatal("run sets differ by worker count")
			}
			if got, want := catalog(parallel.Stats()), catalog(serial.Stats()); !reflect.DeepEqual(got, want) {
				t.Fatalf("stats differ by worker count:\n workers=8 %+v\n workers=1 %+v", got, want)
			}
			if !reflect.DeepEqual(deepAnswers(t, serial), deepAnswers(t, parallel)) {
				t.Fatal("provenance answers differ by worker count")
			}
		})
	}
}
