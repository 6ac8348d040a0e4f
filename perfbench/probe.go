package main

import (
	"hash/maphash"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"time"
)

// The host drifts: other tenants of the machine take its cores, caches and
// memory bandwidth in spells from a fraction of a second to minutes, and
// the benchmark's times move with them. A probe measures that drift. It times a fixed
// piece of work that does not touch the program under test and does not
// allocate, so neither the program's code nor its heap can move it: text
// encoding (quoted strings and integers, as a JSON encoder writes them),
// hashing the text, map lookups and a sort, on one goroutine per core,
// as the closed loop keeps the cores busy.

// probeEvery is how often the closed loop pauses for a probe burst. The
// host flips between fast and slow spells within a fraction of a second,
// so many short bursts spread over each second follow it better than one
// long one.
const probeEvery = 100 * time.Millisecond

// prober is one goroutine's probe state, built once so the units allocate
// nothing.
type prober struct {
	keys    []string
	m       map[string]int
	ints    []int
	scratch []int
	out     []byte
	seed    maphash.Seed
	sink    uint64
}

func newProber() *prober {
	rng := rand.New(rand.NewSource(1))
	p := &prober{m: map[string]int{}, seed: maphash.MakeSeed()}
	for i := 0; i < 2048; i++ {
		k := "data-" + strconv.Itoa(rng.Intn(1<<30)) + "/M" + strconv.Itoa(i)
		p.keys = append(p.keys, k)
		p.m[k] = i
	}
	for i := 0; i < 4096; i++ {
		p.ints = append(p.ints, rng.Int())
	}
	p.scratch = make([]int, len(p.ints))
	p.out = make([]byte, 0, 1<<16)
	return p
}

// unit is one piece of the probe's fixed work.
func (p *prober) unit() {
	p.out = p.out[:0]
	for i, k := range p.keys {
		p.out = strconv.AppendQuote(p.out, k)
		p.out = strconv.AppendInt(p.out, int64(i)*7919, 10)
	}
	s := maphash.Bytes(p.seed, p.out)
	for _, k := range p.keys {
		s += uint64(p.m[k])
	}
	copy(p.scratch, p.ints)
	slices.Sort(p.scratch)
	p.sink += s + uint64(p.scratch[len(p.scratch)/2])
}

// probe times units on each of clients goroutines at once.
type probe struct{ ps []*prober }

func newProbe() *probe {
	pr := &probe{}
	for g := 0; g < clients; g++ {
		pr.ps = append(pr.ps, newProber())
	}
	return pr
}

// run times n units on each goroutine and returns the unit times.
func (pr *probe) run(n int) []time.Duration {
	times := make([]time.Duration, clients*n)
	var wg sync.WaitGroup
	for g, p := range pr.ps {
		wg.Add(1)
		go func(g int, p *prober) {
			defer wg.Done()
			for u := 0; u < n; u++ {
				t0 := time.Now()
				p.unit()
				times[g*n+u] = time.Since(t0)
			}
		}(g, p)
	}
	wg.Wait()
	return times
}
