package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/zoom"
	"repro/zoom/client"
)

// Tier configuration: the `zoom serve` and `zoom router` flag defaults.
// The one departure is the worker's expvar name, which is process-global:
// two in-process workers cannot both publish "zoom", so none publishes.
var (
	serverConfig = zoom.ServerConfig{SlowThreshold: 10 * time.Millisecond, SlowLogSize: 128}
	routerConfig = zoom.RouterConfig{
		ForwardTimeout:   30 * time.Second,
		GatherTimeout:    5 * time.Second,
		Fanout:           8,
		HealthInterval:   2 * time.Second,
		BreakerThreshold: 3,
		BreakerCooldown:  5 * time.Second,
		CacheEntries:     4096,
		SlowThreshold:    10 * time.Millisecond,
		SlowLogSize:      128,
	}
)

// tiers is one booted system: a worker per snapshot file, each on its own
// loopback listener, and a router in front when the workload has shards.
type tiers struct {
	systems []*zoom.System
	servers []*zoom.Server
	workers []string // worker base URLs in shard order
	router  *zoom.Router
	front   string // the base URL clients query
	openDur time.Duration

	https  []*http.Server
	cancel context.CancelFunc // stops the router's health loop
	wg     sync.WaitGroup
	mu     sync.Mutex
	errs   []error
}

// serve serves h on ln until stop. This is what the tiers' own Serve
// methods do, less the graceful drain: stop runs when no request is in
// flight, and closing at once spares it waiting out connections a client
// transport dialed but never used.
func (t *tiers) serve(ln net.Listener, h http.Handler) {
	hs := &http.Server{Handler: h}
	t.https = append(t.https, hs)
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			t.mu.Lock()
			t.errs = append(t.errs, err)
			t.mu.Unlock()
		}
	}()
}

// openSystem opens a snapshot the way `zoom serve` does: lazily from a
// memory map with -mmap, else an eager load.
func openSystem(path string, lazy bool, opts zoom.LoadOptions) (*zoom.System, error) {
	if lazy {
		return zoom.OpenSnapshot(path, opts)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return zoom.LoadSystemWith(f, opts)
}

func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

// boot starts the tiers over the snapshot files and returns once every
// worker and the router answer /readyz with 200. With reached set (the
// traced run), each worker's handler logs the sampled requests it serves.
func boot(paths []string, lazy, routed bool, reached *idLog) (*tiers, error) {
	ctx, cancel := context.WithCancel(context.Background())
	t := &tiers{cancel: cancel}
	for _, p := range paths {
		reg := zoom.NewMetrics()
		srv, err := zoom.NewServer(reg, serverConfig)
		if err != nil {
			t.stop()
			return nil, err
		}
		ln, url, err := listen()
		if err != nil {
			t.stop()
			return nil, err
		}
		h := srv.Handler()
		if reached != nil {
			h = reached.wrap(h)
		}
		t.serve(ln, h)
		t0 := time.Now()
		sys, err := openSystem(p, lazy, zoom.LoadOptions{Metrics: reg, Progress: srv.SetLoadProgress})
		t.openDur += time.Since(t0)
		if err != nil {
			t.stop()
			return nil, fmt.Errorf("open %s: %w", p, err)
		}
		sys.ConnectServer(srv)
		t.systems = append(t.systems, sys)
		t.servers = append(t.servers, srv)
		t.workers = append(t.workers, url)
	}
	t.front = t.workers[0]
	if routed {
		cfg := routerConfig
		for _, w := range t.workers {
			cfg.Shards = append(cfg.Shards, []string{w})
		}
		rt, err := zoom.NewRouter(zoom.NewMetrics(), cfg)
		if err != nil {
			t.stop()
			return nil, err
		}
		ln, url, err := listen()
		if err != nil {
			t.stop()
			return nil, err
		}
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			rt.HealthLoop(ctx)
		}()
		t.serve(ln, rt.Handler())
		t.router, t.front = rt, url
	}
	bases := append([]string(nil), t.workers...)
	if routed {
		bases = append(bases, t.front)
	}
	for _, b := range bases {
		if err := waitReady(b); err != nil {
			t.stop()
			return nil, err
		}
	}
	return t, nil
}

// waitReady polls base/readyz until it answers 200.
func waitReady(base string) error {
	cl := client.New(base, client.Options{Timeout: 5 * time.Second, MaxIdleConns: 1})
	deadline := time.Now().Add(30 * time.Second)
	for {
		rz, err := cl.Ready(context.Background())
		if err == nil && rz.Ready {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 30s (last error: %v)", base, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// owner returns the index of the worker holding runID.
func (t *tiers) owner(runID string) int {
	if t.router == nil {
		return 0
	}
	return t.router.Ring().Place(runID)
}

// stop shuts every tier down, waits for the serving goroutines, and
// releases the snapshots.
func (t *tiers) stop() error {
	t.cancel()
	for _, hs := range t.https {
		hs.Close()
	}
	t.wg.Wait()
	for _, s := range t.systems {
		if err := s.Close(); err != nil {
			t.errs = append(t.errs, err)
		}
	}
	return errors.Join(t.errs...)
}
