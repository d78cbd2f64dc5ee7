package bench

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/frac"
	"repro/internal/serve"
)

// memHost hosts the same layers the binaries wire together, in this
// process on loopback listeners: serve.New behind an http.Server for a
// node, and cluster.NewCoordinator plus three cluster.NewNode for the
// cluster. With a tracer it wraps each layer's handler and the nodes'
// HTTP client so every call is recorded as a span.
type memHost struct {
	tr *tracer // nil: untraced
	// The last restore's two phases, for the restore.* probes.
	decode, replay time.Duration
}

// memDeployment is one in-process system.
type memDeployment struct {
	w       *Workload
	snapDir string
	https   []*http.Server
	coord   *cluster.Coordinator
	nodes   []*cluster.Node
	srvs    []*serve.Server
	primary *serve.Server // the server holding the workload's primary shards
	address string
}

// shardConfig is the configuration pd2d gives every shard of w, with
// its default hybrid threshold.
func shardConfig(w *Workload) serve.ShardConfig {
	return serve.ShardConfig{M: w.M, Policy: w.Policy, OIThreshold: frac.New(1, 8)}
}

// listen serves h on a fresh loopback port and returns its address.
func (d *memDeployment) listen(h http.Handler) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	d.https = append(d.https, hs)
	go func() { _ = hs.Serve(l) }() // returns ErrServerClosed at stop
	return l.Addr().String(), nil
}

func (h *memHost) start(w *Workload, snapDir string) (deployment, error) {
	d := &memDeployment{w: w, snapDir: snapDir}
	if err := h.startInto(d, w); err != nil {
		_ = d.stop(false) // already failing; the start error says why
		return nil, err
	}
	return d, nil
}

func (h *memHost) startInto(d *memDeployment, w *Workload) error {
	cfg := shardConfig(w)
	var err error
	if !w.Cluster {
		srv, err := serve.New(serve.Options{Shards: w.Shards, Config: cfg})
		if err != nil {
			return err
		}
		srv.Start()
		d.srvs, d.primary = []*serve.Server{srv}, srv
		var handler http.Handler = srv.Handler()
		if h.tr != nil {
			//lint:allow detflow span timestamps stay in the tracer; no clock value reaches a replayed command
			handler = h.tr.serveHandler(handler)
		}
		d.address, err = d.listen(handler)
		return err
	}
	d.coord, err = cluster.NewCoordinator(cluster.CoordinatorOptions{Shards: 1, Replicas: 2, MinNodes: 3})
	if err != nil {
		return err
	}
	coordAddr, err := d.listen(d.coord.Handler())
	if err != nil {
		return err
	}
	d.coord.Start(0)
	byID := make(map[string]*serve.Server)
	for i := 1; i <= 3; i++ {
		srv, err := serve.New(serve.Options{Shards: 1, Config: cfg})
		if err != nil {
			return err
		}
		srv.Start()
		d.srvs = append(d.srvs, srv)
		cs := serve.NewClusterStats(1)
		srv.AttachClusterStats(cs)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		base := "http://" + l.Addr().String()
		opts := cluster.NodeOptions{ID: "n" + strconv.Itoa(i), Base: base, Server: srv, Stats: cs}
		if h.tr != nil {
			opts.Client = &http.Client{Timeout: 5 * time.Second, Transport: &pushTransport{t: h.tr, base: http.DefaultTransport}}
		}
		node, err := cluster.NewNode(opts)
		if err != nil {
			l.Close()
			return err
		}
		d.nodes = append(d.nodes, node)
		byID[opts.ID] = srv
		var handler http.Handler = node.Handler()
		if h.tr != nil {
			handler = h.tr.nodeHandler(handler)
		}
		hs := &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
		d.https = append(d.https, hs)
		go func() { _ = hs.Serve(l) }() // returns ErrServerClosed at stop
		node.Start(0)
		if err := node.Register("http://" + coordAddr); err != nil {
			return err
		}
	}
	addr, id, err := clusterPrimary(coordAddr)
	d.address, d.primary = addr, byID[id]
	return err
}

func (h *memHost) restore(w *Workload, snapDir string) (deployment, error) {
	//lint:allow detflow the restore is timed; no clock value reaches a replayed command
	t0 := time.Now()
	paths, err := filepath.Glob(filepath.Join(snapDir, "shard-*.json"))
	if err != nil {
		return nil, err
	}
	var snaps []*serve.Snapshot
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var snap serve.Snapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			return nil, err
		}
		snaps = append(snaps, &snap)
	}
	t1 := time.Now()
	srv, err := serve.New(serve.Options{Shards: w.Shards, Config: shardConfig(w), Snapshots: snaps})
	if err != nil {
		return nil, err
	}
	h.decode, h.replay = t1.Sub(t0), time.Since(t1)
	srv.Start()
	d := &memDeployment{w: w, srvs: []*serve.Server{srv}, primary: srv}
	if d.address, err = d.listen(srv.Handler()); err != nil {
		_ = d.stop(false) // already failing
		return nil, err
	}
	return d, nil
}

func (h *memHost) reference() (deployment, error) {
	d := &memDeployment{}
	var err error
	if d.address, err = d.listen(ReferenceHandler()); err != nil {
		return nil, err
	}
	return d, nil
}

func (d *memDeployment) addr() string { return d.address }

// stop mirrors pd2d's shutdown order: quiesce HTTP, stop the cluster
// loops, drain the shards, then (graceful node stops) write one
// snapshot file per shard.
func (d *memDeployment) stop(graceful bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	for _, hs := range d.https {
		if err := hs.Shutdown(ctx); err != nil {
			errs = append(errs, err)
		}
	}
	for _, n := range d.nodes {
		n.Stop()
	}
	if d.coord != nil {
		d.coord.Stop()
	}
	for _, s := range d.srvs {
		s.Stop()
	}
	if graceful && !d.w.Cluster && d.snapDir != "" {
		if err := writeSnapshots(d.snapDir, d.primary.Snapshots()); err != nil {
			errs = append(errs, err)
		}
	}
	d.https, d.nodes, d.coord, d.srvs = nil, nil, nil, nil
	return errors.Join(errs...)
}

// writeSnapshots stores snapshots the way pd2d does at shutdown.
func writeSnapshots(dir string, snaps []*serve.Snapshot) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, snap := range snaps {
		data, err := json.MarshalIndent(snap, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(snapshotFile(dir, snap.Shard), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// memory reports this process: it hosts the system, and the load.
func (d *memDeployment) memory() (memStats, error) {
	kb, err := procStatusKB(os.Getpid(), "VmHWM")
	if err != nil {
		return memStats{}, err
	}
	var rt runtime.MemStats
	runtime.ReadMemStats(&rt)
	ms := memStats{
		peakRSSMB:   kb / 1024,
		gcCycles:    float64(rt.NumGC),
		gcPauseMS:   float64(rt.PauseTotalNs) / 1e6,
		heapInuseMB: float64(rt.HeapInuse) / (1 << 20),
	}
	runtime.GC()
	runtime.GC() // the first only moves pooled buffers to the victim cache
	runtime.ReadMemStats(&rt)
	ms.liveHeapMB = float64(rt.HeapAlloc) / (1 << 20)
	return ms, nil
}
