// Command pd2d serves PD² engine shards over HTTP: joins, leaves, and
// reweights are admitted against property (W), batched per slot, and
// applied atomically at slot boundaries (see internal/serve and
// docs/SERVE.md). The daemon owns everything the deterministic serve
// layer must not touch: the listener, the wall-clock ticker that
// advances shards in real time, signal handling, and snapshot files.
//
// On SIGTERM/SIGINT it shuts the HTTP side down, drains every shard
// mailbox, and (with -snapshot-dir) writes one snapshot per shard; a
// restart with the same -snapshot-dir restores them, verifying each
// engine digest.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/frac"
	"repro/internal/serve"
)

// clusterConfig carries the optional multi-node mode: when Coordinator
// is set, the daemon wraps its serve layer in a cluster.Node, registers
// with the coordinator, and routes/replicates per the routing table.
type clusterConfig struct {
	ID          string
	Coordinator string
	Advertise   string
	AntiEntropy time.Duration
}

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8377", "listen address")
		shards       = flag.Int("shards", 8, "number of engine shards")
		m            = flag.Int("m", 4, "processors per shard")
		policy       = flag.String("policy", "oi", "reweighting policy: oi, lj, hybrid")
		oiThreshold  = flag.String("oi-threshold", "1/8", "hybrid only: |to-from| below this uses rules O/I (exact rational)")
		earlyRelease = flag.Bool("early-release", false, "enable the ERfair early-release extension")
		recordSched  = flag.Bool("record-schedule", false, "record per-slot schedules (needed for byte-exact state dumps; unbounded memory)")
		driftBound   = flag.String("drift-bound", "0", "anomaly threshold for per-task |drift| (exact rational; 0 disables the excursion counter)")
		tick         = flag.Duration("tick", 0, "advance every shard one slot per tick (0 disables; slots then advance only on request)")
		mailbox      = flag.Int("mailbox", 256, "mailbox capacity per shard")
		retryAfter   = flag.Int("retry-after", 1, "Retry-After seconds advertised on 429")
		snapshotDir  = flag.String("snapshot-dir", "", "directory for shard snapshots (empty disables persistence)")

		clusterCoord = flag.String("cluster-coordinator", "", "coordinator base URL; enables cluster mode (routing, replication, migration)")
		clusterID    = flag.String("cluster-id", "", "cluster mode: this node's unique name (defaults to the listen address)")
		clusterAdv   = flag.String("cluster-advertise", "", "cluster mode: base URL peers reach this node at (defaults to http://<addr>)")
		antiEntropy  = flag.Duration("cluster-anti-entropy", 500*time.Millisecond, "cluster mode: follower catch-up push interval")
	)
	flag.Parse()
	cc := clusterConfig{
		ID:          *clusterID,
		Coordinator: *clusterCoord,
		Advertise:   *clusterAdv,
		AntiEntropy: *antiEntropy,
	}
	if cc.Coordinator != "" {
		if cc.ID == "" {
			cc.ID = *addr
		}
		if cc.Advertise == "" {
			cc.Advertise = "http://" + *addr
		}
	}
	if err := run(*addr, *shards, *m, *policy, *oiThreshold, *driftBound, *earlyRelease, *recordSched,
		*tick, *mailbox, *retryAfter, *snapshotDir, cc); err != nil {
		log.Fatalf("pd2d: %v", err)
	}
}

func run(addr string, shards, m int, policy, oiThreshold, driftBound string, earlyRelease, recordSched bool,
	tick time.Duration, mailbox, retryAfter int, snapshotDir string, cc clusterConfig) error {
	th, err := frac.Parse(oiThreshold)
	if err != nil {
		return fmt.Errorf("-oi-threshold: %w", err)
	}
	db, err := frac.Parse(driftBound)
	if err != nil {
		return fmt.Errorf("-drift-bound: %w", err)
	}
	if db.Sign() < 0 {
		return fmt.Errorf("-drift-bound: must be >= 0, got %s", db)
	}
	opts := serve.Options{
		Shards: shards,
		Config: serve.ShardConfig{
			M:              m,
			Policy:         policy,
			OIThreshold:    th,
			EarlyRelease:   earlyRelease,
			RecordSchedule: recordSched,
			DriftBound:     db,
		},
		MailboxCap:        mailbox,
		RetryAfterSeconds: retryAfter,
	}
	if snapshotDir != "" {
		snaps, err := loadSnapshots(snapshotDir)
		if err != nil {
			return err
		}
		if len(snaps) > 0 {
			log.Printf("restoring %d shard(s) from %s", len(snaps), snapshotDir)
		}
		opts.Snapshots = snaps
	}
	srv, err := serve.New(opts)
	if err != nil {
		return err
	}
	// Bind before anything starts: a taken address fails startup
	// directly, and in cluster mode peers can reach the node as soon as
	// it registers.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("listen on %s: %w", addr, err)
	}
	srv.Start()

	// Cluster mode wraps the serve handler in the node middleware:
	// routing, synchronous replication, and the migration protocol.
	var node *cluster.Node
	handler := srv.Handler()
	if cc.Coordinator != "" {
		cs := serve.NewClusterStats(srv.NumShards())
		srv.AttachClusterStats(cs)
		node, err = cluster.NewNode(cluster.NodeOptions{
			ID:     cc.ID,
			Base:   cc.Advertise,
			Server: srv,
			Stats:  cs,
		})
		if err != nil {
			return err
		}
		handler = node.Handler()
	}

	httpSrv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}

	// Wall-clock slot ticker. serve itself never reads a clock; real time
	// enters the system only here. Ticks are delivered non-blocking, so a
	// shard busy with a long advance coalesces them instead of queueing.
	// In cluster mode only primary shards tick, and each advance is
	// replicated so followers track the clock.
	var ticker *time.Ticker
	tickDone := make(chan struct{})
	if tick > 0 {
		ticker = time.NewTicker(tick)
		go func() {
			defer close(tickDone)
			for range ticker.C {
				if node != nil {
					node.TickPrimaries(1)
					continue
				}
				for i := 0; i < srv.NumShards(); i++ {
					select {
					case srv.ShardTick(i) <- struct{}{}:
					default:
					}
				}
			}
		}()
	} else {
		close(tickDone)
	}

	errc := make(chan error, 1)
	go func() {
		errc <- httpSrv.Serve(ln)
	}()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)

	if node != nil {
		// Register, retrying while the coordinator comes up; then start
		// the anti-entropy pushes.
		go func() {
			for attempt := 0; attempt < 40; attempt++ {
				if err := node.Register(cc.Coordinator); err == nil {
					log.Printf("cluster: registered as %s with %s", cc.ID, cc.Coordinator)
					return
				} else if attempt == 39 {
					log.Printf("cluster: giving up on registration: %v", err)
				}
				time.Sleep(250 * time.Millisecond)
			}
		}()
		node.Start(cc.AntiEntropy)
	}

	log.Printf("pd2d listening on %s: %d shard(s), M=%d, policy=%s, tick=%s", addr, shards, m, policy, tick)
	select {
	case err := <-errc:
		return fmt.Errorf("serve on %s: %w", addr, err)
	case sig := <-sigc:
		log.Printf("received %s; draining", sig)
	}

	// Orderly teardown: quiesce HTTP first so nothing submits to the
	// mailboxes, stop the ticker, then drain and stop the shards.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if serveErr := <-errc; !errors.Is(serveErr, http.ErrServerClosed) {
		log.Printf("serve loop: %v", serveErr)
	}
	if ticker != nil {
		ticker.Stop()
	}
	if node != nil {
		node.Stop()
	}
	srv.Stop()

	if snapshotDir != "" {
		if err := writeSnapshots(snapshotDir, srv.Snapshots()); err != nil {
			return fmt.Errorf("writing snapshots: %w", err)
		}
		log.Printf("snapshotted %d shard(s) to %s", srv.NumShards(), snapshotDir)
	}
	log.Printf("clean shutdown")
	return nil
}

// snapshotPath names shard i's snapshot file.
func snapshotPath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d.json", shard))
}

// loadSnapshots reads every shard-*.json in dir. A missing directory or
// an empty one means a fresh start.
func loadSnapshots(dir string) ([]*serve.Snapshot, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "shard-*.json"))
	if err != nil {
		return nil, err
	}
	var snaps []*serve.Snapshot
	for _, path := range matches {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var snap serve.Snapshot
		if err := snap.UnmarshalJSON(data); err != nil {
			return nil, fmt.Errorf("decoding %s: %w", path, err)
		}
		snaps = append(snaps, &snap)
	}
	return snaps, nil
}

// writeSnapshots persists one file per shard, each streamed through
// serve.EncodeTail into a temp file that is synced and then renamed, so
// a crash mid-write never leaves a truncated snapshot behind; the
// directory is synced after the renames, so a power loss cannot persist
// a rename without its data.
func writeSnapshots(dir string, snaps []*serve.Snapshot) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, snap := range snaps {
		path := snapshotPath(dir, snap.Shard)
		tmp := path + ".tmp"
		if err := writeSynced(tmp, snap); err != nil {
			return err
		}
		if err := os.Rename(tmp, path); err != nil {
			return err
		}
	}
	return syncDir(dir)
}

// writeSynced writes snap to path and syncs it to stable storage.
func writeSynced(path string, snap *serve.Snapshot) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	err = serve.EncodeTail(f, snap)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir syncs directory dir, making the renames inside it durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
